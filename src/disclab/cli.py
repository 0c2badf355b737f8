"""Command-line front end: named experiments with reproducible JSON reports.

Subcommands: solve, residual, zeros, separation, condition, norm, kernels,
identities, hardy, experiment.  Every run emits a canonical JSON report
(sorted keys, floats in their shortest round-trip form, schema version 1,
no timestamps), so identical configurations produce byte-identical output;
profile tables can additionally be written as RFC-4180 CSV (floats as
``.17g``).

Exit codes: 0 success, 2 configuration error or a non-finite value in the
report (JSON has no ``Infinity`` or ``NaN``), 3 when ``--strict`` is given
and a numerical-accuracy warning fired during the run.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import warnings

import numpy as np

import disclab  # each estimator module loads when a command first reaches it

from .grids import QuadratureGrid
from .ode import EXAMPLE_SPECS, hille_zero_table, named_example, residual, solve_series, symmetric_power_problem
from .series import AccuracyWarning, PowerSeries, exp_series
from .specs import checked, parse_spec

# ---------------------------------------------------------------------------
# spec families (the grammar is disclab.specs.parse_spec)
# ---------------------------------------------------------------------------

# Largest series order a spec may ask for: zn:n, and q**terms for lacunary.
MAX_SPEC_ORDER = 2**20

LACUNARY_SPEC = {
    "q": (checked(int, lambda q: q >= 2, "lacunary needs an integer q >= 2"), 2),
    "terms": (checked(int, lambda t: t >= 1, "lacunary needs an integer terms >= 1"), 8),
}
FUNCTION_SPECS = {
    **EXAMPLE_SPECS,
    "poly": checked(
        lambda text: [complex(t) for t in text.split(",")], bool, "poly needs complex literals c0,c1,..."
    ),
    "log-reciprocal": {},
    "lacunary": LACUNARY_SPEC,
    "exp": {"eps": (complex, 0.1)},
    "zn": {
        "n": (checked(int, lambda n: 0 <= n <= MAX_SPEC_ORDER, "zn needs an integer 0 <= n <= 2**20"), 1)
    },
}

# q**terms is bounded through terms * log2(q), so a huge q**terms is never built.
_lacunary_size = checked(
    tuple,
    lambda qt: qt[1] * math.log2(qt[0]) <= math.log2(MAX_SPEC_ORDER),
    "lacunary needs q**terms <= 2**20 for (q, terms)",
)


def _lacunary_frequencies(q: int, terms: int) -> list[int]:
    _lacunary_size((q, terms))
    return [q**k for k in range(1, terms + 1)]


def _lacunary(order: int, q: int, terms: int) -> PowerSeries:
    freqs = _lacunary_frequencies(q, terms)  # checks the size before anything is built
    return disclab.conditions.lacunary_series(np.ones(terms), freqs, order=max(order, freqs[-1]))


_FUNCTION_CONSTRUCTORS = {
    "poly": lambda order, payload: PowerSeries(payload).pad(max(order, len(payload) - 1)),
    "log-reciprocal": lambda order: disclab.conditions.log_reciprocal_coefficient(order),
    "lacunary": _lacunary,
    "exp": lambda order, eps: exp_series(PowerSeries([0.0, eps]).pad(order)),
    "zn": lambda order, n: disclab.conditions.lacunary_series([1.0], [n], order=max(order, n)),  # z^n
}


def parse_function(spec: str, order: int) -> PowerSeries:
    """The series of a coefficient/function spec (families: ``FUNCTION_SPECS``)."""
    name, params = parse_spec(spec, FUNCTION_SPECS)
    if name in EXAMPLE_SPECS:
        return named_example(spec, order).coefficient
    return _FUNCTION_CONSTRUCTORS[name](order, **params)


def build_grid(args) -> QuadratureGrid:
    return QuadratureGrid(
        r_max=args.r_max,
        nodes_per_panel=args.nodes_per_panel,
        angular=args.angular,
    )


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """``json.dumps`` hook: complex numbers as ``[re, im]``, numpy scalars
    as Python ones, dataclasses as dicts of their fields."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    if hasattr(obj, "__dataclass_fields__"):
        return {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    raise TypeError(f"{type(obj).__name__} is not serializable")


def render_report(command: str, config: dict, results, grid: QuadratureGrid | None) -> str:
    """The canonical JSON report; a non-finite value raises ``ValueError``
    naming it, since ``Infinity`` and ``NaN`` are not JSON."""
    body = {
        "schema": 1,
        "command": command,
        "config": config,
        "results": results,
        "versions": {
            "disclab": disclab.__version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    if grid is not None:
        body["grid"] = {
            "fingerprint": grid.fingerprint(),
            "r_max": grid.r_max,
            "angular": grid.angular,
            "nodes_per_panel": grid.nodes_per_panel,
        }
    dump = lambda allow_nan: json.dumps(body, sort_keys=True, indent=1, default=_jsonable, allow_nan=allow_nan)
    try:
        return dump(False)
    except ValueError:
        bad = next(line for line in dump(True).splitlines() if line.rstrip(",").endswith(("NaN", "Infinity")))
        raise ValueError(f"the report holds a non-finite value: {bad.strip().rstrip(',')}") from None


def write_csv(path: str, header: list[str], rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a results object)
# ---------------------------------------------------------------------------

def _cmd_solve(args, grid):
    if args.emit_coeffs < 0:
        raise ValueError("--emit-coeffs must be nonnegative")
    ex = named_example(args.example, order=args.order)
    f = solve_series(ex.problem)
    try:
        res = residual(f, ex.problem, r_max=min(0.9, grid.r_max))
    except ValueError:
        res = None  # overflow-truncated solutions have no evaluable residual
    n = min(f.order, ex.reference.order, 60)
    return {
        "tag": ex.tag,
        "order": f.order,
        "residual_r09": res,
        "coefficients": [complex(c) for c in f.coeffs[: args.emit_coeffs]],
        "reference_coeff_error": float(np.max(np.abs(f.coeffs[: n + 1] - ex.reference.coeffs[: n + 1]))),
    }


def _cmd_residual(args, grid):
    ex = named_example(args.example, order=args.order)
    f = solve_series(ex.problem)
    return {"tag": ex.tag, "residual": residual(f, ex.problem, r_max=args.residual_rmax)}


def _example_gamma(spec: str) -> float:
    """``gamma`` of a ``hille:gamma=G`` spec; other examples have no zero table."""
    return parse_spec(spec, {"hille": EXAMPLE_SPECS["hille"]})[1]["gamma"]


def _cmd_zeros(args, grid):
    gamma = _example_gamma(args.example)
    table = hille_zero_table(gamma, args.count, order=args.order)
    rows = []
    prev_s = 0.0
    for k, (x, s) in enumerate(table, start=1):
        rows.append({"k": k, "x": x, "s": s, "gap": s - prev_s})
        prev_s = s
    if args.csv:
        write_csv(args.csv, ["k", "x", "s", "gap"], [(r["k"], r["x"], r["s"], r["gap"]) for r in rows])
    return {"gamma": gamma, "zeros": rows}


def _cmd_separation(args, grid):
    from . import geometry

    gamma = _example_gamma(args.example)
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    xs = [math.tanh(k * math.pi / (2 * gamma)) for k in range(1, args.count + 1)]
    xs = [x for x in xs if x < 1.0]
    seq = geometry.ZeroSequence(tuple((x, args.multiplicity) for x in xs))
    rep = geometry.greedy_partition(seq, args.delta) if args.delta else geometry.separation_constants(seq)
    out = {
        "count_used": len(xs),
        "separation_constant": rep.separation_constant,
        "uniform_separation_constant": rep.uniform_separation_constant,
    }
    if args.delta:
        out["delta"] = args.delta
        out["partition_count"] = rep.partition_count
    return out


def _decay(A, args, grid):
    if args.profile_points < 1:
        raise ValueError("--profile-points must be at least 1")
    radii = [float(r) for r in np.linspace(0.5, grid.r_max, args.profile_points)]
    rows = disclab.conditions.decay_conditions(A, radii, grid)
    if args.csv:
        write_csv(args.csv, ["r", "lmoa_at_r", "log_weighted_sup"], rows)
    return {"profile": [list(row) for row in rows]}


# kind -> (series, args, grid) -> results, for ``condition --kind``
CONDITIONS = {
    "nehari": lambda A, args, grid: disclab.conditions.nehari_sup(A, grid),
    "growth3": lambda A, args, grid: list(
        disclab.conditions.order3_growth(*symmetric_power_problem(A).coefficients, grid)
    ),
    "area3": lambda A, args, grid: list(
        disclab.conditions.order3_area(*symmetric_power_problem(A).coefficients, grid)
    ),
    "lalpha": lambda A, args, grid: disclab.conditions.lalpha_norm(A, args.alpha, grid),
    "lmoa": lambda A, args, grid: disclab.conditions.lmoa_quantity(A, grid),
    "lmoa-square": lambda A, args, grid: disclab.conditions.lmoa_square(A, grid),
    "bmoa-dd": lambda A, args, grid: disclab.conditions.bmoa_dd(A, grid),
    "bmoa-h1": lambda A, args, grid: disclab.conditions.bmoa_h1_cond(A, args.dilation, grid),
    "cauchy-bound": lambda A, args, grid: {
        "value": disclab.conditions.cauchy_bound(A, args.dilation, args.at, args.angular)
    },
    "decay": _decay,
}

# kind -> (series, args, grid) -> results, for ``norm --kind``
NORMS = {
    "hp": lambda f, args, grid: disclab.norms.hp_norm(f, args.p, grid),
    "growth": lambda f, args, grid: disclab.norms.growth_norm(f, args.q, grid),
    "bloch": lambda f, args, grid: disclab.norms.bloch_norm(f, grid),
    "bmoa-garsia": lambda f, args, grid: disclab.norms.bmoa_garsia(f, grid),
    "bmoa-h2": lambda f, args, grid: disclab.norms.bmoa_h2_def(f, grid),
}


def _cmd_condition(args, grid):
    return CONDITIONS[args.kind](parse_function(args.coeff, args.order), args, grid)


def _cmd_norm(args, grid):
    return NORMS[args.kind](parse_function(args.f, args.order), args, grid)


def _cmd_kernels(args, grid):
    from . import weights

    w = weights.weight_from_spec(args.weight)
    zeta, u = complex(args.zeta), complex(args.at)
    val = weights.kernel_eval(w, zeta, u, args.order)
    out = {
        "kernel_value": val,
        "derivative_residual": weights.kernel_derivative_residual(w, zeta, u, args.order),
        "moment_identity_gap": weights.moment_identity_gap(w, nmax=64),
    }
    if isinstance(w, weights.StandardWeight) and float(w.alpha).is_integer():
        closed = (1.0 - u * np.conj(zeta)) ** (-2.0 - w.alpha)
        out["closed_form_error"] = float(abs(val - closed))
    return out


def _cmd_identities(args, grid):
    from . import weights

    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    w = weights.weight_from_spec(args.weight)
    rng = np.random.default_rng(args.seed)
    suite = args.suite

    def random_poly(deg):
        return PowerSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))

    if suite == "green":
        worst = 0.0
        for _ in range(args.trials):
            f, g = random_poly(8), random_poly(8)
            worst = max(worst, weights.green_identity_residual(f, g, w, grid))
        return {"suite": "green", "max_residual": worst}
    if suite == "kernel":
        worst = 0.0
        for _ in range(args.trials):
            zeta = 0.8 * (rng.random() * np.exp(2j * np.pi * rng.random()))
            u = 0.8 * (rng.random() * np.exp(2j * np.pi * rng.random()))
            worst = max(worst, weights.kernel_derivative_residual(w, zeta, u, 200))
        return {"suite": "kernel", "max_residual": worst, "moment_gap": weights.moment_identity_gap(w)}
    if suite == "hss":
        from . import hardy

        worst = 0.0
        for _ in range(args.trials):
            f = hardy.zero_free_polynomial(rng, 6)
            worst = max(worst, *hardy.hss_residual(f, (0.5, 1.0, 2.0, 4.0), grid))
        return {"suite": "hss", "max_residual": worst}
    return {"suite": "moment", "moment_gap": weights.moment_identity_gap(w)}


def _cmd_hardy(args, grid):
    from . import hardy

    if args.corpus:
        with open(args.corpus) as fh:
            corpus = hardy.corpus_from_manifest(fh.read())
    else:
        corpus = hardy.default_corpus(seed=args.seed)
    sides = hardy.prop_main_sides([cf.series for cf in corpus], args.p, args.k, grid)
    rows = [(cf.name, *pair) for cf, pair in zip(corpus, sides)]
    if args.csv:
        write_csv(args.csv, ["name", "hardy_power", "area_plus_inits"], rows)
    out_rows = [{"name": n, "hardy_power": h, "area_plus_inits": a} for n, h, a in rows]
    return {"p": args.p, "k": args.k, "functions": out_rows}


def _cmd_experiment(args, grid):
    if args.kind == "hp-membership":
        return disclab.hardy.hp_membership_experiment(parse_function(args.coeff, args.order), args.p, grid)
    if args.kind == "zero-free-cp":
        f = parse_function(args.f, args.order)
        slope, track = disclab.hardy.fit_cp_exponent(f, grid)
        if args.csv:
            write_csv(args.csv, ["p", "C_emp"], track)
        return {"fitted_exponent": slope, "track": [list(t) for t in track]}
    freqs = _lacunary_frequencies(**parse_spec(args.coeff, {"lacunary": LACUNARY_SPEC})[1])  # lacunary
    if len(freqs) < 2:
        raise ValueError("lacunary needs terms >= 2 here: one frequency has no gap ratio")
    return disclab.conditions.lacunary_lmoa(np.ones(len(freqs)), freqs)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="disclab", description=__doc__)
    ap.add_argument("--out", help="write the JSON report to this path (default stdout)")
    ap.add_argument("--csv", help="write profile/table CSV to this path")
    ap.add_argument("--strict", action="store_true", help="exit 3 on accuracy warnings")
    ap.add_argument("--grid-refine", action="store_true", help="double the grid resolution")
    ap.add_argument("--order", type=int, default=256, help="series truncation order")
    ap.add_argument("--r-max", type=float, default=0.999)
    ap.add_argument("--angular", type=int, default=544)
    ap.add_argument("--nodes-per-panel", type=int, default=8)
    ap.add_argument("--seed", type=int, default=7)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a named example")
    sp.add_argument("--example", required=True)
    sp.add_argument("--emit-coeffs", type=int, default=16)

    sp = sub.add_parser("residual", help="residual of a named example's solution")
    sp.add_argument("--example", required=True)
    sp.add_argument("--residual-rmax", type=float, default=0.9)

    sp = sub.add_parser("zeros", help="zero table of the oscillatory example")
    sp.add_argument("--example", required=True)
    sp.add_argument("--count", type=int, default=15)

    sp = sub.add_parser("separation", help="separation constants of example zeros")
    sp.add_argument("--example", required=True)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--multiplicity", type=int, default=1)
    sp.add_argument("--delta", type=float, default=None)

    sp = sub.add_parser("condition", help="coefficient-condition estimators")
    sp.add_argument("--kind", required=True, choices=CONDITIONS)
    sp.add_argument("--coeff", required=True)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--dilation", type=float, default=0.9)
    sp.add_argument("--at", type=complex, default=0.5 + 0j)
    sp.add_argument("--profile-points", type=int, default=8)

    sp = sub.add_parser("norm", help="function-space norm estimators")
    sp.add_argument("--kind", required=True, choices=NORMS)
    sp.add_argument("--f", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=0.0)

    sp = sub.add_parser("kernels", help="reproducing-kernel diagnostics")
    sp.add_argument("--weight", required=True)
    sp.add_argument("--zeta", type=complex, default=0.5 + 0j)
    sp.add_argument("--at", type=complex, default=0.5 + 0j)

    sp = sub.add_parser("identities", help="identity verification suites")
    sp.add_argument("--suite", required=True, choices=("green", "kernel", "hss", "moment"))
    sp.add_argument("--weight", default="standard:alpha=0")
    sp.add_argument("--trials", type=int, default=5)

    sp = sub.add_parser("hardy", help="two-sided Hardy comparison over a corpus")
    sp.add_argument("--corpus", help='corpus manifest JSON path (default: built-in): '
                    '{"functions": [{"name": ..., "coeffs": [[re, im], ...], "tags": [...]}, ...]}')
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--k", type=int, default=1)

    sp = sub.add_parser("experiment", help="composite experiments")
    sp.add_argument("--kind", required=True, choices=("hp-membership", "zero-free-cp", "lacunary"))
    sp.add_argument("--coeff", help="default: lacunary for --kind lacunary, else constant:c=0.05")
    sp.add_argument("--f", default="exp:eps=0.1")
    sp.add_argument("--p", type=float, default=2.0)

    return ap


_HANDLERS = {
    "solve": _cmd_solve,
    "residual": _cmd_residual,
    "zeros": _cmd_zeros,
    "separation": _cmd_separation,
    "condition": _cmd_condition,
    "norm": _cmd_norm,
    "kernels": _cmd_kernels,
    "identities": _cmd_identities,
    "hardy": _cmd_hardy,
    "experiment": _cmd_experiment,
}


# ``experiment --coeff`` default of each kind (it shows in the report's config).
EXPERIMENT_COEFF = {
    "hp-membership": "constant:c=0.05",
    "zero-free-cp": "constant:c=0.05",
    "lacunary": "lacunary",
}


def _check_flags(args) -> None:
    """Every numeric flag is finite, and ``--order`` is a size a spec may ask for."""
    for name, value in vars(args).items():
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value!r}")
    if not 0 <= args.order <= MAX_SPEC_ORDER:
        raise ValueError(f"--order must lie in [0, 2**20], got {args.order}")


def _config_dict(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "out"}


def run(argv=None) -> int:
    ap = _make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "experiment" and args.coeff is None:
        args.coeff = EXPERIMENT_COEFF[args.kind]
    try:
        _check_flags(args)
        grid = build_grid(args)
        if args.grid_refine:
            grid = grid.refined()
        handler = _HANDLERS[args.command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AccuracyWarning)
            results = handler(args, grid)
        report = render_report(args.command, _config_dict(args), results, grid)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report + "\n")
        else:
            print(report)
        flagged = any(issubclass(w.category, AccuracyWarning) for w in caught)
        if args.strict and flagged:
            print("accuracy warnings were raised (strict mode)", file=sys.stderr)
            return 3
        return 0
    except Exception as exc:
        if not isinstance(exc, (ValueError, OSError, disclab.norms.QuadratureError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
