"""Command-line front end: named experiments with reproducible JSON reports.

Subcommands: solve, residual, zeros, separation, condition, norm, kernels,
identities, hardy, experiment.  Every run emits a canonical JSON report
(sorted keys, 17-significant-digit floats, schema version 1, no
timestamps), so identical configurations produce byte-identical output;
profile tables can additionally be written as RFC-4180 CSV.

Exit codes: 0 success, 2 configuration error, 3 when ``--strict`` is given
and a numerical-accuracy warning fired during the run.  ``DISCLAB_THREADS``
caps the number of worker threads used for independent sweeps.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .conditions import (
    bmoa_dd,
    bmoa_h1_cond,
    cauchy_bound,
    decay_conditions,
    lacunary_lmoa,
    lacunary_series,
    lalpha_norm,
    lmoa_quantity,
    lmoa_square,
    log_reciprocal_coefficient,
    nehari_sup,
    order3_area,
    order3_growth,
)
from .geometry import ZeroSequence, greedy_partition, separation_constants
from .grids import QuadratureGrid
from .hardy import (
    corpus_from_manifest,
    default_corpus,
    fit_cp_exponent,
    hp_membership_experiment,
    hss_residual,
    prop_main_sides,
)
from .norms import bloch_norm, bmoa_garsia, bmoa_h2_def, growth_norm, hp_norm
from .ode import hille_zero_table, named_example, residual, solve_series, symmetric_power_problem
from .series import AccuracyWarning, PowerSeries, exp_series
from .weights import (
    green_identity_residual,
    kernel_derivative_residual,
    kernel_eval,
    moment_identity_gap,
    weight_from_spec,
)

CONDITION_KINDS = (
    "nehari",
    "growth3",
    "area3",
    "lalpha",
    "lmoa",
    "lmoa-square",
    "bmoa-dd",
    "bmoa-h1",
    "cauchy-bound",
    "decay",
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spec-string parsers
# ---------------------------------------------------------------------------

def parse_function(spec: str, order: int) -> PowerSeries:
    """Coefficient/function specs: ``poly:c0,c1,...`` (complex literals),
    ``constant:c=...``, ``hille:gamma=...``, ``exp-singular``,
    ``log-reciprocal``, ``lacunary:q=2,terms=K``, ``exp:eps=...``, ``zn:n=...``."""
    name, _, rest = spec.partition(":")
    if name == "poly":
        try:
            coeffs = [complex(tok) for tok in rest.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad poly spec {spec!r}") from exc
        return PowerSeries(coeffs).pad(max(order, len(coeffs) - 1))
    if name in ("hille", "exp-singular", "constant"):
        return named_example(spec, order).coefficient
    if name == "log-reciprocal":
        return log_reciprocal_coefficient(order)
    if name == "lacunary":
        freqs = _lacunary_frequencies(rest)
        return lacunary_series(np.ones(len(freqs)), freqs, order=max(order, freqs[-1]))
    if name == "exp":
        eps = complex(_params(rest).get("eps", 0.1))
        lin = np.zeros(order + 1, dtype=complex)
        lin[1] = eps
        return exp_series(PowerSeries(lin))
    if name == "zn":
        n = int(_params(rest).get("n", 1))
        c = np.zeros(max(order, n) + 1, dtype=complex)
        c[n] = 1.0
        return PowerSeries(c)
    raise ConfigError(f"unknown function spec {spec!r}")


def _params(rest: str) -> dict:
    out = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            out[k.strip()] = v.strip()
    return out


def _lacunary_frequencies(rest: str) -> list[int]:
    """Frequencies ``q, q^2, ..., q^terms`` of a ``lacunary:q=Q,terms=K`` spec."""
    params = _params(rest)
    q = int(params.get("q", 2))
    terms = int(params.get("terms", 8))
    if q < 2 or terms < 1:
        raise ConfigError(f"lacunary needs an integer q >= 2 and terms >= 1, got q={q}, terms={terms}")
    return [q**k for k in range(1, terms + 1)]


def build_grid(args) -> QuadratureGrid:
    return QuadratureGrid(
        r_max=args.r_max,
        nodes_per_panel=args.nodes_per_panel,
        angular=args.angular,
    )


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _canon(obj):
    if isinstance(obj, float):
        return float(format(obj, ".17g"))
    if isinstance(obj, complex):
        return [_canon(obj.real), _canon(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return _canon(obj.item())
    if isinstance(obj, np.complexfloating):
        return _canon(complex(obj))
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _canon(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return obj


def render_report(command: str, config: dict, results, grid: QuadratureGrid | None) -> str:
    body = {
        "schema": 1,
        "command": command,
        "config": _canon(config),
        "results": _canon(results),
        "versions": {
            "disclab": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    if grid is not None:
        body["grid"] = {
            "fingerprint": grid.fingerprint(),
            "r_max": _canon(grid.r_max),
            "angular": grid.angular,
            "nodes_per_panel": grid.nodes_per_panel,
        }
    return json.dumps(body, sort_keys=True, indent=1)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def _thread_count() -> int:
    raw = os.environ.get("DISCLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_ordered(fn, items):
    n = _thread_count()
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a results object)
# ---------------------------------------------------------------------------

def _cmd_solve(args, grid):
    ex = named_example(args.example, order=args.order)
    f = solve_series(ex.problem)
    try:
        res = residual(f, ex.problem, r_max=min(0.9, grid.r_max))
    except ValueError:
        res = None  # overflow-truncated solutions have no evaluable residual
    out = {
        "tag": ex.tag,
        "order": f.order,
        "residual_r09": res,
        "coefficients": [complex(c) for c in f.coeffs[: args.emit_coeffs]],
    }
    if ex.reference is not None:
        n = min(f.order, ex.reference.order, 60)
        out["reference_coeff_error"] = float(
            np.max(np.abs(f.coeffs[: n + 1] - ex.reference.coeffs[: n + 1]))
        )
    return out


def _cmd_residual(args, grid):
    ex = named_example(args.example, order=args.order)
    f = solve_series(ex.problem)
    return {"tag": ex.tag, "residual": residual(f, ex.problem, r_max=args.residual_rmax)}


def _cmd_zeros(args, grid):
    name, _, rest = args.example.partition(":")
    if name != "hille":
        raise ConfigError("zero tables are available for hille:gamma=... examples")
    gamma = float(_params(rest).get("gamma", 1.0))
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
    name, _, rest = args.example.partition(":")
    if name != "hille":
        raise ConfigError("separation tables are available for hille examples")
    gamma = float(_params(rest).get("gamma", 1.0))
    import math

    xs = [math.tanh(k * math.pi / (2 * gamma)) for k in range(1, args.count + 1)]
    xs = [x for x in xs if x < 1.0]
    seq = ZeroSequence(tuple((x, args.multiplicity) for x in xs))
    rep = greedy_partition(seq, args.delta) if args.delta else separation_constants(seq)
    out = {
        "count_used": len(xs),
        "separation_constant": rep.separation_constant,
        "uniform_separation_constant": rep.uniform_separation_constant,
    }
    if args.delta:
        out["delta"] = args.delta
        out["partition_count"] = rep.partition_count
    return out


def _cmd_condition(args, grid):
    A = parse_function(args.coeff, args.order)
    kind = args.kind
    if kind == "nehari":
        return nehari_sup(A, grid)
    if kind == "growth3":
        p3 = symmetric_power_problem(A)
        return list(order3_growth(p3.coefficients[0], p3.coefficients[1], p3.coefficients[2], grid))
    if kind == "area3":
        p3 = symmetric_power_problem(A)
        return list(order3_area(p3.coefficients[0], p3.coefficients[1], p3.coefficients[2], grid))
    if kind == "lalpha":
        return lalpha_norm(A, args.alpha, grid)
    if kind == "lmoa":
        return lmoa_quantity(A, grid)
    if kind == "lmoa-square":
        return lmoa_square(A, grid)
    if kind == "bmoa-dd":
        return bmoa_dd(A, grid)
    if kind == "bmoa-h1":
        return bmoa_h1_cond(A, args.dilation, grid)
    if kind == "cauchy-bound":
        return {"value": cauchy_bound(A, args.dilation, args.at, angular_count=args.angular)}
    if kind == "decay":
        radii = [float(r) for r in np.linspace(0.5, grid.r_max, args.profile_points)]
        rows = decay_conditions(A, radii, grid)
        if args.csv:
            write_csv(args.csv, ["r", "lmoa_at_r", "log_weighted_sup"], rows)
        return {"profile": [list(row) for row in rows]}
    raise ConfigError(f"unknown condition kind {kind!r}")


def _cmd_norm(args, grid):
    f = parse_function(args.f, args.order)
    kind = args.kind
    if kind == "hp":
        return hp_norm(f, args.p, grid)
    if kind == "growth":
        return growth_norm(f, args.q, grid)
    if kind == "bloch":
        return bloch_norm(f, grid)
    if kind == "bmoa-garsia":
        return bmoa_garsia(f, grid)
    if kind == "bmoa-h2":
        return bmoa_h2_def(f, grid)
    raise ConfigError(f"unknown norm kind {kind!r}")


def _cmd_kernels(args, grid):
    w = weight_from_spec(args.weight)
    zeta, u = complex(args.zeta), complex(args.at)
    val = kernel_eval(w, zeta, u, args.order)
    out = {
        "kernel_value": val,
        "derivative_residual": kernel_derivative_residual(w, zeta, u, args.order),
        "moment_identity_gap": moment_identity_gap(w, nmax=64),
    }
    if w.kind == "standard" and float(w.alpha).is_integer():
        closed = (1.0 - u * np.conj(zeta)) ** (-2.0 - w.alpha)
        out["closed_form_error"] = float(abs(val - closed))
    return out


def _cmd_identities(args, grid):
    w = weight_from_spec(args.weight)
    rng = np.random.default_rng(args.seed)
    suite = args.suite

    def random_poly(deg):
        return PowerSeries(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))

    if suite == "green":
        worst = 0.0
        for _ in range(args.trials):
            f, g = random_poly(8), random_poly(8)
            worst = max(worst, green_identity_residual(f, g, w, grid))
        return {"suite": "green", "max_residual": worst}
    if suite == "kernel":
        worst = 0.0
        for _ in range(args.trials):
            zeta = 0.8 * (rng.random() * np.exp(2j * np.pi * rng.random()))
            u = 0.8 * (rng.random() * np.exp(2j * np.pi * rng.random()))
            worst = max(worst, kernel_derivative_residual(w, zeta, u, 200))
        return {"suite": "kernel", "max_residual": worst, "moment_gap": moment_identity_gap(w)}
    if suite == "hss":
        worst = 0.0
        for _ in range(args.trials):
            f = random_poly(6) + 4.0  # push zeros away from the closed disc
            for p in (0.5, 1.0, 2.0, 4.0):
                worst = max(worst, hss_residual(f, p, grid))
        return {"suite": "hss", "max_residual": worst}
    if suite == "moment":
        return {"suite": "moment", "moment_gap": moment_identity_gap(w)}
    raise ConfigError(f"unknown identity suite {suite!r}")


def _cmd_hardy(args, grid):
    if args.corpus:
        with open(args.corpus) as fh:
            corpus = corpus_from_manifest(fh.read())
    else:
        corpus = default_corpus(seed=args.seed)
    rows = _map_ordered(
        lambda cf: (cf.name, *prop_main_sides(cf.series, args.p, args.k, grid)),
        corpus,
    )
    if args.csv:
        write_csv(args.csv, ["name", "hardy_power", "area_plus_inits"], rows)
    out_rows = [{"name": n, "hardy_power": h, "area_plus_inits": a} for n, h, a in rows]
    return {"p": args.p, "k": args.k, "functions": out_rows}


def _cmd_experiment(args, grid):
    if args.kind == "hp-membership":
        A = parse_function(args.coeff, args.order)
        rep = hp_membership_experiment(A, args.p, grid)
        return rep
    if args.kind == "zero-free-cp":
        f = parse_function(args.f, args.order)
        slope, track = fit_cp_exponent(f, grid)
        if args.csv:
            write_csv(args.csv, ["p", "C_emp"], track)
        return {"fitted_exponent": slope, "track": [list(t) for t in track]}
    if args.kind == "lacunary":
        freqs = _lacunary_frequencies(args.coeff.partition(":")[2])
        return lacunary_lmoa(np.ones(len(freqs)), freqs)
    raise ConfigError(f"unknown experiment kind {args.kind!r}")


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
    sp.add_argument("--kind", required=True, choices=CONDITION_KINDS)
    sp.add_argument("--coeff", required=True)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--dilation", type=float, default=0.9)
    sp.add_argument("--at", type=complex, default=0.5 + 0j)
    sp.add_argument("--profile-points", type=int, default=8)

    sp = sub.add_parser("norm", help="function-space norm estimators")
    sp.add_argument("--kind", required=True, choices=("hp", "growth", "bloch", "bmoa-garsia", "bmoa-h2"))
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
    sp.add_argument("--corpus", help="corpus manifest JSON path (default: built-in)")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--k", type=int, default=1)

    sp = sub.add_parser("experiment", help="composite experiments")
    sp.add_argument("--kind", required=True, choices=("hp-membership", "zero-free-cp", "lacunary"))
    sp.add_argument("--coeff", default="constant:c=0.05")
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


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("out",)}
    return cfg


def run(argv=None) -> int:
    ap = _make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
