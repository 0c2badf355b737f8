#!/usr/bin/env python3
"""disclab benchmark: time to a correct report, and set-up cost.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all          # every workload, one table each
    python3 bench/run.py --workload series --seed 0 --record   # (re)write references

One client in one process drives disclab through its public functions in a
closed loop: the next op starts when the previous one returns.  The run
repeats whole passes over the workload's fixed op list while the next pass
still fits in ``--seconds`` (at least one pass).  With ``--trace 1`` it runs
one untraced pass, then traced passes, then the probe block, and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the full record (machine,
versions, generated inputs, per-op latencies and outputs, failures, span
summary) is written to ``bench/out/``.  See ``bench/README.md``.
"""

import os
import sys

# Pinned before numpy loads, for this process and every child it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DISCLAB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / "work"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 0
SETUP_REPEATS = 5

# Declared in BENCHMARK.json, in its order.
END_TO_END = {
    "wall_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not declared: the median latency of a workload
# whose ops are mostly alike follows the machine's speed phases too closely
# to gate on (see README.md, "Steadiness").
PRINTED_ONLY = {"op_p50_s": "s"}

# A fresh process up to the first timed op: interpreter start, import, and
# the default grid with its coarsened sibling (node caches warm).
SETUP_CODE = (
    "import disclab\n"
    "g = disclab.QuadratureGrid()\n"
    "g.nodes()\n"
    "g.coarsened().nodes()\n"
    "print('ready', flush=True)\n"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_disclab():
    """Import disclab from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "disclab" / "__init__.py").is_file():
        print(f"error: no disclab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import disclab

    if Path(disclab.__file__).resolve().parent != (SRC / "disclab").resolve():
        print(f"error: imported disclab from {disclab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return disclab


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "disclab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    import disclab

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "disclab": disclab.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "DISCLAB_THREADS": os.environ.get("DISCLAB_THREADS", "unset"),
        "load": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in ``BENCHMARK.json`` order."""
    from spans import LAYERS
    from workloads import PROBE_UNITS, TRACED

    units = {}
    for layer in LAYERS:
        units[f"{layer}.share"] = "1"
        units[f"{layer}.errors"] = "count"
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.share"] = "1"
    units.update(PROBE_UNITS)
    units["tracing_overhead"] = "1"
    return units


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_times(n: int = SETUP_REPEATS) -> list[float]:
    """Wall time of ``n`` fresh set-ups, each in its own process."""
    times = []
    for _ in range(n):
        t = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE, env=child_env(), text=True
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t)
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return times


def speed_index_ms(reps: int = 15) -> float:
    """Median time of a fixed FFT kernel, a diagnostic of how fast the
    machine ran during the run; it is recorded, never used to adjust a
    metric."""
    import numpy as np

    x = np.ones(4096, dtype=complex)
    times = []
    for _ in range(reps):
        t = perf_counter()
        for _ in range(40):
            np.fft.fft(x)
        times.append(perf_counter() - t)
    return median(times) * 1e3


def make_context():
    import disclab.cli  # noqa: F401  (in-process CLI runs start warm)
    from disclab import QuadratureGrid
    from workloads import Context

    grid = QuadratureGrid()
    grid.nodes()
    grid.coarsened().nodes()
    return Context(grid=grid, env=child_env(), workdir=WORK)


def check_op(op, result, first: dict, reference: dict | None) -> list[str]:
    from checks import diff, sane

    try:
        out, problems = op.check(result)
    except Exception as exc:  # a check that cannot run is a failed output
        return [f"check raised {type(exc).__name__}: {exc}"]
    problems = list(problems) + sane(out, op.id)
    if op.id in first:
        problems += diff(out, first[op.id], f"{op.id} (vs first pass)")
    else:
        first[op.id] = out
    if reference is not None:
        if op.id not in reference:
            problems.append(f"{op.id}: no recorded value")
        else:
            problems += diff(out, reference[op.id], op.id)
    return problems


def np_rng(seed: int, workload):
    """The workload's input generator: the seed plus the workload's own
    entropy word, so workloads draw independent inputs."""
    import numpy as np

    return np.random.default_rng([seed, workload.index])


def measure(workload, ctx, seed: int, seconds: float, trace: bool, reference=None, sizes=None) -> dict:
    """Run the workload's passes (and, traced, the probe) and collect raw
    timings, outputs and failures."""
    from spans import NullTracer, Tracer
    from workloads import TRACED, ProbeSizes, probe

    inputs = workload.inputs(np_rng(seed, workload))
    ops = workload.ops(inputs)
    first: dict = {}
    failures: list[dict] = []
    attempted = 0
    start = perf_counter()

    def one_pass(tr):
        # Each output is checked as soon as its op returns, so no result
        # outlives its op; the checking time is taken out of the pass.
        nonlocal attempted
        lat, checking = {}, 0.0
        t0 = perf_counter()
        for op in ops:
            tr.begin_op(op.id)
            s = perf_counter()
            try:
                result, err = op.run(ctx, tr), None
            except Exception as exc:  # an op that raises is a failed op
                result, err = None, f"{type(exc).__name__}: {exc}"
            lat[op.id] = perf_counter() - s
            tr.end_op()
            c = perf_counter()
            attempted += 1
            problems = [err] if err else check_op(op, result, first, reference)
            if problems:
                failures.append({"op": op.id, "problems": problems[:5]})
            del result
            checking += perf_counter() - c
        return {"wall_s": perf_counter() - t0 - checking, "latencies": lat}

    def fits(last):
        return perf_counter() - start + last["wall_s"] <= seconds

    untraced = [one_pass(NullTracer())]
    traced, tracer, probe_metrics = [], None, {}
    if not trace:
        while fits(untraced[-1]):
            untraced.append(one_pass(NullTracer()))
    else:
        tracer = Tracer()
        traced.append(one_pass(tracer))
        while fits(traced[-1]):
            traced.append(one_pass(tracer))
        probe_metrics, cases, problems = probe(ctx, sizes or ProbeSizes())
        attempted += cases
        if problems:
            failures.append({"op": "probe", "problems": problems})
        unknown = sorted({s[0] for s in tracer.spans if s[3] is not None} - set(TRACED))
        if unknown:
            failures.append({"op": "trace", "problems": [f"span names missing from TRACED: {unknown}"]})
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "inputs": inputs,
        "ops": [op.id for op in ops],
        "untraced": untraced,
        "traced": traced,
        "spans": tracer.spans if tracer else [],
        "probe": probe_metrics,
        "attempted": attempted,
        "failures": failures,
        "outputs": first,
    }


def metrics(raw: dict, setups: list[float]) -> dict:
    """``{name: {"value", "unit", "n"}}`` for the run's mode."""
    import numpy as np

    from spans import summarize

    walls = [p["wall_s"] for p in raw["untraced"]]
    if not raw["trace"]:
        # one value per op, its median over the passes, so the percentiles
        # do not shift with the number of passes that fit in the run
        lats = [median(p["latencies"][op] for p in raw["untraced"]) for op in raw["ops"]]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": (median(walls), len(walls)),
            "op_p50_s": (median(lats), len(lats)),
            "op_p90_s": (float(np.percentile(lats, 90)), len(lats)),
            "setup_s": (median(setups), len(setups)),
            "peak_rss_mb": (rss_mb, 1),
        }
        units = {**END_TO_END, **PRINTED_ONLY}
        return {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in values.items()}
    traced_walls = [p["wall_s"] for p in raw["traced"]]
    npass = len(traced_walls)
    summary = summarize(raw["spans"], sum(traced_walls))
    values = {}
    for layer, entry in summary["layers"].items():
        values[f"{layer}.share"] = entry["share"]
        values[f"{layer}.errors"] = entry["errors"]
    for name, entry in summary["functions"].items():
        values[f"{name}.calls"] = entry["calls"] // npass
        values[f"{name}.share"] = entry["share"]
    values.update(raw["probe"])
    values["tracing_overhead"] = median(traced_walls) / median(walls) - 1.0
    out = {}
    for name, unit in per_layer_units().items():
        default = 0 if unit == "count" else 0.0
        out[name] = {"value": values.get(name, default), "unit": unit, "n": npass}
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _finite(v):
    return v if isinstance(v, int) or math.isfinite(v) else None


def render(raw: dict, table: dict) -> list[str]:
    """Human-readable table: every metric with its unit and sample count,
    plus ``fail_frac``."""
    failed = len(raw["failures"])
    lines = [
        f"workload {raw['workload']}  seed {raw['seed']}  trace {raw['trace']}  "
        f"passes {len(raw['untraced'])}+{len(raw['traced'])}  ops/pass {len(raw['ops'])}"
    ]
    for name, m in table.items():
        lines.append(f"  {name:<44} {m['value']!r:>24} {m['unit']:<6} n={m['n']}")
    lines.append(f"  {'fail_frac':<44} {failed / raw['attempted']!r:>24} {'1':<6} n={raw['attempted']}")
    for f in raw["failures"][:10]:
        lines.append(f"  FAILED {f['op']}: {'; '.join(f['problems'])[:300]}")
    return lines


def result_line(raw: dict, table: dict) -> str:
    """The JSON result: every declared metric of the run's mode."""
    failed = len(raw["failures"])
    declared = per_layer_units() if raw["trace"] else END_TO_END
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": raw["attempted"],
            "failed": failed,
            "metrics": {k: {"value": _finite(table[k]["value"]), "unit": table[k]["unit"]} for k in declared},
        }
    )


def write_record(raw: dict, table: dict, setups: list[float], seconds: float, speed: list[float]) -> Path:
    from spans import summarize

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{raw['workload']}-seed{raw['seed']}-trace{raw['trace']}"
    record = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": raw["trace"],
        "seconds": seconds,
        "environment": environment(),
        "inputs": raw["inputs"],
        "metrics": table,
        "fail_frac": len(raw["failures"]) / raw["attempted"],
        "attempted": raw["attempted"],
        "failures": raw["failures"],
        "setup_s": setups,
        "speed_index_ms": speed,
        "passes": {"untraced": raw["untraced"], "traced": raw["traced"]},
        "outputs": raw["outputs"],
    }
    if raw["trace"]:
        record["span_summary"] = summarize(raw["spans"], sum(p["wall_s"] for p in raw["traced"]))
        record["probe"] = raw["probe"]
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps(
                [dict(zip(("name", "start", "end", "parent", "op", "error"), s)) for s in raw["spans"]]
            )
        )
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def load_reference(seed: int, workload: str):
    path = REFERENCE / f"seed-{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


def record_reference(raw: dict) -> Path:
    REFERENCE.mkdir(parents=True, exist_ok=True)
    path = REFERENCE / f"seed-{raw['seed']}.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[raw["workload"]] = raw["outputs"]
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("sweep", "cli", "series", "corpus", "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="write this run's outputs as the seed's reference")
    args = ap.parse_args(argv)

    load_disclab()
    from disclab import AccuracyWarning

    warnings.simplefilter("ignore", AccuracyWarning)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    reference = None if args.record else load_reference(args.seed, workload.name)
    speed = [speed_index_ms()]
    setups = setup_times()
    ctx = make_context()
    raw = measure(workload, ctx, args.seed, args.seconds, bool(args.trace), reference)
    table = metrics(raw, setups)
    speed.append(speed_index_ms())
    for line in render(raw, table):
        print(line)
    print(f"record: {write_record(raw, table, setups, args.seconds, speed).relative_to(ROOT)}")
    if args.record:
        if raw["failures"]:
            print("error: not recording a reference from a run with failures", file=sys.stderr)
            return 1
        print(f"reference: {record_reference(raw).relative_to(ROOT)}")
    print(result_line(raw, table), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
