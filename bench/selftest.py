"""Self-test of the benchmark machinery on a minimal workload.

Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py``, so a root ``pytest`` run (Tier-1) does
not collect it and its wall time stays out of the suite's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins thread variables before numpy loads)

run.load_disclab()

from disclab import QuadratureGrid, nehari_sup, solve_series  # noqa: E402
from disclab.cli import parse_function  # noqa: E402

import workloads as W  # noqa: E402
from spans import NullTracer, summarize  # noqa: E402

TINY_GRID = dict(nodes_per_panel=4, angular=64, inner_depth=6, outer_depth=8, a_radii=(0.0, 0.5, 0.9), a_angles=4)
CHEAP_COMMAND = "separation --example hille:gamma=1.0 --count 3"


def _tiny_inputs(rng):
    return {"gamma": round(float(rng.uniform(0.5, 2.0)), 6), "order": 64}


def _tiny_ops(inp):
    g, n = inp["gamma"], inp["order"]
    return [
        W.Op("solve", lambda ctx, tr: tr.call("ode.solve_series", solve_series, W.hille_problem(g, n))),
        W.Op(
            "nehari",
            lambda ctx, tr: tr.call("conditions.nehari_sup", nehari_sup, W.hille_coefficient(g, n), ctx.grid),
        ),
        W.Op("sample", lambda ctx, tr: tr.call("grids.sample", ctx.grid.sample, W.hille_coefficient(g, n))),
    ]


TINY = W.Workload("tiny", 9, _tiny_inputs, _tiny_ops, "self-test")
TINY_PROBE = W.ProbeSizes(
    solve_orders={"256": 16, "1024": 32, "4096": 64},
    folded_order=64,
    amplification_order=64,
    named_order=16,
    commands={
        name: W.BASELINE_COMMANDS["nehari"] if name == "nehari" else CHEAP_COMMAND for name in W.BASELINE_COMMANDS
    },
    repeats=1,
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return W.Context(
        grid=QuadratureGrid(**TINY_GRID), env=run.child_env(), workdir=tmp_path_factory.mktemp("work")
    )


@pytest.fixture(scope="module")
def traced(ctx):
    return run.measure(TINY, ctx, 0, 0.0, True, sizes=TINY_PROBE)


def _printed(lines, name, unit):
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines)


def test_every_metric_printed_with_unit(ctx, traced):
    raw = run.measure(TINY, ctx, 0, 0.0, False)
    for raw_run, declared, printed in (
        (raw, run.END_TO_END, {**run.END_TO_END, **run.PRINTED_ONLY}),
        (traced, run.per_layer_units(), run.per_layer_units()),
    ):
        table = run.metrics(raw_run, [0.5])
        assert set(table) == set(printed)
        lines = run.render(raw_run, table)
        for name, unit in printed.items():
            assert _printed(lines, name, unit), name
        assert _printed(lines, "fail_frac", "1")
        result = json.loads(run.result_line(raw_run, table))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)


def test_corrupted_reference_counts_as_failure(ctx):
    raw = run.measure(TINY, ctx, 3, 0.0, False)
    reference = json.loads(json.dumps(raw["outputs"]))
    assert run.measure(TINY, ctx, 3, 0.0, False, reference)["failures"] == []
    reference["nehari"]["value"] *= 1.0 + 1e-9
    bad = run.measure(TINY, ctx, 3, 0.0, False, reference)
    assert len(bad["failures"]) / bad["attempted"] > 0
    assert bad["failures"][0]["op"] == "nehari"


def test_span_summary_adds_up_to_traced_wall(traced):
    wall = sum(p["wall_s"] for p in traced["traced"])
    s = summarize(traced["spans"], wall)
    busy = sum(layer["busy_s"] for layer in s["layers"].values())
    assert busy + s["bench.self_s"] + s["bench.gap_s"] == pytest.approx(wall, rel=1e-9)
    assert busy > 0 and s["bench.self_s"] >= 0 and s["bench.gap_s"] >= 0
    assert s["functions"]["conditions.nehari_sup"]["calls"] == len(traced["traced"])
    assert sum(layer["share"] for layer in s["layers"].values()) <= 1.0


@pytest.mark.parametrize("spec", ["hille:gamma=1.25", "exp-singular", "log-reciprocal"])
def test_coefficient_builders_match_cli_parser(spec):
    got = W.coefficient(NullTracer(), spec, 64).coeffs
    assert (got == parse_function(spec, 64).coeffs).all()


def test_inputs_follow_the_seed():
    for w in W.WORKLOADS.values():
        make = lambda seed: w.inputs(run.np_rng(seed, w))  # noqa: E731
        assert make(5) == make(5)
        assert make(5) != make(6)
        assert [op.id for op in w.ops(make(5))] == [op.id for op in w.ops(make(6))]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
