import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disclab
from disclab import PowerSeries, QuadratureGrid
from disclab.cli import CONDITIONS, NORMS, parse_function, run
from disclab.hardy import prop_main_sides

BASE = ["--order", "64", "--angular", "128", "--nodes-per-panel", "4"]
TINY = ["--order", "64", "--angular", "64", "--nodes-per-panel", "2"]


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = run(["--out", str(out)] + args)
    return code, out.read_text() if out.exists() else ""


class TestReports:
    def test_deterministic_byte_identical(self, tmp_path):
        args = BASE + ["condition", "--kind", "nehari", "--coeff", "constant:c=0.25"]
        code1, text1 = run_to_file(tmp_path, "a.json", args)
        code2, text2 = run_to_file(tmp_path, "b.json", args)
        assert code1 == code2 == 0
        assert text1 == text2

    def test_schema_and_versions(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "r.json", BASE + ["condition", "--kind", "nehari", "--coeff", "constant:c=0.1"]
        )
        body = json.loads(text)
        assert body["schema"] == 1
        assert body["command"] == "condition"
        assert "disclab" in body["versions"]
        assert "fingerprint" in body["grid"]

    def test_config_round_trip(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "r.json", BASE + ["norm", "--kind", "growth", "--f", "poly:1,0.5", "--q", "2.0"]
        )
        body = json.loads(text)
        # canonical form survives a serialize/parse cycle unchanged
        assert json.loads(json.dumps(body["config"], sort_keys=True)) == body["config"]

    def test_grid_refine_halves_back_to_base(self, tmp_path):
        base_args = BASE + ["norm", "--kind", "growth", "--f", "poly:1,0.5", "--q", "0.0"]
        _, text1 = run_to_file(tmp_path, "base.json", base_args)
        _, text2 = run_to_file(tmp_path, "ref.json", ["--grid-refine"] + base_args)
        v1 = json.loads(text1)["results"]["value"]
        coarse2 = json.loads(text2)["results"]["value_coarse"]
        # the refined run's half-resolution companion is the base grid
        assert coarse2 == v1


class TestCommands:
    def test_zeros_table(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "z.json", ["--order", "256", "zeros", "--example", "hille:gamma=1.0", "--count", "6"]
        )
        assert code == 0
        rows = json.loads(text)["results"]["zeros"]
        assert len(rows) == 6
        for row in rows:
            assert abs(row["x"] - math.tanh(row["k"] * math.pi / 2)) < 1e-9
            assert abs(row["gap"] - math.pi / 2) < 1e-9

    def test_condition_hille_nehari(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "c.json",
            ["--order", "1024", "condition", "--kind", "nehari", "--coeff", "hille:gamma=1.0"],
        )
        body = json.loads(text)
        assert body["results"]["value"] == pytest.approx(5.0, rel=0.01)
        assert body["results"]["divergence_flag"] is False

    def test_identities_green(self, tmp_path):
        # needs the default radial resolution: degree-16 coefficient
        # pairings are not exact on shrunken Gauss panels
        code, text = run_to_file(
            tmp_path,
            "g.json",
            ["--order", "64", "identities", "--suite", "green", "--weight", "standard:alpha=0"],
        )
        assert code == 0
        assert json.loads(text)["results"]["max_residual"] < 1e-8

    @pytest.mark.parametrize("seed", ["7", "1609"])
    def test_identities_hss_inputs_are_zero_free(self, seed, tmp_path):
        # roots of modulus >= 1.2: the residual is the identity's quadrature
        # error, not the p < 2 error near a zero inside the disc
        code, text = run_to_file(tmp_path, "h.json", ["--seed", seed, "identities", "--suite", "hss"])
        assert code == 0
        assert json.loads(text)["results"]["max_residual"] < 1e-6

    def test_solve_reports_reference_error(self, tmp_path):
        code, text = run_to_file(tmp_path, "s.json", ["--order", "80", "solve", "--example", "exp-singular"])
        body = json.loads(text)
        assert body["results"]["reference_coeff_error"] < 1e-10

    def test_separation_command(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "sep.json",
            BASE + ["separation", "--example", "hille:gamma=1.0", "--count", "6"],
        )
        body = json.loads(text)
        assert body["results"]["separation_constant"] == pytest.approx(
            math.tanh(math.pi / 2), abs=1e-9
        )

    def test_zeros_csv(self, tmp_path):
        csv_path = tmp_path / "zeros.csv"
        code = run(
            ["--order", "256", "--csv", str(csv_path), "--out", str(tmp_path / "z.json"),
             "zeros", "--example", "hille:gamma=1.0", "--count", "4"]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "k,x,s,gap"
        assert len(lines) == 5

    def test_experiment_lacunary_default(self, tmp_path):
        # without --coeff the lacunary experiment runs its own default, q=2, terms=8
        code, text = run_to_file(tmp_path, "l.json", BASE + ["experiment", "--kind", "lacunary"])
        assert code == 0
        body = json.loads(text)
        assert body["config"]["coeff"] == "lacunary"
        assert [row[0] for row in body["results"]["moment_ratios"]] == [2**k for k in range(1, 9)]

    def test_experiment_zero_free(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "e.json",
            BASE + ["experiment", "--kind", "zero-free-cp", "--f", "exp:eps=0.1"],
        )
        body = json.loads(text)
        assert 1.5 <= body["results"]["fitted_exponent"] <= 2.5


    def test_corpus_manifest_sides_are_prop_main_sides(self, tmp_path):
        # orders 1, 2, 6 and 9, real and complex, several of each (the
        # corpus is sampled in stacks), and "edge" with a zero on the unit
        # circle: each row is the call on its function alone
        fs = {"poly": [[1.0, 0.0], [0.5, -0.25], [0.0, 0.125]], "lin": [[0.5, 0.0], [0.0, 0.3]]}
        rng = np.random.default_rng(11)
        for n in (6, 9):
            for i in range(4):
                fs[f"o{n}.{i}"] = [[x, y * (i % 2)] for x, y in rng.normal(size=(n + 1, 2))]
        fs["edge"] = [[0.5, 0.0], [-0.5, 0.0]]
        items = [{"name": name, "coeffs": coeffs, "schema": 1} for name, coeffs in fs.items()]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"functions": items}))
        code, text = run_to_file(tmp_path, "h.json", BASE + ["hardy", "--corpus", str(path), "--p", "1.5", "--k", "2"])
        assert code == 0
        rows = json.loads(text)["results"]["functions"]
        grid = QuadratureGrid(nodes_per_panel=4, angular=128)
        assert [row["name"] for row in rows] == list(fs)
        for row, coeffs in zip(rows, fs.values()):
            lhs, rhs = prop_main_sides(PowerSeries([complex(*c) for c in coeffs]), 1.5, 2, grid)
            assert (row["hardy_power"], row["area_plus_inits"]) == (lhs, rhs)


class TestErrors:
    def test_bad_subcommand_exits_2(self):
        assert run(["definitely-not-a-command"]) == 2

    def test_bad_function_spec_exits_2(self, tmp_path):
        assert run(BASE + ["norm", "--kind", "growth", "--f", "nope:1"]) == 2

    def test_zeros_non_hille_exits_2(self):
        assert run(BASE + ["zeros", "--example", "exp-singular"]) == 2

    @pytest.mark.parametrize("gamma", ["1j", "-1.0", "0", "nan", "inf"])
    def test_hille_gamma_not_real_positive_exits_2(self, gamma, capsys):
        args = BASE + ["condition", "--kind", "nehari", "--coeff", f"hille:gamma={gamma}"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hille requires") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["lacunary:q=1", "lacunary:q=0", "lacunary:q=-2", "lacunary:terms=0"])
    def test_degenerate_lacunary_exits_2(self, spec, capsys):
        assert run(BASE + ["condition", "--kind", "nehari", "--coeff", spec]) == 2
        assert run(BASE + ["experiment", "--kind", "lacunary", "--coeff", spec]) == 2
        err = capsys.readouterr().err
        assert err.count("error: lacunary needs") == 2 and err.count("\n") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "--example", "hille:gamma=1.0", "--count", "0"],
            ["separation", "--example", "hille:gamma=1.0", "--count", "0"],
            ["separation", "--example", "hille:gamma=1.0", "--count", "-3"],
            ["separation", "--example", "hille:gamma=1.0", "--delta", "0"],
            ["identities", "--suite", "green", "--weight", "standard:alpha=0", "--trials", "0"],
            ["identities", "--suite", "green", "--weight", "standard:alpha=0", "--trials", "-2"],
        ],
    )
    def test_degenerate_counts_exit_2(self, argv, capsys):
        # an empty zero sequence or no trials would report a vacuous result
        assert run(BASE + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["zeros", "separation"])
    @pytest.mark.parametrize("spec", ["hille:gamma=0", "hille:gamma=-1", "hille:gamma=nan", "hille:gama=3"])
    def test_zero_tables_reject_bad_gamma(self, command, spec, capsys):
        assert run(BASE + [command, "--example", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, spec",
        [
            # misspelt or unknown keys
            ("--coeff", "hille:gama=2"),
            ("--coeff", "zn:m=3"),
            ("--coeff", "lacunary:qq=3"),
            ("--coeff", "exp-singular:gamma=1"),
            ("--coeff", "log-reciprocal:order=8"),
            ("--f", "exp:epsilon=0.1"),
            ("--example", "constant:C=0.3"),
            ("--weight", "standard:alfa=3"),
            # misspelt names
            ("--coeff", "hile:gamma=1"),
            ("--f", "exps:eps=0.1"),
            ("--example", "exp_singular"),
            ("--weight", "standrd:alpha=1"),
            # repeated keys
            ("--coeff", "constant:c=0.3,c=0.9"),
            ("--f", "exp:eps=0.1,eps=0.2"),
            ("--example", "hille:gamma=1,gamma=2"),
            ("--weight", "standard:alpha=1,alpha=2"),
            # positional tokens, empty tokens
            ("--coeff", "lacunary:3"),
            ("--f", "zn:3"),
            ("--example", "constant:0.3"),
            ("--weight", "standard:1"),
            ("--coeff", "hille:gamma=1,"),
            # out of range or not convertible
            ("--coeff", "zn:n=-1"),
            ("--f", "zn:n=1.5"),
            ("--f", "exp:eps=abc"),
            ("--weight", "standard:alpha=x"),
        ],
    )
    def test_bad_spec_exits_2_with_one_line(self, flag, spec, capsys):
        command = {
            "--coeff": ["condition", "--kind", "nehari"],
            "--f": ["norm", "--kind", "hp"],
            "--example": ["solve"],
            "--weight": ["kernels"],
        }[flag]
        assert run(BASE + command + [flag, spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "table, message",
        [
            ("0.0 1.0\n0.5 1.0\n0.3 1.0\n", "radii must strictly increase"),  # decreasing radii
            ("0.0 1.0\n0.5 1.0\n0.5 2.0\n", "radii must strictly increase"),  # repeated radius
            ("0.0 1.0\n1.5 1.0\n", "radii must strictly increase"),  # radius outside [0, 1]
            ("-0.1 1.0\n1.0 1.0\n", "radii must strictly increase"),
            ("0.0 1.0\nnan 1.0\n", "radii must strictly increase"),
            ("0.0 1.0\n0.5 -2.0\n1.0 1.0\n", "values must be finite"),  # negative value
            ("0.0 1.0\n0.5 nan\n1.0 1.0\n", "values must be finite"),
            ("0.0 1.0\n0.5 inf\n1.0 1.0\n", "values must be finite"),
            ("0.0 0.0\n1.0 0.0\n", "values must be finite"),  # all zero
        ],
    )
    def test_malformed_table_exits_2_with_one_line(self, table, message, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text(table)
        assert run(BASE + ["kernels", "--weight", f"table:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_one_row_table_loads(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0.5 2.0\n")
        code, text = run_to_file(tmp_path, "k.json", BASE + ["kernels", "--weight", f"table:{path}"])
        assert code == 0 and json.loads(text)["results"]["moment_identity_gap"] < 1e-10

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ("{}", '"functions" list'),
            ("[1]", '"functions" list'),
            ('{"functions": []}', '"functions" list'),
            ('{"functions": {"name": "f"}}', '"functions" list'),
            ('{"functions": [1]}', '"name" string'),
            ('{"functions": [{"coeffs": [[1, 0]]}]}', '"name" string'),
            ('{"functions": [{"name": 3, "coeffs": [[1, 0]]}]}', '"name" string'),
            ('{"functions": [{"name": "f", "coeffs": [[1, 0]], "tags": 5}]}', '"tags" list'),
            ('{"functions": [{"name": "f"}]}', '"coeffs"'),
            ('{"functions": [{"name": "f", "coeffs": [1, 2]}]}', '"coeffs"'),
            ('{"functions": [{"name": "f", "coeffs": [[1]]}]}', '"coeffs"'),
            ('{"functions": [{"name": "f", "coeffs": [["1", 0]]}]}', '"coeffs"'),
            ('{"functions": [{"name": "f", "coeffs": [[1e999999, 0]]}]}', "finite"),
            ('{"functions": [{"name": "f", "coeffs": [[1' + "0" * 400 + ', 0]]}]}', '"coeffs"'),
            ('{"functions": [{"name": "f", "coeffs": []}]}', "non-empty"),
            ('{"functions": [', ""),  # not JSON
        ],
    )
    def test_bad_corpus_manifest_exits_2_with_one_line(self, manifest, message, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(manifest)
        assert run(BASE + ["hardy", "--corpus", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec",
        ["zn:n=1048577", "zn:n=1000000000000", "lacunary:q=2,terms=21",
         "lacunary:q=1025,terms=2", "lacunary:q=3,terms=13", "lacunary:q=1000000000,terms=1000000000"],
    )
    def test_series_sizes_above_two_to_the_twenty_exit_2(self, spec, capsys):
        assert run(BASE + ["condition", "--kind", "nehari", "--coeff", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2**20" in err and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["lacunary:q=2,terms=21", "lacunary:q=1000000000,terms=1000000000"])
    def test_lacunary_experiment_size_exits_2(self, spec, capsys):
        assert run(BASE + ["experiment", "--kind", "lacunary", "--coeff", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lacunary needs q**terms <= 2**20") and err.count("\n") == 1

    @pytest.mark.parametrize("spec, order", [("lacunary:q=1024,terms=2", 2**20), ("zn:n=1048576", 2**20)])
    def test_series_sizes_at_the_limit_build(self, spec, order):
        f = parse_function(spec, 8)
        assert f.order == order and f.coeffs[order] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            # non-finite float and complex flags
            BASE + ["hardy", "--p", "nan"],
            BASE + ["norm", "--kind", "hp", "--f", "zn", "--p", "nan"],
            BASE + ["experiment", "--kind", "hp-membership", "--p", "nan"],
            BASE + ["norm", "--kind", "growth", "--f", "zn", "--q", "nan"],
            BASE + ["norm", "--kind", "growth", "--f", "zn", "--q", "inf"],
            BASE + ["condition", "--kind", "lalpha", "--coeff", "zn", "--alpha", "nan"],
            BASE + ["kernels", "--weight", "standard:alpha=1", "--zeta", "nan"],
            ["--r-max", "nan"] + BASE + ["norm", "--kind", "hp", "--f", "zn"],
            # non-finite spec values
            BASE + ["kernels", "--weight", "standard:alpha=nan"],
            BASE + ["kernels", "--weight", "standard:alpha=inf"],
            # out-of-range values, each checked where it enters
            ["--order", "0", "kernels", "--weight", "standard:alpha=1"],
            ["--order", "-1", "kernels", "--weight", "standard:alpha=1"],
            BASE + ["solve", "--example", "exp-singular", "--emit-coeffs", "-1"],
            BASE + ["condition", "--kind", "decay", "--coeff", "zn", "--profile-points", "0"],
            BASE + ["condition", "--kind", "bmoa-h1", "--coeff", "zn", "--dilation", "1.5"],
            BASE + ["residual", "--example", "hille:gamma=1.0", "--residual-rmax", "0"],
            # sizes rejected before any array is built
            ["--order", str(2**20 + 1), "norm", "--kind", "hp", "--f", "zn"],
            ["--angular", "1000000000", "norm", "--kind", "hp", "--f", "zn"],
            ["--nodes-per-panel", "1000000000", "norm", "--kind", "hp", "--f", "zn"],
            ["--grid-refine", "--angular", "65536", "norm", "--kind", "hp", "--f", "zn"],
            # a grid too coarse for the quantity: 1 - z^8 aliases to 1 - r^8 on 8 angles
            ["--angular", "8", "norm", "--kind", "hp", "--f", "poly:1,0,0,0,0,0,0,0,-1"],
        ],
    )
    def test_bad_numeric_flag_exits_2_with_one_line(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_exp_at_order_zero_exits_2(self, capsys):
        assert run(["--order", "0", "norm", "--kind", "hp", "--f", "exp:eps=0.1"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["condition", "--kind", "lalpha", "--coeff", "log-reciprocal", "--alpha", "1000"],
            ["norm", "--kind", "hp", "--f", "exp:eps=0.5", "--p", "1e300"],
            ["hardy", "--p", "1000"],
        ],
    )
    def test_non_finite_report_exits_2_with_one_line(self, argv, capsys):
        # finite flags whose estimates overflow: JSON has no Infinity or NaN
        assert run(TINY + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the report holds a non-finite value: ")
        assert "Infinity" in captured.err and captured.err.count("\n") == 1

    def test_single_frequency_lacunary_experiment_exits_2(self, capsys):
        # one frequency has no gap, so the gap ratio would be infinite
        assert run(BASE + ["experiment", "--kind", "lacunary", "--coeff", "lacunary:terms=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: lacunary needs terms >= 2") and captured.err.count("\n") == 1

    def test_strict_escalates_accuracy_warnings(self, tmp_path):
        # a huge constant coefficient overflows the recurrence, which is
        # reported (and truncated) via an accuracy warning
        args = ["--out", str(tmp_path / "o.json"), "--order", "200",
                "solve", "--example", "constant:c=1e280"]
        assert run(args) == 0
        assert run(["--strict"] + args) == 3


# ---------------------------------------------------------------------------
# padding: a series padded with zero coefficients is the same function
# ---------------------------------------------------------------------------

def _leaves(x):
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _leaves(x[k])]
    if isinstance(x, list):
        return [v for item in x for v in _leaves(item)]
    return [x]


PADDED = "poly:0.5,1,0.5"
PADDING_KINDS = {
    **{kind: ["norm", "--kind", kind, "--f", PADDED] for kind in NORMS},
    **{kind: ["condition", "--kind", kind, "--coeff", PADDED] for kind in CONDITIONS},
    "hp-membership": ["experiment", "--kind", "hp-membership", "--coeff", PADDED],
}
ORDER_DEPENDENT = pytest.mark.xfail(
    strict=True,
    reason="sample_folded picks its upsampling factor from the stored order, not the degree, "
    "and bmoa-h1 truncates its Cauchy products at A's order",
)


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(kind, marks=ORDER_DEPENDENT)
        if kind in {"bmoa-garsia", "area3", "lmoa", "bmoa-dd", "bmoa-h1", "hp-membership"}
        else kind
        for kind in PADDING_KINDS
    ],
)
def test_results_do_not_depend_on_the_padding_order(kind, tmp_path):
    grid = ["--angular", "64", "--nodes-per-panel", "4"]
    results = []
    for order in (64, 128):
        code, text = run_to_file(tmp_path, f"{order}.json", ["--order", str(order)] + grid + PADDING_KINDS[kind])
        assert code == 0
        results.append(_leaves(json.loads(text)["results"]))
    low, high = results
    assert [v for v in low if not isinstance(v, float)] == [v for v in high if not isinstance(v, float)]
    floats_of = lambda vs: [v for v in vs if isinstance(v, float)]
    np.testing.assert_allclose(floats_of(low), floats_of(high), rtol=1e-12, atol=0.0)


class TestStartup:
    def test_each_command_loads_only_the_modules_it_calls(self):
        # in a fresh process, `import disclab.cli` loads what parsing and
        # reporting need, and each command then loads only the estimator
        # modules it calls. The zeros, kernels and identities commands
        # refine roots and evaluate beta and incomplete beta functions, and
        # no command loads a scipy module
        src = str(Path(disclab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        commands = [
            ["solve", "--example", "exp-singular"],
            ["residual", "--example", "hille:gamma=1.0"],
            ["zeros", "--example", "hille:gamma=1.0", "--count", "20"],
            ["separation", "--example", "hille:gamma=1.0", "--count", "10", "--delta", "0.9"],
            ["condition", "--kind", "nehari", "--coeff", "hille:gamma=1.0"],
            ["hardy", "--p", "2", "--k", "1"],
            ["kernels", "--weight", "standard:alpha=1", "--zeta", "0.5", "--at", "0.5"],
            ["identities", "--suite", "green", "--weight", "standard:alpha=0"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "loaded = lambda: {m.removeprefix('disclab.') for m in sys.modules if m.startswith('disclab.')}\n"
            "from disclab.cli import run\n"
            "steps = [[0, sorted(loaded())]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    before = loaded()\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        exit_code = run(['--order', '16', '--angular', '32', '--nodes-per-panel', '2', *argv])\n"
            "    steps.append([exit_code, sorted(loaded() - before)])\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(json.dumps({'steps': steps, 'scipy': scipy}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], env=env, capture_output=True, text=True, check=True
        )
        got = json.loads(out.stdout)
        assert got["steps"] == [
            [0, ["cli", "grids", "ode", "series", "specs"]],  # import disclab.cli
            [0, []],  # solve
            [0, []],  # residual
            [0, []],  # zeros
            [0, ["geometry"]],  # separation
            [0, ["conditions", "norms"]],  # condition --kind nehari
            [0, ["hardy"]],  # hardy
            [0, ["weights"]],  # kernels
            [0, []],  # identities
        ]
        assert got["scipy"] == []

    def test_package_import_loads_only_what_a_grid_needs(self):
        # in a fresh process, `import disclab` and the default grid's nodes
        # load the grid and series modules only; every public name resolves.
        # The ring shares start their threads per call: set-up loads no
        # executor (concurrent.futures imports logging) and leaves the
        # process on its one thread
        src = str(Path(disclab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, threading\n"
            "import disclab\n"
            "disclab.QuadratureGrid().nodes()\n"
            "heavy = ['cli', 'hardy', 'weights', 'ode', 'conditions', 'norms', 'geometry']\n"
            "print(sorted(m for m in heavy if f'disclab.{m}' in sys.modules))\n"
            "print(all(getattr(disclab, name) is not None for name in disclab.__all__))\n"
            "print(set(disclab.__all__) <= set(dir(disclab)))\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split("\n")[:4] == ["[]", "True", "True", "False 1"]

    def test_type_hints_resolve_for_every_public_dataclass(self):
        # modules that import an estimator lazily still name its types in
        # their hints: every public dataclass's hints resolve at runtime
        public = [getattr(disclab, name) for name in disclab.__all__]
        records = [c for c in public if isinstance(c, type) and dataclasses.is_dataclass(c)]
        assert disclab.MembershipReport in records
        for cls in records:
            assert set(typing.get_type_hints(cls)) >= {f.name for f in dataclasses.fields(cls)}, cls


class TestDependencies:
    ROOT = Path(__file__).resolve().parents[1]

    def test_no_module_imports_scipy(self):
        offenders = []
        for path in sorted((self.ROOT / "src" / "disclab").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno}" for n in names if n == "scipy" or n.startswith("scipy.")]
        assert offenders == []

    def test_every_option_is_set_by_some_call(self):
        # a keyword default of a def in src/disclab that no call in src/,
        # tests/ or bench/ sets, by keyword or by position, is a constant
        # posing as an option; a class's __init__ counts under the class's
        # name, and calls match defs by name alone
        options = []
        for path in sorted((self.ROOT / "src" / "disclab").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            owner = {
                item: node.name
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for item in node.body if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            }
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name, args = owner.get(node, node.name), node.args
                pos = args.posonlyargs + args.args
                bound = 1 if pos and pos[0].arg in ("self", "cls") else 0
                first = len(pos) - len(args.defaults)
                options += [(name, a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
                options += [(name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        calls = {}
        for top in ("src", "tests", "bench"):
            for path in sorted((self.ROOT / top).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                    if not (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))):
                        continue
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    keywords = {k.arg for k in node.keywords}
                    unpacked = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                    calls.setdefault(name, []).append((math.inf if unpacked else len(node.args), keywords))
        unset = [
            f"{name}({arg}=...)"
            for name, arg, i in options
            if not any(arg in keywords or (i is not None and i < n) for n, keywords in calls.get(name, []))
        ]
        assert unset == []

    def test_project_does_not_depend_on_scipy(self):
        # a text check: tomllib needs Python 3.11, and the project supports 3.10
        text = (self.ROOT / "pyproject.toml").read_text()
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        dependencies = project.split("dependencies = [", 1)[1].split("]", 1)[0]
        assert "numpy" in dependencies
        assert "scipy" not in dependencies


class TestFunctionSpecs:
    def test_poly(self):
        f = parse_function("poly:1,0.5,2j", 8)
        assert np.allclose(f.coeffs[:3], [1.0, 0.5, 2j])

    def test_named(self):
        assert parse_function("hille:gamma=2.0", 16).coeffs[0] == pytest.approx(17.0)
        assert parse_function("exp-singular", 16).coeffs[1] == pytest.approx(-4.0)
        assert parse_function("constant:c=0.3", 16).coeffs[0] == pytest.approx(0.3)

    def test_zn_and_exp(self):
        f = parse_function("zn:n=3", 8)
        assert f.coeffs[3] == 1.0
        g = parse_function("exp:eps=0.2", 12)
        assert g.coeffs[0] == pytest.approx(1.0)
        assert g.coeffs[1] == pytest.approx(0.2)

    def test_lacunary(self):
        f = parse_function("lacunary:q=2,terms=4", 8)
        assert f.coeffs[2] == 1.0 and f.coeffs[16] == 1.0


# ---------------------------------------------------------------------------
# fuzz: any command line exits 0, 2 or 3, and nothing else escapes run()
# ---------------------------------------------------------------------------

EDGE = ["0", "-1", "nan", "inf", "-inf"]


def mostly(valid, edge):
    """Text drawn from ``valid`` nine times in ten, else one of ``edge``."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else st.sampled_from(edge))


def floats(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), EDGE)


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str), ["0", "-1"])


complexes = mostly(st.complex_numbers(max_magnitude=1.2).map(repr), EDGE + ["nanj", "1+infj"])
values = mostly(st.floats(-4.0, 4.0).map(repr), EDGE + ["1j", "abc", ""])
# Series sizes stay at most 64, or are ones rejected before a series is built.
function_specs = st.one_of(
    st.builds("hille:gamma={}".format, values),
    st.sampled_from(["exp-singular", "log-reciprocal", "lacunary:q=2,terms=21", "zn:n=2097152"]),
    st.builds("constant:c={}".format, values),
    st.builds(lambda cs: "poly:" + ",".join(cs), st.lists(values | st.sampled_from(["1", "-1"]), max_size=10)),
    st.builds("lacunary:q={},terms={}".format, ints(-1, 4), ints(-1, 3)),
    st.builds("exp:eps={}".format, values),
    st.builds("zn:n={}".format, ints(-1, 64)),
    st.text(max_size=12),
)
example_specs = st.one_of(
    st.builds("hille:gamma={}".format, values),
    st.builds("constant:c={}".format, values),
    st.just("exp-singular"),
    st.text(max_size=12),
)
weight_specs = st.builds("standard:alpha={}".format, values) | st.text(max_size=12)

COMMANDS = {
    "solve": {"--example": example_specs, "--emit-coeffs": ints(-2, 8)},
    "residual": {"--example": example_specs, "--residual-rmax": floats(0.0, 1.0)},
    "zeros": {"--example": example_specs, "--count": ints(-1, 4)},
    "separation": {
        "--example": example_specs,
        "--count": ints(-1, 6),
        "--multiplicity": ints(-1, 3),
        "--delta": floats(0.0, 1.0),
    },
    "condition": {
        "--kind": st.sampled_from(sorted(CONDITIONS)),
        "--coeff": function_specs,
        "--alpha": floats(0.0, 3.0),
        "--dilation": floats(0.0, 1.0),
        "--at": complexes,
        "--profile-points": ints(-1, 4),
    },
    "norm": {
        "--kind": st.sampled_from(sorted(NORMS)),
        "--f": function_specs,
        "--p": floats(0.0, 4.0),
        "--q": floats(0.0, 3.0),
    },
    "kernels": {"--weight": weight_specs, "--zeta": complexes, "--at": complexes},
    "identities": {
        "--suite": st.sampled_from(["green", "kernel", "hss", "moment"]),
        "--weight": weight_specs,
        "--trials": ints(-1, 2),
    },
    "hardy": {"--p": floats(0.0, 4.0), "--k": ints(-1, 3)},
    "experiment": {
        "--kind": st.sampled_from(["hp-membership", "zero-free-cp", "lacunary"]),
        "--coeff": function_specs,
        "--f": function_specs,
        "--p": floats(0.0, 4.0),
    },
}
REQUIRED = {"--example", "--kind", "--suite", "--weight", "--coeff", "--f"}


@st.composite
def command_lines(draw):
    # tiny grids and orders; the only oversized sizes drawn are rejected before allocation
    sizes = {
        "--order": mostly(st.integers(0, 64).map(str), ["-1", str(2**20 + 1), str(10**12)]),
        "--angular": mostly(st.integers(8, 64).map(str), ["0", "-1", "1000000000"]),
        "--nodes-per-panel": mostly(st.integers(2, 4).map(str), ["0", "-1", "1000000000"]),
    }
    argv = [f"{flag}={draw(values_of)}" for flag, values_of in sizes.items()]
    for flag, values_of in {"--r-max": floats(0.5, 0.999), "--seed": ints(-1, 9)}.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values_of)}")
    argv += [flag for flag in ("--strict", "--grid-refine") if draw(st.booleans())]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv.append(command)
    for flag, values_of in COMMANDS[command].items():
        if flag in REQUIRED or draw(st.booleans()):
            argv.append(f"{flag}={draw(values_of)}")
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzz_any_command_line_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2, 3)
    if code != 2:  # every report is strict JSON
        json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(f"{token} in the report"))
    if code == 2 and not err.getvalue().startswith("usage:"):  # argparse prints its usage too
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
