import json
import math

import numpy as np
import pytest

from disclab.cli import parse_function, run

BASE = ["--order", "64", "--angular", "128", "--nodes-per-panel", "4"]


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

    def test_experiment_zero_free(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "e.json",
            BASE + ["experiment", "--kind", "zero-free-cp", "--f", "exp:eps=0.1"],
        )
        body = json.loads(text)
        assert 1.5 <= body["results"]["fitted_exponent"] <= 2.5


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

    def test_strict_escalates_accuracy_warnings(self, tmp_path):
        # a huge constant coefficient overflows the recurrence, which is
        # reported (and truncated) via an accuracy warning
        args = ["--out", str(tmp_path / "o.json"), "--order", "200",
                "solve", "--example", "constant:c=1e280"]
        assert run(args) == 0
        assert run(["--strict"] + args) == 3


class TestThreads:
    def test_thread_cap_preserves_report(self, tmp_path, monkeypatch):
        args = BASE + ["hardy", "--p", "2.0", "--k", "1"]
        _, text1 = run_to_file(tmp_path, "t1.json", args)
        monkeypatch.setenv("DISCLAB_THREADS", "4")
        _, text2 = run_to_file(tmp_path, "t2.json", args)
        assert text1 == text2


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
