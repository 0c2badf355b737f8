"""Same-numbers check: command lines against their recorded reports.

``golden/readme_reports.json`` maps each command of the README's "Command
line" block to the report it printed when recorded.  ``golden/kinds.json``
does the same for ``KIND_COMMANDS``: one report per condition kind, norm
kind (on a real and on a complex input), experiment and identity suite,
on a small grid but for the suites.  A rerun must give the same
``command``, ``config``, ``grid`` and ``results`` within 1e-12 relative;
strings and booleans must match exactly.  Round-off fields are not
compared: they are held to the pinned bounds of ``test_acceptance.py``
instead.

To re-record after an intended change of numbers, rewrite the JSON file
from the new reports (``PYTHONPATH=src python tests/test_golden.py``
rewrites ``kinds.json``) and say in CHANGES.md why, and which reports
moved by how much.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from disclab.cli import CONDITIONS, NORMS, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "readme_reports.json").read_text())
KINDS = json.loads((GOLDEN_DIR / "kinds.json").read_text())
REL_TOL = 1e-12

# Round-off fields and the acceptance-suite bound each is held to.
ROUND_OFF_BOUNDS = {
    "reference_coeff_error": 1e-10,
    "residual_r09": 1e-9,
    "residual": 1e-9,
    "closed_form_error": 1e-8,
    "derivative_residual": 1e-6,
    "moment_identity_gap": 1e-10,
    "max_residual": 1e-8,
}


SMALL_GRID = "--order 128 --angular 64 --nodes-per-panel 4"
KIND_COMMANDS = [
    *(f"{SMALL_GRID} condition --kind {kind} --coeff log-reciprocal" for kind in CONDITIONS),
    *(f"{SMALL_GRID} norm --kind {kind} --f {f}" for f in ("log-reciprocal", "exp:eps=0.4+0.3j") for kind in NORMS),
    f"{SMALL_GRID} experiment --kind hp-membership --coeff log-reciprocal",
    f"{SMALL_GRID} experiment --kind zero-free-cp --f log-reciprocal",
    f"{SMALL_GRID} experiment --kind zero-free-cp --f exp:eps=0.4+0.3j",
    f"{SMALL_GRID} experiment --kind lacunary",
    # on the default grid: the small one leaves discretisation error in the
    # suites' residuals, which are held to round-off bounds
    *(f"--order 128 identities --suite {suite}" for suite in ("green", "kernel", "hss", "moment")),
    f"{SMALL_GRID} hardy --p 0.5 --k 2",
]


def readme_commands() -> list[str]:
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    return [" ".join(line.split()[1:]) for line in block.splitlines() if line.startswith("disclab ")]


def differences(got, want, path: str) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in want:
            if key in ROUND_OFF_BOUNDS:
                if not got[key] <= ROUND_OFF_BOUNDS[key]:
                    out.append(f"{path}.{key}: {got[key]!r} exceeds {ROUND_OFF_BOUNDS[key]!r}")
            else:
                out += differences(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}[{i}]")]
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers) and not isinstance(want, bool):
        if got == want or (
            math.isfinite(got) and abs(got - want) <= REL_TOL * max(abs(got), abs(want))
        ):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def test_every_readme_command_has_a_golden_report():
    assert sorted(readme_commands()) == sorted(GOLDEN)


def report(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(command.split()) == 0
    return json.loads(out.getvalue())


def mismatches(command: str, want: dict) -> list[str]:
    got = report(command)
    return [d for part in ("command", "config", "grid", "results") for d in differences(got[part], want[part], part)]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_report_matches_golden(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the hardy example writes sides.csv
    assert mismatches(command, GOLDEN[command]) == []


def test_every_kind_has_a_golden_report():
    assert sorted(KIND_COMMANDS) == sorted(KINDS)


@pytest.mark.parametrize("command", sorted(KINDS))
def test_kind_report_matches_golden(command):
    assert mismatches(command, KINDS[command]) == []


if __name__ == "__main__":
    reports = {command: report(command) for command in KIND_COMMANDS}
    (GOLDEN_DIR / "kinds.json").write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
