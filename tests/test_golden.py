"""Same-numbers check: every README command line against its recorded report.

``golden/readme_reports.json`` maps each command of the README's "Command
line" block to the report it printed when recorded.  A rerun must give the
same ``config``, ``grid`` and ``results`` within 1e-12 relative; strings and
booleans must match exactly.  Round-off fields are not compared: they are
held to the pinned bounds of ``test_acceptance.py`` instead.  To re-record
after an intended change of numbers, rewrite the JSON file from the new
reports and say why in CHANGES.md.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from disclab.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_reports.json").read_text())
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


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_report_matches_golden(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the hardy example writes sides.csv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(command.split()) == 0
    got, want = json.loads(out.getvalue()), GOLDEN[command]
    problems = []
    for part in ("command", "config", "grid", "results"):
        problems += differences(got[part], want[part], part)
    assert problems == []
