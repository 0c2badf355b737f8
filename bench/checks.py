"""Output canonicalization and comparison for the benchmark's checks.

Every op turns its result into a plain JSON value (``canon``) that is
compared with the value recorded from the seed commit at 1e-12 relative
(ROADMAP aim 2's same-numbers bar); booleans such as divergence flags and
all strings must match exactly.  Long numeric arrays are reduced to a
digest (length, head, tail, min, max, sum) so the recorded files stay small
while any change in the array still shows.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np

REL_TOL = 1e-12
DIGEST_OVER = 16


def _digest(arr: np.ndarray) -> dict:
    flat = arr.ravel()
    if np.iscomplexobj(flat):
        return {"re": _digest(flat.real), "im": _digest(flat.imag)}
    flat = flat.astype(float)
    return {
        "n": int(flat.size),
        "head": [float(v) for v in flat[:4]],
        "tail": [float(v) for v in flat[-2:]],
        "min": float(flat.min()),
        "max": float(flat.max()),
        "sum": float(flat.sum()),
    }


def canon(obj):
    """Plain JSON value of a result: dataclasses become dicts, complex
    numbers ``[re, im]`` pairs, long numeric arrays digests."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in fields(obj)}
    if hasattr(obj, "coeffs"):  # PowerSeries
        return canon(np.asarray(obj.coeffs))
    if isinstance(obj, (list, tuple, np.ndarray)):
        try:
            arr = np.asarray(obj)
        except ValueError:  # ragged
            arr = None
        if arr is not None and arr.dtype.kind in "fcib" and arr.size > DIGEST_OVER:
            return _digest(arr)
        return [canon(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def diff(got, want, path: str = "") -> list[str]:
    """Differences between two canonical values; numbers at 1e-12 relative."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if got == want:
            return []
        if math.isfinite(got) and math.isfinite(want):
            if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
                return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for k in want:
            out += diff(got[k], want[k], f"{path}.{k}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff(g, w, f"{path}[{i}]")
        return out
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def sane(value, path: str = "") -> list[str]:
    """Every number finite; estimator values (key ``value``) nonnegative."""
    out = []
    if isinstance(value, dict):
        for k, v in value.items():
            out += sane(v, f"{path}.{k}")
            if k == "value" and isinstance(v, float) and v < 0:
                out.append(f"{path}.value negative: {v!r}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out += sane(v, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        out.append(f"{path}: not finite")
    return out


def within(name: str, got: float, bound: float) -> list[str]:
    """``got <= bound`` (and finite)."""
    if math.isfinite(got) and got <= bound:
        return []
    return [f"{name} = {got!r} exceeds {bound!r}"]


def close_rel(name: str, got: float, want: float, rel: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= rel * abs(want):
        return []
    return [f"{name} = {got!r}, closed form {want!r}, rel tol {rel!r}"]
