"""Separation analysis of point sequences in the disc.

Covers the pseudo-hyperbolic distance ``|phi_a(b)|`` of the involutive
automorphisms ``phi_a(z) = (a - z)/(1 - conj(a) z)``, the two separation
functionals for zero sequences and a deterministic greedy partition into
separated sub-sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "pseudo_hyp",
    "ZeroSequence",
    "SeparationReport",
    "separation_constants",
    "greedy_partition",
]


def pseudo_hyp(a, b):
    """Pseudo-hyperbolic distance |phi_a(b)| = |a - b|/|1 - conj(a) b|: a
    float for two points, an array for arrays (broadcast against each
    other)."""
    a, b = np.asarray(a), np.asarray(b)
    d = np.abs(a - b) / np.abs(1.0 - np.conj(a) * b)
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# zero sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSequence:
    """Points inside the disc with multiplicities."""

    points: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        for z, m in self.points:
            if abs(z) >= 1.0:
                raise ValueError("zero locations must satisfy |z| < 1")
            if m < 1:
                raise ValueError("multiplicities must be >= 1")

    @classmethod
    def simple(cls, locations) -> "ZeroSequence":
        return cls(tuple((complex(z), 1) for z in locations))

    def expand(self) -> list[complex]:
        """Flat list with each point repeated per multiplicity."""
        out: list[complex] = []
        for z, m in self.points:
            out.extend([complex(z)] * m)
        return out

    def __len__(self) -> int:
        return sum(m for _, m in self.points)


@dataclass(frozen=True)
class SeparationReport:
    """Separation functionals of a sequence and an optional partition.

    ``separation_constant`` is the infimum of pairwise pseudo-hyperbolic
    distances; ``uniform_separation_constant`` is the infimum over k of the
    Blaschke-type products prod_{n != k} pseudo_hyp(z_n, z_k).  The two are
    different functionals and neither dominates the other in general.  An
    empty or singleton sequence reports both constants as 1 by convention.
    """

    separation_constant: float
    uniform_separation_constant: float
    partition: tuple[tuple[complex, ...], ...] = ()
    partition_count: int = 0


def _distances(flat: list[complex]) -> np.ndarray:
    """The matrix of ``pseudo_hyp(flat[i], flat[j])``."""
    pts = np.array(flat, dtype=complex)
    return pseudo_hyp(pts[:, None], pts[None, :])


def _pairwise_constants(dmat: np.ndarray) -> tuple[float, float]:
    n = len(dmat)
    if n <= 1:
        return 1.0, 1.0
    off = ~np.eye(n, dtype=bool)
    sep = float(dmat[off].min())
    prods = np.array([np.prod(dmat[k][off[k]]) for k in range(n)])
    return sep, float(prods.min())


def separation_constants(seq: ZeroSequence) -> SeparationReport:
    """Both separation functionals, no partition."""
    sep, uni = _pairwise_constants(_distances(seq.expand()))
    return SeparationReport(sep, uni)


def greedy_partition(seq: ZeroSequence, delta: float) -> SeparationReport:
    """Deterministic split into delta-separated sub-sequences.

    Points are processed by increasing modulus (ties by argument in
    [0, 2pi)) and each copy goes to the first sub-sequence all of whose
    members are at pseudo-hyperbolic distance >= delta; coincident copies of
    a multiple point therefore always occupy distinct sub-sequences.  The
    greedy scheme is a constructive stand-in for a non-constructive
    existence argument and may exceed the theoretical minimum.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    flat = sorted(seq.expand(), key=lambda z: (abs(z), math.atan2(z.imag, z.real) % (2 * math.pi)))
    dmat = _distances(flat)
    groups: list[list[int]] = []
    for i, row in enumerate(dmat):
        for g in groups:
            if np.all(row[g] >= delta):
                g.append(i)
                break
        else:
            groups.append([i])
    sep, uni = _pairwise_constants(dmat)
    return SeparationReport(
        sep, uni, tuple(tuple(flat[i] for i in g) for g in groups), len(groups)
    )
