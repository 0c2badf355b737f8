"""Moebius geometry of the disc and separation analysis of point sequences.

Covers the involutive automorphisms ``phi_a(z) = (a - z)/(1 - conj(a) z)``,
the pseudo-hyperbolic and hyperbolic distances, Carleson squares, the two
separation functionals for zero sequences, a deterministic greedy partition
into separated sub-sequences, and a Jensen-formula consistency check for
functions vanishing to second order at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import PowerSeries, sample_moduli

__all__ = [
    "moebius",
    "moebius_deriv",
    "pseudo_hyp",
    "hyp_dist",
    "in_carleson_square",
    "ZeroSequence",
    "SeparationReport",
    "separation_constants",
    "greedy_partition",
    "separation_sums",
    "jensen_residual",
]


def moebius(a: complex, z):
    """phi_a(z) = (a - z)/(1 - conj(a) z); an involution of the disc."""
    return (a - z) / (1.0 - np.conj(a) * z)


def moebius_deriv(a: complex, z):
    """phi_a'(z) = -(1 - |a|^2)/(1 - conj(a) z)^2."""
    return -(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2


def pseudo_hyp(a: complex, b: complex) -> float:
    """Pseudo-hyperbolic distance |phi_a(b)| = |a - b|/|1 - conj(a) b|."""
    return float(abs(a - b) / abs(1.0 - np.conj(a) * b))


def hyp_dist(a: complex, b: complex) -> float:
    """Hyperbolic distance artanh(pseudo_hyp(a, b))."""
    return float(np.arctanh(pseudo_hyp(a, b)))


def in_carleson_square(z: complex, a: complex) -> bool:
    """Membership in the Carleson square S_a: ``|a| < |z| < 1`` and
    ``|arg z - arg a| <= (1 - |a|)/2``; by convention S_0 is the whole disc."""
    if abs(z) >= 1.0:
        raise ValueError("point must lie inside the disc")
    if a == 0:
        return True
    if not (abs(a) < abs(z) < 1.0):
        return False
    dtheta = (np.angle(z) - np.angle(a) + np.pi) % (2 * np.pi) - np.pi
    return bool(abs(dtheta) <= (1.0 - abs(a)) / 2.0)


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


def _pairwise_constants(flat: list[complex]) -> tuple[float, float]:
    n = len(flat)
    if n <= 1:
        return 1.0, 1.0
    pts = np.array(flat)
    dmat = np.abs(pts[:, None] - pts[None, :]) / np.abs(1 - np.conj(pts[:, None]) * pts[None, :])
    off = ~np.eye(n, dtype=bool)
    sep = float(dmat[off].min())
    prods = np.array([np.prod(dmat[k][off[k]]) for k in range(n)])
    return sep, float(prods.min())


def separation_constants(seq: ZeroSequence) -> SeparationReport:
    """Both separation functionals, no partition."""
    sep, uni = _pairwise_constants(seq.expand())
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
    groups: list[list[complex]] = []
    for z in flat:
        for g in groups:
            if all(pseudo_hyp(z, w) >= delta for w in g):
                g.append(z)
                break
        else:
            groups.append([z])
    sep, uni = _pairwise_constants(flat)
    return SeparationReport(
        sep, uni, tuple(tuple(g) for g in groups), len(groups)
    )


def separation_sums(seq: ZeroSequence, a: complex, exponent: int) -> float:
    """``sum over z_k != a of (1 - |phi_a(z_k)|^2)**exponent`` with
    multiplicities honoured; ``a`` must belong to the sequence (one copy of
    it is excluded from the sum, the remaining copies contribute 1 each)."""
    if exponent not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
    flat = seq.expand()
    try:
        idx = min(range(len(flat)), key=lambda i: abs(flat[i] - a))
    except ValueError:
        raise ValueError("sequence is empty") from None
    if abs(flat[idx] - a) > 1e-12:
        raise ValueError("base point must belong to the sequence")
    total = 0.0
    for i, z in enumerate(flat):
        if i == idx:
            continue
        total += (1.0 - pseudo_hyp(a, z) ** 2) ** exponent
    return total


# ---------------------------------------------------------------------------
# Jensen's formula for g vanishing to order 2 at the origin
# ---------------------------------------------------------------------------

def jensen_residual(
    g: PowerSeries,
    r: float,
    known_zeros,
    angular: int = 4096,
) -> float:
    """Residual of the exact Jensen identity applied to ``g(z)/z^2``.

    For g with a double zero at 0 (g(0) = g'(0) = 0, g''(0) != 0) and
    non-origin zeros ``w`` (with multiplicities) inside ``|z| < r``::

        sum mult * log(r/|w|)
            = (1/2pi) int log|g(r e^{it}) / g''(0)| dt + log(2 / r^2).

    ``known_zeros`` is a sequence of (location, multiplicity) pairs or bare
    locations (multiplicity 1); only those with 0 < |w| < r enter the sum.
    The residual tends to 0 under angular refinement.  A zero of g on the
    sampling circle makes the boundary integral singular and raises.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("radius must lie in (0, 1)")
    c = g.coeffs
    if g.order < 2 or abs(c[0]) > 1e-13 or abs(c[1]) > 1e-13 or c[2] == 0:
        raise ValueError("g must vanish to exactly second order at 0")
    zeros = []
    for item in known_zeros:
        if isinstance(item, tuple):
            zeros.append((complex(item[0]), int(item[1])))
        else:
            zeros.append((complex(item), 1))
    if any(abs(abs(w) - r) < 1e-9 for w, _ in zeros if w != 0):
        raise ValueError("a known zero lies on the sampling circle")
    lhs = sum(m * math.log(r / abs(w)) for w, m in zeros if 0.0 < abs(w) < r)
    mags = sample_moduli(g, [r], angular)[0] / abs(2.0 * c[2])
    if np.any(mags == 0.0):
        raise ValueError("g vanishes on the sampling circle")
    rhs = float(np.mean(np.log(mags))) + math.log(2.0 / r**2)
    return abs(lhs - rhs)
