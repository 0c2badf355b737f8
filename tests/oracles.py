"""Reference quantities that the tests check production code against and
that no command computes."""

import math

import numpy as np

from disclab.geometry import ZeroSequence, pseudo_hyp
from disclab.series import PowerSeries, sample_moduli


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


def greedy_groups_pairwise(seq: ZeroSequence, delta: float) -> list[list[complex]]:
    """The groups of :func:`disclab.geometry.greedy_partition`, with every
    distance taken by its own scalar ``pseudo_hyp`` call."""
    flat = sorted(seq.expand(), key=lambda z: (abs(z), math.atan2(z.imag, z.real) % (2 * math.pi)))
    groups: list[list[complex]] = []
    for z in flat:
        for g in groups:
            if all(pseudo_hyp(z, w) >= delta for w in g):
                g.append(z)
                break
        else:
            groups.append([z])
    return groups


def jensen_residual(g: PowerSeries, r: float, known_zeros: ZeroSequence, angular: int = 4096) -> float:
    """Residual of the exact Jensen identity applied to ``g(z)/z^2``.

    For g with a double zero at 0 (g(0) = g'(0) = 0, g''(0) != 0) and
    non-origin zeros ``w`` (with multiplicities) inside ``|z| < r``::

        sum mult * log(r/|w|)
            = (1/2pi) int log|g(r e^{it}) / g''(0)| dt + log(2 / r^2).

    Only the points of ``known_zeros`` with 0 < |w| < r enter the sum.
    The residual tends to 0 under angular refinement.  A zero of g on the
    sampling circle makes the boundary integral singular and raises.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("radius must lie in (0, 1)")
    c = g.coeffs
    if g.order < 2 or abs(c[0]) > 1e-13 or abs(c[1]) > 1e-13 or c[2] == 0:
        raise ValueError("g must vanish to exactly second order at 0")
    zeros = known_zeros.points
    if any(abs(abs(w) - r) < 1e-9 for w, _ in zeros if w != 0):
        raise ValueError("a known zero lies on the sampling circle")
    lhs = sum(m * math.log(r / abs(w)) for w, m in zeros if 0.0 < abs(w) < r)
    mags = sample_moduli(g, [r], angular)[0] / abs(2.0 * c[2])
    if np.any(mags == 0.0):
        raise ValueError("g vanishes on the sampling circle")
    rhs = float(np.mean(np.log(mags))) + math.log(2.0 / r**2)
    return abs(lhs - rhs)
