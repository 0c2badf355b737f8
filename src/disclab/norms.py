"""Numerical norms and seminorms on the disc, and the estimate protocol.

Hardy means and norms, growth norms ``sup |f(z)|(1-|z|^2)^q``, Bloch and
little-Bloch diagnostics, two equivalent BMOA estimators (the Garsia-type
derivative integral, and the H^2 definition read from Garsia's identity as
a Poisson integral), Carleson-measure norms over Carleson squares, and
general weighted area integrals.

Every estimate of a series here and in :mod:`disclab.conditions` is a
:class:`NormEstimate` made by :func:`dilation_estimate`: the value, a
half-resolution companion value, and a divergence flag read from the
estimates of the dilations ``f(0.9 z)``, ``f(0.99 z)`` and ``f(0.999 z)``
(a diagnostic, not a proof).  ``f`` and its three dilations come in one
call, sampled and swept as one stack; one :func:`sweep_estimate` serves
the Moebius and the Carleson-square suprema.  A measure given as a
node-value matrix (:func:`carleson_norm`) has no dilations: its probe caps
radial nodes and centres at the probe radii instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import QuadratureGrid
from .series import PowerSeries, dilate, sample_moduli

__all__ = [
    "NormEstimate",
    "QuadratureError",
    "dilation_estimate",
    "mp_means",
    "hp_norm",
    "growth_norm",
    "bloch_norm",
    "decay_profile",
    "bmoa_garsia",
    "bmoa_h2_def",
    "carleson_norm",
]

# Dilation radii compared by the divergence heuristic.  An estimate of the
# dilated input f(r z) is flagged divergent when it more than doubles over
# 0.9 -> 0.999 AND its decade increments do not decay: logarithmic
# divergence gains equal increments per decade of 1 - r while late
# saturation gains shrinking ones.  (A bare 0.99 -> 0.999 window cannot see
# logarithmic divergence, and the wide window alone mistakes slow
# saturation for divergence; see decision notes.)
PROBE_LOW = 0.9
PROBE_MID = 0.99
PROBE_HIGH = 0.999
PROBE_FACTOR = 2.0
PROBE_INCREMENT_RATIO = 0.7


class QuadratureError(RuntimeError):
    """The grid is too coarse for the requested quantity."""


@dataclass(frozen=True)
class NormEstimate:
    value: float
    value_coarse: float
    divergence_flag: bool

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm estimates are nonnegative")


def dilation_estimate(run, grid: QuadratureGrid, f: PowerSeries) -> NormEstimate:
    """Full/coarse/divergence protocol shared by the norm and condition
    estimators.

    ``run(g, fs)`` returns the raw estimate on grid ``g`` of each series of
    the same-order stack ``fs``, in order.  ``run`` is called twice, with
    ``f`` and its dilations ``f(r z)`` at ``r = PROBE_LOW, PROBE_MID,
    PROBE_HIGH`` on ``grid``, and with ``f`` alone on its coarsened sibling,
    so the four base-grid inputs are sampled and swept together.  The
    divergence flag reads the dilations 0.9, 0.99 and 0.999: a quantity is
    reported divergent when it more than doubles from 0.9 to 0.999
    (``PROBE_FACTOR``) AND its last decade increment (0.99 -> 0.999) is more
    than ``PROBE_INCREMENT_RATIO`` (0.7) times the one before (0.9 -> 0.99),
    i.e. it keeps growing at a sustained rate rather than saturating late.
    """
    inputs = [f] + [dilate(f, r) for r in (PROBE_LOW, PROBE_MID, PROBE_HIGH)]
    value, lo, mid, hi = map(float, run(grid, inputs))
    (coarse,) = map(float, run(grid.coarsened(), inputs[:1]))
    doubled = hi > PROBE_FACTOR * lo + 1e-300
    sustained = (hi - mid) > PROBE_INCREMENT_RATIO * (mid - lo) - 1e-300
    return NormEstimate(value, coarse, bool(doubled and sustained))


def mp_means(f: PowerSeries, radii, p: float, M: int) -> list[float]:
    """Integral means ``((1/M) sum_j |f(r e^{2 pi i j / M})|^p)^{1/p}``,
    one per radius ``r`` in ``radii``.

    For p = 2 and M > f.order each equals ``(sum |c_k|^2 r^{2k})^{1/2}``
    exactly (discrete Parseval).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    vals = sample_moduli(f, radii, M)
    return [float(m ** (1.0 / p)) for m in np.mean(vals**p, axis=1)]


def hp_norm(f: PowerSeries, p: float, grid: QuadratureGrid) -> NormEstimate:
    """Hardy-norm estimate: the integral-mean profile over the radial nodes
    up to ``grid.r_max`` is checked for monotonicity and its last entry is
    returned (means of analytic functions are nondecreasing in r).

    A relative monotonicity violation beyond 1e-6 raises
    :class:`QuadratureError`: it means the angular rule no longer resolves
    the integrand.  The input and its dilations are sampled as one stack.
    """
    if p <= 0:
        raise ValueError("p must be positive")

    def run(g: QuadratureGrid, fs):
        means = np.mean(sample_moduli(fs, g.sup_radii, g.angular) ** p, axis=-1) ** (1.0 / p)
        drops = means[0, :-1] - means[0, 1:]  # the undilated input
        rel = float(np.max(drops / np.maximum(means[0, :-1], 1e-30))) if drops.size else 0.0
        if rel > 1e-6:
            raise QuadratureError(
                "integral means decreased along the radial profile; "
                "angular resolution too coarse for this integrand"
            )
        return means[:, -1]

    return dilation_estimate(run, grid, f)


def _weighted_sup(fs, weight, grid: QuadratureGrid) -> list[float]:
    """``max over grid circles (and the origin) of |f| * weight(r)``, one
    value per series of the same-order stack ``fs``."""
    w = np.array([float(weight(float(r))) for r in grid.sup_radii])
    rings = np.max(sample_moduli(fs, grid.sup_radii, grid.angular), axis=-1)
    origin = float(weight(0.0))
    return [max(abs(f.coeffs[0]) * origin, float(np.max(ring * w))) for f, ring in zip(fs, rings)]


def sup_estimate(f: PowerSeries, weight, grid: QuadratureGrid) -> NormEstimate:
    """Dilation-probe estimate of :func:`_weighted_sup` for one series."""
    return dilation_estimate(lambda g, fs: _weighted_sup(fs, weight, g), grid, f)


def growth_norm(f: PowerSeries, q: float, grid: QuadratureGrid) -> NormEstimate:
    """Growth-space estimate ``sup |f(z)| (1 - |z|^2)^q`` over the grid."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return sup_estimate(f, lambda r: (1.0 - r * r) ** q, grid)


def bloch_norm(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Bloch seminorm estimate ``sup |f'(z)| (1 - |z|^2)``."""
    return sup_estimate(f.derivative(), lambda r: 1.0 - r * r, grid)


def decay_profile(f: PowerSeries, radii) -> list[tuple[float, float]]:
    """Per-radius values ``sup_{|z|=r} |f'(z)| (1 - r^2)``, the sup over
    512 nodes; tends to 0 for little-Bloch functions and stays bounded
    below otherwise."""
    radii = [float(r) for r in radii]
    rings = np.max(sample_moduli(f.derivative(), radii, 512), axis=1)
    return [(r, float(ring) * (1.0 - r**2)) for r, ring in zip(radii, rings)]


# ---------------------------------------------------------------------------
# centre sweeps (shared with the coefficient conditions)
# ---------------------------------------------------------------------------

def sweep_estimate(
    f: PowerSeries, make_field, grid: QuadratureGrid, prefactor=None,
    means=QuadratureGrid.moebius_ring_means,
) -> NormEstimate:
    """Probe-aware ``sup_a prefactor(a) int field(f) K_a dm`` over the
    grid's centres.  ``make_field(g, fs)`` builds the node-value matrices
    ``(k, radii, angles)`` of the stack ``fs`` of dilated series on grid
    ``g``; ``means(g, fields)`` takes their per-centre ring means in one
    sweep: ``QuadratureGrid.moebius_ring_means`` (``K_a = 1 - |phi_a|^2``)
    or ``QuadratureGrid.square_ring_means`` (``K_a = 1`` on the square
    ``S_a``)."""

    def run(g: QuadratureGrid, fs):
        vals = means(g, make_field(g, fs)) @ g.ring_weights
        if prefactor is not None:
            vals = vals * np.array([prefactor(a) for a in g.a_grid])
        return np.max(vals, axis=-1)

    return dilation_estimate(run, grid, f)


def bmoa_garsia(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Garsia-type estimate ``sup_a int |f'|^2 (1 - |phi_a|^2) dm``."""
    return sweep_estimate(f, lambda g, fs: g.sample_folded([fr.derivative() for fr in fs], power=2.0), grid)


def bmoa_h2_def(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Definition estimate ``sup_a || f o phi_a - f(a) ||_{H^2}^2`` from
    Garsia's identity ``P[|f|^2](a) - |f(a)|^2`` (Garnett, *Bounded Analytic
    Functions*, ch. VI).  With ``b_m = sum_n c_{n+m} conj(c_n)``, the
    Poisson integral is ``P[|f|^2](a) = Re(2 sum_m b_m a^m - b_0)``: one
    autocorrelation per dilation and two evaluations per centre, exact for
    the truncated series at every ``|a| < 1``, so no truncation limit comes
    near the boundary.  ``c_0`` is set to 0 first (the quantity ignores
    constants; a large one would cancel the difference away).  The centres
    are the same on every grid, so ``value_coarse`` equals ``value``.
    """

    def run(g: QuadratureGrid, fs):
        out = []
        for fr in fs:
            centred = fr - fr.coeffs[0]
            c = centred.coeffs
            b = PowerSeries(np.correlate(c, c, "full")[c.size - 1 :])
            poisson = np.real(2.0 * b(g.a_grid) - b.coeffs[0])
            out.append(max(0.0, float(np.max(poisson - np.abs(centred(g.a_grid)) ** 2))))
        return out

    return dilation_estimate(run, grid, f)


# ---------------------------------------------------------------------------
# Carleson measures
# ---------------------------------------------------------------------------

def carleson_norm(density: np.ndarray, grid: QuadratureGrid) -> NormEstimate:
    """Carleson-measure estimate ``sup_a mu(S_a)/(1 - |a|)`` for
    ``d mu = density dm``, the density given as a node-value matrix
    (radii x angles).

    A node matrix has no coarser sibling, so ``value_coarse`` equals
    ``value``, and no dilations, so the divergence probe compares partial
    masses with radial nodes and centres capped at the probe radii: the
    flag is ``sup(PROBE_HIGH) > PROBE_FACTOR * sup(PROBE_LOW)``.
    """
    if np.any(density < -1e-12):
        raise ValueError("density must be nonnegative")
    rings = grid.square_ring_means(np.real(density))
    a = np.abs(grid.a_grid)
    pref, wq = 1.0 / (1.0 - a), grid.ring_weights

    def sup(rcap: float) -> float:
        keep, mask = a <= rcap, grid.radii <= rcap
        return float(np.max(rings[keep][:, mask] @ wq[mask] * pref[keep], initial=0.0))

    value = sup(1.0)
    flag = bool(sup(PROBE_HIGH) > PROBE_FACTOR * sup(PROBE_LOW) + 1e-300)
    return NormEstimate(value, value, flag)
