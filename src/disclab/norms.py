"""Numerical norms and seminorms on the disc.

Hardy means and norms, growth norms ``sup |f(z)|(1-|z|^2)^q``, Bloch and
little-Bloch diagnostics, two equivalent BMOA estimators (the Garsia-type
derivative integral, and the H^2 definition read from Garsia's identity as
a Poisson integral), Carleson-measure norms over Carleson squares, and
general weighted area integrals.

Every estimate is reported as a :class:`NormEstimate` carrying the value, a
half-resolution companion value, and a divergence flag: the estimator is
also run on the dilations ``f(0.9 z)``, ``f(0.99 z)`` and ``f(0.999 z)`` and
flagged when it more than doubles from 0.9 to 0.999 and its increment over
the last decade (0.99 -> 0.999) is more than 0.7 times the one before
(0.9 -> 0.99), i.e. when the quantity keeps growing at a sustained rate as
the dilation exhausts the disc (see :func:`disclab.grids.dilation_estimate`).
The flag is a diagnostic, not a proof.  ``f`` and its three dilations come
in one call: the sup and sweep estimators sample and sweep them as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    PROBE_FACTOR,
    PROBE_HIGH,
    PROBE_LOW,
    QuadratureGrid,
    area_integral,
    dilation_estimate,
)
from .series import PowerSeries, dilate, sample_rings

__all__ = [
    "NormEstimate",
    "QuadratureError",
    "mp_mean",
    "mp_means",
    "hp_norm",
    "growth_norm",
    "bloch_norm",
    "decay_profile",
    "bmoa_garsia",
    "bmoa_h2_def",
    "carleson_norm",
    "area_integral",
]


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


def mp_means(f: PowerSeries, radii, p: float, M: int) -> list[float]:
    """Integral means ``((1/M) sum_j |f(r e^{2 pi i j / M})|^p)^{1/p}``,
    one per radius ``r`` in ``radii``.

    For p = 2 and M > f.order each equals ``(sum |c_k|^2 r^{2k})^{1/2}``
    exactly (discrete Parseval).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    vals = np.abs(sample_rings(f, radii, M))
    return [float(m ** (1.0 / p)) for m in np.mean(vals**p, axis=1)]


def mp_mean(f: PowerSeries, r: float, p: float, M: int) -> float:
    """The integral mean of :func:`mp_means` on the one circle ``|z| = r``."""
    return mp_means(f, [r], p, M)[0]


def hp_norm(f: PowerSeries, p: float, grid: QuadratureGrid) -> NormEstimate:
    """Hardy-norm estimate: the integral-mean profile over the radial nodes
    up to ``grid.r_max`` is checked for monotonicity and its last entry is
    returned (means of analytic functions are nondecreasing in r).

    A relative monotonicity violation beyond 1e-6 raises
    :class:`QuadratureError`: it means the angular rule no longer resolves
    the integrand.
    """

    def run(g: QuadratureGrid, dilations):
        radii = g.sup_radii[g.sup_radii > 0]
        out = []
        for r, fr in zip(dilations, _dilated(f, dilations)):
            means = np.array(mp_means(fr, radii, p, g.angular))
            if r == 1.0:
                drops = means[:-1] - means[1:]
                rel = float(np.max(drops / np.maximum(means[:-1], 1e-30))) if drops.size else 0.0
                if rel > 1e-6:
                    raise QuadratureError(
                        "integral means decreased along the radial profile; "
                        "angular resolution too coarse for this integrand"
                    )
            out.append(float(means[-1]))
        return out

    return NormEstimate(*dilation_estimate(run, grid))


def _dilated(f: PowerSeries, dilations) -> list[PowerSeries]:
    """``f(r z)`` for each ``r`` in ``dilations`` (``f`` itself at 1)."""
    return [f if r == 1.0 else dilate(f, r) for r in dilations]


def _weighted_sup(fs, weight, grid: QuadratureGrid) -> list[float]:
    """``max over grid circles (and the origin) of |f| * weight(r)``, one
    value per series of the same-order stack ``fs``."""
    radii = grid.sup_radii[grid.sup_radii > 0]
    w = np.array([float(weight(float(r))) for r in radii])
    rings = np.max(np.abs(sample_rings(fs, radii, grid.angular)), axis=-1)
    origin = float(weight(0.0))
    return [max(abs(f.coeffs[0]) * origin, float(np.max(ring * w))) for f, ring in zip(fs, rings)]


def sup_estimate(f: PowerSeries, weight, grid: QuadratureGrid):
    """Dilation-probe estimate of :func:`_weighted_sup` for one series."""
    return dilation_estimate(lambda g, rs: _weighted_sup(_dilated(f, rs), weight, g), grid)


def growth_norm(f: PowerSeries, q: float, grid: QuadratureGrid) -> NormEstimate:
    """Growth-space estimate ``sup |f(z)| (1 - |z|^2)^q`` over the grid."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return NormEstimate(*sup_estimate(f, lambda r: (1.0 - r * r) ** q, grid))


def bloch_norm(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Bloch seminorm estimate ``sup |f'(z)| (1 - |z|^2)``."""
    return NormEstimate(*sup_estimate(f.derivative(), lambda r: 1.0 - r * r, grid))


def decay_profile(f: PowerSeries, radii, angular: int = 512) -> list[tuple[float, float]]:
    """Per-radius values ``sup_{|z|=r} |f'(z)| (1 - r^2)``; tends to 0 for
    little-Bloch functions and stays bounded below otherwise."""
    radii = [float(r) for r in radii]
    rings = np.max(np.abs(sample_rings(f.derivative(), radii, angular)), axis=1)
    return [(r, float(ring) * (1.0 - r**2)) for r, ring in zip(radii, rings)]


# ---------------------------------------------------------------------------
# Moebius-centre sweeps (shared with the coefficient conditions)
# ---------------------------------------------------------------------------

def moebius_sweep_estimate(f: PowerSeries, make_field, grid: QuadratureGrid, prefactor=None):
    """Probe-aware ``sup_a prefactor(a) int field(f) (1-|phi_a|^2) dm``.

    ``make_field(g, fs)`` builds the node-value matrices ``(k, radii,
    angles)`` of the stack ``fs`` of dilated series on grid ``g``; the
    per-centre ring means of all of them are computed in one sweep.
    """

    def run(g: QuadratureGrid, dilations):
        rings = g.moebius_ring_means(make_field(g, _dilated(f, dilations)))
        vals = rings @ (g.weights * 2.0 * g.radii)
        if prefactor is not None:
            vals = vals * np.array([prefactor(a) for a in g.a_grid])
        return np.max(vals, axis=-1)

    return dilation_estimate(run, grid)


def bmoa_garsia(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Garsia-type estimate ``sup_a int |f'|^2 (1 - |phi_a|^2) dm``."""
    return NormEstimate(
        *moebius_sweep_estimate(
            f, lambda g, fs: g.sample_folded([fr.derivative() for fr in fs], power=2.0), grid
        )
    )


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

    def run(g: QuadratureGrid, dilations):
        out = []
        for fr in _dilated(f, dilations):
            centred = fr - fr.coeffs[0]
            c = centred.coeffs
            b = PowerSeries(np.correlate(c, c, "full")[c.size - 1 :])
            poisson = np.real(2.0 * b(g.a_grid) - b.coeffs[0])
            out.append(max(0.0, float(np.max(poisson - np.abs(centred(g.a_grid)) ** 2))))
        return out

    return NormEstimate(*dilation_estimate(run, grid))


# ---------------------------------------------------------------------------
# Carleson measures
# ---------------------------------------------------------------------------

def _square_sup(grid: QuadratureGrid, rings: np.ndarray, prefactor, rcap: float | None = None) -> float:
    """``sup_a prefactor(a) int_{S_a} field dm`` (at least 0) from the
    square ring means of ``field``; with ``rcap``, radial nodes and centres
    beyond it are left out."""
    mask = grid.radial_mask(rcap)
    keep = np.ones(grid.a_grid.size, dtype=bool) if rcap is None else np.abs(grid.a_grid) <= rcap
    wq = grid.weights[mask] * 2.0 * grid.radii[mask]
    vals = rings[keep][:, mask] @ wq * np.array([prefactor(a) for a in grid.a_grid[keep]])
    return max(0.0, float(np.max(vals))) if vals.size else 0.0


def square_sweep(grid: QuadratureGrid, field: np.ndarray, prefactor) -> float:
    """``sup_a prefactor(a) int_{S_a} field dm`` over Carleson squares."""
    return _square_sup(grid, grid.square_ring_means(field), prefactor)


def square_sweep_estimate(f: PowerSeries, make_field, grid: QuadratureGrid, prefactor):
    """Dilation-probe companion of :func:`square_sweep`; ``make_field`` as
    in :func:`moebius_sweep_estimate`."""

    def run(g: QuadratureGrid, dilations):
        rings = g.square_ring_means(make_field(g, _dilated(f, dilations)))
        return [_square_sup(g, means, prefactor) for means in rings]

    return dilation_estimate(run, grid)


def carleson_norm(density, grid: QuadratureGrid, dilated=None) -> NormEstimate:
    """Carleson-measure estimate ``sup_a mu(S_a)/(1 - |a|)`` for
    ``d mu = density dm``.

    ``density`` is a node-value matrix or a callable of complex nodes.  The
    dilation probe needs to know how the density transforms, so callers may
    pass ``dilated(r) -> density`` for the probe; without it the probe
    compares partial masses with radial nodes and centres capped at the
    probe radii (a weaker but structure-free diagnostic).
    """
    pref = lambda a: 1.0 / (1.0 - abs(a))

    def field_on(g, dens):
        vals = dens if isinstance(dens, np.ndarray) else np.real(g.sample(dens))
        if np.any(vals < -1e-12):
            raise ValueError("density must be nonnegative")
        return np.real(vals)

    if dilated is not None:

        def run(g: QuadratureGrid, dilations):
            dens = [density if r == 1.0 else dilated(r) for r in dilations]
            return [square_sweep(g, field_on(g, d), pref) for d in dens]

        return NormEstimate(*dilation_estimate(run, grid))

    base = field_on(grid, density)
    rings = grid.square_ring_means(base)
    value = _square_sup(grid, rings, pref)
    if isinstance(density, np.ndarray):
        coarse = value
    else:
        cg = grid.coarsened()
        coarse = square_sweep(cg, field_on(cg, density), pref)
    capped = lambda rcap: _square_sup(grid, rings, pref, rcap)
    flag = bool(capped(PROBE_HIGH) > PROBE_FACTOR * capped(PROBE_LOW) + 1e-300)
    return NormEstimate(value, coarse, flag)
