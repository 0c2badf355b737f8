"""Numerical norms and seminorms on the disc.

Hardy means and norms, growth norms ``sup |f(z)|(1-|z|^2)^q``, Bloch and
little-Bloch diagnostics, two equivalent BMOA estimators (the Garsia-type
derivative integral and the H^2 composition form), Carleson-measure norms
over Carleson squares, and general weighted area integrals.

Every estimate is reported as a :class:`NormEstimate` carrying the value, a
half-resolution companion value, and a divergence flag: the estimator is
re-run on the dilations ``f(0.9 z)``, ``f(0.99 z)`` and ``f(0.999 z)`` and
flagged when it more than doubles from 0.9 to 0.999 and its increment over
the last decade (0.99 -> 0.999) is more than 0.7 times the one before
(0.9 -> 0.99), i.e. when the quantity keeps growing at a sustained rate as
the dilation exhausts the disc (see :func:`disclab.grids.dilation_estimate`).
The flag is a diagnostic, not a proof.
"""

from __future__ import annotations

import warnings
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
from .series import AccuracyWarning, PowerSeries, compose_moebius, dilate, sample_circle

__all__ = [
    "NormEstimate",
    "QuadratureError",
    "mp_mean",
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


def mp_mean(f: PowerSeries, r: float, p: float, M: int) -> float:
    """Integral mean ``((1/M) sum_j |f(r e^{2 pi i j / M})|^p)^{1/p}``.

    For p = 2 and M > f.order this equals ``(sum |c_k|^2 r^{2k})^{1/2}``
    exactly (discrete Parseval).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    vals = np.abs(sample_circle(f, r, M))
    return float(np.mean(vals**p) ** (1.0 / p))


def hp_norm(f: PowerSeries, p: float, grid: QuadratureGrid) -> NormEstimate:
    """Hardy-norm estimate: the integral-mean profile over the radial nodes
    up to ``grid.r_max`` is checked for monotonicity and its last entry is
    returned (means of analytic functions are nondecreasing in r).

    A relative monotonicity violation beyond 1e-6 raises
    :class:`QuadratureError`: it means the angular rule no longer resolves
    the integrand.
    """

    def run(g: QuadratureGrid, r: float):
        fr = f if r == 1.0 else dilate(f, r)
        radii = g.sup_radii[g.sup_radii > 0]
        means = np.array([mp_mean(fr, float(s), p, g.angular) for s in radii])
        if r == 1.0:
            drops = means[:-1] - means[1:]
            rel = float(np.max(drops / np.maximum(means[:-1], 1e-30))) if drops.size else 0.0
            if rel > 1e-6:
                raise QuadratureError(
                    "integral means decreased along the radial profile; "
                    "angular resolution too coarse for this integrand"
                )
        return float(means[-1])

    return NormEstimate(*dilation_estimate(run, grid))


def _weighted_sup(f: PowerSeries, weight, grid: QuadratureGrid) -> float:
    """``max over grid circles (and the origin) of |f| * weight(r)``."""
    radii = grid.sup_radii[grid.sup_radii > 0]
    best = abs(f.coeffs[0]) * float(weight(0.0))
    for r in radii:
        ring = float(np.max(np.abs(sample_circle(f, float(r), grid.angular))))
        best = max(best, ring * float(weight(float(r))))
    return best


def growth_norm(f: PowerSeries, q: float, grid: QuadratureGrid) -> NormEstimate:
    """Growth-space estimate ``sup |f(z)| (1 - |z|^2)^q`` over the grid."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    w = lambda r: (1.0 - r * r) ** q
    return NormEstimate(
        *dilation_estimate(lambda g, r: _weighted_sup(dilate(f, r), w, g), grid)
    )


def bloch_norm(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Bloch seminorm estimate ``sup |f'(z)| (1 - |z|^2)``."""
    df = f.derivative()
    w = lambda r: 1.0 - r * r
    return NormEstimate(
        *dilation_estimate(lambda g, r: _weighted_sup(dilate(df, r), w, g), grid)
    )


def decay_profile(f: PowerSeries, radii, angular: int = 512) -> list[tuple[float, float]]:
    """Per-radius values ``sup_{|z|=r} |f'(z)| (1 - r^2)``; tends to 0 for
    little-Bloch functions and stays bounded below otherwise."""
    df = f.derivative()
    out = []
    for r in radii:
        ring = float(np.max(np.abs(sample_circle(df, float(r), angular))))
        out.append((float(r), ring * (1.0 - float(r) ** 2)))
    return out


# ---------------------------------------------------------------------------
# Moebius-centre sweeps (shared with the coefficient conditions)
# ---------------------------------------------------------------------------

def moebius_sweep_estimate(f: PowerSeries, make_field, grid: QuadratureGrid, prefactor=None):
    """Probe-aware ``sup_a prefactor(a) int field(f) (1-|phi_a|^2) dm``.

    ``make_field(g, fr)`` builds the node-value matrix of the dilated
    series ``fr`` on grid ``g``; the per-centre ring means are computed in
    one pass per dilation.
    """

    def run(g: QuadratureGrid, r: float):
        fr = f if r == 1.0 else dilate(f, r)
        rings = g.moebius_ring_means(make_field(g, fr))
        wq = g.weights * 2.0 * g.radii
        vals = rings @ wq
        if prefactor is not None:
            vals = vals * np.array([prefactor(a) for a in g.a_grid])
        return float(np.max(vals))

    return dilation_estimate(run, grid)


def bmoa_garsia(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Garsia-type estimate ``sup_a int |f'|^2 (1 - |phi_a|^2) dm``."""
    return NormEstimate(
        *moebius_sweep_estimate(
            f, lambda g, fr: g.sample_folded(fr.derivative(), power=2.0), grid
        )
    )


def bmoa_h2_def(f: PowerSeries, grid: QuadratureGrid) -> NormEstimate:
    """Composition estimate ``sup_a || f o phi_a - f(a) ||_{H^2}^2``.

    The H^2 norm of the composed truncation is its exact Parseval sum
    ``sum |c_n|^2`` (the r -> 1 limit of its means).  Composition accuracy
    warnings propagate for centres with |a| < 0.95; closer to the boundary
    the slow coefficient decay of the composition is an intrinsic
    truncation limit (the norm is captured to a factor 1 - |a|^(2 order))
    and the warning is silenced -- the supremum for a bounded-oscillation
    function never lives there.
    """
    order = max(f.order, 256)
    samples = max(2 * order + 2, grid.angular, 1024)

    def run(g: QuadratureGrid, r: float):
        fr = f if r == 1.0 else dilate(f, r)
        best = 0.0
        for a in g.a_grid:
            with warnings.catch_warnings():
                if abs(a) >= 0.95:
                    warnings.simplefilter("ignore", AccuracyWarning)
                comp = compose_moebius(fr, a, out_order=order, samples=samples)
            c = comp.coeffs.copy()
            c[0] -= fr(complex(a))
            best = max(best, float(np.sum(np.abs(c) ** 2)))
        return best

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
    """Dilation-probe companion of :func:`square_sweep`."""

    def run(g: QuadratureGrid, r: float):
        fr = f if r == 1.0 else dilate(f, r)
        return square_sweep(g, make_field(g, fr), prefactor)

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

        def run(g: QuadratureGrid, r: float):
            dens = density if r == 1.0 else dilated(r)
            return square_sweep(g, field_on(g, dens), pref)

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
