"""Coefficient-condition estimators for the disc ODE f'' + A f = 0 (and the
order-3 companion), each reported with refinement diagnostics.

The quantities estimated here are the hypotheses under which solutions stay
in H^infty, BMOA, Bloch or Hardy spaces: the Nehari-type growth quantity,
order-3 growth and area conditions, logarithmically weighted sup norms,
BMOA-type Moebius and Carleson-square integrals, lacunary-series sums, a
Cauchy-transform representing-measure bound and its H^1 relative, the
double-primitive operator ``S_A``, and boundary decay profiles.

No threshold is ever asserted: the underlying smallness constants are not
quantified, so every operation returns the raw estimate inside a
:class:`ConditionReport` and leaves the judgement to the caller.  A report
is the :class:`~disclab.norms.NormEstimate` of the estimate protocol
(:func:`~disclab.norms.dilation_estimate`), labelled with the condition's
kind and the grid's fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .grids import QuadratureGrid
from .norms import NormEstimate, sup_estimate, sweep_estimate
from .series import PowerSeries, modulus_shares, reciprocal_series, ring_blocks, sample_moduli

__all__ = [
    "ConditionReport",
    "LacunaryReport",
    "nehari_sup",
    "order3_growth",
    "order3_area",
    "lalpha_norm",
    "lmoa_quantity",
    "lmoa_square",
    "bmoa_dd",
    "lacunary_lmoa",
    "moment_log_integral",
    "cauchy_bound",
    "bmoa_h1_cond",
    "apply_SA",
    "decay_conditions",
    "log_reciprocal_coefficient",
    "lacunary_series",
]


@dataclass(frozen=True)
class ConditionReport(NormEstimate):
    """A :class:`~disclab.norms.NormEstimate` labelled with the condition's
    kind and the fingerprint of the grid it was read on."""

    kind: str
    grid_fingerprint: str


def _report(kind: str, est: NormEstimate, grid: QuadratureGrid) -> ConditionReport:
    return ConditionReport(**vars(est), kind=kind, grid_fingerprint=grid.fingerprint())


def _log_weight(r: np.ndarray | float) -> np.ndarray | float:
    return np.log(np.e / (1.0 - r))


# ---------------------------------------------------------------------------
# sup-type conditions
# ---------------------------------------------------------------------------

def nehari_sup(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """``sup |A(z)| (1-|z|^2)^2`` -- at most 1 forces at most one zero per
    nontrivial solution; finiteness is hyperbolic zero separation."""
    return _report("nehari", sup_estimate(A, lambda r: (1 - r * r) ** 2, grid), grid)


def order3_growth(
    A0: PowerSeries, A1: PowerSeries, A2: PowerSeries, grid: QuadratureGrid
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """``sup |A_j(z)| (1-|z|^2)^{3-j}`` for j = 0, 1, 2."""
    return tuple(
        _report(f"growth3:{j}", sup_estimate(A, lambda r, j=j: (1 - r * r) ** (3 - j), grid), grid)
        for j, A in enumerate((A0, A1, A2))
    )


def lalpha_norm(A: PowerSeries, alpha: float, grid: QuadratureGrid) -> ConditionReport:
    """Logarithmically sharpened growth quantity
    ``sup |A(z)| (1-|z|^2)^2 log(e/(1-|z|))^alpha``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    est = sup_estimate(A, lambda r: (1 - r * r) ** 2 * _log_weight(r) ** alpha, grid)
    return _report(f"lalpha:{alpha:g}", est, grid)


# ---------------------------------------------------------------------------
# area-type conditions (sup over Moebius centres or Carleson squares)
# ---------------------------------------------------------------------------

def _folded(power: float, q: int):
    """The ``make_field`` of ``|f|^power (1-|z|^2)^q`` for :func:`sweep_estimate`."""
    return lambda g, fs: g.sample_folded(fs, power) * (1 - g.radii**2)[:, None] ** q


def order3_area(
    A0: PowerSeries, A1: PowerSeries, A2: PowerSeries, grid: QuadratureGrid
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """``sup_a int |A_j(z)| (1-|z|^2)^{1-j} (1-|phi_a(z)|^2) dm`` for j=0,1,2."""
    return tuple(
        _report(f"area3:{j}", sweep_estimate(A, _folded(1.0, 1 - j), grid), grid)
        for j, A in enumerate((A0, A1, A2))
    )


def bmoa_dd(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """``sup_a int |A|^2 (1-|z|^2)^2 (1-|phi_a|^2) dm``: finiteness says A is
    a second derivative of a BMOA function."""
    return _report("bmoa-dd", sweep_estimate(A, _folded(2.0, 2), grid), grid)


def lmoa_quantity(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """The log-sharpened BMOA-type quantity
    ``sup_a log(e/(1-|a|))^2 int |A|^2 (1-|z|^2)^2 (1-|phi_a|^2) dm``."""
    est = sweep_estimate(A, _folded(2.0, 2), grid, prefactor=lambda a: float(_log_weight(abs(a))) ** 2)
    return _report("lmoa", est, grid)


def lmoa_square(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """Carleson-square form
    ``sup_a log(e/(1-|a|))^2/(1-|a|) int_{S_a} |A|^2 (1-|z|^2)^3 dm``."""
    est = sweep_estimate(
        A,
        _folded(2.0, 3),
        grid,
        prefactor=lambda a: float(_log_weight(abs(a))) ** 2 / (1.0 - abs(a)),
        means=QuadratureGrid.square_ring_means,
    )
    return _report("lmoa-square", est, grid)


# ---------------------------------------------------------------------------
# lacunary criterion and the moment asymptotic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LacunaryReport:
    value: float
    gap_ratio: float
    moment_ratios: tuple[tuple[int, float], ...]


@cache
def _log_moment_weight():
    """The weight of the lacunary moments, read on the one panel rule of
    :mod:`disclab.weights` (built, and that module loaded, on first use)."""
    from .weights import RadialWeight

    return RadialWeight(lambda r: (1 - r) ** 3 * _log_weight(r) ** 3)


def moment_log_integral(n: int) -> float:
    """``int_0^1 r^n (1-r)^3 log(e/(1-r))^3 dr``, the n-th moment of that
    weight on the panel rule; behaves like ``(log n)^3 / n^4`` for large n."""
    return _log_moment_weight().moment(n)


def lacunary_lmoa(coefficients, frequencies) -> LacunaryReport:
    """Lacunary sufficient condition ``sum |a_k|^2 (log n_k)^3 / n_k^4`` with
    the gap hypothesis ``inf n_{k+1}/n_k > 1`` checked, plus the per-frequency
    ratios of the exact moment integral to its asymptotic ``(log n)^3/n^4``."""
    a = np.asarray(coefficients, dtype=complex)
    n = np.asarray(frequencies, dtype=int)
    if a.size != n.size or a.size == 0:
        raise ValueError("need matching nonempty coefficient and frequency lists")
    if np.any(n[:-1] >= n[1:]):
        raise ValueError("frequencies must be strictly increasing")
    gap = float(np.min(n[1:] / n[:-1])) if n.size > 1 else np.inf
    if gap <= 1.0:
        raise ValueError("lacunary gap condition violated: inf n_{k+1}/n_k <= 1")
    value = float(np.sum(np.abs(a) ** 2 * np.log(n) ** 3 / n.astype(float) ** 4))
    ratios = tuple(
        (int(nk), moment_log_integral(int(nk)) / (np.log(nk) ** 3 / float(nk) ** 4))
        for nk in n
    )
    return LacunaryReport(value, gap, ratios)


def lacunary_series(coefficients, frequencies, order: int | None = None) -> PowerSeries:
    """The series ``sum a_k z^{n_k}`` truncated at the largest frequency
    (or at ``order``)."""
    n = np.asarray(frequencies, dtype=int)
    N = int(n.max()) if order is None else order
    c = np.zeros(N + 1, dtype=complex)
    for ak, nk in zip(coefficients, n):
        if nk <= N:
            c[nk] = ak
    return PowerSeries(c)


def log_reciprocal_coefficient(order: int) -> PowerSeries:
    """The boundary-singular function ``(1-z)^{-2} / log(e/(1-z))``: its
    log-sharpened sup norm is finite at exponent 1 yet infinite at every
    exponent above 1, while the Carleson-square quantity stays finite."""
    # (1-z)^{-2} = sum (n+1) z^n;  log(e/(1-z)) = 1 + sum z^n / n
    sq = PowerSeries(np.arange(1, order + 2, dtype=complex))
    logc = np.ones(order + 1, dtype=complex)
    logc[1:] = 1.0 / np.arange(1, order + 1)
    return sq * reciprocal_series(PowerSeries(logc))


# ---------------------------------------------------------------------------
# Cauchy-transform representing measure and the H^1 companion
# ---------------------------------------------------------------------------

def _cauchy_products(A: PowerSeries, r: float, t_count: int):
    """Coefficients of ``A(r w) / (1 - e^{-it} w)`` truncated at ``A``'s
    order, one row per ``t = 2 pi j / t_count``, in blocks of rows
    (:func:`~disclab.series.ring_blocks`).  With ``c = e^{-it}``, coefficient
    ``m`` is ``c^m sum_{j<=m} a_j r^j c^{-j}`` (every ``|c| = 1``); ``c^m``
    is ``exp(-2 pi i (j m mod t_count) / t_count)``, its phase index
    reduced exactly, so every power is as accurate as ``c`` itself."""
    m = np.arange(A.order + 1)
    for block in ring_blocks(t_count, A.order, 1):
        c = np.exp(-2j * np.pi * (np.arange(t_count)[block, None] * m % t_count) / t_count)
        yield c * np.cumsum(A.coeffs * r**m / c, axis=1)


def cauchy_bound(A: PowerSeries, r: float, z: complex, angular_count: int = 256) -> float:
    """Total variation of the explicit representing measure:

        (1/2pi) int_0^{2pi} | int_0^z int_0^zeta A(r w)/(x - w) dw dzeta | |dx|

    over boundary points ``x = e^{it}``.  The inner double primitive is done
    exactly on series for all x at once (:func:`_cauchy_products`), with
    ``1/(x - w)`` expanded as the geometric series ``sum w^n x^{-n-1}``
    (the factor ``x^{-1}`` has modulus 1).
    """
    if not (0.0 < r < 1.0) or abs(z) >= 1.0:
        raise ValueError("need 0 < r < 1 and |z| < 1")
    if z == 0:
        return 0.0
    m = np.arange(A.order + 1)
    at_z = complex(z) ** (m + 2) / ((m + 1) * (m + 2))
    return sum(float(np.sum(np.abs(p @ at_z))) for p in _cauchy_products(A, r, angular_count)) / angular_count


def _h1_inner_fields(A: PowerSeries, r: float, grid: QuadratureGrid, t_count: int):
    """Node matrix of ``(1/2pi) int_0^{2pi} |int_0^z A(r zeta)/(1 - e^{-it} zeta) dzeta| dt``;
    the primitives of a block of ``t`` are sampled as one 2-D stack, and
    each ring block of :func:`~disclab.series.modulus_shares` adds its sum
    over the stack to its own rings."""
    acc = np.zeros((grid.radii.size, grid.angular))

    def reduce(block, values):
        acc[block] += values.sum(axis=0)

    for prod in _cauchy_products(A, r, t_count):
        prims = np.hstack([np.zeros((len(prod), 1)), prod / np.arange(1, A.order + 2)])
        modulus_shares(prims, grid.radii, grid.angular, reduce)
    return acc / t_count


def bmoa_h1_cond(
    A: PowerSeries, r: float, grid: QuadratureGrid, t_count: int = 64
) -> ConditionReport:
    """The H^1-representation BMOA-type quantity

        sup_a int [ (1/2pi) int |int_0^z A(r zeta)/(1-e^{-it} zeta) dzeta| dt ]^2
                  (1-|phi_a(z)|^2) dm(z),

    with the path integral exact on series, the t-mean by angular quadrature
    and the outer integral on the polar grid.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")

    def field(g, fs):
        count = t_count if g is grid else max(8, t_count // 2)
        return np.stack([_h1_inner_fields(fr, r, g, count) ** 2 for fr in fs])

    return _report(f"bmoa-h1:r={r:g}", sweep_estimate(A, field, grid), grid)


def apply_SA(A: PowerSeries, f: PowerSeries) -> PowerSeries:
    """The double-primitive operator ``S_A(f)(z) = int_0^z int_0^zeta f A``;
    a solution of f'' + A f = 0 satisfies ``f = -S_A(f) + f'(0) z + f(0)``
    coefficientwise on truncations."""
    return (f * A).antiderivative(0.0).antiderivative(0.0)


# ---------------------------------------------------------------------------
# decay profiles (vanishing-oscillation and little-Bloch hypotheses)
# ---------------------------------------------------------------------------

def decay_conditions(
    A: PowerSeries, radii, grid: QuadratureGrid
) -> list[tuple[float, float, float]]:
    """Per-radius profile ``(rho, lmoa_at_rho, logsup_at_rho)`` where
    ``lmoa_at_rho`` is the log-sharpened Moebius integral maximized over
    centres of modulus rho, and ``logsup_at_rho`` is
    ``sup_{|z|=rho} |A(z)| (1-|z|^2)^2 log(e/(1-|z|))``.

    Vanishing profiles as rho -> 1 are the hypotheses for vanishing mean
    oscillation and little-Bloch membership of solutions.  All profile
    radii take one centre sweep (a radius ``rho <= 0`` reads the centre 0)
    and one sampling of the rings ``|z| = rho > 0``.
    """
    rhos = [float(rho) for rho in radii]
    a_radii = [rho if rho > 0 else 0.0 for rho in rhos]
    ring_radii = [rho for rho in rhos if rho > 0]
    field = sample_moduli(A, grid.radii, grid.angular) ** 2 * (1 - grid.radii**2)[:, None] ** 2
    means = grid.moebius_ring_means(field, a_radii=a_radii) @ grid.ring_weights
    # the rows of the sweep: the centre 0 first (if asked for), then a_angles per ring radius
    head = 1 if 0.0 in a_radii else 0
    phases = iter(means[head:].reshape(len(ring_radii), grid.a_angles))
    maxima = iter(np.max(sample_moduli(A, ring_radii, grid.angular), axis=1))
    out = []
    for rho in rhos:
        rows, ring = (next(phases), float(next(maxima))) if rho > 0 else (means[:1], abs(A.coeffs[0]))
        best = max(0.0, float(np.max(float(_log_weight(rho)) ** 2 * rows)))
        out.append((rho, best, ring * (1 - rho * rho) ** 2 * float(_log_weight(rho))))
    return out
