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
:class:`ConditionReport` and leaves the judgement to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grids import QuadratureGrid, dilation_estimate
from .norms import _weighted_sup, moebius_sweep_estimate, square_sweep_estimate
from .series import PowerSeries, dilate, geometric_series, reciprocal_series, sample_circle

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
class ConditionReport:
    kind: str
    value: float
    value_coarse: float
    divergence_flag: bool
    grid_fingerprint: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("condition values are nonnegative")


def _log_weight(r: np.ndarray | float) -> np.ndarray | float:
    return np.log(np.e / (1.0 - r))


# ---------------------------------------------------------------------------
# sup-type conditions
# ---------------------------------------------------------------------------

def _sup_report(kind: str, A: PowerSeries, weight, grid: QuadratureGrid) -> ConditionReport:
    est = dilation_estimate(lambda g, r: _weighted_sup(dilate(A, r), weight, g), grid)
    return ConditionReport(kind, *est, grid.fingerprint())


def nehari_sup(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """``sup |A(z)| (1-|z|^2)^2`` -- at most 1 forces at most one zero per
    nontrivial solution; finiteness is hyperbolic zero separation."""
    return _sup_report("nehari", A, lambda r: (1 - r * r) ** 2, grid)


def order3_growth(
    A0: PowerSeries, A1: PowerSeries, A2: PowerSeries, grid: QuadratureGrid
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """``sup |A_j(z)| (1-|z|^2)^{3-j}`` for j = 0, 1, 2."""
    return tuple(
        _sup_report(f"growth3:{j}", A, lambda r, j=j: (1 - r * r) ** (3 - j), grid)
        for j, A in enumerate((A0, A1, A2))
    )


def lalpha_norm(A: PowerSeries, alpha: float, grid: QuadratureGrid) -> ConditionReport:
    """Logarithmically sharpened growth quantity
    ``sup |A(z)| (1-|z|^2)^2 log(e/(1-|z|))^alpha``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _sup_report(
        f"lalpha:{alpha:g}",
        A,
        lambda r: (1 - r * r) ** 2 * _log_weight(r) ** alpha,
        grid,
    )


# ---------------------------------------------------------------------------
# area-type conditions (sup over Moebius centres)
# ---------------------------------------------------------------------------

def order3_area(
    A0: PowerSeries, A1: PowerSeries, A2: PowerSeries, grid: QuadratureGrid
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """``sup_a int |A_j(z)| (1-|z|^2)^{1-j} (1-|phi_a(z)|^2) dm`` for j=0,1,2."""
    out = []
    for j, A in enumerate((A0, A1, A2)):
        est = moebius_sweep_estimate(
            A,
            lambda g, fr, j=j: g.sample_folded(fr) * (1 - g.radii**2)[:, None] ** (1 - j),
            grid,
        )
        out.append(ConditionReport(f"area3:{j}", *est, grid.fingerprint()))
    return tuple(out)


def bmoa_dd(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """``sup_a int |A|^2 (1-|z|^2)^2 (1-|phi_a|^2) dm``: finiteness says A is
    a second derivative of a BMOA function."""
    est = moebius_sweep_estimate(
        A, lambda g, fr: g.sample_folded(fr, power=2.0) * (1 - g.radii**2)[:, None] ** 2, grid
    )
    return ConditionReport("bmoa-dd", *est, grid.fingerprint())


def lmoa_quantity(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """The log-sharpened BMOA-type quantity
    ``sup_a log(e/(1-|a|))^2 int |A|^2 (1-|z|^2)^2 (1-|phi_a|^2) dm``."""
    est = moebius_sweep_estimate(
        A,
        lambda g, fr: g.sample_folded(fr, power=2.0) * (1 - g.radii**2)[:, None] ** 2,
        grid,
        prefactor=lambda a: float(_log_weight(abs(a))) ** 2,
    )
    return ConditionReport("lmoa", *est, grid.fingerprint())


def lmoa_square(A: PowerSeries, grid: QuadratureGrid) -> ConditionReport:
    """Carleson-square form
    ``sup_a log(e/(1-|a|))^2/(1-|a|) int_{S_a} |A|^2 (1-|z|^2)^3 dm``."""
    est = square_sweep_estimate(
        A,
        lambda g, fr: g.sample_folded(fr, power=2.0) * (1 - g.radii**2)[:, None] ** 3,
        grid,
        prefactor=lambda a: float(_log_weight(abs(a))) ** 2 / (1.0 - abs(a)),
    )
    return ConditionReport("lmoa-square", *est, grid.fingerprint())


# ---------------------------------------------------------------------------
# lacunary criterion and the moment asymptotic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LacunaryReport:
    value: float
    gap_ratio: float
    moment_ratios: tuple[tuple[int, float], ...]


def moment_log_integral(n: int, depth: int = 40, nodes: int = 32) -> float:
    """``int_0^1 r^n (1-r)^3 log(e/(1-r))^3 dr`` by boundary-refined Gauss
    panels; behaves like ``(log n)^3 / n^4`` for large n."""
    x, w = leggauss(nodes)
    edges = [0.0] + [1.0 - 2.0**-j for j in range(1, depth)]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        r = (hi - lo) / 2 * x + (hi + lo) / 2
        total += (hi - lo) / 2 * float(
            np.sum(w * r**n * (1 - r) ** 3 * _log_weight(r) ** 3)
        )
    return total


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

def cauchy_bound(A: PowerSeries, r: float, z: complex, angular_count: int = 256) -> float:
    """Total variation of the explicit representing measure:

        (1/2pi) int_0^{2pi} | int_0^z int_0^zeta A(r w)/(x - w) dw dzeta | |dx|

    over boundary points ``x = e^{it}``.  The inner double primitive is done
    exactly on series per x, with ``1/(x - w)`` expanded as the geometric
    series ``sum w^n x^{-n-1}``.
    """
    if not (0.0 < r < 1.0) or abs(z) >= 1.0:
        raise ValueError("need 0 < r < 1 and |z| < 1")
    if z == 0:
        return 0.0
    Ar = PowerSeries(A.coeffs * r ** np.arange(A.order + 1))
    total = 0.0
    for t in 2 * np.pi * np.arange(angular_count) / angular_count:
        x = np.exp(1j * t)
        geo = geometric_series(np.conj(x), A.order) * x ** (-1)
        inner = (Ar * geo).antiderivative(0.0).antiderivative(0.0)
        total += abs(inner(z))
    return total / angular_count


def _h1_inner_fields(A: PowerSeries, r: float, grid: QuadratureGrid, t_count: int):
    """Node matrix of ``(1/2pi) int_0^{2pi} |int_0^z A(r zeta)/(1 - e^{-it} zeta) dzeta| dt``."""
    Ar = PowerSeries(A.coeffs * r ** np.arange(A.order + 1))
    acc = np.zeros((grid.radii.size, grid.angular))
    for t in 2 * np.pi * np.arange(t_count) / t_count:
        geo = geometric_series(np.exp(-1j * t), A.order)
        prim = (Ar * geo).antiderivative(0.0)
        acc += np.abs(grid.sample(prim))
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
    est = moebius_sweep_estimate(
        A,
        lambda g, fr: _h1_inner_fields(fr, r, g, t_count if g is grid else max(8, t_count // 2)) ** 2,
        grid,
    )
    return ConditionReport(f"bmoa-h1:r={r:g}", *est, grid.fingerprint())


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
    oscillation and little-Bloch membership of solutions.
    """
    field = np.abs(grid.sample(A)) ** 2 * (1 - grid.radii**2)[:, None] ** 2
    wq = grid.weights * 2.0 * grid.radii
    out = []
    for rho in radii:
        rho = float(rho)
        pref = float(_log_weight(rho)) ** 2
        rings = grid.moebius_ring_means(field, a_radii=(rho if rho > 0 else 0.0,))
        best = max(0.0, float(np.max(pref * (rings @ wq))))
        ring = float(np.max(np.abs(sample_circle(A, rho, grid.angular)))) if rho > 0 else abs(A.coeffs[0])
        logsup = ring * (1 - rho * rho) ** 2 * float(_log_weight(rho))
        out.append((rho, best, logsup))
    return out
