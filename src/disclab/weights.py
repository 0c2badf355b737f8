"""Radial weights, derived weights, reproducing kernels and Bloch bounds.

A radial weight ``w`` on the disc carries three derived weights::

    what(r)   = int_r^1 w(s) ds                 (tail integral)
    wtilde(r) = 2 int_r^1 w(s) s ds             (tail moment)
    wstar(r)  = int_r^1 log(s/r) w(s) s ds      (logarithmic tail)

and the moments ``w_x = int_0^1 r^x w(r) dr``.  The weighted Bergman space
A^2_w has reproducing kernels ``B_z(u) = sum (u conj(z))^n / (2 w_{2n+1})``;
differentiating the kernel in u lands in the A^2_wtilde kernel through the
exact moment identity ``wtilde_{2n+1} (n+1) = w_{2n+3}``, and the
Green-type identity ``<f, g>_{A^2_w} = 4 <f', g'>_{A^2_wstar} + f(0)
conj(g(0))`` holds for normalized weights (``2 w_1 = 1``).

All of these are read from one Gauss panel rule on [0, 1] (dyadic panels
toward 0, geometric toward 1, and a closing panel that ends at 1, so no
tail is truncated short of the boundary).  :class:`StandardWeight`
overrides the rule with closed forms where they exist.

The module also computes the kernel-based Bloch quantity

    X(A) = sup_z (1-|z|^2) int |int_0^z conj(B_zeta'(u)) A(zeta) dzeta|
                              wstar(u)/(1-|u|^2) dm(u)

whose smallness bounds the Bloch norm of every solution of f'' + A f = 0 by
``(|f(0)| sup (1-|z|^2) |int_0^z A| + |f'(0)|) / (1 - 4 X(A))``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grids import QuadratureGrid, panel_rule
from .norms import NormEstimate, bloch_norm, growth_norm
from .ode import ODEProblem, solve_series
from .series import AccuracyWarning, PowerSeries, modulus_shares, sample_moduli, sample_rings, zero_series
from .specs import parse_spec

__all__ = [
    "RadialWeight",
    "StandardWeight",
    "BoundNotApplicableError",
    "regularity_constants",
    "kernel_eval",
    "kernel_derivative_residual",
    "moment_identity_gap",
    "bergman_inner",
    "green_identity_residual",
    "green_boundary_residual",
    "pointwise_growth_margin",
    "bloch_kernel_quantity",
    "bloch_solution_bound",
    "BlochBoundReport",
]


class BoundNotApplicableError(ValueError):
    """The smallness hypothesis of a bound fails at grid resolution."""


def _beta(a: float, b: float) -> float:
    """Euler's beta function ``B(a, b)`` for ``a, b > 0``.

    While ``a + b < 171`` it is ``Gamma(a) Gamma(b) / Gamma(a + b)``, unless
    the product overflows (``b`` near 0).  Otherwise, with ``b <= a`` and
    ``c = a + b``, Stirling's series gives the ratio ``Gamma(a) / Gamma(c)``
    as ``c**-b exp(b - (a - 1/2) log1p(b/a))`` times ``exp(d(a) - d(c))``,
    ``d`` the series' tail, and for ``b >= 20`` ``Gamma(b)`` too; no factor
    over- or underflows unless ``B`` does.  Against 40-digit values, for
    ``a = (x + 1)/2`` with integer ``x < 8200``, it reads within 1e-15
    relative for ``1/2 <= b <= 4`` and 3.3e-15 for ``b <= 11``; the error
    grows like ``b`` ulps, and to 2.5e-14 as ``b -> 0`` (``b = 1e-3``).
    """
    a, b = max(a, b), min(a, b)
    head = math.gamma(a) * math.gamma(b) if a + b < 171.0 else math.inf
    if head < math.inf:
        return head / math.gamma(a + b)
    c = a + b
    e = _stirling_tail(a) - _stirling_tail(c) - (a - 0.5) * math.log1p(b / a)
    if b < 20.0:
        return math.gamma(b) * math.exp(e + b) * c**-b
    return math.sqrt(2.0 * math.pi / c) * (b / c) ** (b - 0.5) * math.exp(e + _stirling_tail(b))


def _stirling_tail(z: float) -> float:
    """``log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2`` by Stirling's
    series (DLMF 5.11.1), five terms: below 1e-17 for ``z >= 20``."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _beta_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of the incomplete beta function (DLMF
    8.17.22), ``B_x(a, b) = x**a (1 - x)**b / a`` times
    ``1/(1 + d_1/(1 + d_2/(1 + ...)))``, by the modified Lentz method on an
    array ``x``.  It converges fast for ``x <= (a + 1)/(a + b + 2)``; each
    entry stops at the first factor within one ulp of 1."""
    tiny, eps = 1e-300, np.finfo(float).eps
    guard = lambda v: np.where(np.abs(v) < tiny, tiny, v)
    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h, done = d, np.zeros(x.shape, dtype=bool)
    m = 0
    while not done.all():
        m += 1
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h = np.where(done, h, h * (d * c))
        done |= ~(np.abs(d * c - 1.0) > eps)  # a NaN entry stops at once
    return h


# The panel rule every weight shares on [0, 1]: dyadic panels from 2**-40 up
# to 1/2, geometric panels from 1/2 toward 1 down to a gap of 2**-40, and a
# closing panel [1 - 2**-40, 1], with 32 Gauss nodes on each.  The
# integrands can carry log s or 1/s factors near 0 and (1-s)^alpha
# behaviour near 1; Gauss nodes touch neither endpoint.
_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-40, 0), 1.0 - 2.0 ** -np.arange(2, 41), [1.0]])
_GX, _GW = leggauss(32)
_NODES, _NODE_WEIGHTS = panel_rule(_EDGES, 32)


class RadialWeight:
    """A nonnegative radial weight given by a vectorised profile ``w(r)``,
    read on the panel rule, whose closing panel ends at 1: moments are dot
    products with the profile at the nodes; ``what``, ``wtilde`` and ``wstar``
    at a scalar or array ``r`` are sums over the panels after r's plus one
    Gauss rule on ``[r, panel end]``."""

    def __init__(self, profile):
        self.profile = profile
        self._odd_moments: np.ndarray | None = None
        self._tables: dict[str, np.ndarray] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def standard(cls, alpha: float) -> "StandardWeight":
        return StandardWeight(alpha, scale=alpha + 1.0)

    @classmethod
    def tabulated(cls, profile) -> "RadialWeight":
        return RadialWeight(profile)

    # -- basic queries -------------------------------------------------------

    def __call__(self, r):
        return np.asarray(self.profile(np.asarray(r, dtype=float)), dtype=float)

    @property
    def normalized(self) -> bool:
        return abs(2.0 * self.moment(1) - 1.0) <= 1e-10

    def __repr__(self):
        return "RadialWeight.tabulated(...)"

    # -- the panel rule ------------------------------------------------------

    @cached_property
    def _values(self) -> np.ndarray:
        """The profile at the rule's nodes."""
        return self(_NODES)

    def _tail(self, name: str, integrand, r):
        """``int_r^1 integrand(s, w(s)) ds`` for ``r`` in [0, 1]: the sum over
        the panels after r's (a table cached under ``name``) plus one Gauss
        rule on ``[r, end of r's panel]``."""
        later = self._tables.get(name)
        if later is None:
            panels = np.sum(_NODE_WEIGHTS * integrand(_NODES, self._values), axis=1)
            later = self._tables[name] = np.append(np.cumsum(panels[::-1])[::-1][1:], 0.0)
        r = np.asarray(r, dtype=float)
        k = np.clip(np.searchsorted(_EDGES, r, side="right") - 1, 0, _EDGES.size - 2)
        half = ((_EDGES[k + 1] - r) / 2)[..., None]
        # Nodes as offsets from r: a rounded midpoint would shift all of them by
        # up to half an ulp, a relative error of ~1e-16/(1-r) in a tail near 1.
        s = r[..., None] + half * (1.0 + _GX)
        return (later[k] + np.sum(half * _GW * integrand(s, self(s)), axis=-1))[()]

    # -- moments and derived weights -----------------------------------------

    def moment(self, x: float) -> float:
        """``w_x = int_0^1 r^x w(r) dr``."""
        return float(np.sum(_NODE_WEIGHTS * _NODES**x * self._values))

    def odd_moments(self, nmax: int) -> np.ndarray:
        """Cached array ``[w_1, w_3, ..., w_{2 nmax + 1}]``."""
        if self._odd_moments is None or self._odd_moments.size <= nmax:
            self._odd_moments = np.array([self.moment(2 * n + 1) for n in range(nmax + 1)])
        return self._odd_moments[: nmax + 1]

    def what(self, r):
        """Tail integral ``int_r^1 w(s) ds``."""
        return self._tail("what", lambda s, v: v, r)

    def wtilde(self, r):
        """``2 int_r^1 w(s) s ds``."""
        return self._tail("wtilde", lambda s, v: 2.0 * s * v, r)

    def wstar(self, r):
        """``int_r^1 log(s/r) w(s) s ds``, split by ``log(s/r) = log s - log r``
        so that two cumulative tables serve every r."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("wstar is logarithmically singular at 0")
        return (self._tail("log", lambda s, v: np.log(s) * s * v, r) - np.log(r) * self.wtilde(r) / 2.0)[()]

    def tilde(self) -> "RadialWeight":
        """The weight whose kernel is the derivative of this one's: ``wtilde`` as
        its profile (moments integrated, not taken from the moment identity).
        Built once per weight, so its node values and moments are cached too."""
        return self._tilde

    @cached_property
    def _tilde(self) -> "RadialWeight":
        return RadialWeight(self.wtilde)


class StandardWeight(RadialWeight):
    """``scale * (1 - r^2)^alpha`` for ``alpha > -1``, with closed-form
    moments, tails and tilde.  The textbook normalization ``scale = alpha +
    1`` (:meth:`RadialWeight.standard`) makes it a probability weight with
    ``w_1 = 1/2``."""

    def __init__(self, alpha: float, scale: float = 1.0):
        if not -1 < alpha < np.inf:
            raise ValueError(f"standard weights need a finite alpha > -1, got {alpha!r}")
        self.alpha, self.scale = float(alpha), float(scale)
        super().__init__(lambda r: self.scale * ((1.0 - r) * (1.0 + r)) ** self.alpha)

    def __repr__(self):
        return f"StandardWeight(alpha={self.alpha:g}, scale={self.scale:g})"

    def moment(self, x: float) -> float:
        return self.scale * 0.5 * _beta((x + 1.0) / 2.0, self.alpha + 1.0)

    def what(self, r):
        """``(scale/2) B_y(alpha + 1, 1/2)``, the incomplete beta function at
        ``y = 1 - r^2``, which does not cancel as r -> 1.  With ``a = alpha +
        1`` it is ``y**a |r| / a`` times the continued fraction of
        :func:`_beta_fraction` when ``y <= (a + 1)/(a + 5/2)``, and
        ``B(1/2, a) - 2 |r| y**a`` times the fraction at ``(1/2, a, r^2)``
        otherwise.  Against 40-digit values, for alpha <= 10, it reads
        within 1.6e-15 relative at r in {0, 0.27, 0.9, 0.99} and 1 - r in
        {1e-4, 1e-6, 1e-8}, and within 7.5e-15 on 103 radii from 0 to
        1 - 1e-8 (the most near y = (a + 1)/(a + 5/2), where the fraction
        needs the most terms)."""
        r = np.asarray(r, dtype=float)
        a, y = self.alpha + 1.0, (1.0 - r) * (1.0 + r)
        swap = y > (a + 1.0) / (a + 2.5)
        front = y**a * np.abs(r)
        direct = front * _beta_fraction(a, 0.5, np.where(swap, 0.0, y)) / a
        flipped = _beta(0.5, a) - 2.0 * front * _beta_fraction(0.5, a, np.where(swap, r * r, 0.0))
        return (self.scale * 0.5 * np.where(swap, flipped, direct))[()]

    def wtilde(self, r):
        r = np.asarray(r, dtype=float)
        return (self.scale * ((1.0 - r) * (1.0 + r)) ** (self.alpha + 1.0) / (self.alpha + 1.0))[()]

    def wstar(self, r):
        """By parts, ``wstar(r) = (1/2) int_r^1 wtilde(s)/s ds`` on the rule."""
        if np.any(np.asarray(r) <= 0.0):
            raise ValueError("wstar is logarithmically singular at 0")
        return self._tail("by-parts", lambda s, v: self.wtilde(s) / (2.0 * s), r)

    @cached_property
    def _tilde(self) -> "StandardWeight":
        return StandardWeight(self.alpha + 1.0, self.scale / (self.alpha + 1.0))


# Spec schemas of the weight families (see :func:`disclab.specs.parse_spec`).
WEIGHT_SPECS = {"standard": {"alpha": (float, 0.0)}, "table": str}


def weight_from_spec(spec: str) -> RadialWeight:
    """Parse CLI weight strings: ``standard:alpha=A`` or ``table:<path>``
    (a two-column text file of radius/value samples, linearly interpolated).
    A table needs radii that strictly increase inside [0, 1] and values that
    are finite, nonnegative and not all zero."""
    name, params = parse_spec(spec, WEIGHT_SPECS)
    if name == "standard":
        return RadialWeight.standard(params["alpha"])
    path = params["payload"]
    rs, vs = np.loadtxt(path, usecols=(0, 1), ndmin=2, unpack=True)
    if not (np.all((rs >= 0.0) & (rs <= 1.0)) and np.all(np.diff(rs) > 0.0)):
        raise ValueError(f"table {path}: radii must strictly increase inside [0, 1]")
    if not (np.all(np.isfinite(vs)) and np.all(vs >= 0.0) and np.any(vs > 0.0)):
        raise ValueError(f"table {path}: values must be finite, nonnegative and not all zero")
    return RadialWeight.tabulated(lambda r: np.interp(np.asarray(r, float), rs, vs))


# ---------------------------------------------------------------------------
# regularity fit
# ---------------------------------------------------------------------------

def regularity_constants(w: RadialWeight, radii=None) -> tuple[float, float, float]:
    """Tightest exponents (and constant) of the two-sided power bounds

        C^-1 ((1-r)/(1-t))^alpha what(t) <= what(r)
            <= C ((1-r)/(1-t))^beta what(t),   0 <= r <= t < 1.

    The exponents are the extreme two-point slopes of ``log what`` against
    ``log(1-r)`` over well-separated radius pairs (``1-t <= (1-r)/4``, so
    short-range corrections do not pollute them); ``C`` is then the largest
    multiplicative defect of the bounds with those exponents over all
    pairs.  Raises if the tail integral vanishes at a node.
    """
    if radii is None:
        radii = np.concatenate([np.linspace(0.0, 0.9, 10), 1.0 - np.geomspace(0.1, 1e-4, 12)])
    radii = np.sort(np.asarray(radii, dtype=float))
    tails = w.what(radii)
    if np.any(tails <= 0.0):
        raise ValueError("weight tail integral vanishes on the sample radii")
    i, j = np.triu_indices(radii.size, k=1)
    denom = np.log((1.0 - radii[i]) / (1.0 - radii[j]))
    keep = denom >= 1e-12
    i, j, denom = i[keep], j[keep], denom[keep]
    ratio = np.log(tails[i] / tails[j])
    separated = (1.0 - radii[j]) <= (1.0 - radii[i]) / 4.0
    if not separated.any():
        raise ValueError("need at least one well-separated radius pair")
    slopes = ratio[separated] / denom[separated]
    alpha_est, beta_est = float(slopes.min()), float(slopes.max())
    defect = np.concatenate([[0.0], ratio - beta_est * denom, alpha_est * denom - ratio])
    return alpha_est, beta_est, float(np.exp(defect.max()))


# ---------------------------------------------------------------------------
# reproducing kernels
# ---------------------------------------------------------------------------

def kernel_eval(w: RadialWeight, zeta: complex, u: complex, order: int) -> complex:
    """Truncated reproducing kernel ``sum_{n<=order} (u conj(zeta))^n / (2 w_{2n+1})``."""
    x = complex(u) * np.conj(complex(zeta))
    if abs(x) >= 1.0:
        raise ValueError("kernel evaluation requires |u zeta| < 1")
    inv = 0.5 / w.odd_moments(order)
    return complex(np.polynomial.polynomial.polyval(x, inv))


def kernel_derivative_residual(w: RadialWeight, zeta: complex, u: complex, order: int) -> float:
    """|d/du of the truncated kernel - conj(zeta) * tilde-kernel|.

    Both sides are evaluated from their own moment computations; the
    discrepancy reflects only moment quadrature error (it vanishes exactly
    through the identity ``wtilde_{2n+1} (n+1) = w_{2n+3}``).
    """
    if order < 1:
        raise ValueError("the kernel derivative needs order >= 1")
    x = complex(u) * np.conj(complex(zeta))
    inv = 0.5 / w.odd_moments(order)
    dcoef = inv[1:] * np.arange(1, order + 1)
    lhs = np.conj(complex(zeta)) * np.polynomial.polynomial.polyval(x, dcoef)
    rhs = np.conj(complex(zeta)) * kernel_eval(w.tilde(), zeta, u, order - 1)
    return float(abs(lhs - rhs))


def moment_identity_gap(w: RadialWeight, nmax: int = 64) -> float:
    """max over n <= nmax of the relative defect in
    ``wtilde_{2n+1} (n+1) = w_{2n+3}``."""
    lhs = w.tilde().odd_moments(nmax) * np.arange(1, nmax + 2)
    rhs = w.odd_moments(nmax + 1)[1:]
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# ---------------------------------------------------------------------------
# inner products and Green-type identities
# ---------------------------------------------------------------------------

def _derivative_pairing(f: PowerSeries, g: PowerSeries, grid: QuadratureGrid, radial) -> complex:
    """``int f' conj(g') radial(|u|) dm`` by radial quadrature of the
    angular-exact ring pairing; ``radial`` holds the factor at the grid's radii."""
    df, dg = f.derivative(), g.derivative()
    n = min(df.order, dg.order)
    pair = df.coeffs[: n + 1] * np.conj(dg.coeffs[: n + 1])
    r = grid.radii
    ring = (r[:, None] ** (2 * np.arange(n + 1))[None, :]) @ pair
    return np.sum(grid.ring_weights * radial * ring)


def bergman_inner(f: PowerSeries, g: PowerSeries, w: RadialWeight) -> complex:
    """``<f, g>_{A^2_w} = 2 sum f_k conj(g_k) w_{2k+1}`` (angular
    orthogonality makes the reduction exact; the moments carry the grid
    dependence for tabulated weights)."""
    n = min(f.order, g.order)
    mom = w.odd_moments(n)
    return complex(2.0 * np.sum(f.coeffs[: n + 1] * np.conj(g.coeffs[: n + 1]) * mom))


def green_identity_residual(
    f: PowerSeries, g: PowerSeries, w: RadialWeight, grid: QuadratureGrid
) -> float:
    """Residual of ``<f,g>_{A^2_w} = 4 <f',g'>_{A^2_wstar} + f(0) conj(g(0))``
    with the left side from exact moments and the right side by radial
    quadrature of the angular-exact pairing against ``wstar``; tends to 0
    under radial refinement for any normalized radial weight."""
    if not w.normalized:
        raise ValueError("the Green-type identity requires a normalized weight")
    lhs = bergman_inner(f, g, w)
    rhs = _derivative_pairing(f, g, grid, w.wstar(grid.radii))
    return float(abs(lhs - 4.0 * rhs - f.coeffs[0] * np.conj(g.coeffs[0])))


def green_boundary_residual(f: PowerSeries, g: PowerSeries, grid: QuadratureGrid) -> float:
    """Residual of the boundary pairing identity
    ``(1/2pi) int f conj(g) dt = 2 int f' conj(g') log(1/|u|) dm + f(0) conj(g(0))``
    (the H^2 pairing is the exact coefficient sum)."""
    n = min(f.order, g.order)
    lhs = np.sum(f.coeffs[: n + 1] * np.conj(g.coeffs[: n + 1]))
    rhs = _derivative_pairing(f, g, grid, np.log(1.0 / grid.radii))
    return float(abs(lhs - 2.0 * rhs - f.coeffs[0] * np.conj(g.coeffs[0])))


# ---------------------------------------------------------------------------
# pointwise growth bound
# ---------------------------------------------------------------------------

def pointwise_growth_margin(
    f: PowerSeries,
    w: RadialWeight,
    p: float,
    grid: QuadratureGrid,
    C: float = 4.0,
) -> float:
    """Sanity margin ``min [ C ||f||_{A^p_w} / (what(z)(1-|z|))^{1/p} - |f(z)| ]``
    over the outer annulus ``1/2 <= |z| <= r_max``; nonnegative margins mean
    the calibrated pointwise growth bound holds on the grid."""
    if p == 2:
        norm = float(np.sqrt(np.real(bergman_inner(f, f, w))))
    else:
        dens = sample_moduli(f, grid.radii, grid.angular) ** p * w(grid.radii)[:, None]
        norm = grid.integrate(dens) ** (1.0 / p)
    radii = grid.sup_radii[grid.sup_radii >= 0.5]
    rings = np.max(sample_moduli(f, radii, grid.angular), axis=1)
    bound = C * norm / (w.what(radii) * (1.0 - radii)) ** (1.0 / p)
    return float(np.min(bound - rings, initial=np.inf))


# ---------------------------------------------------------------------------
# kernel-based Bloch quantity and the solution bound
# ---------------------------------------------------------------------------

def bloch_kernel_quantity(
    A: PowerSeries,
    w: RadialWeight,
    grid: QuadratureGrid,
    kernel_order: int | None = None,
    z_radii: int = 16,
    z_angles: int = 16,
    _radial_weight=None,
) -> NormEstimate:
    """Grid estimate of the kernel Bloch quantity ``X(A)``; its r-slice
    (``A(r zeta)`` in the path integral) is ``X(dilate(A, r))``.

    The path integral collapses to the separable form
    ``sum_n n/(2 w_{2n+1}) conj(u)^{n-1} P_n(z)`` with
    ``P_n(z) = int_0^z zeta^n A(zeta) dzeta``, so the u-integral is an
    angular mean of polynomial magnitudes per u-radius.  The primitives
    ``P_n``, ``n = 1..kernel_order``, are sampled as one stack on the
    z-rings (0.3, 0.6 and ``max(z_radii - 2, 4)`` radii refined
    geometrically toward ``grid.r_max``, each with ``z_angles`` equal
    angles); the u-polynomial of every z node is then sampled on the rings
    of a polar rule with 96 angles, each ring block of
    :func:`~disclab.series.modulus_shares` reduced to the angular means of
    its modulus on its own rings, and the means are weighted over the
    u-rings in one product.

    ``value`` is the maximum of ``(1-|z|^2)`` times the u-integral over the
    z nodes, ``value_coarse`` the maximum over every other z node, and the
    flag is ``value > 2 x`` the maximum over ``|z| <= 0.9``: a capped
    z-probe, not the dilation protocol.  ``_radial_weight`` replaces the
    default radial factor ``wstar(u)/(1-|u|^2)`` (used by consistency
    tests, e.g. with ``wtilde``).
    """
    nk = kernel_order if kernel_order is not None else min(max(A.order, 16), 128)
    mom = w.odd_moments(nk)

    # z sweep set: geometrically boundary-refined radii x equal angles
    zr = np.sort(np.unique(np.concatenate(
        [[0.3, 0.6], 1.0 - np.geomspace(0.5, 1.0 - grid.r_max, max(z_radii - 2, 4))]
    )))
    n = np.arange(1, nk + 1)[:, None]
    m = np.arange(A.order + 1)
    prims = np.zeros((nk, A.order + nk + 2), dtype=complex)
    prims[n - 1, m + n + 1] = A.coeffs / (m + n + 1)  # P_n, n = 1..nk
    P = sample_rings(prims, zr, z_angles).reshape(nk, -1)
    Q = P * (n / (2.0 * mom[1:, None]))  # row n-1: coefficient of v^{n-1} per z

    u = QuadratureGrid(
        r_max=grid.r_max, nodes_per_panel=4, angular=96, inner_depth=12, outer_depth=18,
        a_radii=(0.0,), a_angles=1,
    )
    if _radial_weight is None:
        radial = w.wstar(u.radii) / (1.0 - u.radii**2)
    else:
        radial = np.asarray(_radial_weight(u.radii), dtype=float)
    ring_weights = u.ring_weights * radial

    means = np.empty((u.radii.size, Q.shape[1]))  # per u-ring and z node

    def reduce(block, vals):
        means[block] = vals.mean(axis=-1).T

    modulus_shares(Q.T, u.radii, u.angular, reduce)
    radius = np.repeat(zr, z_angles)
    est = (1.0 - radius**2) * (ring_weights @ means)
    value = float(np.max(est))

    # geometric tail extrapolation from the last terms
    term_means = ring_weights @ u.radii[:, None] ** np.arange(nk)[-8:]
    tail_terms = np.abs(Q[-8:]).max(axis=1) * term_means
    if np.all(tail_terms[:-1] > 0):
        q = float(np.clip(np.median(tail_terms[1:] / tail_terms[:-1]), 0.0, 0.999))
        tail = float(tail_terms[-1] * q / (1.0 - q))
        if value > 0 and tail > 0.01 * value:
            warnings.warn(
                "bloch_kernel_quantity: kernel truncation tail above 1% of the value",
                AccuracyWarning,
                stacklevel=2,
            )

    coarse = float(np.max(est[::2]))
    inner = float(np.max(est[radius <= 0.9]))
    flag = bool(value > 2.0 * inner + 1e-300)
    return NormEstimate(value, coarse, flag)


@dataclass(frozen=True)
class BlochBoundReport:
    x_quantity: float
    predicted_bound: float
    actual_bloch_norm: float


def bloch_solution_bound(
    A: PowerSeries,
    w: RadialWeight,
    grid: QuadratureGrid,
    initial_values: tuple[complex, complex] = (1.0, 0.0),
    order: int | None = None,
) -> BlochBoundReport:
    """Check the Bloch solution bound against an actually solved series.

    Requires the kernel quantity below 1/4; otherwise raises
    :class:`BoundNotApplicableError`.
    """
    x = bloch_kernel_quantity(A, w, grid).value
    if x >= 0.25:
        raise BoundNotApplicableError(
            f"kernel quantity {x:.4f} is not below 1/4; bound not applicable"
        )
    prim_norm = growth_norm(A.antiderivative(0.0), 1.0, grid).value
    f0, f1 = (complex(v) for v in initial_values)
    predicted = (abs(f0) * prim_norm + abs(f1)) / (1.0 - 4.0 * x)
    N = A.order if order is None else order
    problem = ODEProblem(2, (A.truncate(N) if A.order > N else A.pad(N), zero_series(N)), (f0, f1), N)
    f = solve_series(problem)
    actual = bloch_norm(f, grid).value
    return BlochBoundReport(x, predicted, actual)
