"""Polar quadrature grids for the unit disc.

All disc integrals use the normalized area measure ``m`` with ``m(D) = 1``,
i.e. ``integral g dm = int_0^1 mean_theta(g)(r) 2 r dr``.  The radial rule is
composite Gauss-Legendre over dyadic panels refined toward both endpoints:
toward 1 because the integrands of interest concentrate at the boundary,
toward 0 because the logarithmic kernels ``log(1/r)`` appearing in
Littlewood-Paley-type identities are singular at the origin.  Each panel is
polynomially exact, so smooth densities integrate to near machine precision
while boundary-divergent ones grow with the refinement depth, which is what
the divergence diagnostics probe.

Angular integration is the trapezoid rule on equispaced nodes, exact for
trigonometric polynomials below the node count; series are evaluated on
whole circles by FFT.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.polynomial.legendre import leggauss

from .series import PowerSeries, ring_blocks, sample_rings

__all__ = ["QuadratureGrid", "area_integral", "dilation_estimate"]

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

# Rings per block of QuadratureGrid.moebius_ring_means: small enough for a
# block to stay in cache (64 to 256 time alike on the default grid).
_SWEEP_RINGS = 64


def _panels(inner_depth: int, outer_depth: int) -> list[tuple[float, float]]:
    out = []
    for m in range(inner_depth, 0, -1):
        out.append((2.0 ** -(m + 1), 2.0 ** -m))
    for j in range(1, outer_depth):
        out.append((1.0 - 2.0 ** -j, 1.0 - 2.0 ** -(j + 1)))
    return out


class QuadratureGrid:
    """Polar grid: radial Gauss panels, equispaced angles, Moebius centres.

    Parameters
    ----------
    r_max:
        Nominal outer radius for sup-type searches and Hardy-mean profiles.
        Integration nodes go deeper (to ``1 - 2**-outer_depth``) so that
        full-disc integrals of smooth densities are essentially exact.
    nodes_per_panel, inner_depth, outer_depth:
        Radial resolution knobs.
    angular:
        Number of equispaced angles (trapezoid rule / FFT length).
    a_radii, a_angles:
        Moebius centres for sup-over-a quantities: the given radii crossed
        with equispaced angles (radius 0 contributes the single centre 0).
        The boundary-clustered default reflects where such suprema peak.
    """

    DEFAULT_A_RADII = (0.0, 0.5, 0.9, 0.99, 0.995, 0.997, 0.998, 0.999)

    def __init__(
        self,
        r_max: float = 0.999,
        nodes_per_panel: int = 8,
        angular: int = 544,
        inner_depth: int = 26,
        outer_depth: int = 44,
        a_radii: tuple[float, ...] = DEFAULT_A_RADII,
        a_angles: int = 16,
    ):
        if not (0.0 < r_max < 1.0):
            raise ValueError("r_max must lie strictly inside (0, 1)")
        if nodes_per_panel < 2 or angular < 8:
            raise ValueError("grid resolution too small")
        self.r_max = float(r_max)
        self.nodes_per_panel = int(nodes_per_panel)
        self.angular = int(angular)
        self.inner_depth = int(inner_depth)
        self.outer_depth = int(outer_depth)
        self.a_radii = tuple(float(r) for r in a_radii)
        self.a_angles = int(a_angles)

        x, w = leggauss(self.nodes_per_panel)
        radii, weights = [], []
        for lo, hi in _panels(self.inner_depth, self.outer_depth):
            radii.append((hi - lo) / 2 * x + (hi + lo) / 2)
            weights.append((hi - lo) / 2 * w)
        self.radii = np.concatenate(radii)
        self.weights = np.concatenate(weights)
        self.thetas = 2 * np.pi * np.arange(self.angular) / self.angular

        sup = [r for r in self.radii if r <= self.r_max]
        sup.append(self.r_max)
        self.sup_radii = np.array(sorted(set(sup)))

        self.a_grid = self.centres()

    # -- derived grids ------------------------------------------------------

    def _sibling(self, key: str, nodes_per_panel: int, angular: int) -> "QuadratureGrid":
        cache = self.__dict__.setdefault("_siblings", {})
        if key not in cache:
            cache[key] = QuadratureGrid(
                r_max=self.r_max,
                nodes_per_panel=nodes_per_panel,
                angular=angular,
                inner_depth=self.inner_depth,
                outer_depth=self.outer_depth,
                a_radii=self.a_radii,
                a_angles=self.a_angles,
            )
        return cache[key]

    def coarsened(self) -> "QuadratureGrid":
        """Half-resolution companion used for value_coarse reporting."""
        return self._sibling(
            "coarse", max(2, self.nodes_per_panel // 2), max(32, self.angular // 2)
        )

    def refined(self) -> "QuadratureGrid":
        """Double-resolution companion (used by --grid-refine)."""
        return self._sibling("fine", 2 * self.nodes_per_panel, 2 * self.angular)

    def __hash__(self):
        return hash(self.fingerprint())

    def __eq__(self, other):
        return isinstance(other, QuadratureGrid) and self.fingerprint() == other.fingerprint()

    def fingerprint(self) -> str:
        key = (
            f"rmax={self.r_max!r};k={self.nodes_per_panel};M={self.angular};"
            f"in={self.inner_depth};out={self.outer_depth};"
            f"ar={self.a_radii!r};aa={self.a_angles}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    # -- sampling -----------------------------------------------------------

    def nodes(self, radii: np.ndarray | None = None) -> np.ndarray:
        """Complex node matrix (radii x angles); the full matrix is cached."""
        if radii is None:
            if not hasattr(self, "_nodes"):
                self._nodes = self.radii[:, None] * np.exp(1j * self.thetas)[None, :]
                self._nodes.setflags(write=False)
            return self._nodes
        r = np.asarray(radii)
        return r[:, None] * np.exp(1j * self.thetas)[None, :]

    def sample(self, f, radii: np.ndarray | None = None) -> np.ndarray:
        """Values of ``f`` on the node matrix.

        PowerSeries inputs are evaluated on all circles by
        :func:`~disclab.series.sample_rings`; callables are evaluated on the
        complex nodes directly.
        """
        r = self.radii if radii is None else np.asarray(radii)
        if isinstance(f, PowerSeries):
            return sample_rings(f, r, self.angular)
        return f(self.nodes(r))

    def radial_mask(self, rcap: float | None) -> np.ndarray:
        if rcap is None:
            return np.ones_like(self.radii, dtype=bool)
        return self.radii <= rcap

    # -- integration --------------------------------------------------------

    def integrate_rings(self, ring_means: np.ndarray, rcap: float | None = None) -> float:
        """``int mean(r) 2 r dr`` over the (possibly capped) radial rule."""
        m = self.radial_mask(rcap)
        return float(np.real(np.sum(self.weights[m] * 2 * self.radii[m] * ring_means[m])))

    def integrate(self, values: np.ndarray, rcap: float | None = None) -> float:
        """Normalized-area integral of node values (radii x angles)."""
        return self.integrate_rings(values.mean(axis=1), rcap)

    # -- centre sweeps -----------------------------------------------------

    def _centre_radii(self, a_radii) -> tuple[float, ...]:
        return self.a_radii if a_radii is None else tuple(float(s) for s in a_radii)

    def centres(self, a_radii=None) -> np.ndarray:
        """Moebius centres: ``a_radii`` (default the grid's) crossed with
        ``a_angles`` equispaced phases.  Radius 0 contributes the single
        centre 0, placed first; negative radii contribute nothing."""
        radii = self._centre_radii(a_radii)
        centres = [0j] if 0.0 in radii else []
        phases = np.exp(2j * np.pi * np.arange(self.a_angles) / self.a_angles)
        for ra in radii:
            if ra > 0.0:
                centres.extend(ra * phases)
        return np.array(centres)

    def moebius_ring_means(self, field: np.ndarray, a_radii=None) -> np.ndarray:
        """Per-centre angular means of ``field * (1 - |phi_a|^2)``: a matrix
        of shape (centres, radii), rows in the order of :meth:`centres`.
        A stack of fields ``(k, radii, angles)`` gives ``(k, centres, radii)``.

        With ``z = rho e^{i theta}`` and ``a = s e^{i psi}``,

            1 - |phi_a(z)|^2 = (1 - rho^2) (1 - s^2) / |1 - conj(a) z|^2,
            |1 - conj(a) z|^2 = (1 - s rho)^2 + 4 s rho sin^2((theta - psi)/2),

        (the product form, unlike ``1 - 2 s rho cos + (s rho)^2``, does not
        cancel as ``s rho -> 1``).  The weight depends on ``theta`` only
        through ``theta - psi``.  A centre phase ``2 pi j / P`` equals
        ``2 pi (m + f) / M`` with integer shift ``m`` and offset
        ``f = (j M mod P) / P``, so one real kernel
        ``K_f[i, k] = (1 - s^2) / |1 - s rho_i e^{2 pi i (k - f)/M}|^2`` per
        (centre radius, offset) serves every phase with that offset:

            mean_k base[i, k] K_f[i, (k - m) mod M],   base = field (1 - rho^2).

        There are ``P / gcd(M, P)`` offsets, and the ``gcd(M, P)`` phases of
        one offset have shifts spaced ``M / gcd(M, P)`` apart: ``K_f``
        wrapped to ``2M`` columns holds them all in one strided view, and
        one ``einsum`` contracts every phase of the offset with every
        field.  Rings go in blocks of ``_SWEEP_RINGS``.
        """
        stacked = field.ndim == 3
        fields = field if stacked else field[None]
        radii = self._centre_radii(a_radii)
        M, P = self.angular, self.a_angles
        head = 1 if 0.0 in radii else 0
        ring_radii = [s for s in radii if s > 0.0]
        shape = (fields.shape[0], head + P * len(ring_radii), self.radii.size)
        out = np.empty(shape, dtype=np.result_type(fields, 1.0))
        g = math.gcd(M, P)
        step, stride, k = M // g, P // g, np.arange(M)
        for lo in range(0, self.radii.size, _SWEEP_RINGS):
            block = slice(lo, lo + _SWEEP_RINGS)
            rho = self.radii[block]
            base = fields[:, block] * (1.0 - rho**2)[:, None]
            if head:
                out[:, 0, block] = base.mean(axis=-1)
            wrapped = np.empty((rho.size, 2 * M))
            kernel = wrapped[:, :M]
            for b, s in enumerate(ring_radii):
                sr = s * rho
                for j in range(stride):  # phases j, j + stride, ... share one offset
                    m, f = divmod(j * M, P)
                    sin2 = np.sin(np.pi * (k * P - f) / (M * P)) ** 2
                    np.multiply((4.0 * sr)[:, None], sin2[None, :], out=kernel)
                    kernel += ((1.0 - sr) ** 2)[:, None]
                    np.divide(1.0 - s * s, kernel, out=kernel)
                    wrapped[:, M:] = kernel
                    # shifted[i, u] = K_f[i, (. - m_u) mod M], m_u = m + (g - 1 - u) M / g
                    strides = (wrapped.strides[0], step * wrapped.strides[1], wrapped.strides[1])
                    shifted = as_strided(wrapped[:, step - m :], (rho.size, g, M), strides, writeable=False)
                    rows = head + b * P + j + stride * np.arange(g - 1, -1, -1)
                    out[:, rows, block] = np.einsum("xik,iuk->xui", base, shifted) / M
        return out if stacked else out[0]

    def square_ring_means(self, field: np.ndarray) -> np.ndarray:
        """Per-centre angular means of ``field`` over the Carleson squares
        ``S_a``: a matrix of shape (centres, radii), rows in the order of
        ``a_grid``; a stack of fields ``(k, radii, angles)`` gives
        ``(k, centres, radii)``.

        Angular cells are intervals of width 2 pi / M around each node; a
        node's weight is the fraction of its cell inside the wedge
        ``|theta - arg a| <= (1 - |a|)/2``, so thin near-boundary squares
        are integrated with first-order accuracy instead of being missed
        entirely.  Radially, nodes with r <= |a| are dropped.  The centre 0
        is the whole disc.  All centres and fields take one product of
        ``field`` with the (angles x centres) matrix of overlap columns.
        """
        a = self.a_grid
        out = np.empty((*field.shape[:-2], a.size, self.radii.size), dtype=field.dtype)
        ring = a != 0
        out[..., ~ring, :] = field.mean(axis=-1)[..., None, :]
        a = a[ring]
        cell = 2.0 * np.pi / self.angular
        d = np.abs((self.thetas[:, None] - np.angle(a)[None, :] + np.pi) % (2 * np.pi) - np.pi)
        overlap = np.clip(((1.0 - np.abs(a)) / 2.0 + cell / 2.0 - d) / cell, 0.0, 1.0)
        rings = field @ overlap
        rings[..., self.radii[:, None] <= np.abs(a)[None, :]] = 0.0
        out[..., ring, :] = np.swapaxes(rings, -1, -2) / self.angular
        return out

    def sample_folded(self, f, power: float = 1.0) -> np.ndarray:
        """Node matrix of ``|f|**power`` for a series ``f`` with high-order
        angular content folded in; a stack of ``k`` series of one order
        gives shape ``(k, radii, angles)``.

        A truncated series of order N has angular features down to scale
        1/N; when N exceeds the angular rule, ``|f|**power`` is sampled on
        an upsampled circle (factor up to 16) and averaged over the angular
        cell around each node.  The cell mass is exact, so boundary peaks of
        high-order singular coefficients are neither missed nor
        double-counted by coarser sweeps.  Each block of upsampled rings
        (:func:`~disclab.series.ring_blocks`, the whole stack counted) is
        reduced to the node cells before the next is sampled, so the
        radii x upsampled-angles matrix is never built.
        """
        fs = [f] if isinstance(f, PowerSeries) else list(f)
        up = int(np.ceil((2 * fs[0].order + 2) / self.angular))
        up = min(max(up, 1), 16)
        M = up * self.angular
        out = np.empty((len(fs), self.radii.size, self.angular))
        for block in ring_blocks(self.radii.size, fs[0].order, M, len(fs)):
            vals = np.abs(sample_rings(fs, self.radii[block], M)) ** power
            vals = np.roll(vals, up // 2, axis=-1)  # centre cells on the nodes
            out[:, block] = vals.reshape(len(fs), -1, self.angular, up).mean(axis=-1)
        return out[0] if isinstance(f, PowerSeries) else out


def area_integral(density, grid: QuadratureGrid, rcap: float | None = None) -> float:
    """Integral of a density against normalized area measure.

    ``density`` may be a callable of complex nodes, a PowerSeries (its
    values are integrated), or a precomputed node-value matrix.
    """
    values = density if isinstance(density, np.ndarray) else grid.sample(density)
    return grid.integrate(np.real(values), rcap)


def dilation_estimate(run, grid: QuadratureGrid):
    """Full/coarse/divergence protocol shared by the norm and condition
    estimators.

    ``run(g, dilations)`` must return the raw estimate on grid ``g`` for
    the input dilated by each ``r`` in ``dilations``, in order (``r = 1``
    is the value itself).  It is called twice, with ``(1, PROBE_LOW,
    PROBE_MID, PROBE_HIGH)`` on ``grid`` and ``(1,)`` on its coarsened
    sibling, so the four base-grid dilations are sampled and swept together.
    The divergence flag reads the dilations 0.9, 0.99 and 0.999 of the
    input: a quantity is reported divergent when it more than doubles from
    0.9 to 0.999 (``PROBE_FACTOR``) AND its last decade increment (0.99 ->
    0.999) is more than ``PROBE_INCREMENT_RATIO`` (0.7) times the one
    before (0.9 -> 0.99), i.e. it keeps growing at a sustained rate rather
    than saturating late.
    Returns ``(value, value_coarse, divergence_flag)``.
    """
    value, lo, mid, hi = map(float, run(grid, (1.0, PROBE_LOW, PROBE_MID, PROBE_HIGH)))
    (coarse,) = map(float, run(grid.coarsened(), (1.0,)))
    doubled = hi > PROBE_FACTOR * lo + 1e-300
    sustained = (hi - mid) > PROBE_INCREMENT_RATIO * (mid - lo) - 1e-300
    return value, coarse, bool(doubled and sustained)
