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

import numpy as np
from numpy.polynomial.legendre import leggauss

from .series import PowerSeries, sample_circle

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

        PowerSeries inputs are evaluated circle-by-circle with the FFT;
        callables are evaluated on the complex nodes directly.
        """
        r = self.radii if radii is None else np.asarray(radii)
        if isinstance(f, PowerSeries):
            return np.vstack([sample_circle(f, ri, self.angular) for ri in r])
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

    def moebius_factor(self, a: complex, radii: np.ndarray | None = None) -> np.ndarray:
        """``1 - |phi_a(z)|^2`` on the node matrix, via the stable closed form
        ``(1-|a|^2)(1-|z|^2)/|1 - conj(a) z|^2``."""
        z = self.nodes(radii)
        return (1 - abs(a) ** 2) * (1 - np.abs(z) ** 2) / np.abs(1 - np.conj(a) * z) ** 2

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

            mean_k base[i, k] K_f[i, (k - m) mod M]

        is two row-wise dot products over the column slices ``[m:]`` /
        ``[:M-m]`` and ``[:m]`` / ``[M-m:]`` of ``base`` / ``K_f``.  There
        are ``P / gcd(M, P)`` offsets, one when ``P`` divides ``M``.
        """
        base = field * (1.0 - self.radii**2)[:, None]
        radii = self._centre_radii(a_radii)
        M, P = self.angular, self.a_angles
        head = 1 if 0.0 in radii else 0
        ring_radii = [s for s in radii if s > 0.0]
        out = np.empty((head + P * len(ring_radii), self.radii.size), dtype=base.dtype)
        if head:
            out[0] = base.mean(axis=1)
        shifts: dict[int, list[tuple[int, int]]] = {}
        for j in range(P):
            m, f = divmod(j * M, P)
            shifts.setdefault(f, []).append((j, m))
        kernel = np.empty(base.shape)
        k = np.arange(M)
        for b, s in enumerate(ring_radii):
            sr = s * self.radii
            gap = ((1.0 - sr) ** 2)[:, None]
            for f, phases in shifts.items():
                sin2 = np.sin(np.pi * (k * P - f) / (M * P)) ** 2
                np.multiply((4.0 * sr)[:, None], sin2[None, :], out=kernel)
                kernel += gap
                np.divide(1.0 - s * s, kernel, out=kernel)
                for j, m in phases:
                    row = np.einsum("ij,ij->i", base[:, m:], kernel[:, : M - m])
                    row += np.einsum("ij,ij->i", base[:, :m], kernel[:, M - m :])
                    out[head + b * P + j] = row / M
        return out

    def square_ring_means(self, field: np.ndarray) -> np.ndarray:
        """Per-centre angular means of ``field`` over the Carleson squares
        ``S_a``: a matrix of shape (centres, radii), rows in the order of
        ``a_grid``.

        Angular cells are intervals of width 2 pi / M around each node; a
        node's weight is the fraction of its cell inside the wedge
        ``|theta - arg a| <= (1 - |a|)/2``, so thin near-boundary squares
        are integrated with first-order accuracy instead of being missed
        entirely.  Radially, nodes with r <= |a| are dropped.  The centre 0
        is the whole disc.  All centres take one product of ``field`` with
        the (angles x centres) matrix of overlap columns.
        """
        a = self.a_grid
        out = np.empty((a.size, self.radii.size), dtype=field.dtype)
        ring = a != 0
        out[~ring] = field.mean(axis=1)
        a = a[ring]
        cell = 2.0 * np.pi / self.angular
        d = np.abs((self.thetas[:, None] - np.angle(a)[None, :] + np.pi) % (2 * np.pi) - np.pi)
        overlap = np.clip(((1.0 - np.abs(a)) / 2.0 + cell / 2.0 - d) / cell, 0.0, 1.0)
        rings = field @ overlap
        rings[self.radii[:, None] <= np.abs(a)[None, :]] = 0.0
        out[ring] = rings.T / self.angular
        return out

    def sample_folded(self, f, power: float = 1.0) -> np.ndarray:
        """Node matrix of ``|f|**power`` with high-order angular content
        folded in.

        A truncated series of order N has angular features down to scale
        1/N; when N exceeds the angular rule, ``|f|**power`` is sampled on
        an upsampled circle (factor up to 16) and averaged over the angular
        cell around each node.  The cell mass is exact, so boundary peaks of
        high-order singular coefficients are neither missed nor
        double-counted by coarser sweeps.
        """
        if not isinstance(f, PowerSeries):
            return np.abs(self.sample(f)) ** power
        up = int(np.ceil((2 * f.order + 2) / self.angular))
        up = min(max(up, 1), 16)
        if up == 1:
            return np.abs(self.sample(f)) ** power
        M = up * self.angular
        out = np.empty((self.radii.size, self.angular))
        for i, r in enumerate(self.radii):
            vals = np.abs(sample_circle(f, float(r), M)) ** power
            vals = np.roll(vals, up // 2)  # centre cells on the nodes
            out[i] = vals.reshape(self.angular, up).mean(axis=1)
        return out


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

    ``run(g, r)`` must return the raw estimate on grid ``g`` for the input
    dilated by ``r`` (``r = 1`` is the value itself).  The divergence flag
    reads the dilations ``PROBE_LOW``, ``PROBE_MID`` and ``PROBE_HIGH``
    (0.9, 0.99, 0.999) of the input: a quantity is reported divergent when
    it more than doubles from 0.9 to 0.999 (``PROBE_FACTOR``) AND its last
    decade increment (0.99 -> 0.999) is more than ``PROBE_INCREMENT_RATIO``
    (0.7) times the one before (0.9 -> 0.99), i.e. it keeps growing at a
    sustained rate rather than saturating late.
    Returns ``(value, value_coarse, divergence_flag)``.
    """
    value = run(grid, 1.0)
    coarse = run(grid.coarsened(), 1.0)
    lo = run(grid, PROBE_LOW)
    mid = run(grid, PROBE_MID)
    hi = run(grid, PROBE_HIGH)
    doubled = hi > PROBE_FACTOR * lo + 1e-300
    sustained = (hi - mid) > PROBE_INCREMENT_RATIO * (mid - lo) - 1e-300
    return value, coarse, bool(doubled and sustained)
