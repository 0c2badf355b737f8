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
whole circles by FFT.  This module holds quadrature, sampling and centre
sweeps; how an estimate is probed and reported lives in :mod:`disclab.norms`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .series import PowerSeries, modulus_shares, ring_shares, sample_rings

__all__ = ["QuadratureGrid", "panel_rule"]

# Most nodes (radii x angles) of a grid; the refined default has about 1.2e6.
MAX_GRID_NODES = 2**24

# Rings per block of QuadratureGrid.moebius_ring_means: small enough for a
# block to stay in cache (64 to 256 time alike on the default grid).
_SWEEP_RINGS = 64


def panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ``n`` nodes on each panel between
    consecutive ``edges``: nodes and weights, shape (panels, n)."""
    x, w = leggauss(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2
    return half * x + (lo + hi) / 2, half * w


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
        if nodes_per_panel < 2 or angular < 8 or inner_depth < 0 or outer_depth < 1 or inner_depth + outer_depth < 2:
            raise ValueError("grid resolution too small")
        if nodes_per_panel * (inner_depth + outer_depth - 1) * angular > MAX_GRID_NODES:
            raise ValueError("grid resolution too large: more than 2**24 nodes")
        self.r_max = float(r_max)
        self.nodes_per_panel = int(nodes_per_panel)
        self.angular = int(angular)
        self.inner_depth = int(inner_depth)
        self.outer_depth = int(outer_depth)
        self.a_radii = tuple(float(r) for r in a_radii)
        self.a_angles = int(a_angles)

        # dyadic panels [2**-(m + 1), 2**-m] up to 1/2, then [1 - 2**-j, 1 - 2**-(j + 1)]
        inner = np.ldexp(1.0, -np.arange(self.inner_depth + 1, 0, -1))
        outer = 1.0 - np.ldexp(1.0, -np.arange(2, self.outer_depth + 1))
        radii, weights = panel_rule(np.concatenate([inner, outer]), self.nodes_per_panel)
        self.radii, self.weights = radii.ravel(), weights.ravel()
        # the area weight of each ring: int g dm = ring_weights @ (ring means of g)
        self.ring_weights = self.weights * 2.0 * self.radii
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

    def fingerprint(self) -> str:
        import hashlib  # loads OpenSSL: a few ms that a grid alone does not need

        key = (
            f"rmax={self.r_max!r};k={self.nodes_per_panel};M={self.angular};"
            f"in={self.inner_depth};out={self.outer_depth};"
            f"ar={self.a_radii!r};aa={self.a_angles}"
        )
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    # -- sampling -----------------------------------------------------------

    def nodes(self) -> np.ndarray:
        """Complex node matrix (radii x angles), built once and cached."""
        if not hasattr(self, "_nodes"):
            self._nodes = self.radii[:, None] * np.exp(1j * self.thetas)[None, :]
            self._nodes.setflags(write=False)
        return self._nodes

    def sample(self, f: PowerSeries) -> np.ndarray:
        """Values of the series ``f`` on the node matrix, every circle by
        :func:`~disclab.series.sample_rings`."""
        return sample_rings(f, self.radii, self.angular)

    # -- integration --------------------------------------------------------

    def integrate_rings(self, ring_means: np.ndarray) -> float:
        """``int mean(r) 2 r dr`` over the radial rule."""
        return float(np.real(np.sum(self.ring_weights * ring_means)))

    def integrate(self, values: np.ndarray) -> float:
        """Normalized-area integral of node values (radii x angles)."""
        return self.integrate_rings(values.mean(axis=1))

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

        There are ``stride = P / g`` offsets, ``g = gcd(M, P)``, and the
        ``g`` phases ``j + stride u`` of offset ``j`` have shifts
        ``m_j + u step``, ``step = M / g``.  Splitting ``k = q step + t``
        turns each into a length-``g`` circular correlation: with
        ``R_j[p, t] = K_f[(p step + t - m_j) mod M]`` (the kernel rolled by
        ``m_j``), phase ``u`` reads ``sum_q sum_t base[q, t] R_j[(q - u) mod
        g, t]``.  Per ring block and centre radius, the kernel of every
        offset is built in one broadcast into a buffer of shape (rings,
        stride g, step), and one batched product ``base @ kernel^T`` of
        shape (rings, fields g, stride g) holds every ``sum_t``; a gather
        of the entries ``(q, (q - u) mod g)`` and a product with ones sum
        over ``q``.  Rings go in blocks of ``_SWEEP_RINGS``, run side by side
        on the CPUs the process may use (:func:`~disclab.series.ring_shares`);
        every share takes blocks of ``_SWEEP_RINGS`` rings whatever their
        number, with its own buffers for every one of these arrays,
        allocated before the blocks start.  Each share writes its rings'
        columns of the output, which does not depend on the number of
        shares.
        """
        stacked = field.ndim == 3
        fields = field if stacked else field[None]
        radii = self._centre_radii(a_radii)
        M, P = self.angular, self.a_angles
        head = 1 if 0.0 in radii else 0
        ring_radii = [s for s in radii if s > 0.0]
        x = fields.shape[0]
        out = np.empty((x, head + P * len(ring_radii), self.radii.size), dtype=np.result_type(fields, 1.0))
        g = math.gcd(M, P)
        step, stride, k = M // g, P // g, np.arange(M)
        # the sin^2 row of each offset rolled by its shift m, split as (p, t)
        offsets = [divmod(j * M, P) for j in range(stride)]
        sin2 = np.stack([np.roll(np.sin(np.pi * (k * P - f) / (M * P)) ** 2, m) for m, f in offsets])
        sin2 = sin2.reshape(stride * g, step)
        # entry (q, j, (q - u) mod g) of a field's product, at [u, j, q]: phase row u stride + j
        q = np.arange(g)
        gather = q * P + np.arange(stride)[:, None] * g + (q - np.arange(g)[:, None, None]) % g
        gather = gather.reshape(P, g)
        ones = np.ones(g)

        def allocate(rows):
            # the ring fields, the kernel, every sum over t, its gathered
            # entries and the per-phase means of one block
            return (
                np.empty((rows, x, M), dtype=out.dtype),
                np.empty((rows, stride * g, step)),
                np.empty((rows, x * g, P), dtype=out.dtype),
                np.empty((rows * x, P, g), dtype=out.dtype),
                np.empty((rows * x, P), dtype=out.dtype),
            )

        def sweep(block, buffers):
            rho = self.radii[block]
            n = rho.size
            base, kernel, sums = (buf[:n] for buf in buffers[:3])
            gathered, means = (buf[: n * x] for buf in buffers[3:])
            np.multiply(fields[:, block].transpose(1, 0, 2), (1.0 - rho**2)[:, None, None], out=base)
            if head:
                out[:, 0, block] = base.mean(axis=-1).T
            for b, s in enumerate(ring_radii):
                sr = (s * rho)[:, None, None]
                np.multiply(4.0 * sr, sin2, out=kernel)
                kernel += (1.0 - sr) ** 2
                np.divide((1.0 - s * s) / M, kernel, out=kernel)
                np.matmul(base.reshape(n, x * g, step), kernel.transpose(0, 2, 1), out=sums)
                # the sum over q as a product with ones, faster than .sum over the short last axis
                np.take(sums.reshape(-1, g * P), gather, axis=1, out=gathered, mode="clip")
                np.matmul(gathered, ones, out=means)
                out[:, head + b * P : head + (b + 1) * P, block] = means.reshape(n, x, P).transpose(1, 2, 0)

        ring_shares(self.radii.size, lambda shares: _SWEEP_RINGS, allocate, sweep)
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
        angular content folded in; a sequence of ``k`` series of one order
        gives shape ``(k, radii, angles)``.

        A truncated series of order N has angular features down to scale
        1/N; when N exceeds the angular rule, ``|f|**power`` is sampled on
        an upsampled circle (factor up to 16) and averaged over the angular
        cell around each node.  The cell mass is exact, so boundary peaks of
        high-order singular coefficients are neither missed nor
        double-counted by coarser sweeps.  The moduli come from
        :func:`~disclab.series.modulus_shares` shifted by ``up//2``
        samples, which centres the cells on the nodes (a real FFT of half
        the length for real coefficients, a phase turn of the coefficients
        otherwise; exact also when the rings fold modulo ``M``).  Each
        block is raised to ``power`` in place and reduced to its rings of
        the node matrix by one mean over each node's ``up`` samples (the
        node itself when ``up == 1``), written into the output, so the
        radii x upsampled-angles matrix is never built; the blocks run side
        by side on the CPUs the process may use, with the same values.
        The upsampling factor is read from the stored order.
        """
        fs = [f] if isinstance(f, PowerSeries) else f
        up = int(np.ceil((2 * fs[0].order + 2) / self.angular))
        up = min(max(up, 1), 16)
        out = np.empty((len(fs), self.radii.size, self.angular))

        def reduce(block, values):
            values **= power  # the block is ours until the next
            # einsum sums the cells: .sum or .mean over the short last axis is several times slower
            cells = out[:, block]
            np.einsum("kimu->kim", values.reshape(len(fs), -1, self.angular, up), out=cells)
            cells /= up

        modulus_shares(fs, self.radii, up * self.angular, reduce, shift=up // 2)
        return out[0] if isinstance(f, PowerSeries) else out
