"""Hardy-space identities, non-tangential machinery and membership experiments.

The backbone is the Hardy-Stein-Spencer / Littlewood-Paley identity

    ||f||_{H^p}^p = |f(0)|^p + (p^2/2) int |f|^{p-2} |f'|^2 log(1/|z|) dm,

verified as a residual on the polar grid, and its higher-derivative
companions: for 0 < p <= 2 the p-th Hardy power is dominated by the area
quantity ``int |f|^{p-2} |f^{(k)}|^2 (1-|z|^2)^{2k-1} dm`` plus initial
terms, and for p >= 2 (or any p when f is uniformly locally univalent) the
domination reverses.  Both sides are returned so corpus-wide constants can
be tracked.

For zero-free f with small ``||f'/f||`` in the weighted sup norm, the
second-derivative area bound holds with a constant that scales like p^2 as
p -> 0; the experiment here fits that exponent empirically.

Hardy norms of truncated series are boundary-circle means: a truncation is
a polynomial, continuous on the closed disc, so the supremum over radii is
its value at r = 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import ConditionReport, bmoa_dd
from .grids import QuadratureGrid
from .norms import NormEstimate, carleson_norm, mp_mean, mp_means
from .ode import ODEProblem, solve_series
from .series import PowerSeries, exp_series, pow_series, ring_blocks, sample_circle, sample_rings

__all__ = [
    "NontangentialParams",
    "hss_residual",
    "nt_max",
    "shadow_length",
    "prop_main_sides",
    "loc_univ_margin",
    "nonvanishing_bound_check",
    "fit_cp_exponent",
    "hp_membership_experiment",
    "MembershipReport",
    "CorpusFunction",
    "default_corpus",
    "corpus_to_manifest",
    "corpus_from_manifest",
]


# Boundary nodes of the Hardy means in prop_main_sides and nonvanishing_bound_check.
_BOUNDARY_M = 2048


@dataclass(frozen=True)
class NontangentialParams:
    """Aperture and resolution of the non-tangential approach regions
    ``Gamma(zeta) = { z : |z - zeta| <= aperture (1 - |z|) }``."""

    aperture: float = 2.0

    def __post_init__(self):
        if self.aperture <= 1.0:
            raise ValueError("aperture must exceed 1")


def _ratio_ring_means(
    f: PowerSeries, k: int, p: float, grid: QuadratureGrid, upsample: int | None = None
) -> np.ndarray:
    """Per-ring angular means of ``|f|^{p-2} |f^{(k)}|^2``.

    For p < 2 the integrand is singular at zeros of f: a zero sitting
    exactly on a sample is treated by perturbing the ring half a radial
    step outward (with the limiting value 0 when the derivative vanishes
    too), and rings are upsampled angularly (factor 8) when f comes close
    to vanishing near the boundary, where near-zeros are narrower than the
    angular cells.  Zero-free integrands stay at the grid resolution, where
    the trapezoid rule is spectrally accurate.  Rings are sampled and
    reduced one block (:func:`~disclab.series.ring_blocks`) at a time.
    """
    df = f.derivative(k)
    if upsample is None:
        if p >= 2:
            upsample = 1
        else:
            outer = np.abs(sample_circle(f, grid.r_max, grid.angular))
            scale = float(np.max(np.abs(f.coeffs))) + 1e-30
            upsample = 1 if float(np.min(outer)) > 1e-3 * scale else 8
    M = upsample * grid.angular
    step = 0.5 * float(np.min(np.diff(np.unique(grid.radii))))
    means = np.empty(grid.radii.size)
    for block in ring_blocks(grid.radii.size, f.order, M):
        r = grid.radii[block].copy()
        fv = np.abs(sample_rings(f, r, M))
        if p < 2:
            hit = np.any(fv == 0.0, axis=1)
            if np.any(hit):
                r[hit] = np.minimum(r[hit] + step, 1.0 - 1e-12)
                fv[hit] = np.abs(sample_rings(f, r[hit], M))
        dv = np.abs(sample_rings(df, r, M))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(fv > 0.0, fv ** (p - 2.0) * dv**2, 0.0)
        means[block] = np.mean(vals, axis=1)
    return means


def hss_residual(f: PowerSeries, p: float, grid: QuadratureGrid, boundary_M: int = 4096) -> float:
    """Residual of the Hardy-Stein-Spencer identity at exponent p:
    the Hardy power minus ``|f(0)|^p`` minus ``(p^2/2) int |f|^{p-2} |f'|^2
    log(1/|z|) dm`` on the polar grid.

    Pure quadrature error for a truncated series; tends to 0 under
    simultaneous radial and angular refinement (see
    :func:`_ratio_ring_means` for the zero handling at p < 2).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    hp = mp_mean(f, 1.0, p, boundary_M) ** p
    means = _ratio_ring_means(f, 1, p, grid)
    area = grid.integrate_rings(means * np.log(1.0 / grid.radii))
    return float(abs(hp - abs(f.coeffs[0]) ** p - (p * p / 2.0) * area))


# ---------------------------------------------------------------------------
# non-tangential geometry
# ---------------------------------------------------------------------------

def nt_max(
    f: PowerSeries, zeta: complex, params: NontangentialParams, grid: QuadratureGrid
) -> float:
    """Sup of |f| over grid nodes inside the approach region at ``zeta``
    (which must lie on the unit circle)."""
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise ValueError("vertex must lie on the unit circle")
    z = grid.nodes()
    mask = np.abs(z - zeta) <= params.aperture * (1.0 - np.abs(z))
    vals = np.abs(grid.sample(f))
    best = abs(f.coeffs[0])  # the origin always belongs to the region
    if np.any(mask):
        best = max(best, float(np.max(vals[mask])))
    return best


def shadow_length(z: complex, params: NontangentialParams) -> float:
    """Arc length of ``{ zeta on the circle : z in Gamma(zeta) }`` in closed
    form; comparable to ``1 - |z|`` with constants depending only on the
    aperture."""
    r = abs(z)
    if r >= 1.0:
        raise ValueError("point must lie inside the disc")
    d = params.aperture * (1.0 - r)
    c = (1.0 + r * r - d * d) / (2.0 * r) if r > 0 else -1.0
    if c <= -1.0:
        return 2.0 * math.pi
    if c >= 1.0:
        return 0.0
    return 2.0 * math.acos(c)


# ---------------------------------------------------------------------------
# the two-sided higher-derivative comparison
# ---------------------------------------------------------------------------

def prop_main_sides(f: PowerSeries, p: float, k: int, grid: QuadratureGrid) -> tuple[float, float]:
    """Both sides of the order-k Hardy comparison: returns

        ( ||f||_{H^p}^p ,
          int |f|^{p-2} |f^{(k)}|^2 (1-|z|^2)^{2k-1} dm + sum_{j<k} |f^{(j)}(0)|^p ).

    For 0 < p <= 2 the first is dominated by a constant multiple of the
    second; for p >= 2 (or f uniformly locally univalent) the reverse holds.
    Ratios are left to the caller, who tracks corpus-wide constants.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    hp = mp_mean(f, 1.0, p, _BOUNDARY_M) ** p
    means = _ratio_ring_means(f, k, p, grid)
    area = grid.integrate_rings(means * (1.0 - grid.radii**2) ** (2 * k - 1))
    inits = sum(
        abs(f.derivative(j).coeffs[0]) ** p if j else abs(f.coeffs[0]) ** p
        for j in range(k)
    )
    return float(hp), float(area + inits)


def loc_univ_margin(f: PowerSeries, grid: QuadratureGrid) -> tuple[float, dict[int, float]]:
    """``sup |f''(z)/f'(z)| (1-|z|^2)`` over grid nodes (finite for
    uniformly locally univalent f) plus the induction quantities
    ``sup |f^{(k+1)}(z)/f'(z)| (1-|z|^2)^k`` for k <= 3.

    Raises if f' vanishes at grid resolution.
    """
    df = f.derivative()
    d1 = grid.sample(df)
    if float(np.min(np.abs(d1))) == 0.0 or df.coeffs[0] == 0.0:
        raise ValueError("f' vanishes on the grid: not locally univalent at resolution")
    radii = grid.radii
    out: dict[int, float] = {}
    for k in range(1, 4):
        dk = grid.sample(f.derivative(k + 1))
        ratio = np.abs(dk / d1) * (1.0 - radii**2)[:, None] ** k
        out[k] = float(np.max(ratio))
    return out[1], out


# ---------------------------------------------------------------------------
# zero-free experiment: the p^2 constant
# ---------------------------------------------------------------------------

def _normalize_positive(f: PowerSeries) -> PowerSeries:
    """Rotate so f(0) > 0 (principal branches of fractional powers)."""
    c0 = f.coeffs[0]
    if c0 == 0:
        raise ValueError("zero-free inputs cannot vanish at the origin")
    return f * np.exp(-1j * np.angle(c0))


def _check_zero_free(f: PowerSeries, grid: QuadratureGrid) -> None:
    vals = grid.sample(f)
    if float(np.min(np.abs(vals))) == 0.0:
        raise ValueError("f vanishes on the grid")
    outer = vals[-1]
    winding = np.round(
        np.sum(np.diff(np.unwrap(np.angle(np.append(outer, outer[0]))))) / (2 * np.pi)
    )
    if winding != 0:
        raise ValueError("branch ambiguity: f winds about 0 at grid resolution")


def nonvanishing_bound_check(f: PowerSeries, p: float, grid: QuadratureGrid) -> tuple[float, float, float]:
    """For zero-free f: both sides of the second-derivative area bound and
    the empirical constant.

    Returns ``(lhs, area, C_emp)`` where ``lhs = ||f||_{H^p}^p`` and
    ``C_emp = (lhs - |f(0)|^p) / area``: with that constant the bound

        lhs <= C_emp * area + |f(0)|^p + |f'(0)|^p

    holds by construction (the |f'(0)|^p term is dropped from the
    subtraction -- keeping it can push the numerator negative and hide the
    p^2 scaling that the fit is after).
    """
    _check_zero_free(f, grid)
    g = _normalize_positive(f)
    lhs = mp_mean(g, 1.0, p, _BOUNDARY_M) ** p
    means = _ratio_ring_means(g, 2, p, grid)
    area = grid.integrate_rings(means * (1.0 - grid.radii**2) ** 3)
    if area <= 0:
        raise ValueError("degenerate area quantity")
    c_emp = max(lhs - abs(g.coeffs[0]) ** p, 0.0) / area
    return float(lhs), float(area), float(c_emp)


def fit_cp_exponent(
    f: PowerSeries,
    grid: QuadratureGrid,
    ps: tuple[float, ...] = (1.0, 0.5, 0.25, 0.125),
) -> tuple[float, list[tuple[float, float]]]:
    """Least-squares slope of ``log C_emp(p)`` against ``log p``; the
    zero-free theory predicts a slope near 2."""
    track = []
    for p in ps:
        _, _, c = nonvanishing_bound_check(f, p, grid)
        track.append((p, c))
    xs = np.log([t[0] for t in track])
    ys = np.log([t[1] for t in track])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, track


# ---------------------------------------------------------------------------
# Hardy-membership experiment for solutions of f'' + A f = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    """All four quantities entering the Hardy-membership characterization:
    the BMOA-type coefficient quantity, the Carleson norm of
    ``|A|^2 (1-|z|^2)^3 dm``, the radial Hardy-mean profile of the solved
    solution, and ``int |f|^p`` against that measure."""

    coefficient_quantity: ConditionReport
    mu_carleson: NormEstimate
    mean_profile: tuple[tuple[float, float], ...]
    ee_integral: float


def hp_membership_experiment(
    A: PowerSeries,
    p: float,
    grid: QuadratureGrid,
    initial_values: tuple[complex, complex] = (1.0, 0.0),
    order: int | None = None,
) -> MembershipReport:
    N = A.order if order is None else order
    zero = PowerSeries(np.zeros(N + 1, dtype=complex))
    AN = A.truncate(N) if A.order > N else A.pad(N)
    f = solve_series(ODEProblem(2, (AN, zero), tuple(initial_values), N))
    dd = bmoa_dd(A, grid)
    dens = np.abs(grid.sample(A)) ** 2 * ((1.0 - grid.radii**2) ** 3)[:, None]
    mu = carleson_norm(dens, grid)
    tail = grid.sup_radii[grid.sup_radii >= 0.5]
    profile = tuple(zip(map(float, tail), mp_means(f, tail, p, grid.angular)))
    fv = np.abs(grid.sample(f))
    ee = grid.integrate(fv**p * dens)
    return MembershipReport(dd, mu, profile, float(ee))


# ---------------------------------------------------------------------------
# corpus of test functions (JSON manifest is the interchange format)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusFunction:
    name: str
    series: PowerSeries
    tags: tuple[str, ...] = field(default=())


def default_corpus(seed: int = 7, count: int = 30, order: int = 64) -> list[CorpusFunction]:
    """Deterministic corpus of analytic test functions.

    Zero-free polynomials (roots pushed outside the closed disc), scaled
    exponentials, principal fractional powers and small lacunary
    perturbations of 1; the zero-free members carry the ``zero-free`` tag
    and the exponentials also ``loc-univ``.
    """
    rng = np.random.default_rng(seed)
    out: list[CorpusFunction] = []
    while len(out) < count:
        i = len(out)
        kind = i % 4
        if kind == 0:
            deg = int(rng.integers(2, 9))
            roots = []
            for _ in range(deg):
                rad = 1.2 + 1.8 * rng.random()
                ang = 2 * np.pi * rng.random()
                roots.append(rad * np.exp(1j * ang))
            c = np.array([1.0 + 0j])
            for w in roots:
                c = np.convolve(c, np.array([1.0, -1.0 / w]))
            f = PowerSeries(c).pad(order)
            out.append(CorpusFunction(f"polyfree{i}", f, ("zero-free",)))
        elif kind == 1:
            eps = 0.05 + 0.4 * rng.random()
            lin = np.zeros(order + 1, dtype=complex)
            lin[1] = eps * np.exp(2j * np.pi * rng.random())
            out.append(
                CorpusFunction(
                    f"exp{i}", exp_series(PowerSeries(lin)), ("zero-free", "loc-univ")
                )
            )
        elif kind == 2:
            beta = 0.25 + 0.5 * rng.random()
            b = 0.3 + 0.4 * rng.random()
            base = PowerSeries([1.0, -b]).pad(order)
            out.append(
                CorpusFunction(f"pow{i}", pow_series(base, beta), ("zero-free",))
            )
        else:
            freqs = np.unique(2 ** np.arange(1, 6) + rng.integers(0, 2))
            c = np.zeros(order + 1, dtype=complex)
            c[0] = 1.0
            amps = 0.4 * rng.random(freqs.size) / freqs.size
            for aa, nn in zip(amps, freqs):
                if nn <= order:
                    c[nn] = aa
            out.append(CorpusFunction(f"lac{i}", PowerSeries(c), ("zero-free", "lacunary")))
    return out


def corpus_to_manifest(corpus: list[CorpusFunction]) -> str:
    items = []
    for cf in corpus:
        items.append(
            {
                "name": cf.name,
                "tags": list(cf.tags),
                "coeffs": [[float(c.real), float(c.imag)] for c in cf.series.coeffs],
            }
        )
    return json.dumps({"schema": 1, "functions": items}, indent=1, sort_keys=True)


def corpus_from_manifest(text: str) -> list[CorpusFunction]:
    data = json.loads(text)
    out = []
    for item in data["functions"]:
        coeffs = [complex(re, im) for re, im in item["coeffs"]]
        out.append(CorpusFunction(item["name"], PowerSeries(coeffs), tuple(item.get("tags", ()))))
    return out
