"""Hardy-space identities, non-tangential machinery and membership experiments.

The backbone is the Hardy-Stein-Spencer / Littlewood-Paley identity

    ||f||_{H^p}^p = |f(0)|^p + (p^2/2) int |f|^{p-2} |f'|^2 log(1/|z|) dm,

verified as a residual on the polar grid, and its higher-derivative
companions: for 0 < p <= 2 the p-th Hardy power is dominated by the area
quantity ``int |f|^{p-2} |f^{(k)}|^2 (1-|z|^2)^{2k-1} dm`` plus initial
terms, and for p >= 2 (or any p when f is uniformly locally univalent) the
domination reverses.  Both sides are returned so corpus-wide constants can
be tracked, and one sampling of f and its derivatives serves every
``(p, k)`` asked for in one call.

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

import disclab  # names ConditionReport in a hint without loading the conditions module
from .grids import QuadratureGrid
from .norms import NormEstimate, carleson_norm, mp_means
from .ode import ODEProblem, solve_series
from .series import PowerSeries, exp_series, modulus_shares, pow_series, sample_moduli, zero_series

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
    "zero_free_polynomial",
    "corpus_from_manifest",
]


# Boundary nodes of the Hardy means, the exponents fit_cp_exponent reads,
# and the order of every default_corpus member.
_BOUNDARY_M = 2048
_CP_PS = (1.0, 0.5, 0.25, 0.125)
_CORPUS_ORDER = 64


@dataclass(frozen=True)
class NontangentialParams:
    """Aperture and resolution of the non-tangential approach regions
    ``Gamma(zeta) = { z : |z - zeta| <= aperture (1 - |z|) }``."""

    aperture: float = 2.0

    def __post_init__(self):
        if self.aperture <= 1.0:
            raise ValueError("aperture must exceed 1")


def _groups(fs, key=lambda i: ()) -> list[list[int]]:
    """Indices of ``fs`` grouped by order, by sampling path (every
    coefficient real, the real path of
    :func:`~disclab.series.modulus_shares`, or not) and by ``key(i)``, in
    order of first appearance: the series of a group sample as one stack."""
    groups: dict = {}
    for i, f in enumerate(fs):
        groups.setdefault((f.order, not np.any(f.coeffs.imag), key(i)), []).append(i)
    return list(groups.values())


def _ratio_ring_means(fs, ks, ps, grid: QuadratureGrid) -> np.ndarray:
    """Per-ring angular means of ``|f|^{p-2} |f^{(k)}|^2`` for each f of the
    sequence ``fs``, shape ``(len(fs), len(ks), len(ps), radii)``: one
    sampling serves every ``(p, k)``.

    The stack ``[f, f^{(k)} for k in ks]`` (derivatives padded to f's
    order) of every f that shares an order, a sampling path and its
    angular sizes with others is sampled with theirs, once per angular size,
    through :func:`~disclab.series.modulus_shares`, and every p is reduced
    from the same block into that block's rings; each f's values are those
    of its own stack sampled alone, bit for bit.  For p < 2 the integrand
    is singular at zeros of f: a ring on which f vanishes exactly at a
    sample moves half a radial step outward (limiting value 0 when the
    derivative vanishes too).  The blocks mark such rings per f, and once
    every block is done the moved rings of each f are sampled again in one
    call and overwrite their p < 2 means.  The rings of p < 2 are upsampled
    angularly (factor 8) when f comes close to vanishing near the boundary,
    where near-zeros are narrower than the angular cells: when ``min |f|``
    on the ring ``r_max`` is at most ``2 (1 - r_max) max |c_n|``.  A zero
    on the unit circle in the direction of a node gives ``|f| ~ (1 - r_max)
    |f'|`` at that node, so the factor 2 puts a degree-one zero such as
    ``0.5 (1 - z/zeta)`` below the threshold; between nodes the node values
    can stay above it.  Otherwise rings stay at the grid resolution, where
    the trapezoid rule is spectrally accurate.
    """
    fs, ps = list(fs), [float(p) for p in ps]
    low = [1] * len(fs)
    if min(ps) < 2:
        for group in _groups(fs):
            outer = sample_moduli([fs[i] for i in group], [grid.r_max], grid.angular)
            for i, ring in zip(group, outer):
                scale = float(np.max(np.abs(fs[i].coeffs))) + 1e-30
                low[i] = 1 if float(np.min(ring)) > 2.0 * (1.0 - grid.r_max) * scale else 8
    step = 0.5 * float(np.min(np.diff(np.unique(grid.radii))))
    means = np.empty((len(fs), len(ks), len(ps), grid.radii.size))
    width = 1 + len(ks)  # rows of one f in a stack
    for group in _groups(fs, low.__getitem__):
        sizes = [(low[group[0]] if p < 2 else 1) * grid.angular for p in ps]
        stacks = [[fs[i]] + [fs[i].derivative(k).pad(fs[i].order) for k in ks] for i in group]
        part = np.empty((len(group), len(ks), len(ps), grid.radii.size))
        hit = np.empty((len(group), grid.radii.size), dtype=bool)  # rings where |f| = 0 at a node
        for M in sorted(set(sizes)):
            cols = [j for j, m in enumerate(sizes) if m == M]

            def reduce(block, vals):
                vals = vals.reshape(len(group), width, *vals.shape[1:])
                hit[:, block] = np.any(vals[:, 0] == 0.0, axis=-1)
                np.square(vals[:, 1:], out=vals[:, 1:])  # |f^(k)|^2, shared by every p
                for j in cols:
                    part[:, :, j, block] = _ratio_means(vals, ps[j])

            modulus_shares([g for stack in stacks for g in stack], grid.radii, M, reduce)
            moved = [j for j in cols if ps[j] < 2]
            if not moved:
                continue
            for g in np.flatnonzero(np.any(hit, axis=1)):
                vals = sample_moduli(stacks[g], np.minimum(grid.radii[hit[g]] + step, 1.0 - 1e-12), M)
                np.square(vals[1:], out=vals[1:])
                for j in moved:
                    part[g][:, j, hit[g]] = _ratio_means(vals[None], ps[j])[0]
        means[group] = part
    return means


@np.errstate(divide="ignore", invalid="ignore")
def _ratio_means(vals: np.ndarray, p: float) -> np.ndarray:
    """Angular means of ``|f|^{p-2} |f^{(k)}|^2`` from ``vals[g] = [|f|,
    |f^{(k)}|^2 ...]`` of each f of a stack, 0 where ``|f| = 0``.  The
    error state is entered on the thread that calls this, as numpy keeps
    one per thread."""
    f = vals[:, :1]
    return np.mean(np.where(f > 0.0, f ** (p - 2.0) * vals[:, 1:], 0.0), axis=-1)


def _sides(fs, ks: list[int], p, grid: QuadratureGrid, weight):
    """``p`` as a list and, per f of the sequence ``fs``, ``||f||_{H^p}^p``
    per p (one sampling of the unit circle, stacked as in
    :func:`_ratio_ring_means`) and ``int |f|^{p-2} |f^{(k)}|^2 weight(k)
    dm`` (rows k, columns p)."""
    fs, ps = list(fs), [float(q) for q in np.ravel(p)]
    if min(ps) <= 0:
        raise ValueError("p must be positive")
    hp = [None] * len(fs)
    for group in _groups(fs):
        for i, vals in zip(group, sample_moduli([fs[i] for i in group], [1.0], _BOUNDARY_M)):
            hp[i] = [float(np.mean(vals**q)) for q in ps]
    means = _ratio_ring_means(fs, ks, ps, grid)
    weights = [weight(k) for k in ks]
    area = [np.array([[grid.integrate_rings(m * w) for m in row] for row, w in zip(rows, weights)]) for rows in means]
    return ps, hp, area


def hss_residual(f: PowerSeries, p, grid: QuadratureGrid):
    """Residual of the Hardy-Stein-Spencer identity at exponent p:
    the Hardy power minus ``|f(0)|^p`` minus ``(p^2/2) int |f|^{p-2} |f'|^2
    log(1/|z|) dm`` on the polar grid.  A sequence of p gives a list of
    residuals from one sampling.

    Pure quadrature error for a truncated series; tends to 0 under
    simultaneous radial and angular refinement (see
    :func:`_ratio_ring_means` for the zero handling at p < 2).
    """
    ps, (hp,), (area,) = _sides([f], [1], p, grid, lambda k: np.log(1.0 / grid.radii))
    res = [abs(h - abs(f.coeffs[0]) ** q - (q * q / 2.0) * a) for h, q, a in zip(hp, ps, area[0])]
    return np.reshape(res, np.shape(p)).tolist()


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
    vals = sample_moduli(f, grid.radii, grid.angular)
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

def prop_main_sides(f, p, k, grid: QuadratureGrid):
    """Both sides of the order-k Hardy comparison: returns

        ( ||f||_{H^p}^p ,
          int |f|^{p-2} |f^{(k)}|^2 (1-|z|^2)^{2k-1} dm + sum_{j<k} |f^{(j)}(0)|^p ).

    For 0 < p <= 2 the first is dominated by a constant multiple of the
    second; for p >= 2 (or f uniformly locally univalent) the reverse holds.
    Ratios are left to the caller, who tracks corpus-wide constants.

    Sequences of p and k give two nested lists of shape ``np.shape(p) +
    np.shape(k)``, read from one sampling of f and its derivatives.  A
    sequence of series gives a list of these pairs, one per series, each
    equal to the call on that series alone; series of one order and one
    sampling path (every coefficient real or not) are sampled together as
    one stack (see :func:`_ratio_ring_means`).
    """
    ks = [int(j) for j in np.ravel(k)]
    if min(ks) < 1:
        raise ValueError("k must be a positive integer")
    fs = [f] if isinstance(f, PowerSeries) else list(f)
    ps, hps, areas = _sides(fs, ks, p, grid, lambda j: (1.0 - grid.radii**2) ** (2 * j - 1))
    shape = np.shape(p) + np.shape(k)
    out = []
    for g, hp, area in zip(fs, hps, areas):
        c0 = [abs(g.derivative(j).coeffs[0]) for j in range(max(ks))]
        rhs = [[a + sum(c**q for c in c0[:j]) for a, q in zip(row, ps)] for row, j in zip(area, ks)]
        lhs = np.repeat(hp, len(ks)).reshape(shape)
        out.append((lhs.tolist(), np.transpose(rhs).reshape(shape).tolist()))
    return out[0] if isinstance(f, PowerSeries) else out


def loc_univ_margin(f: PowerSeries, grid: QuadratureGrid) -> tuple[float, dict[int, float]]:
    """``sup |f''(z)/f'(z)| (1-|z|^2)`` over grid nodes (finite for
    uniformly locally univalent f) plus the induction quantities
    ``sup |f^{(k+1)}(z)/f'(z)| (1-|z|^2)^k`` for k <= 3.

    ``f'`` to ``f^{(4)}`` are sampled as one stack.  Raises if f' vanishes
    at grid resolution.
    """
    df = f.derivative()
    d = sample_moduli([f.derivative(k).pad(df.order) for k in range(1, 5)], grid.radii, grid.angular)
    if float(np.min(d[0])) == 0.0 or df.coeffs[0] == 0.0:
        raise ValueError("f' vanishes on the grid: not locally univalent at resolution")
    weight = 1.0 - grid.radii**2
    out = {k: float(np.max(d[k] / d[0] * weight[:, None] ** k)) for k in range(1, 4)}
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
    if np.any(vals == 0.0):
        raise ValueError("f vanishes on the grid")
    outer = vals[-1]
    winding = np.round(
        np.sum(np.diff(np.unwrap(np.angle(np.append(outer, outer[0]))))) / (2 * np.pi)
    )
    if winding != 0:
        raise ValueError("branch ambiguity: f winds about 0 at grid resolution")


def nonvanishing_bound_check(f: PowerSeries, p, grid: QuadratureGrid):
    """For zero-free f: both sides of the second-derivative area bound and
    the empirical constant.

    Returns ``(lhs, area, C_emp)`` where ``lhs = ||f||_{H^p}^p`` and
    ``C_emp = (lhs - |f(0)|^p) / area``: with that constant the bound

        lhs <= C_emp * area + |f(0)|^p + |f'(0)|^p

    holds by construction (the |f'(0)|^p term is dropped from the
    subtraction -- keeping it can push the numerator negative and hide the
    p^2 scaling that the fit is after).  A sequence of p gives three lists
    of its shape, read from one sampling.
    """
    _check_zero_free(f, grid)
    g = _normalize_positive(f)
    ps, (lhs,), ((area,),) = _sides([g], [2], p, grid, lambda k: (1.0 - grid.radii**2) ** 3)
    if min(area) <= 0:
        raise ValueError("degenerate area quantity")
    c_emp = [max(h - abs(g.coeffs[0]) ** q, 0.0) / a for h, q, a in zip(lhs, ps, area)]
    return tuple(np.reshape(side, np.shape(p)).tolist() for side in (lhs, area, c_emp))


def fit_cp_exponent(f: PowerSeries, grid: QuadratureGrid) -> tuple[float, list[tuple[float, float]]]:
    """Least-squares slope of ``log C_emp(p)`` against ``log p`` over
    ``p = 1, 1/2, 1/4, 1/8``; the zero-free theory predicts a slope near 2."""
    _, _, c_emp = nonvanishing_bound_check(f, _CP_PS, grid)
    slope = float(np.polyfit(np.log(_CP_PS), np.log(c_emp), 1)[0])
    return slope, list(zip(_CP_PS, c_emp))


# ---------------------------------------------------------------------------
# Hardy-membership experiment for solutions of f'' + A f = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    """All four quantities entering the Hardy-membership characterization:
    the BMOA-type coefficient quantity, the Carleson norm of
    ``|A|^2 (1-|z|^2)^3 dm``, the radial Hardy-mean profile of the solved
    solution, and ``int |f|^p`` against that measure."""

    coefficient_quantity: disclab.ConditionReport
    mu_carleson: NormEstimate
    mean_profile: tuple[tuple[float, float], ...]
    ee_integral: float


def hp_membership_experiment(
    A: PowerSeries, p: float, grid: QuadratureGrid, order: int | None = None
) -> MembershipReport:
    """The report of the solution of ``f'' + A f = 0`` with ``f(0) = 1``
    and ``f'(0) = 0``, solved through ``order`` (by default A's)."""
    from .conditions import bmoa_dd

    N = A.order if order is None else order
    AN = A.truncate(N) if A.order > N else A.pad(N)
    f = solve_series(ODEProblem(2, (AN, zero_series(N)), (1.0, 0.0), N))
    dd = bmoa_dd(A, grid)
    dens = sample_moduli(A, grid.radii, grid.angular) ** 2 * ((1.0 - grid.radii**2) ** 3)[:, None]
    mu = carleson_norm(dens, grid)
    tail = grid.sup_radii[grid.sup_radii >= 0.5]
    profile = tuple(zip(map(float, tail), mp_means(f, tail, p, grid.angular)))
    fv = sample_moduli(f, grid.radii, grid.angular)
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


def zero_free_polynomial(rng: np.random.Generator, degree: int) -> PowerSeries:
    """``prod (1 - z/w)`` over ``degree`` roots ``w`` drawn from ``rng``, each
    of modulus uniform in [1.2, 3] and uniform phase: zero-free on the
    closed disc, with value 1 at the origin."""
    c = np.array([1.0 + 0j])
    for _ in range(degree):
        w = (1.2 + 1.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
        c = np.convolve(c, [1.0, -1.0 / w])
    return PowerSeries(c)


def default_corpus(seed: int = 7, count: int = 30) -> list[CorpusFunction]:
    """Deterministic corpus of analytic test functions of order 64.

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
            f = zero_free_polynomial(rng, int(rng.integers(2, 9))).pad(_CORPUS_ORDER)
            out.append(CorpusFunction(f"polyfree{i}", f, ("zero-free",)))
        elif kind == 1:
            eps = 0.05 + 0.4 * rng.random()
            lin = np.zeros(_CORPUS_ORDER + 1, dtype=complex)
            lin[1] = eps * np.exp(2j * np.pi * rng.random())
            out.append(
                CorpusFunction(
                    f"exp{i}", exp_series(PowerSeries(lin)), ("zero-free", "loc-univ")
                )
            )
        elif kind == 2:
            beta = 0.25 + 0.5 * rng.random()
            b = 0.3 + 0.4 * rng.random()
            base = PowerSeries([1.0, -b]).pad(_CORPUS_ORDER)
            out.append(
                CorpusFunction(f"pow{i}", pow_series(base, beta), ("zero-free",))
            )
        else:
            freqs = np.unique(2 ** np.arange(1, 6) + rng.integers(0, 2))
            c = np.zeros(_CORPUS_ORDER + 1, dtype=complex)
            c[0] = 1.0
            c[freqs] = 0.4 * rng.random(freqs.size) / freqs.size  # frequencies of at most 33
            out.append(CorpusFunction(f"lac{i}", PowerSeries(c), ("zero-free", "lacunary")))
    return out


def corpus_from_manifest(text: str) -> list[CorpusFunction]:
    """The corpus of a JSON manifest ``{"functions": [{"name": "...",
    "coeffs": [[re, im], ...], "tags": ["...", ...]}, ...]}``: one or more
    functions, each a name, Taylor coefficients ``c_0, c_1, ...`` as
    ``[re, im]`` pairs and optional tags; other keys are ignored.  Anything
    else raises :class:`ValueError` with a one-line message."""
    data = json.loads(text)
    items = data.get("functions") if isinstance(data, dict) else None
    if not isinstance(items, list) or not items:
        raise ValueError('corpus manifest needs a non-empty "functions" list')
    out = []
    for i, item in enumerate(items):
        if not (isinstance(item, dict) and isinstance(item.get("name"), str) and isinstance(item.get("tags", []), list)):
            raise ValueError(f'corpus manifest function {i} needs a "name" string and a "tags" list if any')
        try:
            coeffs = [complex(re, im) for re, im in item.get("coeffs")]
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f'corpus manifest function {i} needs "coeffs" as [re, im] number pairs') from None
        out.append(CorpusFunction(item["name"], PowerSeries(coeffs), tuple(item.get("tags", ()))))
    return out
