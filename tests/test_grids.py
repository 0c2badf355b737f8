"""The shift-invariant centre sweep engine, the blocked ring sampling, the
stacked Hardy-comparison sampling and the two-pass dilation protocol
against the per-centre, per-ring, per-(p, k) and per-dilation loops they
replaced.

The oracles below are the straightforward passes: one weight matrix per
Moebius centre or Carleson square over the full node matrix, one
``np.add.at`` fold and 1-d inverse FFT per ring, one sampling of f and
f^(k) per (p, k) call, and five single-dilation runs per estimate.  They
live here only, as the slow paths the fast ones are checked against.
"""

import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import QuadratureGrid, grids, hardy, series
from disclab.conditions import (
    _h1_inner_fields,
    _log_weight,
    bmoa_dd,
    bmoa_h1_cond,
    decay_conditions,
    lalpha_norm,
    lacunary_series,
    lmoa_quantity,
    lmoa_square,
    log_reciprocal_coefficient,
    nehari_sup,
    order3_area,
    order3_growth,
)
from disclab.hardy import _ratio_ring_means, hss_residual, nonvanishing_bound_check, prop_main_sides
from disclab.norms import (
    _weighted_sup,
    bloch_norm,
    bmoa_garsia,
    bmoa_h2_def,
    carleson_norm,
    growth_norm,
    hp_norm,
)
from disclab.series import PowerSeries, dilate, ring_blocks, sample_moduli
from disclab.weights import RadialWeight, bloch_kernel_quantity

REL = 1e-12


# ---------------------------------------------------------------------------
# oracles: one pass over the node matrix per centre
# ---------------------------------------------------------------------------

def oracle_moebius_ring_means(grid, field):
    z = grid.nodes()
    base = field * (1.0 - grid.radii**2)[:, None]
    out = np.empty((grid.a_grid.size, grid.radii.size))
    for i, a in enumerate(grid.a_grid):
        w = (1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2
        out[i] = (base * w).mean(axis=1)
    return out


def oracle_square_weights(grid, a, s):
    # s = |a| as numpy's array abs gives it, like the sweep: the scalar abs
    # may differ by an ulp, which moves a wedge edge by one
    if a == 0:
        return None
    half = (1.0 - s) / 2.0
    cell = 2.0 * np.pi / grid.angular
    d = np.abs((grid.thetas - np.angle(a) + np.pi) % (2 * np.pi) - np.pi)
    overlap = np.clip((half + cell / 2.0 - d) / cell, 0.0, 1.0)
    radial = (grid.radii > s).astype(float)
    return radial[:, None] * overlap[None, :]


def oracle_square_ring_means(grid, field):
    rows = []
    for a, s in zip(grid.a_grid, np.abs(grid.a_grid)):
        w = oracle_square_weights(grid, a, s)
        rows.append((field if w is None else field * w).mean(axis=1))
    return np.array(rows)


def oracle_square_sweep(grid, field, prefactor, rcap=None):
    mask = np.ones(grid.radii.size, dtype=bool) if rcap is None else grid.radii <= rcap
    wq = grid.weights[mask] * 2.0 * grid.radii[mask]
    best = 0.0
    for a, s in zip(grid.a_grid, np.abs(grid.a_grid)):
        if rcap is not None and s > rcap:
            continue
        w = oracle_square_weights(grid, a, s)
        rings = (field if w is None else field * w)[mask].mean(axis=1)
        best = max(best, float(rings @ wq) * prefactor(a))
    return best


def oracle_decay_lmoa(A, radii, grid):
    field = np.abs(grid.sample(A)) ** 2 * (1 - grid.radii**2)[:, None] ** 2
    z = grid.nodes()
    out = []
    for rho in radii:
        pref = float(_log_weight(rho)) ** 2
        best = 0.0
        for phase in np.exp(2j * np.pi * np.arange(grid.a_angles) / grid.a_angles):
            a = rho * phase if rho > 0 else 0.0
            w = (1 - abs(a) ** 2) * (1 - np.abs(z) ** 2) / np.abs(1 - np.conj(a) * z) ** 2
            best = max(best, pref * grid.integrate(field * w))
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# drawn grids and fields
# ---------------------------------------------------------------------------

centre_radii = st.lists(st.floats(min_value=0.05, max_value=0.999), min_size=1, max_size=4)


@st.composite
def grid_specs(draw):
    radii = draw(centre_radii)
    if draw(st.booleans()):
        radii.insert(draw(st.integers(0, len(radii))), 0.0)
    return dict(
        nodes_per_panel=draw(st.integers(2, 4)),
        angular=draw(st.integers(8, 60)),
        inner_depth=draw(st.integers(1, 4)),
        outer_depth=draw(st.integers(2, 10)),
        a_radii=tuple(radii),
        a_angles=draw(st.integers(1, 9)),
    )


def field_for(grid, seed):
    """Nonnegative node values spanning many decades."""
    rng = np.random.default_rng(seed)
    shape = (grid.radii.size, grid.angular)
    return rng.random(shape) * 10.0 ** rng.uniform(-6, 6, shape)


def assert_rel(got, want):
    np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)


SMALL = dict(nodes_per_panel=2, inner_depth=2, outer_depth=6)
EXAMPLES = [
    dict(SMALL, angular=100, a_radii=(0.0, 0.5, 0.99), a_angles=16),  # 16 does not divide 100
    dict(SMALL, angular=90, a_radii=(0.9, 0.0, 0.999), a_angles=7),
    dict(SMALL, angular=32, a_radii=(0.3, 0.999), a_angles=1),
    dict(SMALL, angular=48, a_radii=(0.0,), a_angles=4),
]


def with_examples(test):
    for spec in EXAMPLES:
        test = example(spec=spec, seed=0)(test)
    return test


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@with_examples
@given(grid_specs(), st.integers(0, 2**32 - 1))
def test_moebius_ring_means_match_per_centre_loop(spec, seed):
    grid = QuadratureGrid(**spec)
    field = field_for(grid, seed)
    got = grid.moebius_ring_means(field)
    assert got.shape == (grid.a_grid.size, grid.radii.size)
    assert_rel(got, oracle_moebius_ring_means(grid, field))


@settings(max_examples=40, deadline=None)
@with_examples
@given(grid_specs(), st.integers(0, 2**32 - 1))
def test_square_sweeps_match_per_centre_loop(spec, seed):
    grid = QuadratureGrid(**spec)
    field = field_for(grid, seed)
    assert_rel(grid.square_ring_means(field), oracle_square_ring_means(grid, field))


@settings(max_examples=30, deadline=None)
@with_examples
@given(grid_specs(), st.integers(0, 2**32 - 1))
def test_carleson_probes_match_per_centre_loop(spec, seed):
    grid = QuadratureGrid(**spec)
    field = field_for(grid, seed)
    pref = lambda a: 1.0 / (1.0 - abs(a))
    est = carleson_norm(field, grid)
    assert_rel(est.value, oracle_square_sweep(grid, field, pref))
    assert est.value_coarse == est.value  # a node matrix has no coarser sibling
    hi = oracle_square_sweep(grid, field, pref, 0.999)
    lo = oracle_square_sweep(grid, field, pref, 0.9)
    assert est.divergence_flag == bool(hi > 2.0 * lo + 1e-300)


@settings(max_examples=25, deadline=None)
@with_examples
@given(grid_specs(), st.integers(0, 2**32 - 1))
def test_decay_conditions_match_per_centre_loop(spec, seed):
    grid = QuadratureGrid(**spec)
    rng = np.random.default_rng(seed)
    A = PowerSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
    radii = [0.0, *np.round(rng.uniform(0.0, 0.999, 3), 6)]
    rows = decay_conditions(A, radii, grid)
    assert [row[0] for row in rows] == radii
    assert_rel([row[1] for row in rows], oracle_decay_lmoa(A, radii, grid))


@settings(max_examples=30, deadline=None)
@with_examples
# centres 1 and 2 have a scalar abs an ulp off the array one, and a
# wedge-edge node decades above its neighbours
@example(
    spec=dict(nodes_per_panel=2, angular=37, inner_depth=1, outer_depth=5, a_radii=(0.88671875,), a_angles=6), seed=0
)
@given(grid_specs(), st.integers(0, 2**32 - 1))
def test_stacked_sweeps_match_per_field_calls(spec, seed):
    # three fields in one call, the Moebius sweep in blocks of 1 to 7 rings
    grid = QuadratureGrid(**spec)
    fields = np.stack([field_for(grid, seed + i) for i in range(3)])
    rows = seed % 7 + 1
    with mock.patch.object(grids, "_SWEEP_RINGS", rows):
        moebius = grid.moebius_ring_means(fields)
    square = grid.square_ring_means(fields)
    assert moebius.shape == square.shape == (3, grid.a_grid.size, grid.radii.size)
    for field, got_m, got_s in zip(fields, moebius, square):
        assert_rel(got_m, grid.moebius_ring_means(field))
        assert_rel(got_m, oracle_moebius_ring_means(grid, field))
        assert_rel(got_s, grid.square_ring_means(field))
        assert_rel(got_s, oracle_square_ring_means(grid, field))


@pytest.mark.parametrize(
    "angular, a_angles",
    [
        (544, 16),  # the default grid's layout: g = 16 phases per offset, step = 34
        (1088, 16),  # the refined grid's: step = 68
        (544, 7),  # seven offsets of one phase each (7 does not divide 544)
    ],
)
def test_moebius_ring_means_at_production_layouts(angular, a_angles):
    # the default centre radii on 74 radii (a block of 64 rings and a
    # short one of 10), a stack of two fields and one alone
    grid = QuadratureGrid(nodes_per_panel=2, angular=angular, inner_depth=2, outer_depth=36, a_angles=a_angles)
    assert grid.radii.size == 74 and grid.a_grid.size == 1 + 7 * a_angles
    fields = np.stack([field_for(grid, seed) for seed in (1, 2)])
    stacked = grid.moebius_ring_means(fields)
    for field, got in zip(fields, stacked):
        assert_rel(got, oracle_moebius_ring_means(grid, field))
    assert_rel(grid.moebius_ring_means(fields[1]), stacked[1])


def test_centre_radii_subset_matches_grid_rows():
    # asking for some of the grid's centre radii returns their rows of the full sweep
    grid = QuadratureGrid(nodes_per_panel=2, angular=40, inner_depth=2, outer_depth=6,
                          a_radii=(0.0, 0.5, 0.9), a_angles=6)
    field = field_for(grid, 3)
    full = grid.moebius_ring_means(field)
    assert np.array_equal(grid.moebius_ring_means(field, a_radii=(0.9,)), full[7:])
    assert np.array_equal(grid.moebius_ring_means(field, a_radii=(0.0,)), full[:1])
    assert np.array_equal(grid.centres((0.5,)), grid.a_grid[1:7])


# ---------------------------------------------------------------------------
# ring sampling: the blocked batches against the per-ring loops they replaced
# ---------------------------------------------------------------------------

def oracle_sample_circle(f, r, M):
    scaled = f.coeffs * r ** np.arange(f.order + 1)
    folded = np.zeros(M, dtype=complex)
    np.add.at(folded, np.arange(f.order + 1) % M, scaled)
    return M * np.fft.ifft(folded)


def oracle_sample_folded(grid, f, power):
    up = min(max(int(np.ceil((2 * f.order + 2) / grid.angular)), 1), 16)
    M = up * grid.angular
    out = np.empty((grid.radii.size, grid.angular))
    for i, r in enumerate(grid.radii):
        vals = np.abs(oracle_sample_circle(f, float(r), M)) ** power
        vals = np.roll(vals, up // 2)
        out[i] = vals.reshape(grid.angular, up).mean(axis=1)
    return out


def oracle_ratio_ring_means(f, k, p, grid, upsample):
    df = f.derivative(k)
    M = upsample * grid.angular
    step = 0.5 * float(np.min(np.diff(np.unique(grid.radii))))
    means = np.empty(grid.radii.size)
    shifted = 0
    for i, r in enumerate(grid.radii):
        r = float(r)
        fv = np.abs(oracle_sample_circle(f, r, M))
        if p < 2 and np.any(fv == 0.0):
            shifted += 1
            r = min(r + step, 1.0 - 1e-12)
            fv = np.abs(oracle_sample_circle(f, r, M))
        dv = np.abs(oracle_sample_circle(df, r, M))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(fv > 0.0, fv ** (p - 2.0) * dv**2, 0.0)
        means[i] = float(np.mean(vals))
    return means, shifted


def near_zero_factor(f, p, grid):
    """The angular factor of the near-zero rule: 8 for p < 2 when f comes
    close to vanishing on the ring r_max, otherwise 1."""
    if p >= 2:
        return 1
    outer = sample_moduli(f, [grid.r_max], grid.angular)
    scale = float(np.max(np.abs(f.coeffs))) + 1e-30
    return 1 if float(np.min(outer)) > 2.0 * (1.0 - grid.r_max) * scale else 8


def reference_ratio_ring_means(f, k, p, grid):
    """The blocked pass of one (p, k) that the stacked one replaced: f and
    f^(k) resampled for every call."""
    df = f.derivative(k)
    M = near_zero_factor(f, p, grid) * grid.angular
    step = 0.5 * float(np.min(np.diff(np.unique(grid.radii))))
    means = np.empty(grid.radii.size)
    for block in ring_blocks(grid.radii.size, f.order, M):
        r = grid.radii[block].copy()
        fv = sample_moduli(f, r, M)
        if p < 2:
            hit = np.any(fv == 0.0, axis=1)
            if np.any(hit):
                r[hit] = np.minimum(r[hit] + step, 1.0 - 1e-12)
                fv[hit] = sample_moduli(f, r[hit], M)
        dv = sample_moduli(df, r, M)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(fv > 0.0, fv ** (p - 2.0) * dv**2, 0.0)
        means[block] = np.mean(vals, axis=1)
    return means


def reference_prop_main_sides(f, p, k, grid):
    """The per-call comparison the stacked one replaced; the Hardy power is
    the mean of ``|f|**p`` over 2048 boundary samples."""
    hp = np.mean(sample_moduli(f, [1.0], 2048) ** p)
    means = reference_ratio_ring_means(f, k, p, grid)
    area = grid.integrate_rings(means * (1.0 - grid.radii**2) ** (2 * k - 1))
    inits = sum(abs(f.derivative(j).coeffs[0]) ** p if j else abs(f.coeffs[0]) ** p for j in range(k))
    return float(hp), float(area + inits)


def oracle_weighted_sup(f, weight, grid):
    best = abs(f.coeffs[0]) * float(weight(0.0))
    for r in grid.sup_radii[grid.sup_radii > 0]:
        ring = float(np.max(np.abs(oracle_sample_circle(f, float(r), grid.angular))))
        best = max(best, ring * float(weight(float(r))))
    return best


@st.composite
def sampled_cases(draw):
    """A small grid, a series whose order falls below or above the angular
    rule (so sample_folded upsamples and sample_rings folds), a block
    buffer holding 1 to 7 rings, and a seed.  Orders above 8x the angular
    rule meet the 16x cap on upsampling; from 16x on, the upsampled rings
    fold too."""
    spec = draw(grid_specs())
    A = spec["angular"]
    order = draw(st.integers(0, 6 * A) | st.integers(8 * A, 20 * A))
    rows = draw(st.integers(1, 7))
    return spec, order, rows, draw(st.integers(0, 2**32 - 1))


def blocks_of(rows, order, M, k=1):
    """The block buffer size that makes ring_blocks hold ``rows`` rings of a
    stack of ``k`` series."""
    return mock.patch.object(series, "_BLOCK_BYTES", k * rows * 16 * (-(-(order + 1) // M) * M))


def random_series(order, seed):
    rng = np.random.default_rng(seed)
    return PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))


@settings(max_examples=40, deadline=None)
@example(case=(dict(SMALL, angular=8, a_radii=(0.5,), a_angles=3), 200, 3, 0), power=2.0)  # capped, folded
@example(case=(dict(SMALL, angular=40, a_radii=(0.5,), a_angles=3), 19, 2, 1), power=0.5)  # up == 1
@given(sampled_cases(), st.sampled_from([1.0, 2.0, 0.5, 3.0]))
def test_sample_folded_matches_per_ring_loop(case, power):
    # the cells are centred by rotating the coefficients, the oracle rolls
    # the samples: the two agree to rounding, and exactly without upsampling
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    f = random_series(order, seed)
    up = min(max(int(np.ceil((2 * order + 2) / grid.angular)), 1), 16)
    with blocks_of(rows, order, up * grid.angular):
        got = grid.sample_folded(f, power=power)
    want = oracle_sample_folded(grid, f, power)
    assert_rel(got, want)
    if up == 1:
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(sampled_cases(), st.integers(1, 4), st.sampled_from([1.0, 2.0, 0.5]))
def test_stacked_sample_folded_matches_per_series_calls(case, k, power):
    # the buffer holds `rows` rings of the whole stack of k series
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    fs = [random_series(order, seed + i) for i in range(k)]
    up = min(max(int(np.ceil((2 * order + 2) / grid.angular)), 1), 16)
    with blocks_of(rows, order, up * grid.angular, k):
        got = grid.sample_folded(fs, power=power)
    assert got.shape == (k, grid.radii.size, grid.angular)
    for f, field in zip(fs, got):
        assert_rel(field, grid.sample_folded(f, power=power))
        assert_rel(field, oracle_sample_folded(grid, f, power))


def real_series(order, seed):
    return PowerSeries(np.random.default_rng(seed).normal(size=order + 1))


@settings(max_examples=40, deadline=None)
@example(case=(dict(SMALL, angular=8, a_radii=(0.5,), a_angles=3), 200, 3, 0), k=2, power=2.0)  # capped, folded
@example(case=(dict(SMALL, angular=41, a_radii=(0.5,), a_angles=3), 19, 2, 1), k=1, power=3.0)  # up == 1, odd
@example(case=(dict(SMALL, angular=9, a_radii=(0.5,), a_angles=3), 0, 1, 2), k=3, power=1.0)  # order 0
@given(sampled_cases(), st.integers(1, 3), st.sampled_from([1.0, 2.0, 3.0]))
def test_real_sample_folded_matches_per_ring_loop(case, k, power):
    # real stacks take the half-length real FFT, which agrees with the
    # per-ring loop to FFT rounding: relative to the ring's norm, so each
    # entry is held to 1e-12 times the largest cell on its ring (powers
    # below 1 would magnify the rounding at zeros of f, so none is drawn);
    # the real budget holds `rows` rings of the stack
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    fs = [real_series(order, seed + i) for i in range(k)]
    M = min(max(int(np.ceil((2 * order + 2) / grid.angular)), 1), 16) * grid.angular
    width = -(-(order + 1) // M) * M
    with mock.patch.object(series, "_BLOCK_BYTES", k * rows * (8 * width + 16 * (M // 2 + 1))):
        got = grid.sample_folded(fs, power=power)
    for f, field in zip(fs, got):
        want = oracle_sample_folded(grid, f, power)
        assert np.all(np.abs(field - want) <= 1e-12 * np.max(want, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# ring shares: the sweep and the folded sampling side by side on the CPUs
# ---------------------------------------------------------------------------

def shares(n):
    """Ring work on ``n`` shares, whatever CPUs the process may use."""
    return mock.patch.object(series, "_cpu_count", lambda: n)


def counted_threads():
    return mock.patch.object(threading, "Thread", wraps=threading.Thread)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a_angles", [16, 7])
def test_moebius_shares_are_bit_identical_to_one(a_angles, n):
    # the 74 radii of the production layouts in four blocks of 20 rings (a
    # short last block), each of the n shares with buffers for 20 rings; a
    # stack of two fields and one alone
    grid = QuadratureGrid(nodes_per_panel=2, angular=544, inner_depth=2, outer_depth=36, a_angles=a_angles)
    fields = np.stack([field_for(grid, seed) for seed in (1, 2)])
    before, allocated = threading.active_count(), []

    def ring_shares(rings, rows, allocate, work):
        def counted(rows):
            allocated.append(rows)
            return allocate(rows)

        series.ring_shares(rings, rows, counted, work)

    with mock.patch.object(grids, "_SWEEP_RINGS", 20):
        with shares(1):
            want = [grid.moebius_ring_means(fields), grid.moebius_ring_means(fields[0])]
        with shares(n), counted_threads() as made, mock.patch.object(grids, "ring_shares", ring_shares):
            got = [grid.moebius_ring_means(fields), grid.moebius_ring_means(fields[0])]
    assert allocated == [20] * (2 * n)
    assert made.call_count == 2 * (n - 1)
    assert threading.active_count() == before
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("up", [1, 4, 16])
def test_sample_folded_shares_are_bit_identical_to_one(up, real, n):
    # 14 radii in serial blocks of two or three rings of a stack of two, on
    # the real path (a half spectrum) or the complex one (a phase turn)
    grid = QuadratureGrid(**dict(SMALL, angular=40, a_radii=(0.5,), a_angles=3))
    order = up * grid.angular // 2 - 1
    fs = [(real_series if real else random_series)(order, seed) for seed in (1, 2)]
    before = threading.active_count()
    with blocks_of(3, order, up * grid.angular, 2):
        with shares(1):
            want = [grid.sample_folded(fs, power=2.0), grid.sample_folded(fs[0], power=0.5)]
        with shares(n), counted_threads() as made:
            got = [grid.sample_folded(fs, power=2.0), grid.sample_folded(fs[0], power=0.5)]
    assert made.call_count == 2 * (n - 1)
    assert threading.active_count() == before
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def sampled_sizes():
    """Records the calls of ``modulus_shares`` that ``_ratio_ring_means``
    samples its stacks by; ``args[2]`` is the angular size."""
    return mock.patch.object(hardy, "modulus_shares", wraps=hardy.modulus_shares)


def angular_sizes(spy):
    return {call.args[2] for call in spy.call_args_list}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("near", [False, True])
def test_ratio_ring_means_shares_are_bit_identical_to_one(near, n):
    # f = z - r_i vanishes on the node r_i of angle 0, so that ring moves
    # for p < 2; with one ring per block, the ring with the zero falls to
    # some share, and a share that divides by |f| = 0 outside numpy's
    # error state (which is per thread) raises here.  With r_max = r_i the
    # zero lies on the ring that the near-zero rule reads, so p < 2 takes
    # the 8x rings
    ks, ps = [1, 2], [0.5, 1.5, 2.0, 3.0]
    base = QuadratureGrid(**dict(SMALL, angular=24))
    for i in range(0, base.radii.size, 3):
        grid = QuadratureGrid(**dict(SMALL, angular=24), r_max=float(base.radii[i])) if near else base
        f = PowerSeries([-grid.radii[i], 1.0]).pad(30)
        factor = near_zero_factor(f, min(ps), grid)
        assert factor == (8 if near else 1)
        assert oracle_ratio_ring_means(f, 1, 0.5, grid, factor)[1] >= 1
        with blocks_of(1, f.order, factor * grid.angular, 1 + len(ks)):
            with shares(1), sampled_sizes() as spy:
                want = _ratio_ring_means([f], ks, ps, grid)[0]
            with shares(n), counted_threads() as made, warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _ratio_ring_means([f], ks, ps, grid)[0]
        assert made.call_count >= n - 1
        assert angular_sizes(spy) == {grid.angular, factor * grid.angular}
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ratio_ring_means_of_a_sequence_are_each_series_alone(n):
    # four real and three complex series of order 30 and one of order 12
    # (two with a zero on the node of angle 0 of rings 4 and 9, one with a
    # zero on the unit circle): in blocks of two rings of the largest
    # stack, on n shares, each series' means equal its own call, one block
    # per ring
    grid = QuadratureGrid(**dict(SMALL, angular=24))
    ks, ps = [1, 2], [0.5, 1.5, 2.0, 3.0]
    fs = [real_series(30, seed) for seed in (1, 2)] + [random_series(30, seed) for seed in (3, 4, 5)]
    fs += [PowerSeries([-grid.radii[i], 1.0]).pad(30) for i in (4, 9)] + [PowerSeries([0.5, -0.5]).pad(12)]
    with blocks_of(2, 30, grid.angular, 3 * (1 + len(ks))), shares(n):
        got = _ratio_ring_means(fs, ks, ps, grid)
    with blocks_of(1, 30, 8 * grid.angular, 1 + len(ks)), shares(1):
        want = [_ratio_ring_means([f], ks, ps, grid)[0] for f in fs]
    assert got.shape == (len(fs), len(ks), len(ps), grid.radii.size)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_h1_inner_fields_shares_are_bit_identical_to_one(n):
    # blocks of three rings of a stack of five primitives: two t-blocks of
    # five and a short one of two, each summed over its stack by its rings
    grid = QuadratureGrid(**dict(SMALL, angular=24))
    A = random_series(30, 4)
    with blocks_of(3, A.order + 1, grid.angular, 5):
        with shares(1):
            want = _h1_inner_fields(A, 0.9, grid, 12)
        with shares(n):
            got = _h1_inner_fields(A, 0.9, grid, 12)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_bloch_kernel_quantity_shares_are_bit_identical_to_one(n):
    # the kernel polynomials of 48 z nodes in blocks of five u-rings
    grid = QuadratureGrid(**SMALL)
    A = random_series(24, 9)
    w = RadialWeight.standard(1.0)
    with blocks_of(5, 31, 96, 48):
        with shares(1):
            want = bloch_kernel_quantity(A, w, grid, kernel_order=32, z_radii=6, z_angles=8)
        with shares(n):
            got = bloch_kernel_quantity(A, w, grid, kernel_order=32, z_radii=6, z_angles=8)
    assert np.array_equal(
        [got.value, got.value_coarse, got.divergence_flag], [want.value, want.value_coarse, want.divergence_flag]
    )


exponents = st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=4)
orders = st.lists(st.integers(1, 3), min_size=1, max_size=3)


def assert_matches_per_call(got, spy, f, ks, ps, grid):
    # the stacks were sampled at the angular sizes the near-zero rule
    # picks, and each (k, p) entry equals the per-call pass bit for bit,
    # and the per-ring loop at that size to rounding
    assert got.shape == (len(ks), len(ps), grid.radii.size)
    assert angular_sizes(spy) == {near_zero_factor(f, p, grid) * grid.angular for p in ps}
    for i, k in enumerate(ks):
        for j, p in enumerate(ps):
            assert np.array_equal(got[i, j], reference_ratio_ring_means(f, k, p, grid))
            assert_rel(got[i, j], oracle_ratio_ring_means(f, k, p, grid, near_zero_factor(f, p, grid))[0])


def boundary_zero_series(order, seed):
    """``h(z) (1 - z)`` of order ``max(order, 1)``, with ``h = 1 + g / (4
    sum |g_n|)`` for a random g: as ``|h| <= 5/4`` on the disc and ``|h(0)|
    >= 3/4``, ``|f(r_max)| <= (5/4) (1 - r_max)`` stays below the near-zero
    threshold ``2 (1 - r_max) max |c_n|``, on the node of angle 0."""
    g = random_series(max(order, 1) - 1, seed)
    h = 1.0 + g / (4.0 * np.sum(np.abs(g.coeffs)))
    return h.pad(max(order, 1)) * PowerSeries([1.0, -1.0]).pad(max(order, 1))


@settings(max_examples=40, deadline=None)
@given(sampled_cases(), orders, exponents, st.booleans())
def test_ratio_ring_means_match_per_ring_loop(case, ks, ps, near):
    # the buffer holds `rows` rings of the stack [f, f^(k) for k in ks] at
    # the largest angular size; a boundary zero takes the 8x rings for p < 2
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    f = (boundary_zero_series if near else random_series)(order, seed)
    factor = near_zero_factor(f, min(ps), grid)
    if near and min(ps) < 2:
        assert factor == 8
    with blocks_of(rows, f.order, factor * grid.angular, 1 + len(ks)), sampled_sizes() as spy:
        got = _ratio_ring_means([f], ks, ps, grid)[0]
    assert_matches_per_call(got, spy, f, ks, ps, grid)


@settings(max_examples=30, deadline=None)
@given(grid_specs(), st.data(), st.integers(1, 7), orders,
       exponents.filter(lambda ps: min(ps) < 2), st.booleans())
def test_ratio_ring_means_move_rings_with_a_zero_on_a_node(spec, data, rows, ks, ps, near):
    # f = z - r_i vanishes exactly at the node r_i of angle 0: that ring
    # (and any other hit) moves half a radial step outward for p < 2 only.
    # With r_max = r_i the zero lies on the ring the near-zero rule reads,
    # so the p < 2 rings are sampled at 8x
    grid = QuadratureGrid(**spec)
    i = data.draw(st.integers(0, grid.radii.size - 1))
    if near:
        grid = QuadratureGrid(**spec, r_max=float(grid.radii[i]))
    f = PowerSeries([-grid.radii[i], 1.0]).pad(data.draw(st.integers(1, 3 * grid.angular)))
    factor = near_zero_factor(f, min(ps), grid)
    if near:
        assert factor == 8
    assert oracle_ratio_ring_means(f, 1, min(ps), grid, factor)[1] >= 1
    with blocks_of(rows, f.order, factor * grid.angular, 1 + len(ks)), sampled_sizes() as spy:
        got = _ratio_ring_means([f], ks, ps, grid)[0]
    assert_matches_per_call(got, spy, f, ks, ps, grid)


def test_sequence_calls_match_scalar_calls(small_grid):
    # a zero-free input, and one with a zero just outside r_max: for p < 2
    # the second is sampled at 8x the angular rule, for p >= 2 at 1x
    ps, ks = [0.5, 1.0, 2.0, 3.0], [1, 2, 3]
    free = PowerSeries([1.0, 0.4, -0.3, 0.2, 0.1]).pad(40)
    for f in (free, PowerSeries([-0.9995, 1.0]).pad(40)):
        lhs, rhs = prop_main_sides(f, ps, ks, small_grid)
        assert np.shape(lhs) == np.shape(rhs) == (len(ps), len(ks))
        for j, p in enumerate(ps):
            for i, k in enumerate(ks):
                want = prop_main_sides(f, p, k, small_grid)
                assert (lhs[j][i], rhs[j][i]) == want == reference_prop_main_sides(f, p, k, small_grid)
        assert hss_residual(f, ps, small_grid) == [hss_residual(f, p, small_grid) for p in ps]
    sides = nonvanishing_bound_check(free, ps, small_grid)
    assert list(zip(*sides)) == [nonvanishing_bound_check(free, p, small_grid) for p in ps]


@settings(max_examples=40, deadline=None)
@given(sampled_cases(), st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_weighted_sup_matches_per_ring_loop(case, q):
    # one value per series of a stack; the block buffer holds `rows` rings
    # of the whole stack
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    fs = [random_series(order, seed), random_series(order, seed + 1), dilate(random_series(order, seed), 0.9)]
    weight = lambda r: (1.0 - r * r) ** q
    with blocks_of(rows, order, grid.angular, len(fs)):
        got = _weighted_sup(fs, weight, grid)
    assert_rel(got, [oracle_weighted_sup(f, weight, grid) for f in fs])


# ---------------------------------------------------------------------------
# the dilation protocol: two passes against five single-dilation runs
# ---------------------------------------------------------------------------

def oracle_protocol(run, grid):
    """The five-run protocol the two-pass one replaced: ``run(g, r)`` gives
    one raw estimate of the input dilated by ``r``."""
    value = run(grid, 1.0)
    coarse = run(grid.coarsened(), 1.0)
    lo, mid, hi = (run(grid, r) for r in (0.9, 0.99, 0.999))
    flag = hi > 2.0 * lo + 1e-300 and (hi - mid) > 0.7 * (mid - lo) - 1e-300
    return value, coarse, bool(flag)


def dilated(f, r):
    return f if r == 1.0 else dilate(f, r)


def sup_run(f, weight):
    return lambda g, r: oracle_weighted_sup(dilated(f, r), weight, g)


def moebius_run(f, make_field, prefactor=lambda a: 1.0):
    def run(g, r):
        rings = oracle_moebius_ring_means(g, make_field(g, dilated(f, r)))
        pref = np.array([prefactor(a) for a in g.a_grid])
        return float(np.max(rings @ (g.weights * 2.0 * g.radii) * pref))

    return run


def folded(power, q):
    """Per-ring oracle of ``|f|**power (1 - |z|^2)**q`` on the nodes."""
    return lambda g, fr: oracle_sample_folded(g, fr, power) * (1 - g.radii**2)[:, None] ** q


def hp_run(f, p):
    def run(g, r):
        ring = np.abs(oracle_sample_circle(dilated(f, r), g.r_max, g.angular))
        return float(np.mean(ring**p) ** (1.0 / p))

    return run


def h2_run(f):
    """``sup_a ||f o phi_a - f(a)||_{H^2}^2`` as the boundary Poisson integral
    of ``|f - f(0)|^2`` on 2**16 points, less ``|f(a) - f(0)|^2`` (Garsia's
    identity, read by quadrature on the circle, not by coefficients)."""
    M = 2**16
    circle = np.exp(2j * np.pi * np.arange(M) / M)

    def run(g, r):
        fr = dilated(f, r)
        centred = fr - fr.coeffs[0]
        boundary = np.abs(oracle_sample_circle(centred, 1.0, M)) ** 2
        best = 0.0
        for a in g.a_grid:
            poisson = float(np.mean(boundary * (1.0 - abs(a) ** 2) / np.abs(circle - a) ** 2))
            best = max(best, poisson - abs(centred(complex(a))) ** 2)
        return best

    return run


def protocol_cases(f, grid):
    """``name -> (two-pass estimate, single-dilation run)`` for every
    estimator that goes through the dilation protocol."""
    weight = lambda q: (lambda r: (1.0 - r * r) ** q)
    log2 = lambda a: float(_log_weight(abs(a))) ** 2
    coeffs = (f, 0.5 * f, dilate(f, 0.8))
    cases = {
        "hp": (lambda: hp_norm(f, 2.0, grid), hp_run(f, 2.0)),
        "growth": (lambda: growth_norm(f, 1.5, grid), sup_run(f, weight(1.5))),
        "bloch": (lambda: bloch_norm(f, grid), sup_run(f.derivative(), weight(1.0))),
        "bmoa-garsia": (
            lambda: bmoa_garsia(f, grid),
            moebius_run(f, lambda g, fr: oracle_sample_folded(g, fr.derivative(), 2.0)),
        ),
        "bmoa-h2": (lambda: bmoa_h2_def(f, grid), h2_run(f)),
        "nehari": (lambda: nehari_sup(f, grid), sup_run(f, weight(2))),
        "lalpha": (
            lambda: lalpha_norm(f, 1.5, grid),
            sup_run(f, lambda r: (1 - r * r) ** 2 * _log_weight(r) ** 1.5),
        ),
        "bmoa-dd": (lambda: bmoa_dd(f, grid), moebius_run(f, folded(2.0, 2))),
        "lmoa": (lambda: lmoa_quantity(f, grid), moebius_run(f, folded(2.0, 2), log2)),
        "lmoa-square": (
            lambda: lmoa_square(f, grid),
            lambda g, r: oracle_square_sweep(
                g, folded(2.0, 3)(g, dilated(f, r)), lambda a: log2(a) / (1.0 - abs(a))
            ),
        ),
        "bmoa-h1": (
            lambda: bmoa_h1_cond(f, 0.9, grid, t_count=8),
            moebius_run(f, lambda g, fr: _h1_inner_fields(fr, 0.9, g, 8) ** 2),
        ),
    }
    for j, A in enumerate(coeffs):
        cases[f"growth3:{j}"] = (lambda j=j: order3_growth(*coeffs, grid)[j], sup_run(A, weight(3 - j)))
        cases[f"area3:{j}"] = (lambda j=j: order3_area(*coeffs, grid)[j], moebius_run(A, folded(1.0, 1 - j)))
    return cases


PROTOCOL_INPUTS = {
    "log-reciprocal": lambda: log_reciprocal_coefficient(48),
    "lacunary": lambda: lacunary_series(np.ones(5), [2, 4, 8, 16, 32]),
    "smooth": lambda: PowerSeries(
        np.random.default_rng(11).normal(size=41) * 0.8 ** np.arange(41) + 0.3j
    ),
}
PROTOCOL_NAMES = list(protocol_cases(PowerSeries([0.0, 1.0]), QuadratureGrid(angular=8, a_angles=1)))


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("spec", list(PROTOCOL_INPUTS))
def test_two_pass_protocol_matches_five_runs(spec, name, small_grid):
    estimate, run = protocol_cases(PROTOCOL_INPUTS[spec](), small_grid)[name]
    est = estimate()
    value, coarse, flag = oracle_protocol(run, small_grid)
    assert_rel(est.value, value)
    assert_rel(est.value_coarse, coarse)
    assert est.divergence_flag == flag
