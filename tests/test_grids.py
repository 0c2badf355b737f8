"""The shift-invariant centre sweep engine and the blocked ring sampling
against the per-centre and per-ring loops they replaced.

The oracles below are the straightforward passes: one weight matrix per
Moebius centre or Carleson square over the full node matrix, and one
``np.add.at`` fold and 1-d inverse FFT per ring.  They live here only, as
the slow paths the fast ones are checked against.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import QuadratureGrid, series
from disclab.conditions import _log_weight, decay_conditions
from disclab.hardy import _ratio_ring_means
from disclab.norms import _square_sup, _weighted_sup, carleson_norm, square_sweep
from disclab.series import PowerSeries

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


def oracle_square_weights(grid, a):
    if a == 0:
        return None
    half = (1.0 - abs(a)) / 2.0
    cell = 2.0 * np.pi / grid.angular
    d = np.abs((grid.thetas - np.angle(a) + np.pi) % (2 * np.pi) - np.pi)
    overlap = np.clip((half + cell / 2.0 - d) / cell, 0.0, 1.0)
    radial = (grid.radii > abs(a)).astype(float)
    return radial[:, None] * overlap[None, :]


def oracle_square_ring_means(grid, field):
    rows = []
    for a in grid.a_grid:
        w = oracle_square_weights(grid, a)
        rows.append((field if w is None else field * w).mean(axis=1))
    return np.array(rows)


def oracle_square_sweep(grid, field, prefactor, rcap=None):
    mask = grid.radial_mask(rcap)
    wq = grid.weights[mask] * 2.0 * grid.radii[mask]
    best = 0.0
    for a in grid.a_grid:
        if rcap is not None and abs(a) > rcap:
            continue
        w = oracle_square_weights(grid, a)
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
    pref = lambda a: 1.0 / (1.0 - abs(a))
    assert_rel(grid.square_ring_means(field), oracle_square_ring_means(grid, field))
    assert_rel(square_sweep(grid, field, pref), oracle_square_sweep(grid, field, pref))


@settings(max_examples=30, deadline=None)
@with_examples
@given(grid_specs(), st.integers(0, 2**32 - 1))
def test_carleson_probes_match_per_centre_loop(spec, seed):
    grid = QuadratureGrid(**spec)
    field = field_for(grid, seed)
    pref = lambda a: 1.0 / (1.0 - abs(a))
    rings = grid.square_ring_means(field)
    for rcap in (0.9, 0.999, *grid.a_radii):
        assert_rel(_square_sup(grid, rings, pref, rcap), oracle_square_sweep(grid, field, pref, rcap))
    est = carleson_norm(field, grid)
    assert_rel(est.value, oracle_square_sweep(grid, field, pref))
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
    buffer holding 1 to 7 rings, and a seed."""
    spec = draw(grid_specs())
    order = draw(st.integers(0, 6 * spec["angular"]))
    rows = draw(st.integers(1, 7))
    return spec, order, rows, draw(st.integers(0, 2**32 - 1))


def blocks_of(rows, order, M):
    """The block buffer size that makes ring_blocks hold ``rows`` rings."""
    return mock.patch.object(series, "_BLOCK_BYTES", rows * 16 * (-(-(order + 1) // M) * M))


def random_series(order, seed):
    rng = np.random.default_rng(seed)
    return PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))


@settings(max_examples=40, deadline=None)
@given(sampled_cases(), st.sampled_from([1.0, 2.0, 0.5, 3.0]))
def test_sample_folded_matches_per_ring_loop(case, power):
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    f = random_series(order, seed)
    up = min(max(int(np.ceil((2 * order + 2) / grid.angular)), 1), 16)
    with blocks_of(rows, order, up * grid.angular):
        got = grid.sample_folded(f, power=power)
    assert_rel(got, oracle_sample_folded(grid, f, power))


@settings(max_examples=40, deadline=None)
@given(sampled_cases(), st.integers(1, 3), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       st.sampled_from([1, 2, 8]))
def test_ratio_ring_means_match_per_ring_loop(case, k, p, upsample):
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    f = random_series(order, seed)
    with blocks_of(rows, order, upsample * grid.angular):
        got = _ratio_ring_means(f, k, p, grid, upsample)
    assert_rel(got, oracle_ratio_ring_means(f, k, p, grid, upsample)[0])


@settings(max_examples=30, deadline=None)
@given(grid_specs(), st.data(), st.integers(1, 7), st.sampled_from([0.5, 1.0, 1.5]),
       st.sampled_from([1, 8]))
def test_ratio_ring_means_move_rings_with_a_zero_on_a_node(spec, data, rows, p, upsample):
    # f = z - r_i vanishes exactly at the node r_i of angle 0: that ring
    # (and any other hit) moves half a radial step outward
    grid = QuadratureGrid(**spec)
    i = data.draw(st.integers(0, grid.radii.size - 1))
    f = PowerSeries([-grid.radii[i], 1.0]).pad(data.draw(st.integers(1, 3 * grid.angular)))
    want, shifted = oracle_ratio_ring_means(f, 1, p, grid, upsample)
    assert shifted >= 1
    with blocks_of(rows, f.order, upsample * grid.angular):
        got = _ratio_ring_means(f, 1, p, grid, upsample)
    assert_rel(got, want)


@settings(max_examples=40, deadline=None)
@given(sampled_cases(), st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_weighted_sup_matches_per_ring_loop(case, q):
    spec, order, rows, seed = case
    grid = QuadratureGrid(**spec)
    f = random_series(order, seed)
    weight = lambda r: (1.0 - r * r) ** q
    with blocks_of(rows, order, grid.angular):
        got = _weighted_sup(f, weight, grid)
    assert_rel(got, oracle_weighted_sup(f, weight, grid))
