"""The shift-invariant centre sweep engine against the per-centre loops it
replaced.

The oracles below are the straightforward per-centre passes over the full
node matrix: one weight matrix per Moebius centre or Carleson square.  They
live here only, as the slow path the engine is checked against.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import QuadratureGrid
from disclab.conditions import _log_weight, decay_conditions
from disclab.norms import _square_sup, carleson_norm, square_sweep
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
