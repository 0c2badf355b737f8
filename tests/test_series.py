import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import QuadratureGrid, series
from disclab.series import (
    AccuracyWarning,
    PowerSeries,
    binomial_series,
    compose_moebius,
    dilate,
    exp_series,
    geometric_series,
    log_series,
    modulus_shares,
    pow_series,
    reciprocal_series,
    ring_blocks,
    ring_shares,
    sample_moduli,
    sample_rings,
)

# strategies for points and series inside the disc
disc_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)
coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=3.0, allow_infinity=False, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestEval:
    def test_degree_one(self):
        assert PowerSeries([1, 1])(0.5) == pytest.approx(1.5)

    def test_zero_series(self):
        f = PowerSeries([0.0, 0.0, 0.0])
        assert f(0.3 + 0.4j) == 0.0

    def test_geometric_partial_sum(self):
        # sum_{n<=50} 2^-n = 2 - 2^-50
        f = PowerSeries(np.ones(51))
        assert f(0.5) == pytest.approx(2.0 - 2.0**-50, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 1])(1.0)
        with pytest.raises(ValueError):
            PowerSeries([1, 1])(1.2j)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PowerSeries([1.0, np.inf])
        with pytest.raises(ValueError):
            PowerSeries([np.nan])

    @settings(max_examples=25, deadline=None)
    @given(coeff_lists, coeff_lists, disc_points)
    def test_eval_additivity(self, a, b, z):
        f, g = PowerSeries(a), PowerSeries(b)
        s = f + g
        assert s(z) == pytest.approx(
            PowerSeries(a[: s.order + 1])(z) + PowerSeries(b[: s.order + 1])(z),
            abs=1e-9,
        )


class TestCalculus:
    def test_antiderivative_of_constant(self):
        f = PowerSeries([1.0]).antiderivative(0.0)
        assert np.allclose(f.coeffs, [0.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        f = PowerSeries(rng.standard_normal(13) + 1j * rng.standard_normal(13))
        g = f.derivative().antiderivative(f.coeffs[0])
        assert np.allclose(g.coeffs, f.coeffs[: g.order + 1], atol=1e-15)

    def test_orders(self):
        f = PowerSeries(np.ones(5))
        assert f.derivative().order == 3
        assert f.antiderivative().order == 5
        assert PowerSeries([2.0]).derivative().order == 0


class TestRingOps:
    def test_polynomial_product(self):
        # exact degree-1 polynomials padded so the product keeps its degree
        f = PowerSeries([1, 1]).pad(2)
        g = PowerSeries([1, -1]).pad(2)
        assert np.allclose((f * g).coeffs, [1, 0, -1])

    def test_min_order_truncation(self):
        f = PowerSeries([1, 1])
        g = PowerSeries([1, -1, 0, 2])
        assert (f * g).order == 1
        assert (f + g).order == 1

    def test_exp_times_exp_minus(self):
        e1 = PowerSeries([1 / math.factorial(n) for n in range(31)])
        e2 = PowerSeries([(-1) ** n / math.factorial(n) for n in range(31)])
        prod = (e1 * e2).coeffs
        expect = np.zeros(31)
        expect[0] = 1.0
        assert np.max(np.abs(prod - expect)) < 1e-14

    def test_scalar_ops(self):
        f = PowerSeries([1, 2, 3])
        assert np.allclose((2 * f).coeffs, [2, 4, 6])
        assert np.allclose((f - 1).coeffs, [0, 2, 3])
        assert np.allclose((f / 2).coeffs, [0.5, 1, 1.5])

    def test_tiny_coefficients_flushed(self):
        f = PowerSeries([1.0, 1e-320])
        assert f.coeffs[1] == 0.0


class TestSampleCircle:
    def test_constant(self):
        vals = sample_rings(PowerSeries([2 + 1j]), [0.5], 7)[0]
        assert np.allclose(vals, 2 + 1j)

    def test_monomial(self):
        vals = sample_rings(PowerSeries([0, 1]), [0.5], 4)[0]
        assert np.allclose(vals, [0.5, 0.5j, -0.5, -0.5j])

    @settings(max_examples=20, deadline=None)
    @given(coeff_lists, st.floats(min_value=0.1, max_value=0.99))
    def test_discrete_parseval(self, coeffs, r):
        f = PowerSeries(coeffs)
        M = 2 * f.order + 1
        vals = sample_rings(f, [r], M)[0]
        lhs = np.mean(np.abs(vals) ** 2)
        rhs = np.sum(np.abs(f.coeffs) ** 2 * r ** (2 * np.arange(f.order + 1)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_boundary_radius_allowed(self):
        vals = sample_rings(PowerSeries([0, 1]), [1.0], 4)[0]
        assert np.allclose(vals, [1, 1j, -1, -1j])


def oracle_sample_circle(f, r, M):
    """The one-ring sampler that sample_rings replaced: scale by the
    samplers' two-level table ``r**n = r**(64 a) * r**b``, fold by
    ``np.add.at``, one 1-d inverse FFT."""
    n = np.arange(f.order + 1)
    scaled = f.coeffs * (r ** (64 * (n // 64)) * r ** (n % 64))
    folded = np.zeros(M, dtype=complex)
    np.add.at(folded, n % M, scaled)
    return M * np.fft.ifft(folded)


# the default grid's innermost radial node
INNERMOST = QuadratureGrid().radii[0]


@st.composite
def ring_cases(draw):
    """A series, radii (r = 1 included at times) and a node count M; the
    order falls below or above M, so the fold modulo M is exercised.  The
    radii come in no order, uniform on (1e-3, 1) or log-uniform down to
    INNERMOST, and the order may pass the underflow cut of r**n for all but
    the outer radii: blocks of one buffer then zero more or fewer powers
    than the block before them."""
    M = draw(st.integers(1, 40))
    order = draw(st.integers(0, 5 * M + 3) | st.integers(0, 1500))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    f = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
    count = draw(st.integers(0, 11))
    if draw(st.booleans()):
        radii = list(rng.uniform(1e-3, 1.0, count))
    else:
        radii = list(INNERMOST ** rng.uniform(0.0, 1.0, count))
    if draw(st.booleans()):
        radii.insert(draw(st.integers(0, len(radii))), 1.0)
    return f, radii, M


@st.composite
def stack_cases(draw):
    """A stack of one to four series of one order, radii and a node count."""
    f, radii, M = draw(ring_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = f.order + 1
    more = draw(st.integers(0, 3))
    fs = [f] + [PowerSeries(rng.normal(size=size) + 1j * rng.normal(size=size)) for _ in range(more)]
    return fs, radii, M


# one ring per block, underflow cuts of none, 1077, 109, 41, 464 and none:
# the third and fourth blocks reuse a buffer whose tail the block before
# them filled further
UNDERFLOW_CASE = (
    PowerSeries(np.random.default_rng(3).normal(size=1500) + 0.5j),
    [0.9999999, 0.5, 1e-3, INNERMOST, 0.2, 1.0],
    64,
)


def shares(n):
    """Ring work on ``n`` shares, whatever CPUs the process may use."""
    return mock.patch.object(series, "_cpu_count", lambda: n)


class TestSampleRings:
    @settings(max_examples=150, deadline=None)
    @example(case=UNDERFLOW_CASE, rows=1)
    @example(case=UNDERFLOW_CASE, rows=4)
    @given(ring_cases(), st.integers(1, 5))
    def test_bit_identical_to_one_ring_sampler(self, case, rows):
        # the block buffer is shrunk so that blocks hold `rows` rings (one
        # ring when a single ring is wider), and ring counts that are not a
        # multiple of the block size leave a short last block
        f, radii, M = case
        width = -(-(f.order + 1) // M) * M
        with mock.patch.object(series, "_BLOCK_BYTES", rows * 16 * width):
            sizes = [b.stop - b.start for b in ring_blocks(len(radii), f.order, M)]
            got = sample_rings(f, radii, M)
        short = len(radii) % rows
        assert sizes == [rows] * (len(radii) // rows) + ([short] if short else [])
        assert got.shape == (len(radii), M)
        want = np.array([oracle_sample_circle(f, float(r), M) for r in radii]).reshape(-1, M)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [INNERMOST, 1e-3, 0.2, 0.5, 0.9])
    def test_underflow_cut_keeps_the_last_nonzero_power(self, r):
        # z**n for the last n with r**n > 0 (a subnormal): on one node the
        # ring is r**n itself, so a cut one power too early reads 0
        n = int(np.flatnonzero(r ** np.arange(8000))[-1])
        f = PowerSeries([0.0] * n + [1.0, 0.0, 0.0])
        assert sample_rings(f, [r], 1)[0, 0] == r**n > 0.0

    @settings(max_examples=100, deadline=None)
    @given(stack_cases(), st.integers(1, 5))
    def test_stack_rows_bit_identical_to_one_series_calls(self, case, rows):
        # the buffer holds `rows` rings of the whole stack, so the stack
        # spans several blocks and may leave a short last one; the
        # one-series calls go in blocks of k * rows rings instead
        fs, radii, M = case
        k, width = len(fs), -(-(fs[0].order + 1) // M) * M
        with mock.patch.object(series, "_BLOCK_BYTES", k * rows * 16 * width):
            sizes = [b.stop - b.start for b in ring_blocks(len(radii), fs[0].order, M, k)]
            got = sample_rings(fs, radii, M)
            alone = [sample_rings(f, radii, M) for f in fs]
        short = len(radii) % rows
        assert sizes == [rows] * (len(radii) // rows) + ([short] if short else [])
        assert got.shape == (k, len(radii), M)
        for f, stacked, one in zip(fs, got, alone):
            assert np.array_equal(stacked, one)
            want = np.array([oracle_sample_circle(f, float(r), M) for r in radii]).reshape(-1, M)
            assert np.array_equal(stacked, want)

    @pytest.mark.parametrize("stack", [[], [PowerSeries([1.0]), PowerSeries([1.0, 2.0])]])
    def test_stack_needs_series_of_one_order(self, stack):
        with pytest.raises(ValueError, match="one order"):
            sample_rings(stack, [0.5], 4)

    def test_default_blocks_on_the_default_grid(self):
        # order 4096 on 552 radii and 544 angles: 120 rings per block, a
        # short fifth block, eight folds per ring
        rng = np.random.default_rng(5)
        f = PowerSeries(rng.normal(size=4097) + 1j * rng.normal(size=4097))
        radii = QuadratureGrid().radii
        assert [b.stop - b.start for b in ring_blocks(radii.size, f.order, 544)] == [120] * 4 + [72]
        want = np.array([oracle_sample_circle(f, float(r), 544) for r in radii])
        assert np.array_equal(sample_rings(f, radii, 544), want)

    def test_one_ring_is_sample_circle(self):
        f = PowerSeries([1.0, 2.0 - 1j, 0.5j])
        assert np.array_equal(sample_rings(f, [0.7], 5)[0], oracle_sample_circle(f, 0.7, 5))

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0 + 1e-12, 2.0, math.nan, math.inf])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_rejects_radius_outside_unit_interval(self, bad, at):
        radii = [0.2, 0.5, 1.0]
        radii.insert(at, bad)
        with pytest.raises(ValueError, match="sampling radius"):
            sample_rings(PowerSeries([1.0, 1.0]), radii, 8)
        with pytest.raises(ValueError, match="sampling radius"):
            sample_rings(PowerSeries([1.0, 1.0]), [bad], 8)

    def test_rejects_empty_node_set(self):
        # checked before the output is allocated, which fails otherwise at M < 0
        for M in (0, -1):
            with pytest.raises(ValueError, match="node"):
                sample_rings(PowerSeries([1.0]), [0.5], M)

    def test_no_radii_no_rows(self):
        assert sample_rings(PowerSeries([1.0, 2.0]), [], 6).shape == (0, 6)


def blocks_in_order(f, radii, M, reduce, shift=0):
    """modulus_shares on one share: every block on the calling thread, in
    order, so ``reduce`` may assert and keep what it was given."""
    with shares(1):
        modulus_shares(f, radii, M, reduce, shift=shift)


def never(block, values):
    raise AssertionError("reduce called before the arguments were checked")


class TestSampleBlocks:
    """The complex ring blocks, read through the complex path of
    modulus_shares (every series of ring_cases has a non-real coefficient):
    the blocks that sample_rings gathers, their moduli taken in place."""

    @settings(max_examples=100, deadline=None)
    @example(case=UNDERFLOW_CASE, rows=4)
    @given(ring_cases(), st.integers(1, 5))
    def test_every_block_is_the_one_ring_sampler(self, case, rows):
        # blocks of `rows` rings, a short last one when the count is not a
        # multiple; each block is checked before the next overwrites it, and
        # then overwritten by the caller, which the next block must not see
        f, radii, M = case
        width = -(-(f.order + 1) // M) * M
        seen = []

        def reduce(block, values):
            want = np.abs([oracle_sample_circle(f, float(r), M) for r in radii[block]])
            assert values.shape == (len(want), M) and np.array_equal(values, want)
            values[...] = np.nan
            seen.append(block)

        with mock.patch.object(series, "_BLOCK_BYTES", rows * 16 * width):
            blocks_in_order(f, radii, M, reduce)
        short = len(radii) % rows
        assert [b.stop - b.start for b in seen] == [rows] * (len(radii) // rows) + ([short] if short else [])
        assert [i for b in seen for i in range(b.start, b.stop)] == list(range(len(radii)))

    @pytest.mark.parametrize("rows", [2, 4])
    def test_blocks_share_one_buffer(self, rows):
        # the values of a block are overwritten by the next: reduce first
        f, radii, M = UNDERFLOW_CASE
        width = -(-(f.order + 1) // M) * M
        views = []
        with mock.patch.object(series, "_BLOCK_BYTES", 3 * rows * 16 * width):
            blocks_in_order([f, f, f], radii, M, lambda block, values: views.append(values))
        assert len(views) == -(-len(radii) // rows)
        assert all(np.shares_memory(a, b) for a, b in zip(views, views[1:]))

    def test_arguments_are_checked_before_the_first_block(self):
        with pytest.raises(ValueError, match="sampling radius"):
            modulus_shares(PowerSeries([1.0, 1.0j]), [0.5, 1.5], 8, never)
        with pytest.raises(ValueError, match="node"):
            modulus_shares(PowerSeries([1.0j]), [0.5], 0, never)
        with pytest.raises(ValueError, match="one order"):
            modulus_shares([PowerSeries([1.0j]), PowerSeries([1.0, 2.0j])], [0.5], 4, never)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**16), st.integers(1, 4096), st.integers(1, 8))
def test_ring_blocks_stay_within_the_buffer_budget(rings, order, M, k):
    # the bound that keeps a stacked sampling pass's memory flat: a block's
    # complex buffer for k series never exceeds _BLOCK_BYTES unless it
    # holds a single ring
    blocks = ring_blocks(rings, order, M, k)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rings))
    width = -(-(order + 1) // M) * M
    for b in blocks:
        count = b.stop - b.start
        assert count == 1 or k * count * width * 16 <= series._BLOCK_BYTES


# ---------------------------------------------------------------------------
# the modulus sampler: a half-length real FFT for real stacks
# ---------------------------------------------------------------------------

def real_budget(rows, order, M, k=1):
    """The _BLOCK_BYTES that makes the real path hold ``rows`` rings of a
    stack of ``k`` series: a real fold buffer and a complex half spectrum."""
    width = -(-(order + 1) // M) * M
    return mock.patch.object(series, "_BLOCK_BYTES", k * rows * (8 * width + 16 * (M // 2 + 1)))


def assert_within_ring_max(got, want):
    # FFT rounding is relative to the ring's norm, so bound each entry by
    # 1e-12 times the largest modulus on its ring
    scale = np.max(want, axis=-1, keepdims=True, initial=0.0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def real_part(case):
    f, radii, M = case
    return PowerSeries(f.coeffs.real), radii, M


class TestModulusBlocks:
    @settings(max_examples=150, deadline=None)
    @example(case=real_part(UNDERFLOW_CASE), rows=1, shift=0)
    @example(case=real_part(UNDERFLOW_CASE), rows=4, shift=33)
    @example(case=(PowerSeries([2.5]), [0.5, 1.0, 0.1], 7), rows=2, shift=3)  # order 0, odd M
    @example(case=(PowerSeries([0.0, -1.0, 0.5]), [1.0], 1), rows=1, shift=0)  # one node
    @given(st.builds(real_part, ring_cases()), st.integers(1, 5), st.integers(0, 50))
    def test_real_stack_is_the_one_ring_sampler_to_rounding(self, case, rows, shift):
        # a stack of two real series on the real path: blocks of `rows`
        # rings and a short last one, each shifted by `shift` nodes and
        # checked before the caller overwrites it
        f, radii, M = case
        fs = [f, PowerSeries(f.coeffs[::-1] - 0.25)]
        seen = []

        def reduce(block, values):
            assert values.shape == (2, block.stop - block.start, M) and values.dtype == float
            for g, rows_of_g in zip(fs, values):
                want = [np.roll(np.abs(oracle_sample_circle(g, float(r), M)), shift) for r in radii[block]]
                assert_within_ring_max(rows_of_g, np.reshape(want, (-1, M)))
            values[...] = np.nan
            seen.append(block)

        with real_budget(rows, f.order, M, 2):
            sizes = [b.stop - b.start for b in ring_blocks(len(radii), f.order, M, 2, real=True)]
            blocks_in_order(fs, radii, M, reduce, shift=shift)
        short = len(radii) % rows
        assert sizes == [rows] * (len(radii) // rows) + ([short] if short else [])
        assert [b.stop - b.start for b in seen] == sizes
        moduli = sample_moduli(f, radii, M)
        assert moduli.shape == (len(radii), M)
        assert_within_ring_max(moduli, np.abs(sample_rings(f, radii, M)))

    @settings(max_examples=100, deadline=None)
    @given(stack_cases(), st.integers(1, 5), st.booleans())
    def test_complex_stack_is_the_modulus_of_sample_rings(self, case, rows, mixed):
        # a stack with a non-real coefficient takes the complex path, also
        # when some of its series are real: the moduli are np.abs of the
        # rings exactly, in blocks of the complex budget
        fs, radii, M = case
        if mixed:
            fs = [PowerSeries(fs[0].coeffs.real), *fs]
        k, width = len(fs), -(-(fs[0].order + 1) // M) * M
        blocks = []
        with mock.patch.object(series, "_BLOCK_BYTES", k * rows * 16 * width):
            got = sample_moduli(fs, radii, M)
            blocks_in_order(fs, radii, M, lambda block, values: blocks.append(block))
            assert blocks == ring_blocks(len(radii), fs[0].order, M, k)
        assert got.shape == (k, len(radii), M)
        assert np.array_equal(got, np.abs(sample_rings(fs, radii, M)))

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 50), st.booleans())
    def test_shift_turns_either_path(self, case, shift, real):
        fs, radii, M = case
        if real:
            fs = [PowerSeries(g.coeffs.real) for g in fs]
        got = np.empty((len(fs), len(radii), M))

        def reduce(block, values):
            got[:, block] = values

        blocks_in_order(fs, radii, M, reduce, shift=shift)
        for g, rings in zip(fs, got):
            want = [np.roll(np.abs(oracle_sample_circle(g, float(r), M)), shift) for r in radii]
            assert_within_ring_max(rings, np.reshape(want, (-1, M)))

    def test_default_grid_order_4096(self):
        # 16 folds per ring of M = 256 on the default radii, in blocks of
        # the real budget
        f = PowerSeries(np.random.default_rng(7).normal(size=4097))
        radii = QuadratureGrid().radii
        want = np.abs([oracle_sample_circle(f, float(r), 256) for r in radii])
        assert_within_ring_max(sample_moduli(f, radii, 256), want)

    def test_arguments_are_checked_before_the_first_block(self):
        with pytest.raises(ValueError, match="sampling radius"):
            modulus_shares(PowerSeries([1.0, 1.0]), [0.5, 1.5], 8, never)
        with pytest.raises(ValueError, match="node"):
            modulus_shares(PowerSeries([1.0]), [0.5], 0, never)
        with pytest.raises(ValueError, match="one order"):
            sample_moduli([PowerSeries([1.0]), PowerSeries([1.0, 2.0])], [0.5], 4)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(0, 2**16), st.integers(1, 4096), st.integers(1, 8))
def test_real_ring_blocks_stay_within_the_buffer_budget(rings, order, M, k):
    # the real path's fold buffer and half spectrum together never exceed
    # _BLOCK_BYTES unless a block holds a single ring
    blocks = ring_blocks(rings, order, M, k, real=True)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rings))
    width = -(-(order + 1) // M) * M
    for b in blocks:
        count = b.stop - b.start
        assert count == 1 or k * count * (8 * width + 16 * (M // 2 + 1)) <= series._BLOCK_BYTES


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**17), st.integers(1, 4096), st.integers(1, 8), st.booleans())
def test_share_buffers_stay_within_the_buffer_budget(order, M, k, real):
    # everything one share holds, on either path, is counted by the budget:
    # within _BLOCK_BYTES unless a block holds a single ring
    c = np.ones((k, order + 1)) + (0.0 if real else 1j)
    rings = series._Rings(c, np.array([0.5]), M, modulus=True)
    assert rings.real == real
    rows = rings.rows(1)
    assert rows == 1 or sum(b.nbytes for b in rings.allocate(rows)) <= series._BLOCK_BYTES


# ---------------------------------------------------------------------------
# ring shares: the blocks of a sampling call side by side on the CPUs
# ---------------------------------------------------------------------------

def counted_threads():
    """``threading.Thread`` with a count of the threads made."""
    return mock.patch.object(threading, "Thread", wraps=threading.Thread)


class TestRingShares:
    @settings(max_examples=60, deadline=None)
    @example(case=([UNDERFLOW_CASE[0]], *UNDERFLOW_CASE[1:]), rows=1, n=3, real=False)  # 6 blocks of 1 ring, 3 shares
    @example(case=([UNDERFLOW_CASE[0]], *UNDERFLOW_CASE[1:]), rows=4, n=2, real=True)  # a short last block
    @given(stack_cases(), st.integers(1, 5), st.sampled_from([2, 3]), st.booleans())
    def test_shares_are_bit_identical_to_one(self, case, rows, n, real):
        # the budget holds `rows` rings of the stack, so the ring count is
        # rarely a multiple of the blocks or the shares; every output of
        # two or three shares equals the one-share pass bit for bit
        fs, radii, M = case
        if real:
            fs = [PowerSeries(g.coeffs.real) for g in fs]
        width = -(-(fs[0].order + 1) // M) * M
        on_real = not any(np.any(g.coeffs.imag) for g in fs)
        before = threading.active_count()
        with mock.patch.object(series, "_BLOCK_BYTES", len(fs) * rows * 16 * width):
            with shares(1), counted_threads() as made:
                want = [sample_rings(fs, radii, M), sample_moduli(fs, radii, M), sample_moduli(fs[0], radii, M)]
            assert made.call_count == 0
            with shares(n), counted_threads() as made:
                got = [sample_rings(fs, radii, M), sample_moduli(fs, radii, M), sample_moduli(fs[0], radii, M)]
            # one thread per share but the calling one, as many shares as serial blocks at most
            serial = [(len(fs), False), (len(fs), on_real), (1, on_real)]
            counts = [len(ring_blocks(len(radii), fs[0].order, M, k, path)) for k, path in serial]
        assert made.call_count == sum(max(0, min(n, c) - 1) for c in counts)
        assert threading.active_count() == before
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_a_call_in_one_block_starts_no_thread(self):
        f, radii, M = UNDERFLOW_CASE
        with shares(4), counted_threads() as made:
            sample_rings([f, f], radii, M)
            sample_moduli(PowerSeries(f.coeffs.real), radii, M)
            QuadratureGrid().sample_folded(PowerSeries(f.coeffs[:100]))
        assert made.call_count == 0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("real", [True, False])
    def test_no_radii_allocate_and_reduce_nothing(self, n, real):
        f = UNDERFLOW_CASE[0]
        f = PowerSeries(f.coeffs.real) if real else f
        blocks, allocated = [], []
        with shares(n), counted_threads() as made:
            modulus_shares(f, [], 64, lambda block, values: blocks.append(block))
            one, stack = sample_moduli(f, [], 64), sample_moduli([f, f], [], 64)
            ring_shares(0, lambda k: 1, allocated.append, lambda block, buffers: blocks.append(block))
        assert blocks == allocated == [] and made.call_count == 0
        assert one.shape == (0, 64) and stack.shape == (2, 0, 64)

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_are_cut_for_the_shares_and_run_once(self, n):
        # ten serial blocks of four rings: n shares cut them at 4 // n rings,
        # and the calling thread allocates the buffers of every share
        caller, ran, allocated = threading.current_thread(), [], []

        def allocate(rows):
            allocated.append((rows, threading.current_thread()))
            return object()

        def work(block, buffer):
            ran.append((block, buffer, threading.current_thread()))

        with shares(n):
            ring_shares(39, lambda k: 4 // k, allocate, work)
        assert allocated == [(4 // n, caller)] * n
        assert sorted((b.start, b.stop) for b, _, _ in ran) == [(s, min(s + 4 // n, 39)) for s in range(0, 39, 4 // n)]
        buffers = {}  # each share, on its own thread, keeps one buffer
        for _, buffer, thread in ran:
            buffers.setdefault(thread, set()).add(id(buffer))
        assert len(buffers) <= n and all(len(ids) == 1 for ids in buffers.values())

    def test_every_block_runs_once_under_contention(self):
        # more shares than CPUs and a switch interval of a microsecond: a
        # block claimed twice or lost would leave a count other than one
        counts = np.zeros(400, dtype=int)

        def work(block, buffer):
            counts[block] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with shares(8):
                ring_shares(400, lambda k: 1, lambda rows: None, work)
        finally:
            sys.setswitchinterval(interval)
        assert np.all(counts == 1)

    @pytest.mark.parametrize("where", ["calling", "other"])
    def test_an_exception_in_a_share_is_raised_on_the_calling_thread(self, where):
        # two blocks on two shares, each held at a barrier until both have
        # taken one; then the share named by `where` raises, and no thread
        # is left running
        caller, before = threading.current_thread(), threading.active_count()
        both = threading.Barrier(2, timeout=10)

        def work(block, buffer):
            both.wait()
            if (threading.current_thread() is caller) == (where == "calling"):
                raise KeyError(block.start)

        with shares(2), pytest.raises(KeyError):
            ring_shares(2, lambda k: 1, lambda rows: None, work)
        assert threading.active_count() == before


# entries at and around the flush threshold, subnormals included
tiny = st.sampled_from([5e-324, -1e-310, 2.5e-308, 1e-301, 1e-300, -3e-300, 1e-299])


# radii and a row width for the power table
TABLE_CASES = pytest.mark.parametrize(
    "radii, size",
    [
        ([1.0, 1.0 - 2.0**-44], 1000),  # no cut; 1000 = 15 * 64 + 40
        ([0.999, 1.0], 1024),  # no cut; 16 whole rows of 64
        ([0.5, 0.3], 1500),  # cut at 1077 = 16 * 64 + 53: subnormal powers up to it
        ([0.75], 2700),  # cut at 2592 = 40 * 64 + 32
        ([INNERMOST], 200),  # cut at 41, below one row of 64
        (list(QuadratureGrid().radii), 1025),  # the default grid at order 1024
    ],
)


class TestPowerTable:
    """The two-level table ``r**(64 a + b) = r**(64 a) * r**b`` that scales
    every fold, real rows and complex, against one ``pow`` per entry.  Each
    factor is within an ulp of its exact value and the product adds half
    an ulp, so an entry can stray from ``pow`` by a few ulp (2 at most on
    these cases; a subnormal one scaled by 4 strays by 4 of its ulp).  A
    complex table has imaginary part 0, so each part of a complex row
    scales as a real row does."""

    @staticmethod
    def ulp_from_pow(radii, size, scale):
        # a stack of three: exact multiples of the table, the first row
        # scaled last and in place
        r = np.array(radii)
        c = np.array([[-2.0], [1.0], [4.0]]) * np.full(size, scale)
        buffer = np.full((3, r.size, size), np.nan, dtype=c.dtype)
        folded = series._fold(c, r, size, buffer)
        assert folded.shape == (3, r.size, size)
        want = c[:, None, :] * r[:, None] ** np.arange(size)
        return max(np.max(np.abs(part(folded) - part(want)) / np.spacing(np.abs(part(want)))) for part in (np.real, np.imag))

    @TABLE_CASES
    def test_within_a_few_ulp_of_pow(self, radii, size):
        assert self.ulp_from_pow(radii, size, 1.0) <= 4.0

    @TABLE_CASES
    def test_complex_rows_within_a_few_ulp_of_pow(self, radii, size):
        assert self.ulp_from_pow(radii, size, 1.0 - 0.5j) <= 4.0


class TestArrayStacks:
    @settings(max_examples=80, deadline=None)
    @given(stack_cases(), st.data(), tiny, st.booleans())
    def test_array_stack_is_the_series_stack(self, case, data, small, real):
        # a 2-D coefficient array samples as the stack of its rows wrapped
        # in PowerSeries: the same flush, bit for bit, on either path
        fs, radii, M = case
        c = np.array([g.coeffs for g in fs])
        if real:
            c = c.real.copy()
        i = data.draw(st.integers(0, c.shape[0] - 1))
        j = data.draw(st.integers(0, c.shape[1] - 1))
        c[i, j] = small if real else small * data.draw(st.sampled_from([1.0, 1j, 1 + 1j]))
        wrapped = [PowerSeries(row) for row in c]
        for sampler in (sample_rings, sample_moduli):
            assert np.array_equal(sampler(c, radii, M), sampler(wrapped, radii, M))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize(
        "sampler",
        [sample_rings, lambda c, radii, M: modulus_shares(c, radii, M, never), sample_moduli],
        ids=["sample_rings", "modulus_shares", "sample_moduli"],
    )
    def test_non_finite_entry_is_rejected(self, bad, sampler):
        c = np.ones((3, 5), dtype=complex)
        c[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            sampler(c, [0.5], 4)

    def test_empty_array_is_rejected(self):
        with pytest.raises(ValueError, match="one or more"):
            sample_rings(np.zeros((0, 3)), [0.5], 4)


class TestComposeMoebius:
    def test_centre_zero_is_sign_flip(self):
        f = PowerSeries([0, 1])
        assert np.allclose(compose_moebius(f, 0.0).coeffs, [0, -1])

    def test_identity_closed_form(self):
        # phi_a(z) = a - (1-|a|^2) sum conj(a)^{n-1} z^n
        a = 0.3 + 0.4j
        comp = compose_moebius(PowerSeries([0, 1]).pad(40), a)
        n = np.arange(1, 41)
        expect = np.concatenate([[a], -(1 - abs(a) ** 2) * np.conj(a) ** (n - 1)])
        assert np.max(np.abs(comp.coeffs - expect)) < 1e-12

    def test_involution_as_functions(self):
        # double composition reproduces f as a function on |z| <= 1/2; the
        # discarded tail of the order-30 intermediate bounds this by roughly
        # (|a| (|a|+1/2)/(1+|a|/2))^30, so |a| is kept at 0.4 here (larger
        # centres are covered by the resolved-intermediate test below)
        rng = np.random.default_rng(1)
        f = PowerSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4)).pad(30)
        z = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        for a in (0.2, -0.35, 0.3j, 0.28 + 0.28j):
            double = compose_moebius(compose_moebius(f, a), a)
            assert np.max(np.abs(double(z) - f(z))) < 1e-10

    def test_involution_coefficients_resolved_intermediate(self):
        # with the intermediate order widened enough to resolve the
        # composition (tail ~ C(n, deg) |a|^n), the round trip returns the
        # original coefficients, |a| up to 0.7
        rng = np.random.default_rng(2)
        f = PowerSeries(rng.standard_normal(5) + 1j * rng.standard_normal(5)).pad(30)
        for a in (0.7, -0.55, 0.5 + 0.4j):
            mid = compose_moebius(f, a, out_order=200)
            double = compose_moebius(mid, a, out_order=200).truncate(30)
            assert np.max(np.abs(double.coeffs - f.coeffs)) < 1e-10

    def test_tail_warning(self):
        # composing a slowly-decaying composition at too small an order warns
        f = PowerSeries(np.ones(24))
        with pytest.warns(AccuracyWarning):
            compose_moebius(f, 0.9)

    def test_centre_outside_disc(self):
        with pytest.raises(ValueError):
            compose_moebius(PowerSeries([0, 1]), 1.0)


class TestTranscendentals:
    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(3)
        f = PowerSeries(0.5 * (rng.standard_normal(17) + 1j * rng.standard_normal(17)))
        g = log_series(exp_series(f))
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12

    def test_pow_squares(self):
        f = PowerSeries([1.0, 0.3, -0.2, 0.05])
        g = pow_series(f, 2.0)
        direct = (f.pad(6) * f.pad(6)).truncate(3)
        assert np.max(np.abs(g.coeffs - direct.coeffs)) < 1e-12

    def test_reciprocal(self):
        f = PowerSeries([2.0, 1.0, -0.5, 0.25])
        r = reciprocal_series(f)
        prod = (f * r).coeffs
        assert np.allclose(prod, [1, 0, 0, 0], atol=1e-14)

    def test_geometric_and_binomial(self):
        g = geometric_series(0.5, 6)
        assert np.allclose(g.coeffs, 0.5 ** np.arange(7))
        b = binomial_series(2, 1.0, 5)
        assert np.allclose(b.coeffs, np.arange(1, 7))  # (1-z)^-2

    def test_dilate(self):
        f = PowerSeries([1.0, 2.0, 4.0])
        assert np.allclose(dilate(f, 0.5).coeffs, [1.0, 1.0, 1.0])
