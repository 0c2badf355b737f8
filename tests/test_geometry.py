import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab.geometry import (
    ZeroSequence,
    greedy_partition,
    hyp_dist,
    in_carleson_square,
    jensen_residual,
    moebius,
    moebius_deriv,
    pseudo_hyp,
    separation_constants,
    separation_sums,
)
from disclab.ode import named_example, solve_series
from disclab.series import PowerSeries

disc = st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False)


def hille_zeros(gamma, ks):
    return [math.tanh(k * math.pi / (2 * gamma)) for k in ks]


class TestMoebiusMaps:
    def test_centre_zero(self):
        z = 0.3 + 0.1j
        assert moebius(0.0, z) == pytest.approx(-z)

    def test_fixes_centre(self):
        assert moebius(0.4 + 0.2j, 0.4 + 0.2j) == pytest.approx(0.0)

    def test_derivative_formula(self):
        a, z = 0.5j, 0.2
        h = 1e-6
        fd = (moebius(a, z + h) - moebius(a, z - h)) / (2 * h)
        assert moebius_deriv(a, z) == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(disc, disc)
    def test_involution(self, a, z):
        assert moebius(a, moebius(a, z)) == pytest.approx(z, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(disc, disc, disc)
    def test_pseudo_hyp_moebius_invariance(self, a, b, c):
        lhs = pseudo_hyp(moebius(c, a), moebius(c, b))
        assert lhs == pytest.approx(pseudo_hyp(a, b), abs=1e-13)


class TestDistances:
    def test_from_origin(self):
        assert pseudo_hyp(0.0, 0.3 + 0.4j) == pytest.approx(0.5)

    def test_tanh_addition_law(self):
        for s, t in [(0.3, 1.1), (-0.7, 0.4), (2.0, 2.5)]:
            got = pseudo_hyp(math.tanh(s), math.tanh(t))
            assert got == pytest.approx(math.tanh(abs(s - t)), abs=1e-13)

    def test_hille_consecutive_gap(self):
        # consecutive zeros tanh(k pi/2) sit at hyperbolic distance pi/2
        xs = hille_zeros(1.0, range(1, 5))
        for x1, x2 in zip(xs, xs[1:]):
            assert hyp_dist(x1, x2) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_symmetry_and_zero(self):
        a, b = 0.2 + 0.1j, -0.4j
        assert pseudo_hyp(a, b) == pytest.approx(pseudo_hyp(b, a))
        assert pseudo_hyp(a, a) == 0.0


class TestCarlesonSquare:
    def test_origin_square_is_disc(self):
        assert in_carleson_square(0.0, 0.0)
        assert in_carleson_square(-0.9j, 0.0)

    def test_radial_alignment(self):
        assert in_carleson_square(0.9, 0.5)
        assert not in_carleson_square(0.9 * np.exp(1j), 0.5)

    def test_modulus_constraint(self):
        assert not in_carleson_square(0.3, 0.5)


class TestSeparationConstants:
    def test_single_point_convention(self):
        rep = separation_constants(ZeroSequence.simple([0.2]))
        assert rep.separation_constant == 1.0
        assert rep.uniform_separation_constant == 1.0

    def test_empty_convention(self):
        rep = separation_constants(ZeroSequence(()))
        assert rep.separation_constant == 1.0

    def test_one_pair(self):
        a = 0.5j
        rep = separation_constants(ZeroSequence.simple([0.0, a]))
        assert rep.separation_constant == pytest.approx(0.5)
        assert rep.uniform_separation_constant == pytest.approx(0.5)

    def test_multiplicity_collapses_to_zero(self):
        rep = separation_constants(ZeroSequence(((0.3, 2),)))
        assert rep.separation_constant == 0.0
        assert rep.uniform_separation_constant == 0.0

    def test_hille_first_six(self):
        # consecutive pseudo-hyperbolic gaps are tanh(pi/2); float noise in
        # the pairwise formula limits how many boundary zeros are usable
        rep = separation_constants(ZeroSequence.simple(hille_zeros(1.0, range(1, 7))))
        assert rep.separation_constant == pytest.approx(math.tanh(math.pi / 2), abs=1e-9)

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            ZeroSequence.simple([1.0])


class TestGreedyPartition:
    def test_multiplicity_needs_that_many_groups(self):
        rep = greedy_partition(ZeroSequence(((0.1 + 0.1j, 3),)), delta=0.5)
        assert rep.partition_count == 3

    def test_hille_simple_single_group(self):
        seq = ZeroSequence.simple(hille_zeros(1.0, range(1, 9)))
        rep = greedy_partition(seq, delta=0.5)
        assert rep.partition_count == 1

    def test_squared_hille_doubles_two_groups(self):
        xs = hille_zeros(1.0, range(0, 12))
        rep = greedy_partition(ZeroSequence(tuple((x, 2) for x in xs)), delta=0.9)
        assert rep.partition_count == 2

    def test_every_group_is_delta_separated(self):
        rng = np.random.default_rng(4)
        pts = 0.8 * (rng.random(14) * np.exp(2j * np.pi * rng.random(14)))
        rep = greedy_partition(ZeroSequence.simple(pts), delta=0.4)
        for group in rep.partition:
            for i, u in enumerate(group):
                for v in group[i + 1 :]:
                    assert pseudo_hyp(u, v) >= 0.4

    def test_lemma_style_bound_on_constructed_families(self):
        # families built with a matching delta never need more than
        # floor(M) + p groups, M the sup of the quadratic separation sums
        families = [
            (ZeroSequence.simple(hille_zeros(1.0, range(1, 9))), 0.5),
            (ZeroSequence(tuple((x, 2) for x in hille_zeros(1.0, range(0, 10)))), 0.9),
            (ZeroSequence.simple([math.tanh(0.3 * k) for k in range(1, 12)]), 0.25),
            (ZeroSequence(((0.2, 4),)), 0.5),
            (
                ZeroSequence.simple(
                    [math.tanh(0.5 * k) for k in range(1, 9)]
                    + [math.tanh(0.5 * k) * 1j for k in range(1, 9)]
                ),
                0.2,
            ),
        ]
        for seq, delta in families:
            flat = seq.expand()
            M = max(separation_sums(seq, a, 2) for a in set(flat))
            p = max(m for _, m in seq.points)
            rep = greedy_partition(seq, delta)
            assert rep.partition_count <= math.floor(M) + p


class TestSeparationSums:
    def test_singleton(self):
        assert separation_sums(ZeroSequence.simple([0.4]), 0.4, 2) == 0.0

    def test_one_term(self):
        r = 0.6
        val = separation_sums(ZeroSequence.simple([0.0, r]), 0.0, 2)
        assert val == pytest.approx((1 - r**2) ** 2)

    def test_hille_direct_summation_oracle(self):
        ks = [k for k in range(0, 20) if math.tanh(k * math.pi / 2) < 1.0]
        xs = [math.tanh(k * math.pi / 2) for k in ks]
        seq = ZeroSequence.simple(xs)
        val = separation_sums(seq, 0.0, 2)
        oracle = sum((1 - x**2) ** 2 for x in xs[1:])
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        pts = 0.7 * rng.random(8) * np.exp(2j * np.pi * rng.random(8))
        w = np.exp(0.7j)
        v1 = separation_sums(ZeroSequence.simple(pts), pts[3], 1)
        v2 = separation_sums(ZeroSequence.simple(w * pts), w * pts[3], 1)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_base_point_must_belong(self):
        with pytest.raises(ValueError):
            separation_sums(ZeroSequence.simple([0.1, 0.2]), 0.5, 2)


class TestJensen:
    def test_pure_square_collapses(self):
        assert jensen_residual(PowerSeries([0, 0, 1.0]), 0.7, ZeroSequence(())) < 1e-14

    def test_cubic_with_known_zero(self):
        b = 0.55
        g = PowerSeries([0, 0, 1.0, -1.0 / b])
        assert jensen_residual(g, 0.9, ZeroSequence.simple([b])) < 1e-8

    def test_angular_refinement(self):
        b = 0.4 + 0.3j
        g = PowerSeries([0, 0, 1.0, -1.0 / b])
        coarse = jensen_residual(g, 0.8, ZeroSequence.simple([b]), angular=32)
        fine = jensen_residual(g, 0.8, ZeroSequence.simple([b]), angular=4096)
        assert fine <= coarse + 1e-15
        assert fine < 1e-10

    def test_squared_hille(self):
        ex = named_example("hille:gamma=1.0", order=1024)
        f = solve_series(ex.problem)
        g = f * f
        x1 = math.tanh(math.pi / 2)
        res = jensen_residual(g, 0.99, ZeroSequence(((x1, 2), (-x1, 2))), angular=8192)
        assert res < 1e-6

    def test_requires_double_zero(self):
        with pytest.raises(ValueError):
            jensen_residual(PowerSeries([1.0, 0, 1.0]), 0.5, ZeroSequence(()))

    def test_zero_on_circle_rejected(self):
        g = PowerSeries([0, 0, 1.0, -2.0])
        with pytest.raises(ValueError):
            jensen_residual(g, 0.5, ZeroSequence.simple([0.5]))
