import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab.geometry import ZeroSequence, greedy_partition, pseudo_hyp, separation_constants
from oracles import greedy_groups_pairwise

disc = st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False)


def hille_zeros(gamma, ks):
    return [math.tanh(k * math.pi / (2 * gamma)) for k in ks]


class TestMoebiusMaps:
    @settings(max_examples=30, deadline=None)
    @given(disc, disc, disc)
    def test_pseudo_hyp_moebius_invariance(self, a, b, c):
        def phi(z):  # the disc automorphism (c - z)/(1 - conj(c) z)
            return (c - z) / (1.0 - np.conj(c) * z)

        lhs = pseudo_hyp(phi(a), phi(b))
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
            assert math.atanh(pseudo_hyp(x1, x2)) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_symmetry_and_zero(self):
        a, b = 0.2 + 0.1j, -0.4j
        assert pseudo_hyp(a, b) == pytest.approx(pseudo_hyp(b, a))
        assert pseudo_hyp(a, a) == 0.0

    def test_broadcasts_over_arrays(self):
        rng = np.random.default_rng(2)
        a = 0.9 * rng.random(5) * np.exp(2j * np.pi * rng.random(5))
        b = 0.9 * rng.random(3) * np.exp(2j * np.pi * rng.random(3))
        got = pseudo_hyp(a[:, None], b[None, :])
        want = [[pseudo_hyp(complex(u), complex(v)) for v in b] for u in a]
        assert got.shape == (5, 3)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


class TestZeroSequence:
    def test_rejects_multiplicity_below_one(self):
        with pytest.raises(ValueError, match="multiplicities"):
            ZeroSequence(((0.2, 0),))

    def test_length_counts_multiplicity(self):
        assert len(ZeroSequence(((0.2, 3), (0.5j, 1)))) == 4
        assert len(ZeroSequence(())) == 0

    def test_expand_repeats_each_point_in_order(self):
        seq = ZeroSequence(((0.2, 2), (-0.4, 1), (0.1j, 3)))
        assert seq.expand() == [0.2, 0.2, -0.4, 0.1j, 0.1j, 0.1j]
        assert ZeroSequence.simple([0.3, -0.1]).points == ((0.3, 1), (-0.1, 1))


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

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("multiplicity", [1, 3])
    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.9, 0.95])
    def test_matches_pairwise_oracle_on_hille_zeros(self, gamma, multiplicity, delta):
        xs = [x for x in hille_zeros(gamma, range(1, 41)) if x < 1.0]
        seq = ZeroSequence(tuple((x, multiplicity) for x in xs))
        assert [list(g) for g in greedy_partition(seq, delta).partition] == greedy_groups_pairwise(seq, delta)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_oracle_away_from_ties(self, seed):
        rng = np.random.default_rng(seed)
        pts = 0.95 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        seq = ZeroSequence.simple(pts)
        d = pseudo_hyp(pts[:, None], pts[None, :])
        # a distance within 1e-12 of delta could fall either side under round-off
        delta = next(t for t in (0.3, 0.31, 0.32, 0.33) if np.all(np.abs(d - t) > 1e-12))
        assert [list(g) for g in greedy_partition(seq, delta).partition] == greedy_groups_pairwise(seq, delta)
