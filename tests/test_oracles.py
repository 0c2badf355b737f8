import math

import numpy as np
import pytest

from disclab.geometry import ZeroSequence
from disclab.ode import named_example, solve_series
from disclab.series import PowerSeries
from oracles import jensen_residual, separation_sums


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
        # the solved Hille series vanishes at 0 and at +-tanh(pi/2) inside
        # |z| < 0.99 (the next zeros, +-tanh(pi), lie outside), so its square
        # has double zeros there
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
