import math
import warnings

import numpy as np
import pytest

from numpy.polynomial import polynomial as P

from disclab.ode import (
    ODEProblem,
    _bracketed_roots,
    hille_zero_table,
    named_example,
    residual,
    solve_series,
    symmetric_power_problem,
    transform_order2,
    transform_order3,
)
from disclab.series import AccuracyWarning, PowerSeries, compose_moebius


def zeros_series(order):
    return PowerSeries(np.zeros(order + 1, dtype=complex))


def closed_form_coeffs(fn, order, r=0.9, M=2048):
    """Taylor-coefficient oracle: FFT of closed-form boundary values."""
    z = r * np.exp(2j * np.pi * np.arange(M) / M)
    return np.fft.fft(fn(z)) / M / r ** np.arange(M)


class TestSolve:
    def test_trivial_linear_solution(self):
        p = ODEProblem(2, (zeros_series(20), zeros_series(20)), (0.0, 1.0), 20)
        f = solve_series(p)
        expect = np.zeros(21)
        expect[1] = 1.0
        assert np.allclose(f.coeffs, expect)

    def test_hille_matches_closed_form(self):
        ex = named_example("hille:gamma=1.0", order=80)
        f = solve_series(ex.problem)
        oracle = closed_form_coeffs(
            lambda z: np.sqrt(1 - z**2) * np.sin(np.log((1 + z) / (1 - z))), 80
        )
        assert np.max(np.abs(f.coeffs[:61] - oracle[:61])) < 1e-10
        # and the packaged reference series agrees
        assert np.max(np.abs(f.coeffs[:61] - ex.reference.coeffs[:61])) < 1e-10

    def test_exp_singular_matches_closed_form(self):
        ex = named_example("exp-singular", order=80)
        f = solve_series(ex.problem)
        oracle = closed_form_coeffs(lambda z: np.exp(-(1 + z) / (1 - z)), 80)
        assert np.max(np.abs(f.coeffs[:61] - oracle[:61])) < 1e-10

    def test_constant_example(self):
        ex = named_example("constant:c=0.25", order=40)
        f = solve_series(ex.problem)
        oracle = closed_form_coeffs(lambda z: np.cos(0.5 * z), 40)
        assert np.max(np.abs(f.coeffs - oracle[:41])) < 1e-12

    def test_linearity_in_initial_values(self):
        ex = named_example("hille:gamma=0.7", order=60)
        A = ex.coefficient
        z = zeros_series(60)

        def solve_iv(v0, v1):
            return solve_series(ODEProblem(2, (A, z), (v0, v1), 60))

        a, b = 1.3 - 0.2j, 0.4 + 1j
        combo = solve_iv(a * 1.0 + b * 0.5, a * 2.0 + b * (-1.0))
        direct = a * solve_iv(1.0, 2.0) + b * solve_iv(0.5, -1.0)
        assert np.max(np.abs(combo.coeffs - direct.coeffs)) < 1e-13

    def test_wronskian_constant(self):
        ex = named_example("hille:gamma=1.0", order=256)
        A = ex.coefficient
        z = zeros_series(256)
        f1 = solve_series(ODEProblem(2, (A, z), (1.0, 0.0), 256))
        f2 = solve_series(ODEProblem(2, (A, z), (0.0, 1.0), 256))
        w = f1 * f2.derivative() - f2 * f1.derivative()
        assert np.max(np.abs(w.coeffs[1:])) < 1e-11
        assert w.coeffs[0] == pytest.approx(1.0)

    def test_overflow_truncates_with_warning(self):
        A = PowerSeries([-1e280]).pad(40)
        p = ODEProblem(2, (A, zeros_series(40)), (1.0, 0.0), 40)
        with pytest.warns(AccuracyWarning):
            f = solve_series(p)
        assert f.order < 40

    @staticmethod
    def per_j_recurrence(problem):
        """The matched-coefficient recurrence term by term: for each n, the
        sum over j of ``np.dot`` of ``A_j``'s first n + 1 coefficients
        reversed with those of ``f^(j)``, accumulated in j order."""
        k, N = problem.order, problem.truncation_order
        coeff = [np.zeros(N + 1, dtype=complex) for _ in range(k)]
        for j, A in enumerate(problem.coefficients):
            coeff[j][: min(A.coeffs.size, N + 1)] = A.coeffs[: N + 1]
        c = np.zeros(N + 1, dtype=complex)
        for i, v in enumerate(problem.initial_values):
            c[i] = complex(v) / math.factorial(i)
        fall = [[1.0] * (N + 1)]
        for j in range(1, k + 1):
            fall.append([f * (i - j + 1) for i, f in enumerate(fall[-1])])
        deriv = [np.zeros(N + 1, dtype=complex) for _ in range(k)]
        for j in range(k):
            for m in range(0, min(k - j, N + 1 - j)):
                deriv[j][m] = c[m + j] * fall[j][m + j]
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(0, N - k + 1):
                s = 0.0 + 0.0j
                for j in range(k):
                    s += np.dot(coeff[j][: n + 1][::-1], deriv[j][: n + 1])
                cn = -s / fall[k][n + k]
                if not abs(cn) <= 1e300:
                    return PowerSeries(c[: n + k])
                c[n + k] = cn
                for j in range(k):
                    m = n + k - j
                    if 0 <= m <= N - j:
                        deriv[j][m] = c[m + j] * fall[j][m + j]
        return PowerSeries(c)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["real", "complex", "overflow"])
    def test_bit_identical_to_the_per_j_recurrence(self, k, kind):
        rng = np.random.default_rng(17 * k + len(kind))
        N, scale = 120, 1e30 if kind == "overflow" else 1.0
        # coefficients of mixed lengths: shorter than N + 1 and longer
        sizes = rng.integers(N // 2, N + 20, size=k)
        if kind == "real":
            A = [PowerSeries(rng.normal(size=n)) for n in sizes]
        else:
            A = [PowerSeries(scale * (rng.normal(size=n) + 1j * rng.normal(size=n))) for n in sizes]
        iv = tuple(rng.normal(size=k) + 1j * rng.normal(size=k))
        problem = ODEProblem(k, tuple(A), iv, N)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AccuracyWarning)
            got = solve_series(problem)
        want = self.per_j_recurrence(problem)
        assert (got.order < N) == (kind == "overflow") == bool(caught)
        assert got.order == want.order and np.array_equal(got.coeffs, want.coeffs)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            ODEProblem(4, (zeros_series(4),) * 4, (0.0,) * 4, 10)
        with pytest.raises(ValueError):
            ODEProblem(2, (zeros_series(4),), (0.0, 1.0), 10)


class TestResidual:
    def test_exact_polynomial_solution(self):
        # f = z solves f'' = 0 exactly
        p = ODEProblem(2, (zeros_series(10), zeros_series(10)), (0.0, 1.0), 10)
        assert residual(solve_series(p), p) == 0.0

    def test_own_solutions_are_recurrence_exact(self):
        for spec in ("hille:gamma=1.0", "exp-singular", "constant:c=0.25"):
            ex = named_example(spec, order=200)
            f = solve_series(ex.problem)
            assert residual(f, ex.problem, r_max=0.9) < 1e-10

    def test_random_polynomial_coefficients(self):
        rng = np.random.default_rng(9)
        z = zeros_series(200)
        for _ in range(5):
            c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            c *= rng.random() / max(1e-9, np.linalg.norm(c))
            A = PowerSeries(c).pad(200)
            p = ODEProblem(2, (A, z), (rng.standard_normal(), rng.standard_normal()), 200)
            assert residual(solve_series(p), p, r_max=0.9) < 1e-9

    def test_perturbation_detected(self):
        ex = named_example("hille:gamma=1.0", order=200)
        f = solve_series(ex.problem)
        c = f.coeffs.copy()
        c[5] += 1e-3
        assert residual(PowerSeries(c), ex.problem, r_max=0.9) > 1e-4


class TestTransform:
    def test_centre_zero_sign_flips(self):
        rng = np.random.default_rng(2)
        A0 = PowerSeries(rng.standard_normal(9)).pad(40)
        A1 = PowerSeries(rng.standard_normal(7)).pad(40)
        A2 = PowerSeries(rng.standard_normal(5)).pad(40)
        B0, B1, B2 = transform_order3(A0, A1, A2, 0.0)
        s = np.where(np.arange(41) % 2 == 0, 1.0, -1.0)
        assert np.allclose(B0.coeffs, -A0.coeffs * s)
        assert np.allclose(B1.coeffs, A1.coeffs * s)
        assert np.allclose(B2.coeffs, -A2.coeffs * s)

    def test_composed_solution_solves_transformed_problem(self):
        rng = np.random.default_rng(7)
        N = 200
        coeffs = [PowerSeries(0.5 * rng.standard_normal(d)).pad(N) for d in (9, 7, 5)]
        p = ODEProblem(3, tuple(coeffs), (0.3, 1.0, -0.2), N)
        f = solve_series(p)
        for a in (0.3, -0.5, 0.25 + 0.35j):
            g = compose_moebius(f, a, out_order=N)
            B = transform_order3(*coeffs, a, out_order=N)
            iv = (complex(g.coeffs[0]), complex(g.coeffs[1]), complex(2 * g.coeffs[2]))
            assert residual(g, ODEProblem(3, B, iv, N), r_max=0.8) < 1e-8

    def test_hille_power_transform_residual(self):
        ex = named_example("hille:gamma=1.0", order=400)
        f = solve_series(ex.problem)
        h = f * f
        p3 = symmetric_power_problem(ex.coefficient, order=400)
        for a in (0.4, -0.5):
            g = compose_moebius(h, a, out_order=400)
            B = transform_order3(*p3.coefficients, a, out_order=400)
            iv = (complex(g.coeffs[0]), complex(g.coeffs[1]), complex(2 * g.coeffs[2]))
            assert residual(g, ODEProblem(3, B, iv, 400), r_max=0.8) < 1e-8

    def test_double_transform_is_identity(self):
        rng = np.random.default_rng(3)
        coeffs = [PowerSeries(rng.standard_normal(6)).pad(80) for _ in range(3)]
        B = transform_order3(*coeffs, 0.4, out_order=80)
        C = transform_order3(*B, 0.4, out_order=80)
        for orig, back in zip(coeffs, C):
            assert np.max(np.abs(orig.coeffs[:41] - back.coeffs[:41])) < 1e-9

    def test_order2_transform(self):
        rng = np.random.default_rng(4)
        N = 120
        A0 = PowerSeries(0.5 * rng.standard_normal(7)).pad(N)
        A1 = PowerSeries(0.5 * rng.standard_normal(5)).pad(N)
        p = ODEProblem(2, (A0, A1), (1.0, -0.5), N)
        f = solve_series(p)
        a = 0.45
        g = compose_moebius(f, a, out_order=N)
        B0, B1 = transform_order2(A0, A1, a, out_order=N)
        iv = (complex(g.coeffs[0]), complex(g.coeffs[1]))
        assert residual(g, ODEProblem(2, (B0, B1), iv, N), r_max=0.8) < 1e-8


class TestSymmetricPower:
    def test_zero_coefficient_gives_cubics(self):
        p = symmetric_power_problem(zeros_series(10), initial_values=(1.0, 2.0, 3.0))
        h = solve_series(p)
        assert np.allclose(h.coeffs[:4], [1.0, 2.0, 1.5, 0.0])
        assert np.max(np.abs(h.coeffs[3:])) == 0.0

    def test_constant_coefficient_products_solve(self):
        ex = named_example("constant:c=0.25", order=120)
        A = ex.coefficient
        z = zeros_series(120)
        f = solve_series(ODEProblem(2, (A, z), (1.0, 0.0), 120))
        g = solve_series(ODEProblem(2, (A, z), (0.0, 1.0), 120))
        base = symmetric_power_problem(A, order=120)
        for h in (f * f, g * g, f * g):
            iv = (complex(h.coeffs[0]), complex(h.coeffs[1]), complex(2 * h.coeffs[2]))
            p = ODEProblem(3, base.coefficients, iv, 120)
            assert residual(h, p, r_max=0.9) < 1e-9

    def test_hille_square_solves(self):
        ex = named_example("hille:gamma=1.0", order=400)
        f = solve_series(ex.problem)
        h = f * f
        p = symmetric_power_problem(ex.coefficient, initial_values=(0.0, 0.0, 8.0), order=400)
        assert residual(h, p, r_max=0.8) < 1e-8


class TestNamedExamples:
    def test_hille_initial_values(self):
        ex = named_example("hille:gamma=1.3", order=16)
        assert ex.problem.initial_values == (0.0, 2.6)

    def test_exp_singular_initial_values(self):
        ex = named_example("exp-singular", order=16)
        assert ex.problem.initial_values[0] == pytest.approx(math.exp(-1))
        assert ex.problem.initial_values[1] == pytest.approx(-2 * math.exp(-1))

    def test_exp_singular_coefficient_expansion(self):
        # A = -4z/(1-z)^4 = -4 sum C(n+2, 3) z^{n+1} ... first terms
        ex = named_example("exp-singular", order=6)
        assert np.allclose(ex.coefficient.coeffs, [0, -4, -16, -40, -80, -140, -224])

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            named_example("bogus:x=1")

    def test_hille_reference_matches_fft_oracle(self):
        # closed form sqrt(1-z^2) sin(gamma log((1+z)/(1-z))), gamma != 1
        gamma, order = 1.7, 20
        M, r = 512, 0.8
        z = r * np.exp(2j * np.pi * np.arange(M) / M)
        vals = np.sqrt(1 - z**2) * np.sin(gamma * np.log((1 + z) / (1 - z)))
        oracle = np.fft.fft(vals) / M / r ** np.arange(M)
        ref = named_example(f"hille:gamma={gamma}", order=order).reference
        assert np.max(np.abs(ref.coeffs - oracle[: order + 1])) < 1e-12
        assert not ref.coeffs[0::2].any()  # the solution is odd


class TestHilleZeroTable:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_locations_and_gaps(self, gamma):
        table = hille_zero_table(gamma, 15, order=256)
        assert len(table) == 15
        for k, (x, s) in enumerate(table, start=1):
            assert abs(x - math.tanh(k * math.pi / (2 * gamma))) < 1e-8
        gaps = [b[1] - a[1] for a, b in zip(table, table[1:])]
        for g in gaps:
            assert abs(g - math.pi / (2 * gamma)) < 1e-8

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_gamma_not_positive_finite(self, gamma):
        with pytest.raises(ValueError, match="hille requires"):
            hille_zero_table(gamma, 3, order=32)

    def test_first_zero_position_is_hyperbolically_exact(self):
        (x1, s1), *_ = hille_zero_table(1.0, 1, order=256)
        assert s1 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_hyperbolic_positions_to_a_few_ulp(self):
        # the k-th zero lies at s = k pi/(2 gamma); with h and h' evaluated
        # by power tables the worst relative error here reads 1.31e-15
        # (5.2e-16 by Horner's rule, whose Python loops took half the time)
        worst = 0.0
        for gamma in (0.5, 1.0, 2.0, 3.7):
            table = hille_zero_table(gamma, 20, order=256)
            assert len(table) == 20
            for k, (x, s) in enumerate(table, start=1):
                exact = k * math.pi / (2 * gamma)
                worst = max(worst, abs(s - exact) / exact)
        assert worst <= 1.4e-15


class TestBracketedRoots:
    """The array refiner behind the Hille zero walker: a sign scan, then
    safeguarded Newton steps on every bracket at once."""

    @staticmethod
    def roots_of(roots, nodes):
        c = P.polyfromroots(roots)
        return _bracketed_roots(np.stack([c, np.append(P.polyder(c), 0.0)], axis=1), nodes)

    def test_known_simple_roots(self):
        roots = [-0.61, -0.05, 0.3, 0.77]
        found = self.roots_of(roots, np.linspace(-0.9, 0.9, 37))
        np.testing.assert_allclose(found, roots, rtol=0.0, atol=1e-15)

    def test_root_on_a_scan_node(self):
        # 0.25 is a node, and the polynomial vanishes there exactly: the root
        # is the node itself, once, and the brackets either side are not used
        nodes = np.linspace(0.0, 1.0, 5)
        found = self.roots_of([0.25, 0.8], nodes)
        assert found[0] == 0.25
        np.testing.assert_allclose(found, [0.25, 0.8], rtol=0.0, atol=1e-15)

    def test_two_roots_in_adjacent_brackets(self):
        nodes = np.linspace(0.0, 0.4, 11)  # ... 0.28, 0.32, 0.36 ...
        found = self.roots_of([0.3, 0.34], nodes)
        np.testing.assert_allclose(found, [0.3, 0.34], rtol=0.0, atol=1e-15)
