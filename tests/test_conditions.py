import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from disclab import series
from disclab.conditions import (
    ConditionReport,
    _cauchy_products,
    _h1_inner_fields,
    apply_SA,
    bmoa_dd,
    bmoa_h1_cond,
    cauchy_bound,
    decay_conditions,
    lacunary_lmoa,
    lacunary_series,
    lalpha_norm,
    lmoa_quantity,
    lmoa_square,
    log_reciprocal_coefficient,
    moment_log_integral,
    nehari_sup,
    order3_area,
    order3_growth,
)
from disclab.norms import NormEstimate
from disclab.ode import named_example, solve_series, symmetric_power_problem
from disclab.series import PowerSeries, binomial_series, geometric_series


def zeros_series(order):
    return PowerSeries(np.zeros(order + 1, dtype=complex))


def moebius_factor(grid, a):
    """Oracle for the centre sweeps: ``1 - |phi_a(z)|^2`` on the grid's node
    matrix, via the stable closed form ``(1-|a|^2)(1-|z|^2)/|1 - conj(a) z|^2``."""
    z = grid.nodes()
    return (1 - abs(a) ** 2) * (1 - np.abs(z) ** 2) / np.abs(1 - np.conj(a) * z) ** 2


class TestNehari:
    def test_zero(self, grid):
        assert nehari_sup(zeros_series(8), grid).value == 0.0

    def test_hille_level(self, grid):
        A = named_example("hille:gamma=1.0", order=1024).coefficient
        rep = nehari_sup(A, grid)
        assert rep.value == pytest.approx(5.0, rel=0.01)
        assert not rep.divergence_flag

    def test_exp_singular_flag(self, grid):
        A = named_example("exp-singular", order=4096).coefficient
        assert nehari_sup(A, grid).divergence_flag


class TestOrder3:
    def test_zeros(self, grid):
        z = zeros_series(8)
        for rep in order3_growth(z, z, z, grid) + order3_area(z, z, z, grid):
            assert rep.value == 0.0

    def test_hille_symmetric_power_finite(self, grid):
        p3 = symmetric_power_problem(named_example("hille:gamma=1.0", order=1024).coefficient)
        growth = order3_growth(*p3.coefficients, grid)
        area = order3_area(*p3.coefficients, grid)
        for rep in growth + area:
            assert np.isfinite(rep.value)
        # the growth quantities saturate fast and must not be flagged;
        # the area ones approach their (finite) limits like 1 - c sqrt(1-R),
        # which the probe may honestly report as still growing at this
        # truncation, so only the values are pinned there
        for rep in growth:
            assert not rep.divergence_flag
        # |A_1|(1-|z|^2)^2 = 4 (1+4g^2) on the real axis
        assert growth[1].value == pytest.approx(20.0, rel=0.02)
        assert area[0].value < 40.0 and area[1].value < 40.0

    def test_growth_divergence(self, grid):
        A0 = binomial_series(4, 1.0, 2048)  # (1-z)^{-4}
        reps = order3_growth(A0, zeros_series(8), zeros_series(8), grid)
        assert reps[0].divergence_flag

    def test_area_log_divergence(self, grid):
        # (1-z)^{-4} at j=0: ring means ~ (1-r)^{-3}, weight (1-r)^2 -> log
        A0 = binomial_series(4, 1.0, 2048)
        reps = order3_area(A0, zeros_series(8), zeros_series(8), grid)
        assert reps[0].divergence_flag


class TestLalpha:
    def test_zero(self, grid):
        assert lalpha_norm(zeros_series(8), 1.0, grid).value == 0.0

    def test_log_reciprocal_alpha1(self, grid):
        A = log_reciprocal_coefficient(8192)
        rep = lalpha_norm(A, 1.0, grid)
        # sup (1+x)^2 as x -> 1 along the real axis
        assert rep.value == pytest.approx(4.0, rel=0.02)
        assert not rep.divergence_flag

    def test_log_reciprocal_alpha2_diverges(self, grid):
        A = log_reciprocal_coefficient(8192)
        assert lalpha_norm(A, 2.0, grid).divergence_flag


class TestLmoaFamily:
    def test_zeros(self, grid):
        z = zeros_series(8)
        assert lmoa_quantity(z, grid).value == 0.0
        assert lmoa_square(z, grid).value == 0.0
        assert bmoa_dd(z, grid).value == 0.0

    def test_constant_lower_bound(self, grid):
        # the a = 0 term alone is c^2 int (1-|z|^2)^3 dm = c^2/4
        c = 0.3
        rep = lmoa_quantity(PowerSeries([c]).pad(64), grid)
        assert rep.value >= c**2 / 4 - 1e-12

    def test_log_reciprocal_square_finite_and_stable(self, grid):
        A = log_reciprocal_coefficient(2048)
        rep = lmoa_square(A, grid)
        assert np.isfinite(rep.value)
        assert abs(rep.value - rep.value_coarse) <= 0.25 * rep.value

    def test_comparability_on_corpus(self, grid):
        corpus = [
            PowerSeries([0.4]).pad(64),
            PowerSeries([0.1, 0.3, -0.2]).pad(64),
            log_reciprocal_coefficient(2048),
            lacunary_series(np.ones(10), [2**k for k in range(1, 11)]),
            named_example("hille:gamma=0.5", order=512).coefficient,
        ]
        for A in corpus:
            q = lmoa_quantity(A, grid).value
            s = lmoa_square(A, grid).value
            assert 1 / 16 <= q / s <= 16

    def test_log_factor_dominates_dd(self, grid):
        A = PowerSeries([0.2, 0.1]).pad(64)
        assert lmoa_quantity(A, grid).value >= bmoa_dd(A, grid).value

    def test_homogeneity(self, grid):
        A = PowerSeries([0.3, -0.2]).pad(64)
        t = 2.5
        assert nehari_sup(A * t, grid).value == pytest.approx(t * nehari_sup(A, grid).value, rel=1e-12)
        assert lalpha_norm(A * t, 1.0, grid).value == pytest.approx(
            t * lalpha_norm(A, 1.0, grid).value, rel=1e-12
        )
        assert lmoa_quantity(A * t, grid).value == pytest.approx(
            t**2 * lmoa_quantity(A, grid).value, rel=1e-10
        )
        assert bmoa_dd(A * t, grid).value == pytest.approx(
            t**2 * bmoa_dd(A, grid).value, rel=1e-10
        )


class TestLacunary:
    def test_single_term(self):
        rep = lacunary_lmoa([1.0], [2])
        assert rep.value == pytest.approx(math.log(2) ** 3 / 16)

    def test_gap_violation(self):
        # non-increasing frequency lists violate the gap hypothesis
        with pytest.raises(ValueError):
            lacunary_lmoa([1.0, 1.0], [4, 4])
        with pytest.raises(ValueError):
            lacunary_lmoa([1.0, 1.0], [8, 4])

    def test_dyadic_sum_finite_and_series_quantity_finite(self, grid):
        freqs = [2**k for k in range(1, 13)]
        rep = lacunary_lmoa(np.ones(12), freqs)
        assert np.isfinite(rep.value)
        assert rep.gap_ratio >= 2.0
        series = lacunary_series(np.ones(12), freqs)
        est = lmoa_quantity(series, grid)
        assert np.isfinite(est.value)
        assert not est.divergence_flag

    def test_moment_ratio_band(self):
        for n in (16, 64, 256, 1024, 4096):
            ratio = moment_log_integral(n) / (math.log(n) ** 3 / n**4)
            assert 1 / 8 <= ratio <= 8

    @pytest.mark.parametrize("n", [0, 1, 2, 16, 256, 4096, 2**14, 2**20])
    def test_moment_matches_boundary_panel_rule(self, n):
        # the 39 boundary-refined 32-point Gauss panels of the moment's own
        # former rule, against the shared weights panel rule
        x, w = leggauss(32)
        edges = [0.0] + [1.0 - 2.0**-j for j in range(1, 40)]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            r = (hi - lo) / 2 * x + (hi + lo) / 2
            total += (hi - lo) / 2 * float(np.sum(w * r**n * (1 - r) ** 3 * np.log(np.e / (1 - r)) ** 3))
        assert moment_log_integral(n) == pytest.approx(total, rel=1e-13)

    @pytest.mark.parametrize(
        "n, exact",
        [
            (2, 0.08189490740740740740740740740740740740741),
            (16, 0.001194656042368686067527792569193903710467),
            (256, 2.068889521540923076982652496350349276775e-7),
            (4096, 1.129308614345914631278873403282641121575e-11),
        ],
    )
    def test_moment_against_high_precision_values(self, n, exact):
        """The 40-digit values come from the closed form, with ``t = 1 - r``
        and ``(1 - log t)^3`` expanded into derivatives of the beta function::

            import mpmath as mp
            mp.mp.dps = 50
            for n in (2, 16, 256, 4096):
                B = lambda a: mp.beta(a, n + 1)
                m = B(4) - 3 * mp.diff(B, 4, 1) + 3 * mp.diff(B, 4, 2) - mp.diff(B, 4, 3)
                print(n, mp.nstr(m, 40))

        ``mp.quad`` of the integrand on 64 equal panels gives the same digits."""
        assert moment_log_integral(n) == pytest.approx(exact, rel=1e-14)


class TestCauchyBound:
    def test_zero_coefficient(self):
        assert cauchy_bound(zeros_series(16), 0.9, 0.5) == 0.0

    def test_empty_path(self):
        assert cauchy_bound(PowerSeries([1.0]).pad(16), 0.9, 0.0) == 0.0

    def test_against_nested_quadrature_oracle(self):
        c, r, z = 0.7, 0.9, 0.5 + 0.2j
        A = PowerSeries([c]).pad(64)
        val = cauchy_bound(A, r, z, angular_count=256)
        xs, ws = leggauss(48)
        t01 = (xs + 1) / 2

        def inner(x):
            total = 0.0j
            for t1, w1 in zip(t01, ws):
                zeta = t1 * z
                seg = np.sum(ws * (c / (x - t01 * zeta)) * zeta / 2)
                total += w1 * seg * z / 2
            return total

        ts = 2 * np.pi * np.arange(256) / 256
        oracle = float(np.mean([abs(inner(np.exp(1j * t))) for t in ts]))
        assert val == pytest.approx(oracle, abs=1e-6)


    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 80),
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 0.99),
        st.complex_numbers(max_magnitude=0.95),
        st.integers(1, 40),
        st.sampled_from([None, 2**10]),
    )
    def test_matches_per_point_products(self, order, seed, r, z, count, block_bytes):
        # the slow path it replaced: one series product and double primitive per x = e^{it}
        rng = np.random.default_rng(seed)
        A = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        Ar = PowerSeries(A.coeffs * r ** np.arange(order + 1))
        want = 0.0
        for t in 2 * np.pi * np.arange(count) / count:
            x = np.exp(1j * t)
            inner = (Ar * (geometric_series(np.conj(x), order) * x ** (-1))).antiderivative(0.0).antiderivative(0.0)
            want += abs(inner(z))
        with mock.patch.object(series, "_BLOCK_BYTES", block_bytes or series._BLOCK_BYTES):
            got = cauchy_bound(A, r, z, angular_count=count)
        assert got == pytest.approx(want / count, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("t_count, order", [(64, 64), (64, 512), (48, 300)])
    def test_products_match_the_per_term_sum(self, t_count, order):
        # coefficient m of row t is sum_{j<=m} a_j r^j c^(m-j), each power of
        # c = e^{-2 pi i t/T} taken from its phase index t (m - j) mod T;
        # the products stay within 1.1e-15 of the running sum of |a_j r^j|
        # on these cases, and read 8.3e-15 to 1.4e-13 with c**m by complex pow
        rng = np.random.default_rng(order)
        A = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        a = A.coeffs * 0.9 ** np.arange(order + 1)
        phases = np.exp(-2j * np.pi * np.arange(t_count) / t_count)
        t = np.arange(t_count)[:, None]
        want = np.empty((t_count, order + 1), dtype=complex)
        for m in range(order + 1):
            want[:, m] = np.sum(phases[t * (m - np.arange(m + 1)) % t_count] * a[: m + 1], axis=1)
        got = np.vstack(list(_cauchy_products(A, 0.9, t_count)))
        assert np.all(np.abs(got - want) <= 4e-15 * np.cumsum(np.abs(a)))


class TestBmoaH1:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([None, 2**12]))
    def test_inner_fields_match_per_t_loop(self, small_grid, order, seed, t_count, block_bytes):
        # the slow path it replaced: one product, primitive and grid sample per t
        rng = np.random.default_rng(seed)
        A = PowerSeries(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        Ar = PowerSeries(A.coeffs * 0.9 ** np.arange(order + 1))
        want = np.zeros((small_grid.radii.size, small_grid.angular))
        for t in 2 * np.pi * np.arange(t_count) / t_count:
            prim = (Ar * geometric_series(np.exp(-1j * t), order)).antiderivative(0.0)
            want += np.abs(small_grid.sample(prim))
        with mock.patch.object(series, "_BLOCK_BYTES", block_bytes or series._BLOCK_BYTES):
            got = _h1_inner_fields(A, 0.9, small_grid, t_count)
        np.testing.assert_allclose(got, want / t_count, rtol=1e-12, atol=1e-300)

    def test_dilation_outside_unit_interval_raises(self, small_grid):
        for r in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                bmoa_h1_cond(zeros_series(8), r, small_grid)

    def test_zero(self, small_grid):
        assert bmoa_h1_cond(zeros_series(16), 0.9, small_grid).value == 0.0

    def test_pointwise_dominates_primitive(self, small_grid):
        # the t-mean of |path integral| dominates |int_0^z A(r zeta) dzeta|
        # up to the aliasing of the discrete t-mean (exact triangle inequality)
        rng = np.random.default_rng(6)
        A = PowerSeries(0.5 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))).pad(512)
        r = 0.9
        T = 2048
        Ar = PowerSeries(A.coeffs * r ** np.arange(A.order + 1))
        prim = Ar.antiderivative(0.0)
        zs = np.array([0.5, -0.8, 0.6j, 0.7 + 0.5j, 0.98])
        acc = np.zeros(zs.size)
        for t in 2 * np.pi * np.arange(T) / T:
            geo = geometric_series(np.exp(-1j * t), A.order)
            acc += np.abs((Ar * geo).antiderivative(0.0)(zs))
        acc /= T
        slack = np.abs(zs) ** (A.order + 2) / ((A.order + 2) * (1 - np.abs(zs) ** T))
        assert np.all(acc + 1e-12 + float(np.max(np.abs(Ar.coeffs))) * slack >= np.abs(prim(zs)))

    def test_constant_against_triple_quadrature_oracle(self, small_grid):
        c, r = 0.8, 0.9
        A = PowerSeries([c]).pad(256)
        rep = bmoa_h1_cond(A, r, small_grid, t_count=48)
        # oracle: same truncated integrand, path integral by Gauss-Legendre;
        # A(r zeta) is the constant c, so the integrand at zeta = t1 z is the
        # geometric sum c (1 - x^{N+1}) / (1 - x), x = e^{-it} t1 z
        xs, ws = leggauss(64)
        t01 = (xs + 1) / 2
        nodes = small_grid.nodes()
        x0 = t01[:, None, None] * nodes
        tail = t01[:, None, None] ** (A.order + 1) * nodes ** (A.order + 1)
        ts = 2 * np.pi * np.arange(48) / 48
        field = np.zeros(nodes.shape)
        for t in ts:
            turn = np.exp(-1j * t)
            integrand = c * (1.0 - turn ** (A.order + 1) * tail) / (1.0 - turn * x0)
            field += np.abs(np.tensordot(ws, integrand, axes=1) * nodes / 2)
        field /= len(ts)
        best = 0.0
        for a in small_grid.a_grid:
            w = moebius_factor(small_grid, a)
            best = max(best, small_grid.integrate(field**2 * w))
        assert rep.value == pytest.approx(best, abs=1e-5)


class TestApplySA:
    def test_zero_coefficient(self):
        out = apply_SA(zeros_series(8), PowerSeries([1.0]).pad(8))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_double_primitive_of_coefficient(self):
        A = PowerSeries([1.0, 2.0]).pad(8)
        out = apply_SA(A, PowerSeries([1.0]).pad(8))
        expect = A.antiderivative(0.0).antiderivative(0.0)
        assert np.allclose(out.coeffs, expect.coeffs[: out.order + 1])

    def test_solution_identity(self):
        for spec in ("hille:gamma=1.0", "exp-singular"):
            ex = named_example(spec, order=200)
            f = solve_series(ex.problem)
            s = apply_SA(ex.coefficient, f)
            recon = np.zeros(201, dtype=complex)
            recon[0] = ex.problem.initial_values[0]
            recon[1] = ex.problem.initial_values[1]
            recon -= s.coeffs[:201]
            assert np.max(np.abs(recon - f.coeffs)) < 1e-11


class TestDecayProfiles:
    def test_zero(self, grid):
        rows = decay_conditions(zeros_series(8), [0.5, 0.9], grid)
        for _, lmoa_val, logsup in rows:
            assert lmoa_val == 0.0 and logsup == 0.0

    def test_constant_profile_decays(self, grid):
        rows = decay_conditions(PowerSeries([0.5]).pad(32), [0.5, 0.9, 0.99, 0.999], grid)
        assert rows[-1][1] < rows[0][1]
        assert rows[-1][2] < 0.05

    def test_hille_profile_bounded_below(self, grid):
        A = named_example("hille:gamma=1.0", order=1024).coefficient
        rows = decay_conditions(A, [0.9, 0.99, 0.999], grid)
        for _, _, logsup in rows:
            assert logsup > 1.0


class TestConditionReport:
    def test_every_estimator_returns_a_norm_estimate(self, small_grid):
        A = log_reciprocal_coefficient(24)
        reports = [
            nehari_sup(A, small_grid),
            *order3_growth(A, A, A, small_grid),
            *order3_area(A, A, A, small_grid),
            lalpha_norm(A, 1.0, small_grid),
            lmoa_quantity(A, small_grid),
            lmoa_square(A, small_grid),
            bmoa_dd(A, small_grid),
            bmoa_h1_cond(A, 0.9, small_grid, t_count=8),
        ]
        for rep in reports:
            assert isinstance(rep, NormEstimate) and isinstance(rep, ConditionReport)
            assert rep.grid_fingerprint == small_grid.fingerprint()

    def test_declares_only_the_label_fields(self):
        own = set(ConditionReport.__dataclass_fields__) - set(NormEstimate.__dataclass_fields__)
        assert own == {"kind", "grid_fingerprint"}

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            ConditionReport(-1.0, 0.0, False, "k", "fp")
