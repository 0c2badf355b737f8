import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import QuadratureGrid
from disclab.cli import parse_function
from disclab.norms import (
    PROBE_HIGH,
    PROBE_LOW,
    PROBE_MID,
    NormEstimate,
    QuadratureError,
    bloch_norm,
    bmoa_garsia,
    bmoa_h2_def,
    carleson_norm,
    dilation_estimate,
    growth_norm,
    hp_norm,
    mp_means,
)
from disclab.ode import named_example
from disclab.series import PowerSeries, compose_moebius


def log_e_series(zeta: complex, order: int = 256) -> PowerSeries:
    """log(e/(1 - conj(zeta) z)) as a truncated series."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    n = np.arange(1, order + 1)
    c[1:] = np.conj(zeta) ** n / n
    return PowerSeries(c)


class TestAreaIntegral:
    def test_unit_mass(self, grid):
        z = grid.nodes()
        val = grid.integrate(np.ones(z.shape))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_cubic_weight(self, grid):
        z = grid.nodes()
        val = grid.integrate((1 - np.abs(z) ** 2) ** 3)
        assert val == pytest.approx(0.25, abs=1e-10)

    def test_log_weight(self, grid):
        z = grid.nodes()
        val = grid.integrate(np.log(1 / np.abs(z)))
        assert val == pytest.approx(0.5, abs=1e-8)

    def test_linear_and_monotone(self, grid):
        z = grid.nodes()
        f = np.abs(z) ** 2
        g = 1 - np.abs(z) ** 2
        lhs = grid.integrate(2.0 * f + 3.0 * g)
        assert lhs == pytest.approx(2 * grid.integrate(f) + 3 * grid.integrate(g))
        assert grid.integrate(f + g) >= grid.integrate(f)


class TestMpMean:
    def test_constant(self):
        assert mp_means(PowerSeries([3 - 4j]), [0.5], 1.7, 64) == pytest.approx([5.0])

    def test_monomial_is_radial(self):
        for p in (0.5, 1.0, 3.0):
            assert mp_means(PowerSeries([0, 1]), [0.3, 0.7], p, 32) == pytest.approx([0.3, 0.7])

    def test_parseval_p2(self):
        rng = np.random.default_rng(0)
        f = PowerSeries(rng.standard_normal(21) + 1j * rng.standard_normal(21))
        r = 0.83
        got = mp_means(f, [r], 2.0, 2 * f.order + 1)[0] ** 2
        want = float(np.sum(np.abs(f.coeffs) ** 2 * r ** (2 * np.arange(21))))
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_stack_rows_equal_one_series_calls(self, p):
        rng = np.random.default_rng(3)
        complex_stack = [PowerSeries(rng.standard_normal(33) + 1j * rng.standard_normal(33)) for _ in range(3)]
        real_stack = [PowerSeries(rng.standard_normal(33)) for _ in range(3)]
        radii = [0.1, 0.4, 0.9, 0.99]
        for stack in (complex_stack, real_stack):
            got = mp_means(stack, radii, p, 64)
            assert got.shape == (3, 4)
            for row, f in zip(got, stack):
                assert np.array_equal(row, mp_means(f, radii, p, 64))

    def test_nonpositive_exponent_rejected(self, grid):
        for p in (0.0, -1.0):
            with pytest.raises(ValueError):
                mp_means(PowerSeries([1.0]), [0.5], p, 16)
            with pytest.raises(ValueError):
                hp_norm(PowerSeries([1.0]), p, grid)


class TestDilationEstimate:
    @staticmethod
    def recording_run(values):
        """A ``run`` that reads each input's dilation radius from its linear
        coefficient (``f = z``), logs every call and returns ``values[r]``."""
        calls = []

        def run(g, fs):
            radii = [float(np.real(fr.coeffs[1])) for fr in fs]
            calls.append((g, radii))
            return [values[r] for r in radii]

        return run, calls

    def test_four_inputs_on_the_grid_and_one_on_its_coarsened_sibling(self, small_grid):
        run, calls = self.recording_run({1.0: 5.0, PROBE_LOW: 1.0, PROBE_MID: 2.0, PROBE_HIGH: 3.0})
        est = dilation_estimate(run, small_grid, PowerSeries([0.0, 1.0]))
        assert calls == [(small_grid, [1.0, PROBE_LOW, PROBE_MID, PROBE_HIGH]), (small_grid.coarsened(), [1.0])]
        assert (est.value, est.value_coarse) == (5.0, 5.0)

    @pytest.mark.parametrize(
        "lo, mid, hi, flag",
        [
            (2.3, 4.6, 6.9, True),  # logarithmic: equal increments per decade
            (10.0, 100.0, 1000.0, True),  # power law
            (1.0, 3.0, 3.5, False),  # doubles, but the increments decay: late saturation
            (1.0, 1.4, 1.9, False),  # sustained, but short of doubling
        ],
    )
    def test_divergence_flag_needs_doubling_and_sustained_growth(self, small_grid, lo, mid, hi, flag):
        run, _ = self.recording_run({1.0: hi, PROBE_LOW: lo, PROBE_MID: mid, PROBE_HIGH: hi})
        assert dilation_estimate(run, small_grid, PowerSeries([0.0, 1.0])).divergence_flag is flag


class TestHpNorm:
    def test_monomial(self, grid):
        est = hp_norm(PowerSeries(np.eye(6)[5]), 2.0, grid)
        assert est.value == pytest.approx(grid.r_max**5, rel=1e-12)
        assert not est.divergence_flag

    def test_parseval_invariant(self, grid):
        rng = np.random.default_rng(1)
        f = PowerSeries(rng.standard_normal(33) + 1j * rng.standard_normal(33))
        est = hp_norm(f, 2.0, grid)
        want = np.sum(np.abs(f.coeffs) ** 2 * grid.r_max ** (2 * np.arange(33)))
        assert est.value**2 == pytest.approx(float(want), rel=1e-12)

    def test_singular_half_norm_stable(self, grid):
        f = PowerSeries(np.ones(257))  # 1/(1-z) truncated
        est = hp_norm(f, 0.5, grid)
        assert np.isfinite(est.value)
        assert not est.divergence_flag
        assert est.value_coarse == pytest.approx(est.value, rel=0.1)

    def test_unresolved_profile_raises(self, grid):
        # 1 - z^M sampled at M angles reads 1 - r^M on every ring: the
        # aliased means decrease in r, which analytic means never do
        f = PowerSeries(np.eye(grid.angular + 1)[0] - np.eye(grid.angular + 1)[-1])
        with pytest.raises(QuadratureError):
            hp_norm(f, 2.0, grid)

    def test_exp_singular_solution_bounded(self, grid):
        from disclab.ode import solve_series

        ex = named_example("exp-singular", order=256)
        f = solve_series(ex.problem)
        est = hp_norm(f, 2.0, grid)
        assert est.value <= 1.0 + 1e-6
        assert not est.divergence_flag


class TestGrowthNorm:
    def test_constant(self, grid):
        assert growth_norm(PowerSeries([2 + 1j]), 0.0, grid).value == pytest.approx(5**0.5)

    def test_hille_coefficient_level(self, grid):
        for gamma in (0.5, 1.0, 2.0):
            A = named_example(f"hille:gamma={gamma}", order=1024).coefficient
            est = growth_norm(A, 2.0, grid)
            assert est.value == pytest.approx(1 + 4 * gamma**2, rel=0.01)
            assert not est.divergence_flag

    def test_exp_singular_diverges(self, grid):
        A = named_example("exp-singular", order=4096).coefficient
        assert growth_norm(A, 2.0, grid).divergence_flag

    @pytest.mark.parametrize("n, q", [(1, 0.5), (2, 1.0), (5, 2.0), (8, 0.25)])
    def test_monomial_closed_form(self, grid, n, q):
        # sup r^n (1 - r^2)^q is taken at r^2 = n/(n + 2q); the grid's
        # circles miss that radius by a fraction of a panel, from below
        t = n / (n + 2 * q)
        exact = t ** (n / 2) * (1 - t) ** q
        value = growth_norm(PowerSeries(np.eye(n + 1)[n]), q, grid).value
        assert exact * (1 - 3e-3) <= value <= exact * (1 + 1e-12)

    def test_negative_exponent_rejected(self, grid):
        with pytest.raises(ValueError):
            growth_norm(PowerSeries([1.0]), -0.5, grid)

    def test_dominates_hardy_estimates(self, grid):
        rng = np.random.default_rng(2)
        for _ in range(4):
            f = PowerSeries(rng.standard_normal(17) + 1j * rng.standard_normal(17))
            sup = growth_norm(f, 0.0, grid).value
            for p in (0.5, 1.0, 2.0, 7.0):
                assert sup + 1e-12 >= hp_norm(f, p, grid).value


class TestBloch:
    def test_identity(self, grid):
        assert bloch_norm(PowerSeries([0, 1]).pad(4), grid).value == pytest.approx(1.0)

    def test_log_kernel_family(self, grid):
        est = bloch_norm(log_e_series(0.999), grid)
        assert 1.8 <= est.value <= 2.0

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_monomial_closed_form(self, grid, n):
        # sup n r^(n-1) (1 - r^2) is taken at r^2 = (n - 1)/(n + 1)
        t = (n - 1) / (n + 1)
        exact = n * t ** ((n - 1) / 2) * (1 - t)
        value = bloch_norm(PowerSeries(np.eye(n + 1)[n]), grid).value
        assert exact * (1 - 3e-3) <= value <= exact * (1 + 1e-12)


class TestBmoaGarsia:
    def test_constant_vanishes(self, grid):
        assert bmoa_garsia(PowerSeries([5.0]).pad(8), grid).value == 0.0

    def test_identity_value(self, grid):
        est = bmoa_garsia(PowerSeries([0, 1]).pad(4), grid)
        assert est.value == pytest.approx(0.5, abs=1e-3)
        assert not est.divergence_flag

    def test_log_kernel_is_bounded_oscillation(self, grid):
        est = bmoa_garsia(log_e_series(1.0), grid)
        assert np.isfinite(est.value)
        assert not est.divergence_flag


class TestBmoaH2:
    def test_constant_vanishes(self, grid):
        assert bmoa_h2_def(PowerSeries([5.0]).pad(8), grid).value == 0.0

    def test_identity_value(self, grid):
        est = bmoa_h2_def(PowerSeries([0, 1]).pad(4), grid)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_comparability_with_garsia(self, grid):
        rng = np.random.default_rng(3)
        corpus = [
            PowerSeries([0, 1]).pad(16),
            log_e_series(1.0, 128),
            log_e_series(0.7j, 128),
            PowerSeries([0, 0.5, 0.25, 0.125]).pad(16),
        ]
        for _ in range(6):
            corpus.append(PowerSeries(0.5 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))).pad(16))
        for f in corpus:
            g = bmoa_garsia(f, grid).value
            h = bmoa_h2_def(f, grid).value
            if h < 1e-12:
                assert g < 1e-12
                continue
            assert 0.25 <= g / h <= 4.0

    @pytest.mark.parametrize("spec", ["exp:eps=0.5", "poly:0,1", "poly:1000,0.001"])
    def test_order_invariance(self, spec, grid):
        # exact for the truncated series at every centre: an input whose
        # coefficients have vanished reads the same at every order
        values = [bmoa_h2_def(parse_function(spec, n), grid).value for n in (256, 512, 1024, 2048)]
        np.testing.assert_allclose(values, values[0], rtol=1e-12, atol=0.0)

    def test_large_constant_does_not_cancel(self, grid):
        # |f(a)|^2 ~ 1e6 would swallow the 1e-6 oscillation without centring
        est = bmoa_h2_def(parse_function("poly:1000,0.001", 512), grid)
        assert est.value == pytest.approx(1e-6, rel=1e-12, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_matches_composition_inside(self, order, seed):
        # where the order-256 composition is accurate (|a| <= 1/2), the
        # identity gives its Parseval sum
        rng = np.random.default_rng(seed)
        f = PowerSeries(rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        g = QuadratureGrid(a_radii=(0.0, 0.25, 0.5))
        want = max(
            float(np.sum(np.abs((compose_moebius(f, a, out_order=256) - f(complex(a))).coeffs) ** 2))
            for a in g.a_grid
        )
        assert bmoa_h2_def(f, g).value == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCarleson:
    def test_unit_density(self, grid):
        est = carleson_norm(np.ones(grid.nodes().shape), grid)
        assert est.value == pytest.approx(1.0, abs=1e-3)
        assert est.value >= 1.0 - 1e-9
        assert not est.divergence_flag

    def test_bloch_identity_density(self, grid):
        # d mu = (1-|z|^2) |f'|^2 dm for f = z: mass of squares ~ (1-|a|)^2
        est = carleson_norm(1 - np.abs(grid.nodes()) ** 2, grid)
        assert np.isfinite(est.value)
        assert not est.divergence_flag

    def test_boundary_bump_mass_ratio(self, grid):
        # bump concentrated inside the square at a = 0.9: value ~ mass/(1-|a|)
        a = 0.9
        half = (1 - a) / 2

        def bump(z):
            r = np.abs(z)
            th = np.angle(z)
            inside = (r > 0.93) & (r < 0.98) & (np.abs(th) < half / 2)
            return np.where(inside, 1.0, 0.0)

        density = bump(grid.nodes())
        mass = grid.integrate(density)
        est = carleson_norm(density, grid)
        assert est.value == pytest.approx(mass / (1 - a), rel=0.05)

    def test_negative_density_rejected(self, grid):
        with pytest.raises(ValueError):
            carleson_norm(-np.ones(grid.nodes().shape), grid)


class TestNormEstimate:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            NormEstimate(-1.0, 0.0, False)
