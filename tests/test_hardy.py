import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from disclab import hardy
from disclab.hardy import (
    NontangentialParams,
    corpus_from_manifest,
    default_corpus,
    fit_cp_exponent,
    hp_membership_experiment,
    hss_residual,
    loc_univ_margin,
    nonvanishing_bound_check,
    nt_max,
    prop_main_sides,
    shadow_length,
)
from disclab.ode import named_example
from disclab.series import PowerSeries, exp_series, pow_series, sample_moduli


def exp_eps_series(eps: float, order: int = 40) -> PowerSeries:
    lin = np.zeros(order + 1, dtype=complex)
    lin[1] = eps
    return exp_series(PowerSeries(lin))


class TestHardySteinSpencer:
    def test_constant(self, grid):
        assert hss_residual(PowerSeries([2 - 1j]), 1.3, grid) < 1e-14

    def test_identity_p2(self, grid):
        # ||z||^2 = 1, |f(0)|^2 = 0, 2 int log(1/|z|) dm = 1
        assert hss_residual(PowerSeries([0, 1]), 2.0, grid) < 1e-10

    @pytest.mark.parametrize(
        "zeta",
        [1.0, 1j, -1.0, -1j, np.exp(0.3j * np.pi), np.exp(1j * np.pi / 544), np.exp(0.77j * np.pi)],
        ids=["1", "i", "-1", "-i", "e^0.3pi_i", "half_a_cell", "e^0.77pi_i"],
    )
    def test_boundary_zero_degree_one(self, grid, zeta):
        # 0.5 (1 - z/zeta): min |f| on the ring r_max is (1 - r_max) |f'|,
        # clear of the upsampling threshold in every orientation; the last
        # three zeros lie between the default grid's 544 nodes (half a cell
        # off the node 1 for e^{i pi/544})
        assert hss_residual(PowerSeries([0.5, -0.5 / zeta]), 1.0, grid) < 1e-6

    def test_zero_free_polynomials_all_exponents(self, grid):
        rng = np.random.default_rng(1)
        for _ in range(2):
            roots = [(1.2 + 1.8 * rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(8)]
            c = np.array([1.0 + 0j])
            for w in roots:
                c = np.convolve(c, [1.0, -1.0 / w])
            f = PowerSeries(c)
            for p in (0.5, 1.0, 2.0, 4.0):
                assert hss_residual(f, p, grid) < 1e-6

    def test_refinement_convergence(self, grid, small_grid):
        f = PowerSeries([1.0, 0.4, -0.3, 0.2, 0.1])
        for p in (0.5, 1.0, 2.0, 4.0):
            coarse = hss_residual(f, p, small_grid)
            fine = hss_residual(f, p, grid)
            assert fine <= coarse + 1e-12
            assert fine < 1e-8


class TestNontangential:
    def test_aperture_validation(self):
        with pytest.raises(ValueError):
            NontangentialParams(aperture=1.0)

    def test_constant_max(self, grid):
        params = NontangentialParams()
        assert nt_max(PowerSeries([3.0]), 1.0, params, grid) == pytest.approx(3.0)

    def test_identity_approaches_one(self, grid):
        params = NontangentialParams()
        assert nt_max(PowerSeries([0, 1]).pad(4), 1.0, params, grid) > 0.999

    def test_vertex_on_circle_required(self, grid):
        with pytest.raises(ValueError):
            nt_max(PowerSeries([0, 1]), 0.5, NontangentialParams(), grid)

    def test_shadow_band(self):
        params = NontangentialParams(aperture=2.0)
        ratios = [shadow_length(r + 0j, params) / (1 - r) for r in np.linspace(0.5, 0.999, 40)]
        assert min(ratios) > 2.0
        assert max(ratios) < 8.0
        # asymptotics: |I(z)| ~ 2 sqrt(aperture^2 - 1) (1 - r)
        assert ratios[-1] == pytest.approx(2 * math.sqrt(3), rel=0.01)

    def test_shadow_rotation_invariant(self):
        params = NontangentialParams()
        z = 0.77 * np.exp(0.9j)
        assert shadow_length(z, params) == pytest.approx(shadow_length(0.77, params))


class TestPropMain:
    def test_p2_k1_littlewood_paley_regime(self, grid):
        rng = np.random.default_rng(2)
        for _ in range(4):
            f = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
            lhs, rhs = prop_main_sides(f, 2.0, 1, grid)
            assert 0.25 <= lhs / rhs <= 4.0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_p2_against_closed_form(self, grid, seed):
        # at p = 2, Parseval gives the left side sum |c_n|^2 and the right
        # side sum_{n>=k} |c_n|^2 (n!/(n-k)!)^2 B(n-k+1, 2k) + sum_{j<k}
        # |f^(j)(0)|^2, as int_0^1 t^(n-k) (1-t)^(2k-1) dt = B(n-k+1, 2k),
        # taken exactly in rationals; on these corpora the worst cases read
        # 2.2e-16 (left), 1.2e-14, 5.8e-13 and 5.9e-11 (k = 1, 2, 3)
        bounds = {1: 5e-14, 2: 2e-12, 3: 2e-10}
        for member in default_corpus(seed):
            c = member.series.coeffs
            squares = np.abs(c) ** 2
            lhs, rhs = prop_main_sides(member.series, 2.0, list(bounds), grid)
            assert lhs == pytest.approx([math.fsum(squares)] * 3, rel=2e-15, abs=0.0)
            for got, (k, bound) in zip(rhs, bounds.items()):
                weights = [
                    Fraction(math.factorial(n), math.factorial(n - k)) ** 2
                    * Fraction(math.factorial(n - k) * math.factorial(2 * k - 1), math.factorial(n + k))
                    for n in range(k, c.size)
                ]
                inits = [(math.factorial(j) * abs(c[j])) ** 2 for j in range(k)]
                want = math.fsum([float(w) * q for w, q in zip(weights, squares[k:])] + inits)
                assert got == pytest.approx(want, rel=bound, abs=0.0), (member.name, k)

    def test_corpus_sides_are_per_function_sides(self, small_grid):
        # real and complex series of orders 12 and 20, read from a manifest:
        # "boundary" (a zero on the unit circle) is sampled at 8x for p < 2,
        # and "node", "node_j" and "node_i" vanish exactly at the node of
        # angle 0 on their ring, which moves for p < 2; each side of the one
        # call on the corpus equals the call on its function alone, bit for bit
        rng = np.random.default_rng(5)
        r_i, r_j = float(small_grid.radii[7]), float(small_grid.radii[15])
        coeffs = {
            "real12": rng.normal(size=13) / 4,
            "cplx12": (rng.normal(size=13) + 1j * rng.normal(size=13)) / 4,
            "boundary": np.pad([0.5, -0.5], (0, 11)),
            "node": np.pad([-r_i, 1.0], (0, 11)),
            "node_j": np.pad([-r_j, 1.0], (0, 11)),
            "real20": np.pad([1.0, 0.0, 0.3, 0.0, 0.1], (0, 16)),
            "cplx20": (rng.normal(size=21) + 1j * rng.normal(size=21)) / 4,
            "node_i": np.pad([-1j * r_i, 1j], (0, 19)),
        }
        items = [{"name": n, "coeffs": [[c.real, c.imag] for c in np.asarray(a, dtype=complex)]} for n, a in coeffs.items()]
        corpus = corpus_from_manifest(json.dumps({"functions": items}))
        fs = {cf.name: cf.series for cf in corpus}
        outer = sample_moduli(fs["boundary"], [small_grid.r_max], small_grid.angular)
        assert np.min(outer) <= 2.0 * (1.0 - small_grid.r_max) * 0.5
        for name, r in (("node", r_i), ("node_j", r_j), ("node_i", r_i)):
            assert sample_moduli(fs[name], [r], small_grid.angular)[0, 0] == 0.0
        ps, ks = [0.5, 1.0, 2.0, 4.0], [1, 2]
        got = prop_main_sides(list(fs.values()), ps, ks, small_grid)
        assert got == [prop_main_sides(f, ps, ks, small_grid) for f in fs.values()]

    def test_default_corpus_samples_two_stacks(self, small_grid):
        # the real and the complex members of the corpus, each one stack
        corpus = [cf.series for cf in default_corpus()]
        with mock.patch.object(hardy, "modulus_shares", wraps=hardy.modulus_shares) as calls:
            got = prop_main_sides(corpus, 2.0, 1, small_grid)
        assert calls.call_count == 2
        assert got == [prop_main_sides(f, 2.0, 1, small_grid) for f in corpus]

    def test_monomial_low_exponent_direction(self, grid):
        # z^5 at p=1, k=2: the Hardy power is dominated by the area side
        f = PowerSeries(np.eye(6)[5])
        lhs, rhs = prop_main_sides(f, 1.0, 2, grid)
        assert lhs <= 4.0 * rhs

    def test_exponential_high_exponent_direction(self, grid):
        f = exp_eps_series(1.0, order=40)
        lhs, rhs = prop_main_sides(f, 4.0, 2, grid)
        assert rhs <= 4.0 * lhs
        margin, _ = loc_univ_margin(f, grid)
        assert np.isfinite(margin)

    def test_area_monotone_under_dilation(self, grid):
        # the area quantity grows with the dilation radius (domain exhaustion)
        from disclab.series import dilate

        f = PowerSeries([1.0, 0.7, 0.4, -0.2]).pad(16)
        vals = []
        for r in (0.9, 0.99, 1.0):
            g = f if r == 1.0 else dilate(f, r)
            _, rhs = prop_main_sides(g, 1.0, 1, grid)
            vals.append(rhs)
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


class TestLocallyUnivalent:
    def test_exponential_margin_is_one(self, grid):
        f = exp_eps_series(1.0, order=40)
        margin, per_k = loc_univ_margin(f, grid)
        assert margin == pytest.approx(1.0, rel=1e-6)
        assert set(per_k) == {1, 2, 3}

    def test_linear_margin_zero(self, grid):
        margin, _ = loc_univ_margin(PowerSeries([0, 1]).pad(8), grid)
        assert margin == 0.0

    def test_koebe_like_finite(self, grid):
        f = PowerSeries(np.arange(65, dtype=float))  # z/(1-z)^2 truncated
        margin, _ = loc_univ_margin(f, grid)
        assert np.isfinite(margin)

    def test_vanishing_derivative_rejected(self, grid):
        with pytest.raises(ValueError):
            loc_univ_margin(PowerSeries([1.0, 0.0, 1.0]).pad(8), grid)  # f' = 2z vanishes at 0


class TestZeroFreeExperiment:
    def test_degenerate_constant(self, grid):
        # for constant f both sides reduce to |c|^p and the area quantity
        # vanishes: the empirical constant is undefined (degenerate)
        with pytest.raises(ValueError, match="degenerate"):
            nonvanishing_bound_check(PowerSeries([2.0]).pad(8), 1.0, grid)

    def test_exp_small_exponent_fit(self, grid):
        slope, track = fit_cp_exponent(exp_eps_series(0.1), grid)
        assert 1.5 <= slope <= 2.5
        for p, c in track:
            assert c >= 0.0

    def test_quarter_power_bound_holds(self, grid):
        f = pow_series(PowerSeries([1.0, -0.5]).pad(40), 0.25)
        for p in (1.0, 0.5, 0.25):
            lhs, area, c_emp = nonvanishing_bound_check(f, p, grid)
            assert lhs <= c_emp * area + abs(f.coeffs[0]) ** p + abs(f.coeffs[1]) ** p + 1e-12

    def test_vanishing_function_rejected(self, grid):
        with pytest.raises(ValueError):
            nonvanishing_bound_check(PowerSeries([0.0, 1.0]).pad(8), 1.0, grid)


class TestMembership:
    def test_zero_coefficient(self, grid):
        rep = hp_membership_experiment(PowerSeries(np.zeros(17)), 2.0, grid, order=16)
        assert rep.coefficient_quantity.value == 0.0
        assert rep.ee_integral == 0.0
        assert all(np.isfinite(v) for _, v in rep.mean_profile)

    def test_small_constant(self, grid):
        rep = hp_membership_experiment(PowerSeries([0.05]).pad(64), 2.0, grid, order=64)
        assert not rep.mu_carleson.divergence_flag
        assert rep.ee_integral < 1.0
        profile_vals = [v for _, v in rep.mean_profile]
        assert max(profile_vals) < 2.0

    def test_exp_singular_measure_diverges(self, grid):
        A = named_example("exp-singular", order=2048).coefficient
        rep = hp_membership_experiment(A, 2.0, grid, order=256)
        assert rep.mu_carleson.divergence_flag


class TestCorpus:
    def test_deterministic(self):
        a = default_corpus(seed=7, count=10)
        b = default_corpus(seed=7, count=10)
        for x, y in zip(a, b):
            assert x.name == y.name
            assert np.array_equal(x.series.coeffs, y.series.coeffs)

    def test_tags_and_size(self):
        corpus = default_corpus(seed=7, count=30)
        assert len(corpus) == 30
        assert all("zero-free" in cf.tags for cf in corpus)

    def test_manifest_round_trip(self, tmp_path):
        corpus = default_corpus(seed=3, count=6)
        items = [
            {"name": cf.name, "tags": list(cf.tags), "coeffs": [[c.real, c.imag] for c in cf.series.coeffs]}
            for cf in corpus
        ]
        text = json.dumps({"functions": items})
        back = corpus_from_manifest(text)
        for x, y in zip(corpus, back):
            assert x.name == y.name and x.tags == y.tags
            assert np.allclose(x.series.coeffs, y.series.coeffs)
