"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from disclab.conditions import (
    lalpha_norm,
    lmoa_quantity,
    lmoa_square,
    log_reciprocal_coefficient,
    moment_log_integral,
    nehari_sup,
)
from disclab.geometry import ZeroSequence, greedy_partition, separation_sums
from disclab.hardy import default_corpus, fit_cp_exponent, hss_residual, prop_main_sides
from disclab.norms import bloch_norm, bmoa_garsia, growth_norm
from disclab.ode import (
    ODEProblem,
    hille_zero_table,
    named_example,
    residual,
    solve_series,
    symmetric_power_problem,
    transform_order3,
)
from disclab.series import PowerSeries, compose_moebius, exp_series
from disclab.weights import (
    RadialWeight,
    green_identity_residual,
    kernel_derivative_residual,
    kernel_eval,
    moment_identity_gap,
)


def _zeros(order):
    return PowerSeries(np.zeros(order + 1, dtype=complex))


def test_criterion_1_hille_reproduction(grid):
    t0 = time.perf_counter()
    for gamma in (0.5, 1.0, 2.0):
        table = hille_zero_table(gamma, 15, order=256)
        assert len(table) == 15
        for k, (x, s) in enumerate(table, start=1):
            assert abs(x - math.tanh(k * math.pi / (2 * gamma))) <= 1e-8
        for (xa, sa), (xb, sb) in zip(table, table[1:]):
            assert abs((sb - sa) - math.pi / (2 * gamma)) <= 1e-8
        A = named_example(f"hille:gamma={gamma}", order=1024).coefficient
        rep = nehari_sup(A, grid)
        assert rep.value == pytest.approx(1 + 4 * gamma**2, rel=0.01)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: hille zeros/gaps/level for gamma in (0.5, 1, 2) [{elapsed:.2f}s]")


def test_criterion_2_exp_singular_reproduction(grid):
    t0 = time.perf_counter()
    ex = named_example("exp-singular", order=80)
    f = solve_series(ex.problem)
    M, r = 2048, 0.9
    z = r * np.exp(2j * np.pi * np.arange(M) / M)
    oracle = np.fft.fft(np.exp(-(1 + z) / (1 - z))) / M / r ** np.arange(M)
    assert np.max(np.abs(f.coeffs[:61] - oracle[:61])) <= 1e-10
    A = named_example("exp-singular", order=4096).coefficient
    assert nehari_sup(A, grid).divergence_flag
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    print(f"ACCEPTANCE 2 PASS: exp-singular coefficients to 1e-10 and divergence flag [{elapsed:.2f}s]")


def test_criterion_3_ode_residuals():
    worst = 0.0
    for spec in ("hille:gamma=1.0", "hille:gamma=0.5", "hille:gamma=2.0", "exp-singular", "constant:c=0.25"):
        ex = named_example(spec, order=200)
        worst = max(worst, residual(solve_series(ex.problem), ex.problem, r_max=0.9))
    rng = np.random.default_rng(42)
    z200 = _zeros(200)
    for _ in range(20):
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c *= rng.random() / np.linalg.norm(c)  # coefficient vector inside the unit ball
        p = ODEProblem(2, (PowerSeries(c).pad(200), z200), (rng.standard_normal(), rng.standard_normal()), 200)
        worst = max(worst, residual(solve_series(p), p, r_max=0.9))
    assert worst < 1e-9
    print(f"ACCEPTANCE 3 PASS: max residual {worst:.2e} < 1e-9 over named + 20 random problems")


def test_criterion_4_conformal_transform(grid):
    rng = np.random.default_rng(43)
    N = 200
    worst_res = 0.0
    # transformed-problem residuals for random order-3 problems and the
    # squared oscillatory example, |a| <= 0.5
    problems = []
    for _ in range(3):
        coeffs = tuple(PowerSeries(0.5 * rng.standard_normal(d)).pad(N) for d in (9, 7, 5))
        problems.append(ODEProblem(3, coeffs, (0.3, 1.0, -0.2), N))
    hp = symmetric_power_problem(named_example("hille:gamma=1.0", order=400).coefficient, order=400)
    problems.append(ODEProblem(3, hp.coefficients, (0.0, 0.0, 8.0), 400))
    for p in problems:
        f = solve_series(p)
        for a in (0.3, -0.5, 0.25 + 0.35j):
            g = compose_moebius(f, a, out_order=p.truncation_order)
            B = transform_order3(*p.coefficients, a, out_order=p.truncation_order)
            iv = (complex(g.coeffs[0]), complex(g.coeffs[1]), complex(2 * g.coeffs[2]))
            worst_res = max(
                worst_res, residual(g, ODEProblem(3, B, iv, p.truncation_order), r_max=0.8)
            )
    assert worst_res < 1e-8
    # growth-norm invariance of the leading coefficient under the transform
    worst_ratio = 0.0
    zero256 = _zeros(256)
    for _ in range(4):
        A0 = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9)).pad(256)
        for a in (0.3, -0.5, 0.25 + 0.35j):
            B0, _, _ = transform_order3(A0, zero256, zero256, a, out_order=256)
            nA = growth_norm(A0, 3.0, grid).value
            nB = growth_norm(B0, 3.0, grid).value
            worst_ratio = max(worst_ratio, abs(nB / nA - 1.0))
    assert worst_ratio < 0.01
    print(
        f"ACCEPTANCE 4 PASS: transform residual {worst_res:.2e} < 1e-8; "
        f"growth-norm invariance within {worst_ratio:.2%}"
    )


def test_criterion_5_identity_suites(grid):
    rng = np.random.default_rng(44)
    # Hardy-Stein-Spencer on degree <= 8 polynomials (roots off the closed disc)
    worst_hss = 0.0
    for _ in range(4):
        roots = [(1.2 + 1.8 * rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(8)]
        c = np.array([1.0 + 0j])
        for w in roots:
            c = np.convolve(c, [1.0, -1.0 / w])
        worst_hss = max(worst_hss, *hss_residual(PowerSeries(c), (0.5, 1.0, 2.0, 4.0), grid))
    assert worst_hss < 1e-6
    # Green-type identity for standard weights
    worst_green = 0.0
    for alpha in (0.0, 1.0, 2.0):
        w = RadialWeight.standard(alpha)
        for _ in range(3):
            f = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
            g = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
            worst_green = max(worst_green, green_identity_residual(f, g, w, grid))
    assert worst_green < 1e-8
    # kernel-derivative identity and the exact moment identity
    worst_kd, worst_mom = 0.0, 0.0
    for alpha in (0.0, 1.0, 2.0):
        w = RadialWeight.standard(alpha)
        for zeta, u in ((0.5, 0.5), (0.7j, -0.4), (0.8, 0.6j)):
            worst_kd = max(worst_kd, kernel_derivative_residual(w, zeta, u, 200))
        worst_mom = max(worst_mom, moment_identity_gap(w, 64))
    assert worst_kd < 1e-6
    assert worst_mom < 1e-10
    print(
        f"ACCEPTANCE 5 PASS: hss {worst_hss:.2e} < 1e-6, green {worst_green:.2e} < 1e-8, "
        f"kernel-derivative {worst_kd:.2e} < 1e-6, moment identity gap {worst_mom:.2e}"
    )


def test_criterion_6_standard_kernels():
    worst = 0.0
    rng = np.random.default_rng(45)
    for alpha in (0, 1):
        w = RadialWeight.standard(float(alpha))
        for _ in range(25):
            zeta = math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            u = 0.8 / max(abs(zeta), 0.8) * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            if abs(u * np.conj(zeta)) > 0.8:
                u *= 0.8 / abs(u * zeta)
            got = kernel_eval(w, zeta, u, 200)
            want = (1 - u * np.conj(zeta)) ** (-2.0 - alpha)
            worst = max(worst, abs(got - want))
    assert worst < 1e-8
    print(f"ACCEPTANCE 6 PASS: standard kernels match closed forms to {worst:.2e}")


def test_criterion_7_two_sided_hardy_comparison(grid):
    corpus = default_corpus(seed=7, count=30)

    ps = np.array([0.5, 1.0, 2.0, 4.0, 6.0])
    low, high = ps <= 2.0, ps >= 2.0

    def constants(g):
        c_low = 0.0
        c_high = 0.0
        for cf in corpus:
            # rows p, columns k in (1, 2), all from one sampling
            lhs, rhs = np.array(prop_main_sides(cf.series, ps, (1, 2), g))
            assert np.all(rhs[low] > 0.0)
            c_low = max(c_low, float(np.max(lhs[low] / rhs[low])))
            assert np.all(lhs[high] > 0.0)
            c_high = max(c_high, float(np.max(rhs[high] / lhs[high])))
        return c_low, c_high

    base = constants(grid)
    doubled = constants(grid.refined())
    for b, d in zip(base, doubled):
        assert abs(d - b) <= 0.10 * b
    assert 1e-3 < base[0] < 1e3 and 1e-3 < base[1] < 1e3
    print(
        f"ACCEPTANCE 7 PASS: corpus constants C_low={base[0]:.3f}, C_high={base[1]:.3f}, "
        f"stable under grid doubling (drift {max(abs(d / b - 1) for b, d in zip(base, doubled)):.2%})"
    )


def test_criterion_8_comparison_lemma_spot_checks(grid):
    A = log_reciprocal_coefficient(2048)
    sq = lmoa_square(A, grid)
    assert np.isfinite(sq.value)
    assert abs(sq.value - sq.value_coarse) <= 0.25 * sq.value
    assert lalpha_norm(log_reciprocal_coefficient(8192), 2.0, grid).divergence_flag
    for n in (16, 64, 256, 1024, 4096):
        ratio = moment_log_integral(n) / (math.log(n) ** 3 / n**4)
        assert 1 / 8 <= ratio <= 8
    corpus = [
        PowerSeries([0.4]).pad(64),
        PowerSeries([0.1, 0.3, -0.2]).pad(64),
        A,
        named_example("hille:gamma=0.5", order=512).coefficient,
    ]
    freqs = [2**k for k in range(1, 11)]
    from disclab.conditions import lacunary_series

    corpus.append(lacunary_series(np.ones(10), freqs))
    ratios = []
    for fn in corpus:
        q = lmoa_quantity(fn, grid).value
        s = lmoa_square(fn, grid).value
        ratios.append(q / s)
        assert 1 / 16 <= q / s <= 16
    print(
        "ACCEPTANCE 8 PASS: square form finite/stable, alpha=2 flag set, "
        f"moment ratios in band, lmoa/lmoa-square ratios {min(ratios):.2f}..{max(ratios):.2f}"
    )


def test_criterion_9_partition_bounds():
    def hille_xs(ks):
        return [math.tanh(k * math.pi / 2) for k in ks]

    families = [
        (ZeroSequence.simple(hille_xs(range(1, 9))), 0.5),
        (ZeroSequence(tuple((x, 2) for x in hille_xs(range(0, 10)))), 0.9),
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
        M = max(separation_sums(seq, a, 2) for a in set(seq.expand()))
        p = max(m for _, m in seq.points)
        rep = greedy_partition(seq, delta)
        assert rep.partition_count <= math.floor(M) + p
    doubles = ZeroSequence(tuple((x, 2) for x in hille_xs(range(0, 12))))
    assert greedy_partition(doubles, 0.9).partition_count == 2
    print("ACCEPTANCE 9 PASS: greedy partitions within floor(M)+p; squared-oscillator doubles split into exactly 2")


def test_criterion_10_zero_free_constant_scaling(grid):
    lin = np.zeros(41, dtype=complex)
    lin[1] = 0.1
    slope, track = fit_cp_exponent(exp_series(PowerSeries(lin)), grid)
    assert 1.5 <= slope <= 2.5
    print(f"ACCEPTANCE 10 PASS: fitted C(p) exponent {slope:.3f} in [1.5, 2.5]")


def test_small_coefficient_sanity_direction(grid):
    # solutions for tiny constant coefficients stay bounded in all three
    # estimator families with no divergence flags
    for c in (0.02, 0.05):
        A = PowerSeries([c]).pad(128)
        z = _zeros(128)
        for iv in ((1.0, 0.0), (0.0, 1.0)):
            f = solve_series(ODEProblem(2, (A, z), iv, 128))
            hinf = growth_norm(f, 0.0, grid)
            gar = bmoa_garsia(f, grid)
            blo = bloch_norm(f, grid)
            for est in (hinf, gar, blo):
                assert np.isfinite(est.value)
                assert est.value < 10.0
                assert not est.divergence_flag
    print("SANITY PASS: small constant coefficients give bounded, unflagged solution estimates")
