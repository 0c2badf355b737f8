import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from disclab.grids import QuadratureGrid
from disclab.norms import NormEstimate
from disclab.series import AccuracyWarning, PowerSeries, dilate
from disclab.weights import (
    BoundNotApplicableError,
    RadialWeight,
    StandardWeight,
    bergman_inner,
    bloch_kernel_quantity,
    bloch_solution_bound,
    green_boundary_residual,
    green_identity_residual,
    kernel_derivative_residual,
    kernel_eval,
    moment_identity_gap,
    pointwise_growth_margin,
    regularity_constants,
)


def random_tabulated_normalized(seed=0):
    rng = np.random.default_rng(seed)
    c = 0.5 + rng.random(3)

    def profile(r):
        r = np.asarray(r, dtype=float)
        return c[0] + c[1] * r**2 + c[2] * (1 - r) ** 2

    w = RadialWeight.tabulated(profile)
    scale = 2.0 * w.moment(1)
    return RadialWeight.tabulated(lambda r: profile(r) / scale)


class TestMoments:
    def test_standard_alpha0_closed_form(self):
        w = RadialWeight.standard(0.0)
        for x in (0, 1, 2, 3, 7):
            assert w.moment(x) == pytest.approx(1.0 / (x + 1), rel=1e-13)

    def test_standard_weights_are_normalized(self):
        for alpha in (0.0, 1.0, 2.0, 0.5):
            assert RadialWeight.standard(alpha).normalized

    def test_tabulated_flat(self):
        w = RadialWeight.tabulated(lambda r: np.ones_like(np.asarray(r, dtype=float)))
        assert w.moment(0) == pytest.approx(1.0, abs=1e-10)

    def test_derived_weights_alpha0(self):
        w = RadialWeight.standard(0.0)
        assert w.what(0.3) == pytest.approx(0.7, rel=1e-12)
        assert w.wtilde(0.3) == pytest.approx(1 - 0.09, rel=1e-12)
        # wstar closed form: (1/2) log(1/r) - (1-r^2)/4
        r = 0.5
        assert w.wstar(r) == pytest.approx(0.5 * np.log(1 / r) - (1 - r * r) / 4, abs=1e-12)

    def test_wstar_against_quadrature_oracle(self):
        w = RadialWeight.standard(0.0)
        xs, ws = leggauss(64)
        r = 0.5
        s = (1 - r) / 2 * xs + (1 + r) / 2
        oracle = (1 - r) / 2 * np.sum(ws * np.log(s / r) * 1.0 * s)
        assert w.wstar(r) == pytest.approx(float(oracle), abs=1e-10)

    def test_moment_identity(self):
        for w in (RadialWeight.standard(0.0), RadialWeight.standard(1.0)):
            assert moment_identity_gap(w, 64) < 1e-12
        assert moment_identity_gap(random_tabulated_normalized(), 32) < 1e-8


# ---------------------------------------------------------------------------
# the panel rule against exact tails
# ---------------------------------------------------------------------------

# Radii in [0, 1 - 1e-8]; the second branch, 1 - 10**-e, reaches toward the boundary.
radii = st.one_of(st.floats(0.0, 1.0 - 1e-8), st.floats(0.0, 8.0).map(lambda e: 1.0 - 10.0**-e))


def exact_tails(c, r):
    """Tails of ``sum c_k s^k`` at the float ``r``: exact rationals, and
    ``wstar`` from them with a 50-digit log."""
    R = Fraction(r)
    what = sum(Fraction(ck) * (1 - R ** (k + 1)) / (k + 1) for k, ck in enumerate(c))
    wtilde = sum(2 * Fraction(ck) * (1 - R ** (k + 2)) / (k + 2) for k, ck in enumerate(c))
    # int_r^1 log(s/r) s^(k+1) ds = -log(r)/(k+2) - (1 - r^(k+2))/(k+2)^2
    log_part = sum(Fraction(ck) / (k + 2) for k, ck in enumerate(c))
    rest = sum(Fraction(ck) * (1 - R ** (k + 2)) / (k + 2) ** 2 for k, ck in enumerate(c))
    with localcontext() as ctx:
        ctx.prec = 50

        def dec(q):
            return Decimal(q.numerator) / q.denominator

        wstar = float(-dec(R).ln() * dec(log_part) - dec(rest)) if r > 0 else None
    return {"what": float(what), "wtilde": float(wtilde), "wstar": wstar}


def assert_rel(got, want, rel):
    assert abs(got - want) <= rel * abs(want), (got, want)


class TestPanelRule:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 4.0), min_size=0, max_size=6),
        st.floats(0.1, 4.0),
        st.lists(radii, min_size=1, max_size=6),
    )
    @example([0.0, 1.0], 1.0, [0.0, 0.5, 1.0 - 1e-8])
    def test_polynomial_profiles_against_exact_tails(self, higher, c0, rs):
        c = [c0, *higher]  # positive on [0, 1]
        w = RadialWeight.tabulated(lambda r: np.polynomial.polynomial.polyval(r, c))
        for x in (0, 1, 2, 5, 17, 129):
            assert_rel(w.moment(x), float(sum(Fraction(ck) / (x + k + 1) for k, ck in enumerate(c))), 1e-13)
            tilde = sum(2 * Fraction(ck) / ((x + 1) * (x + k + 3)) for k, ck in enumerate(c))
            assert_rel(w.tilde().moment(x), float(tilde), 1e-13)
        positive = [r for r in rs if r > 0]  # wstar is singular at 0
        for name, points in (("what", rs), ("wtilde", rs), ("wstar", positive)):
            method = getattr(w, name)
            array = method(np.array(points)) if points else []
            for r, from_array in zip(points, array):
                exact = exact_tails(c, r)[name]
                assert_rel(method(r), exact, 1e-13)
                assert_rel(from_array, exact, 1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_generic_rule_matches_standard_closed_forms(self, alpha):
        std = RadialWeight.standard(alpha)
        generic = RadialWeight.tabulated(std)  # the same profile, read on the panel rule
        for x in (0, 1, 2, 7, 31, 129):
            assert_rel(generic.moment(x), std.moment(x), 1e-14)
        r = np.concatenate([np.linspace(0.01, 0.99, 25), 1.0 - np.geomspace(1e-3, 1e-8, 11)])
        for name in ("what", "wtilde", "wstar"):
            np.testing.assert_allclose(getattr(generic, name)(r), getattr(std, name)(r), rtol=1e-9, err_msg=name)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_standard_what_near_one_against_exact_polynomial_tails(self, alpha):
        # (alpha+1)(1-s^2)^alpha = sum_j (alpha+1) C(alpha, j) (-1)^j s^(2j)
        w = RadialWeight.standard(float(alpha))
        rs = [0.0, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-6, 1 - 1e-7, 1 - 1e-8]
        got = w.what(np.array(rs))
        for i, r in enumerate(rs):
            R = Fraction(r)
            exact = sum(
                Fraction((alpha + 1) * comb(alpha, j) * (-1) ** j) * (1 - R ** (2 * j + 1)) / (2 * j + 1)
                for j in range(alpha + 1)
            )
            assert_rel(w.what(r), float(exact), 1e-12)
            assert_rel(got[i], float(exact), 1e-12)


# 40-digit values of the standard weights' moments and tail integrals, from
# the closed forms (the script is in TestAgainstHighPrecisionValues' docstring)
MOMENT_XS = (0, 1, 7, 129, 341, 513)
MOMENTS = {
    -0.5: ["0.7853981633974483096156608458198757210493", "0.5", "0.2285714285714285714285714285714285714286",
           "0.05506725650979166656784243105830589979478", "0.03391051270640929918136365594969149350057",
           "0.02765410553862384141308216533627277051541"],
    0.0: ["1.0", "0.5", "0.125", "0.007692307692307692307692307692307692307692",
          "0.002923976608187134502923976608187134502924", "0.001945525291828793774319066147859922178988"],
    0.5: ["1.178097245096172464423491268729813581574", "0.5", "0.07619047619047619047619047619047619047619",
          "0.00126108221014790076109562819217494427011", "0.0002965934055954166109157171074317040247864",
          "0.0001610918769240223771635854291433365272742"],
    1.0: ["1.333333333333333333333333333333333333333", "0.5", "0.05",
          "0.0002331002331002331002331002331002331002331", "0.0000339997280021759825921392628858969128247",
          "0.00001508159140952553313425632672759629596115"],
    2.0: ["1.6", "0.5", "0.025", "0.00001043732387015969105521344327314476568208",
          "0.0000005895906589972713744301606280791372166132", "0.0000001746902479867822370763281088138567099747"],
    7.5: ["2.622028567042964411328284247694864029058", "0.5", "0.002615233736515201046093494606080418437398",
          "0.00000000001449059577505140379891350926693424821185", "5.192731589198743136966189655887973477477e-15",
          "1.72916927278873959900605893645125265496e-16"],
}
WHAT_RS = (0.0, 0.27, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8)
WHATS = {
    0.0: ["1.0", "0.7299999999999999822364316059974953532219", "0.09999999999999997779553950749686919152737",
          "0.01000000000000000888178419700125232338905", "0.00009999999999998898658759571844711899757385",
          "0.000001000000000028755664516211254522204399109", "0.00000001000000005024759275329415686428546905518"],
    1.0: ["1.333333333333333333333333333333333333333", "0.8064553333333333003961248171738893876713",
          "0.01933333333333332489563834618214451358225", "0.0001993333333333336868283443739833319986769",
          "0.00000001999933333332892818863986904037823650593",
          "0.000000000001999999333448355933888503093829403183892", "2.000000013432370384652221617513080233945e-16"],
    4.0: ["2.031746031746031746031746031746031746032", "0.8046513183373558939876597152325121177785",
          "0.0001349981746031744584892283824282099700922", "0.000000001573504262460324424698536597307896334831",
          "1.599733350474809584955072229975854259471e-19", "1.599997333565092474600252126624520699728e-29",
          "1.600000013531407307407036061057869778886e-39"],
    10.0: ["2.972862019301647784619920842831059549326", "0.6004189818286197407974330110797824614001",
           "0.000000006410072947971548537782499717631744053009", "9.780294653337851027236451068638110480483e-20",
           "1.023530764130282227068359997657333716435e-41", "1.023995307000316532547589422295367246594e-63",
           "1.024000009665554710780955942449971968279e-85"],
}


class TestAgainstHighPrecisionValues:
    """Moments and tail integrals of ``RadialWeight.standard(alpha)`` against
    40-digit values of their closed forms, ``w_x = (alpha + 1)/2 B((x + 1)/2,
    alpha + 1)`` and ``what(r) = (alpha + 1)/2 B_{1 - r^2}(alpha + 1, 1/2)``,
    at the float radii themselves::

        import mpmath as mp
        mp.mp.dps = 50
        for alpha in (-0.5, 0, 0.5, 1, 2, 7.5):
            print(alpha, [mp.nstr((alpha + 1) / mp.mpf(2) * mp.beta(mp.mpf(x + 1) / 2, alpha + 1), 40)
                          for x in (0, 1, 7, 129, 341, 513)])
        for alpha in (0, 1, 4, 10):
            print(alpha, [mp.nstr((alpha + 1) / mp.mpf(2) * mp.betainc(alpha + 1, mp.mpf(1) / 2, 0, 1 - mp.mpf(r) ** 2), 40)
                          for r in (0.0, 0.27, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8)])

    ``x >= 341`` puts the moments' beta function past ``a + b = 171``, where
    ``Gamma(a + b)`` overflows.  The bounds are the accuracy of the in-repo
    beta and incomplete beta functions (at most 1.3e-15 and 1.6e-15 here);
    scipy's ``exp(betaln)`` and ``betainc`` read up to 2.4e-13 and 1.9e-15
    on the same values."""

    @pytest.mark.parametrize("alpha", sorted(MOMENTS))
    def test_moments(self, alpha):
        w = RadialWeight.standard(alpha)
        for x, exact in zip(MOMENT_XS, MOMENTS[alpha]):
            assert_rel(w.moment(x), float(exact), 2e-15)

    @pytest.mark.parametrize("alpha", sorted(WHATS))
    def test_tail_integrals(self, alpha):
        w = RadialWeight.standard(alpha)
        exact = np.array([float(v) for v in WHATS[alpha]])
        np.testing.assert_allclose(w.what(np.array(WHAT_RS)), exact, rtol=2e-15, atol=0.0)
        for r, want in zip(WHAT_RS, exact):
            assert_rel(w.what(r), want, 2e-15)


class TestRegularity:
    def test_alpha0_exact_power_law(self):
        a, b, c = regularity_constants(RadialWeight.standard(0.0))
        assert a == pytest.approx(1.0, abs=1e-10)
        assert b == pytest.approx(1.0, abs=1e-10)
        assert c == pytest.approx(1.0, abs=1e-8)

    def test_alpha1_exponents_near_two(self):
        a, b, c = regularity_constants(RadialWeight.standard(1.0))
        assert abs(b - 2.0) < 0.05
        assert abs(a - 2.0) < 0.25
        assert c < 1.5

    def test_tail_near_one_does_not_vanish(self):
        # the standard tail integral is positive up to the last radius
        a, b, c = regularity_constants(RadialWeight.standard(4), radii=[0, 0.5, 0.9, 1 - 1e-5])
        assert 0.0 < a <= b and c >= 1.0

    def test_vanishing_tail_raises(self):
        w = RadialWeight.tabulated(
            lambda r: np.where(np.asarray(r, dtype=float) < 0.5, 1.0, 0.0)
        )
        with pytest.raises(ValueError):
            regularity_constants(w)


class TestKernels:
    def test_centre_zero(self):
        w = RadialWeight.standard(0.0)
        assert kernel_eval(w, 0.0, 0.3, 50) == pytest.approx(1.0)  # 1/(2 w_1)

    def test_standard_closed_forms(self):
        for alpha in (0, 1):
            w = RadialWeight.standard(float(alpha))
            for zeta, u in [(0.5, 0.5), (0.8, 0.6j), (0.7j, -0.5), (0.9, 0.88)]:
                got = kernel_eval(w, zeta, u, 200)
                want = (1 - u * np.conj(zeta)) ** (-2 - alpha)
                assert abs(got - want) < 1e-8

    def test_kernel_symmetry(self):
        w = RadialWeight.standard(1.0)
        a, b = 0.4 + 0.3j, -0.2 + 0.6j
        assert kernel_eval(w, a, b, 120) == pytest.approx(
            np.conj(kernel_eval(w, b, a, 120)), abs=1e-12
        )

    def test_reproducing_property(self):
        w = RadialWeight.standard(0.0)
        f = PowerSeries([1.0, -0.5, 0.25, 2.0, 0.125])
        for zeta in (0.3, 0.5j, -0.6 + 0.2j):
            kern = PowerSeries(np.conj(complex(zeta)) ** np.arange(81) / (2 * w.odd_moments(80)))
            got = bergman_inner(f.pad(80), kern, w)
            assert abs(got - f(zeta)) < 1e-7

    def test_derivative_matches_tilde_kernel(self):
        w = RadialWeight.standard(0.0)
        assert kernel_derivative_residual(w, 0.5, 0.5, 200) < 1e-9
        assert kernel_derivative_residual(w, 0.0, 0.7, 50) == 0.0
        wt = random_tabulated_normalized(1)
        assert kernel_derivative_residual(wt, 0.4, 0.3, 60) < 1e-6

    def test_tilde_is_built_once(self):
        # repeated residuals reuse one tilde weight and its cached moments
        for w in (random_tabulated_normalized(2), RadialWeight.standard(1.0)):
            assert w.tilde() is w.tilde()
            first = kernel_derivative_residual(w, 0.4, 0.3, 60)
            moments = w.tilde()._odd_moments
            assert kernel_derivative_residual(w, 0.4, 0.3, 60) == first
            assert w.tilde()._odd_moments is moments


class TestGreenIdentities:
    def test_constants(self, grid):
        w = RadialWeight.standard(0.0)
        one = PowerSeries([1.0])
        assert bergman_inner(one, one, w) == pytest.approx(1.0)
        assert green_identity_residual(one, one, w, grid) < 1e-12

    def test_monomial_inner(self, grid):
        w = RadialWeight.standard(0.0)
        z = PowerSeries([0, 1])
        assert bergman_inner(z, z, w) == pytest.approx(0.5)
        assert green_identity_residual(z, z, w, grid) < 1e-9

    def test_random_polynomials(self, grid):
        rng = np.random.default_rng(3)
        for alpha in (0.0, 1.0, 2.0):
            w = RadialWeight.standard(alpha)
            for _ in range(3):
                f = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
                g = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
                assert green_identity_residual(f, g, w, grid) < 1e-8

    def test_refinement_convergence(self, grid, small_grid):
        w = RadialWeight.standard(1.0)
        f = PowerSeries([1.0, 2.0, -1.0, 0.5])
        coarse = green_identity_residual(f, f, w, small_grid)
        fine = green_identity_residual(f, f, w, grid)
        assert fine <= coarse + 1e-15

    def test_requires_normalized(self, grid):
        w = StandardWeight(alpha=0.0, scale=3.0)
        with pytest.raises(ValueError):
            green_identity_residual(PowerSeries([1.0]), PowerSeries([1.0]), w, grid)

    def test_boundary_pairing(self, grid):
        rng = np.random.default_rng(4)
        f = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        g = PowerSeries(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        assert green_boundary_residual(f, g, grid) < 1e-10


class TestPointwiseGrowth:
    def test_zero_function(self, grid):
        w = RadialWeight.standard(0.0)
        assert pointwise_growth_margin(PowerSeries([0.0]).pad(16), w, 2.0, grid) >= 0.0

    def test_calibrated_examples(self, grid):
        w = RadialWeight.standard(0.0)
        assert pointwise_growth_margin(PowerSeries([0, 1]).pad(32), w, 2.0, grid, C=4.0) >= 0.0
        f = PowerSeries(np.ones(257))  # 1/(1-z)
        assert pointwise_growth_margin(f, w, 2.0, grid, C=4.0) >= 0.0


def reference_bloch_kernel_quantity(
    A, w, grid, r=None, kernel_order=None, z_radii=16, z_angles=16, _radial_weight=None
):
    """The estimate as evaluated before it read the sampling layer: a
    ``polyval`` per primitive on the z nodes and a Vandermonde product per
    u-radius, with the r-slice as an option."""

    def _u_rule(grid):
        sub = QuadratureGrid(
            r_max=grid.r_max,
            nodes_per_panel=4,
            angular=96,
            inner_depth=12,
            outer_depth=18,
            a_radii=(0.0,),
            a_angles=1,
        )
        return sub.radii, sub.weights, sub.thetas

    coeffs = A.coeffs.copy()
    if r is not None:
        coeffs = coeffs * float(r) ** np.arange(coeffs.size)
    nk = kernel_order if kernel_order is not None else min(max(A.order, 16), 128)
    mom = w.odd_moments(nk)

    # z sweep set: geometrically boundary-refined radii x equal angles
    zr = np.sort(np.unique(np.concatenate(
        [[0.3, 0.6], 1.0 - np.geomspace(0.5, 1.0 - grid.r_max, max(z_radii - 2, 4))]
    )))
    zth = np.exp(2j * np.pi * np.arange(z_angles) / z_angles)
    zset = (zr[:, None] * zth[None, :]).ravel()

    # P_n(z) for n = 1..nk
    m = np.arange(coeffs.size)
    P = np.empty((nk, zset.size), dtype=complex)
    for n in range(1, nk + 1):
        prim = coeffs / (m + n + 1)
        P[n - 1] = np.polynomial.polynomial.polyval(zset, prim) * zset ** (n + 1)
    scale = np.arange(1, nk + 1) / (2.0 * mom[1 : nk + 1])
    Q = P * scale[:, None]  # row n-1: coefficient of v^{n-1} per z

    ur, uw, uth = _u_rule(grid)
    if _radial_weight is None:
        radial = w.wstar(ur) / (1.0 - ur**2)
    else:
        radial = np.asarray(_radial_weight(ur), dtype=float)

    acc = np.zeros(zset.size)
    phases = np.exp(1j * uth)
    term_means = np.zeros(nk)  # for the tail diagnostic
    for s, ws, rad in zip(ur, uw, radial):
        vand = (s * phases)[None, :] ** np.arange(nk)[:, None]
        vals = np.abs(Q.T @ vand)  # (z, angles)
        acc += ws * 2.0 * s * rad * vals.mean(axis=1)
        term_means += ws * 2.0 * s * rad * s ** np.arange(nk)
    est = (1.0 - np.abs(zset) ** 2) * acc
    value = float(np.max(est))

    # geometric tail extrapolation from the last terms
    tail_terms = np.abs(Q[-8:]).max(axis=1) * term_means[-8:]
    if np.all(tail_terms[:-1] > 0):
        q = float(np.clip(np.median(tail_terms[1:] / tail_terms[:-1]), 0.0, 0.999))
        tail = float(tail_terms[-1] * q / (1.0 - q))
        if value > 0 and tail > 0.01 * value:
            warnings.warn(
                "bloch_kernel_quantity: kernel truncation tail above 1% of the value",
                AccuracyWarning,
                stacklevel=2,
            )

    coarse_idx = np.arange(0, zset.size, 2)
    coarse = float(np.max(est[coarse_idx]))
    inner = float(np.max(est[np.abs(zset) <= 0.9]))
    flag = bool(value > 2.0 * inner + 1e-300)
    return NormEstimate(value, coarse, flag)


@st.composite
def kernel_cases(draw):
    """A complex coefficient of order 0-300 (zero at scale 0), a standard
    weight, the estimate's options and an optional slice radius."""
    order = draw(st.integers(0, 300))
    scale = draw(st.sampled_from([0.0, 0.01, 1.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = PowerSeries(scale * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)))
    w = RadialWeight.standard(draw(st.sampled_from([0.0, 1.0, 2.5])))
    opts = dict(
        kernel_order=draw(st.none() | st.integers(8, 128)),
        z_radii=draw(st.integers(4, 16)),
        z_angles=draw(st.integers(4, 16)),
        _radial_weight=draw(st.sampled_from([None, w.wtilde])),
    )
    r = draw(st.none() | st.floats(0.5, 1.0, exclude_min=True))
    return A, w, opts, r


class TestBlochKernelQuantity:
    def test_zero_coefficient(self, grid):
        w = RadialWeight.standard(1.0)
        assert bloch_kernel_quantity(PowerSeries(np.zeros(33)), w, grid).value == 0.0

    @settings(max_examples=20, deadline=None)
    @given(kernel_cases())
    @example((PowerSeries(np.zeros(41)), RadialWeight.standard(1.0), {}, 0.9))
    @example((PowerSeries(np.arange(1.0, 130.0) + 0.5j), RadialWeight.standard(2.5), {"kernel_order": 96}, 0.9))
    def test_matches_per_radius_loops(self, grid, case):
        # the sampled stacks against the polyval and Vandermonde loops; an
        # r-slice is the estimate of the dilated coefficient
        A, w, opts, r = case
        got = bloch_kernel_quantity(A if r is None else dilate(A, r), w, grid, **opts)
        want = reference_bloch_kernel_quantity(A, w, grid, r=r, **opts)
        if not np.any(A.coeffs):
            assert got.value == got.value_coarse == want.value == 0.0
        assert_rel(got.value, want.value, 1e-12)
        assert_rel(got.value_coarse, want.value_coarse, 1e-12)
        assert got.divergence_flag == want.divergence_flag

    def test_homogeneous_degree_one(self, grid):
        w = RadialWeight.standard(1.0)
        A = PowerSeries([0.05, 0.02]).pad(32)
        v1 = bloch_kernel_quantity(A, w, grid).value
        v3 = bloch_kernel_quantity(A * 3.0, w, grid).value
        assert v3 == pytest.approx(3.0 * v1, rel=1e-10)

    def test_tilde_weighted_form_dominates_primitive(self, grid):
        # with the tilde radial factor the u-integral reproduces
        # int_0^z A(zeta) zeta dzeta exactly, so the absolute-value sweep
        # dominates sup (1-|z|^2) |int_0^z A zeta dzeta| up to quadrature
        w = RadialWeight.standard(1.0)
        for A in (PowerSeries([0.3]).pad(48), PowerSeries([0.1, -0.2, 0.05j]).pad(48)):
            est = bloch_kernel_quantity(
                A, w, grid, kernel_order=48, _radial_weight=w.wtilde
            ).value
            # sup over the same kind of z set of (1-|z|^2) |int A zeta dzeta|
            prim = (A * PowerSeries([0, 1]).pad(A.order)).antiderivative(0.0)
            zs = np.concatenate([r * np.exp(2j * np.pi * np.arange(16) / 16) for r in (0.3, 0.6, 0.9, 0.99)])
            lower = float(np.max((1 - np.abs(zs) ** 2) * np.abs(prim(zs))))
            assert est >= lower - 1e-6

    def test_constant_against_nested_quadrature_oracle(self, grid):
        # brute-force oracle: u-integral over an independent polar rule of
        # the path integral computed by Gauss-Legendre on segments
        w = RadialWeight.standard(1.0)
        c = 0.1
        A = PowerSeries([c]).pad(40)
        est = bloch_kernel_quantity(A, w, grid, kernel_order=40, z_radii=8, z_angles=8).value

        xs, ws_ = leggauss(32)
        t01 = (xs + 1) / 2
        # z sweep matching the implementation's maximizer search is not
        # needed: the quantity is radial for constant A, so test one z ring
        nk = 40
        mom = w.odd_moments(nk)

        def inner_abs_integral(z):
            ur = np.linspace(0.02, 0.98, 49)
            uth = np.exp(2j * np.pi * np.arange(64) / 64)
            total = 0.0
            for s in ur:
                u = s * uth
                vals = np.zeros(u.shape, dtype=complex)
                # path integral int_0^z conj(B'_zeta(u)) A(zeta) dzeta by GL
                for t1, w1 in zip(t01, ws_):
                    zeta = t1 * z
                    deriv = np.zeros(u.shape, dtype=complex)
                    for n in range(1, nk + 1):
                        deriv += n * np.conj(u) ** (n - 1) * np.conj(zeta) ** n / (2 * mom[n])
                    vals += w1 * np.conj(deriv) * c * z / 2
                wst = w.wstar(float(s)) / (1 - s * s)
                total += (ur[1] - ur[0]) * 2 * s * wst * float(np.mean(np.abs(vals)))
            return total

        z0 = 0.758305739 + 0.0j  # an interior point, value compared pointwise
        mine = (1 - abs(z0) ** 2) * inner_abs_integral(z0)

        # recompute the implementation's integrand at the same z via the
        # separable form
        coeffs = A.coeffs
        m = np.arange(coeffs.size)
        P = np.array(
            [np.polynomial.polynomial.polyval(z0, coeffs / (m + n + 1)) * z0 ** (n + 1) for n in range(1, nk + 1)]
        )
        scale = np.arange(1, nk + 1) / (2.0 * mom[1:])
        ur = np.linspace(0.02, 0.98, 49)
        uth = np.exp(2j * np.pi * np.arange(64) / 64)
        acc = 0.0
        for s in ur:
            vand = (s * uth)[None, :] ** np.arange(nk)[:, None]
            vals = np.abs((P * scale) @ vand)
            wst = w.wstar(float(s)) / (1 - s * s)
            acc += (ur[1] - ur[0]) * 2 * s * wst * float(np.mean(vals))
        impl_at_z0 = (1 - abs(z0) ** 2) * acc
        assert impl_at_z0 == pytest.approx(mine, abs=1e-4)
        # the production estimate is the same order of magnitude
        assert est == pytest.approx(impl_at_z0, rel=0.5)


class TestWeightSpecs:
    def test_standard_spec(self):
        from disclab.weights import weight_from_spec

        w = weight_from_spec("standard:alpha=1")
        assert isinstance(w, StandardWeight) and w.alpha == 1.0

    def test_table_spec(self, tmp_path):
        from disclab.weights import weight_from_spec

        rs = np.linspace(0.0, 1.0, 101)
        path = tmp_path / "w.txt"
        np.savetxt(path, np.column_stack([rs, np.ones_like(rs)]))
        w = weight_from_spec(f"table:{path}")
        assert w.moment(0) == pytest.approx(1.0, abs=1e-8)
        assert w.what(0.3) == pytest.approx(0.7, abs=1e-8)

    def test_table_spec_shapes(self, tmp_path):
        from disclab.weights import weight_from_spec

        one_row, one_column = tmp_path / "row.txt", tmp_path / "col.txt"
        one_row.write_text("0.5 2.0\n")
        one_column.write_text("0.1\n0.5\n")
        assert weight_from_spec(f"table:{one_row}")(0.3) == 2.0
        with pytest.raises(ValueError):
            weight_from_spec(f"table:{one_column}")


class TestInterchangeability:
    def test_three_indicators_agree_qualitatively(self, grid):
        # the log-weighted sup norm, the kernel quantity and the Bloch
        # operator action of the double primitive move together: all three
        # are small for a small coefficient and blow up together for the
        # oscillatory equation's coefficient (which has no finite
        # log-weighted sup)
        from disclab.conditions import apply_SA, lalpha_norm
        from disclab.norms import bloch_norm
        from disclab.ode import named_example

        w = RadialWeight.standard(1.0)

        def indicators(A):
            l1 = lalpha_norm(A, 1.0, grid)
            xb = bloch_kernel_quantity(A, w, grid, kernel_order=64)
            worst = 0.0
            for zeta in (0.9, 0.99 * 1j, -0.999):
                c = np.zeros(129, dtype=complex)
                c[0] = 1.0
                n = np.arange(1, 129)
                c[1:] = np.conj(zeta) ** n / n
                f = PowerSeries(c)  # log(e/(1 - conj(zeta) z)); Bloch norm <= 2
                act = bloch_norm(apply_SA(A, f), grid).value
                worst = max(worst, act / (bloch_norm(f, grid).value + abs(f.coeffs[0])))
            return l1.value, xb.value, worst

        small = indicators(PowerSeries([0.05]).pad(128))
        big = indicators(named_example("hille:gamma=1.0", order=1024).coefficient)
        for s, b in zip(small, big):
            assert b > 5.0 * s


class TestBlochSolutionBound:
    def test_zero_coefficient(self, grid):
        w = RadialWeight.standard(1.0)
        rep = bloch_solution_bound(
            PowerSeries(np.zeros(65)), w, grid, initial_values=(0.0, 1.0), order=64
        )
        assert rep.x_quantity == 0.0
        assert rep.predicted_bound == pytest.approx(1.0)
        assert rep.actual_bloch_norm <= rep.predicted_bound + 1e-12

    def test_small_constant_bound_holds(self, grid):
        w = RadialWeight.standard(1.0)
        rep = bloch_solution_bound(
            PowerSeries([0.05]).pad(64), w, grid, initial_values=(1.0, 0.0), order=64
        )
        assert rep.x_quantity < 0.25
        assert rep.actual_bloch_norm <= rep.predicted_bound + 1e-12

    def test_large_coefficient_signals(self, grid):
        w = RadialWeight.standard(1.0)
        with pytest.raises(BoundNotApplicableError):
            bloch_solution_bound(PowerSeries([40.0]).pad(64), w, grid, order=64)
