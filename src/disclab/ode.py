"""Power-series solutions of linear ODEs on the disc.

Solves ``f^(k) + A_{k-1} f^(k-1) + ... + A_0 f = 0`` (orders 2 and 3) by
matching Taylor coefficients, verifies solutions through a residual sweep,
conformally transplants order-3 equations under disc automorphisms, and
realizes the classical named examples:

* ``hille:gamma=G`` -- ``A(z) = (1 + 4 G^2)/(1 - z^2)^2`` with the closed
  solution ``sqrt(1 - z^2) sin(G log((1+z)/(1-z)))``, whose zeros are
  ``tanh(k pi / (2 G))``, equally spaced in the hyperbolic metric;
* ``exp-singular`` -- ``A(z) = -4 z/(1-z)^4`` with the bounded solution
  ``exp(-(1+z)/(1-z))``;
* ``constant:c=C`` -- constant coefficient, solution ``cos(sqrt(C) z)``.

Zeros of the Hille solution crowd exponentially toward the boundary where a
Taylor polynomial at the origin carries no information, so the zero finder
walks outward in fixed hyperbolic steps, re-centring the equation with the
closed-form transplanted coefficients and re-solving the recurrence at each
centre; machine accuracy in the hyperbolic coordinate is kept all the way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .series import (
    AccuracyWarning,
    PowerSeries,
    binomial_series,
    compose_moebius,
    exp_series,
    sample_moduli,
    zero_series,
)
from .specs import checked, parse_spec

__all__ = [
    "ODEProblem",
    "NamedExample",
    "EXAMPLE_SPECS",
    "named_example",
    "solve_series",
    "residual",
    "transform_order3",
    "symmetric_power_problem",
    "hille_zero_table",
]

_OVERFLOW = 1e300


@dataclass(frozen=True)
class ODEProblem:
    """Linear problem ``f^(k) + sum A_j f^(j) = 0`` with initial data.

    ``coefficients`` lists ``A_0 .. A_{k-1}``; ``initial_values`` gives
    ``f(0), ..., f^{(k-1)}(0)``; the solution is computed through
    ``truncation_order``.
    """

    order: int
    coefficients: tuple[PowerSeries, ...]
    initial_values: tuple[complex, ...]
    truncation_order: int

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError("only orders 2 and 3 are supported")
        if len(self.coefficients) != self.order:
            raise ValueError("need exactly k coefficient series")
        if len(self.initial_values) != self.order:
            raise ValueError("need exactly k initial values")
        if self.truncation_order < self.order:
            raise ValueError("truncation order must be at least the ODE order")


def solve_series(problem: ODEProblem) -> PowerSeries:
    """Unique truncated solution of the matched-coefficient recurrence.

    Writing ``f = sum c_n z^n`` and ``d_j(m) = c_{m+j} (m+j)!/m!`` for the
    coefficients of ``f^(j)``, equality of the Taylor coefficient of z^n in
    ``f^(k) = -sum_j A_j f^(j)`` determines ``c_{n+k}`` from lower ones.
    Coefficient magnitudes beyond 1e300 stop the recurrence: the series is
    truncated there and an :class:`AccuracyWarning` is emitted (divergent
    growth is a legitimate experiment, not an abort).
    """
    k = problem.order
    N = problem.truncation_order
    coeff = [np.zeros(N + 1, dtype=complex) for _ in range(k)]
    for j, A in enumerate(problem.coefficients):
        src = A.coeffs[: N + 1]
        coeff[j][: src.size] = src
    c = np.zeros(N + 1, dtype=complex)
    for i, v in enumerate(problem.initial_values):
        c[i] = complex(v) / math.factorial(i)
    # fall[j][i] = i (i-1) ... (i-j+1), so (m+j)!/m! = fall[j][m+j]
    fall = [[1.0] * (N + 1)]
    for j in range(1, k + 1):
        fall.append([f * (i - j + 1) for i, f in enumerate(fall[-1])])
    # deriv[j][m] = c_{m+j} * (m+j)!/m!, filled as coefficients become known
    deriv = [np.zeros(N + 1, dtype=complex) for _ in range(k)]
    for j in range(k):
        for m in range(0, min(k - j, N + 1 - j)):
            deriv[j][m] = c[m + j] * fall[j][m + j]
    # rev[j][N - n:] is coeff[j][: n + 1] reversed, the same strided view
    rev = [a[::-1] for a in coeff]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(0, N - k + 1):
            s = 0.0 + 0.0j
            for j in range(k):
                s += np.dot(rev[j][N - n :], deriv[j][: n + 1])
            cn = -s / fall[k][n + k]
            if not abs(cn) <= _OVERFLOW:  # catches overflow and NaN alike
                warnings.warn(
                    f"solve_series: coefficient overflow at index {n + k}; "
                    "series truncated there",
                    AccuracyWarning,
                    stacklevel=2,
                )
                return PowerSeries(c[: n + k])
            c[n + k] = cn
            for j in range(k):
                deriv[j][n + k - j] = cn * fall[j][n + k]
    return PowerSeries(c)


def residual(f: PowerSeries, problem: ODEProblem, r_max: float = 0.9) -> float:
    """Max of ``|f^(k) + sum A_j f^(j)|`` at 512 nodes on each of the 24
    circles of radii ``linspace(r_max / 8, r_max, 24)``.

    The expression is assembled in series arithmetic (products truncate to
    the common order), so for a recurrence-exact solution it measures
    round-off, and for any other candidate it measures genuine defect.
    """
    if not 0.0 < r_max <= 1.0:
        raise ValueError(f"the residual needs 0 < r_max <= 1, got {r_max!r}")
    expr = f.derivative(problem.order)
    for j, A in enumerate(problem.coefficients):
        expr = expr + A * f.derivative(j)
    rings = np.max(sample_moduli(expr, np.linspace(r_max / 8, r_max, 24), 512), axis=1)
    return max([0.0, *map(float, rings)])


# ---------------------------------------------------------------------------
# conformal transplantation  (g = f o phi_a solves the transformed equation)
# ---------------------------------------------------------------------------

def _phi_factors(a: complex, order: int):
    """Closed-form series of phi_a', (phi_a')^2, (phi_a')^3, phi_a'',
    phi_a''/phi_a' = 2 conj(a)/(1 - conj(a) z) and phi_a'''/phi_a'."""
    ab = np.conj(a)
    s = 1.0 - abs(a) ** 2
    d1 = binomial_series(2, ab, order) * (-s)          # phi'
    d1sq = binomial_series(4, ab, order) * (s * s)     # (phi')^2
    d1cu = binomial_series(6, ab, order) * (-(s**3))   # (phi')^3
    d2 = binomial_series(3, ab, order) * (-2 * ab * s)  # phi''
    q = binomial_series(1, ab, order) * (2 * ab)       # phi''/phi'
    qq = binomial_series(2, ab, order) * (6 * ab * ab)  # phi'''/phi'
    return d1, d1sq, d1cu, d2, q, qq


def transform_order3(
    A0: PowerSeries,
    A1: PowerSeries,
    A2: PowerSeries,
    a: complex,
    out_order: int | None = None,
) -> tuple[PowerSeries, PowerSeries, PowerSeries]:
    """Coefficients of the order-3 equation solved by ``g = f o phi_a``:

        B0 = (A0 o phi_a) (phi_a')^3,
        B1 = (A1 o phi_a) (phi_a')^2 - (A2 o phi_a) phi_a''
             + 3 (phi_a''/phi_a')^2 - phi_a'''/phi_a',
        B2 = (A2 o phi_a) phi_a' - 3 phi_a''/phi_a'.

    The quotients ``phi''/phi' = 2 conj(a)/(1 - conj(a) z)`` and
    ``phi'''/phi' = 6 conj(a)^2/(1 - conj(a) z)^2`` enter through their exact
    geometric expansions; no series division is performed.
    """
    order = max(A0.order, A1.order, A2.order) if out_order is None else out_order
    d1, d1sq, d1cu, d2, q, qq = _phi_factors(a, order)
    A0c = compose_moebius(A0, a, out_order=order)
    A1c = compose_moebius(A1, a, out_order=order)
    A2c = compose_moebius(A2, a, out_order=order)
    B0 = A0c * d1cu
    B1 = A1c * d1sq - A2c * d2 + q * q * 3.0 - qq
    B2 = A2c * d1 - q * 3.0
    return B0, B1, B2


def symmetric_power_problem(
    A: PowerSeries,
    initial_values: tuple[complex, complex, complex] = (0.0, 0.0, 1.0),
    order: int | None = None,
) -> ODEProblem:
    """Order-3 problem ``h''' + 4 A h' + 2 A' h = 0`` whose solution space is
    spanned by products of pairs of solutions of ``f'' + A f = 0``."""
    N = A.order if order is None else order
    return ODEProblem(
        order=3,
        coefficients=(A.derivative() * 2.0, A * 4.0, zero_series(N)),
        initial_values=tuple(complex(v) for v in initial_values),
        truncation_order=N,
    )


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedExample:
    """A realized classical equation; its closed-form solution series is
    built on first use."""

    tag: str
    params: dict
    problem: ODEProblem

    @property
    def coefficient(self) -> PowerSeries:
        return self.problem.coefficients[0]

    @cached_property
    def reference(self) -> PowerSeries:
        """The closed-form solution through the problem's truncation order."""
        order = self.problem.truncation_order
        if self.tag == "hille":
            return _hille_reference(self.params["gamma"], order)
        if self.tag == "exp-singular":
            return _exp_singular_reference(order)
        return _constant_reference(self.params["c"], order)


def _hille_coefficient(gamma: float, order: int) -> PowerSeries:
    # (1 + 4 gamma^2)/(1 - z^2)^2 = (1+4g^2) sum (k+1) z^{2k}
    c = np.zeros(order + 1, dtype=complex)
    k = np.arange(0, order // 2 + 1)
    c[2 * k] = (1.0 + 4.0 * gamma**2) * (k + 1)
    return PowerSeries(c)


def _hille_reference(gamma: float, order: int) -> PowerSeries:
    # sqrt(1 - z^2) sin(gamma log((1+z)/(1-z))) = Im[(1+z)^a (1-z)^conj(a)]
    # with a = 1/2 + i gamma: two binomial recurrences and one product.
    # The solution is odd, so its even coefficients are exactly 0.
    a = 0.5 + 1j * gamma
    n = np.arange(1, order + 1)
    plus = np.concatenate(([1.0], np.cumprod((a - n + 1) / n)))
    minus = np.concatenate(([1.0], np.cumprod((n - 1 - np.conj(a)) / n)))
    c = np.convolve(plus, minus)[: order + 1].imag
    c[0::2] = 0.0
    return PowerSeries(c)


def _exp_singular_coefficient(order: int) -> PowerSeries:
    # -4 z (1-z)^{-4}
    quart = binomial_series(4, 1.0, order - 1) if order >= 1 else PowerSeries([0.0])
    c = np.zeros(order + 1, dtype=complex)
    c[1:] = -4.0 * quart.coeffs
    return PowerSeries(c)


def _exp_singular_reference(order: int) -> PowerSeries:
    # exp(-(1+z)/(1-z)) = exp(-1 - 2 z/(1-z))
    inner = np.full(order + 1, -2.0, dtype=complex)
    inner[0] = -1.0
    return exp_series(PowerSeries(inner))


def _constant_reference(c: complex, order: int) -> PowerSeries:
    # solution of f'' + c f = 0 with f(0)=1, f'(0)=0: cos(sqrt(c) z);
    # coefficients (-c)^k/(2k)! built incrementally to dodge huge
    # factorials, truncating where they overflow double precision
    out = np.zeros(order + 1, dtype=complex)
    term = 1.0 + 0.0j
    out[0] = term
    for k in range(1, order // 2 + 1):
        term *= -c / ((2 * k - 1) * (2 * k))
        if not np.isfinite(term):
            return PowerSeries(out[: 2 * k - 1])
        out[2 * k] = term
    return PowerSeries(out)


_hille_gamma = checked(float, lambda g: 0.0 < g < math.inf, "hille requires a real, finite gamma > 0")


# Spec schemas of the named examples (see :func:`disclab.specs.parse_spec`).
EXAMPLE_SPECS = {
    "hille": {"gamma": (_hille_gamma, 1.0)},
    "exp-singular": {},
    "constant": {"c": (lambda text: complex(text) if "j" in text else float(text), 0.25)},
}


def named_example(spec: str, order: int = 256) -> NamedExample:
    """Realize a named example from its CLI tag.

    Stable tags: ``hille:gamma=G``, ``exp-singular``, ``constant:c=C``.
    """
    name, params = parse_spec(spec, EXAMPLE_SPECS)
    if name == "hille":
        gamma = params["gamma"]
        A, iv = _hille_coefficient(gamma, order), (0.0, 2.0 * gamma)
    elif name == "exp-singular":
        e = math.exp(-1.0)
        A, iv = _exp_singular_coefficient(order), (e, -2.0 * e)
    else:
        A, iv = PowerSeries([params["c"]]).pad(order), (1.0, 0.0)
    return NamedExample(name, params, ODEProblem(2, (A, zero_series(order)), iv, order))


# ---------------------------------------------------------------------------
# Hille zeros by hyperbolic continuation
# ---------------------------------------------------------------------------

def _hille_local_problem(gamma: float, b: float, order: int, initial_values) -> ODEProblem:
    """Equation satisfied by s -> f(T_b(v)) for the real hyperbolic
    translation T_b(v) = (v + b)/(1 + b v).

    The Hille coefficient is invariant under T_b (the equation is the
    hyperbolically natural one), the translation only contributes the
    first-order term  -T''/T' = 2 b/(1 + b v);  both series are exact.
    """
    A0 = _hille_coefficient(gamma, order)
    A1 = binomial_series(1, -b, order) * (2.0 * b)
    return ODEProblem(2, (A0, A1), initial_values, order)


def _bracketed_roots(c: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Sorted real roots of a real polynomial found by a sign scan of
    ``nodes``, which lie in [-1, 1]: every node but the last where it
    vanishes, and one root per sign change between adjacent nodes.  ``c``
    holds two columns, the coefficients of the polynomial and of its
    derivative (zero-padded), so one power table (``np.vander``) and one
    product give both.  In [-1, 1] no power exceeds 1; beyond it a
    high-degree table would overflow where Horner's rule need not.

    All brackets are refined at once, as arrays: a Newton step from each
    bracket's current point, replaced by the bracket's midpoint when it
    leaves the bracket, which shrinks to the sign change at every step.  A
    root is done when its step is at most 1e-15.
    """
    n = c.shape[0]
    vals = np.vander(nodes, n, increasing=True) @ c[:, 0]
    change = vals[:-1] * vals[1:] < 0
    lo, hi = nodes[:-1][change], nodes[1:][change]
    rising = vals[1:][change] > 0
    x = (lo + hi) / 2
    done = np.zeros(x.size, dtype=bool)
    # bisection alone takes a bracket of width 1 to 1e-15 in 50 halvings
    for _ in range(64):
        if done.all():
            break
        f, df = (np.vander(x, n, increasing=True) @ c).T
        right = (f > 0) == rising  # the root lies left of x
        lo, hi = np.where(right, lo, x), np.where(right, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / df
        step = np.where((lo < step) & (step < hi), step, (lo + hi) / 2)
        step = np.where(f == 0.0, x, step)
        x, done = np.where(done, x, step), done | (np.abs(step - x) <= 1e-15)
    return np.sort(np.concatenate([nodes[:-1][vals[:-1] == 0.0], x]))


def hille_zero_table(gamma: float, count: int, order: int = 256) -> list[tuple[float, float]]:
    """First ``count`` positive zeros of the Hille solution.

    Returns ``(x, s)`` pairs where ``x = tanh(s)`` is the disc location and
    ``s`` its hyperbolic distance from the origin.  ``s`` is tracked
    natively by the continuation, so consecutive differences recover the
    constant hyperbolic gap to near machine precision even where ``x``
    rounds to 1 in floating point.

    Around each centre the local solution ``h`` is scanned at 400 nodes, and
    the sign changes are refined together by safeguarded Newton steps on
    ``h`` and ``h'`` (:func:`_bracketed_roots`) to steps of 1e-15 in the
    local coordinate; ``h`` and ``h'`` are evaluated by power tables, in
    the scan, the steps and the move to the next centre.  For the first 20
    zeros at gamma in {0.5, 1, 2, 3.7} (order 256), ``s`` lies within
    1.31e-15 relative of ``k pi/(2 gamma)``.
    """
    gamma = _hille_gamma(gamma)
    if count < 1:
        raise ValueError("count must be positive")
    step_s, trust_s = 0.75, 1.05  # hyperbolic step between centres; radius trusted around each
    sigma = math.tanh(step_s)
    # local solution around the current centre; start at the origin
    h = solve_series(_hille_local_problem(gamma, 0.0, order, (0.0, 2.0 * gamma)))
    s_centre = 0.0
    s_front = 1e-12  # skip the trivial zero at the origin
    zeros: list[tuple[float, float]] = []
    max_s = (count + 2) * math.pi / (2.0 * gamma) + 2.0

    while len(zeros) < count and s_centre < max_s:
        hi_s = s_centre + trust_s
        # h and h' as coefficient columns (the problem is real)
        c = h.coeffs.real
        hd = np.stack([c, np.append(c[1:] * np.arange(1, c.size), 0.0)], axis=1)
        if s_front < hi_s:
            vs = np.tanh(np.linspace(s_front, hi_s, 400) - s_centre)
            for root in _bracketed_roots(hd, vs):
                s_zero = s_centre + math.atanh(float(root))
                if not zeros or s_zero - zeros[-1][1] > 1e-6:
                    zeros.append((math.tanh(s_zero), s_zero))
            s_front = hi_s
        # step the centre outward by the fixed hyperbolic increment
        h0, h1 = (np.vander([sigma], c.size, increasing=True) @ hd)[0] * (1.0, 1.0 - sigma**2)
        s_centre += step_s
        h = solve_series(_hille_local_problem(gamma, math.tanh(s_centre), order, (h0, h1)))
    return zeros[:count]
