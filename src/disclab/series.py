"""Truncated power series on the unit disc.

A :class:`PowerSeries` stores the Taylor coefficients ``c_0 .. c_N`` of an
analytic function and is the universal function representation in this
package: ODE solutions, equation coefficients and test functions are all
truncated series.  The truncation order ``N`` is part of the value; binary
operations truncate to the smaller operand order, so no coefficient is ever
fabricated beyond what both operands determine.

Instances are immutable after construction (the coefficient array is
write-locked), every operation is pure, and values can therefore be shared
freely between threads.

The circle samplers take one series, a sequence of ``k`` series of one
order, or a 2-D array of ``k`` coefficient rows (checked and flushed as a
:class:`PowerSeries` is), and sample rings of radii in (0, 1] at ``M``
equally spaced nodes one ring block at a time: the rows are scaled by one
two-level table of ``r**n`` and folded modulo ``M`` in a buffer, then
transformed there.
:func:`modulus_shares` (a reduction per block) and :func:`sample_moduli`
(one array) give ``|f|``, the one route to moduli: a stack whose
coefficients are all real takes a real FFT of half the length, any other
the complex path.  :func:`sample_rings` gives the complex values, one
inverse FFT per ring, for readers that need phases.  All three run their
blocks on :func:`ring_shares`, side by side on the CPUs the process may
use, each share's buffers within its part of one memory budget, with the
same values for any number of shares.
"""

from __future__ import annotations

import os
import threading
import warnings

import numpy as np

__all__ = [
    "AccuracyWarning",
    "PowerSeries",
    "sample_rings",
    "sample_moduli",
    "modulus_shares",
    "ring_blocks",
    "ring_shares",
    "compose_moebius",
    "exp_series",
    "log_series",
    "pow_series",
    "reciprocal_series",
    "binomial_series",
]

# Magnitudes below this are flushed to exact zero to avoid subnormal drag.
_FLUSH = 1e-300


class AccuracyWarning(UserWarning):
    """Numerical-accuracy diagnostic: loss of significance or overflow."""


class PowerSeries:
    """Taylor polynomial ``c_0 + c_1 z + ... + c_N z**N`` viewed as a
    truncated expansion of an analytic function on ``|z| < 1``.

    Coefficients are stored as a read-only complex128 array; ``order`` is
    ``N``.  Construction rejects non-finite coefficients.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr[np.abs(arr) < _FLUSH] = 0.0
        arr.setflags(write=False)
        self._c = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def __repr__(self) -> str:
        head = ", ".join(f"{c:.6g}" for c in self._c[:3])
        tail = ", ..." if self.order > 2 else ""
        return f"PowerSeries(order={self.order}, [{head}{tail}])"

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        """Evaluate by Horner's scheme at points with ``|z| < 1``."""
        zs = np.asarray(z, dtype=complex)
        if np.any(np.abs(zs) >= 1.0):
            raise ValueError("power-series evaluation requires |z| < 1")
        vals = np.polynomial.polynomial.polyval(zs, self._c)
        return complex(vals) if np.isscalar(z) or zs.ndim == 0 else vals

    # -- calculus -----------------------------------------------------------

    def derivative(self, n: int = 1) -> "PowerSeries":
        """n-th derivative; order drops by one per differentiation
        (a constant keeps order 0)."""
        c = self._c
        for _ in range(n):
            if c.size == 1:
                c = np.zeros(1, dtype=complex)
                continue
            c = c[1:] * np.arange(1, c.size)
        return PowerSeries(c)

    def antiderivative(self, c0: complex = 0.0) -> "PowerSeries":
        """Primitive vanishing at 0 up to the constant term ``c0``;
        order grows by one."""
        out = np.empty(self._c.size + 1, dtype=complex)
        out[0] = c0
        out[1:] = self._c / np.arange(1, self._c.size + 1)
        return PowerSeries(out)

    # -- ring operations (all truncate to the smaller order) ----------------

    def _binary(self, other, op):
        n = min(self.order, other.order) + 1
        return PowerSeries(op(self._c[:n], other._c[:n]))

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            return self._binary(other, np.add)
        c = self._c.copy()
        c[0] += other
        return PowerSeries(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self._binary(other, np.subtract)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return PowerSeries(-self._c)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order) + 1
            return PowerSeries(np.convolve(self._c[:n], other._c[:n])[:n])
        return PowerSeries(self._c * other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return PowerSeries(self._c / scalar)

    # -- order management ---------------------------------------------------

    def pad(self, order: int) -> "PowerSeries":
        """Extend with exact zeros; use when the polynomial is known exactly
        so products may keep their full degree."""
        if order < self.order:
            raise ValueError("pad target below current order")
        out = np.zeros(order + 1, dtype=complex)
        out[: self._c.size] = self._c
        return PowerSeries(out)

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self._c[: order + 1])


def zero_series(order: int = 0) -> PowerSeries:
    return PowerSeries(np.zeros(order + 1, dtype=complex))


def dilate(f: PowerSeries, r: float) -> PowerSeries:
    """The dilated function ``f_r(z) = f(r z)`` (coefficients scaled by r**n)."""
    if not (0.0 < r <= 1.0):
        raise ValueError("dilation radius must lie in (0, 1]")
    return PowerSeries(f.coeffs * r ** np.arange(f.order + 1))


# ---------------------------------------------------------------------------
# circle sampling and Fourier coefficient recovery
# ---------------------------------------------------------------------------

# Bound on every buffer of a sampling call, the fold buffers and the half
# spectra of the real path: it decides how many rings go in a block, and
# the ring shares of a call split it (see ring_shares).
_BLOCK_BYTES = 8 * 2**20

# Powers per row of the two-level r**n table of _fold.
_TABLE_STEP = 64


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, or every CPU
    where the platform keeps none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cut(rings: int, rows: int) -> list[slice]:
    return [slice(s, min(s + rows, rings)) for s in range(0, rings, rows)]


def _block_rings(order: int, M: int, k: int, real: bool, shares: int = 1) -> int:
    """Rings per block when ``shares`` buffers split ``_BLOCK_BYTES``."""
    width = -(-(order + 1) // M) * M
    row = 8 * width + 16 * (M // 2 + 1) if real else 16 * width
    return max(1, _BLOCK_BYTES // (row * k * shares))


def ring_blocks(rings: int, order: int, M: int, k: int = 1, real: bool = False) -> list[slice]:
    """Consecutive slices of ``range(rings)``, each as many rows of
    ``order + 1`` coefficients, rounded up to a multiple of ``M``, as fit
    ``_BLOCK_BYTES`` for a stack of ``k`` series (at least one row): the
    ring blocks of a sampling call on one share, and any other row blocks
    of that budget.  A row costs 16 bytes per entry in a complex fold
    buffer; on the real path of :func:`modulus_shares` (``real``) it costs
    8 bytes per entry of the real fold buffer plus the ``M // 2 + 1``
    complex entries of its half spectrum.  These are all the buffers of a
    share (the power table of :func:`_fold` lives in the fold buffer).
    With more shares, :func:`ring_shares` cuts the same budget among
    them."""
    return _cut(rings, _block_rings(order, M, k, real))


def ring_shares(rings: int, rows, allocate, work) -> None:
    """Run ``work(block, buffers)`` on consecutive blocks of
    ``range(rings)``, side by side on the CPUs the process may use.

    ``rows(shares)`` is the number of rings in a block when ``shares``
    shares split the call's memory budget, and ``allocate(rows)`` makes the
    buffers of one share for blocks of that many rings.  The serial blocks
    (``rows(1)`` rings each) decide the number of shares: the smaller of the
    CPUs in the process's affinity mask and those blocks (none, and this
    returns before it allocates anything).  The blocks are cut at
    ``rows(shares)`` rings, the calling thread allocates every share's
    buffers, and each share (the calling thread and one
    ``threading.Thread`` per other share, joined before this returns) pulls
    the next block in order from a lock-guarded iterator and runs ``work``
    on it with its own buffers, so a share held up by other work on its CPU
    simply takes fewer blocks.  One share (one block, or one CPU) runs every
    block in order on the calling thread and starts no thread.

    ``work`` writes only its block's slice of the call's output and
    allocates nothing sizable (memory a thread allocates stays in that
    thread's malloc arena).  Its time goes to numpy's FFT, ufuncs,
    ``take`` and BLAS, which release the GIL; as no value of a ring depends
    on which share computes it, the output is bit-identical for any number
    of shares.  The first exception raised in a share stops every share at
    its next block and is raised again here once all have stopped.
    """
    shares = min(_cpu_count(), len(_cut(rings, rows(1))))
    if not shares:
        return
    blocks = _cut(rings, rows(shares))
    buffers = [allocate(blocks[0].stop) for _ in range(shares)]
    pending, lock, failures = iter(blocks), threading.Lock(), []

    def claim():
        with lock:
            return None if failures else next(pending, None)

    def share(buffer):
        try:
            for block in iter(claim, None):
                work(block, buffer)
        except BaseException as exc:  # raised again on the calling thread
            failures.append(exc)

    threads = []
    try:
        for buffer in buffers[1:]:
            thread = threading.Thread(target=share, args=(buffer,))
            thread.start()
            threads.append(thread)
        share(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def _checked(f, radii, M: int):
    """Checked sampler arguments: the coefficient rows (complex, one per
    series), the radii as floats, and whether ``f`` is one series."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1:
        raise ValueError("radii must be a 1-d sequence")
    if not np.all((r > 0.0) & (r <= 1.0)):
        raise ValueError("sampling radius must lie in (0, 1]")
    if M < 1:
        raise ValueError("need at least one node")
    if isinstance(f, PowerSeries):
        return f.coeffs[None], r, True
    if isinstance(f, np.ndarray) and f.ndim == 2:
        c = np.array(f, dtype=complex)
        if c.size == 0:
            raise ValueError("a stack of series needs one or more series of one order")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c[np.abs(c) < _FLUSH] = 0.0
        return c, r, False
    fs = list(f)
    if not fs or len({g.order for g in fs}) != 1:
        raise ValueError("a stack of series needs one or more series of one order")
    return np.stack([g.coeffs for g in fs]), r, False


def _fold(c: np.ndarray, rb: np.ndarray, M: int, buffer: np.ndarray) -> np.ndarray:
    """The rows ``c`` scaled by ``rb**n`` in ``buffer`` (of ``c``'s dtype)
    and folded modulo ``M`` into its first ``M`` columns: a view of shape
    ``(k, rb.size, M)``.

    Powers are formed only below the block's underflow cut ``n < 1075 /
    -log2(max rb) + 2``, beyond which ``r**n`` is exactly 0, by the
    two-level table ``r**(64 a + b) = r**(64 a) * r**b``, both factors by
    ``pow`` (within a few ulp of it, at about an eighth of its cost).  The
    table is written into the first series' rows of the buffer (with
    imaginary part 0 in a complex one), and each coefficient row scales it
    from there, the first one last and in place, so no array the size of
    the table is allocated.  The buffer is zeroed from the cut to its end,
    as the block before may have filled coefficients there and its FFT the
    padding columns."""
    k, size = c.shape
    scaled = buffer[:, : rb.size]
    live = size if rb.max() == 1.0 else min(size, int(1075 / -np.log2(rb.max())) + 2)
    step, table = _TABLE_STEP, scaled[0, :, :live]
    whole = live // step  # whole rows of the table; the rest is a short one
    high = rb[:, None] ** (step * np.arange(-(-live // step)))
    low = rb[:, None] ** np.arange(step)
    np.multiply(high[:, :whole, None], low[:, None], out=table[:, : whole * step].reshape(rb.size, whole, step))
    np.multiply(high[:, whole:], low[:, : live - whole * step], out=table[:, whole * step :])
    for x in range(k - 1, -1, -1):
        np.multiply(table, c[x, :live], out=scaled[x, :, :live])
    scaled[:, :, live:] = 0.0
    folded = scaled[:, :, :M]
    for j in range(M, size, M):
        folded += scaled[:, :, j : j + M]
    return folded


class _Rings:
    """The ring sampler of one checked call: the coefficient rows ``c`` on
    the radii ``r`` at ``M`` nodes, as complex values, or (``modulus``) as
    moduli turned by ``shift`` nodes, one block of rings at a time in the
    buffers of one share.

    Complex values, and the moduli of a stack with a non-real coefficient,
    fold each ring into a complex buffer (see :func:`_fold`) and take the
    inverse FFT there in place, scaled by ``M`` to give the unnormalised
    sum; the moduli are its ``np.abs`` in place, after the coefficients
    are turned by ``exp(-2 pi i (n shift mod M) / M)``.  Rows are
    bit-identical to ``M * ifft`` of the fully scaled, folded coefficients
    of each ring alone.  The moduli of a real stack take the real path of
    :func:`modulus_shares`."""

    def __init__(self, c: np.ndarray, r: np.ndarray, M: int, modulus: bool = False, shift: int = 0):
        size = c.shape[1]
        self.real = modulus and not np.any(c.imag)
        if self.real:
            c = np.ascontiguousarray(c.real)  # unit-stride rows scale faster
            m = (np.arange(M) - shift) % M
            self.mirror = 2 * np.minimum(m, M - m)  # the real parts in the float view of a spectrum
        elif shift:  # the phase n * shift reduced modulo M exactly, so it stays below one turn
            c = c * np.exp(-2j * np.pi * (np.arange(size) * shift % M) / M)
        self.c, self.r, self.M, self.modulus = c, r, M, modulus
        self.width = -(-size // M) * M

    def rows(self, shares: int = 1) -> int:
        k, size = self.c.shape
        return _block_rings(size - 1, self.M, k, self.real, shares)

    def allocate(self, rows: int):
        """One share's buffers for blocks of ``rows`` rings, all of them
        within its part of ``_BLOCK_BYTES``: the fold buffer, and on the real
        path the half spectra."""
        k = self.c.shape[0]
        if self.real:
            return np.empty((k, rows, self.width)), np.empty(k * rows * (self.M // 2 + 1), dtype=complex)
        return (np.empty((k, rows, self.width), dtype=complex),)

    def __call__(self, block: slice, buffers) -> np.ndarray:
        """The rings of ``block``, shape ``(k, block rings, M)``: a view into
        the fold buffer, the caller's until the next block."""
        buffer, rb, M = buffers[0], self.r[block], self.M
        folded = _fold(self.c, rb, M, buffer)
        if not self.real:
            np.fft.ifft(folded, axis=-1, out=folded)
            folded *= M
            return np.abs(folded, out=folded).real if self.modulus else folded
        n = folded.shape[0] * rb.size
        spectrum = buffers[1][: n * (M // 2 + 1)].reshape(*folded.shape[:2], -1)
        np.fft.rfft(folded, axis=-1, out=spectrum)
        np.abs(spectrum, out=spectrum)
        values = buffer.reshape(-1)[: n * M].reshape(folded.shape)
        np.take(spectrum.view(float), self.mirror, axis=-1, out=values, mode="clip")
        return values


def modulus_shares(f, radii, M: int, reduce, shift: int = 0) -> None:
    """Call ``reduce(block, values)`` on every ring block of the moduli
    ``|f(r exp(2 pi i (j - shift) / M))|``, the blocks run on
    :func:`ring_shares`.  ``block`` is a slice of ``radii`` (see
    :func:`ring_blocks`, the whole stack counted) and ``values`` are its
    rows, shape ``(block rings, M)`` for one series and ``(k, block rings,
    M)`` for a stack (a sequence of series or a 2-D coefficient array).
    Callers reduce each block as it comes, so the radii x M moduli are
    never held at once.  ``reduce`` may run on another thread and in any
    order, so it writes only the block's slice of its output and allocates
    nothing sizable; the output is then bit-identical for any number of
    shares.  ``values`` are real and ``reduce``'s until it returns (raising
    them to a power in place allocates nothing): one fold buffer per share
    (zero-padded, series x rings x order rounded up to a multiple of
    ``M``) serves each of its blocks, and a short block uses its leading
    rings.  Either path scales the rows by the two-level power table of
    :func:`_fold` (within a few ulp of ``pow``), written into the fold
    buffer itself.

    The arguments are checked when this is called, before any block:
    ``r = 1`` is allowed (a truncated series is a polynomial, continuous on
    the closed disc, and the boundary circle is where Hardy-space means
    live); every radius must lie in (0, 1], NaN is rejected.

    When every coefficient of the stack has imaginary part 0, the rows are
    folded into a real buffer, and one ``np.fft.rfft`` per ring writes the
    half spectrum ``F_m``, ``m = 0..M//2``, into a second buffer of the
    share (the two within the share's part of ``_BLOCK_BYTES``, see
    :func:`ring_blocks`).
    Real coefficients give ``f(r exp(2 pi i m / M)) = conj(F_m)`` and
    ``|f|`` at ``M - m`` equal to ``|f|`` at ``m``, so the modulus is
    taken in place and one ``np.take`` over ``min(m, M - m)``, ``m = (j -
    shift) mod M``, mirrors and shifts it into the dead fold buffer.  The
    values then agree with the complex path to FFT rounding, which is
    relative to the ring's norm (so relative to its maximum).  Any other
    stack takes the complex path: the coefficients are turned by
    ``exp(-2 pi i (n shift mod M) / M)``, sampled in the complex blocks of
    :func:`sample_rings` and their modulus taken in place, so its values
    are ``np.abs`` of :func:`sample_rings` of the turned stack, exactly.
    """
    c, r, single = _checked(f, radii, M)
    rings = _Rings(c, r, M, modulus=True, shift=shift)

    def work(block, buffers):
        values = rings(block, buffers)
        reduce(block, values[0] if single else values)

    ring_shares(r.size, rings.rows, rings.allocate, work)


def _gather(rings: _Rings, single: bool) -> np.ndarray:
    """Every ring of a sampler, its blocks run on :func:`ring_shares` and
    copied into one output."""
    out = np.empty((rings.c.shape[0], rings.r.size, rings.M), dtype=float if rings.modulus else complex)

    def put(block, buffers):
        out[:, block] = rings(block, buffers)

    ring_shares(rings.r.size, rings.rows, rings.allocate, put)
    return out[0] if single else out


def sample_rings(f, radii, M: int) -> np.ndarray:
    """Values ``f(r * exp(2*pi*i*j/M))``, one row per radius ``r`` in
    ``radii`` and one column per ``j = 0..M-1``: shape ``(len(radii), M)``.

    ``f`` is one :class:`PowerSeries`, a sequence of ``k`` series of one
    order or a 2-D array of ``k`` coefficient rows; a stack gives shape
    ``(k, len(radii), M)``, each row bit-identical to sampling its series
    alone.  The rings are sampled in blocks (one fold per ring, the
    inverse FFT in place in the fold buffer, zeroed from the underflow cut
    on) on the CPUs the process may use (:func:`ring_shares`, the complex
    budget of :func:`ring_blocks` split among the shares), each block
    copied into the output; the arguments are checked before the output
    is allocated.  Every radius must lie in (0, 1]; NaN is rejected.
    """
    c, r, single = _checked(f, radii, M)
    return _gather(_Rings(c, r, M), single)


def sample_moduli(f, radii, M: int) -> np.ndarray:
    """Moduli ``|f(r * exp(2*pi*i*j/M))|`` in the layout of
    :func:`sample_rings`, gathered from the blocks of
    :func:`modulus_shares` (unshifted) run on the CPUs the process may use
    (:func:`ring_shares`): equal to ``np.abs(sample_rings(f, radii, M))``
    exactly for a stack with a non-real coefficient, and to FFT rounding
    (relative to each ring's maximum) for a real one, at about half the
    cost."""
    c, r, single = _checked(f, radii, M)
    return _gather(_Rings(c, r, M, modulus=True), single)


_COMPOSE_RHO = 0.95
_COMPOSE_TAIL_TOL = 1e-8


def compose_moebius(f: PowerSeries, a: complex, out_order: int | None = None) -> PowerSeries:
    """Taylor coefficients of ``f((a - z)/(1 - conj(a) z))``.

    The composition is sampled at ``M = max(2 out_order + 2, 1024)`` points
    of the circle ``|z| = 0.95`` (whose Moebius image always stays inside
    the disc) and inverted by FFT with radius unscaling.  A radius close to
    1 keeps the ``0.95**-n`` unscaling benign; aliasing decays like
    ``(0.95 |a|)**M``.

    Emits :class:`AccuracyWarning` when the trailing recovered coefficients
    exceed 1e-8 relative to the coefficient scale, which indicates the
    output order is too small for the decay of the composed series.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError("Moebius centre must satisfy |a| < 1")
    order = f.order if out_order is None else int(out_order)
    if a == 0:
        # phi_0(z) = -z: exact alternating sign flip.
        g = f.pad(order) if order > f.order else f.truncate(order)
        signs = np.where(np.arange(order + 1) % 2 == 0, 1.0, -1.0)
        return PowerSeries(g.coeffs * signs)
    M = max(2 * order + 2, 1024)
    w = _COMPOSE_RHO * np.exp(2j * np.pi * np.arange(M) / M)
    z = (a - w) / (1.0 - np.conj(a) * w)
    coeffs = np.fft.fft(f(z))[: order + 1] / M / _COMPOSE_RHO ** np.arange(order + 1)
    scale = np.max(np.abs(coeffs)) + 1.0
    ntail = max(3, order // 16)
    if order >= 8 and np.max(np.abs(coeffs[-ntail:])) > _COMPOSE_TAIL_TOL * scale:
        warnings.warn(
            "compose_moebius: trailing coefficients have not decayed; "
            "increase out_order",
            AccuracyWarning,
            stacklevel=2,
        )
    return PowerSeries(coeffs)


# ---------------------------------------------------------------------------
# series transcendentals (coefficient recurrences, O(N^2))
# ---------------------------------------------------------------------------

def exp_series(f: PowerSeries) -> PowerSeries:
    """exp of a series, via e' = f' e."""
    n = f.order
    fc = f.coeffs
    out = np.zeros(n + 1, dtype=complex)
    out[0] = np.exp(fc[0])
    j = np.arange(1, n + 1)
    for m in range(1, n + 1):
        out[m] = np.dot(j[:m] * fc[1 : m + 1], out[m - 1 :: -1][:m]) / m
    return PowerSeries(out)


def log_series(f: PowerSeries) -> PowerSeries:
    """Principal logarithm of a series with nonzero constant term."""
    fc = f.coeffs
    if fc[0] == 0:
        raise ValueError("log requires a nonzero constant term")
    n = f.order
    out = np.zeros(n + 1, dtype=complex)
    out[0] = np.log(fc[0])
    for m in range(1, n + 1):
        s = fc[m]
        if m > 1:
            j = np.arange(1, m)
            s -= np.dot(j / m * out[1:m], fc[m - 1 : 0 : -1])
        out[m] = s / fc[0]
    return PowerSeries(out)


def pow_series(f: PowerSeries, beta: complex) -> PowerSeries:
    """Principal power ``f**beta`` of a series with nonzero constant term."""
    return exp_series(log_series(f) * beta)


def reciprocal_series(f: PowerSeries) -> PowerSeries:
    """1/f for a series with nonzero constant term."""
    fc = f.coeffs
    if fc[0] == 0:
        raise ValueError("reciprocal requires a nonzero constant term")
    n = f.order
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0 / fc[0]
    for m in range(1, n + 1):
        out[m] = -np.dot(fc[1 : m + 1], out[m - 1 :: -1][:m]) / fc[0]
    return PowerSeries(out)


def binomial_series(k: int, c: complex, order: int) -> PowerSeries:
    """(1 - c z)**(-k) truncated: coefficients C(n+k-1, n) c**n."""
    n = np.arange(order + 1)
    coef = np.ones(order + 1, dtype=complex)
    for i in range(1, k):
        coef *= (n + i) / i
    return PowerSeries(coef * np.asarray(c, dtype=complex) ** n)
