"""Dimension analytics along random paths and finite-state pressure solving.

The per-depth log-length and log-mass of a path prefix come from the same
integer step data as the exact geometry and measure (the length product
uses the step denominators, the mass product the kernel numerators), so
they are evaluated directly in the log domain at any depth.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import measure
from .coding import step_arrays
from .geometry import q_value

_UNIT_ROUNDOFF = 2.0 ** -53


def _log_q(precision: int = 80) -> float:
    with mp.workprec(precision):
        return float(mp.log(q_value(precision)))


@functools.cache
def _dim_constants(alpha: Fraction, precision: int) -> tuple[float, float]:
    """log q and log 2 zeta(2 alpha) of ``dim_series``, from precision-bit
    mpmath values; cached, so dim_series runs no mpmath after its first
    call at an (alpha, precision)."""
    with mp.workprec(precision):
        return (_log_q(precision),
                float(mp.log(2 * measure.zeta(2 * alpha, precision))))


@dataclass
class DimSeries:
    """Per-depth log-length, log-mass and their ratio along one prefix.

    ``furstenberg`` holds log r_{n+1} / log r_n with r_n the cylinder
    length; it has one entry fewer than the depth arrays.
    """

    n: np.ndarray
    log_len: np.ndarray
    log_mass: np.ndarray
    ratio: np.ndarray
    furstenberg: np.ndarray


def dim_series(symbols, alpha, precision: int = 80) -> DimSeries:
    """Dimension series along the prefixes of an admissible symbol
    sequence, such as a dissipative path's ``states[1:]``.

    The step denominators and kernel numerators come from ``step_arrays``,
    so repetition steps use 2k and renewal steps k, exactly as in the
    geometry.  A negative or non-integer symbol or an illegal step (d = 0)
    is a ValueError.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    if symbols.size == 0:
        raise ValueError("empty prefix")
    alpha = Fraction(alpha)
    d, s = step_arrays(np.concatenate(([0.0], symbols[:-1])), symbols)
    if (np.any(d <= 0) or np.any(symbols < 0)
            or np.any(symbols != np.floor(symbols))):
        raise ValueError("prefix is not admissible")
    f = measure.numerator_array(d, s, float(2 * alpha))
    log_q, log_2zb = _dim_constants(alpha, precision)
    nn = np.arange(1, symbols.size + 1, dtype=np.float64)
    log_len = nn * log_q - 2 * np.cumsum(np.log(d))
    log_mass = -nn * log_2zb + np.cumsum(np.log(f))
    ratio = log_mass / log_len
    furst = log_len[1:] / log_len[:-1]
    return DimSeries(n=nn, log_len=log_len, log_mass=log_mass, ratio=ratio,
                     furstenberg=furst)


def furstenberg_ratio_check(series: DimSeries, n0: int) -> float:
    """Max |log r_{n+1}/log r_n - 1| over n >= n0."""
    if series.furstenberg.size <= n0 - 1:
        raise ValueError("series too short for n0")
    return float(np.max(np.abs(series.furstenberg[n0 - 1:] - 1.0)))


@dataclass
class PressureEstimate:
    """Root s* of spectral-radius(T_s) = 1 for the truncated system.

    ``s_bracket`` = (lo, hi) is certified: rho(T_lo) >= 1 > rho(T_hi) was
    proved in float arithmetic (see ``pressure_dimension``), so s* lies in
    [lo, hi] and lo is a rigorous lower bound for the dimension.
    ``s_star`` is the midpoint of the bracket.  ``lambda_trace`` holds one
    (s, lo, hi) per evaluated s, a certified bracket on rho(T_s) that lies
    wholly below 1 or wholly at or above it; only a final entry may
    straddle 1, when the bisection stopped because rho(T_s) could not be
    told from 1 in float arithmetic.
    """

    state_cutoff: int
    s_star: float
    s_bracket: tuple[float, float]
    tolerance: float
    lambda_trace: list[tuple[float, float, float]]


def _step_weights(state_cutoff: int, weight,
                  illegal: float) -> tuple[np.ndarray, np.ndarray]:
    """weight(d) on the Toeplitz column d(0, k) = k and on the diagonal
    d(k, k) = 2k, k <= state_cutoff, with ``illegal`` where d = 0 (the step
    0 -> 0); the denominators come from ``step_arrays``."""
    k = np.arange(state_cutoff + 1)
    with np.errstate(divide="ignore"):
        return tuple(np.where(d > 0, weight(d), illegal)
                     for d in (step_arrays(0, k)[0], step_arrays(k, k)[0]))


class _TransferOperator:
    """T[m, l] = w(d(m, l)) over symbols m, l <= K, with no matrix: d is
    |m - l| off the diagonal and 2m on it, so T is the symmetric Toeplitz
    matrix c_|m-l| (c_k = w(k), c_0 = 0) plus the diagonal w(2m), 0 at
    m = 0.  ``T @ v`` is one real-FFT circular convolution of length
    n = 2^t >= 2K + 1 plus the diagonal product: O(K log K) time and O(K)
    memory.

    ``error(v)`` bounds each component's float error in the convolution.
    Assume np.fft.rfft and irfft are as accurate as the radix-2 FFT of
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm
    24.2, with twiddle factors accurate to mu = 8u: with
    eta = mu + gamma_4 (sqrt 2 + mu), a transform of x is off by at most
    eps = t eta / (1 - t eta) times ||F x||_2 in 2-norm and times ||x||_1
    in each component (the same proof with absolute values).  c >= 0 is
    even, so its spectrum is real and at most ||c||_1, and
    ||F v||_2 = sqrt(n) ||v||_2.  The errors of F c, of F v and of the
    inverse transform then add at most eps ||c||_1 ||v||_2 each to every
    component, and the spectrum product u ||c||_1 ||v||_2: the bound is
    e = (3 eps + 2u) ||c||_1 ||v||_2, the second u covering second-order
    terms and the rounding of e itself (for K below 10^9).
    """

    def __init__(self, column: np.ndarray, diagonal: np.ndarray):
        size = column.size
        self.n = 1 << (2 * size - 2).bit_length()
        padded = np.zeros(self.n)
        padded[:size] = column
        padded[self.n - size + 1:] = column[:0:-1]
        self.spectrum = np.fft.rfft(padded).real  # exactly real: c is even
        self.diagonal = diagonal
        u, mu = _UNIT_ROUNDOFF, 8 * _UNIT_ROUNDOFF
        t_eta = ((self.n.bit_length() - 1)
                 * (mu + 4 * u / (1 - 4 * u) * (math.sqrt(2) + mu)))
        self.error_scale = ((3 * t_eta / (1 - t_eta) + 2 * u)
                            * math.fsum(padded))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        conv = np.fft.irfft(self.spectrum * np.fft.rfft(v, self.n), self.n)
        return conv[:v.size] + self.diagonal * v

    def error(self, v: np.ndarray) -> float:
        """Bound on each component's error in the convolution of v."""
        return self.error_scale * math.sqrt(v @ v)


def pressure_dimension(state_cutoff: int,
                       tolerance: float = 1e-6) -> PressureEstimate:
    """Solve spectral-radius(T_s) = 1 by bisection on certified decisions.

    T_s[m, l] = (q / d(m, l)^2)^s over legal transitions with symbols
    <= state_cutoff.  lambda(s) = rho(T_s) is strictly decreasing in s, and
    at s = 1 the hole deficit forces lambda < 1, so s* lower-bounds the
    dimension of the full construction.

    Each lambda(s) is only placed on one side of 1.  For any positive v,
    w = T_s v gives the Collatz-Wielandt bracket
    min_i w_i / v_i <= rho(T_s) <= max_i w_i / v_i; v is iterated
    (w normalised by its maximum, which stays positive because every row
    of T_s has a positive entry), the best lower and upper bounds seen are
    kept, and iteration stops as soon as the bracket lies wholly below 1 or
    wholly at or above 1.  The final v starts the next evaluation.

    Certification.  Let u = 2^-53 and Lambda the largest |log(q / d^2)|
    over legal steps.  T_s is applied as a structured operator (see
    ``_TransferOperator``), never as a matrix.  Assuming np.log and np.exp
    are accurate to 4 ulp (8u relative), and the FFT as stated there, the
    computed ratios carry these errors:

    * the log weight lw = fl(log q) - 2 log d is off by at most
      u|log q| + 16u log d + u|lw| <= 9u|lw|, and s * lw adds u s|lw|, so
      the exponent is off by at most 10u s Lambda, a relative error of
      the same size in exp(s * lw);
    * np.exp adds 8u;
    * the convolution part of each w_i is off by at most e (eps is about
      1.7e-14 at K = 1000), so w_i - e and w_i + e are divided by v_i;
    * the diagonal product, the sum, the -e or +e and the division by v_i
      add u each.

    With N = 10 s Lambda + 15 (the extra 3u cover the widening products
    and every second-order term) the bracket is widened by the relative
    slack N u / (1 - N u).  Every "rho < 1" and "rho >= 1" is then a
    proof, so [lo, hi] is a rigorous bracket on s* of the truncated system.

    Stall rule.  When an iteration improves neither bound, lambda(s) cannot
    be separated from 1 in float arithmetic, and the bisection ends with
    its current certified [lo, hi].
    """
    if state_cutoff < 1:
        raise ValueError("state_cutoff must be >= 1")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    log_q = _log_q()
    lw_column, lw_diagonal = _step_weights(
        state_cutoff, lambda d: log_q - 2 * np.log(d), -np.inf)
    log_span = -float(min(lw_column[1:].min(), lw_diagonal[1:].min()))
    v = np.ones(state_cutoff + 1)
    trace: list[tuple[float, float, float]] = []

    def below_one(s: float) -> bool | None:
        """True if rho(T_s) < 1, False if rho(T_s) >= 1, None if the
        bracket stalls around 1."""
        nonlocal v
        t = _TransferOperator(np.exp(lw_column * s), np.exp(lw_diagonal * s))
        n = 10 * s * log_span + 15
        slack = n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
        lo, hi = 0.0, math.inf
        while hi >= 1.0 > lo:
            w = t @ v
            e = t.error(v)
            new_lo = float(((w - e) / v).min()) * (1 - slack)
            new_hi = float(((w + e) / v).max()) * (1 + slack)
            if new_lo <= lo and new_hi >= hi:
                break
            lo, hi = max(lo, new_lo), min(hi, new_hi)
            v = w / w.max()
        trace.append((s, lo, hi))
        if hi < 1.0:
            return True
        return False if lo >= 1.0 else None

    hi = 1.0
    if below_one(hi) is not True:
        raise ArithmeticError(
            "lambda(1) not certified below 1: transfer operator malformed")
    lo = 0.5
    while below_one(lo) is not False:  # None is not yet a certified >= 1
        lo /= 2
        if lo < 1e-6:
            raise ArithmeticError("no bracket: state_cutoff too small")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid in (lo, hi):  # [lo, hi] is down to adjacent floats
            break
        below = below_one(mid)
        if below is None:  # lambda(mid) cannot be told from 1
            break
        if below:
            hi = mid
        else:
            lo = mid
    return PressureEstimate(state_cutoff=state_cutoff,
                            s_star=(lo + hi) / 2, s_bracket=(lo, hi),
                            tolerance=tolerance, lambda_trace=trace)


@dataclass
class LebesgueDecay:
    """Per-level total length of the truncated construction tree."""

    depth: int
    state_cutoff: int
    level_mass: list[float]        # truncated lower value per level
    overcount_bound: list[float]   # rigorous bound on the truncated-away mass


def lebesgue_mass_decay(depth: int, state_cutoff: int) -> LebesgueDecay:
    """Total interval length per level under symbol truncation.

    v[k] tracks the total length of level-n cylinders with last symbol k;
    one transfer step multiplies by q/d^2 over legal transitions.  Children
    with symbol > state_cutoff are dropped; the dropped mass per step is
    bounded by q*v[k]*tail(state_cutoff - k) with tail(t) <= 1/t (and
    <= zeta(2) for t = 0), and a dropped cylinder's whole subtree carries
    at most the cylinder's own length per level, so the cumulative drop
    bounds the per-level overcount.

    The step v <- v T is ``_TransferOperator`` with the weights q/d^2, as
    in ``pressure_dimension``; its FFT rounding, about 4e-14 relative at
    depth 200 and K = 2000, is far inside the truncation bound.
    """
    if depth < 1 or state_cutoff < 2:
        raise ValueError("need depth >= 1 and state_cutoff >= 2")
    kmax = state_cutoff
    q = float(q_value(80))
    with mp.workprec(80):
        zeta2 = float(mp.pi ** 2 / 6)
    column, diagonal = _step_weights(kmax, lambda d: q / (d * d), 0.0)
    t = _TransferOperator(column, diagonal)
    # tail bound for dropped left-block children of state k
    tail = np.array([zeta2 if kmax - k == 0 else 1.0 / (kmax - k)
                     for k in range(kmax + 1)])
    v = column  # level 1: the root steps like state 0
    dropped = q * 1.0 / kmax  # root children with symbol > cutoff
    levels = [float(v.sum())]
    bounds = [dropped]
    for _ in range(1, depth):
        dropped += float(np.sum(q * v * tail))
        v = t @ v  # T is symmetric, so this is v T
        levels.append(float(v.sum()))
        bounds.append(dropped)
    return LebesgueDecay(depth=depth, state_cutoff=state_cutoff,
                         level_mass=levels, overcount_bound=bounds)
