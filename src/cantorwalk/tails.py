"""Power tails sum_{t >= start} t^-s and the Riemann zeta function, with a
stated absolute error.

The bottom layer of the package: it imports only mpmath and the standard
library, so ``geometry``, ``measure`` and ``walks`` all read the one
Euler-Maclaurin tail from here.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import mpmath as mp

DEFAULT_PRECISION = 256


class ZetaDomainError(ValueError):
    """s is too close to 1 for the requested evaluation."""


def _to_mpf(s, ctx=mp):
    """s as an mpf, or as an interval enclosure of it with ctx = mp.iv."""
    if isinstance(s, Fraction):
        return ctx.mpf(s.numerator) / s.denominator
    return ctx.mpf(s)


@functools.lru_cache(maxsize=1024)
def _bernoulli_coefficient(j: int, precision: int):
    """B_2j / (2j)! at ``precision`` bits."""
    with mp.workprec(precision):
        return mp.bernoulli(2 * j) / mp.factorial(2 * j)


def _power_tail(s, start: int, precision: int):
    """sum_{t >= start} t^-s at real s > 1.01 with |error| < 2^-precision.

    The terms start ... n - 1 are summed directly and the rest by
    Euler-Maclaurin at n = max(16, precision // 2, start), whose remainder
    after the B_2M term is at most the first omitted term for real s; if
    the Bernoulli terms stop shrinking before 2^-(precision + 5), n is
    doubled.  At start 1 this is zeta(s) (DLMF 2.10, 25.11).
    """
    guard = 30
    wp = precision + guard
    with mp.workprec(wp):
        s_mp = _to_mpf(s)
        if s_mp <= mp.mpf("1.01"):
            raise ZetaDomainError(f"s={s} too close to 1 (require s > 1.01)")
        target = mp.mpf(2) ** (-(precision + 5))
        n = max(16, precision // 2, start)
        for _ in range(20):
            acc = mp.mpf(0)
            for k in range(start, n):
                acc += mp.mpf(k) ** (-s_mp)
            acc += mp.mpf(n) ** (1 - s_mp) / (s_mp - 1)
            acc += mp.mpf(n) ** (-s_mp) / 2
            poch = s_mp  # s(s+1)...(s+2j-2), built incrementally
            npow = mp.mpf(n) ** (-s_mp - 1)
            prev_abs = mp.inf
            j = 1
            while True:
                term = _bernoulli_coefficient(j, wp) * poch * npow
                if abs(term) < target:
                    return acc
                if abs(term) >= prev_abs:
                    break  # diverging: need larger n
                acc += term
                prev_abs = abs(term)
                poch *= (s_mp + 2 * j - 1) * (s_mp + 2 * j)
                npow /= n * n
                j += 1
            n *= 2
    raise ArithmeticError("Euler-Maclaurin sum did not converge")


@functools.lru_cache(maxsize=64)
def zeta(s, precision: int = DEFAULT_PRECISION):
    """Riemann zeta at real s > 1.01 with |error| < 2^-precision: the power
    tail from 1, memoised by the value of s (3/2 and 1.5 share an entry)
    and precision."""
    return _power_tail(s, 1, precision)


def power_tail_bracket(s, start: int, precision: int = DEFAULT_PRECISION):
    """Rigorous (lo, hi) for sum_{t >= start} t^-s, start >= 1: the
    Euler-Maclaurin value (``zeta`` at start 1) widened by 2^-precision.

    The value is within 2^-(precision + 5) plus its rounding, and the ends
    round at precision + 10 bits by under 2^-(precision + 3), since s > 1.01
    keeps the sum below 128."""
    if start < 1:
        raise ValueError("start must be >= 1")
    v = zeta(s, precision) if start == 1 else _power_tail(s, start, precision)
    with mp.workprec(precision + 10):
        eps = mp.mpf(2) ** (-precision)
        return v - eps, v + eps
