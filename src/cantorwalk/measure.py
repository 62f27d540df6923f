"""The measure family mu_alpha: kernel, cylinder masses, consistency checks.

Masses are never stored as bare floats.  A cylinder mass is kept as its
depth plus the list of integer step descriptors, and is (re-)evaluated at
any requested precision; deep cylinders would underflow double precision
around depth 500 otherwise, and the dimension analytics need log-masses
directly from the same structure.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .coding import AdmissibleWord
from .geometry import DEFAULT_PRECISION, _to_mpf, step_arrays

_ZETA_CACHE: dict[tuple[str, int], mp.mpf] = {}
_POWER_CAP = 4096
# one table {k: k^-beta} per (beta as its mpf tuple, precision)
_power_table = functools.lru_cache(maxsize=8)(lambda beta, precision: {})


class ZetaDomainError(ValueError):
    """s is too close to 1 for the requested evaluation."""


def zeta(s, precision: int = DEFAULT_PRECISION):
    """Riemann zeta at real s > 1 with |error| < 2^-precision.

    Euler-Maclaurin summation with an explicit remainder bound: for real s
    the remainder after the B_{2M} term is at most the magnitude of the
    first omitted term.  N and M are chosen from the precision; if the
    Bernoulli terms stop shrinking before the target is met, N is doubled.
    """
    key = (str(s), precision)
    hit = _ZETA_CACHE.get(key)
    if hit is not None:
        return hit
    guard = 30
    with mp.workprec(precision + guard):
        s_mp = _to_mpf(s)
        if s_mp <= mp.mpf("1.01"):
            raise ZetaDomainError(f"zeta: s={s} too close to 1 (require s > 1.01)")
        target = mp.mpf(2) ** (-(precision + 5))
        n = max(16, precision // 2)
        for _ in range(20):
            acc = mp.mpf(0)
            for k in range(1, n):
                acc += mp.mpf(k) ** (-s_mp)
            acc += mp.mpf(n) ** (1 - s_mp) / (s_mp - 1)
            acc += mp.mpf(n) ** (-s_mp) / 2
            # Bernoulli correction terms
            poch = s_mp  # s(s+1)...(s+2j-2), built incrementally
            npow = mp.mpf(n) ** (-s_mp - 1)
            term = None
            prev_abs = mp.inf
            ok = False
            j = 1
            while True:
                term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * poch * npow
                if abs(term) < target:
                    ok = True
                    break
                if abs(term) >= prev_abs:
                    break  # diverging: need larger N
                acc += term
                prev_abs = abs(term)
                poch *= (s_mp + 2 * j - 1) * (s_mp + 2 * j)
                npow /= n * n
                j += 1
            if ok:
                result = acc
                break
            n *= 2
        else:
            raise ArithmeticError("zeta: Euler-Maclaurin did not converge")
    _ZETA_CACHE[key] = result
    return result


def zeta_bracket(s, precision: int = DEFAULT_PRECISION):
    """(lo, hi) rigorously enclosing zeta(s)."""
    with mp.workprec(precision + 10):
        v = zeta(s, precision)
        eps = mp.mpf(2) ** (-precision)
        return v - eps, v + eps


@dataclass(frozen=True)
class MeasureParams:
    """Exponent and working precision for the measure family."""

    alpha: Fraction
    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        a = Fraction(self.alpha)
        object.__setattr__(self, "alpha", a)
        if not (Fraction(1, 2) < a <= 1):
            raise ValueError(f"alpha must lie in (1/2, 1], got {a}")

    @property
    def beta(self) -> Fraction:
        return 2 * self.alpha


def _kernel_power(k: int, beta):
    """``mp.mpf(k) ** -beta`` at the working precision, for an mpf beta;
    memoised for k <= _POWER_CAP in one table per (beta, precision)."""
    table = _power_table(beta._mpf_, mp.mp.prec) if k <= _POWER_CAP else {}
    if k not in table:
        table[k] = mp.mpf(k) ** (-beta)
    return table[k]


def _numerator(d: int, s: int, beta):
    """Kernel numerator of one step (d, s) of ``geometry.step_arrays`` as an
    mpf at the working precision: d^-beta, plus s^-beta where s > 0; 0 for
    the illegal step (d = 0)."""
    return sum(_kernel_power(x, beta) for x in (d, s) if x)


def numerator_array(d, s, beta: float) -> np.ndarray:
    """float64 kernel numerators of step arrays (d, s), elementwise as in
    ``_numerator``: a zero entry contributes inf^-beta = 0."""
    d, s = (np.where(x > 0, x, np.inf) for x in (d, s))
    return d ** -beta + s ** -beta


def transition_prob(m: int, l: int, params: MeasureParams):
    """Kernel value P(next = l | state = m) of the walk on the non-negative
    integers; exactly 0 for m = l = 0."""
    m, l = int(m), int(l)
    if m < 0 or l < 0:
        raise ValueError("states must be non-negative")
    with mp.workprec(params.precision):
        z = zeta(params.beta, params.precision)
        return _numerator(*step_arrays(m, l), _to_mpf(params.beta)) / (2 * z)


@dataclass(frozen=True)
class CylinderMass:
    """Structural mass of a cylinder: depth plus integer step descriptors.

    Each factor is the (d, s) pair of ``geometry.step_arrays`` for one step
    and evaluates to the kernel numerator d^-2a + s^-2a (no s term where
    s = 0), its powers read from ``_kernel_power``'s tables; the mass is
    (2 zeta(2a))^-n times the product of the factors.
    """

    word: AdmissibleWord
    params: MeasureParams
    factors: tuple[tuple, ...]

    @property
    def depth(self) -> int:
        return len(self.factors)

    def _factor_values(self):
        beta = _to_mpf(self.params.beta)
        for d, s in self.factors:
            yield _numerator(d, s, beta)

    def value(self, precision: int | None = None):
        precision = precision or self.params.precision
        with mp.workprec(precision):
            z = zeta(self.params.beta, precision)
            acc = mp.mpf(1)
            for v in self._factor_values():
                acc *= v / (2 * z)
            return acc

    def log_value(self, precision: int | None = None):
        """Natural log of the mass, computed in the log domain; safe at any
        depth."""
        precision = precision or self.params.precision
        with mp.workprec(precision):
            z = zeta(self.params.beta, precision)
            acc = -self.depth * mp.log(2 * z)
            for v in self._factor_values():
                acc += mp.log(v)
            return acc

    def to_json(self) -> list[list]:
        return [list(f) for f in self.factors]


def cylinder_mass(word: AdmissibleWord, params: MeasureParams) -> CylinderMass:
    """Structural mass of I_word; the root has mass exactly 1."""
    factors = tuple(step_arrays(prev, nxt) for prev, nxt in word.transitions())
    return CylinderMass(word=word, params=params, factors=factors)


def power_tail_bracket(beta, start: int, precision: int = DEFAULT_PRECISION):
    """Rigorous (lo, hi) for sum_{j >= start} j^-beta, start >= 2.

    Integral bounds: int_start^inf x^-beta dx <= sum <= int_{start-1}^inf.
    """
    if start < 2:
        raise ValueError("start must be >= 2")
    with mp.workprec(precision):
        b = _to_mpf(beta)
        if b <= 1:
            raise ValueError("tail diverges for beta <= 1")
        lo = mp.mpf(start) ** (1 - b) / (b - 1)
        hi = mp.mpf(start - 1) ** (1 - b) / (b - 1)
        return lo, hi


@dataclass(frozen=True)
class ConsistencyResult:
    word: AdmissibleWord
    partial_sum: mp.mpf          # sum of child masses with symbol <= K
    tail_lo: mp.mpf
    tail_hi: mp.mpf
    parent_mass: mp.mpf

    @property
    def contains_parent(self) -> bool:
        return bool(self.partial_sum + self.tail_lo <= self.parent_mass
                    <= self.partial_sum + self.tail_hi)


def consistency_defect(word: AdmissibleWord, params: MeasureParams,
                       truncation: int) -> ConsistencyResult:
    """Check mu(parent) = sum over children, with a rigorous tail bracket.

    The children with symbol <= truncation are summed directly (float64,
    with the accumulated rounding folded into the bracket as an explicit
    slack term); the tail is bracketed by integral bounds on the remaining
    inverse-power sums, which are all left-block steps once
    truncation >= last+2.  The zeta enclosure widens the bracket as well.
    """
    k = word.last
    if truncation < k + 2:
        raise ValueError("truncation must be >= last symbol + 2")
    prec = params.precision
    beta = float(_to_mpf(params.beta))
    z_lo, z_hi = (float(v) for v in zeta_bracket(params.beta, prec))
    parent = float(cylinder_mass(word, params).value(max(prec, 64)))
    l = np.arange(truncation + 1, dtype=np.float64)
    terms = numerator_array(*step_arrays(k, l), beta)
    # children l = 1..truncation first, then l = 0 (nothing after state 0)
    row = float(np.sum(terms[1:])) + float(terms[0])
    lo1, hi1 = power_tail_bracket(params.beta, truncation + 1 - k, prec)
    lo2, hi2 = power_tail_bracket(params.beta, truncation + 1 + k, prec)
    tail_lo = parent * (float(lo1) + float(lo2)) / (2 * z_hi)
    tail_hi = parent * (float(hi1) + float(hi2)) / (2 * z_lo)
    p_lo = parent * row / (2 * z_hi)
    p_hi = parent * row / (2 * z_lo)
    # float64 summation slack plus the zeta-enclosure width of the partial sum
    slack = 8 * truncation * np.finfo(float).eps * max(p_hi, parent)
    partial = (p_lo + p_hi) / 2
    tail_lo = tail_lo - (partial - p_lo) - slack
    tail_hi = tail_hi + (p_hi - partial) + slack
    return ConsistencyResult(word=word, partial_sum=partial,
                             tail_lo=tail_lo, tail_hi=tail_hi,
                             parent_mass=parent)
