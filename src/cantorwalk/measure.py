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

from .coding import AdmissibleWord, step_arrays
from .tails import DEFAULT_PRECISION, _to_mpf, power_tail_bracket, zeta


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


@functools.lru_cache(maxsize=8 * 4096)
def _kernel_power(k: int, beta: tuple, precision: int):
    """``mp.mpf(k) ** -beta`` at ``precision`` bits, for beta given as the
    ``_mpf_`` tuple of an mpf (hashing the tuple is cheaper than the mpf)."""
    with mp.workprec(precision):
        return mp.mpf(k) ** -mp.make_mpf(beta)


def _numerator(d: int, s: int, beta):
    """Kernel numerator of one step (d, s) of ``coding.step_arrays`` as an
    mpf at the working precision: d^-beta, plus s^-beta where s > 0; 0 for
    the illegal step (d = 0)."""
    return sum(_kernel_power(x, beta._mpf_, mp.mp.prec) for x in (d, s) if x)


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

    Each factor is the (d, s) pair of ``coding.step_arrays`` for one step
    and evaluates to the kernel numerator d^-2a + s^-2a (no s term where
    s = 0), its powers read from ``_kernel_power``'s memo; the mass is
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


@dataclass(frozen=True)
class ConsistencyResult:
    word: AdmissibleWord
    partial_sum: float           # sum of child masses with symbol <= K
    tail_lo: float
    tail_hi: float
    parent_mass: float

    @property
    def contains_parent(self) -> bool:
        return bool(self.partial_sum + self.tail_lo <= self.parent_mass
                    <= self.partial_sum + self.tail_hi)


def consistency_defect(word: AdmissibleWord, params: MeasureParams,
                       truncation: int) -> ConsistencyResult:
    """Check mu(parent) = sum over children, with a rigorous tail bracket.

    The children with symbol <= truncation are summed directly (float64,
    with the accumulated rounding folded into the bracket as an explicit
    slack term); the rest are all left-block steps once truncation >=
    last + 2, so their numerators are two power tails, bracketed by
    ``power_tail_bracket`` at 64 bits since they enter float64 arithmetic.
    The zeta enclosure widens the bracket as well.
    """
    k = word.last
    if truncation < k + 2:
        raise ValueError("truncation must be >= last symbol + 2")
    prec = params.precision
    beta = float(_to_mpf(params.beta))
    z_lo, z_hi = (float(v) for v in power_tail_bracket(params.beta, 1, prec))
    parent = float(cylinder_mass(word, params).value(max(prec, 64)))
    l = np.arange(truncation + 1, dtype=np.float64)
    terms = numerator_array(*step_arrays(k, l), beta)
    # children l = 1..truncation first, then l = 0 (nothing after state 0)
    row = float(np.sum(terms[1:])) + float(terms[0])
    lo1, hi1 = power_tail_bracket(params.beta, truncation + 1 - k, 64)
    lo2, hi2 = power_tail_bracket(params.beta, truncation + 1 + k, 64)
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
