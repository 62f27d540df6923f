"""Exact geometry of the fundamental intervals.

Every endpoint produced by the construction is a polynomial in q = 3/pi^2
with rational coefficients, and every interval length is (rational) * q^n.
This module keeps that structure exact and only converts to floating point
at a caller-chosen precision, using interval arithmetic for any comparison
that has to be rigorous.

The half-interval identity q * zeta(2) = 1/2 is what makes the exact
representation closed: the infinite left block of children fills exactly
half of its parent.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .coding import AdmissibleWord, step_arrays

DEFAULT_PRECISION = 256

_H_FLOAT_CACHE: dict[tuple[int, int], "mp.mpf"] = {}
_H2_CAP = 1024
_H2_PREFIX = [Fraction(0)]  # H2(0), H2(1), ... up to H2(_H2_CAP)
_H2_LAST = [0, Fraction(0)]  # the last t past _H2_CAP, and H2(t)
_MAX_TERMS = 10 ** 6  # the last child index phi_apply searches


class PrecisionError(ArithmeticError):
    """A rigorous comparison could not be decided at the working precision."""


def q_value(precision: int = DEFAULT_PRECISION):
    """The construction constant q = 3/pi^2 = 1/(2 zeta(2)) as an mpf."""
    with mp.workprec(precision):
        return 3 / mp.pi ** 2


def _to_mpf(s, ctx=mp):
    """s as an mpf, or as an interval enclosure of it with ctx = mp.iv."""
    if isinstance(s, Fraction):
        return ctx.mpf(s.numerator) / s.denominator
    return ctx.mpf(s)


def decimal_str(x, precision: int) -> str:
    """x to 25 significant digits, or to the fewer decimal digits that a
    precision-bit value carries (mpmath's prec_to_dps: 15 at 53 bits)."""
    return mp.nstr(x, min(25, mp.libmp.prec_to_dps(precision)))


@dataclass(frozen=True)
class QPolynomial:
    """Finite rational-coefficient polynomial in q, sum of c_j * q^j."""

    coeffs: tuple[tuple[int, Fraction], ...] = ()

    @classmethod
    def from_dict(cls, d: dict[int, Fraction]) -> "QPolynomial":
        items = tuple(sorted((j, Fraction(c)) for j, c in d.items() if c != 0))
        if any(j < 0 for j, _ in items):
            raise ValueError("negative degree")
        return cls(items)

    @classmethod
    def monomial(cls, degree: int, c) -> "QPolynomial":
        return cls.from_dict({degree: Fraction(c)})

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        d = self.as_dict()
        for j, c in other.coeffs:
            d[j] = d.get(j, Fraction(0)) + c
        return QPolynomial.from_dict(d)

    def evaluate(self, precision: int = DEFAULT_PRECISION):
        """Plain mpf evaluation at q (error within a few ulps of 2^-precision)."""
        with mp.workprec(precision + 10):
            acc = mp.mpf(0)
            for j, c in self.coeffs:
                acc += _to_mpf(c) * _q_power(j, precision + 10)
        return acc

    def to_json(self) -> list[list[int]]:
        return [[j, c.numerator, c.denominator] for j, c in self.coeffs]


@functools.lru_cache(maxsize=1024)
def _q_power(j: int, precision: int):
    """q^j at ``precision`` bits, as ``QPolynomial.evaluate`` computed it."""
    with mp.workprec(precision):
        return q_value(precision) ** j


def _prefix_lengths(word: AdmissibleWord) -> list[Fraction]:
    """r_0 = 1, r_1, ..., r_n with |I_prefix| = r_i q^i: r_i = r_{i-1} / d^2
    for the denominator d of step i."""
    out = [Fraction(1)]
    for prev, nxt in word.transitions():
        out.append(out[-1] / step_arrays(prev, nxt)[0] ** 2)
    return out


def cylinder_length(word: AdmissibleWord) -> tuple[Fraction, int]:
    """Exact length |I_word| = r * q^n; returns (r, n)."""
    return _prefix_lengths(word)[-1], word.depth


def _h2(t: int) -> Fraction:
    """Partial sum of inverse squares, H2(t) = sum_{l<=t} 1/l^2; memoised
    up to _H2_CAP, since H2(t)'s denominator has about 2.9 t bits, and past
    it only the last value, which a larger t extends (a word ending in k
    reads H2(k - 2) for its interval, H2(k) for its hole)."""
    prefix = _H2_PREFIX
    for l in range(len(prefix), min(t, _H2_CAP) + 1):
        prefix.append(prefix[l - 1] + Fraction(1, l * l))
    if t <= _H2_CAP:
        return prefix[t]
    last_t, last = (_H2_LAST if _H2_CAP < _H2_LAST[0] <= t
                    else (_H2_CAP, prefix[_H2_CAP]))
    if t > last_t:
        _H2_LAST[:] = t, last + _inverse_square_sum(last_t + 1, t + 1)
    return _H2_LAST[1]


def _inverse_square_sum(a: int, b: int) -> Fraction:
    """sum_{a <= l < b} 1/l^2 exactly, by binary splitting: the halves'
    sums have denominators of similar size, so no addition is lopsided."""
    if b - a == 1:
        return Fraction(1, a * a)
    mid = (a + b) // 2
    return _inverse_square_sum(a, mid) + _inverse_square_sum(mid, b)


def _right_block(k: int, c: int) -> Fraction:
    """Summed lengths, in units of q*|parent|, of the right-block children
    c, c+1, ..., k of a parent with last symbol k >= 1: 1/(2k)^2 for child
    k and H2(k - c) for the others (none for c = k + 1)."""
    return Fraction(1, 4 * k * k) + _h2(k - c) if c <= k else Fraction(0)


@dataclass(frozen=True)
class CylinderGeometry:
    """Exact interval of a word: [left, left + r*q^depth)."""

    word: AdmissibleWord
    left: QPolynomial
    length_coeff: Fraction
    depth: int

    @property
    def length_poly(self) -> QPolynomial:
        return QPolynomial.monomial(self.depth, self.length_coeff)

    @property
    def right(self) -> QPolynomial:
        return self.left + self.length_poly

    def to_json(self, precision: int = DEFAULT_PRECISION) -> dict:
        return {
            "word": list(self.word.symbols),
            "left_poly": self.left.to_json(),
            "length": {
                "num": self.length_coeff.numerator,
                "den": self.length_coeff.denominator,
                "depth": self.depth,
            },
            "decimal_left": decimal_str(self.left.evaluate(precision),
                                        precision),
            "decimal_length": decimal_str(
                self.length_poly.evaluate(precision), precision),
            "precision_bits": precision,
        }

    def hole(self) -> "HoleGeometry":
        """The hole removed at the next level: for last symbol k >= 1 from
        the midpoint (where the left block accumulates) to the left edge of
        child 0, length |I| * (1/2 - q*(H2(k) + 1/(4k^2))); for last
        symbol 0 and for the root the right half of the interval."""
        r, n, k = self.length_coeff, self.depth, self.word.last
        half = QPolynomial.monomial(n, r / 2)
        length = half if k == 0 else QPolynomial.from_dict(
            {n: r / 2, n + 1: -r * _right_block(k, 0)})
        return HoleGeometry(self.word, self.left + half, length)


@dataclass(frozen=True)
class HoleGeometry:
    """The removed sub-interval of a parent word, exact endpoints."""

    word: AdmissibleWord
    left: QPolynomial
    length: QPolynomial


def cylinder_interval(word: AdmissibleWord) -> CylinderGeometry:
    """Exact left endpoint and length of I_word.

    Left-block child k+j starts at parent.left + q*|parent|*H2(j-1); the
    right block hangs from the parent's right endpoint with child k flush
    right and indices decreasing leftwards down to 0.
    """
    left: dict[int, Fraction] = {}
    lengths = _prefix_lengths(word)
    for n, ((prev, c), r) in enumerate(zip(word.transitions(), lengths)):
        if c > prev:
            left[n + 1] = left.get(n + 1, 0) + r * _h2(c - prev - 1)
        else:
            # right block of a parent with last symbol prev >= 1: the
            # children c..prev sit flush right
            left[n] = left.get(n, 0) + r
            left[n + 1] = left.get(n + 1, 0) - r * _right_block(prev, c)
    return CylinderGeometry(word, QPolynomial.from_dict(left), lengths[-1],
                            word.depth)


def hole(word: AdmissibleWord) -> HoleGeometry:
    """The hole of I_word at the next level: ``CylinderGeometry.hole``."""
    return cylinder_interval(word).hole()


def left_block_partition_bracket(word: AdmissibleWord, truncation: int,
                                 precision: int = DEFAULT_PRECISION):
    """Bracket for the total length of the left-block children of ``word``.

    Returns (lo, hi, half) as mpf: the truncated child-length sum plus the
    exact tail bracket 1/(L+1) < sum_{l>L} l^-2 < 1/L, against the exact
    half-length |I_word|/2.  The construction fills the left half exactly,
    so [lo, hi] must bracket ``half``.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    r, n = cylinder_length(word)
    with mp.workprec(precision):
        q = q_value(precision)
        length = _to_mpf(r) * q ** n
        key = (truncation, precision)
        h = _H_FLOAT_CACHE.get(key)
        if h is None:
            h = mp.mpf(0)
            for l in range(1, truncation + 1):
                h += mp.mpf(1) / (l * l)
            _H_FLOAT_CACHE[key] = h
        base = q * length
        lo = base * (h + mp.mpf(1) / (truncation + 1))
        hi = base * (h + mp.mpf(1) / truncation)
        half = length / 2
    return lo, hi, half


def _index(x, boundary, guess):
    """The j >= 1 with boundary(j - 1) <= x < boundary(j), rigorously, and
    the enclosure of boundary(j - 1) it decided on.

    ``x`` and ``boundary(j)`` are mpmath intervals, the boundaries rising
    with j, and ``guess`` is a number or point interval with
    j > guess - 1, so the search steps up from floor(guess).  A
    comparison that straddles raises PrecisionError, and so does a j past
    _MAX_TERMS: before any boundary is evaluated when ``guess`` alone
    proves it.
    """
    if guess >= _MAX_TERMS + 1:
        raise PrecisionError("point too close to an accumulation point")
    j = max(int(guess), 1)
    lo = boundary(j - 1)
    while True:
        if not lo.b <= x.a:
            raise PrecisionError("containment undecided; raise precision")
        hi = boundary(j)
        if x.b < hi.a:
            return j, lo
        lo, j = hi, j + 1
        if j > _MAX_TERMS:
            raise PrecisionError("point too close to an accumulation point")


# q = 3/pi^2 as an interval, per precision; call it at mp.iv.prec = precision
_q_interval = functools.lru_cache(maxsize=4)(
    lambda precision: mp.iv.mpf(3) / mp.iv.pi ** 2)


def phi_apply(x, precision: int = DEFAULT_PRECISION):
    """One step of the piecewise-affine interval map on [0, 1/2).

    Locates the level-2 cylinder I_{k,m} containing x and applies the
    orientation-preserving affine bijection onto the convex hull of the
    image family (all I_{k,j} with j >= m-1 for m != 0; I_k minus its
    child 0 for m = 0).  Returns the image as mpf, or None when x falls in
    a hole and escapes the construction.

    The literal image family is disconnected, so the affine map is taken
    onto its convex hull; a point exactly at the parent midpoint (the
    accumulation point of the left block) is treated as escaped.  Child
    boundaries enclose the exact ``_h2`` and ``_right_block`` values.
    """
    old = mp.iv.prec
    try:
        mp.iv.prec = precision
        q = _q_interval(precision)
        with mp.workprec(precision):
            x = mp.mpf(x)
            if x < 0 or x >= mp.mpf(1) / 2:
                raise ValueError("x must lie in [0, 1/2)")
            x_iv = mp.iv.mpf(x)

            def h2(j):  # H2(j) as an interval
                return _to_mpf(_h2(j), mp.iv)

            # Each search starts from H2(j) ~ pi^2/6 - 1/j: the j with
            # H2(j-1) <= y < H2(j) lies within 1 of 1/(pi^2/6 - y), since
            # 1/(j+1) < pi^2/6 - H2(j) < 1/j; the guess is the lower end of
            # an enclosure of that.  Level 1: x in I_k iff q*H2(k-1) <= x <
            # q*H2(k), y = x/q, and 1/(pi^2/6 - y) = q/(1/2 - x).
            k, left_k = _index(x_iv, lambda j: q * h2(j), (q / (0.5 - x_iv)).a)
            len_k = q / (k * k)
            qlen = q * len_k
            mid_k = left_k + len_k / 2

            if not (x_iv.b < mid_k.a or mid_k.b <= x_iv.a):
                raise PrecisionError("midpoint membership undecided")
            if x_iv.b < mid_k.a:
                # left block: child k+j where q*len_k*H2(j-1) <= x-left < ...,
                # y = (x-left)/(q*len_k), 1/(pi^2/6 - y) = q*len_k/(mid - x)
                m2 = k + _index(x_iv - left_k, lambda j: qlen * h2(j),
                                (qlen / (mid_k - x_iv)).a)[0]
            else:
                # right block: child k+1-j begins q*len_k*_right_block(k,
                # k+1-j) left of the right end, and past child 0 lies the
                # hole; j-1 is the index of y = (right-x)/(q*len_k) - 1/4k^2,
                # 1/(pi^2/6 - y) = q*len_k/(x - mid + q*len_k/4k^2).  For
                # k >= _MAX_TERMS - 1, j passes the cap near the hole.
                t = (left_k + len_k) - x_iv
                guess = 1 + qlen / (x_iv - mid_k + qlen / (4 * k * k))
                j, _ = _index(t, lambda j: qlen * _to_mpf(
                    _right_block(k, k + 1 - j), mp.iv) if j <= k + 1
                    else mp.iv.mpf("inf"), min(guess.a, k + 2))
                if j > k + 1:
                    return None  # in the hole of I_k: escaped
                m2 = k + 1 - j

            # domain interval I_{k,m2} and image hull
            dom = cylinder_interval(AdmissibleWord((k, m2)))
            parent = cylinder_interval(AdmissibleWord((k,)))
            if m2 <= k + 1:
                hull_left = parent.left
                hull_right = parent.right
            else:
                hull_left = cylinder_interval(
                    AdmissibleWord((k, m2 - 1))).left
                hull_right = parent.left + QPolynomial.monomial(
                    1, parent.length_coeff / 2)  # parent midpoint

            a = dom.left.evaluate(precision)
            dlen = dom.length_poly.evaluate(precision)
            hl = hull_left.evaluate(precision)
            hr = hull_right.evaluate(precision)
            return hl + (x - a) * (hr - hl) / dlen
    finally:
        mp.iv.prec = old
