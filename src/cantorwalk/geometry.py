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

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .coding import AdmissibleWord

DEFAULT_PRECISION = 256

_H_FLOAT_CACHE: dict[tuple[int, int], "mp.mpf"] = {}


class PrecisionError(ArithmeticError):
    """A rigorous comparison could not be decided at the working precision."""


def q_value(precision: int = DEFAULT_PRECISION):
    """The construction constant q = 3/pi^2 = 1/(2 zeta(2)) as an mpf."""
    with mp.workprec(precision):
        return 3 / mp.pi ** 2


def _to_mpf(s):
    if isinstance(s, Fraction):
        return mp.mpf(s.numerator) / s.denominator
    return mp.mpf(s)


def decimal_str(x, precision: int) -> str:
    """x to 25 significant digits, or to the fewer decimal digits that a
    precision-bit value carries (mpmath's prec_to_dps: 15 at 53 bits)."""
    return mp.nstr(x, min(25, mp.libmp.prec_to_dps(precision)))


def _frac_iv(x: Fraction):
    return mp.iv.mpf(x.numerator) / mp.iv.mpf(x.denominator)


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

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "QPolynomial":
        c = Fraction(c)
        return QPolynomial.from_dict({j: cj * c for j, cj in self.coeffs})

    def evaluate(self, precision: int = DEFAULT_PRECISION):
        """Plain mpf evaluation at q (error within a few ulps of 2^-precision)."""
        with mp.workprec(precision + 10):
            q = q_value(precision + 10)
            acc = mp.mpf(0)
            for j, c in self.coeffs:
                acc += _to_mpf(c) * q ** j
        return acc

    def enclosure(self, precision: int = DEFAULT_PRECISION):
        """Rigorous interval enclosure of the value at q."""
        old = mp.iv.prec
        try:
            mp.iv.prec = precision
            q = mp.iv.mpf(3) / mp.iv.pi ** 2
            acc = mp.iv.mpf(0)
            for j, c in self.coeffs:
                acc += _frac_iv(c) * q ** j
            return acc
        finally:
            mp.iv.prec = old

    def compare(self, other: "QPolynomial", precision: int = DEFAULT_PRECISION,
                max_precision: int = 1 << 14) -> int:
        """Rigorous sign of self - other, escalating precision if needed.

        Returns -1, 0 or +1.  Equality is decided exactly from the rational
        coefficients (q is transcendental-grade irrational for our degrees;
        identical polynomials are the only equality that can occur).
        """
        diff = self - other
        if not diff.coeffs:
            return 0
        p = precision
        while p <= max_precision:
            enc = diff.enclosure(p)
            if enc.a > 0:
                return 1
            if enc.b < 0:
                return -1
            p *= 2
        raise PrecisionError("sign of q-polynomial undecided at max precision")

    def to_json(self) -> list[list[int]]:
        return [[j, c.numerator, c.denominator] for j, c in self.coeffs]


def step_arrays(prev, nxt):
    """The step rule from symbol ``prev`` to symbol ``nxt``, as (d, s).

    ``d`` is the length denominator, child length = q*|parent|/d^2: |nxt -
    prev| on an ordinary step, 2*prev on a repetition and prev on a renewal
    (nxt = 0); d = 0 marks the illegal step 0 -> 0.  ``s`` is prev + nxt on
    an ordinary step and 0 otherwise, so the kernel numerator is
    d^-beta + s^-beta with the s term only where s > 0.

    Branch-free, so the same code is exact on Python ints (any size) and
    runs elementwise on int64 and float64 arrays.
    """
    d = abs(nxt - prev) + 2 * prev * (nxt == prev)
    s = (nxt + prev) * (nxt != prev) * (nxt != 0)
    return d, s


def cylinder_length(word: AdmissibleWord) -> tuple[Fraction, int]:
    """Exact length |I_word| = r * q^n; returns (r, n)."""
    r = Fraction(1)
    for prev, nxt in word.transitions():
        d, _ = step_arrays(prev, nxt)
        r /= d * d
    return r, word.depth


def _h2(t: int) -> Fraction:
    """Partial sum of inverse squares, H2(t) = sum_{l<=t} 1/l^2."""
    acc = Fraction(0)
    for l in range(1, t + 1):
        acc += Fraction(1, l * l)
    return acc


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
    left = QPolynomial()
    r = Fraction(1)
    n = 0
    prev = 0
    for c in word.symbols:
        if c > prev:
            j = c - prev
            left = left + QPolynomial.monomial(n + 1, r * _h2(j - 1))
            r = r / (j * j)
        else:
            # right block of a parent with last symbol prev >= 1; the
            # children c..prev (lengths summed in S) sit flush right.
            p = prev
            s = Fraction(1, 4 * p * p) + _h2(p - c)
            left = (left + QPolynomial.monomial(n, r)
                    - QPolynomial.monomial(n + 1, r * s))
            d = 2 * p if c == p else p - c
            r = r / (d * d)
        n += 1
        prev = c
    return CylinderGeometry(word=word, left=left, length_coeff=r, depth=n)


def hole(word: AdmissibleWord) -> HoleGeometry:
    """The hole removed from I_word at the next level.

    For last symbol k >= 1 the hole runs from the parent midpoint (where the
    infinite left block accumulates) to the left edge of child 0; its exact
    length is |I| * (1/2 - q*(H2(k) + 1/(4k^2))).  For last symbol 0 and for
    the root the hole is the right half of the interval.
    """
    geom = cylinder_interval(word)
    r, n = geom.length_coeff, geom.depth
    mid = geom.left + QPolynomial.monomial(n, r / 2)
    k = word.last
    if k == 0:
        return HoleGeometry(word=word, left=mid,
                            length=QPolynomial.monomial(n, r / 2))
    s0 = Fraction(1, 4 * k * k) + _h2(k)
    length = (QPolynomial.monomial(n, r / 2)
              - QPolynomial.monomial(n + 1, r * s0))
    return HoleGeometry(word=word, left=mid, length=length)


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


def _locate(x_iv, cumulative, max_terms):
    """Index j >= 1 with cumulative(j-1) <= x < cumulative(j), rigorously.

    ``x_iv`` and ``cumulative(j)`` are mpmath intervals; ``cumulative`` must
    be non-decreasing in j.  Raises PrecisionError when a comparison
    straddles or when max_terms is reached.
    """
    prev = cumulative(0)
    if x_iv.a < prev.b and not x_iv.b < prev.a:
        # only triggered for x below the very first cumulative point
        raise PrecisionError("containment undecided; raise precision")
    for j in range(1, max_terms + 1):
        c = cumulative(j)
        if x_iv.b < c.a:
            if prev.b <= x_iv.a:
                return j
            raise PrecisionError("containment undecided; raise precision")
        if not (c.b <= x_iv.a):
            raise PrecisionError("containment undecided; raise precision")
        prev = c
    raise PrecisionError("point too close to an accumulation point")


def phi_apply(x, precision: int = DEFAULT_PRECISION, max_terms: int = 10 ** 6):
    """One step of the piecewise-affine interval map on [0, 1/2).

    Locates the level-2 cylinder I_{k,m} containing x and applies the
    orientation-preserving affine bijection onto the convex hull of the
    image family (all I_{k,j} with j >= m-1 for m != 0; I_k minus its
    child 0 for m = 0).  Returns the image as mpf, or None when x falls in
    a hole and escapes the construction.

    The literal image family is disconnected, so the affine map is taken
    onto its convex hull; a point exactly at the parent midpoint (the
    accumulation point of the left block) is treated as escaped.
    """
    old = mp.iv.prec
    try:
        mp.iv.prec = precision
        with mp.workprec(precision):
            x = mp.mpf(x)
            if x < 0 or x >= mp.mpf(1) / 2:
                raise ValueError("x must lie in [0, 1/2)")
            x_iv = mp.iv.mpf(x)
            q = mp.iv.mpf(3) / mp.iv.pi ** 2
            h2 = [mp.iv.mpf(0)]

            def h2_iv(j):
                while len(h2) <= j:
                    l = len(h2)
                    h2.append(h2[-1] + mp.iv.mpf(1) / (l * l))
                return h2[j]

            # level 1: x in I_k iff q*H2(k-1) <= x < q*H2(k)
            k = _locate(x_iv, lambda j: q * h2_iv(j), max_terms)
            left_k = q * h2_iv(k - 1)
            len_k = q / (k * k)
            mid_k = left_k + len_k / 2

            if not (x_iv.b < mid_k.a or mid_k.b <= x_iv.a):
                raise PrecisionError("midpoint membership undecided")
            if x_iv.b < mid_k.a:
                # left block: child k+j where q*len_k*H2(j-1) <= x-left < ...
                off = x_iv - left_k
                j = _locate(off, lambda j: q * len_k * h2_iv(j), max_terms)
                m2 = k + j
            else:
                # right side: scan children k, k-1, ..., 0 from the right
                t = (left_k + len_k) - x_iv  # distance from right endpoint
                cum = q * len_k / (4 * k * k)
                m2 = None
                if t.b <= cum.a:
                    m2 = k
                elif t.a < cum.b:
                    raise PrecisionError("containment undecided")
                else:
                    for l in range(1, k + 1):
                        nxt = cum + q * len_k / (l * l)
                        if t.b <= nxt.a:
                            m2 = k - l
                            break
                        if t.a < nxt.b:
                            raise PrecisionError("containment undecided")
                        cum = nxt
                if m2 is None:
                    return None  # in the hole of I_k: escaped

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
