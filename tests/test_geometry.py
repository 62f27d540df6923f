import collections
import functools
import hashlib
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cantorwalk import geometry
from cantorwalk.coding import AdmissibleWord, children, random_word, step_arrays
from cantorwalk.geometry import (
    PrecisionError,
    QPolynomial,
    cylinder_interval,
    cylinder_length,
    hole,
    left_block_partition_bracket,
    phi_apply,
    q_value,
)
from cantorwalk.measure import MeasureParams, transition_prob, zeta

# q = 3/pi^2 to 16 digits, checked against an unrelated route below
Q_REF = 0.3039635509270133


def W(text):
    return AdmissibleWord.parse(text) if text else AdmissibleWord()


def enclosure(poly, precision=256):
    """Rigorous interval enclosure of a QPolynomial's value at q."""
    old = mp.iv.prec
    try:
        mp.iv.prec = precision
        q = mp.iv.mpf(3) / mp.iv.pi ** 2
        acc = mp.iv.mpf(0)
        for j, c in poly.coeffs:
            acc += mp.iv.mpf(c.numerator) / mp.iv.mpf(c.denominator) * q ** j
        return acc
    finally:
        mp.iv.prec = old


def negated(poly):
    return QPolynomial.from_dict({j: -c for j, c in poly.coeffs})


def compare(a, b, precision=256, max_precision=1 << 14):
    """Rigorous sign of a - b, -1, 0 or +1, doubling the interval precision
    until the enclosure of a - b excludes 0; identical polynomials are the
    only equality that can occur."""
    diff = a + negated(b)
    if not diff.coeffs:
        return 0
    while precision <= max_precision:
        enc = enclosure(diff, precision)
        if enc.a > 0:
            return 1
        if enc.b < 0:
            return -1
        precision *= 2
    raise PrecisionError("sign of q-polynomial undecided at max precision")


def test_q_value():
    assert float(q_value(64)) == pytest.approx(Q_REF, abs=1e-15)
    # independent route: 1 / (2 * sum 1/l^2), summed with tail correction
    acc = sum(1.0 / (l * l) for l in range(1, 200000))
    acc += 1.0 / 199999  # midpoint of the integral tail bracket, crude
    assert 1.0 / (2 * acc) == pytest.approx(Q_REF, abs=1e-5)


def test_step_arrays_cases():
    # (prev, next) -> (d, s): ordinary, repetition, renewal, from 0, illegal
    cases = {(2, 5): (3, 7), (1, 1): (2, 0), (4, 0): (4, 0), (0, 7): (7, 7),
             (0, 0): (0, 0)}
    for (prev, nxt), ds in cases.items():
        assert step_arrays(prev, nxt) == ds
    prev, nxt = (np.array([p for p, _ in cases]),
                 np.array([n for _, n in cases]))
    for dtype in (np.int64, np.float64):
        d, s = step_arrays(prev.astype(dtype), nxt.astype(dtype))
        assert d.tolist() == [d for d, _ in cases.values()]
        assert s.tolist() == [s for _, s in cases.values()]
    # 10**20 - 1 and 10**20 + 1 exceed int64 and round to 1e20 in float64,
    # so scalar callers must keep Python ints
    big = 10 ** 20
    d, s = step_arrays(1, big)
    assert (d, s) == (big - 1, big + 1) and type(d) is int
    assert cylinder_length(AdmissibleWord((1, big))) == (
        Fraction(1, (big - 1) ** 2), 2)
    params = MeasureParams(alpha=Fraction(3, 4), precision=256)
    with mp.workprec(256):
        b = mp.mpf(3) / 2
        expected = ((mp.mpf(big - 1) ** -b + mp.mpf(big + 1) ** -b)
                    / (2 * zeta(Fraction(3, 2), 256)))
    assert transition_prob(big, 1, params) == expected


def test_cylinder_length_examples():
    assert cylinder_length(W("1")) == (Fraction(1), 1)
    assert cylinder_length(W("1,1")) == (Fraction(1, 4), 2)
    # steps 0->2, 2->5, 5->5, 5->0: denominators 2, 3, 10, 5
    assert cylinder_length(W("2,5,5,0")) == (
        Fraction(1, (2 * 3 * 10 * 5) ** 2), 4)


def test_interval_level_one():
    g1 = cylinder_interval(W("1"))
    assert g1.left.coeffs == ()  # exact 0
    assert (g1.length_coeff, g1.depth) == (Fraction(1), 1)
    g2 = cylinder_interval(W("2"))
    # I_2 starts at q (right after I_1) and has length q/4
    assert g2.left.as_dict() == {1: Fraction(1)}
    assert (g2.length_coeff, g2.depth) == (Fraction(1, 4), 1)


def test_interval_right_block_child():
    # I_{1,1} is flush right in I_1: left = q - q^2/4, length q^2/4
    g = cylinder_interval(W("1,1"))
    assert g.left.as_dict() == {1: Fraction(1), 2: Fraction(-1, 4)}
    assert (g.length_coeff, g.depth) == (Fraction(1, 4), 2)


def test_interval_left_block_child():
    # I_{1,3}: second left-block child of I_1, offset q*|I_1|*H2(1)
    g = cylinder_interval(W("1,3"))
    assert g.left.as_dict() == {2: Fraction(1)}
    assert (g.length_coeff, g.depth) == (Fraction(1, 4), 2)


def test_children_tile_without_overlap():
    # children are disjoint, ordered, and inside the parent
    for text in ("1", "2,5", "1,0", ""):
        parent = cylinder_interval(W(text))
        kids = [cylinder_interval(c) for c in children(W(text), 6)]
        for a, b in zip(kids, kids[1:]):
            assert compare(a.right, b.left) <= 0
        for k in kids:
            assert compare(parent.left, k.left) <= 0
            assert compare(k.right, parent.right) <= 0


def test_level_length_bounded_by_parent():
    # sum of child lengths never exceeds the parent length
    for text in ("1", "3", "2,5"):
        parent = cylinder_interval(W(text))
        total = mp.mpf(0)
        for c in children(W(text), 200):
            total += cylinder_interval(c).length_poly.evaluate(80)
        assert total < parent.length_poly.evaluate(80)


def test_hole_of_root():
    h = hole(W(""))
    assert h.left.as_dict() == {0: Fraction(1, 2)}
    assert h.length.as_dict() == {0: Fraction(1, 2)}


def test_hole_of_level_one():
    # |hole(I_1)| = 1/2 q - (1 + 1/4) q^2, frozen decimal below
    h = hole(W("1"))
    assert h.length.as_dict() == {1: Fraction(1, 2), 2: Fraction(-5, 4)}
    val = float(h.length.evaluate(64))
    assert val == pytest.approx(0.03648947509830789, abs=1e-15)


def test_hole_shrinks_relative_to_interval():
    # relative hole size |hole(I_k)| / |I_k| tends to 0 as k grows
    prev = None
    for k in (1, 5, 25, 125, 1000):
        rel = float(hole(W(str(k))).length.evaluate(64)
                    / cylinder_interval(W(str(k))).length_poly.evaluate(64))
        if prev is not None:
            assert rel < prev
        prev = rel
    assert prev < 5e-4  # the relative hole size decays like q/k


def test_partition_bracket_contains_half():
    for text in ("", "1", "2,5,5,0", "1,0,2"):
        lo, hi, half = left_block_partition_bracket(W(text), 10 ** 4, 80)
        assert lo <= half <= hi
        assert float(hi - lo) < 1e-8 * max(float(half), 1e-30)


def test_qpolynomial_arithmetic_and_compare():
    a = QPolynomial.from_dict({0: Fraction(1, 2), 2: Fraction(-5, 4)})
    b = QPolynomial.monomial(1, Fraction(1, 2))
    s = a + b
    assert s.as_dict() == {0: Fraction(1, 2), 1: Fraction(1, 2),
                           2: Fraction(-5, 4)}
    assert (s + negated(b)).as_dict() == a.as_dict()
    assert compare(a, a) == 0
    # 1/2 - 5/4 q^2 vs q/2: difference is ~0.23, positive
    assert compare(a, b) == 1
    assert compare(b, a) == -1
    enc = enclosure(a, 64)
    assert enc.a <= a.evaluate(64) <= enc.b


def test_phi_is_affine_on_a_domain_cylinder():
    # the hull for I_{1,1} (m = 1 <= k+1) is all of I_1 = [0, q); interior
    # points map affinely, so the image of left + f*length is f*q
    dom = cylinder_interval(W("1,1"))
    a = dom.left.evaluate(128)
    dlen = dom.length_poly.evaluate(128)
    q = q_value(128)
    for f in (0.25, 0.5, 0.75):
        y = phi_apply(a + f * dlen, 128)
        assert y is not None
        assert float(y) == pytest.approx(f * float(q), rel=1e-12)


def test_phi_interior_point_lands_in_hull():
    # midpoint of I_{2,5}: hull is [left(I_{2,4}), midpoint(I_2))
    dom = cylinder_interval(W("2,5"))
    x = dom.left.evaluate(128) + dom.length_poly.evaluate(128) / 2
    y = phi_apply(x, 128)
    hl = cylinder_interval(W("2,4")).left.evaluate(128)
    parent = cylinder_interval(W("2"))
    hr = parent.left.evaluate(128) + parent.length_poly.evaluate(128) / 2
    assert hl < y < hr


def test_phi_escapes_in_hole():
    # a point in the hole of I_1: between midpoint of I_1 and I_{1,0}
    g = cylinder_interval(W("1"))
    mid = g.left.evaluate(128) + g.length_poly.evaluate(128) / 2
    left0 = cylinder_interval(W("1,0")).left.evaluate(128)
    x = (mid + left0) / 2
    assert phi_apply(x, 128) is None


def test_phi_rejects_out_of_range():
    with pytest.raises(ValueError):
        phi_apply(0.7)


def test_interval_decimal_matches_length_poly():
    g = cylinder_interval(W("2,5,5,0"))
    direct = float(g.length_poly.evaluate(80))
    r, n = cylinder_length(W("2,5,5,0"))
    assert direct == pytest.approx(
        float(r) * float(q_value(80)) ** n, rel=1e-12)


def summed_h2(t):
    return sum((Fraction(1, l * l) for l in range(1, t + 1)), Fraction(0))


def rebuilt_interval(word):
    """Reference construction: a new QPolynomial at every step, and H2
    summed from 1 at every use.  Returns (left, length_coeff, depth)."""
    left, r, n, prev = QPolynomial(), Fraction(1), 0, 0
    for c in word.symbols:
        if c > prev:
            j = c - prev
            left = left + QPolynomial.monomial(n + 1, r * summed_h2(j - 1))
            r = r / (j * j)
        else:
            p = prev
            s = Fraction(1, 4 * p * p) + summed_h2(p - c)
            left = (left + QPolynomial.monomial(n, r)
                    + QPolynomial.monomial(n + 1, -r * s))
            d = 2 * p if c == p else p - c
            r = r / (d * d)
        n += 1
        prev = c
    return left, r, n


def oracle_words():
    rng = np.random.default_rng(2024)
    words = [random_word(rng, int(rng.integers(1, 31))) for _ in range(300)]
    # symbols up to 2000, past the exact H2 memo's cap of 1024
    words += [random_word(rng, int(rng.integers(1, 5)), max_jump=500)
              for _ in range(12)]
    words += [W(t) for t in ("", "2000", "1,2000", "2000,1", "1,1025,1025",
                             "1500,1500,0,1024", "7,2000,1999,0,1")]
    return words


def test_cylinder_interval_matches_rebuild_oracle():
    words = oracle_words()
    assert max(max(w.symbols, default=0) for w in words) == 2000
    for w in words:
        g = cylinder_interval(w)
        assert (g.left, g.length_coeff, g.depth) == rebuilt_interval(w)


def test_cylinder_length_is_the_product_of_inverse_squared_steps():
    # rebuilt_interval multiplies 1/d^2 with d written out by cases
    rng = np.random.default_rng(77)
    words = oracle_words() + [random_word(rng, int(rng.integers(1, 40)),
                                          max_jump=int(rng.integers(1, 50)))
                              for _ in range(200)]
    for w in words:
        _, r, n = rebuilt_interval(w)
        assert cylinder_length(w) == (r, n) == (
            cylinder_interval(w).length_coeff, w.depth)


def test_hole_method_matches_wrapper_and_oracle():
    for w in oracle_words()[::3]:
        h = cylinder_interval(w).hole()
        assert h == hole(w)
        left, r, n = rebuilt_interval(w)
        half = QPolynomial.monomial(n, r / 2)
        k = w.last
        length = half if k == 0 else half + QPolynomial.monomial(
            n + 1, -r * (Fraction(1, 4 * k * k) + summed_h2(k)))
        assert (h.word, h.left, h.length) == (w, left + half, length)


@pytest.mark.parametrize("bits", [64, 256])
def test_memoised_q_powers_equal_direct_expression(bits):
    for _ in range(2):  # filling the memo, then reading it
        for j in range(40):
            with mp.workprec(bits):
                direct = q_value(bits) ** j
            assert geometry._q_power(j, bits)._mpf_ == direct._mpf_
    for w in oracle_words()[:60]:
        poly = cylinder_interval(w).left
        with mp.workprec(bits + 10):
            q = q_value(bits + 10)
            acc = mp.mpf(0)
            for j, c in poly.coeffs:
                acc += mp.mpf(c.numerator) / c.denominator * q ** j
        assert poly.evaluate(bits)._mpf_ == acc._mpf_


def test_phi_apply_images_are_pinned():
    # sha256 of the images, recorded before phi_apply kept its constants;
    # the last two points lie in I_k with k > 4096 and in I_{1,1+j} with
    # j > 4096, past the boundaries shared between calls
    rng = np.random.default_rng(405)
    xs = (rng.random(100) / 2).tolist() + [0.5 - 5e-5, 0.15196]
    for bits, digits, n, digest in (
            (256, 60, len(xs), "2b35baa14b8bd5eab736163fd1f0c06d"
                               "2cc3a72b21de704b0e39ff9e48a8c613"),
            (64, 18, 60, "149de3f0b83abd6b46fc57a9004c248d"
                         "cce8a5781ac1ab1485273939d0f6ed79")):
        for _ in range(2):  # filling the shared boundaries, then reading
            h = hashlib.sha256()
            for x in xs[:n]:
                y = phi_apply(x, bits)
                h.update(("escaped" if y is None else mp.nstr(y, digits))
                         .encode() + b"\n")
            assert h.hexdigest() == digest


def test_geometry_memos_stay_within_their_caps():
    g = cylinder_interval(W("1,10000"))
    assert g.left == rebuilt_interval(W("1,10000"))[0]
    rng = np.random.default_rng(500)
    for x in (rng.random(500) / 2).tolist() + [0.5 - 5e-5]:
        phi_apply(x)
    assert len(geometry._H2_PREFIX) == geometry._H2_CAP + 1
    for bits in (53, 64, 128, 256, 512):
        phi_apply(0.3, bits)
    for memo in (geometry._q_power, geometry._q_interval):
        info = memo.cache_info()
        assert info.currsize <= info.maxsize


@pytest.mark.parametrize("t", [geometry._H2_CAP + 1, geometry._H2_CAP + 2,
                               4957, 10 ** 4])
def test_h2_past_the_cap_equals_the_one_at_a_time_sum(t):
    # the tail past the memo cap is summed by binary splitting
    assert geometry._h2(t) == summed_h2(t)
    assert len(geometry._H2_PREFIX) == geometry._H2_CAP + 1


def test_h2_past_the_cap_in_any_order(monkeypatch):
    # the one-entry memo past the cap is extended forward, and restarted
    # from the cap for a smaller t
    monkeypatch.setattr(geometry, "_H2_LAST", [0, Fraction(0)])
    for t in (3000, 3000, 2000, 3001, 1025, 1030, 1024, 2500):
        assert geometry._h2(t) == summed_h2(t)


def hull_image(x, k, m, words, bits=256):
    """The affine image of x in I_{k,m} onto the hull that phi_apply's
    docstring names, from ``words``, the children of I_k in spatial order:
    all of I_k for m <= k + 1, else from the left neighbour I_{k,m-1} to
    the midpoint of I_k (the left edge of its hole)."""
    i = [w.last for w in words].index(m)
    dom = cylinder_interval(words[i])
    if m <= k + 1:
        parent = cylinder_interval(W(str(k)))
        hl, hr = parent.left, parent.right
    else:
        hl, hr = cylinder_interval(words[i - 1]).left, hole(W(str(k))).left
    a, dlen, hl, hr = (p.evaluate(bits) for p in (dom.left, dom.length_poly,
                                                  hl, hr))
    with mp.workprec(bits):
        return hl + (mp.mpf(x) - a) * (hr - hl) / dlen


@functools.cache
def child_enclosures(k, depth):
    """(word, left, right) for the children of I_k up to symbol k + depth in
    spatial order, then ("hole", left, right): enclosures at 256 bits of
    the exact endpoints that ``cylinder_interval`` and ``hole`` give."""
    out = [(w, cylinder_interval(w).left, cylinder_interval(w).right)
           for w in children(W(str(k)), k + depth)]
    h = hole(W(str(k)))
    out.append(("hole", h.left, h.left + h.length))
    return [(w, enclosure(a), enclosure(b)) for w, a, b in out]


def locate_by_children(x, k_max, depth):
    """(k, m) for the child I_{k,m} of I_1 .. I_{k_max} that holds x,
    (k, "hole") in the hole of I_k, None in a left block past child
    k + depth; every comparison decided on the enclosures."""
    def holds(lo, hi):
        assert (lo.b <= x or x < lo.a) and (hi.b <= x or x < hi.a)
        return lo.b <= x < hi.a

    for k in range(1, k_max + 1):
        level1 = cylinder_interval(W(str(k)))
        if holds(enclosure(level1.left), enclosure(level1.right)):
            for w, lo, hi in child_enclosures(k, depth):
                if holds(lo, hi):
                    return k, (w if w == "hole" else w.last)
            return None
    raise AssertionError("x lies past I_k_max")


def test_phi_apply_matches_the_children_oracle(monkeypatch):
    # seeded points of I_1 .. I_40, each located among the children of its
    # I_k independently of phi_apply's search, whose three guesses each
    # lead to at most four boundaries
    searches = []  # boundaries evaluated, per search
    index = geometry._index

    def counted(x, boundary, guess):
        searches.append(0)

        def count(j):
            searches[-1] += 1
            return boundary(j)
        return index(x, count, guess)

    monkeypatch.setattr(geometry, "_index", counted)
    rng = np.random.default_rng(2020)
    top = float(cylinder_interval(W("40")).right.evaluate(64))
    found = collections.Counter()
    for x in (rng.random(300) * top).tolist():
        where = locate_by_children(x, 40, 60)
        if where is None:
            continue  # deeper in a left block than the oracle lists
        k, m = where
        y = phi_apply(x)
        if m == "hole":
            assert y is None
            found["hole"] += 1
            continue
        found["left" if m > k else "right"] += 1
        words = [w for w, _, _ in child_enclosures(k, 60)[:-1]]
        assert abs(y - hull_image(x, k, m, words)) < mp.mpf(10) ** -70
    assert sum(found.values()) >= 280 and min(found.values()) >= 10, found
    assert len(searches) >= 560 and max(searches) <= 4


@pytest.mark.parametrize("j", [1, 2, 3, 4096, 17682, 10 ** 5])
def test_index_reaches_j_in_at_most_four_boundaries(j):
    # boundaries H2(i) = zeta(2) - zeta(2, i + 1), enclosed at 300 bits; a
    # point near each end and in the middle of [H2(j - 1), H2(j))
    def h2(i):
        with mp.workprec(320):
            return mp.zeta(2) - mp.zeta(2, i + 1)

    calls = []

    def boundary(i):
        calls.append(i)
        with mp.workprec(320):
            v, pad = h2(i), mp.mpf(2) ** -300
            return mp.iv.mpf([v - pad, v + pad])

    lo, hi = h2(j - 1), h2(j)
    old = mp.iv.prec
    try:
        mp.iv.prec = 300
        for f in (mp.mpf(10) ** -9, mp.mpf(1) / 2, 1 - mp.mpf(10) ** -9):
            with mp.workprec(300):
                y = mp.iv.mpf(lo + f * (hi - lo))
            guess = (1 / (mp.iv.pi ** 2 / 6 - y)).a  # as phi_apply's
            calls.clear()
            assert geometry._index(y, boundary, guess)[0] == j
            assert len(calls) <= 4, calls
    finally:
        mp.iv.prec = old


def test_phi_apply_past_the_cap_raises_before_summing_h2(monkeypatch):
    # k is about 3 * 10^6 here, past _MAX_TERMS: the estimate alone decides
    calls = []
    h2 = geometry._h2
    monkeypatch.setattr(geometry, "_h2", lambda t: calls.append(t) or h2(t))
    with pytest.raises(PrecisionError, match="accumulation point"):
        phi_apply(0.5 - 1e-7)
    assert calls == []
    assert phi_apply(0.3) is not None and calls  # the counter is in place
