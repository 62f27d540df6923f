import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from cantorwalk import measure
from cantorwalk.coding import AdmissibleWord, children
from cantorwalk.geometry import _to_mpf
from cantorwalk.measure import (
    _POWER_CAP,
    MeasureParams,
    _kernel_power,
    _power_table,
    ZetaDomainError,
    consistency_defect,
    cylinder_mass,
    power_tail_bracket,
    transition_prob,
    zeta,
)


def W(text):
    return AdmissibleWord.parse(text) if text else AdmissibleWord()


# ---------------------------------------------------------------- zeta ----

def test_zeta_classical_values():
    with mp.workprec(256):
        assert abs(zeta(2, 256) - mp.pi ** 2 / 6) < mp.mpf(2) ** -250
        assert abs(zeta(4, 256) - mp.pi ** 4 / 90) < mp.mpf(2) ** -250


def test_zeta_three_halves():
    # frozen reference computed by partial sum + Euler-Maclaurin tail by hand
    assert float(zeta(Fraction(3, 2), 128)) == pytest.approx(
        2.612375348685488, abs=1e-14)


def test_zeta_against_partial_sum_oracle():
    # crude independent oracle: direct sum plus integral tail midpoint
    for s in (1.2, 1.5, 1.9, 3.0):
        n = 20000
        direct = sum(k ** -s for k in range(1, n))
        tail_lo = n ** (1 - s) / (s - 1)
        tail_hi = (n - 1) ** (1 - s) / (s - 1)
        est = direct + (tail_lo + tail_hi) / 2
        assert float(zeta(Fraction(s).limit_denominator(100), 80)) == \
            pytest.approx(est, abs=2 * (tail_hi - tail_lo))


def test_zeta_bits_are_pinned(monkeypatch):
    # the sampler tables read float(zeta(beta, 80)), so one changed bit
    # moves every stream; the digest was recorded before zeta's loop became
    # the power-tail engine, with an empty cache
    monkeypatch.setattr(measure, "_ZETA_CACHE", {})
    digest = hashlib.sha256()
    for s in (Fraction(51, 50), Fraction(6, 5), Fraction(3, 2),
              Fraction(9, 5), Fraction(1999, 1000), Fraction(999, 500),
              Fraction(2)):
        for p in (53, 64, 80, 96, 128, 256):
            bits = tuple(int(x) for x in zeta(s, p)._mpf_)
            digest.update(repr(bits).encode())
    assert digest.hexdigest() == (
        "9ad1a5461b3dfe3f35b7e52c87b167b7dee837ea69e24c91cb686d992169b38a")


def test_zeta_bracket_contains_value():
    lo, hi = power_tail_bracket(Fraction(6, 5), 1, 128)
    v = zeta(Fraction(6, 5), 256)
    assert lo <= v <= hi


def test_zeta_domain_error():
    with pytest.raises(ZetaDomainError):
        zeta(Fraction(1), 64)
    with pytest.raises(ZetaDomainError):
        zeta(Fraction(101, 100), 64)


def test_power_tail_domain_error_at_every_start():
    for s in (Fraction(1, 2), Fraction(1), Fraction(101, 100)):
        for start in (1, 2, 10, 10 ** 4, 10 ** 12):
            with pytest.raises(ZetaDomainError):
                power_tail_bracket(s, start, 64)
    with pytest.raises(ValueError, match="start"):
        power_tail_bracket(Fraction(3, 2), 0, 64)


@pytest.mark.parametrize("p", [53, 64, 256])
def test_power_tail_against_hurwitz_zeta(p):
    # mpmath's Hurwitz zeta(s, a) = sum_{t >= a} t^-s, at 2p + 40 bits
    for s in (Fraction(51, 50), Fraction(6, 5), Fraction(3, 2),
              Fraction(1999, 1000), Fraction(2)):
        for start in (1, 2, 10, p // 2 - 1, p // 2, p // 2 + 1, 10 ** 4,
                      10 ** 12):
            lo, hi = power_tail_bracket(s, start, p)
            with mp.workprec(2 * p + 40):
                oracle = mp.zeta(_to_mpf(s), start)
                assert lo <= oracle <= hi, (s, start)
                assert abs((lo + hi) / 2 - oracle) < mp.mpf(2) ** -p


def exact(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("a,b,p", [(1, 11, 64), (2, 3, 53), (5, 200, 96),
                                   (40, 41, 256), (300, 5000, 64)])
def test_power_tail_differences_enclose_exact_sums(a, b, p):
    # T(2, a) - T(2, b) = sum_{a <= t < b} 1/t^2
    direct = sum(Fraction(1, t * t) for t in range(a, b))
    lo_a, hi_a = power_tail_bracket(Fraction(2), a, p)
    lo_b, hi_b = power_tail_bracket(Fraction(2), b, p)
    assert exact(lo_a) - exact(hi_b) <= direct <= exact(hi_a) - exact(lo_b)


# -------------------------------------------------------------- kernel ----

def test_transition_prob_examples():
    p = MeasureParams(alpha=Fraction(3, 4), precision=128)
    # frozen decimals computed once at 256 bits from the closed forms
    assert float(transition_prob(0, 1, p)) == pytest.approx(
        0.3827933839994266, abs=1e-14)
    assert float(transition_prob(1, 2, p)) == pytest.approx(
        0.2282310025490594, abs=1e-14)
    assert transition_prob(0, 0, p) == 0


def test_transition_prob_symmetry_in_m_l():
    p = MeasureParams(alpha=Fraction(9, 10), precision=96)
    for m, l in ((1, 4), (2, 7), (3, 3)):
        assert transition_prob(m, l, p) == transition_prob(l, m, p)


def test_kernel_row_sum_rational_identity():
    # exact-rational check at alpha = 1 (beta = 2): the row total for state
    # m equals 2 zeta(2) up to tails that are themselves zeta(2) minus
    # partial sums, so the purely rational parts must cancel exactly.
    m, K = 3, 50
    row = Fraction(1, m * m) + Fraction(1, 4 * m * m)  # l = 0 and l = m
    for l in range(1, K + 1):
        if l == m:
            continue
        row += Fraction(1, (l - m) ** 2) + Fraction(1, (l + m) ** 2)
    h = lambda t: sum(Fraction(1, i * i) for i in range(1, t + 1))
    # row + (zeta2 - H(K-m)) + (zeta2 - H(K+m)) must equal 2*zeta2
    assert row - h(K - m) - h(K + m) == 0


def test_kernel_row_sum_numeric():
    p = MeasureParams(alpha=Fraction(3, 4), precision=96)
    for m in (0, 1, 5):
        s = mp.mpf(0)
        for l in range(0, 2001):
            s += transition_prob(m, l, p)
        lo1, _ = power_tail_bracket(p.beta, 2001 - m, 96)
        assert float(s) < 1.0
        assert float(s) + 2 * float(lo1) > 0.99  # tail closes the gap


# -------------------------------------------------------------- masses ----

def test_root_mass_is_one():
    p = MeasureParams(alpha=Fraction(3, 4))
    assert cylinder_mass(W(""), p).value() == 1


def test_level_one_mass():
    p = MeasureParams(alpha=Fraction(3, 4), precision=128)
    m = cylinder_mass(W("1"), p)
    with mp.workprec(128):
        expected = 1 / (2 * zeta(p.beta, 128))  # kernel (0 -> 1) = 2/(2z)
        assert abs(m.value() - 2 * expected) < mp.mpf(2) ** -100


def test_mass_example_frozen():
    # mu_{3/4}(I_{1,1}) = (2 zeta(3/2))^-2 * 2 * 2^(-3/2)
    p = MeasureParams(alpha=Fraction(3, 4), precision=128)
    assert float(cylinder_mass(W("1,1"), p).value()) == pytest.approx(
        0.025903226134362827, abs=1e-15)


def test_mass_is_product_of_transition_probs():
    p = MeasureParams(alpha=Fraction(9, 10), precision=96)
    word = W("2,5,5,0,3")
    prod = mp.mpf(1)
    prev = 0
    for c in word.symbols:
        prod *= transition_prob(prev, c, p)
        prev = c
    assert float(cylinder_mass(word, p).value()) == pytest.approx(
        float(prod), rel=1e-12)


def test_log_value_matches_value():
    p = MeasureParams(alpha=Fraction(3, 5), precision=96)
    m = cylinder_mass(W("1,0,2,2"), p)
    with mp.workprec(96):
        assert abs(mp.e ** m.log_value() - m.value()) < mp.mpf(2) ** -80


def test_log_value_survives_extreme_depth():
    # depth-2000 cylinder: the direct value underflows double precision by
    # a wide margin but the log stays finite and re-evaluates consistently
    p = MeasureParams(alpha=Fraction(3, 4), precision=96)
    word = AdmissibleWord(tuple([1, 2] * 1000))
    lv64 = cylinder_mass(word, p).log_value(64)
    lv256 = cylinder_mass(word, p).log_value(256)
    assert float(lv64) == pytest.approx(float(lv256), rel=1e-12)
    assert float(lv64) < -2900  # far below the float64 underflow log ~ -745


def test_structural_reevaluation_is_precision_free():
    # the same structural mass evaluated at two precisions agrees to the
    # coarser one; no information was lost by storing descriptors
    p = MeasureParams(alpha=Fraction(3, 4), precision=64)
    m = cylinder_mass(W("3,1,0,4"), p)
    with mp.workprec(300):
        assert abs(m.value(64) - m.value(256)) < mp.mpf(2) ** -55


# -------------------------------------------------------- consistency ----

@pytest.mark.parametrize("text,alpha", [
    ("", Fraction(3, 4)),
    ("5", Fraction(3, 4)),
    ("1,0", Fraction(9, 10)),
    ("2,2", Fraction(3, 5)),
])
def test_consistency_bracket_contains_parent(text, alpha):
    p = MeasureParams(alpha=alpha, precision=64)
    res = consistency_defect(W(text), p, 10 ** 4)
    assert res.contains_parent
    # and the bracket is tight: width well below the parent mass
    width = float(res.tail_hi - res.tail_lo)
    assert width < 0.05 * float(res.parent_mass)


def test_consistency_rejects_small_truncation():
    p = MeasureParams(alpha=Fraction(3, 4))
    with pytest.raises(ValueError):
        consistency_defect(W("9"), p, 5)


def test_child_masses_sum_below_parent():
    # any finite batch of children is strictly below the parent mass
    p = MeasureParams(alpha=Fraction(3, 4), precision=96)
    for text in ("1", "2,5"):
        parent = cylinder_mass(W(text), p).value()
        total = mp.mpf(0)
        for c in children(W(text), 500):
            total += cylinder_mass(c, p).value()
        assert total < parent


def test_power_tail_bracket_contains_true_tail():
    beta = Fraction(3, 2)
    start = 100
    lo, hi = power_tail_bracket(beta, start, 96)
    cut = 500000
    direct = sum(j ** -1.5 for j in range(start, cut))
    # close the truncated sum with its own integral tail bracket
    assert float(lo) < direct + 2 / (cut - 1) ** 0.5
    assert direct + 2 / cut ** 0.5 < float(hi)


def test_alpha_domain():
    with pytest.raises(ValueError):
        MeasureParams(alpha=Fraction(1, 2))
    with pytest.raises(ValueError):
        MeasureParams(alpha=Fraction(11, 10))
    MeasureParams(alpha=Fraction(1))  # boundary alpha = 1 is allowed


def test_mass_varies_continuously_in_alpha():
    word = W("2,5")
    vals = [float(cylinder_mass(
        word, MeasureParams(alpha=Fraction(num, 100), precision=64)).value())
        for num in (70, 71, 72)]
    assert abs(vals[1] - vals[0]) < 0.01
    assert abs(vals[2] - vals[1]) < 0.01


@pytest.mark.parametrize("bits", [64, 256])
def test_memoised_kernel_powers_equal_direct_expression(bits):
    ks = list(range(1, 60)) + [_POWER_CAP - 1, _POWER_CAP, _POWER_CAP + 1,
                               10 ** 6, 10 ** 30]
    with mp.workprec(bits):
        for beta in (Fraction(51, 50), Fraction(6, 5), Fraction(3, 2),
                     Fraction(9, 5), Fraction(2)):
            b = _to_mpf(beta)
            direct = [(mp.mpf(k) ** -b)._mpf_ for k in ks]
            for _ in range(2):  # filling the table, then reading it
                assert [_kernel_power(k, b)._mpf_ for k in ks] == direct


def test_kernel_power_tables_stay_within_their_caps():
    with mp.workprec(64):
        for i in range(10):  # more exponents than tables
            b = 1 + mp.mpf(i + 1) / 11
            for k in range(1, (2 * _POWER_CAP if i == 0 else 20) + 1):
                _kernel_power(k, b)
            assert len(_power_table(b._mpf_, 64)) <= _POWER_CAP
    info = _power_table.cache_info()
    assert info.currsize <= info.maxsize == 8
