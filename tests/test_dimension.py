import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cantorwalk.dimension import (
    _TransferOperator,
    _step_weights,
    dim_series,
    furstenberg_ratio_check,
    lebesgue_mass_decay,
    pressure_dimension,
)
from cantorwalk.coding import AdmissibleWord, children
from cantorwalk.geometry import cylinder_length, q_value
from cantorwalk.measure import MeasureParams, cylinder_mass
from cantorwalk.walks import WalkParams, simulate_path


def test_dim_series_single_symbol_frozen():
    s = dim_series([1], Fraction(3, 4))
    # log mu(I_1) / log |I_1| for alpha = 3/4, frozen from the closed forms
    assert s.ratio[0] == pytest.approx(0.8063668239755916, abs=1e-12)
    assert s.furstenberg.size == 0


def test_dim_series_matches_exact_geometry_and_measure():
    word = AdmissibleWord((2, 5, 5, 0, 3, 3, 0, 1))
    alpha = Fraction(9, 10)
    s = dim_series(word.symbols, alpha)
    r, n = cylinder_length(word)
    exact_len = math.log(float(r)) + n * math.log(float(q_value(80)))
    assert s.log_len[-1] == pytest.approx(exact_len, rel=1e-12)
    exact_mass = float(cylinder_mass(
        word, MeasureParams(alpha=alpha, precision=96)).log_value())
    assert s.log_mass[-1] == pytest.approx(exact_mass, rel=1e-12)


def test_dim_series_deep_prefix_matches_structural_log_mass():
    symbols = ([1, 2] * 25)  # depth 50, alternating
    alpha = Fraction(3, 4)
    s = dim_series(symbols, alpha)
    word = AdmissibleWord(tuple(symbols))
    lm = float(cylinder_mass(
        word, MeasureParams(alpha=alpha, precision=96)).log_value())
    assert s.log_mass[-1] == pytest.approx(lm, rel=1e-12)
    r, n = cylinder_length(word)
    ll = math.log(float(q_value(80))) * n + math.log(float(r))
    assert s.log_len[-1] == pytest.approx(ll, rel=1e-12)


def test_dim_series_rejects_inadmissible():
    with pytest.raises(ValueError):
        dim_series([1, 0, 0], Fraction(3, 4))
    with pytest.raises(ValueError):
        dim_series([], Fraction(3, 4))
    with pytest.raises(ValueError):
        dim_series([-1, 3], Fraction(3, 4))
    with pytest.raises(ValueError):
        dim_series([2.5, 1], Fraction(3, 4))


@pytest.mark.parametrize("alpha", [3, Fraction(1, 2), "9"])
def test_dim_series_checks_alpha_like_the_measure(alpha):
    with pytest.raises(ValueError, match=r"alpha must lie in \(1/2, 1\]"):
        dim_series([1.0, 2.0, 3.0], alpha)


def test_furstenberg_constant_steps():
    # constant unit steps give log r_n = n log q exactly, so the ratio of
    # consecutive log-lengths is (n+1)/n
    symbols = list(range(1, 41))  # 1, 2, 3, ...: every step denominator is 1
    s = dim_series(symbols, Fraction(3, 4))
    for n in (1, 5, 20):
        assert s.furstenberg[n - 1] == pytest.approx((n + 1) / n, rel=1e-12)
    assert furstenberg_ratio_check(s, 10) == pytest.approx(1 / 10, rel=1e-9)


def test_ratio_on_simulated_path_approaches_one():
    p = simulate_path(WalkParams(kind="dissipative", steps=5000, seed=3,
                                 alpha=Fraction(9, 10)))
    s = dim_series(p.states[1:], Fraction(9, 10))
    assert s.ratio[-1] > 0.8


def test_pressure_k1_closed_form():
    # for cutoff 1 the transfer matrix is 2x2 and s* solves
    # q^(2s) + (q/4)^s = 1; frozen root computed by bisection on that scalar
    est = pressure_dimension(1, tolerance=1e-9)
    assert est.s_star == pytest.approx(0.2797110465, abs=1e-7)


def loop_denominators(cutoff):
    """Reference step denominators d[a][b], written out case by case; None
    for the illegal step 0 -> 0."""
    d = [[None] * (cutoff + 1) for _ in range(cutoff + 1)]
    for a in range(cutoff + 1):
        for b in range(cutoff + 1):
            if a == 0 and b == 0:
                continue
            if b == 0:
                d[a][b] = a
            elif b == a:
                d[a][b] = 2 * a
            else:
                d[a][b] = abs(b - a)
    return d


def test_lambda_trace_matches_eigvals_oracle():
    # each evaluation is a bracket [lo, hi] on the spectral radius that
    # holds the oracle and lies on the oracle's side of 1; only a final
    # undecidable entry may straddle 1
    q = float(q_value(80))
    for cutoff in (1, 2, 3):
        d = loop_denominators(cutoff)
        trace = pressure_dimension(cutoff).lambda_trace
        for i, (s, lo, hi) in enumerate(trace):
            m = np.zeros((cutoff + 1, cutoff + 1))
            for a in range(cutoff + 1):
                for b in range(cutoff + 1):
                    if d[a][b] is not None:
                        m[a, b] = (q / d[a][b] ** 2) ** s
            oracle = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert lo <= oracle <= hi
            if lo < 1.0 <= hi:
                assert i == len(trace) - 1
            else:
                assert (hi < 1.0) == (oracle < 1.0)


def test_stalled_brackets_hold_the_exact_radius():
    # K = 1: T_s = [[0, a], [a, c]] with a = q^s, c = (q/4)^s, so
    # rho = (c + sqrt(c^2 + 4 a^2)) / 2.  At a tolerance below float
    # spacing the bisection runs into brackets only the float slack keeps
    # around rho
    est = pressure_dimension(1, tolerance=1e-300)
    lo, hi = est.s_bracket
    assert hi - lo < 1e-13
    with mp.workprec(200):
        q = q_value(200)
        for s, lam_lo, lam_hi in est.lambda_trace:
            a, c = q ** s, (q / 4) ** s
            rho = (c + mp.sqrt(c * c + 4 * a * a)) / 2
            assert lam_lo <= rho <= lam_hi


def test_lambda_trace_decreasing_in_s():
    # lambda(s) decreases in s, so the bracket at a larger s starts below
    # the top of the bracket at any smaller s
    trace = sorted(pressure_dimension(5).lambda_trace)
    for (_, _, hi1), (_, lo2, _) in itertools.combinations(trace, 2):
        assert lo2 < hi1
    assert {s: hi for s, _, hi in trace}[1.0] < 1.0


# s*(K) at the default tolerance, recorded from a power iteration run to
# 1e-12 relative accuracy; s* depends only on which side of 1 each
# lambda(s) lies, not on the solver
PINNED_S_STAR = {
    1: 0.27971136569976807,
    2: 0.5544295310974121,
    5: 0.7978949546813965,
    10: 0.8963770866394043,
    50: 0.9799304008483887,
    100: 0.9901461601257324,
    200: 0.995140552520752,
    500: 0.9980788230895996,
    1000: 0.9990439414978027,
    2000: 0.9995236396789551,
}

# the certified brackets s_bracket at the default tolerance, recorded with
# the dense transfer matrix; the bisection evaluates the same s in the same
# order whenever every decision lands on the same side of 1
PINNED_S_BRACKET = {
    1: (0.2797110080718994, 0.2797117233276367),
    2: (0.5544290542602539, 0.5544300079345703),
    5: (0.7978944778442383, 0.7978954315185547),
    10: (0.8963766098022461, 0.8963775634765625),
    50: (0.9799299240112305, 0.9799308776855469),
    100: (0.9901456832885742, 0.9901466369628906),
    200: (0.9951400756835938, 0.9951410293579102),
    500: (0.9980783462524414, 0.9980792999267578),
    1000: (0.9990434646606445, 0.9990444183349609),
    2000: (0.9995231628417969, 0.9995241165161133),
}


@functools.cache
def _estimate(cutoff):
    return pressure_dimension(cutoff)


@pytest.mark.parametrize("cutoff", sorted(PINNED_S_STAR))
def test_pressure_s_star_is_pinned(cutoff):
    assert _estimate(cutoff).s_star == PINNED_S_STAR[cutoff]


@pytest.mark.parametrize("cutoff", sorted(PINNED_S_BRACKET))
def test_pressure_s_bracket_is_pinned(cutoff):
    assert _estimate(cutoff).s_bracket == PINNED_S_BRACKET[cutoff]


@pytest.mark.parametrize("cutoff", sorted(PINNED_S_STAR))
def test_pinned_s_star_lies_in_its_certified_bracket(cutoff):
    est = _estimate(cutoff)
    lo, hi = est.s_bracket
    assert lo <= PINNED_S_STAR[cutoff] <= hi
    assert 0 < hi - lo <= est.tolerance
    # both ends are certified evaluations on their side of 1
    bracket = {s: (lam_lo, lam_hi) for s, lam_lo, lam_hi in est.lambda_trace}
    assert bracket[lo][0] >= 1.0 > bracket[hi][1]


def operator_weights(name):
    """The weight w(d) of a transfer operator, as pressure_dimension (log
    weights at s) and lebesgue_mass_decay (lengths q/d^2) compute it."""
    q = float(q_value(80))
    with mp.workprec(80):
        log_q = float(mp.log(q_value(80)))
    if name == "lengths":
        return lambda d: q / (d * d)
    s = float(name)
    return lambda d: np.exp((log_q - 2 * np.log(d)) * s)


def dense_weights(cutoff, weight):
    """weight(d[a][b]) over loop_denominators, 0 where the step is illegal;
    the weights are evaluated on d = 0 .. 2 * cutoff at once."""
    with np.errstate(divide="ignore"):
        table = weight(np.arange(2 * cutoff + 1))
    table[0] = 0.0
    d = loop_denominators(cutoff)
    return table[[[0 if x is None else x for x in row] for row in d]]


EXTENDED = np.finfo(np.longdouble).nmant >= 63


def dense_product(matrix, v):
    """matrix @ v in 64-bit-mantissa long double, or with mpmath where long
    double is plain double; returns the product and a bound on its own
    componentwise error."""
    if EXTENDED:
        ref = matrix.astype(np.longdouble) @ v.astype(np.longdouble)
        eps = float(np.finfo(np.longdouble).eps)
    else:
        with mp.workprec(113):
            ref = np.array([mp.fdot(row, v) for row in matrix.tolist()])
        eps = 2.0 ** -112
    return ref, (v.size + 1) * eps * ref


WEIGHTS = ["0.3", "0.999", "1", "lengths"]


@pytest.mark.parametrize("name", WEIGHTS)
@pytest.mark.parametrize("cutoff", [1, 2, 5, 17, 50])
def test_step_weights_follow_the_loop_reference(cutoff, name):
    # the operator's Toeplitz column and diagonal are row 0 and the
    # diagonal of the dense matrix built case by case, and the dense matrix
    # is that Toeplitz matrix plus that diagonal
    weight = operator_weights(name)
    dense = dense_weights(cutoff, weight)
    column, diagonal = _step_weights(cutoff, weight, 0.0)
    assert column.tobytes() == dense[0].tobytes()
    assert diagonal.tobytes() == np.diagonal(dense).tobytes()
    m, l = np.indices(dense.shape)
    assert np.array_equal(np.where(m == l, 0.0, dense),
                          np.where(m == l, 0.0, column[abs(m - l)]))


@pytest.mark.parametrize("name", WEIGHTS)
@pytest.mark.parametrize("cutoff", [1, 2, 3, 5, 17, 50, 1000])
def test_structured_matvec_within_derived_bound(cutoff, name):
    # each component of T @ v is within the derived FFT bound e of the
    # dense product, plus 2u of it for the diagonal product and the sum;
    # v is positive, once uniform and once spanning 1e-12 ... 1
    weight = operator_weights(name)
    t = _TransferOperator(*_step_weights(cutoff, weight, 0.0))
    dense = dense_weights(cutoff, weight)
    rng = np.random.default_rng(cutoff)
    for v in (rng.uniform(0.0, 1.0, cutoff + 1) + 2.0 ** -60,
              10.0 ** rng.uniform(-12.0, 0.0, cutoff + 1)):
        ref, ref_error = dense_product(dense, v)
        err = np.abs((t @ v).astype(ref.dtype) - ref)
        bound = t.error(v) + 2 * 2.0 ** -53 * ref + ref_error
        assert np.all(err <= bound)


def test_pressure_s_star_increasing_in_cutoff():
    s2 = pressure_dimension(2).s_star
    s8 = pressure_dimension(8).s_star
    assert s2 < s8 < 1.0


def test_pressure_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        pressure_dimension(0)


def test_lebesgue_levels_match_brute_force():
    # oracle: enumerate every admissible word of depth <= 3 with symbols
    # <= cutoff and sum exact lengths
    cutoff, depth = 8, 3
    q = float(q_value(80))
    totals = [0.0] * depth
    frontier = [AdmissibleWord()]
    for n in range(depth):
        nxt = []
        for w in frontier:
            nxt.extend(children(w, cutoff))
        frontier = nxt
        for w in frontier:
            r, k = cylinder_length(w)
            totals[n] += float(r) * q ** k
    decay = lebesgue_mass_decay(depth, cutoff)
    for a, b in zip(decay.level_mass, totals):
        assert a == pytest.approx(b, rel=1e-12)


def test_lebesgue_levels_match_mpmath_dense_recursion():
    # the FFT recursion against v <- v T with T[a][b] = q / d[a][b]^2 from
    # loop_denominators, dense and at 200 bits
    depth, cutoff = 30, 60
    d = loop_denominators(cutoff)
    levels = lebesgue_mass_decay(depth, cutoff).level_mass
    with mp.workprec(200):
        q = q_value(200)
        t = [[0 if x is None else q / x ** 2 for x in row] for row in d]
        v = t[0]
        for n in range(depth):
            if n:
                v = [mp.fsum(v[a] * t[a][b] for a in range(cutoff + 1))
                     for b in range(cutoff + 1)]
            exact = mp.fsum(v)
            assert abs(levels[n] - exact) <= 1e-13 * exact


def test_lebesgue_mass_strictly_decreasing():
    decay = lebesgue_mass_decay(40, 200)
    lm = decay.level_mass
    assert all(a > b for a, b in zip(lm, lm[1:]))
    # level 1 is within the truncation bound of the exact value 1/2
    assert abs(lm[0] - 0.5) < decay.overcount_bound[0] + 1e-12
    # bounds are non-decreasing and stay meaningfully small
    ob = decay.overcount_bound
    assert all(a <= b for a, b in zip(ob, ob[1:]))
    assert ob[-1] < 0.1


def test_lebesgue_rejects_bad_args():
    with pytest.raises(ValueError):
        lebesgue_mass_decay(0, 10)
    with pytest.raises(ValueError):
        lebesgue_mass_decay(5, 1)
