import numpy as np
import pytest
from hypothesis import given, strategies as st

from cantorwalk import coding
from cantorwalk.coding import AdmissibleWord, children, is_admissible, random_word


def test_root_is_admissible():
    assert is_admissible(())


def test_mixed_word_admissible():
    # repetition is allowed at a nonzero state; 0 must renew
    assert is_admissible((1, 0, 2, 2))


def test_double_zero_rejected():
    assert not is_admissible((1, 0, 0))


def test_leading_zero_rejected():
    assert not is_admissible((0, 1))
    assert not is_admissible((0,))


def test_negative_rejected():
    assert not is_admissible((1, -2))


def test_non_integer_symbols_rejected():
    assert not is_admissible([2.5, -0.5])
    assert not is_admissible((2.0, 1))
    with pytest.raises(ValueError):
        AdmissibleWord((2.5, 1))
    with pytest.raises(ValueError):
        AdmissibleWord((1,)).extend(2.5)


def test_integer_types_accepted():
    syms = (np.int64(2), np.int32(1), 0, np.uint8(3))
    assert is_admissible(syms)
    w = AdmissibleWord(syms)
    assert w.symbols == (2, 1, 0, 3)
    assert all(type(k) is int for k in w.symbols)
    assert w.extend(np.int64(3)).symbols == (2, 1, 0, 3, 3)
    assert type(w.extend(np.int64(3)).symbols[-1]) is int


def test_word_constructor_validates():
    with pytest.raises(ValueError):
        AdmissibleWord((2, 2, 0, 0))


def test_children_spatial_order_nonzero_state():
    got = [w.symbols for w in children(AdmissibleWord((3,)), 5)]
    assert got == [(3, 4), (3, 5), (3, 0), (3, 1), (3, 2), (3, 3)]


def test_children_after_zero():
    got = [w.symbols for w in children(AdmissibleWord((1, 0)), 2)]
    assert got == [(1, 0, 1), (1, 0, 2)]


def test_children_of_root():
    got = [w.symbols for w in children(AdmissibleWord(), 3)]
    assert got == [(1,), (2,), (3,)]


@st.composite
def words(draw, max_depth=8):
    depth = draw(st.integers(0, max_depth))
    syms = []
    prev = 0
    for _ in range(depth):
        if prev == 0:
            k = draw(st.integers(1, 6))
        else:
            k = draw(st.integers(0, prev + 6))
        syms.append(k)
        prev = k
    return AdmissibleWord(tuple(syms))


def brute_admissible(seq) -> bool:
    """The rule restated: non-negative ints, no 0 first, no 0 after 0."""
    return (all(type(k) is int and k >= 0 for k in seq)
            and all(a or b for a, b in zip((0, *seq), seq)))


@given(words(), st.integers(0, 12))
def test_children_match_brute_force_filter(word, max_index):
    # the left block (above the last symbol), then the right block
    ok = [c for c in range(max_index + 1)
          if brute_admissible(word.symbols + (c,))]
    k = word.last
    want = [c for c in ok if c > k] + [c for c in ok if c <= k]
    assert [w.symbols for w in children(word, max_index)] == [
        word.symbols + (c,) for c in want]


def brute_random_word(rng, depth, max_jump):
    syms = ()
    for _ in range(depth):
        prev = syms[-1] if syms else 0
        ok = [c for c in range(prev - max_jump, prev + max_jump + 1)
              if brute_admissible(syms + (c,))]
        syms += (int(rng.integers(ok[0], ok[-1] + 1)),)
    return syms


@pytest.mark.parametrize("seed, max_jump", [(0, 10), (1001, 10), (3, 500),
                                            (5, 1), (7, 2)])
def test_random_word_matches_brute_force_filter(seed, max_jump):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for depth in (1, 5, 30):
        assert (random_word(rng, depth, max_jump).symbols
                == brute_random_word(ref, depth, max_jump))


def test_children_check_one_step_per_child(monkeypatch):
    word = random_word(np.random.default_rng(2), 30)
    calls = []
    step = coding.step_arrays
    monkeypatch.setattr(coding, "step_arrays",
                        lambda p, n: calls.append(1) or step(p, n))
    kids = children(word, 30)
    # the filter and the appended step: two checks per candidate symbol
    assert len(kids) >= 30 and len(calls) <= 2 * 31


@given(words(), st.integers(0, 12))
def test_children_all_admissible_distinct_counted(word, max_index):
    kids = children(word, max_index)
    assert len({k.symbols for k in kids}) == len(kids)
    for k in kids:
        assert is_admissible(k.symbols)
        assert k.symbols[:-1] == word.symbols
    expected = max_index if word.last == 0 else max_index + 1
    assert len(kids) == expected


@given(words())
def test_admissibility_is_prefix_closed(word):
    for i in range(word.depth + 1):
        assert is_admissible(word.symbols[:i])


@given(st.lists(st.integers(-3, 6), max_size=10))
def test_is_admissible_total(seq):
    # never raises, and agrees with a direct restatement of the rules
    ok = is_admissible(seq)
    direct = all(k >= 0 for k in seq)
    if seq:
        direct = direct and (len(seq) == 0 or seq[0] != 0 or False)
        prev = 0
        for k in seq:
            if k < 0:
                direct = False
                break
            if prev == 0 and k == 0:
                direct = False
                break
            prev = k
    assert ok == direct


def test_parse_round_trip():
    w = AdmissibleWord.parse("1,0,2")
    assert w.symbols == (1, 0, 2)
    assert str(w) == "1,0,2"
    assert AdmissibleWord.parse("").symbols == ()


def test_random_word_admissible():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = random_word(rng, 20)
        assert is_admissible(w.symbols)


# str(random_word(default_rng(seed), 30, max_jump)) before the step rule
# moved into coding; the verify and benchmark words depend on this stream
RANDOM_WORD_PINS = {
    (0, 10): "9,12,12,7,5,0,1,0,2,10,13,22,22,24,34,39,42,43,44,53,48,55,59,"
             "49,47,55,56,46,52,57",
    (1001, 10): "10,12,19,9,10,3,10,18,11,2,5,3,6,10,2,1,8,2,1,2,12,4,12,22,"
                "21,27,25,20,12,12",
    (3, 500): "406,77,103,143,116,494,864,946,485,92,196,301,498,478,259,121,"
              "430,683,215,81,263,298,709,726,646,577,744,831,504,742",
    (5, 1): "1,2,3,2,3,3,3,3,2,3,2,1,1,1,1,0,1,0,1,0,1,0,1,0,1,2,1,1,2,1",
}


@pytest.mark.parametrize("seed, max_jump", sorted(RANDOM_WORD_PINS))
def test_random_word_stream_is_pinned(seed, max_jump):
    w = random_word(np.random.default_rng(seed), 30, max_jump=max_jump)
    assert str(w) == RANDOM_WORD_PINS[seed, max_jump]
