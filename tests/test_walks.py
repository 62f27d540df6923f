import dataclasses
import hashlib
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cantorwalk import walks
from cantorwalk.measure import MeasureParams, transition_prob, zeta
from cantorwalk.walks import (
    _BLOCK_STEPS,
    _CHUNK,
    TABLE_SIZE,
    WalkParams,
    TransienceReport,
    ZetaJumpSampler,
    _kernel_pair,
    folded_kernel_identity,
    gamma_envelope_violations,
    increment_tail_prob,
    path_batch,
    path_rng,
    simulate_path,
    transience_stats,
)

B32 = Fraction(3, 2)


def test_sampler_small_magnitude_frequencies():
    n = 200000
    for beta in (B32, Fraction(2)):  # beta = 2 is the alpha = 1 boundary
        rng = path_rng(7, 0)
        mags = ZetaJumpSampler.cached(beta).sample_abs(rng, n)
        z = float(zeta(beta, 80))
        for j in (1, 2, 3, 10):
            p = j ** -float(beta) / z
            freq = float(np.mean(mags == j))
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(freq - p) < 4 * sigma + 1e-9


def test_sampler_tail_mass():
    # P(|l| > 2^16) matches the integral bracket of the tail
    rng = path_rng(11, 0)
    n = 400000
    mags = ZetaJumpSampler.cached(B32).sample_abs(rng, n)
    z = float(zeta(B32, 80))
    cut = 1 << 16
    p_lo = (cut + 1) ** -0.5 * 2 / z
    p_hi = cut ** -0.5 * 2 / z
    freq = float(np.mean(mags > cut))
    sigma = (p_hi * (1 - p_hi) / n) ** 0.5
    assert p_lo - 4 * sigma < freq < p_hi + 4 * sigma


def test_sampler_sign_balance():
    rng = path_rng(13, 0)
    n = 100000
    signed = ZetaJumpSampler.cached(B32).sample_signed(rng, n)
    assert np.all(signed != 0)
    assert np.array_equal(signed, np.trunc(signed))  # integer-valued
    frac_pos = float(np.mean(signed > 0))
    assert abs(frac_pos - 0.5) < 4 * (0.25 / n) ** 0.5


def test_sampler_rejects_bad_beta():
    with pytest.raises(ValueError):
        ZetaJumpSampler(Fraction(1))
    with pytest.raises(ValueError):
        ZetaJumpSampler(Fraction(5, 2))


@pytest.mark.parametrize("beta", [Fraction(51, 50), Fraction(6, 5), B32,
                                  Fraction(2)])
def test_guide_lookup_equals_searchsorted(beta):
    sampler = ZetaJumpSampler(beta)
    cum = sampler.cum[:TABLE_SIZE]  # the table without its +inf sentinel
    last = cum[-1]
    u = np.concatenate([
        path_rng(3, 0).random(10 ** 6),
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
        [0.0, (last + 1.0) / 2, np.nextafter(1.0, 0.0)],
    ])
    mags = u.copy()
    sampler._lookup(mags)
    assert np.array_equal(mags, np.searchsorted(cum, u) + 1)
    # u above the last entry maps to the tail
    assert np.all(mags[u > last] == TABLE_SIZE + 1)
    assert np.count_nonzero(u > last) >= 3


def test_sample_abs_across_chunks_matches_plain_searchsorted():
    # the same stream as one searchsorted over all draws, then the tail
    sampler = ZetaJumpSampler.cached(Fraction(6, 5))
    size = 150001  # more than two lookup chunks
    got = sampler.sample_abs(path_rng(19, 2), size)
    rng = path_rng(19, 2)
    idx = np.searchsorted(sampler.cum[:TABLE_SIZE], rng.random(size))
    want = (idx + 1).astype(np.float64)
    tail = idx >= TABLE_SIZE
    want[tail] = sampler._sample_tail([rng], [int(tail.sum())])
    assert np.array_equal(got, want)


def oracle_sample_abs(sampler, rng, size):
    """The sampler before it worked in place: all uniforms, a separate
    magnitude array, then the tail draws through a boolean mask."""
    u = rng.random(size)
    out = np.searchsorted(sampler.cum[:TABLE_SIZE], u) + 1.0
    tail = out > TABLE_SIZE
    ntail = int(np.count_nonzero(tail))
    if ntail:
        out[tail] = sampler._sample_tail([rng], [ntail])
    return out


def oracle_sample_signed(sampler, rng, size):
    mag = oracle_sample_abs(sampler, rng, size)
    sign = rng.integers(0, 2, size=size) * 2 - 1
    return mag * sign


def oracle_sample_tail(sampler, rng, size):
    """``_sample_tail`` before it worked in reused rows: one new array per
    expression."""
    b = sampler.beta_f
    out = np.empty(size)
    need = np.arange(size)
    while need.size:
        u = rng.random(need.size)
        x = float(TABLE_SIZE) * (1.0 - u) ** (-1.0 / (b - 1.0))
        j = np.floor(x) + 1.0
        envelope = j ** (1.0 - b) * np.expm1(
            (1.0 - b) * np.log1p(-1.0 / j)) / (b - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = j ** (-b) / envelope
        accept = rng.random(need.size) < np.nan_to_num(ratio, nan=0.0)
        out[need[accept]] = j[accept]
        need = need[~accept]
    return out


def oracle_signed_states(params, rng):
    sampler = ZetaJumpSampler.cached(params.beta)
    jumps = oracle_sample_signed(sampler, rng, params.steps)
    return np.concatenate(([0.0], np.cumsum(jumps)))


STREAM_BETAS = [Fraction(51, 50), Fraction(6, 5), B32, Fraction(9, 5),
                Fraction(999, 500), Fraction(2)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS)
@pytest.mark.parametrize("size", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                  3 * _CHUNK + 5])
def test_in_place_sampler_draws_the_oracle_stream(beta, size):
    sampler = ZetaJumpSampler.cached(beta)
    for method, oracle in ((sampler.sample_abs, oracle_sample_abs),
                           (sampler.sample_signed, oracle_sample_signed)):
        got = method(path_rng(23, size), size)
        assert got.tobytes() == oracle(sampler, path_rng(23, size),
                                       size).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS)
def test_successive_odd_calls_keep_the_oracle_stream(beta):
    # odd sign counts leave PCG64's spare 32-bit half for the next call
    sampler = ZetaJumpSampler.cached(beta)
    rng, ref = path_rng(29, 1), path_rng(29, 1)
    for size in (3, _CHUNK + 7, 1, 2 * _CHUNK + 1, 5):
        assert (sampler.sample_signed(rng, size).tobytes()
                == oracle_sample_signed(sampler, ref, size).tobytes())
        assert (sampler.sample_abs(rng, size).tobytes()
                == oracle_sample_abs(sampler, ref, size).tobytes())
    assert rng.integers(0, 2 ** 32) == ref.integers(0, 2 ** 32)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS)
def test_sample_tail_draws_the_oracle_stream(beta):
    sampler = ZetaJumpSampler.cached(beta)
    for size in (1, 1000, 50001):
        rng, ref = path_rng(47, size), path_rng(47, size)
        assert (sampler._sample_tail([rng], [size]).tobytes()
                == oracle_sample_tail(sampler, ref, size).tobytes())
        assert rng.random() == ref.random()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS)
@pytest.mark.parametrize("block", [5, _CHUNK + 3])
def test_signed_blocks_are_sample_signed_in_blocks(beta, block):
    sampler = ZetaJumpSampler.cached(beta)
    for size in (1, block - 1, block, block + 1, 3 * block + 5):
        rng, ref = path_rng(41, size), path_rng(41, size)
        blocks = list(sampler.signed_blocks(rng, size, block))
        assert [b.size for b in blocks] == [
            min(block, size - lo) for lo in range(0, size, block)]
        assert (np.concatenate(blocks).tobytes()
                == sampler.sample_signed(ref, size).tobytes())
        # odd sizes leave PCG64's spare 32-bit half for the next draw
        assert rng.integers(0, 2 ** 32) == ref.integers(0, 2 ** 32)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS)
def test_successive_odd_block_calls_keep_the_stream(beta):
    sampler = ZetaJumpSampler.cached(beta)
    rng, ref = path_rng(43, 1), path_rng(43, 1)
    for size, block in ((3, 2), (_CHUNK + 7, 1001), (1, 1),
                        (2 * _CHUNK + 1, _CHUNK), (5, 3)):
        got = np.concatenate(list(sampler.signed_blocks(rng, size, block)))
        assert got.tobytes() == sampler.sample_signed(ref, size).tobytes()
    assert rng.integers(0, 2 ** 32) == ref.integers(0, 2 ** 32)


class Scripted:
    """A stand-in generator that hands out the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None, out=None):
        n = size if out is None else out.size
        drawn, self.uniforms = self.uniforms[:n], self.uniforms[n:]
        if out is None:
            return np.array(drawn)
        out[:] = drawn
        return out


# u = 0 proposes TABLE_SIZE + 1, whose acceptance ratio lies just below 1;
# u = 1 - 2^-53 rejects it, and the second proposal is accepted with u = 0
REJECTED_FIRST = [0.0, np.nextafter(1.0, 0.0), 0.3, 0.0]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS)
def test_tail_sampler_takes_several_generators(beta):
    # one accept/reject over several generators draws, from each, what it
    # draws alone: generators with no tails, one whose first proposal is
    # rejected, and rounds in which only some generators still draw
    sampler = ZetaJumpSampler.cached(beta)
    sizes = [1000, 0, 1, 3, 0, 5000]
    rngs = [path_rng(61, k) for k in range(len(sizes))]
    refs = [path_rng(61, k) for k in range(len(sizes))]
    rngs[2], refs[2] = Scripted(REJECTED_FIRST), Scripted(REJECTED_FIRST)
    got = sampler._sample_tail(rngs, sizes)
    want = [oracle_sample_tail(sampler, ref, n) for ref, n in zip(refs, sizes)]
    assert got.tobytes() == np.concatenate(want).tobytes()
    assert rngs[2].uniforms == refs[2].uniforms == []  # two rounds each
    for rng, ref in zip(rngs, refs):
        if rng is not rngs[2]:
            assert rng.random() == ref.random()
    assert sampler._sample_tail([path_rng(61, 0)], [0]).size == 0


def walk_params(kind, beta, steps, seed=67):
    if kind == "dissipative":
        return WalkParams(kind=kind, steps=steps, seed=seed, alpha=beta / 2)
    return WalkParams(kind=kind, steps=steps, seed=seed, beta=beta)


def oracle_states(params, path_id):
    signed = oracle_signed_states(params, path_rng(params.seed, path_id))
    return signed if params.kind == "cauchy_Z" else np.abs(signed)


def state_rows(path):
    return path.path_id, path.states.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", STREAM_BETAS, ids=str)
@pytest.mark.parametrize("kind", ["cauchy_Z", "folded", "dissipative"])
@pytest.mark.parametrize("steps", [1, 2, _BLOCK_STEPS - 1, _BLOCK_STEPS,
                                   _BLOCK_STEPS + 1, 10 ** 5])
def test_block_rows_equal_the_oracle(kind, beta, steps):
    # blocks of many short paths, of one path just under, at and over the
    # block size (a fresh jump array), and of one path of 10^5 steps
    params = walk_params(kind, beta, steps)
    n_paths = 5 if steps <= 2 else 2
    assert path_batch(params, n_paths, state_rows) == [
        (i, oracle_states(params, i).tobytes()) for i in range(n_paths)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("beta", [Fraction(51, 50), B32, Fraction(2)],
                         ids=str)
def test_block_rows_are_the_same_at_any_block_size_and_cpu_count(
        monkeypatch, beta):
    # 11 paths of 300 steps in blocks of 1, 2, 3 and 7 paths (11 is no
    # multiple of them) and in one block, on one CPU and on two
    params = walk_params("dissipative", beta, 300)
    want = [(i, oracle_states(params, i).tobytes()) for i in range(11)]
    for block_steps in (1, 600, 900, 2100, 10 ** 6):
        monkeypatch.setattr(walks, "_BLOCK_STEPS", block_steps)
        for cpus in (1, 2):
            monkeypatch.setattr("os.sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert path_batch(params, 11, state_rows) == want


@pytest.mark.parametrize("params", [
    WalkParams(kind="cauchy_Z", steps=3 * _CHUNK + 5, seed=31, beta=B32),
    WalkParams(kind="folded", steps=_CHUNK + 1, seed=31, beta=Fraction(6, 5)),
    WalkParams(kind="dissipative", steps=2 * _CHUNK - 1, seed=31,
               alpha=Fraction(3, 4)),
])
def test_in_place_paths_equal_the_oracle(params):
    p = simulate_path(params, path_id=4)
    signed = oracle_signed_states(params, path_rng(31, 4))
    states = signed if params.kind == "cauchy_Z" else np.abs(signed)
    assert p.states.tobytes() == states.tobytes()


def test_sample_signed_holds_one_output_array():
    # the output plus O(_CHUNK): no full-size magnitude or sign temporaries
    sampler = ZetaJumpSampler.cached(B32)
    rng = path_rng(37, 0)
    tracemalloc.start()
    try:
        sampler.sample_signed(rng, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10 ** 6 + 32 * _CHUNK


def test_sample_signed_tail_heavy_peak():
    # at beta = 51/50, 79 % of draws go to the tail; its accept/reject works
    # in reused rows: 65.8 MB traced, 81.6 MB with one array per expression
    sampler = ZetaJumpSampler.cached(Fraction(51, 50))
    rng = path_rng(37, 0)
    tracemalloc.start()
    try:
        # the proposal overflows to inf (and is rejected): a known defect
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            sampler.sample_signed(rng, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 68 * 10 ** 6


# sha256 of simulate_path states before the guide-table lookup came in
STREAM_PINS = {
    Fraction(51, 100):
        "b2888688ccd2392b9a7b4a2da8cdcba35b86022ad877010a16b01dfeebdea765",
    Fraction(3, 4):
        "9af1ccd2feb11dd6e9fe6ba867b4f47bcbeaeed0aff6e5037edc730e2501b0b2",
    Fraction(999, 1000):
        "74b8979c2524491383e117b316d38ca1a206db65f8587fb7d4d54659ed3f4537",
}


@pytest.mark.parametrize("alpha", sorted(STREAM_PINS))
def test_simulate_path_stream_is_pinned(alpha):
    p = simulate_path(WalkParams(kind="dissipative", steps=10 ** 5,
                                 seed=2718, alpha=alpha), path_id=5)
    assert hashlib.sha256(p.states.tobytes()).hexdigest() == STREAM_PINS[alpha]


def test_scalar_jump_is_nonzero_integer():
    rng = path_rng(17, 0)
    sampler = ZetaJumpSampler.cached(B32)
    for _ in range(100):
        x = sampler.sample_signed(rng, 1)[0]
        j = int(x)
        assert j == x and j != 0


def test_paths_are_reproducible():
    params = WalkParams(kind="dissipative", steps=500, seed=42,
                        alpha=Fraction(3, 4))
    a = simulate_path(params, path_id=3)
    b = simulate_path(params, path_id=3)
    assert np.array_equal(a.states, b.states)
    c = simulate_path(params, path_id=4)
    assert not np.array_equal(a.states, c.states)


def test_folded_is_abs_of_signed_with_same_jumps():
    seed = 99
    pf = simulate_path(WalkParams(kind="folded", steps=1000, seed=seed,
                                  beta=B32))
    pc = simulate_path(WalkParams(kind="cauchy_Z", steps=1000, seed=seed,
                                  beta=B32))
    assert np.array_equal(pf.states, np.abs(pc.states))


def test_dissipative_states_nonnegative_and_never_stick_at_zero():
    p = simulate_path(WalkParams(kind="dissipative", steps=5000, seed=5,
                                 alpha=Fraction(3, 4)))
    assert np.all(p.states >= 0)
    zeros = np.flatnonzero(p.states == 0)
    # the kernel forbids 0 -> 0, so no two consecutive zero states
    assert not np.any(np.diff(zeros) == 1) if zeros.size > 1 else True


def one_step(m, rng):
    """|m + L| for one signed zeta jump L: one step of the folded walk."""
    return abs(m + int(ZetaJumpSampler.cached(B32).sample_signed(rng, 1)[0]))


def test_step_matches_kernel_from_zero():
    rng = path_rng(21, 0)
    for _ in range(200):
        s = one_step(0, rng)
        assert s >= 1


def test_walkparams_validation():
    with pytest.raises(ValueError):
        WalkParams(kind="bogus", steps=10, seed=1, beta=B32)
    with pytest.raises(ValueError):
        WalkParams(kind="dissipative", steps=10, seed=1, alpha=Fraction(1, 3))
    with pytest.raises(ValueError):
        WalkParams(kind="folded", steps=10, seed=1, beta=Fraction(5, 2))
    # dissipative derives beta = 2 alpha
    p = WalkParams(kind="dissipative", steps=10, seed=1, alpha=Fraction(3, 4))
    assert p.beta == Fraction(3, 2)


def test_walkparams_exponent_rules():
    # a dissipative beta is 2 alpha: another is an error, an equal one is
    # kept, so dataclasses.replace works
    with pytest.raises(ValueError, match="beta = 2 alpha"):
        WalkParams(kind="dissipative", steps=10, seed=1, alpha=Fraction(3, 4),
                   beta=Fraction(7, 5))
    p = WalkParams(kind="dissipative", steps=10, seed=1, alpha=Fraction(3, 4))
    q = dataclasses.replace(p, steps=20)
    assert (q.alpha, q.beta, q.steps) == (Fraction(3, 4), B32, 20)
    with pytest.raises(ValueError, match=r"alpha must lie in \(1/2, 1\]"):
        WalkParams(kind="dissipative", steps=10, seed=1, alpha="9")
    # the beta kinds take no alpha, not even a valid one
    for kind in ("cauchy_Z", "folded"):
        for alpha in ("9", Fraction(3, 4)):
            with pytest.raises(ValueError, match="not alpha"):
                WalkParams(kind=kind, steps=10, seed=1, beta=B32, alpha=alpha)


@pytest.mark.parametrize("beta", [1, Fraction(5, 2), "9"])
def test_every_beta_check_is_the_sampler_domain(beta):
    for make in (ZetaJumpSampler,
                 lambda b: WalkParams(kind="folded", steps=10, seed=1, beta=b),
                 lambda b: folded_kernel_identity(b, 5),
                 lambda b: increment_tail_prob(b, 2, 3)):
        with pytest.raises(ValueError, match=r"beta must lie in \(1, 2\]"):
            make(beta)


def test_path_batch_of_no_paths_is_empty():
    params = WalkParams(kind="dissipative", steps=10, seed=1,
                        alpha=Fraction(3, 4))
    assert path_batch(params, 0, len) == []


def test_folded_kernel_identity_is_tiny():
    for beta in (Fraction(6, 5), Fraction(2)):  # beta = 2: alpha = 1
        assert folded_kernel_identity(beta, 20, 128) < 1e-30


def test_folded_check_dissipative_side_is_transition_prob():
    # the criterion's cached kernel certifies transition_prob bit for bit
    for beta in (Fraction(6, 5), B32, Fraction(9, 5), Fraction(2)):
        params = MeasureParams(alpha=beta / 2, precision=256)
        _, dissipative = _kernel_pair(beta, 256)
        with mp.workprec(256):
            cached = [dissipative(m, l)._mpf_
                      for m in range(31) for l in range(31)]
        assert cached == [transition_prob(m, l, params)._mpf_
                          for m in range(31) for l in range(31)]


def test_empirical_one_step_matches_kernel():
    # frequencies of next-state from m = 2 against the measure kernel
    params = MeasureParams(alpha=Fraction(3, 4), precision=80)
    rng = path_rng(31, 0)
    n = 100000
    # n independent one-step moves |2 + L|, their jumps drawn in one call
    nexts = np.abs(2 + ZetaJumpSampler.cached(B32).sample_signed(rng, n))
    for l in (0, 1, 2, 3, 5):
        p = float(transition_prob(2, l, params))
        freq = float(np.mean(nexts == l))
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(freq - p) < 4 * sigma


def test_increment_tail_prob_bracket_and_verdicts():
    # oracle: threshold 10^3 = 1000, P = zeta(beta, 1000) / zeta(beta) with
    # mpmath's Hurwitz zeta at twice the bracket's precision
    for beta in (B32, Fraction(2)):
        (lo, hi), summable = increment_tail_prob(beta, 3, 10, 96)
        assert 0 < lo <= hi <= 1
        with mp.workprec(192):
            b = mp.mpf(beta.numerator) / beta.denominator
            assert lo <= mp.zeta(b, 1000) / mp.zeta(b) <= hi
        assert summable  # gamma (beta - 1) = 3/2 and 3 > 1
    _, s2 = increment_tail_prob(B32, 2, 10, 96)
    assert not s2  # 2 * 1/2 = 1: boundary diverges by harmonic comparison
    _, s3 = increment_tail_prob(Fraction(6, 5), 4, 10, 96)
    assert not s3  # 4 * 1/5 < 1


def test_increment_tail_prob_trivial_threshold():
    (lo, hi), _ = increment_tail_prob(B32, 0, 5, 96)
    assert float(lo) == float(hi) == 1.0  # every jump has magnitude >= 1


def test_gamma_envelope_violation_counts():
    p = simulate_path(WalkParams(kind="dissipative", steps=3000, seed=8,
                                 alpha=Fraction(3, 4)))
    assert gamma_envelope_violations(p, 10, 10) == 0
    # n^0 = 1, so every jump of magnitude >= 2 violates; that has
    # probability 1 - 1/zeta(3/2), about 0.62
    assert gamma_envelope_violations(p, 0, 1) > 1500


def test_gamma_envelope_violations_match_direct_formula():
    def direct(path, gamma, n0):
        inc = np.abs(np.diff(path.states))
        n = np.arange(inc.size, dtype=np.float64)
        mask = n >= n0
        return int(np.count_nonzero(inc[mask] > n[mask] ** float(gamma)))

    paths = [simulate_path(WalkParams(kind="dissipative", steps=steps,
                                      seed=8, alpha=Fraction(3, 4)))
             for steps in (300, 1000, 3000)]
    cases = [(p, gamma, n0) for gamma in (0, Fraction(1, 2), 1, 3)
             for n0 in (0, 1, 10, 299, 300, 5000) for p in paths]
    expected = [direct(*case) for case in cases]
    assert len(set(expected)) > 20  # a stale threshold array would show
    for _ in range(2):  # interleaved calls, every key met twice
        assert [gamma_envelope_violations(*c) for c in cases] == expected


def test_transience_stats_shape_and_trend():
    params = WalkParams(kind="dissipative", steps=2000, seed=77,
                        alpha=Fraction(3, 4))
    rep = transience_stats(params, 200, [10, 100, 1000])
    fr = rep.return_fraction
    assert set(fr) == {10, 100, 1000}
    assert fr[10] >= fr[100] >= fr[1000]
    assert all(0 <= v <= 1 for v in fr.values())
    q = rep.state_quantiles[1000]
    assert q["q05"] <= q["q50"] <= q["q95"]
    # reference: each suffix minimum scanned on its own
    tails = [simulate_path(params, i).states for i in range(200)]
    for t in (10, 100, 1000):
        assert fr[t] == sum(s[t:].min() == 0 for s in tails) / 200
        for thr in (1, 10, 100):
            assert rep.escape_fraction[t][thr] == sum(
                s[t:].min() >= thr for s in tails) / 200
    # a repeated checkpoint is counted once
    assert transience_stats(params, 200, [100, 10, 100]).return_fraction == {
        10: fr[10], 100: fr[100]}
    for n_paths, cps in ((0, [10]), (5, [-1]), (5, [2000])):
        with pytest.raises(ValueError):
            transience_stats(params, n_paths, cps)


def transience_oracle(params, n_paths, checkpoints, thresholds=(1, 10, 100)):
    """The per-path loop that ``transience_stats`` ran before it reduced
    ``path_batch`` rows, with each suffix minimum scanned on its own."""
    checkpoints = sorted({int(t) for t in checkpoints})
    returns = {t: 0 for t in checkpoints}
    escapes = {t: {thr: 0 for thr in thresholds} for t in checkpoints}
    states_at = {t: np.empty(n_paths) for t in checkpoints}
    for i in range(n_paths):
        s = simulate_path(params, path_id=i).states
        for t, m in zip(checkpoints, [s[t:].min() for t in checkpoints]):
            if m == 0:
                returns[t] += 1
            for thr in thresholds:
                if m >= thr:
                    escapes[t][thr] += 1
            states_at[t][i] = s[t]
    quant = {
        t: {p: float(np.quantile(states_at[t], float(p[1:]) / 100))
            for p in ("q05", "q25", "q50", "q75", "q95")}
        for t in checkpoints
    }
    return TransienceReport(
        return_fraction={t: returns[t] / n_paths for t in checkpoints},
        escape_fraction={t: {thr: escapes[t][thr] / n_paths
                             for thr in thresholds} for t in checkpoints},
        state_quantiles=quant,
        seeds={"seed": params.seed, "path_ids": [0, n_paths - 1]},
    )


@pytest.mark.parametrize("alpha", [Fraction(51, 100), Fraction(3, 5),
                                   Fraction(3, 4), Fraction(9, 10),
                                   Fraction(1)], ids=str)
@pytest.mark.parametrize("checkpoints,thresholds", [
    ([10, 100, 1000], (1, 10, 100)),
    ([1999, 0, 1999, 5], (1, 10, 100)),  # repeated, 0 and steps - 1
    ([1], (2, 1000, 10 ** 6)),
    ([], (1,)),
], ids=["decades", "unsorted", "one", "none"])
def test_transience_stats_equals_the_per_path_loop(alpha, checkpoints,
                                                   thresholds):
    params = WalkParams(kind="dissipative", steps=2000, seed=31,
                        alpha=alpha)
    rep = transience_stats(params, 37, checkpoints, thresholds)
    assert rep == transience_oracle(params, 37, checkpoints, thresholds)


@pytest.mark.parametrize("steps,pooled", [(500, False), (30_000, True)])
def test_path_batch_pools_only_long_paths(monkeypatch, steps, pooled):
    # blocks go to worker threads only when a batch has more than one: 11
    # paths of 500 steps are one block, of 30,000 steps six; the rows are
    # made in the calling thread either way
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    params = WalkParams(kind="dissipative", steps=steps, seed=5,
                        alpha=Fraction(3, 4))
    row_threads, block_threads = set(), set()
    simulate = walks._simulate_block

    def block(params, path_ids):
        block_threads.add(threading.get_ident())
        if path_ids[0] == 0:
            time.sleep(0.05)  # the first block outweighs its rows
        return simulate(params, path_ids)

    def row(path):
        row_threads.add(threading.get_ident())
        return path.path_id, float(path.states[-1])

    monkeypatch.setattr(walks, "_simulate_block", block)
    rows = path_batch(params, 11, row)
    assert rows == [(i, float(simulate_path(params, i).states[-1]))
                    for i in range(11)]
    assert (block_threads != {threading.get_ident()}) == pooled
    assert row_threads == {threading.get_ident()}


def test_rows_that_outweigh_the_simulation_run_serially(monkeypatch):
    # 11 paths of 30,000 steps are six blocks; rows that take longer than
    # the first block's simulation keep every block in the calling thread
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    params = WalkParams(kind="dissipative", steps=30_000, seed=5,
                        alpha=Fraction(3, 4))
    block_threads = set()
    simulate = walks._simulate_block

    def block(params, path_ids):
        block_threads.add(threading.get_ident())
        return simulate(params, path_ids)

    def slow_row(path):
        time.sleep(0.05)
        return path.path_id

    monkeypatch.setattr(walks, "_simulate_block", block)
    assert path_batch(params, 11, slow_row) == list(range(11))
    assert block_threads == {threading.get_ident()}
