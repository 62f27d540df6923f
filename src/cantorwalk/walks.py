"""Seeded simulation of the three walks and their diagnostics.

Walk kinds:

* ``cauchy_Z``    is the symmetric zeta-jump walk on the integers,
* ``folded``      is its absolute value,
* ``dissipative`` is the walk on the non-negative integers whose kernel
  matches the cylinder measure (exponent beta = 2*alpha).

The folded and dissipative walks are both realized as the absolute value of
a signed zeta-jump walk: the folded walk is defined that way, and the
absolute value of the signed walk is a Markov chain whose one-step kernel
is exactly the dissipative kernel, so this sampler is exact in law.

Reproducibility: numpy's PCG64 via default_rng, with per-path generators
derived from SeedSequence(seed).spawn-style keys, so path i is replayable
on its own.
"""
from __future__ import annotations

import collections
import copy
import functools
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import measure
from .coding import step_arrays
from .geometry import _to_mpf

TABLE_SIZE = 1 << 16  # inverse-CDF table covers |jump| <= 2^16
_GUIDE_SIZE = 1 << 16  # guide buckets; a power of two, so u * size is exact
_CHUNK = 1 << 16       # draws looked up at once, to bound the temporaries
# a batch simulates as many paths at once as fit in this many steps, and at
# least one, so a path of 10^5 steps is a block of its own
_BLOCK_STEPS = 1 << 16

_SAMPLER_CACHE: dict[str, "ZetaJumpSampler"] = {}
_SCRATCH = threading.local()


def _jump_exponent(beta) -> Fraction:
    """beta as a Fraction, checked to lie in the jump law's domain (1, 2]."""
    beta = Fraction(beta)
    if not (1 < beta <= 2):
        raise ValueError(f"beta must lie in (1, 2], got {beta}")
    return beta


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Independent, replayable generator for one path."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_id),)))


def _scratch(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """This thread's work array ``name``, cut to ``size``: allocated once
    per thread at _BLOCK_STEPS entries, and fresh past that size."""
    if size > _BLOCK_STEPS:
        return np.empty(size, dtype)
    buf = getattr(_SCRATCH, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(_BLOCK_STEPS, dtype)
        setattr(_SCRATCH, name, buf)
    return buf[:size]


def _draw_uniforms(rngs, counts, out: np.ndarray) -> None:
    """Fill ``out`` with counts[i] uniforms from rngs[i], in order."""
    lo = 0
    for rng, n in zip(rngs, counts):
        if n:
            rng.random(out=out[lo:lo + n])
            lo += n


class ZetaJumpSampler:
    """Draws jump magnitudes with P(|l| = j) = j^-beta / zeta(beta).

    Inverse-CDF table up to TABLE_SIZE; beyond it, inversion of the
    continuous x^-beta tail with an exact accept/reject correction, so the
    discrete tail law is exact (up to float64 rounding of the table).

    The table index of a uniform u is ``searchsorted(cum, u)``, found
    through a guide table (Chen & Asau's indexed search): u lies in bucket
    b = floor(u * _GUIDE_SIZE), whose index is ``guide[b]`` plus one if
    ``cum[guide[b]] < u``, unless the bucket holds more than one table
    boundary (``wide``); ``searchsorted`` is kept for those few.  The
    index, and so the random stream, is that of a plain ``searchsorted``.
    """

    def __init__(self, beta):
        self.beta = _jump_exponent(beta)
        self.beta_f = float(self.beta)
        self.zeta_beta = float(measure.zeta(self.beta, 80))
        j = np.arange(1, TABLE_SIZE + 1, dtype=np.float64)
        pmf = j ** (-self.beta_f) / self.zeta_beta
        # the +inf sentinel sends u past the last entry to index TABLE_SIZE
        self.cum = np.append(np.cumsum(pmf), np.inf)
        edges = np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE
        self.guide = np.searchsorted(self.cum, edges)
        self.wide = np.diff(self.guide) > 1

    @classmethod
    def cached(cls, beta) -> "ZetaJumpSampler":
        key = str(Fraction(beta))
        s = _SAMPLER_CACHE.get(key)
        if s is None:
            s = cls(beta)
            _SAMPLER_CACHE[key] = s
        return s

    def _sample_tail(self, rngs, sizes) -> np.ndarray:
        """Magnitudes > TABLE_SIZE, exact accept/reject on the integer law:
        sizes[i] of them from rngs[i], concatenated in generator order.

        Each round, every generator that still needs k magnitudes draws k
        proposal uniforms, and after all proposals k acceptance uniforms:
        what it would draw alone.  The proposals j, the envelope and the
        acceptance ratio of all generators are computed in the three rows
        of one reused work array, with the same float operations, in the
        same order, as the plain expressions in the comments.  A NaN ratio
        (0 / 0 far out in the tail) rejects, as u < 0 would.
        """
        b = self.beta_f
        # out[bounds[i]:bounds[i + 1]] are rngs[i]'s magnitudes, and need
        # the indices of out still to accept, in order
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        out = np.empty(bounds[-1])
        need = np.arange(bounds[-1])
        work = np.empty((3, bounds[-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            while need.size:
                counts = np.diff(np.searchsorted(need, bounds)).tolist()
                j, env, ratio = work[:, :need.size]
                # j = floor(TABLE_SIZE * (1 - u) ** (-1 / (b - 1))) + 1,
                # proposal pmf prop. to int_{j-1}^{j} x^-b
                _draw_uniforms(rngs, counts, j)
                np.subtract(1.0, j, out=j)
                j **= -1.0 / (b - 1.0)  # dispatches as ** does, not np.power
                j *= float(TABLE_SIZE)
                np.floor(j, out=j)
                j += 1.0
                # env = (j-1)^(1-b) - j^(1-b), in the cancellation-safe form
                # j ** (1 - b) * expm1((1 - b) * log1p(-1 / j)) / (b - 1)
                np.divide(-1.0, j, out=env)
                np.log1p(env, out=env)
                env *= 1.0 - b
                np.expm1(env, out=env)
                ratio[:] = j
                ratio **= 1.0 - b
                np.multiply(ratio, env, out=env)
                env /= b - 1.0
                ratio[:] = j
                ratio **= -b
                ratio /= env  # j ** -b / env
                _draw_uniforms(rngs, counts, env)
                accept = env < ratio
                out[need[accept]] = j[accept]
                need = need[~accept]
        return out

    def _lookup(self, u: np.ndarray) -> None:
        """Overwrite the uniforms ``u`` in place, _CHUNK at a time, with
        their table magnitudes ``searchsorted(cum, u) + 1``; TABLE_SIZE + 1
        marks a tail draw.  Each step is one numpy call into this thread's
        buffers (``take``, not a fancy index), so it releases the GIL."""
        for lo in range(0, u.size, _CHUNK):
            x = u[lo:lo + _CHUNK]
            index = _scratch("index", x.size, np.intp)
            entry = _scratch("entry", x.size)
            flag = _scratch("flag", x.size, bool)
            # the bucket; the float-to-int cast truncates, as astype does
            np.multiply(x, _GUIDE_SIZE, out=index, casting="unsafe")
            wide = self.wide.take(index, out=flag, mode="clip").nonzero()[0]
            self.guide.take(index, out=index, mode="clip")
            self.cum.take(index, out=entry, mode="clip")
            index += np.less(entry, x, out=flag)
            if wide.size:
                index[wide] = self.cum.searchsorted(x[wide])
            np.add(index, 1, out=x)

    def _magnitudes(self, rngs, u: np.ndarray) -> None:
        """Overwrite the uniforms ``u``, whose row i came from rngs[i], in
        place with their magnitudes: the table lookup over all of them,
        then each row's tail draws (index TABLE_SIZE), in index order, from
        its own generator.  ``u`` is C-contiguous."""
        flat = u.reshape(-1)
        self._lookup(flat)
        tail = (flat > TABLE_SIZE).nonzero()[0]
        if tail.size:
            flat[tail] = self._sample_tail(rngs, np.bincount(
                tail // u.shape[1], minlength=len(rngs)))

    @staticmethod
    def _apply_signs(rng: np.random.Generator, x: np.ndarray) -> None:
        """Give ``x`` (positive magnitudes) one fair sign per entry, in
        place, from one ``rng.integers(-1, 1)`` call per _CHUNK: -1 makes
        it negative and 0 keeps it.  These are the draws of
        ``rng.integers(0, 2)`` less one (int32 or int64 alike), so a sign is
        the factor 2 * bit - 1 of that draw.  PCG64 keeps its spare 32-bit
        half in the bit generator, so chunked calls, here or across calls,
        draw the same stream as one call over all entries."""
        for lo in range(0, x.size, _CHUNK):
            chunk = x[lo:lo + _CHUNK]
            sign = rng.integers(-1, 1, size=chunk.size, dtype=np.int32)
            np.copysign(chunk, sign, out=chunk)

    def sample_abs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vector of jump magnitudes (float64 holding exact integers).

        Draws all ``size`` uniforms, overwrites them in place with their
        table magnitudes, then draws the tail magnitudes in index order:
        O(_CHUNK) memory besides the result and the tail draws.
        """
        out = rng.random(size)
        self._magnitudes([rng], out.reshape(1, -1))
        return out

    def sample_signed(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Signed jumps: ``sample_abs``, then one fair sign per jump."""
        out = self.sample_abs(rng, size)
        self._apply_signs(rng, out)
        return out

    def signed_blocks(self, rng: np.random.Generator, size: int, block: int):
        """Yield ``sample_signed(rng, size)`` as consecutive fresh arrays of
        ``block`` jumps (the last may be shorter), in O(block) memory
        besides the tail draws; once exhausted, ``rng`` is where
        ``sample_signed`` leaves it.

        The first pass draws the uniforms a block at a time only to count
        the tail draws (u above the last table entry), then draws their
        magnitudes from ``rng``.  The second pass replays the uniforms from
        a copy of the generator taken before the first, looks them up,
        drops the tail magnitudes in, and draws each block's signs from
        ``rng``: the draws of ``sample_signed``, in its order.
        """
        replay = copy.deepcopy(rng)
        last = self.cum[TABLE_SIZE - 1]
        n_tail = 0
        for lo in range(0, size, block):
            u = rng.random(min(block, size - lo))
            n_tail += int(np.count_nonzero(u > last))
        tail_mags = self._sample_tail([rng], [n_tail])
        t = 0
        for lo in range(0, size, block):
            out = replay.random(min(block, size - lo))
            self._lookup(out)
            tail = np.flatnonzero(out > TABLE_SIZE)
            out[tail] = tail_mags[t:t + tail.size]
            t += tail.size
            self._apply_signs(rng, out)
            yield out


@dataclass(frozen=True)
class WalkParams:
    """Configuration of one simulated walk; a dissipative beta is 2 alpha."""

    kind: str                       # cauchy_Z | folded | dissipative
    steps: int
    seed: int
    beta: Fraction | None = None    # cauchy_Z / folded
    alpha: Fraction | None = None   # dissipative

    def __post_init__(self) -> None:
        if self.kind not in ("cauchy_Z", "folded", "dissipative"):
            raise ValueError(f"unknown walk kind {self.kind!r}")
        if self.kind == "dissipative":
            if self.alpha is None:
                raise ValueError("dissipative walk needs alpha")
            a = measure.MeasureParams(self.alpha).alpha
            if self.beta is not None and Fraction(self.beta) != 2 * a:
                raise ValueError("dissipative walk has beta = 2 alpha")
            object.__setattr__(self, "alpha", a)
            object.__setattr__(self, "beta", 2 * a)
        else:
            if self.beta is None or self.alpha is not None:
                raise ValueError(f"{self.kind} walk takes beta, not alpha")
            object.__setattr__(self, "beta", _jump_exponent(self.beta))
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class WalkPath:
    """Path ``path_id`` of a walk: states[0] = 0 and len(states) = steps + 1.

    States are float64, exact integers only up to 2^53: past that the
    running sums round, and heavy-tailed walks get there (all 40 paths of
    10^4 steps at alpha = 3/5 in ROADMAP item 1's table do; that item is
    the fix).  The states may be a row of the block of paths simulated
    with this one.
    """

    states: np.ndarray
    path_id: int = 0


def _simulate_block(params: WalkParams, path_ids) -> np.ndarray:
    """The states of paths ``path_ids``, one row each, as one
    (paths, steps + 1) array; row i is the path that its own generator
    gives alone.

    Each generator draws its uniforms into its row of the block's jumps;
    one table lookup runs over the block, the tail sampler then draws
    every row's tail magnitudes from that row's generator, and each
    generator draws its row's signs: per path, the draws of
    ``sample_signed``, in its order.  The running sums go row by row into
    the states: a ``cumsum`` along the rows of a 2-D array, or in place,
    holds the GIL, and one from a 1-D row into another array releases it.
    """
    sampler = ZetaJumpSampler.cached(params.beta)
    rngs = [path_rng(params.seed, i) for i in path_ids]
    jumps = _scratch("jumps", len(rngs) * params.steps).reshape(len(rngs), -1)
    for rng, row in zip(rngs, jumps):
        rng.random(out=row)
    sampler._magnitudes(rngs, jumps)
    states = np.empty((len(rngs), params.steps + 1))
    states[:, 0] = 0.0
    for rng, row, out in zip(rngs, jumps, states):
        sampler._apply_signs(rng, row)
        np.cumsum(row, out=out[1:])
    if params.kind != "cauchy_Z":
        np.abs(states, out=states)
    return states


def simulate_path(params: WalkParams, path_id: int = 0) -> WalkPath:
    """Simulate one path, reproducible from (params.seed, path_id)."""
    return WalkPath(_simulate_block(params, [path_id])[0], path_id)


def path_batch(params: WalkParams, n_paths: int, row) -> list:
    """``[row(simulate_path(params, i)) for i in range(n_paths)]``, the one
    way to simulate a batch.

    Paths are simulated in blocks of as many as fit in _BLOCK_STEPS steps
    (at least one), each block by numpy calls over all its paths, which
    release the GIL.  The first block is simulated, and its rows made, in
    the calling thread, which fills every cache a row reads.  If those
    rows took longer than the simulation, the rows bound the batch (a CSV
    row is pure-Python formatting) and worker threads would only take
    CPU time from them, so the other blocks run there too.  Otherwise,
    with more than one usable CPU, they go in order to one worker thread
    per CPU, each taking the next block when it is free, at most 2 * CPUs
    blocks ahead of the rows; ``row`` runs in the calling thread, in path
    order, as the blocks are done.  So the rows depend neither on the
    blocks nor on the CPU count, the states held stay bounded however
    slow ``row`` is, and the workers run numpy only (mpmath's precision
    is one global context).
    """
    per = max(1, _BLOCK_STEPS // params.steps)
    blocks = [range(lo, min(lo + per, n_paths))
              for lo in range(0, n_paths, per)]
    if not blocks:
        return []
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # sched_getaffinity is Linux-only

    def rows(ids, states) -> list:
        return [row(WalkPath(s, i)) for s, i in zip(states, ids)]

    start = time.perf_counter()
    states = _simulate_block(params, blocks[0])
    simulated = time.perf_counter()
    out = rows(blocks[0], states)
    if (len(blocks) < 2 or cpus < 2
            or time.perf_counter() - simulated > simulated - start):
        for ids in blocks[1:]:
            out += rows(ids, _simulate_block(params, ids))
        return out
    from concurrent.futures import ThreadPoolExecutor  # lazy: 4 ms, 1 MiB
    ahead = collections.deque()
    with ThreadPoolExecutor(max_workers=cpus) as pool:
        for ids in blocks[1:]:
            ahead.append((ids, pool.submit(_simulate_block, params, ids)))
            if len(ahead) > 2 * cpus:
                done, future = ahead.popleft()
                out += rows(done, future.result())
        for done, future in ahead:
            out += rows(done, future.result())
    return out


def _kernel_pair(beta: Fraction, precision: int):
    """The folded and the dissipative kernel at beta, as functions of
    (m, l); call them inside ``mp.workprec(precision)``.

    The folded side sums p(j) = |j|^-beta / (2 zeta(beta)), p(0) = 0, over
    the jumps j in {l - m, -l - m} (one jump when l = 0).  The dissipative
    side is ``measure.transition_prob``'s (d^-beta + s^-beta) / (2 zeta)
    over the step (d, s) of ``step_arrays`` (no s term where s = 0).  Both
    read k^-beta from the measure module's shared table.
    """
    with mp.workprec(precision):
        b = _to_mpf(beta)
        two_z = 2 * measure.zeta(beta, precision)

    def folded(m: int, l: int):
        return sum(measure._kernel_power(abs(j), b) / two_z
                   for j in {l - m, -l - m} if j)

    def dissipative(m: int, l: int):
        return measure._numerator(*step_arrays(m, l), b) / two_z

    return folded, dissipative


def folded_kernel_identity(beta, m_max: int, precision: int = 256) -> float:
    """Max |folded kernel - dissipative kernel| over states m, l <= m_max.

    The folded side comes from the signed-jump law alone: P(|m + L| = l) is
    the sum of the jump probabilities over {l - m, -l - m}.  The dissipative
    side is the kernel of the measure module at alpha = beta/2 (tests check
    it bit for bit against ``measure.transition_prob``).  The folding
    identity makes them equal, so only rounding remains.
    """
    beta = _jump_exponent(beta)
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    with mp.workprec(precision):
        folded, dissipative = _kernel_pair(beta, precision)
        states = range(m_max + 1)
        return float(max(abs(folded(m, l) - dissipative(m, l))
                         for m in states for l in states))


@dataclass
class TransienceReport:
    return_fraction: dict[int, float]       # paths visiting 0 in [t, steps]
    escape_fraction: dict[int, dict[int, float]]  # min over [t,steps] >= thr
    state_quantiles: dict[int, dict[str, float]]
    seeds: dict


def transience_row(path: WalkPath, checkpoints) -> np.ndarray:
    """min(states[t:]) at each strictly increasing checkpoint t (segment
    minima combined right to left), then the states there."""
    idx = np.asarray(checkpoints, dtype=np.intp)
    seg = np.minimum.reduceat(path.states, idx)
    return np.concatenate((np.minimum.accumulate(seg[::-1])[::-1],
                           path.states[idx]))


def return_fractions(rows: np.ndarray, k: int) -> list[float]:
    """Per checkpoint, the share of paths that visit 0 from there on, from
    rows that start with the ``transience_row``s at k checkpoints."""
    return [int(c) / len(rows)
            for c in np.count_nonzero(rows[:, :k] == 0, axis=0)]


def transience_stats(params: WalkParams, n_paths: int,
                     checkpoints: list[int],
                     thresholds: tuple[int, ...] = (1, 10, 100)
                     ) -> TransienceReport:
    """Monte Carlo transience diagnostics for the dissipative walk, reduced
    from a ``path_batch`` of ``transience_row``s."""
    if params.kind != "dissipative":
        raise ValueError("transience_stats expects a dissipative walk")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    checkpoints = sorted({int(t) for t in checkpoints})
    if checkpoints and not (0 <= checkpoints[0]
                            and checkpoints[-1] < params.steps):
        raise ValueError("checkpoints must lie in [0, steps)")
    rows = np.array(path_batch(params, n_paths, functools.partial(
        transience_row, checkpoints=checkpoints)))
    k = len(checkpoints)
    return TransienceReport(
        return_fraction=dict(zip(checkpoints, return_fractions(rows, k))),
        escape_fraction={t: {thr: int(np.count_nonzero(m >= thr)) / n_paths
                             for thr in thresholds}
                         for t, m in zip(checkpoints, rows[:, :k].T)},
        state_quantiles={t: {p: float(np.quantile(x, float(p[1:]) / 100))
                             for p in ("q05", "q25", "q50", "q75", "q95")}
                         for t, x in zip(checkpoints, rows[:, k:].T)},
        seeds={"seed": params.seed, "path_ids": [0, n_paths - 1]},
    )


def increment_tail_prob(beta, gamma, n: int, precision: int = 256):
    """Rigorous bracket of P(|jump at step n| >= n^gamma), plus verdict.

    Returns ((lo, hi), summable) where summable reports whether the series
    over n converges, i.e. gamma*(beta-1) > 1 (harmonic comparison at the
    boundary).
    """
    beta = _jump_exponent(beta)
    if n < 1:
        raise ValueError("n must be >= 1")
    with mp.workprec(precision):
        g = _to_mpf(Fraction(gamma))
        threshold = int(mp.ceil(mp.mpf(n) ** g))
        z_lo, z_hi = measure.zeta_bracket(beta, precision)
        if threshold <= 1:
            return (mp.mpf(1), mp.mpf(1)), _summable(beta, gamma)
        t_lo, t_hi = measure.power_tail_bracket(beta, threshold, precision)
        lo = t_lo / z_hi
        hi = min(mp.mpf(1), t_hi / z_lo)
        return (lo, hi), _summable(beta, gamma)


def _summable(beta, gamma) -> bool:
    return Fraction(gamma) * (Fraction(beta) - 1) > 1


@functools.lru_cache(maxsize=8)
def _envelope(length: int, g: float, n0: int) -> np.ndarray:
    """The thresholds n^g for the indices n >= n0 of range(length)."""
    n = np.arange(length, dtype=np.float64)
    thresholds = n[n >= n0] ** g
    thresholds.flags.writeable = False  # shared by every path of a length
    return thresholds


def gamma_envelope_violations(path: WalkPath, gamma, n0: int) -> int:
    """Count of n >= n0 with |k_{n+1} - k_n| > n^gamma along the path."""
    inc = np.abs(np.diff(path.states))  # inc[n] = |k_{n+1} - k_n|
    thresholds = _envelope(inc.size, float(Fraction(gamma)), n0)
    return int(np.count_nonzero(inc[inc.size - thresholds.size:] > thresholds))
