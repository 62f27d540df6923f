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

import copy
import functools
import os
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
_PATHS_PER_TASK = 8    # paths a batch thread simulates per task
# batches of paths this long or longer run on one thread per usable CPU: on
# two cores, 10^4-step paths ran faster serially, 2 * 10^4 faster threaded
_POOL_MIN_STEPS = 2 * 10 ** 4

_SAMPLER_CACHE: dict[str, "ZetaJumpSampler"] = {}


def path_rng(seed: int, path_id: int) -> np.random.Generator:
    """Independent, replayable generator for one path."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_id),)))


class ZetaJumpSampler:
    """Draws jump magnitudes with P(|l| = j) = j^-beta / zeta(beta).

    Inverse-CDF table up to TABLE_SIZE; beyond it, inversion of the
    continuous x^-beta tail with an exact accept/reject correction, so the
    discrete tail law is exact (up to float64 rounding of the table).

    The table index of a uniform u is ``searchsorted(cum, u)``, found
    through a guide table (Chen & Asau's indexed search): ``guide[b]`` is
    the index of b / _GUIDE_SIZE, so one comparison settles a u whose
    bucket holds at most one table boundary, and ``searchsorted`` is kept
    for the few ``wide`` buckets.  The index, and so the random stream, is
    that of a plain ``searchsorted``.
    """

    def __init__(self, beta):
        beta = Fraction(beta)
        if not (1 < beta <= 2):
            raise ValueError(f"beta must lie in (1, 2], got {beta}")
        self.beta = beta
        self.beta_f = float(beta)
        self.zeta_beta = float(measure.zeta(beta, 80))
        j = np.arange(1, TABLE_SIZE + 1, dtype=np.float64)
        pmf = j ** (-self.beta_f) / self.zeta_beta
        # the +inf sentinel sends u past the last entry to index TABLE_SIZE
        self.cum = np.append(np.cumsum(pmf), np.inf)
        edges = np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE
        self.guide = np.searchsorted(self.cum, edges).astype(np.int32)
        self.wide = np.diff(self.guide) > 1

    @classmethod
    def cached(cls, beta) -> "ZetaJumpSampler":
        key = str(Fraction(beta))
        s = _SAMPLER_CACHE.get(key)
        if s is None:
            s = cls(beta)
            _SAMPLER_CACHE[key] = s
        return s

    def _sample_tail(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Magnitudes > TABLE_SIZE, exact accept/reject on the integer law.

        Each round computes the proposals j, the envelope and the
        acceptance ratio in the three rows of one reused work array, with
        the same float operations, in the same order, as the plain
        expressions in the comments.
        """
        b = self.beta_f
        out = np.empty(size)
        need = np.arange(size)
        work = np.empty((3, size))
        while need.size:
            j, env, ratio = work[:, :need.size]
            # j = floor(TABLE_SIZE * (1 - u) ** (-1 / (b - 1))) + 1, proposal
            # pmf prop. to int_{j-1}^{j} x^-b
            rng.random(out=j)
            np.subtract(1.0, j, out=j)
            j **= -1.0 / (b - 1.0)  # dispatches as ** does, not as np.power
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
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio /= env  # j ** -b / env
            np.nan_to_num(ratio, copy=False, nan=0.0)
            accept = rng.random(out=env) < ratio
            out[need[accept]] = j[accept]
            need = need[~accept]
        return out

    def _table_index(self, u: np.ndarray) -> np.ndarray:
        """``searchsorted(self.cum, u)`` for u in [0, 1), by guide table.

        u lies in [b, b + 1) / _GUIDE_SIZE, so its index lies in
        [guide[b], guide[b + 1]]: one comparison decides it unless the
        bucket is wide.
        """
        b = (u * _GUIDE_SIZE).astype(np.intp)
        g = self.guide[b]
        idx = g + (self.cum[g] < u)
        wide = np.flatnonzero(self.wide[b])
        if wide.size:
            idx[wide] = np.searchsorted(self.cum, u[wide])
        return idx

    def _lookup(self, u: np.ndarray) -> None:
        """Overwrite the uniforms ``u`` (at most _CHUNK of them) in place
        with their table magnitudes; TABLE_SIZE + 1 marks a tail draw."""
        np.add(self._table_index(u), 1, out=u)

    @staticmethod
    def _apply_signs(rng: np.random.Generator, x: np.ndarray) -> None:
        """Multiply ``x`` in place by one fair sign per entry, drawn with one
        ``rng.integers(0, 2)`` call per _CHUNK.  PCG64 keeps its spare
        32-bit half in the bit generator, so chunked calls, here or across
        calls, draw the same stream as one call over all entries."""
        for lo in range(0, x.size, _CHUNK):
            chunk = x[lo:lo + _CHUNK]
            sign = rng.integers(0, 2, size=chunk.size)
            sign *= 2
            sign -= 1
            chunk *= sign

    def sample_abs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vector of jump magnitudes (float64 holding exact integers).

        Draws all ``size`` uniforms, overwrites each _CHUNK of them in
        place with its table magnitudes, then draws the tail magnitudes
        (table index TABLE_SIZE) in index order in one ``_sample_tail``
        call: the stream of one lookup over all draws, in O(_CHUNK) memory
        besides the result and the tail draws.
        """
        out = rng.random(size)
        tails = [np.empty(0, np.intp)]
        for lo in range(0, size, _CHUNK):
            chunk = out[lo:lo + _CHUNK]
            self._lookup(chunk)
            tails.append(np.flatnonzero(chunk > TABLE_SIZE) + lo)
        tail = np.concatenate(tails)
        if tail.size:
            out[tail] = self._sample_tail(rng, tail.size)
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
        tail_mags = self._sample_tail(rng, n_tail)
        t = 0
        for lo in range(0, size, block):
            out = replay.random(min(block, size - lo))
            for c in range(0, out.size, _CHUNK):
                self._lookup(out[c:c + _CHUNK])
            tail = np.flatnonzero(out > TABLE_SIZE)
            out[tail] = tail_mags[t:t + tail.size]
            t += tail.size
            self._apply_signs(rng, out)
            yield out


@dataclass(frozen=True)
class WalkParams:
    """Configuration of one simulated walk."""

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
            a = Fraction(self.alpha)
            object.__setattr__(self, "alpha", a)
            if not (Fraction(1, 2) < a <= 1):
                raise ValueError("alpha must lie in (1/2, 1]")
            object.__setattr__(self, "beta", 2 * a)
        else:
            if self.beta is None:
                raise ValueError(f"{self.kind} walk needs beta")
            b = Fraction(self.beta)
            object.__setattr__(self, "beta", b)
            if not (1 < b <= 2):
                raise ValueError("beta must lie in (1, 2]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class WalkPath:
    """Path ``path_id`` of a walk: states[0] = 0 and len(states) = steps + 1.

    States are float64 holding exact integers; heavy-tailed jumps can
    exceed int64.  A path holds this one array: the running sums of the
    signed jumps are written into ``states`` and folded there in place,
    and the jumps are dropped when ``simulate_path`` returns.
    """

    states: np.ndarray
    path_id: int = 0


def simulate_path(params: WalkParams, path_id: int = 0) -> WalkPath:
    """Simulate one path, reproducible from (params.seed, path_id)."""
    rng = path_rng(params.seed, path_id)
    jumps = ZetaJumpSampler.cached(params.beta).sample_signed(rng, params.steps)
    states = np.zeros(params.steps + 1)
    np.cumsum(jumps, out=states[1:])
    if params.kind != "cauchy_Z":
        np.abs(states, out=states)
    return WalkPath(states, path_id)


def path_batch(params: WalkParams, n_paths: int, row) -> list:
    """``[row(simulate_path(params, i)) for i in range(n_paths)]``, the one
    way to simulate a batch.  Path 0 runs in the calling thread; if paths
    have ``_POOL_MIN_STEPS`` steps or more, the rest go in blocks of
    ``_PATHS_PER_TASK`` to one thread per usable CPU, each taking the next
    block when it finishes one.  Per-path generators and rows in path
    order make the rows independent of the CPU count.  Worker threads must
    run numpy only (mpmath's precision is one global context), so ``row``
    of path 0 fills every cache a row reads (sampler, zeta, envelope, dim
    constants).
    """
    def rows(path_ids: range) -> list:
        return [row(simulate_path(params, i)) for i in path_ids]

    first = rows(range(1))
    rest = range(1, n_paths)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # sched_getaffinity is Linux-only
    n_workers = min(cpus, len(rest))
    if params.steps < _POOL_MIN_STEPS or n_workers < 2:
        return first + rows(rest)
    from concurrent.futures import ThreadPoolExecutor  # lazy: 4 ms, 1 MiB
    parts = [rest[i:i + _PATHS_PER_TASK]
             for i in range(0, len(rest), _PATHS_PER_TASK)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return first + [r for part in pool.map(rows, parts) for r in part]


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
    beta = Fraction(beta)
    if not (1 < beta <= 2):
        raise ValueError(f"beta must lie in (1, 2], got {beta}")
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
    beta = Fraction(beta)
    if not (1 < beta <= 2):
        raise ValueError(f"beta must lie in (1, 2], got {beta}")
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
