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

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import measure
from .geometry import _to_mpf, step_arrays

TABLE_SIZE = 1 << 16  # inverse-CDF table covers |jump| <= 2^16
_GUIDE_SIZE = 1 << 16  # guide buckets; a power of two, so u * size is exact
_CHUNK = 1 << 16       # draws looked up at once, to bound the temporaries

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
        """Magnitudes > TABLE_SIZE, exact accept/reject on the integer law."""
        b = self.beta_f
        j0 = float(TABLE_SIZE)
        out = np.empty(size)
        need = np.arange(size)
        while need.size:
            u = rng.random(need.size)
            x = j0 * (1.0 - u) ** (-1.0 / (b - 1.0))
            j = np.floor(x) + 1.0  # proposal pmf prop. to int_{j-1}^{j} x^-b
            # (j-1)^(1-b) - j^(1-b), in a cancellation-safe form
            envelope = j ** (1.0 - b) * np.expm1(
                (1.0 - b) * np.log1p(-1.0 / j)) / (b - 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = j ** (-b) / envelope
            accept = rng.random(need.size) < np.nan_to_num(ratio, nan=0.0)
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

    def sample_abs(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vector of jump magnitudes (float64 holding exact integers)."""
        u = rng.random(size)
        out = np.empty(size)
        for lo in range(0, size, _CHUNK):
            out[lo:lo + _CHUNK] = self._table_index(u[lo:lo + _CHUNK]) + 1
        tail = out > TABLE_SIZE
        ntail = int(np.count_nonzero(tail))
        if ntail:
            out[tail] = self._sample_tail(rng, ntail)
        return out

    def sample_signed(self, rng: np.random.Generator, size: int) -> np.ndarray:
        mag = self.sample_abs(rng, size)
        sign = rng.integers(0, 2, size=size) * 2 - 1
        return mag * sign


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
    """One realization: states[0] = 0 and len(states) = steps + 1.

    ``jumps`` is the signed jump stream that drove the path (folded and
    dissipative paths audit their construction through it).  States are
    float64 holding exact integers; heavy-tailed jumps can exceed int64.
    """

    params: WalkParams
    path_id: int
    states: np.ndarray
    jumps: np.ndarray


def _signed_states(params: WalkParams, rng: np.random.Generator):
    sampler = ZetaJumpSampler.cached(params.beta)
    jumps = sampler.sample_signed(rng, params.steps)
    states = np.concatenate(([0.0], np.cumsum(jumps)))
    return states, jumps


def simulate_path(params: WalkParams, path_id: int = 0) -> WalkPath:
    """Simulate one path, reproducible from (params.seed, path_id)."""
    rng = path_rng(params.seed, path_id)
    signed, jumps = _signed_states(params, rng)
    if params.kind == "cauchy_Z":
        states = signed
    else:
        states = np.abs(signed)
    return WalkPath(params=params, path_id=path_id, states=states, jumps=jumps)


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


def suffix_minima(states: np.ndarray, checkpoints) -> np.ndarray:
    """min(states[t:]) for each of the strictly increasing checkpoints t:
    segment minima between checkpoints, combined right to left."""
    seg = np.minimum.reduceat(states, np.asarray(checkpoints, dtype=np.intp))
    return np.minimum.accumulate(seg[::-1])[::-1]


@dataclass
class TransienceReport:
    return_fraction: dict[int, float]       # paths visiting 0 in [t, steps]
    escape_fraction: dict[int, dict[int, float]]  # min over [t,steps] >= thr
    state_quantiles: dict[int, dict[str, float]]
    seeds: dict


def transience_stats(params: WalkParams, n_paths: int,
                     checkpoints: list[int],
                     thresholds: tuple[int, ...] = (1, 10, 100)
                     ) -> TransienceReport:
    """Monte Carlo transience diagnostics for the dissipative walk."""
    if params.kind != "dissipative":
        raise ValueError("transience_stats expects a dissipative walk")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    checkpoints = sorted({int(t) for t in checkpoints})
    if checkpoints and not (0 <= checkpoints[0]
                            and checkpoints[-1] < params.steps):
        raise ValueError("checkpoints must lie in [0, steps)")
    returns = {t: 0 for t in checkpoints}
    escapes = {t: {thr: 0 for thr in thresholds} for t in checkpoints}
    states_at = {t: np.empty(n_paths) for t in checkpoints}
    for i in range(n_paths):
        s = simulate_path(params, path_id=i).states
        for t, m in zip(checkpoints, suffix_minima(s, checkpoints)):
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
