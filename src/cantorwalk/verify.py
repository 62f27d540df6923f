"""The full claims-verification suite.

Each criterion function runs one check end to end and returns a
CriterionResult; the CLI `verify` subcommand and the acceptance tests both
drive these.  All Monte Carlo checks use the frozen seeds below, so every
number here is reproducible bit for bit.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import dimension, geometry, measure, walks
from .coding import AdmissibleWord, children, random_word, step_arrays
from .measure import MeasureParams

SEED_PARTITION = 1001
SEED_CONSISTENCY = 1002
SEED_KERNEL = 1003
SEED_PATHLAW = 4004
SEED_TRANSIENCE = 1005
SEED_DIMENSION = 1008

# Sizes of the frozen path batches; the alpha = 3/4 transience batch also
# feeds Borel-Cantelli, the dimension batch both dimension criteria.
TRANSIENCE_PATHS = 1000
TRANSIENCE_STEPS = 10 ** 5
CHECKPOINTS = (100, 1000, 10000)
ENVELOPE_GAMMA = 3.0
ENVELOPE_N0 = 100
DIMENSION_ALPHA = Fraction(9, 10)
DIMENSION_PATHS = 100
DIMENSION_DEPTH = 10 ** 4
DIMENSION_N0 = 1000  # both dimension criteria look at n >= DIMENSION_N0
# jumps per block in the one-step kernel and path-law checks, which draw
# and count block by block; a multiple of the path-law depth 3
_BLOCK = 3 * 2 ** 13


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> CriterionResult:
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        res.seconds = time.perf_counter() - t0
        return res
    return wrapper


@_timed
def criterion_partition(n_words: int = 1000, truncation: int = 10 ** 5
                        ) -> CriterionResult:
    """Left-block child lengths bracket exactly half the parent."""
    rng = np.random.default_rng(SEED_PARTITION)
    worst_width = 0.0
    ok = True
    for _ in range(n_words):
        w = random_word(rng, int(rng.integers(1, 31)))
        lo, hi, half = geometry.left_block_partition_bracket(
            w, truncation, precision=80)
        width = float((hi - lo) / (2 * half))
        worst_width = max(worst_width, width)
        ok = ok and lo <= half <= hi and width < 1e-4
    return CriterionResult("partition identity", ok,
                           {"words": n_words, "worst_rel_width": worst_width})


@_timed
def criterion_consistency(n_words: int = 100, truncation: int = 10 ** 4
                          ) -> CriterionResult:
    """Parent mass lies in the child-sum bracket for three alphas."""
    rng = np.random.default_rng(SEED_CONSISTENCY)
    alphas = [Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)]
    words = [random_word(rng, int(rng.integers(1, 16)))
             for _ in range(n_words)]
    failures = []
    for a in alphas:
        params = MeasureParams(alpha=a, precision=64)
        for w in words:
            res = measure.consistency_defect(w, params, truncation)
            if not res.contains_parent:
                failures.append((str(a), str(w)))
    return CriterionResult("measure consistency", not failures,
                           {"alphas": [str(a) for a in alphas],
                            "words": n_words, "failures": failures[:5]})


@_timed
def criterion_folded_kernel(m_max: int = 100) -> CriterionResult:
    """Folded-walk kernel equals the dissipative kernel to rounding."""
    defects = {}
    ok = True
    for b in (Fraction(6, 5), Fraction(3, 2), Fraction(9, 5)):
        d = walks.folded_kernel_identity(b, m_max, 256)
        defects[str(b)] = d
        if not d < 1e-50:
            ok = False
    return CriterionResult("folded kernel identity", ok, {"defects": defects})


def _empirical_kernel_cells(m: int, alpha: Fraction, n_samples: int,
                            rng: np.random.Generator):
    """One-step empirical frequencies from state m vs the analytic kernel."""
    sampler = walks.ZetaJumpSampler.cached(2 * alpha)
    params = MeasureParams(alpha=alpha, precision=64)
    cells = sorted({0, 1, 2, 3, 4, 5} | {max(m - 1, 0), m, m + 1})
    # counts of min(|m + L|, cap): bin l < cap counts |m + L| == l exactly
    cap = cells[-1] + 1
    hist = np.zeros(cap + 1, dtype=np.int64)
    for nxt in sampler.signed_blocks(rng, n_samples, _BLOCK):
        nxt += m
        np.abs(nxt, out=nxt)
        np.minimum(nxt, cap, out=nxt)
        hist += np.bincount(nxt.astype(np.intp), minlength=cap + 1)
    out = []
    for l in cells:
        if m == 0 and l == 0:
            continue
        p = float(measure.transition_prob(m, l, params))
        obs = int(hist[l])
        sigma = np.sqrt(n_samples * p * (1 - p))
        out.append((l, p, obs, abs(obs - n_samples * p) / sigma))
    return out


@_timed
def criterion_kernel_empirical(n_samples: int = 10 ** 6) -> CriterionResult:
    """Empirical one-step frequencies match the kernel within 3 sigma."""
    rng = np.random.default_rng(SEED_KERNEL)
    alpha = Fraction(3, 4)
    worst = 0.0
    ok = True
    per_state = {}
    for m in (0, 1, 2, 5, 20):
        cells = _empirical_kernel_cells(m, alpha, n_samples, rng)
        zmax = max(z for _, _, _, z in cells)
        per_state[m] = zmax
        worst = max(worst, zmax)
        if zmax >= 3.0:
            ok = False
    return CriterionResult("kernel/empirical agreement", ok,
                           {"worst_z": worst, "per_state": per_state})


@_timed
def criterion_path_law(n_paths: int = 10 ** 6) -> CriterionResult:
    """Depth-3 prefix frequencies match cylinder masses within 3 sigma."""
    depth, mass_floor = 3, 1e-3
    alpha = Fraction(3, 4)
    params = MeasureParams(alpha=alpha, precision=64)
    rng = np.random.default_rng(SEED_PATHLAW)
    sampler = walks.ZetaJumpSampler.cached(2 * alpha)
    # every word in [0, cap)^depth; small symbols are enough at mass >= 1e-3.
    # f[p, n] is the kernel numerator of the step p -> n, and row 0 that of
    # the first step, from the virtual state 0
    cap = 30
    shape = (cap,) * depth
    d, s = step_arrays(*np.ogrid[:cap, :cap])
    f = measure.numerator_array(d, s, float(params.beta))
    zeta_b = float(measure.zeta(params.beta, 64))
    # float64 masses pick the candidates (0 where a step is illegal); the
    # exact mass decides, so float rounding cannot move a cell across the floor
    approx = (f[0][:, None, None] * f[:, :, None] * f[None, :, :]
              / (2 * zeta_b) ** depth)
    # the paths are drawn and counted in blocks of whole rows; mask on the
    # float states: one past 2^63 would cast to a negative int64
    counts = np.zeros(cap ** depth, dtype=np.int64)
    for jumps in sampler.signed_blocks(rng, n_paths * depth, _BLOCK):
        states = jumps.reshape(-1, depth)
        np.cumsum(states, axis=1, out=states)  # the jumps become the states
        np.abs(states, out=states)
        inside = states[np.all(states < cap, axis=1)].astype(np.int64)
        counts += np.bincount(np.ravel_multi_index(inside.T, shape),
                              minlength=counts.size)
    counts = counts.reshape(shape)
    cells = 0
    worst = 0.0
    for word in zip(*np.nonzero(approx >= mass_floor / 2)):
        wrd = AdmissibleWord(word)
        mass = float(measure.cylinder_mass(wrd, params).value(64))
        if mass < mass_floor:
            continue
        cells += 1
        sigma = np.sqrt(n_paths * mass * (1 - mass))
        worst = max(worst, abs(int(counts[word]) - n_paths * mass) / sigma)
    return CriterionResult("path law = cylinder mass", bool(worst < 3.0),
                           {"cells": cells, "worst_z": worst})


@functools.cache
def _path_batch(scalars, seed: int, alpha: Fraction, n_paths: int,
                steps: int) -> np.ndarray:
    """Row i is ``scalars(path i)`` of a frozen dissipative batch, from
    ``walks.path_batch``.  run_all clears this cache, so one run simulates
    each batch once, in the first criterion that reads it."""
    params = walks.WalkParams(kind="dissipative", steps=steps, seed=seed,
                              alpha=alpha)
    out = np.array(walks.path_batch(params, n_paths, scalars))
    out.flags.writeable = False  # every reader of the batch shares it
    return out


def _returns(path: walks.WalkPath) -> np.ndarray:
    """The row from which ``walks.return_fractions`` reads the returns."""
    return walks.transience_row(path, CHECKPOINTS)


def _returns_and_violations(path: walks.WalkPath) -> np.ndarray:
    return np.append(_returns(path), walks.gamma_envelope_violations(
        path, ENVELOPE_GAMMA, ENVELOPE_N0))


def _transience_batch(alpha: Fraction, scalars) -> np.ndarray:
    return _path_batch(scalars, SEED_TRANSIENCE, alpha, TRANSIENCE_PATHS,
                       TRANSIENCE_STEPS)


@_timed
def criterion_transience() -> CriterionResult:
    """Return fractions decay for alpha = 3/4 and dominate at alpha ~ 1."""
    main = _transience_batch(Fraction(3, 4), _returns_and_violations)
    boundary = _transience_batch(Fraction(999, 1000), _returns)
    f = walks.return_fractions(main, len(CHECKPOINTS))
    g = walks.return_fractions(boundary, len(CHECKPOINTS))
    ok = all(f[i + 1] <= f[i] for i in range(len(f) - 1))
    ok = ok and f[-1] < 0.2
    ok = ok and all(gb > fa for gb, fa in zip(g, f))
    return CriterionResult("transience trend", ok,
                           {"return_fraction": dict(zip(CHECKPOINTS, f)),
                            "boundary_fraction": dict(zip(CHECKPOINTS, g))})


@_timed
def criterion_borel_cantelli() -> CriterionResult:
    """Envelope-violation counts fall in the band predicted by the tails."""
    beta = Fraction(3, 2)
    # bracket monotonicity via the rigorous scalar evaluator
    tails = [walks.increment_tail_prob(beta, 3, n) for n in range(2, 30)]
    ends = np.array([[float(lo), float(hi)] for (lo, hi), _ in tails])
    mono = bool(np.all(np.diff(ends, axis=0) <= 0))
    mono = mono and all(summable for _, summable in tails)  # 3 > 1/(beta-1)
    _, not_summable = walks.increment_tail_prob(beta, 2, 10)
    mono = mono and not not_summable  # gamma*(beta-1) = 1 boundary diverges

    # integral brackets of P(|jump| >= n^gamma) for n0 <= n < steps
    z_lo, z_hi = (float(v) for v in measure.zeta_bracket(beta, 64))
    b = float(beta)
    thresholds = np.ceil(np.arange(ENVELOPE_N0, TRANSIENCE_STEPS,
                                   dtype=np.float64) ** ENVELOPE_GAMMA)
    p_lo = thresholds ** (1.0 - b) / (b - 1.0) / z_hi
    p_hi = np.minimum((thresholds - 1.0) ** (1.0 - b) / (b - 1.0) / z_lo, 1.0)
    mean_lo = TRANSIENCE_PATHS * float(p_lo.sum())
    mean_hi = TRANSIENCE_PATHS * float(p_hi.sum())
    sigma = float(np.sqrt(TRANSIENCE_PATHS * p_hi.sum()))

    main = _transience_batch(Fraction(3, 4), _returns_and_violations)
    total = int(main[:, -1].sum())
    ok = mono and (mean_lo - 3 * sigma <= total <= mean_hi + 3 * sigma)
    return CriterionResult("Borel-Cantelli tails", ok,
                           {"observed": total, "band":
                            [mean_lo - 3 * sigma, mean_hi + 3 * sigma],
                            "bracket_monotone": mono})


def _dimension_scalars(path: walks.WalkPath) -> tuple[float, float, float]:
    """Terminal ratio, tail infimum and Furstenberg deviation of a path."""
    s = dimension.dim_series(path.states[1:], DIMENSION_ALPHA)
    return (s.ratio[-1], s.ratio[DIMENSION_N0 - 1:].min(),
            dimension.furstenberg_ratio_check(s, DIMENSION_N0))


def _dimension_batch() -> np.ndarray:
    return _path_batch(_dimension_scalars, SEED_DIMENSION, DIMENSION_ALPHA,
                       DIMENSION_PATHS, DIMENSION_DEPTH)


@_timed
def criterion_pointwise_dimension() -> CriterionResult:
    """5 % quantiles of the terminal ratio and of its infimum over
    n >= 1000 both exceed 0.75."""
    final, tail_inf, _ = _dimension_batch().T
    q05 = float(np.quantile(final, 0.05))
    q05_inf = float(np.quantile(tail_inf, 0.05))
    return CriterionResult("pointwise dimension", min(q05, q05_inf) > 0.75,
                           {"q05_final_ratio": q05,
                            "q05_tail_infimum": q05_inf})


@_timed
def criterion_furstenberg() -> CriterionResult:
    """log r_{n+1}/log r_n stays within 0.05 of 1 beyond n = 1000."""
    worst = float(_dimension_batch()[:, 2].max())
    return CriterionResult("Furstenberg ratio", worst < 0.05,
                           {"worst_deviation": worst})


@_timed
def criterion_pressure() -> CriterionResult:
    """s*(K) increases toward 1 and stays below it."""
    cutoffs = [2, 5, 10, 50, 100, 500]
    stars = [dimension.pressure_dimension(k).s_star for k in cutoffs]
    ok = all(b > a for a, b in zip(stars, stars[1:]))
    ok = ok and all(s < 1 for s in stars)
    ok = ok and stars[-1] > stars[0] + 0.1
    return CriterionResult("pressure monotonicity", ok,
                           {"cutoffs": cutoffs, "s_star": stars})


def _brute_force_level_masses(depth: int, cutoff: int) -> list[float]:
    """Direct enumeration oracle for small depth and cutoff."""
    q = float(geometry.q_value(80))
    level = [AdmissibleWord()]
    out = []
    for _ in range(depth):
        nxt = []
        for w in level:
            nxt.extend(children(w, cutoff))
        total = 0.0
        for w in nxt:
            r, n = geometry.cylinder_length(w)
            total += r.numerator / r.denominator * q ** n
        out.append(total)
        level = nxt
    return out


@_timed
def criterion_lebesgue() -> CriterionResult:
    """Transfer recursion matches enumeration; level masses decay."""
    ok = True
    worst_rel = 0.0
    for cutoff in (5, 12, 20):
        brute = _brute_force_level_masses(3, cutoff)
        fast = dimension.lebesgue_mass_decay(3, cutoff).level_mass
        for a, b in zip(brute, fast):
            rel = abs(a - b) / a
            worst_rel = max(worst_rel, rel)
            if rel >= 1e-12:
                ok = False
    deep = dimension.lebesgue_mass_decay(50, 1000).level_mass
    decreasing = all(b < a for a, b in zip(deep, deep[1:]))
    ok = ok and decreasing
    return CriterionResult("Lebesgue level-mass decay", ok,
                           {"worst_enumeration_rel": worst_rel,
                            "strictly_decreasing": decreasing,
                            "first_levels": deep[:5]})


ALL_CRITERIA = [
    criterion_partition,
    criterion_consistency,
    criterion_folded_kernel,
    criterion_kernel_empirical,
    criterion_path_law,
    criterion_transience,
    criterion_borel_cantelli,
    criterion_pointwise_dimension,
    criterion_furstenberg,
    criterion_pressure,
    criterion_lebesgue,
]


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run the verification suite; quick mode shrinks the Monte Carlo sizes.

    Every call simulates its path batches afresh, each batch once, through
    ``walks.path_batch``; the results are the same at any CPU count.
    """
    _path_batch.cache_clear()
    if not quick:
        return [fn() for fn in ALL_CRITERIA]
    return [
        criterion_partition(n_words=50, truncation=10 ** 4),
        criterion_consistency(n_words=10, truncation=2000),
        criterion_folded_kernel(m_max=30),
        criterion_kernel_empirical(n_samples=10 ** 5),
        criterion_pressure(),
    ]
