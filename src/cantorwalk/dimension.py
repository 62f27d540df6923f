"""Dimension analytics along random paths and finite-state pressure solving.

The per-depth log-length and log-mass of a path prefix come from the same
integer step data as the exact geometry and measure (the length product
uses the step denominators, the mass product the kernel numerators), so
they are evaluated directly in the log domain at any depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import measure
from .geometry import q_value, step_arrays
from .walks import WalkPath

_POWER_TOL = 1e-12  # relative change of lambda that stops power iteration
_POWER_MAX_ITER = 100000


def _log_q(precision: int = 80) -> float:
    with mp.workprec(precision):
        return float(mp.log(q_value(precision)))


@dataclass
class DimSeries:
    """Per-depth log-length, log-mass and their ratio along one prefix.

    ``furstenberg`` holds log r_{n+1} / log r_n with r_n the cylinder
    length; it has one entry fewer than the depth arrays.
    """

    n: np.ndarray
    log_len: np.ndarray
    log_mass: np.ndarray
    ratio: np.ndarray
    furstenberg: np.ndarray


def dim_series(path_or_symbols, alpha, precision: int = 80) -> DimSeries:
    """Dimension series for a dissipative path (or raw symbol sequence).

    Repetition steps use the doubled denominator 2k and renewal steps use
    k, exactly as in the geometry; both product formulas extend verbatim
    to these cases.
    """
    if isinstance(path_or_symbols, WalkPath):
        if path_or_symbols.params.kind != "dissipative":
            raise ValueError("dim_series expects a dissipative path")
        symbols = np.asarray(path_or_symbols.states[1:], dtype=np.float64)
    else:
        symbols = np.asarray(path_or_symbols, dtype=np.float64)
    if symbols.size == 0:
        raise ValueError("empty prefix")
    alpha = Fraction(alpha)
    d, s = step_arrays(np.concatenate(([0.0], symbols[:-1])), symbols)
    if np.any(d <= 0):
        raise ValueError("prefix is not admissible")
    f = measure.numerator_array(d, s, float(2 * alpha))
    log_q = _log_q(precision)
    with mp.workprec(precision):
        log_2zb = float(mp.log(2 * measure.zeta(2 * alpha, precision)))
    nn = np.arange(1, symbols.size + 1, dtype=np.float64)
    log_len = nn * log_q - 2 * np.cumsum(np.log(d))
    log_mass = -nn * log_2zb + np.cumsum(np.log(f))
    ratio = log_mass / log_len
    furst = log_len[1:] / log_len[:-1]
    return DimSeries(n=nn, log_len=log_len, log_mass=log_mass, ratio=ratio,
                     furstenberg=furst)


def furstenberg_ratio_check(series: DimSeries, n0: int) -> float:
    """Max |log r_{n+1}/log r_n - 1| over n >= n0."""
    if series.furstenberg.size <= n0 - 1:
        raise ValueError("series too short for n0")
    return float(np.max(np.abs(series.furstenberg[n0 - 1:] - 1.0)))


@dataclass
class PressureEstimate:
    """Root s* of spectral-radius(T_s) = 1 for the truncated system."""

    state_cutoff: int
    s_star: float
    tolerance: float
    lambda_trace: list[tuple[float, float]]  # (s, lambda(s)) evaluations


def _transfer_matrix(state_cutoff: int, weight, illegal: float) -> np.ndarray:
    """Matrix of weight(d(m, l)) over m, l <= state_cutoff, ``illegal``
    where d = 0; built one row at a time to keep peak memory at one matrix.
    """
    l = np.arange(state_cutoff + 1)
    out = np.empty((state_cutoff + 1, state_cutoff + 1))
    with np.errstate(divide="ignore"):
        for m in range(state_cutoff + 1):
            d, _ = step_arrays(m, l)
            out[m] = np.where(d > 0, weight(d), illegal)
    return out


def _log_weight_matrix(state_cutoff: int) -> np.ndarray:
    """Matrix of log(q/d^2) over legal transitions, -inf where illegal."""
    log_q = _log_q()
    return _transfer_matrix(state_cutoff, lambda d: log_q - 2 * np.log(d),
                            -np.inf)


def _length_matrix(state_cutoff: int) -> np.ndarray:
    """Matrix of q/d^2 over legal transitions, 0 where illegal."""
    q = float(q_value(80))
    return _transfer_matrix(state_cutoff, lambda d: q / (d * d), 0.0)


def _spectral_radius(weights: np.ndarray) -> float:
    """Dominant eigenvalue of a non-negative matrix by power iteration."""
    n = weights.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = weights @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        lam_new = float(v @ w)
        v = w / norm
        if abs(lam_new - lam) <= _POWER_TOL * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise ArithmeticError("power iteration did not converge")


def pressure_dimension(state_cutoff: int,
                       tolerance: float = 1e-6) -> PressureEstimate:
    """Solve spectral-radius(T_s) = 1 by bisection.

    T_s[m, l] = (q / d(m, l)^2)^s over legal transitions with symbols
    <= state_cutoff.  lambda(s) is strictly decreasing in s, and at s = 1
    the hole deficit forces lambda < 1, so s* lower-bounds the dimension
    of the full construction.
    """
    if state_cutoff < 1:
        raise ValueError("state_cutoff must be >= 1")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    lw = _log_weight_matrix(state_cutoff)
    trace: list[tuple[float, float]] = []

    def lam(s: float) -> float:
        val = _spectral_radius(np.exp(s * lw))
        trace.append((s, val))
        return val

    hi = 1.0
    if lam(hi) >= 1.0:
        raise ArithmeticError("lambda(1) >= 1: transfer matrix malformed")
    lo = 0.5
    while lam(lo) < 1.0:
        lo /= 2
        if lo < 1e-6:
            raise ArithmeticError("no bracket: state_cutoff too small")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid in (lo, hi):  # [lo, hi] is down to adjacent floats
            break
        if lam(mid) < 1.0:
            hi = mid
        else:
            lo = mid
    return PressureEstimate(state_cutoff=state_cutoff,
                            s_star=(lo + hi) / 2, tolerance=tolerance,
                            lambda_trace=trace)


@dataclass
class LebesgueDecay:
    """Per-level total length of the truncated construction tree."""

    depth: int
    state_cutoff: int
    level_mass: list[float]        # truncated lower value per level
    overcount_bound: list[float]   # rigorous bound on the truncated-away mass


def lebesgue_mass_decay(depth: int, state_cutoff: int) -> LebesgueDecay:
    """Total interval length per level under symbol truncation.

    v[k] tracks the total length of level-n cylinders with last symbol k;
    one transfer step multiplies by q/d^2 over legal transitions.  Children
    with symbol > state_cutoff are dropped; the dropped mass per step is
    bounded by q*v[k]*tail(state_cutoff - k) with tail(t) <= 1/t (and
    <= zeta(2) for t = 0), and a dropped cylinder's whole subtree carries
    at most the cylinder's own length per level, so the cumulative drop
    bounds the per-level overcount.
    """
    if depth < 1 or state_cutoff < 2:
        raise ValueError("need depth >= 1 and state_cutoff >= 2")
    kmax = state_cutoff
    q = float(q_value(80))
    with mp.workprec(80):
        zeta2 = float(mp.pi ** 2 / 6)
    w = _length_matrix(kmax)
    # tail bound for dropped left-block children of state k
    tail = np.array([zeta2 if kmax - k == 0 else 1.0 / (kmax - k)
                     for k in range(kmax + 1)])
    v = w[0].copy()  # level 1: the root steps like state 0
    dropped = q * 1.0 / kmax  # root children with symbol > cutoff
    levels = [float(v.sum())]
    bounds = [dropped]
    for _ in range(1, depth):
        dropped += float(np.sum(q * v * tail))
        v = v @ w
        levels.append(float(v.sum()))
        bounds.append(dropped)
    return LebesgueDecay(depth=depth, state_cutoff=state_cutoff,
                         level_mass=levels, overcount_bound=bounds)
