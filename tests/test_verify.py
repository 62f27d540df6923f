"""Structure of the verification suite: criterion metadata, the rule that
one run simulates each frozen path batch exactly once, the batch engine
``walks.path_batch`` on the suite's rows, whose threaded branch must equal
a serial loop at any CPU count, and the memory that the one-shot Monte
Carlo criteria hold."""
import collections
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cantorwalk import verify, walks

PATH_CRITERIA = [verify.criterion_transience, verify.criterion_borel_cantelli,
                 verify.criterion_pointwise_dimension,
                 verify.criterion_furstenberg]


def test_criteria_keep_their_names_and_docstrings():
    names = [fn.__name__ for fn in verify.ALL_CRITERIA]
    assert all(name.startswith("criterion_") for name in names), names
    assert len(set(names)) == len(names)
    assert all(fn.__doc__ for fn in verify.ALL_CRITERIA)


def test_each_path_is_simulated_once_per_run(monkeypatch):
    for name, value in (("TRANSIENCE_PATHS", 3), ("TRANSIENCE_STEPS", 200),
                        ("CHECKPOINTS", (10, 50, 100)), ("ENVELOPE_N0", 10),
                        ("DIMENSION_PATHS", 3), ("DIMENSION_DEPTH", 50),
                        ("DIMENSION_N0", 10)):
        monkeypatch.setattr(verify, name, value)
    calls = collections.Counter()
    simulate = walks.simulate_path

    def counting(params, path_id=0):
        calls[(params.seed, params.alpha, path_id)] += 1
        return simulate(params, path_id)

    monkeypatch.setattr(walks, "simulate_path", counting)
    verify._path_batch.cache_clear()
    for fn in PATH_CRITERIA:
        fn()
    # three batches (alpha 3/4, alpha 999/1000, dimension) of three paths
    assert len(calls) == 9 and set(calls.values()) == {1}

    monkeypatch.setattr(verify, "ALL_CRITERIA", PATH_CRITERIA)
    calls.clear()
    verify.run_all()
    assert len(calls) == 9 and set(calls.values()) == {1}
    verify.run_all()  # a second run simulates its batches again
    assert len(calls) == 9 and set(calls.values()) == {2}


BATCH = (verify.SEED_TRANSIENCE, Fraction(3, 4), 7, 300)


def shrink(monkeypatch):  # criterion constants that fit paths of 300 steps
    for name, value in (("CHECKPOINTS", (10, 50, 100)), ("ENVELOPE_N0", 10),
                        ("DIMENSION_N0", 10)):
        monkeypatch.setattr(verify, name, value)


def pooled(monkeypatch):  # the short test batches take the threaded branch
    monkeypatch.setattr(walks, "_POOL_MIN_STEPS", 0)


def same(a, b):  # bit for bit
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def batch_params(seed, alpha, steps):
    return walks.WalkParams(kind="dissipative", steps=steps, seed=seed,
                            alpha=alpha)


def serial_rows(scalars, seed, alpha, n_paths, steps):
    params = batch_params(seed, alpha, steps)
    return np.array([scalars(walks.simulate_path(params, path_id=i))
                     for i in range(n_paths)])


def engine_rows(scalars, seed, alpha, n_paths, steps):
    params = batch_params(seed, alpha, steps)
    return np.array(walks.path_batch(params, n_paths, scalars))


@pytest.mark.parametrize("scalars", [verify._returns,
                                     verify._returns_and_violations,
                                     verify._dimension_scalars],
                         ids=lambda fn: fn.__name__)
def test_path_batch_rows_match_serial_at_any_cpu_count(monkeypatch,
                                                       scalars):
    shrink(monkeypatch)
    pooled(monkeypatch)
    expected = serial_rows(scalars, *BATCH)
    threads = set()

    def recorded(path):
        threads.add(threading.get_ident())
        return scalars(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",  # Linux-only
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            threads.clear()
            assert same(engine_rows(recorded, *BATCH), expected)
            assert (len(threads) > 1) == (cpus > 1)  # one CPU: no pool
            rows = verify._path_batch.__wrapped__(scalars, *BATCH)
            assert same(rows, expected) and not rows.flags.writeable
    finally:
        sys.setswitchinterval(interval)


def test_path_batch_of_one_path(monkeypatch):
    shrink(monkeypatch)
    pooled(monkeypatch)
    rows = engine_rows(verify._returns, *BATCH[:2], 1, 300)
    assert same(rows, serial_rows(verify._returns, *BATCH[:2], 1, 300))


def test_worker_exception_propagates(monkeypatch):
    pooled(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)

    def failing(path):
        # every path but path 0, which runs in the calling thread
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("scalars failed")
        return path.states[-1]

    with pytest.raises(RuntimeError, match="scalars failed"):
        engine_rows(failing, *BATCH)


def test_dimension_batch_keeps_mpmath_precision(monkeypatch):
    shrink(monkeypatch)
    pooled(monkeypatch)
    monkeypatch.setattr(verify, "DIMENSION_PATHS", 5)
    monkeypatch.setattr(verify, "DIMENSION_DEPTH", 300)
    verify._path_batch.cache_clear()
    prec = mp.mp.prec
    assert verify._dimension_batch().shape == (5, 3)
    assert mp.mp.prec == prec
    verify._path_batch.cache_clear()


def test_path_batch_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity exists only on Linux; elsewhere os.cpu_count
    shrink(monkeypatch)
    pooled(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    expected = serial_rows(verify._returns, *BATCH)
    for cpu_count in (os.cpu_count, lambda: None):  # None: count unknown
        monkeypatch.setattr(os, "cpu_count", cpu_count)
        rows = engine_rows(verify._returns, *BATCH)
        assert same(rows, expected)


def traced_peak(fn, **kwargs):
    tracemalloc.start()
    try:
        res = fn(**kwargs)
        return res, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_path_law_draws_in_o_block_memory():
    # the 3 * n_paths jumps are drawn and counted in blocks: ten times the
    # paths, the same peak (it was 28 MiB at 10^6 paths when held whole)
    verify.criterion_path_law(n_paths=100)  # sampler table and zeta caches
    small = traced_peak(verify.criterion_path_law, n_paths=10 ** 5)[1]
    res, peak = traced_peak(verify.criterion_path_law)
    assert res.details == {"cells": 90, "worst_z": 2.2505156104240145}
    assert abs(peak - small) < 2 ** 20


def test_kernel_empirical_draws_in_o_block_memory():
    verify.criterion_kernel_empirical(n_samples=100)
    small = traced_peak(verify.criterion_kernel_empirical,
                        n_samples=10 ** 5)[1]
    res, peak = traced_peak(verify.criterion_kernel_empirical)
    assert res.passed
    assert abs(peak - small) < 2 ** 20


def test_kernel_empirical_details_are_pinned():
    # |m + L| is formed in place from the signed draws
    res = verify.criterion_kernel_empirical(n_samples=10 ** 5)
    assert res.details == {"worst_z": 2.273002737770528, "per_state": {
        0: 1.5603192990602126, 1: 1.839439314259383, 2: 1.5927939577044883,
        5: 2.273002737770528, 20: 1.3427902438624875}}
