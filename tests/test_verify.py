"""Structure of the verification suite: criterion metadata, the rule that
one run simulates each frozen path batch exactly once, the batch engine
``walks.path_batch`` on the suite's rows, whose threaded branch must equal
a serial loop at any CPU count and make every row in the calling thread,
the memory that the one-shot Monte Carlo criteria hold, and a planted
geometry defect that the partition criterion must catch."""
import collections
import os
import sys
import threading
import time
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
    simulate = walks._simulate_block

    def counting(params, path_ids):
        calls.update((params.seed, params.alpha, i) for i in path_ids)
        return simulate(params, path_ids)

    monkeypatch.setattr(walks, "_simulate_block", counting)
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


def pooled(monkeypatch):
    # the short test batches take the threaded branch: blocks of two
    # 300-step paths, and a first block slow enough that no row of it
    # outweighs its simulation
    monkeypatch.setattr(walks, "_BLOCK_STEPS", 600)
    monkeypatch.setattr(walks, "_simulate_block",
                        slow_first_block(walks._simulate_block))


def slow_first_block(simulate):
    def slowed(params, path_ids):
        if path_ids[0] == 0:
            time.sleep(0.05)
        return simulate(params, path_ids)
    return slowed


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
    row_threads, block_threads = set(), set()
    simulate = walks._simulate_block

    def recorded(path):
        row_threads.add(threading.get_ident())
        return scalars(path)

    def recorded_block(params, path_ids):
        block_threads.add(threading.get_ident())
        return simulate(params, path_ids)

    monkeypatch.setattr(walks, "_simulate_block", recorded_block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",  # Linux-only
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            row_threads.clear()
            block_threads.clear()
            assert same(engine_rows(recorded, *BATCH), expected)
            # one CPU: no pool; the rows always run in the calling thread
            assert (block_threads != {threading.get_ident()}) == (cpus > 1)
            assert row_threads == {threading.get_ident()}
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
    simulate = walks._simulate_block

    def failing(params, path_ids):
        # every block a worker thread simulates
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("block failed")
        return simulate(params, path_ids)

    monkeypatch.setattr(walks, "_simulate_block", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        engine_rows(lambda path: path.states[-1], *BATCH)


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
    assert res.details == {"cells": 90, "worst_z": 2.456714014224065}
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
    assert res.details == {"worst_z": 2.293933018285597, "per_state": {
        0: 1.3695680534887904, 1: 1.3118282893870774, 2: 0.8808106981432735,
        5: 2.293933018285597, 20: 1.4976532930327502}}


def test_partition_catches_tripled_length_denominators(monkeypatch):
    # every child length q*|parent|/d^2 shrunk ninefold leaves the
    # half-filling ratio intact, since |I_word| cancels from it; the
    # children no longer abut
    step_arrays = verify.geometry.step_arrays

    def tripled(prev, nxt):
        d, s = step_arrays(prev, nxt)
        return 3 * d, s

    assert verify.criterion_partition(n_words=50).passed
    monkeypatch.setattr(verify.geometry, "step_arrays", tripled)
    res = verify.criterion_partition(n_words=50)
    assert not res.passed
    assert res.details["failures"]
