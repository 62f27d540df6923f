"""Structure of the verification suite: criterion metadata and the rule
that one run simulates each frozen path batch exactly once."""
import collections

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
