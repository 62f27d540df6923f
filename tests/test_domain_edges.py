"""Documented promises checked at points spread over the advertised domain,
alpha in (1/2, 1] and beta in (1, 2], not only at the frozen test points.

Exact states: a path's float64 states are the exact integer running sums of
its jumps.  The points here keep every state below 2^53, where float64
holds the sums exactly; alpha = 3/5 and 51/100, where states pass 2^53 and
round, are not covered yet.
"""
import itertools
from fractions import Fraction

import pytest

from cantorwalk.walks import WalkParams, ZetaJumpSampler, path_batch, path_rng

SEED, STEPS, PATHS = 11, 2000, 5


@pytest.mark.parametrize("kind,exponent", [
    ("dissipative", Fraction(3, 4)),
    ("dissipative", Fraction(999, 1000)),
    ("dissipative", Fraction(1)),
    ("cauchy_Z", Fraction(3, 2)),
    ("cauchy_Z", Fraction(2)),
], ids=lambda x: str(x))
def test_states_are_the_integer_sums_of_the_jumps(kind, exponent):
    key = "alpha" if kind == "dissipative" else "beta"
    params = WalkParams(kind=kind, steps=STEPS, seed=SEED, **{key: exponent})
    rows = path_batch(params, PATHS, lambda path: path.states)
    sampler = ZetaJumpSampler.cached(params.beta)
    for i, states in enumerate(rows):
        jumps = sampler.sample_signed(path_rng(SEED, i), STEPS)
        exact = list(itertools.accumulate(map(int, jumps), initial=0))
        if kind == "dissipative":
            exact = [abs(x) for x in exact]
        assert max(map(abs, exact)) < 2 ** 53
        assert list(map(int, states)) == exact
