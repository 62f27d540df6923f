"""Full claims-verification suite, one test per criterion.

Each test runs the corresponding criterion at its production size with its
frozen seed, prints the one-line verdict, and asserts the pass flag.  The
whole module is the acceptance gate; expect it to take about a minute.
"""
import pytest

from cantorwalk import verify


def _check(result, details=None):
    print(result.line())
    # a numpy bool would not serialise to JSON
    assert result.passed is True, result.details
    if details is not None:
        # frozen seed: these figures must not move, to the bit
        assert result.details == details


def test_partition_identity():
    _check(verify.criterion_partition())


def test_measure_consistency():
    _check(verify.criterion_consistency())


def test_folded_kernel_identity():
    _check(verify.criterion_folded_kernel(), {"defects": {
        "6/5": 1.0795210693868056e-78, "3/2": 2.1590421387736112e-78,
        "9/5": 4.3180842775472223e-78}})


def test_kernel_empirical_agreement():
    _check(verify.criterion_kernel_empirical())


def test_path_law_matches_cylinder_mass():
    _check(verify.criterion_path_law())


@pytest.mark.parametrize("n_paths, details", [
    (10 ** 4, {"cells": 90, "worst_z": 2.5336980115279935}),
    (10 ** 5, {"cells": 90, "worst_z": 2.8407664827987085}),
])
def test_path_law_details_are_pinned(n_paths, details):
    _check(verify.criterion_path_law(n_paths=n_paths), details)


def test_transience_trend():
    _check(verify.criterion_transience(), {
        "return_fraction": {100: 0.007, 1000: 0.001, 10000: 0.0},
        "boundary_fraction": {100: 0.496, 1000: 0.35, 10000: 0.184}})


def test_borel_cantelli_tails():
    _check(verify.criterion_borel_cantelli(), {
        "observed": 138, "band": [112.08134367220964, 185.23685942063756],
        "bracket_monotone": True})


def test_pointwise_dimension():
    _check(verify.criterion_pointwise_dimension(), {
        "q05_final_ratio": 0.9896843454302058,
        "q05_tail_infimum": 0.9849453830529312})


def test_furstenberg_ratio():
    _check(verify.criterion_furstenberg(),
           {"worst_deviation": 0.00902857173830185})


def test_pressure_monotonicity():
    _check(verify.criterion_pressure(), {
        "cutoffs": [2, 5, 10, 50, 100, 500],
        "s_star": [0.5544295310974121, 0.7978949546813965, 0.8963770866394043,
                   0.9799304008483887, 0.9901461601257324,
                   0.9980788230895996]})


def test_lebesgue_level_mass_decay():
    _check(verify.criterion_lebesgue())
