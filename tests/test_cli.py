import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantorwalk import geometry, walks
from cantorwalk.cli import main
from cantorwalk.coding import AdmissibleWord
from cantorwalk.geometry import cylinder_interval, hole
from cantorwalk.measure import MeasureParams, cylinder_mass


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_intervals_json(capsys):
    code, out, _ = run(capsys, "intervals", "--word", "1,1",
                       "--precision", "128")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == [1, 1]
    assert payload["length"] == {"num": 1, "den": 4, "depth": 2}
    assert payload["decimal_left"].startswith("0.28086")
    assert "hole" in payload
    assert payload["meta"]["tool"] == "cantorwalk"


def test_intervals_deterministic(capsys):
    _, out1, _ = run(capsys, "intervals", "--word", "2,5,5,0")
    _, out2, _ = run(capsys, "intervals", "--word", "2,5,5,0")
    assert out1 == out2


def test_measure_subcommand(capsys):
    code, out, _ = run(capsys, "measure", "--word", "1,1",
                       "--alpha", "3/4", "--truncation", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "3/4"
    assert payload["mass_decimal"].startswith("0.0259032261")
    assert payload["consistency"]["contains_parent"] is True


def test_measure_rejects_decimal_alpha(capsys):
    code, _, err = run(capsys, "measure", "--word", "1", "--alpha", "0.75")
    assert code == 2
    assert json.loads(err)["error"] == "CliError"


def test_walk_csv_byte_identical(capsys):
    args = ("walk", "--kind", "dissipative", "--alpha", "3/4",
            "--steps", "50", "--paths", "2", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = [l for l in out1.splitlines() if not l.startswith("#")]
    assert lines[0] == "path_id,step,state"
    assert len(lines) == 1 + 2 * 51  # header plus steps+1 rows per path
    assert lines[1] == "0,0,0"


def test_walk_transience_summary(capsys):
    code, out, _ = run(capsys, "walk", "--kind", "dissipative",
                       "--alpha", "3/4", "--steps", "500", "--paths", "50",
                       "--seed", "4", "--checkpoints", "10,100")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["return_fraction"]) == {"10", "100"}
    assert payload["seeds"]["seed"] == 4


def test_walk_boundary_alpha_needs_flag(capsys):
    code, _, err = run(capsys, "walk", "--kind", "dissipative",
                       "--alpha", "1", "--steps", "10", "--seed", "1")
    assert code == 2
    assert "allow-boundary" in json.loads(err)["message"]


def test_dim_boundary_alpha_needs_flag(capsys):
    argv = ("dim", "--alpha", "1", "--depth", "100", "--seed", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "allow-boundary" in json.loads(err)["message"]
    code, out, _ = run(capsys, *argv, "--allow-boundary",
                       "--rows-per-path", "4")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == "path_id,n,ratio,furstenberg_ratio"
    assert len(data) == 1 + 4


def test_dim_subcommand(capsys):
    code, out, _ = run(capsys, "dim", "--alpha", "3/4", "--depth", "200",
                       "--paths", "2", "--seed", "6", "--rows-per-path", "4")
    assert code == 0
    lines = out.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("final_ratio_quantiles" in l for l in meta)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "path_id,n,ratio,furstenberg_ratio"
    assert len(data) == 1 + 2 * 4


def test_pressure_subcommand(capsys):
    code, out, _ = run(capsys, "pressure", "--cutoff", "1", "--tol", "1e-8")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_star"] == pytest.approx(0.2797110465, abs=1e-6)
    assert payload["K"] == 1
    assert len(payload["lambda_trace"]) > 5


def test_lebesgue_subcommand(capsys):
    code, out, _ = run(capsys, "lebesgue", "--depth", "5", "--cutoff", "20")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == "level,mass,overcount_bound"
    masses = [float(l.split(",")[1]) for l in data[1:]]
    assert len(masses) == 5
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # quick mode runs the deterministic-fast subset
    assert all(l.startswith("[PASS]") for l in lines)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "iv.json"
    code, out, _ = run(capsys, "intervals", "--word", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["word"] == [1]


def test_bad_word_is_a_clean_error(capsys):
    code, _, err = run(capsys, "intervals", "--word", "0,1")
    assert code == 2
    assert "error" in json.loads(err)
    # word text that starts with a minus sign is a word, not an option
    for argv in (("intervals", "--word", "-1,2"),
                 ("intervals", "--word", "1,-1"),
                 ("measure", "--word", "-2,1", "--alpha", "3/4")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith("inadmissible word: (")


WALK = ("walk", "--kind", "dissipative", "--alpha", "3/4", "--steps", "10",
        "--seed", "1")


@pytest.mark.parametrize("argv", [
    ("pressure", "--cutoff", "2", "--tol", "0"),
    ("pressure", "--cutoff", "2", "--tol", "-1"),
    ("pressure", "--cutoff", "2", "--tol", "nan"),
    ("pressure", "--cutoff", "2", "--tol", "inf"),
    WALK + ("--checkpoints", "5", "--paths", "0"),
    WALK + ("--paths", "-1"),
    WALK + ("--paths", "two"),
    # an empty list printed the CSV walk instead of a summary
    WALK + ("--checkpoints", ""),
    ("dim", "--alpha", "3/4", "--depth", "10", "--seed", "1", "--paths", "0"),
    # argparse usage errors: missing option, unknown flag, bad integer
    ("intervals",),
    ("intervals", "--word", "1", "--bogus"),
    ("walk", "--kind", "dissipative", "--alpha", "3/4", "--steps", "ten",
     "--seed", "1"),
    # precisions below float64's 53 bits printed wrong digits with exit 0
    ("intervals", "--word", "2", "--precision", "0"),
    ("measure", "--word", "1,2", "--alpha", "3/4", "--precision", "1"),
    ("intervals", "--word", "2", "--precision", "52"),
    # rows-per-path below 1 printed one row per path with exit 0
    ("dim", "--alpha", "3/4", "--depth", "50", "--seed", "1", "--paths", "2",
     "--rows-per-path", "0"),
    ("dim", "--alpha", "3/4", "--depth", "50", "--seed", "1", "--paths", "2",
     "--rows-per-path", "-3"),
    # argparse read a word starting with a minus sign as an option
    ("intervals", "--word", "-1,2"),
    ("measure", "--word", "-2,1", "--alpha", "3/4"),
    # a raw numpy MemoryError traceback; 10^17 float64 is 711 PiB, beyond any
    # address space, so nothing is allocated
    ("walk", "--kind", "dissipative", "--alpha", "3/4", "--steps",
     "99999999999999999", "--seed", "1"),
    ("dim", "--alpha", "3/4", "--depth", "99999999999999999", "--seed", "1"),
    # flags the walk kind ignores were accepted and written into the config
    ("walk", "--kind", "cauchy_Z", "--beta", "3/2", "--alpha", "3/4",
     "--steps", "5", "--seed", "1"),
    ("walk", "--kind", "folded", "--beta", "3/2", "--alpha", "3/4",
     "--steps", "5", "--seed", "1"),
    ("walk", "--kind", "dissipative", "--alpha", "3/4", "--beta", "3/2",
     "--steps", "5", "--seed", "1"),
    ("walk", "--kind", "cauchy_Z", "--beta", "3/2", "--allow-boundary",
     "--steps", "5", "--seed", "1"),
    ("walk", "--kind", "folded", "--beta", "3/2", "--allow-boundary",
     "--steps", "5", "--seed", "1"),
])
def test_bad_inputs_are_clean_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error", "message"}


def test_pressure_tolerance_below_float_spacing_returns(capsys):
    # bisection stops once [lo, hi] are adjacent floats
    code, out, _ = run(capsys, "pressure", "--cutoff", "1", "--tol", "1e-300")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_star"] == pytest.approx(0.2797110465, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ("walk", "--kind", "dissipative", "--alpha", "1", "--allow-boundary"),
    ("walk", "--kind", "cauchy_Z", "--beta", "2"),
    ("walk", "--kind", "folded", "--beta", "2"),
])
def test_beta_two_boundary_runs(capsys, argv):
    code, out, _ = run(capsys, *argv, "--steps", "20", "--paths", "2",
                       "--seed", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "path_id,step,state"
    rows = [tuple(map(int, l.split(","))) for l in lines[1:]]
    assert [(p, n) for p, n, _ in rows] == [
        (p, n) for p in range(2) for n in range(21)]


def significant_digits(text):
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


@pytest.mark.parametrize("bits", [53, 64, 84])
def test_printed_decimals_carry_only_the_precision(capsys, bits):
    # every printed decimal is the 256-bit value rounded to as many
    # significant digits as were printed
    word = AdmissibleWord.parse("2")
    geom = cylinder_interval(word)
    cm = cylinder_mass(AdmissibleWord.parse("1,2"),
                       MeasureParams(alpha=Fraction(3, 4), precision=256))
    cases = [
        (("intervals", "--word", "2"), {
            ("decimal_left",): geom.left.evaluate(256),
            ("decimal_length",): geom.length_poly.evaluate(256),
            ("hole", "decimal_length"): hole(word).length.evaluate(256)}),
        (("measure", "--word", "1,2", "--alpha", "3/4"), {
            ("mass_decimal",): cm.value(),
            ("log_mass",): cm.log_value()}),
    ]
    for argv, reference in cases:
        code, out, _ = run(capsys, *argv, "--precision", str(bits))
        assert code == 0
        payload = json.loads(out)
        for keys, exact in reference.items():
            printed = payload
            for key in keys:
                printed = printed[key]
            digits = significant_digits(printed)
            assert 15 <= digits <= 25
            assert printed == mp.nstr(exact, digits)


# sha256 of stdout, recorded with the earlier csv.writer emitter
CSV_PINS = [
    (("walk", "--kind", "dissipative", "--alpha", "51/100", "--steps", "200",
      "--paths", "3", "--seed", "11"),  # states of up to 196 digits
     "298827722d5ea081d17bfebcbd8d377f5bfa1fda2cf31b2f8a3ea56a563d8849"),
    (("walk", "--kind", "cauchy_Z", "--beta", "6/5", "--steps", "200",
      "--paths", "2", "--seed", "12"),  # negative states
     "51adff619a63a9b8c53f7f5596c32ab621413974148e1fd0a734600e175d91b5"),
    (("walk", "--kind", "folded", "--beta", "3/2", "--steps", "200",
      "--paths", "2", "--seed", "13"),
     "524b88c3b44dc086e0296dbf4c65b21450735a6789fdcc2adc6bededd62a0625"),
    (("dim", "--alpha", "3/4", "--depth", "200", "--paths", "2", "--seed",
      "6", "--rows-per-path", "4"),  # last row: empty furstenberg_ratio
     "491c0f4cd6c6c8a40fe5caef7de3291e51f9a9e46ca63e83bceb3bb63cf520fa"),
    (("lebesgue", "--depth", "5", "--cutoff", "20"),
     "d1d39cf2eb8d38c39737fe35d69ff5657d54ad30bab310148cc01426a8707d2f"),
]


@pytest.mark.parametrize("argv,digest", CSV_PINS, ids=[
    "walk-dissipative", "walk-cauchy_Z", "walk-folded", "dim", "lebesgue"])
def test_csv_output_bytes_are_pinned(tmp_path, capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# sha256 of stdout of the transience summary, recorded while it still
# looped over the paths itself
SUMMARY = ("walk", "--kind", "dissipative", "--steps", "2000",
           "--paths", "40")
SUMMARY_PINS = [
    (SUMMARY + ("--alpha", "3/5", "--seed", "21",
                "--checkpoints", "10,100,1000"),
     "56fdf3acf23de6c57d230923f4e4cc89e9b05bb5d97eef2fa313eddf140286f2"),
    (SUMMARY + ("--alpha", "3/4", "--seed", "21",
                "--checkpoints", "10,100,1000"),
     "deba3447a69f0c0a1852915818b631d9832bca5eee485fdc4e4872b5e1c9a72b"),
    (SUMMARY + ("--alpha", "9/10", "--seed", "21",
                "--checkpoints", "10,100,1000"),
     "700fbcb30049f2b88402b769507c4b83ac3490b64dfa25cf1f486566ccdd33af"),
    (SUMMARY + ("--alpha", "3/4", "--seed", "22",
                "--checkpoints", "1000,10,1000,0"),  # repeated checkpoint
     "9dcb81b80d3085c7f1e20ff424b10749bc4e794c94a0b8ded92e343fc7abc283"),
]


@pytest.mark.parametrize("argv,digest", SUMMARY_PINS, ids=[
    "3/5", "3/4", "9/10", "repeated-checkpoint"])
def test_transience_summary_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one batch per command that simulates paths, with the sha256 of its
# stdout recorded before the commands shared walks.path_batch
POOLED_PINS = [
    (("walk", "--kind", "dissipative", "--alpha", "3/5", "--steps", "300",
      "--paths", "20", "--seed", "23"),
     "c612dfc0aec18978e716c6df6ed9be30c8f2c7681b14a2f764162b11025f7b42"),
    (("dim", "--alpha", "9/10", "--depth", "300", "--paths", "20",
      "--seed", "24", "--rows-per-path", "7"),
     "c2957efab47f1c7f1392e9d493ebe248e9cb2184bb60eec78480316e8b240380"),
    (("walk", "--kind", "dissipative", "--alpha", "3/4", "--steps", "300",
      "--paths", "20", "--seed", "25", "--checkpoints", "5,50,250"),
     "65508a709ba7e0d48790caf262ac849c0c96a95de358210af23175b3e6227106"),
]


@pytest.mark.parametrize("argv,digest", POOLED_PINS,
                         ids=["walk", "dim", "checkpoints"])
def test_pooled_batches_print_the_serial_bytes(capsys, monkeypatch, argv,
                                               digest):
    code, serial, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(serial.encode()).hexdigest() == digest
    # the short paths take the threaded branch, on two CPUs
    monkeypatch.setattr(walks, "_POOL_MIN_STEPS", 0)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    code, threaded, err = run(capsys, *argv)
    assert code == 0 and err == "" and threaded == serial


# sha256 of stdout, recorded before the exact layers were memoised; the
# word has left-block steps (0->3, 0->5) and right-block steps (3->2, 2->2,
# 2->0, 5->1)
WORD = "3,2,2,0,5,1"
JSON_PINS = [
    (("intervals", "--word", WORD),
     "80d35fe7c2a45a64b33d0c419d51c6de237aa217fbd694702543ef23742aba7b"),
    (("measure", "--word", WORD, "--alpha", "3/5"),
     "3654d51e732b848cab430f2452647d9632804989f80f663f15545cb995df5108"),
    (("measure", "--word", WORD, "--alpha", "3/4"),
     "0edfb1a83ecac22d1e9b9df7046d73b74694901776d6bbb392bc14adbb4b46bb"),
    (("measure", "--word", WORD, "--alpha", "9/10"),
     "25ebb9bcbf95bf2a9f75a57d1010e26ec8274657f0ca567138c7c9e9cddd4e16"),
    # re-recorded with the FFT transfer operator: s_star and s_bracket are
    # unchanged, lambda_trace's lo and hi moved in their last digits
    (("pressure", "--cutoff", "50"),
     "bbee5d5c0a76c850ad4ae5088617426e0169ff6c925875f37357bf8d3243fa00"),
]


@pytest.mark.parametrize("argv,digest", JSON_PINS, ids=[
    "intervals", "measure-3/5", "measure-3/4", "measure-9/10", "pressure"])
def test_json_output_bytes_are_pinned(capsys, argv, digest):
    for _ in range(2):  # the second run reads the memoised values
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_intervals_prints_coefficients_past_the_digit_limit(capsys):
    # H2(5999), a coefficient of I_{1,6000}, has more than 4300 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "intervals", "--word", "1,6000")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    geom = cylinder_interval(AdmissibleWord((1, 6000)))
    assert payload["left_poly"] == geom.left.to_json()
    assert payload["hole"]["left_poly"] == geom.hole().left.to_json()
    assert payload["hole"]["length_poly"] == geom.hole().length.to_json()
    digits = max(c.bit_length() for _, *cs in geom.left.to_json()
                 for c in cs) * math.log10(2)
    assert digits > 4300


def test_intervals_of_one_then_n_sum_each_inverse_square_once(capsys,
                                                             monkeypatch):
    # I_{1,N} reads H2(N - 2) and its hole H2(N): one binary-splitting sum
    # up to N - 2, extended by the two missing terms, where both were summed
    # from the cap (9950 terms for N = 6000)
    monkeypatch.setattr(geometry, "_H2_LAST", [0, Fraction(0)])
    split = geometry._inverse_square_sum
    sums, depth = [], [0]

    def outermost(a, b):
        if not depth[0]:
            sums.append((a, b))
        depth[0] += 1
        try:
            return split(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(geometry, "_inverse_square_sum", outermost)
    code, _, _ = run(capsys, "intervals", "--word", "1,6000")
    cap = geometry._H2_CAP
    assert code == 0
    assert sums == [(cap + 1, 5999), (5999, 6001)]


def test_walk_error_leaves_no_output(tmp_path, capsys, monkeypatch):
    simulate = walks.simulate_path

    def inf_in_path_1(params, path_id=0):
        path = simulate(params, path_id)
        if path_id == 1:
            states = path.states.copy()
            states[-1] = np.inf
            path = dataclasses.replace(path, states=states)
        return path

    monkeypatch.setattr(walks, "simulate_path", inf_in_path_1)
    code, out, err = run(capsys, *WALK, "--paths", "3")
    assert code == 2 and out == ""
    assert set(json.loads(err)) == {"error", "message"}
    target = tmp_path / "walk.csv"
    code, _, _ = run(capsys, *WALK, "--paths", "3", "--out", str(target))
    assert code == 2 and not target.exists()


# ------------------------------------------- properties over the CLI domains

def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _options(required: dict, optional: dict):
    """argv tokens for every required option and a subset of the optional
    ones; a strategy that draws True gives a bare flag."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda opts: [tok for name, value in opts.items()
                      for tok in ([f"--{name}"] if value is True
                                  else [f"--{name}", value])])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


RATIONAL = st.one_of(
    st.builds("{}/{}".format, st.integers(-2, 12), st.integers(-1, 12)),
    st.sampled_from(["1", "2", "0.75", "1e0", "x"]))


def _mostly(valid, anything):
    """Draws from ``valid`` about three times in four, else ``anything``."""
    return st.integers(0, 3).flatmap(lambda k: anything if k == 0 else valid)


ALPHA = _mostly(st.fractions(Fraction(1, 2), 1, max_denominator=100)
                .filter(lambda a: a > Fraction(1, 2)).map(str), RATIONAL)
BETA = _mostly(st.fractions(1, 2, max_denominator=100)
               .filter(lambda b: b > 1).map(str), RATIONAL)
WORD = _mostly(st.lists(st.integers(1, 4), max_size=5),
               st.lists(st.integers(-1, 4), max_size=5)).map(
    lambda w: ",".join(map(str, w)))
FLAG = st.just(True)


def _walk_options(kind):
    # the exponent of the kind is always given, the other one sometimes
    own, other = (("alpha", "beta") if kind == "dissipative"
                  else ("beta", "alpha"))
    exponent = {"alpha": ALPHA, "beta": BETA}
    return _options(
        {"kind": st.just(kind), own: exponent[own], "steps": _ints(-1, 30),
         "seed": _ints(-1, 99)},
        {other: exponent[other], "paths": _ints(-1, 3),
         "checkpoints": st.lists(st.integers(-1, 12), max_size=3).map(
             lambda c: ",".join(map(str, c))),
         "allow-boundary": FLAG})


SUBCOMMANDS = {
    "intervals": _options({"word": WORD}, {"precision": _ints(40, 300)}),
    "measure": _options({"word": WORD, "alpha": ALPHA},
                        {"precision": _ints(50, 120),
                         "truncation": _ints(-2, 40)}),
    "walk": st.sampled_from(["cauchy_Z", "folded", "dissipative"]).flatmap(
        _walk_options),
    "dim": _options({"alpha": ALPHA, "depth": _ints(-1, 60),
                     "seed": _ints(-1, 99)},
                    {"paths": _ints(-1, 3), "rows-per-path": _ints(-1, 10),
                     "allow-boundary": FLAG}),
    "pressure": _options(
        {"cutoff": _ints(-1, 6)},
        {"tol": st.sampled_from(["1e-3", "1e-8", "1e-300", "0", "-1", "nan",
                                 "inf", "x"])}),
    "lebesgue": _options({"depth": _ints(-1, 6), "cutoff": _ints(-1, 12)},
                         {}),
}


def check_run(argv):
    """Exit 0 with parseable stdout and empty stderr, or exit 2 with empty
    stdout and the JSON error on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would reach stderr
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}
        return
    assert code == 0 and err == "" and caught == []
    if argv[0] in ("intervals", "measure", "pressure") or \
            "--checkpoints" in argv:
        json.loads(out, parse_constant=_reject_constant)
        return
    lines = out.splitlines()
    while lines[0].startswith("# "):
        json.loads(lines.pop(0).partition(": ")[2],
                   parse_constant=_reject_constant)
    header, *rows = csv.reader(lines)
    assert all(len(row) == len(header) for row in rows)
    if argv[0] == "walk":
        for row in rows:
            int(row[2])  # raises unless the state is an integer


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(data=st.data())
def test_cli_runs_cleanly_over_its_argument_domains(command, data):
    check_run([command] + data.draw(SUBCOMMANDS[command]))
