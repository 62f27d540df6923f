"""The benchmark's workloads: inputs drawn from a seed, the operations that
run them through cantorwalk's public API and CLI, and the check each
operation's output must pass.

Every operation returns its output as text.  The runner digests that text,
so a later change can show that it left outputs byte-identical.  Only
entry points the project keeps are used: ``cli.main`` with its documented
flags, ``verify.run_all``, ``geometry.phi_apply``, ``coding.random_word``,
``walks.ZetaJumpSampler.cached`` and ``measure.zeta``.
"""
from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp
import numpy as np

from cantorwalk import cli, coding, geometry, measure, verify, walks

class CheckFailed(Exception):
    """An operation's output broke one of its invariants."""


@dataclass
class Op:
    """One call into the program; it may produce several checked outputs
    (``verify.run_all`` yields one per criterion)."""

    name: str
    run: Callable[[], list[tuple[str, str]]]
    check: Callable[[str], None]
    n_outputs: int = 1
    cli: bool = False


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def run_cli(argv: list[str]) -> str:
    """``cantorwalk <argv>`` in-process; its stdout, or CheckFailed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"exit {code}: {err.getvalue()[:300]}")
    return out.getvalue()


def cli_op(name: str, argv: list[str], check: Callable[[str], None]) -> Op:
    return Op(name, lambda: [(name, run_cli(argv))], check, cli=True)


# ---------------------------------------------------------------- set-up

# Sampler exponents and zeta (s, precision) keys each workload uses; the
# set-up phase builds them through the public caches before timing starts.
SAMPLER_BETAS = {
    "verify_full": ["3/2", "999/500", "9/5"],
    "cli_walks": ["6/5", "3/2", "9/5", "51/50"],
    "cli_exact": [],
}
ZETA_KEYS = {
    "verify_full": [(b, p) for b in ("6/5", "3/2", "9/5") for p in (64, 256)],
    "cli_walks": [],
    "cli_exact": [(b, geometry.DEFAULT_PRECISION)
                  for b in ("6/5", "3/2", "9/5")],
}


def setup(workload: str) -> None:
    for beta in SAMPLER_BETAS[workload]:
        walks.ZetaJumpSampler.cached(Fraction(beta))
    for s, precision in ZETA_KEYS[workload]:
        measure.zeta(Fraction(s), precision)


# ---------------------------------------------------------------- sizes

SIZES = {
    "full": {
        "verify_full": {"verify_quick": False},
        "cli_walks": {
            "transience": {"paths": 500, "steps": 10_000,
                           "checkpoints": "10,100,1000"},
            "csv_heavy": {"paths": 20, "steps": 10_000},
            "csv": {"paths": 10, "steps": 10_000},
            "dim": {"paths": 20, "depth": 10_000, "rows": 100},
        },
        "cli_exact": {
            "words": 200, "max_depth": 30,
            "pressure": [2, 5, 10, 50, 100, 200, 500, 1000],
            "lebesgue": [(50, 1000), (200, 2000)],
            "points": 500,
        },
    },
    "smoke": {
        "verify_full": {"verify_quick": True},
        "cli_walks": {
            "transience": {"paths": 5, "steps": 200, "checkpoints": "10,100"},
            "csv_heavy": {"paths": 2, "steps": 200},
            "csv": {"paths": 2, "steps": 200},
            "dim": {"paths": 2, "depth": 200, "rows": 10},
        },
        "cli_exact": {
            "words": 3, "max_depth": 5,
            "pressure": [2, 5, 10],
            "lebesgue": [(5, 20)],
            "points": 5,
        },
    },
}


# ---------------------------------------------------------------- checks

def check_criterion(text: str) -> None:
    res = json.loads(text)
    require(res["passed"] is True, f"criterion FAIL: {res['details']}")


def check_transience(checkpoints: list[int]):
    def check(text: str) -> None:
        d = json.loads(text)
        ret, esc = d["return_fraction"], d["escape_fraction"]
        keys = [str(t) for t in checkpoints]
        require(sorted(ret) == sorted(keys), "checkpoint keys")
        for a, b in zip(keys, keys[1:]):
            require(ret[b] <= ret[a], "return fraction rises with t")
            for thr in esc[a]:
                require(esc[b][thr] >= esc[a][thr], "escape falls with t")
        for t in keys:
            require(0.0 <= ret[t] <= 1.0, "return fraction outside [0, 1]")
            require(abs(ret[t] + esc[t]["1"] - 1.0) < 1e-12,
                    "return + escape(1) != 1")
            thr = sorted(esc[t], key=int)
            require(all(esc[t][x] >= esc[t][y] for x, y in zip(thr, thr[1:])),
                    "escape fraction rises with threshold")
    return check


def csv_parts(text: str, header: str) -> tuple[dict, int]:
    """The ``# key: json`` metadata of a CLI CSV, and the offset of its
    first data row (one row per line); a 40 MB walk is not copied."""
    require(text.endswith("\n"), "output does not end in a newline")
    meta = {}
    pos = 0
    while text.startswith("# ", pos):
        end = text.index("\n", pos)
        key, _, value = text[pos + 2:end].partition(": ")
        meta[key] = json.loads(value)
        pos = end + 1
    require("config" in meta, "no metadata lines")
    require(text.startswith(header + "\n", pos), "bad header")
    return meta, pos + len(header) + 1


def check_walk_csv(paths: int, steps: int, signed: bool):
    rows = re.compile(r"(?:\d+,\d+,-?\d+\n)*" if signed
                      else r"(?:\d+,\d+,\d+\n)*")
    starts = re.compile(r"^(\d+),0,0$", re.M)

    def check(text: str) -> None:
        _, pos = csv_parts(text, "path_id,step,state")
        require(text.count("\n", pos) == paths * (steps + 1), "row count")
        require(rows.fullmatch(text, pos) is not None,
                "a state is not an integer")
        require([int(p) for p in starts.findall(text, pos)]
                == list(range(paths)), "a path does not start at 0")
    return check


def check_dim(paths: int, depth: int, rows_per_path: int):
    stride = max(1, depth // max(rows_per_path, 1))
    per_path = len(range(stride - 1, depth, stride))

    def check(text: str) -> None:
        meta, pos = csv_parts(text, "path_id,n,ratio,furstenberg_ratio")
        rows = text[pos:].splitlines()
        require(len(rows) == paths * per_path, "row count")
        for r in rows:
            ratio = float(r.split(",")[2])
            require(math.isfinite(ratio) and ratio > 0, "ratio not positive")
        q = meta["final_ratio_quantiles"]
        vals = [q[k] for k in sorted(q, key=float)]
        require(all(a <= b for a, b in zip(vals, vals[1:])),
                "quantiles not monotone")
    return check


def check_intervals(word: str):
    def check(text: str) -> None:
        d = json.loads(text)
        require(",".join(map(str, d["word"])) == word, "word echoed wrongly")
        left = mp.mpf(d["decimal_left"])
        length = mp.mpf(d["decimal_length"])
        require(left >= 0 and length > 0, "negative left or empty interval")
        require(left + length <= mp.mpf("0.5"), "interval leaves [0, 1/2)")
        hole = mp.mpf(d["hole"]["decimal_length"])
        require(0 < hole < length, "hole not inside the interval")
        require(d["length"]["depth"] == len(d["word"]), "depth")
    return check


def check_measure(word: str):
    def check(text: str) -> None:
        d = json.loads(text)
        require(",".join(map(str, d["word"])) == word, "word echoed wrongly")
        require(0 < mp.mpf(d["mass_decimal"]) <= 1, "mass outside (0, 1]")
        require(mp.mpf(d["log_mass"]) <= 0, "log mass positive")
        require(d["consistency"]["contains_parent"] is True,
                "child sum bracket misses the parent mass")
    return check


def check_pressure(k: int, ladder: list[int], seen: dict[int, float]):
    def check(text: str) -> None:
        d = json.loads(text)
        s = d["s_star"]
        require(d["K"] == k, "cutoff echoed wrongly")
        require(0.0 < s < 1.0, "s* outside (0, 1)")
        require(len(d["lambda_trace"]) > 0, "empty lambda trace")
        i = ladder.index(k)
        if i and ladder[i - 1] in seen:
            require(s > seen[ladder[i - 1]], "s* does not increase with K")
        seen[k] = s
    return check


def check_lebesgue(depth: int):
    def check(text: str) -> None:
        _, pos = csv_parts(text, "level,mass,overcount_bound")
        rows = [r.split(",") for r in text[pos:].splitlines()]
        require(len(rows) == depth, "row count")
        mass = [float(r[1]) for r in rows]
        bound = [float(r[2]) for r in rows]
        require(all(m > 0 for m in mass), "non-positive level mass")
        require(all(b < a for a, b in zip(mass, mass[1:])),
                "level masses do not strictly decrease")
        require(all(a <= b for a, b in zip(bound, bound[1:])),
                "overcount bound shrinks")
    return check


def check_phi(text: str) -> None:
    if text == "escaped":
        return
    y = mp.mpf(text)
    require(0 <= y < mp.mpf("0.5"), "image outside [0, 1/2)")


# ---------------------------------------------------------------- workloads

def verify_full(rng: np.random.Generator, size: dict) -> list[Op]:
    """``verify.run_all()`` with the suite's own frozen seeds; the benchmark
    seed cannot reach them, by design."""
    quick = size["verify_quick"]

    def run() -> list[tuple[str, str]]:
        return [("verify." + r.name, json.dumps(
            {"name": r.name, "passed": r.passed,
             "details": json.loads(json.dumps(r.details, default=str))},
            sort_keys=True)) for r in verify.run_all(quick=quick)]
    # quick mode runs five criteria
    return [Op("verify.run_all", run, check_criterion,
               n_outputs=5 if quick else len(verify.ALL_CRITERIA))]


def cli_walks(rng: np.random.Generator, size: dict) -> list[Op]:
    def seed() -> str:
        return str(int(rng.integers(0, 2 ** 31 - 1)))

    ops = []
    tr = size["transience"]
    cps = [int(t) for t in tr["checkpoints"].split(",")]
    for alpha in ("3/5", "3/4", "9/10"):
        ops.append(cli_op(
            f"walk.transience[{alpha}]",
            ["walk", "--kind", "dissipative", "--alpha", alpha,
             "--steps", str(tr["steps"]), "--paths", str(tr["paths"]),
             "--seed", seed(), "--checkpoints", tr["checkpoints"]],
            check_transience(cps)))
    # alpha = 51/100 and 3/5 print states past 2^53 (known, kept visible)
    for name, kind, flag, value, sz in (
            ("walk.csv[51/100]", "dissipative", "--alpha", "51/100",
             size["csv_heavy"]),
            ("walk.csv[3/5]", "dissipative", "--alpha", "3/5", size["csv"]),
            ("walk.csv[cauchy_Z 6/5]", "cauchy_Z", "--beta", "6/5",
             size["csv"])):
        ops.append(cli_op(
            name, ["walk", "--kind", kind, flag, value,
                   "--steps", str(sz["steps"]), "--paths", str(sz["paths"]),
                   "--seed", seed()],
            check_walk_csv(sz["paths"], sz["steps"], kind == "cauchy_Z")))
    dim = size["dim"]
    for alpha in ("9/10", "3/5"):
        ops.append(cli_op(
            f"dim[{alpha}]",
            ["dim", "--alpha", alpha, "--depth", str(dim["depth"]),
             "--paths", str(dim["paths"]), "--rows-per-path",
             str(dim["rows"]), "--seed", seed()],
            check_dim(dim["paths"], dim["depth"], dim["rows"])))
    return ops


def cli_exact(rng: np.random.Generator, size: dict) -> list[Op]:
    ops = []
    alphas = ("3/5", "3/4", "9/10")
    for i in range(size["words"]):
        word = str(coding.random_word(
            rng, int(rng.integers(1, size["max_depth"] + 1))))
        alpha = alphas[int(rng.integers(0, len(alphas)))]
        ops.append(cli_op(f"intervals[{i}]", ["intervals", "--word", word],
                          check_intervals(word)))
        ops.append(cli_op(f"measure[{i}]",
                          ["measure", "--word", word, "--alpha", alpha],
                          check_measure(word)))
    ladder, seen = size["pressure"], {}
    for k in ladder:
        ops.append(cli_op(f"pressure[{k}]", ["pressure", "--cutoff", str(k)],
                          check_pressure(k, ladder, seen)))
    for depth, cutoff in size["lebesgue"]:
        ops.append(cli_op(f"lebesgue[{depth},{cutoff}]",
                          ["lebesgue", "--depth", str(depth),
                           "--cutoff", str(cutoff)],
                          check_lebesgue(depth)))
    for i, x in enumerate((rng.random(size["points"]) / 2).tolist()):
        def run(x=x, name=f"phi_apply[{i}]"):
            y = geometry.phi_apply(x)
            return [(name, "escaped" if y is None else mp.nstr(y, 40))]
        ops.append(Op(f"phi_apply[{i}]", run, check_phi))
    return ops


WORKLOADS = {"verify_full": verify_full, "cli_walks": cli_walks,
             "cli_exact": cli_exact}


def build(workload: str, seed: int, scale: str) -> tuple[list[Op], dict]:
    """The operations of one round, and the sizes they were drawn at."""
    size = SIZES[scale][workload]
    ops = WORKLOADS[workload](np.random.default_rng(seed), size)
    return ops, size
