"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cli_walks --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off: the median round time of a run that repeats the
workload for ``--seconds``, the median set-up time of several fresh
processes, the run's peak RSS, and the share of operations whose output
passed its check.  ``--trace 1`` runs one round untraced and one round
traced, prints the per-layer metrics of BENCHMARK.json from the traced
round, reports the tracing overhead as the difference of the two, and
requires both rounds to produce the same output digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the provenance.  Everything, with per-operation digests and
timings, also goes to ``.bench_out/`` in the checkout.  Exit status: 0 when
every output passed, 1 when any failed, 2 (and no result) when the run
could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = {"full": 6, "smoke": 1}  # set-up-only processes per run
# One BLAS thread: the client is single-threaded, and on a small shared
# machine two BLAS threads that meet at every matvec wait on each other.
BLAS_THREADS = "1"
DEADLINE_S = 170.0


class RunError(Exception):
    """The benchmark could not be run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS)
    t0 = time.monotonic()
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), *worker_args,
           "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunError(f"worker timed out: {' '.join(worker_args)}") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_block(section: str, values: dict) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json names for ``section``, with their units;
    names the run did not produce read 0 and are returned as unresolved."""
    out, unresolved = {}, []
    for m in BENCHMARK[section]:
        if m["name"] not in values:
            unresolved.append(m["name"])
        out[m["name"]] = {"value": values.get(m["name"], 0),
                          "unit": m["unit"]}
    return out, unresolved


def run_untraced(args, common: list[str], deadline: float) -> dict:
    def probe() -> float:
        return spawn(common + ["--mode", "setup"], deadline)["setup_s"]

    # set-up probes before and after the run, so that their median spans
    # the run's time on a machine whose speed drifts
    n = SETUP_PROBES[args.scale]
    setups = [probe() for _ in range(n - n // 2)]
    run = spawn(common + ["--mode", "run", "--seconds", str(args.seconds)],
                deadline)
    setups += [run["setup_s"]] + [probe() for _ in range(n // 2)]
    run["setup_samples_s"] = setups
    values = {
        "wall_s": run["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_ok_frac": 1.0 - run["failed"] / run["attempted"],
    }
    return {"runs": {"untraced": run}, "values": values,
            "attempted": run["attempted"], "failed": run["failed"],
            "digest_match": True}


def run_traced(args, common: list[str], deadline: float) -> dict:
    one = common + ["--mode", "run", "--rounds", "1"]
    plain = spawn(one, deadline)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    traced = spawn(one + ["--trace", "1", "--spans", str(spans)], deadline)
    values = dict(traced["layers"])
    values["cli.output_bytes"] = traced["cli_output_bytes"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    match = traced["digest"] == plain["digest"]
    return {"runs": {"untraced": plain, "traced": traced}, "values": values,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"] + (not match),
            "digest_match": match, "spans_file": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=sorted(SETUP_PROBES), default="full",
                   help="smoke: tiny sizes, for the benchmark's own test")
    p.add_argument("--inject-failure", action="store_true",
                   help="blank one output before its check (self-test)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "cantorwalk" / "__init__.py").is_file():
            raise RunError(f"no cantorwalk sources under {ROOT / 'src'}")
        OUT.mkdir(exist_ok=True)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scale", args.scale]
        if args.inject_failure:
            common.append("--inject-failure")
        res = (run_traced if args.trace else run_untraced)(
            args, common, deadline)
    except RunError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    metrics, unresolved = metric_block(section, res["values"])
    first = res["runs"]["untraced"]
    provenance = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": first["sizes"], "ops_per_round": first["ops_per_round"],
        "rounds": len(first["round_walls_s"]),
        "nproc": nproc(), "versions": first["versions"],
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }
    correct = res["failed"] == 0
    summary = {
        "provenance": provenance,
        "ops_failed_frac": res["failed"] / res["attempted"],
        "digest": first["digest"], "digest_match": res["digest_match"],
        "unresolved_metrics": unresolved,
        "failures": [f for r in res["runs"].values() for f in r["failures"]],
        "side_file": f".bench_out/{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json",
    }
    record = dict(summary, metrics=metrics, all_values=res["values"],
                  runs=res["runs"], spans_file=res.get("spans_file"))
    (ROOT / summary["side_file"]).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
