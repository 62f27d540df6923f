"""One run process of the benchmark; ``run.py`` starts it, never a user.

It imports cantorwalk from the checkout's ``src/``, builds the sampler
tables and zeta values the workload uses (the set-up phase, timed from the
moment ``run.py`` started this process), then in ``run`` mode repeats the
workload's operations in rounds, one at a time, checking and digesting
every output.  It prints one JSON object on its standard output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started us")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0,
                   help="exact number of rounds (0: as many as fit)")
    p.add_argument("--scale", default="full")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", help="file for the traced run's spans")
    p.add_argument("--inject-failure", action="store_true",
                   help="blank the first output before it is checked")
    return p.parse_args(argv)


def sha256(text: str, chunk: int = 1 << 20) -> tuple[str, int]:
    """Digest and byte length of ``text`` in UTF-8, encoded a chunk at a
    time so that a 40 MB output is not copied whole."""
    h, size = hashlib.sha256(), 0
    for i in range(0, len(text), chunk):
        data = text[i:i + chunk].encode()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def run_rounds(ops, seconds: float, rounds: int, inject: bool) -> dict:
    """Repeat the operations in rounds until ``seconds`` would be exceeded
    (at least one round), or exactly ``rounds`` rounds."""
    walls: list[float] = []
    op_times: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    failures: list[dict] = []
    attempted = 0
    cli_bytes = 0
    start = time.perf_counter()
    while True:
        wall = 0.0
        for op in ops:
            t = time.perf_counter()
            try:
                outputs = op.run()
            except Exception as exc:  # the program failed; count and go on
                outputs = None
                reason = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            wall += dt
            op_times.setdefault(op.name, []).append(dt)
            if outputs is None:
                attempted += op.n_outputs
                failures.append({"op": op.name, "reason": reason,
                                 "count": op.n_outputs})
                continue
            for name, text in outputs:
                attempted += 1
                if inject:
                    text, inject = "", False
                digest, size = sha256(text)
                if op.cli and not walls:
                    cli_bytes += size
                try:
                    op.check(text)
                    if digests.setdefault(name, digest) != digest:
                        raise ValueError("output differs between rounds")
                except Exception as exc:  # any broken output is a failure
                    failures.append({"op": name, "count": 1, "reason":
                                     f"{type(exc).__name__}: {exc}"})
        walls.append(wall)
        if rounds and len(walls) >= rounds:
            break
        if not rounds and (time.perf_counter() - start
                           + statistics.median(walls) > seconds):
            break
    return {
        "round_walls_s": walls,
        # each operation's median over the rounds, summed: one slow round
        # (the machine is shared) moves it less than the median round does
        "wall_s": sum(statistics.median(v) for v in op_times.values()),
        "attempted": attempted,
        "failed": sum(f["count"] for f in failures),
        "failures": failures[:20],
        "op_s": op_times,
        "cli_output_bytes": cli_bytes,
        "digests": digests,
        "digest": hashlib.sha256("".join(
            f"{k}={v};" for k, v in sorted(digests.items())).encode()
        ).hexdigest(),
    }


def versions() -> dict:
    import mpmath
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    import workloads  # imports cantorwalk: part of the timed set-up
    import cantorwalk
    if Path(cantorwalk.__file__).resolve().parent != src / "cantorwalk":
        sys.stderr.write(f"cantorwalk imported from {cantorwalk.__file__}, "
                         f"not from {src}\n")
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    workloads.setup(args.workload)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.mode == "run":
        ops, size = workloads.build(args.workload, args.seed, args.scale)
        result.update(run_rounds(ops, args.seconds, args.rounds,
                                 args.inject_failure))
        result["sizes"] = size
        result["ops_per_round"] = len(ops)
        result["versions"] = versions()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["untraced_targets"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
