"""Command-line entry point.

Subcommands: intervals | measure | walk | dim | pressure | lebesgue | verify.
Rationals are given as "p/q" strings (decimals are rejected for alpha and
beta so the exponents stay exact).  Outputs embed the tool version, the
full configuration and the seeds, and identical configurations produce
byte-identical output, except for the wall-clock ``seconds`` of each
``verify`` criterion.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, dimension, geometry, measure, verify, walks
from .coding import AdmissibleWord
from .measure import MeasureParams


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError, so they too become the JSON error."""

    def error(self, message):
        raise CliError(message)


def _parse_rational(text: str, name: str) -> Fraction:
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise CliError(f"{name} must be an exact rational like 3/4, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational for {name}: {text!r}") from exc


def _int_at_least(text: str, name: str, minimum: int) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise CliError(f"bad integer for {name}: {text!r}") from exc
    if n < minimum:
        raise CliError(f"{name} must be >= {minimum}, got {n}")
    return n


def _check_boundary(alpha: Fraction, allow_boundary: bool) -> None:
    if alpha == 1 and not allow_boundary:
        raise CliError("alpha = 1 is the recurrent boundary; "
                       "pass --allow-boundary to study it")


def _meta(args: argparse.Namespace) -> dict:
    cfg = {k: (str(v) if isinstance(v, Fraction) else v)
           for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    return {"tool": "cantorwalk", "version": __version__, "config": cfg}


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    # H2(t)'s exact coefficients pass Python's int-to-str limit (4300
    # digits from 3.10.7 on; 0 is none) from t = 4956: lift it meanwhile
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    _write(args, text + "\n")


def _emit_csv(args, header: list[str], lines: list[str], meta: dict) -> None:
    """Write ``# key: json`` metadata lines, the header row and ``lines``.

    ``lines`` are data rows as newline-terminated text whose fields never
    need quoting: integers, ``%g`` floats or empty.  Everything is written
    at once, after every line is built, so an error leaves no output.
    """
    head = [f"# {key}: {json.dumps(val, sort_keys=True)}\n"
            for key, val in sorted(meta.items())]
    _write(args, "".join(head + [",".join(header) + "\n"] + lines))


def cmd_intervals(args) -> int:
    word = AdmissibleWord.parse(args.word)
    geom = geometry.cylinder_interval(word)
    payload = geom.to_json(args.precision)
    h = geom.hole()
    payload["hole"] = {
        "left_poly": h.left.to_json(),
        "length_poly": h.length.to_json(),
        "decimal_length": geometry.decimal_str(
            h.length.evaluate(args.precision), args.precision),
    }
    payload["meta"] = _meta(args)
    _emit(args, payload)
    return 0


def cmd_measure(args) -> int:
    word = AdmissibleWord.parse(args.word)
    params = MeasureParams(alpha=args.alpha, precision=args.precision)
    cm = measure.cylinder_mass(word, params)
    res = measure.consistency_defect(word, params, args.truncation)
    payload = {
        "word": list(word.symbols),
        "alpha": str(params.alpha),
        "mass_decimal": geometry.decimal_str(cm.value(), params.precision),
        "log_mass": geometry.decimal_str(cm.log_value(), params.precision),
        "factors": cm.to_json(),
        "consistency": {
            "partial": float(res.partial_sum),
            "tail_lo": float(res.tail_lo),
            "tail_hi": float(res.tail_hi),
            "contains_parent": res.contains_parent,
        },
        "meta": _meta(args),
    }
    _emit(args, payload)
    return 0


def cmd_walk(args) -> int:
    kwargs = {"kind": args.kind, "steps": args.steps, "seed": args.seed}
    if args.kind == "dissipative":
        if args.alpha is None or args.beta is not None:
            raise CliError("dissipative walk takes --alpha, not --beta")
        _check_boundary(args.alpha, args.allow_boundary)
        kwargs["alpha"] = args.alpha
    else:
        if args.beta is None or args.alpha is not None or args.allow_boundary:
            raise CliError(f"{args.kind} walk takes --beta, not --alpha "
                           "or --allow-boundary")
        kwargs["beta"] = args.beta
    params = walks.WalkParams(**kwargs)
    if args.checkpoints is not None:
        checkpoints = [int(t) for t in args.checkpoints.split(",")]
        rep = walks.transience_stats(params, args.paths, checkpoints)
        # the JSON round trip turns the integer keys into strings
        payload = json.loads(json.dumps(dataclasses.asdict(rep)))
        payload["meta"] = _meta(args)
        _emit(args, payload)
        return 0
    lines = walks.path_batch(params, args.paths, _walk_rows)
    _emit_csv(args, ["path_id", "step", "state"], lines, _meta(args))
    return 0


def _walk_rows(path: walks.WalkPath) -> str:
    """The CSV rows of one path, as one string."""
    return "".join(f"{path.path_id},{n},{s}\n"
                   for n, s in enumerate(map(int, path.states.tolist())))


def cmd_dim(args) -> int:
    _check_boundary(args.alpha, args.allow_boundary)
    params = walks.WalkParams(kind="dissipative", steps=args.depth,
                              seed=args.seed, alpha=args.alpha)
    stride = max(1, args.depth // args.rows_per_path)

    def rows(path: walks.WalkPath) -> tuple[float, str]:  # ratio, CSV rows
        s = dimension.dim_series(path.states[1:], args.alpha)
        i, out = path.path_id, []
        for n in range(stride - 1, args.depth, stride):
            # the last depth has no Furstenberg ratio: an empty field
            fr = f"{s.furstenberg[n]:.12g}" if n < s.furstenberg.size else ""
            out.append(f"{i},{int(s.n[n])},{s.ratio[n]:.12g},{fr}\n")
        return s.ratio[-1], "".join(out)

    finals, lines = zip(*walks.path_batch(params, args.paths, rows))
    meta = _meta(args)
    meta["final_ratio_quantiles"] = {str(p): float(np.quantile(finals, p))
                                     for p in (0.05, 0.25, 0.5, 0.75, 0.95)}
    _emit_csv(args, ["path_id", "n", "ratio", "furstenberg_ratio"],
              list(lines), meta)
    return 0


def cmd_pressure(args) -> int:
    est = dimension.pressure_dimension(args.cutoff, args.tol)
    payload = {
        "K": est.state_cutoff,
        "s_star": est.s_star,
        "tolerance": est.tolerance,
        "s_bracket": list(est.s_bracket),
        "lambda_trace": [list(entry) for entry in est.lambda_trace],
        "meta": _meta(args),
    }
    _emit(args, payload)
    return 0


def cmd_lebesgue(args) -> int:
    decay = dimension.lebesgue_mass_decay(args.depth, args.cutoff)
    lines = [f"{n},{m:.15g},{b:.6g}\n"
             for n, (m, b) in enumerate(zip(decay.level_mass,
                                            decay.overcount_bound), start=1)]
    _emit_csv(args, ["level", "mass", "overcount_bound"], lines, _meta(args))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(quick=args.quick)
    for res in results:
        print(res.line())
    payload = {
        "results": [{"name": r.name, "passed": r.passed,
                     "seconds": round(r.seconds, 2), "details":
                     json.loads(json.dumps(r.details, default=str))}
                    for r in results],
        "all_passed": all(r.passed for r in results),
        "meta": _meta(args),
    }
    if args.out:
        _emit(args, payload)
    return 0 if payload["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="cantorwalk",
        description="Exact Cantor-like construction, measures, and walks")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("intervals", help="exact geometry of one cylinder")
    sp.add_argument("--word", required=True, help='e.g. "1,0,2"')
    # bits, at least float64's 53
    sp.add_argument("--precision", default=geometry.DEFAULT_PRECISION,
                    type=lambda t: _int_at_least(t, "precision", 53))
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_intervals)

    sp = sub.add_parser("measure", help="cylinder mass and consistency")
    sp.add_argument("--word", required=True)
    sp.add_argument("--alpha", required=True,
                    type=lambda t: _parse_rational(t, "alpha"))
    sp.add_argument("--precision", default=geometry.DEFAULT_PRECISION,
                    type=lambda t: _int_at_least(t, "precision", 53))
    sp.add_argument("--truncation", type=int, default=10 ** 4)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("walk", help="simulate paths (CSV) or summaries")
    sp.add_argument("--kind", required=True,
                    choices=["cauchy_Z", "folded", "dissipative"])
    sp.add_argument("--alpha", type=lambda t: _parse_rational(t, "alpha"))
    sp.add_argument("--beta", type=lambda t: _parse_rational(t, "beta"))
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--paths", default=1,
                    type=lambda t: _int_at_least(t, "paths", 1))
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--checkpoints",
                    help="comma list; switches to a JSON transience summary")
    sp.add_argument("--allow-boundary", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_walk)

    sp = sub.add_parser("dim", help="pointwise-dimension series")
    sp.add_argument("--alpha", required=True,
                    type=lambda t: _parse_rational(t, "alpha"))
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--paths", default=1,
                    type=lambda t: _int_at_least(t, "paths", 1))
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--rows-per-path", default=100,
                    type=lambda t: _int_at_least(t, "rows-per-path", 1))
    sp.add_argument("--allow-boundary", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("pressure", help="finite-state dimension estimate")
    sp.add_argument("--cutoff", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pressure)

    sp = sub.add_parser("lebesgue", help="level-mass decay of the tree")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--cutoff", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lebesgue)

    sp = sub.add_parser("verify", help="run the claims-verification suite")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 2, -1, -1):
        # argparse takes word text such as -1,2 for an option: attach it
        if argv[i] == "--word" and re.match(r"-\d", argv[i + 1]):
            argv[i:i + 2] = ["--word=" + argv[i + 1]]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
