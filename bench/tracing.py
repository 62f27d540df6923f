"""Span tracing of cantorwalk's public functions, installed from outside.

Only the traced run uses this module.  It replaces each function or method
in TARGETS, by module attribute, with a wrapper that records a span (id,
parent span, name, start, end, exception type) and, for a few targets,
counts something in the arguments or the result.  Nothing under ``src/``
knows about it, and ``uninstall`` puts every original back.

Self time is a span's duration minus the time its direct child spans
cover.  Inclusive time counts only the outermost span of a name, so a
function that calls itself is not counted twice.  Time an observer spends
counting is kept out of the parent's self time.
"""
from __future__ import annotations

import collections
import json
import sys
import time

import numpy as np

from cantorwalk import cli, coding, dimension, geometry, measure, verify, walks

EXACT_LIMIT = 2.0 ** 53  # float64 holds every integer up to here


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_sampler(tr, args, kwargs, result):
    tr.counters["walks.sampler.draws"] += int(_arg(args, kwargs, 2, "size"))
    tr.counters["walks.sampler.tail_draws"] += int(
        np.count_nonzero(result > walks.TABLE_SIZE))


def _observe_path(tr, args, kwargs, result):
    if float(np.max(np.abs(result.states))) > EXACT_LIMIT:
        tr.counters["walks.paths_past_2p53"] += 1
    if any(frame[1].startswith("verify.") for frame in tr.stack):
        tr.counters["verify.paths_simulated"] += 1


def _observe_zeta(tr, args, kwargs, result):
    s = _arg(args, kwargs, 0, "s")
    precision = _arg(args, kwargs, 1, "precision", measure.DEFAULT_PRECISION)
    tr.zeta_keys.add((str(s), int(precision)))


def _observe_pressure(tr, args, kwargs, result):
    tr.counters["dimension.pressure_dimension.lambda_evals"] += len(
        result.lambda_trace)


def _observe_phi(tr, args, kwargs, result):
    if result is None:
        tr.counters["geometry.phi_apply.escaped"] += 1


# (module, attribute or Class.method, span name, observer)
TARGETS = [
    (walks, "ZetaJumpSampler.__init__", "walks.sampler.table_build", None),
    (walks, "ZetaJumpSampler.sample_abs", "walks.sampler", _observe_sampler),
    (walks, "simulate_path", "walks.simulate_path", _observe_path),
    (walks, "transience_stats", "walks.transience_stats", None),
    (walks, "gamma_envelope_violations", "walks.gamma_envelope_violations",
     None),
    (walks, "folded_kernel_identity", "walks.folded_kernel_identity", None),
    (walks, "increment_tail_prob", "walks.increment_tail_prob", None),
    (measure, "zeta", "measure.zeta", _observe_zeta),
    (measure, "transition_prob", "measure.transition_prob", None),
    (measure, "cylinder_mass", "measure.cylinder_mass", None),
    (measure, "CylinderMass.value", "measure.CylinderMass.value", None),
    (measure, "consistency_defect", "measure.consistency_defect", None),
    (dimension, "pressure_dimension", "dimension.pressure_dimension",
     _observe_pressure),
    (dimension, "lebesgue_mass_decay", "dimension.lebesgue_mass_decay", None),
    (dimension, "dim_series", "dimension.dim_series", None),
    (geometry, "cylinder_interval", "geometry.cylinder_interval", None),
    (geometry, "left_block_partition_bracket",
     "geometry.left_block_partition_bracket", None),
    (geometry, "QPolynomial.evaluate", "geometry.QPolynomial.evaluate", None),
    (geometry, "phi_apply", "geometry.phi_apply", _observe_phi),
    (coding, "random_word", "coding.random_word", None),
    (coding, "children", "coding.children", None),
] + [(cli, "cmd_" + sub, "cli." + sub, None) for sub in
     ("intervals", "measure", "walk", "dim", "pressure", "lebesgue")]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []   # (id, parent, name, start, end, error)
        self.stack: list[list] = []    # open spans: [id, name, start, child_s]
        self.stats: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.open_names: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.zeta_keys: set = set()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def wrap(self, fn, name: str, observe=None):
        stack, spans, open_names = self.stack, self.spans, self.open_names
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) + len(stack), name, clock(), 0.0]
            stack.append(frame)
            open_names[name] += 1
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                open_names[name] -= 1
                dur = end - frame[2]
                stats[0] += 1
                if not open_names[name]:
                    stats[1] += dur
                stats[2] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                spans.append((frame[0], parent[0] if parent else None, name,
                              frame[2], end, error))
                if error:
                    self.counters[f"{name}.errors.{error}"] += 1
            if observe is not None:
                t = clock()
                observe(self, args, kwargs, result)
                if parent is not None:
                    parent[3] += clock() - t
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target, and every verify criterion run_all calls."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cantorwalk" or n.startswith("cantorwalk.")]
        for module, attr, name, observe in TARGETS:
            owner, _, member = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                if cls is None or member not in vars(cls):
                    self.missing.append(name)
                    continue
                self._patch(cls, member,
                            self.wrap(vars(cls)[member], name, observe))
                continue
            original = getattr(module, member, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, observe)
            # re-exports and `from x import f` bindings are attributes too
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        names = {id(v): k[len("criterion_"):] for k, v in vars(verify).items()
                 if k.startswith("criterion_")}
        criteria = getattr(verify, "ALL_CRITERIA", [])
        self._restore.append((verify, "ALL_CRITERIA", list(criteria)))
        criteria[:] = [
            self.wrap(fn, "verify." + names.get(id(fn), fn.__name__))
            for fn in criteria]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if owner is verify and attr == "ALL_CRITERIA":
                verify.ALL_CRITERIA[:] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: .calls, .s and .self_s of every span name,
        the counters, and the ratios derived from them."""
        out: dict[str, float] = {}
        for name, (calls, s, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = s
            out[name + ".self_s"] = self_s
        out.update(self.counters)
        for key in ("walks.sampler.draws", "walks.sampler.tail_draws",
                    "walks.paths_past_2p53", "verify.paths_simulated",
                    "dimension.pressure_dimension.lambda_evals",
                    "geometry.phi_apply.escaped"):
            out.setdefault(key, 0)
        out["geometry.phi_apply.precision_errors"] = self.counters[
            "geometry.phi_apply.errors.PrecisionError"]
        build = self.stats.get("walks.sampler.table_build", [0, 0.0, 0.0])
        out["walks.sampler.table_builds"] = build[0]
        out["walks.sampler.table_build_s"] = build[1]
        draws = out["walks.sampler.draws"]
        out["walks.sampler.ns_per_draw"] = (
            out.get("walks.sampler.s", 0.0) / draws * 1e9 if draws else 0.0)
        calls = out.get("measure.zeta.calls", 0)
        out["measure.zeta.distinct_keys"] = len(self.zeta_keys)
        out["measure.zeta.hit_ratio"] = (
            1.0 - len(self.zeta_keys) / calls if calls else 0.0)
        evals = out["dimension.pressure_dimension.lambda_evals"]
        out["dimension.pressure_dimension.s_per_lambda"] = (
            out.get("dimension.pressure_dimension.s", 0.0) / evals
            if evals else 0.0)
        return out

    def write(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "names": names,
                       "fields": ["id", "parent", "name", "start", "end",
                                  "error"],
                       "spans": [[i, p, index[n], a, b, e]
                                 for i, p, n, a, b, e in self.spans]}, f)
