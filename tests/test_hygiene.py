"""Every module under src/cantorwalk uses every name it imports, every
CLI option is read by its subcommand, every exported name is used outside
the tests, one function simulates path batches, and every function the
bench tracer wraps still exists.

A stdlib-only stand-in for a linter's unused-import rule: a name counts as
used when it is loaded anywhere in the module (annotations included) or,
in a package ``__init__``, listed in ``__all__``.
"""
import argparse
import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import cantorwalk
from cantorwalk import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorwalk"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("from dataclasses import dataclass, field\n"
                          "@dataclass\nclass A: pass\n") == ["field (line 1)"]


def test_every_cli_option_is_read():
    # every option of a subcommand, apart from --out, is read as
    # args.<dest> in the cmd_* function that handles it
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sp in sub.choices.items():
        func = sp.get_default("func")
        tree = ast.parse(inspect.getsource(func))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"}
        unread += [f"{name} --{a.dest}" for a in sp._actions
                   if a.dest not in ("help", "out") and a.dest not in read]
    assert unread == []


def test_every_exported_name_is_used():
    # a name in __all__ that only tests read is test-only public API
    files = ([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
             + list((ROOT / "demos").glob("*.py"))
             + [p for p in (ROOT / "bench").glob("*.py")
                if not p.name.startswith("test_")])
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    assert sorted(set(cantorwalk.__all__) - used) == []


SIMULATORS = ("simulate_path", "_simulate_block")


def batch_engines(sources: dict[str, str]) -> tuple[set, set]:
    """The top-level functions that call or pass on ``simulate_path`` or
    the block simulation, as (module, name), and the modules that import
    ``concurrent.futures``."""
    callers, pools = set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            for node in ast.walk(top):
                # a call, or a reference handed on (``partial``, ``map``)
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = getattr(node, "id", getattr(node, "attr", None))
                    if name in SIMULATORS:
                        callers.add((module, getattr(top, "name", None)))
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n.split(".")[0] == "concurrent" for n in names):
                    pools.add(module)
    return callers, pools


def test_one_function_simulates_path_batches():
    # walks.path_batch is the only loop over paths and the only thread
    # pool; simulate_path is a block of one path, called by no other module
    callers, pools = batch_engines(
        {p.stem: p.read_text() for p in SRC.glob("*.py")})
    assert callers == {("walks", "path_batch"), ("walks", "simulate_path")}
    assert pools == {"walks"}


def test_engine_check_flags_a_second_loop():
    source = ("from concurrent.futures import ThreadPoolExecutor\n"
              "def run(params, n):\n"
              "    return [simulate_path(params, i) for i in range(n)]\n"
              "import concurrent\n")
    assert batch_engines({"cli": source}) == ({("cli", "run")}, {"cli"})
    blocks = ("def run(params, n):\n"
              "    return _simulate_block(params, range(n))\n")
    assert batch_engines({"dim": blocks}) == ({("dim", "run")}, set())
    handed = ("def run(params, blocks):\n"
              "    return map(partial(_simulate_block, params), blocks)\n")
    assert batch_engines({"dim": handed}) == ({("dim", "run")}, set())


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # the bench tracer reads a target it cannot find as 0, silently.  This
    # checks only that each name exists, not that the work still passes
    # through it: batches simulate through walks._simulate_block, which
    # calls neither simulate_path nor sample_abs, so their counters read 0
    # on a batch
    tracing = load_tracer()
    missing = []
    for module, attr, name, _ in tracing.TARGETS:
        owner, _, member = attr.rpartition(".")
        scope = getattr(module, owner, None) if owner else module
        if scope is None or not callable(vars(scope).get(member)):
            missing.append(name)
    assert missing == []
