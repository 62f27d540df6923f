"""Every module under src/cantorwalk uses every name it imports, and every
CLI option is read by its subcommand.

A stdlib-only stand-in for a linter's unused-import rule: a name counts as
used when it is loaded anywhere in the module (annotations included) or,
in a package ``__init__``, listed in ``__all__``.
"""
import argparse
import ast
import inspect
from pathlib import Path

import pytest

from cantorwalk import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "cantorwalk"


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
