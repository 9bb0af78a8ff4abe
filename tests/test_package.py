"""The package's public surface: each name is declared once, in its module,
and every source file keeps to the oldest supported Python's syntax."""

import ast
from pathlib import Path

import fuzzorder
from fuzzorder import extension, matrixio, oracle, preserving, relation
from fuzzorder.cli import build_parser

MODULES = (relation, extension, preserving, oracle, matrixio)


def test_each_public_name_is_declared_in_exactly_one_module():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert fuzzorder.__all__ == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fuzzorder, name) is getattr(module, name), (module.__name__, name)


def test_the_cli_reads_formats_and_policies_from_the_library():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    choices = {}
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest in ("format", "policy"):
                choices.setdefault(action.dest, []).append((name, action.choices))
    writers = {"linearize", "pivot", "clamp", "family", "gen"}
    assert {name for name, _ in choices["format"]} == writers
    assert all(c is matrixio.FORMATS for _, c in choices["format"])
    [(name, policies)] = choices["policy"]
    assert name == "linearize" and policies is extension.POLICIES


def test_every_source_file_parses_as_python_3_10():
    """pyproject.toml's floor is 3.10: no file of the package, its tests,
    benchmark or demos uses later syntax (such as ``except*``)."""
    root = Path(__file__).resolve().parent.parent
    files = [path for top in ("src", "tests", "bench", "demos") for path in (root / top).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
