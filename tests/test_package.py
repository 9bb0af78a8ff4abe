"""The package's public surface: each name is declared once, in its module."""

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
