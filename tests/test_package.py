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


BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _blas_uses(tree):
    # (line, what) for every matrix product, BLAS-backed call or linalg use.
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, ast.Name) and node.id == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any("linalg" in name.split(".") or name in BLAS_CALLS for name in names):
                yield node.lineno, "import"


def test_no_module_calls_blas():
    """The package does no matrix product and no linear algebra, so it never
    starts a BLAS thread pool: OpenBLAS's second thread keeps spinning after
    a product returns, and costs a whole core for the rest of the run."""
    root = Path(__file__).resolve().parent.parent / "src" / "fuzzorder"
    files = sorted(root.rglob("*.py"))
    assert len(files) >= len(MODULES) + 2  # __init__ and cli too
    found = [
        (path.name, line, what)
        for path in files
        for line, what in _blas_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_the_blas_guard_sees_every_form():
    source = """
a @ b
a @= b
np.dot(a, b); a.dot(b); np.matmul(a, b); np.einsum("ij,jk", a, b)
np.tensordot(a, b); np.inner(a, b); np.vdot(a, b)
np.linalg.solve(a, b)
from numpy.linalg import norm
from numpy import linalg
import numpy.linalg
from numpy import dot
"""
    assert sorted(_blas_uses(ast.parse(source))) == [
        (2, "@"), (3, "@"),
        (4, "dot"), (4, "dot"), (4, "einsum"), (4, "matmul"),
        (5, "inner"), (5, "tensordot"), (5, "vdot"),
        (6, "linalg"), (7, "import"), (8, "import"), (9, "import"), (10, "import"),
    ]
