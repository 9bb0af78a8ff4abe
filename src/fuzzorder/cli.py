"""Command-line surface: file-driven checks, linearization, and certificates.

Exit code contract: 0 means success (the checked property holds), 1 means a
semantic failure (axiom violations found, intersection mismatch, or an
operation precondition that does not hold), 2 means a usage or input error
(unknown command, missing file, malformed document, bad flag values) or an
output error (stdout closed before the output was written, or an output
encoding that cannot write a label of the output).

:func:`run_command` is the one place that reads the input matrix and writes
the output matrix; each handler only computes and fills the one report, and
returns its exit code, its summary lines and the relation it produced (or
None).  The output format is ``--format``, else the input format; ``gen``
has no input, so it takes the ``-o`` extension, or CSV on stdout.

In human mode, matrix documents go to stdout and summary lines to stderr so
output can be piped; ``--json`` switches to a single machine-readable report
on stdout with the stable keys {command, verdicts, witnesses, trace, family,
timing}.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .extension import POLICIES, linearize, pivot_extend
from .matrixio import (
    FORMATS,
    ParseError,
    _read_json,
    _read_text,
    emit_matrix,
    load_matrix,
    parse_matrix,
    save_matrix,
)
from .oracle import GeneratorSpec, random_zadeh_order
from .preserving import certifying_family, clamp_extend, verify_intersection
from .relation import (
    EmptyFamilyError,
    FuzzyOrderError,
    PreconditionError,
    _incomparable,
    _same_carrier,
    check_order,
)

__all__ = ["build_parser", "main", "run_command"]


def build_parser() -> argparse.ArgumentParser:
    """A new parser; each command is declared once, with its flags and handler."""
    parser = argparse.ArgumentParser(
        prog="fuzzorder",
        description="Check, linearize, and certify fuzzy orders stored as matrix files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names, **options):
        return names, options

    def command(name, handler, help, *flags, file=True,
                output="write the resulting matrix here"):
        # ``flags`` come from ``flag``; ``output`` is the help of -o, or None
        # for a command that writes no matrix.  Without a ``file``, the
        # output format defaults to the -o extension.
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if file:
            p.add_argument("file")
        for names, options in flags:
            p.add_argument(*names, **options)
        p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
        if output:
            p.add_argument("-o", "--output", help=output)
            fmt = "input format" if file else "the -o extension, else csv"
            p.add_argument("--format", choices=FORMATS, help=f"output format (default: {fmt})")

    command("check", _cmd_check, "validate the order axioms and linearity", output=None)
    command("linearize", _cmd_linearize, "extend an order to a linear one",
            flag("--trace", action="store_true", help="list every pivot and raised entry"),
            flag("--policy", choices=POLICIES, default="low",
                 help="pivot orientation (default: low index on top)"))
    command("pivot", _cmd_pivot, "apply one pivot extension",
            flag("--a", required=True, help="label of the element to put on top"),
            flag("--b", required=True, help="label of the element placed below"))
    command("clamp", _cmd_clamp, "linear extension preserving the grade at (a, b)",
            flag("--a", required=True), flag("--b", required=True))
    command("family", _cmd_family, "build the certifying family of linear extensions",
            output="directory to write the members into")
    command("verify", _cmd_verify, "check that a family's infimum rebuilds the order",
            flag("--family", required=True, dest="family_dir",
                 help="directory of member matrices (as written by `family -o`)"),
            output=None)
    command("gen", _cmd_gen, "generate a reproducible random order",
            flag("--n", type=int, required=True), flag("--density", type=float, required=True),
            flag("--seed", type=int, required=True), file=False)
    return parser


def _value_text(v: float) -> str:
    return repr(int(v) if float(v).is_integer() else float(v))


def _cmd_check(args, relation, report):
    axioms = check_order(relation)
    # The incomparable pairs as labels, gathered without building Pairs.
    labels = np.array(relation.labels, dtype=object)
    i, j = _incomparable(relation.grid).nonzero()
    pairs = np.stack((labels[i], labels[j]), axis=1).tolist()
    linear = not pairs
    report["verdicts"] = {
        "zadeh_order": axioms.is_order,
        "reflexive": axioms.reflexive,
        "antisymmetric": axioms.antisymmetric,
        "transitive": axioms.transitive,
        "linear": linear,
    }
    report["witnesses"] = {
        "reflexivity": axioms.reflexivity_witnesses,
        "antisymmetry": axioms.antisymmetry_witnesses,
        "transitivity": axioms.transitivity_witnesses,
        "incomparable_pairs": pairs,
    }
    yn = lambda flag: "yes" if flag else "no"
    info = [
        f"Zadeh fuzzy order: {yn(axioms.is_order)}; "
        f"linear: {yn(linear)}; incomparable pairs: {len(pairs)}"
    ]
    for x, v in axioms.reflexivity_witnesses:
        info.append(f"reflexivity violated at ({x},{x}): {_value_text(v)} != 1")
    for (x, y), fwd, back in axioms.antisymmetry_witnesses:
        info.append(
            f"antisymmetry violated at {{{x},{y}}}: "
            f"r({x},{y})={_value_text(fwd)} and r({y},{x})={_value_text(back)}"
        )
    for (x, y, z), v, bound in axioms.transitivity_witnesses:
        info.append(
            f"transitivity violated at ({x},{y},{z}): "
            f"r({x},{z})={_value_text(v)} < {_value_text(bound)}"
        )
    return (0 if axioms.is_order else 1), info, None


def _cmd_linearize(args, relation, report):
    result = linearize(relation, policy=args.policy)
    report["verdicts"] = {"zadeh_order": True, "linear": True}
    report["trace"] = {
        "k": result.k,
        "m": result.m,
        "pivots": [[step.a.label, step.b.label] for step in result.trace],
    }
    info = [f"linear extension found: k={result.k} pivots, m={result.m} incomparable entries"]
    if args.trace:
        report["trace"]["steps"] = [
            {
                "a": step.a.label,
                "b": step.b.label,
                "entries_raised": step.entries_raised,
            }
            for step in result.trace
        ]
        for step in result.trace:
            info.append(f"pivot {step.step_index}: {step.a.label} above {step.b.label}")
            for (x, y), old, new in step.entries_raised:
                info.append(f"  ({x},{y}): {_value_text(old)} -> {_value_text(new)}")
    return 0, info, result.relation


def _cmd_pivot(args, relation, report):
    extended = pivot_extend(relation, args.a, args.b)
    changed = int((extended.grid != relation.grid).sum())
    report["verdicts"] = {"zadeh_order": True}
    report["trace"] = {"k": 1, "m": None, "pivots": [[args.a, args.b]]}
    info = [f"pivot applied: {args.a} above {args.b} ({changed} entries raised)"]
    return 0, info, extended


def _cmd_clamp(args, relation, report):
    result = clamp_extend(relation, args.a, args.b)
    report["verdicts"] = {"zadeh_order": True, "linear": True}
    report["trace"] = {
        "beta": result.beta,
        "preserved_pair": [args.a, args.b],
    }
    info = [f"linear extension preserving ({args.a},{args.b}) = {_value_text(result.beta)}"]
    return 0, info, result.relation


def _cmd_family(args, relation, report):
    family = certifying_family(relation)
    report["verdicts"] = {"zadeh_order": True}
    report["family"] = {
        "members": len(family),
        "certificates": family.certificate_count,
        "tags": [member.tags for member in family.members],
        "built": family.built,
    }
    info = [
        f"certifying family: {len(family)} members carrying "
        f"{family.certificate_count} certificates"
    ]
    if args.output:
        directory = Path(args.output)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = []
        for idx, member in enumerate(family.members):
            name = f"member_{idx:03d}.{args.format}"
            save_matrix(member.relation, directory / name, args.format)
            manifest.append({"file": name, "tags": member.tags})
        (directory / "family.json").write_text(
            json.dumps({"source": args.file, "members": manifest}, indent=2) + "\n",
            encoding="utf-8",
        )
        info.append(f"wrote {len(family)} members to {directory}")
    else:
        for member in family.members:
            info.append("member tags: " + ", ".join(member.tags))
    return 0, info, None


def _manifest_paths(manifest: Path, inside) -> list[Path]:
    doc = _read_json(_read_text(manifest), f"{manifest}: ")
    listed = doc.get("members") if isinstance(doc, dict) else None
    if not isinstance(listed, list):
        raise ParseError(f'{manifest}: expected an object with a "members" list')
    paths = []
    for k, entry in enumerate(listed, start=1):
        name = entry.get("file") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ParseError(f'{manifest}: member {k} must be an object with a string "file"')
        paths.append(inside(name, f"{manifest}: member {k} "))
    return paths


def _read_family_dir(directory: Path, labels):
    # The members listed in or found in ``directory``, each on the carrier
    # ``labels``; a ParseError names the first member that fails.
    def resolved(path: Path, what: str) -> Path:
        try:
            return path.resolve()
        except RuntimeError as exc:  # a symlink loop, before Python 3.13
            raise ParseError(f"{what} cannot be resolved: {exc}") from None

    root = resolved(directory, f"family directory {directory}")

    def inside(name: str, where: str) -> Path:
        # The directory's file ``name``, resolved through any symlink; a
        # ParseError positioned at ``where`` when it cannot be resolved, lies
        # outside the directory or is not a regular file (reading a named pipe
        # would block).
        path = resolved(root / name, f"{where}file {name!r}")
        if Path(name).is_absolute() or not path.is_relative_to(root):
            raise ParseError(f"{where}file {name!r} lies outside {directory}")
        if path.is_dir():
            raise ParseError(f"{where}file {name!r} is a directory")
        if not path.is_file():
            problem = "is not a regular file" if path.exists() else "does not exist"
            raise ParseError(f"{where}file {name!r} {problem}")
        return path

    manifest = directory / "family.json"
    if manifest.exists():
        inside(manifest.name, f"{directory}: ")
        paths = _manifest_paths(manifest, inside)
    else:
        paths = [
            inside(p.name, f"{directory}: ")
            for p in sorted(directory.iterdir())
            if p.suffix.lower()[1:] in FORMATS and p.name != "family.json"
        ]
    if not paths:
        raise EmptyFamilyError(f"no family members found in {directory}")
    members = []
    for path in paths:
        text = _read_text(path)  # a non-UTF-8 error names the path already
        try:
            members.append(parse_matrix(text))
            _same_carrier(members[-1].labels, labels)
        except FuzzyOrderError as exc:
            raise ParseError(f"{path}: {exc}") from None
    return members


def _cmd_verify(args, relation, report):
    members = _read_family_dir(Path(args.family_dir), relation.labels)
    verdict = verify_intersection(relation, members)
    report["verdicts"] = {"intersection_matches": verdict.passed}
    report["witnesses"] = verdict.witnesses
    report["family"] = {"members": len(members)}
    info = [f"intersection matches: {'yes' if verdict.passed else 'no'}"]
    for (x, y), inf, expected in verdict.witnesses:
        info.append(
            f"mismatch at ({x},{y}): inf={_value_text(inf)}, expected {_value_text(expected)}"
        )
    return (0 if verdict.passed else 1), info, None


def _cmd_gen(args, _, report):
    spec = GeneratorSpec(n=args.n, density=args.density, seed=args.seed)
    relation = random_zadeh_order(spec)
    report["verdicts"] = {"zadeh_order": True}
    info = [f"generated order on {spec.n} elements (density {spec.density}, seed {spec.seed})"]
    return 0, info, relation


_parser = functools.cache(build_parser)  # built on first use, not at import


def run_command(argv: list[str]) -> int:
    """Dispatch one command line; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # One report: handlers fill it in, and --json prints it as it stands.
    report = {
        "command": list(argv),
        "verdicts": {},
        "witnesses": None,
        "trace": None,
        "family": None,
        "timing": 0.0,
    }
    started = time.perf_counter()
    try:
        relation, fmt = load_matrix(args.file) if "file" in args else (None, None)
        args.format = getattr(args, "format", None) or fmt
        code, info, result = args.handler(args, relation, report)
        if result is not None and args.output:
            save_matrix(result, args.output, args.format)  # None: the -o extension
            info.append(f"wrote {args.output}")
        elif result is not None:
            report["output"] = emit_matrix(result, args.format or "csv")
    except (FuzzyOrderError, OSError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1 if isinstance(exc, PreconditionError) else 2
    report["timing"] = time.perf_counter() - started

    try:
        if args.json:
            print(json.dumps(report))
        else:
            document = report.get("output")
            if document is not None:
                sys.stdout.write(document)
            stream = sys.stderr if document is not None else sys.stdout
            for line in info:
                print(line, file=stream)
    except UnicodeEncodeError as exc:
        # An output error; replacing the characters would change the output.
        print(f"error: cannot write the output in the {exc.encoding} encoding", file=sys.stderr)
        return 2
    return code


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as ``| head`` does): an output
        # error.  Pointing stdout at the null device lets the flush at exit
        # pass instead of reporting the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
