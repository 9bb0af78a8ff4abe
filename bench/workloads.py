"""The three workloads: each builds, from a seed, one round of operations.

An operation is one timed call into ``fuzzorder`` (``run``) and an untimed
check of what it returned (``check``).  A check returns ``None`` when the
output is right and a description otherwise; it raises
:class:`OperationFailed` when the operation did not complete as the program's
contract says, such as an unexpected exit code.  The benchmark repeats the
round, so every run attempts whole rounds of the same operations.

Every check uses :mod:`checks`, never the library's own predicates.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import OrderSource, Shape


class OperationFailed(Exception):
    """The operation raised, or ended with an exit code its contract forbids."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _pivot_trace_problem(result, policy: str) -> str | None:
    s = result.relation.grid
    if result.k != len(result.trace):
        return f"k={result.k} but the trace has {len(result.trace)} steps"
    for step in result.trace:
        a, b = step.a.index, step.b.index
        if (a > b) != (policy == "high"):
            return f"pivot ({step.a.label},{step.b.label}) breaks the {policy!r} policy"
        if s[a, b] != 1.0 or s[b, a] != 0.0:
            return f"pivot ({step.a.label},{step.b.label}) is not oriented in the output"
    return None


# -- linearize-large ----------------------------------------------------------

# (shape, policy).  Around the 50th and 90th percentiles the operations'
# costs climb in small steps, so a slow spell that covers part of a run moves
# those percentiles smoothly instead of making them jump between two
# operations far apart in cost.  New shapes go at the end, because each
# order's blocks depend on the shapes drawn before it.
LINEARIZE_ROUND = [
    (Shape("ordinal", 48, 0.6), "low"),
    (Shape("ordinal", 48, 0.3), "high"),
    (Shape("disjoint", 48, 0.6), "low"),
    (Shape("disjoint", 48, 0.3), "high"),
    (Shape("ordinal", 96, 0.6), "high"),
    (Shape("ordinal", 96, 0.3), "low"),
    (Shape("disjoint", 96, 0.6), "low"),
    (Shape("ordinal", 144, 0.45), "high"),
    (Shape("ordinal", 192, 0.6), "low"),
    (Shape("ordinal", 144, 0.3), "low"),
    (Shape("disjoint", 96, 0.45), "high"),
    (Shape("ordinal", 192, 0.3), "high"),
    (Shape("disjoint", 96, 0.3), "low"),
    (Shape("disjoint", 144, 0.6), "high"),
    (Shape("disjoint", 192, 0.6), "low"),
    (Shape("ordinal", 168, 0.3), "high"),
    (Shape("ordinal", 192, 0.2), "low"),
    (Shape("disjoint", 96, 0.2), "high"),
    (Shape("disjoint", 120, 0.6), "low"),
    (Shape("disjoint", 120, 0.3), "high"),
    (Shape("disjoint", 156, 0.6), "low"),
]


def linearize_large(lib, seed: int, workdir: Path, note) -> list[Op]:
    source = OrderSource(lib.oracle, 1, seed)
    ops = []
    for shape, policy in LINEARIZE_ROUND:
        labels, grid = source.order(shape)
        r = lib.relation.FuzzyRelation(labels, grid)

        def run(r=r, policy=policy):
            return lib.relation.check_order(r), lib.extension.linearize(r, policy=policy)

        def check(out, g=grid, policy=policy):
            report, result = out
            if not report.is_order:
                return "check_order rejected a valid order"
            return checks.linearization_problem(
                g, result.relation.grid, result.k, result.m
            ) or _pivot_trace_problem(result, policy)

        ops.append(Op(f"linearize.{shape}.{policy}", run, check))
    return ops


# -- certify ------------------------------------------------------------------

# Like LINEARIZE_ROUND: costs climb in small steps around both percentiles,
# and new shapes go at the end.
CERTIFY_ROUND = [
    Shape("block", 12, 0.7),
    Shape("block", 12, 0.5),
    Shape("block", 12, 0.3),
    Shape("disjoint", 12, 0.6),
    Shape("disjoint", 12, 0.4),
    Shape("ordinal", 12, 0.3),
    Shape("ordinal", 12, 0.5),
    Shape("ordinal", 16, 0.5),
    Shape("disjoint", 16, 0.7),
    Shape("ordinal", 18, 0.4),
    Shape("disjoint", 16, 0.5),
    Shape("ordinal", 20, 0.5),
    Shape("ordinal", 24, 0.6),
    Shape("disjoint", 18, 0.6),
    Shape("disjoint", 24, 0.7),
    Shape("ordinal", 14, 0.5),
    Shape("ordinal", 14, 0.3),
    Shape("disjoint", 12, 0.5),
    Shape("block", 12, 0.2),
    Shape("disjoint", 14, 0.7),
    Shape("disjoint", 14, 0.6),
    Shape("ordinal", 16, 0.3),
]


def certify(lib, seed: int, workdir: Path, note) -> list[Op]:
    source = OrderSource(lib.oracle, 2, seed)
    ops = []
    for shape in CERTIFY_ROUND:
        labels, grid = source.order(shape)
        r = lib.relation.FuzzyRelation(labels, grid)

        def run(r=r):
            family = lib.preserving.certifying_family(r)
            return family, lib.preserving.verify_intersection(r, family)

        def check(out, g=grid, labels=labels):
            family, verdict = out
            if not verdict.passed:
                return "verify_intersection rejected the certifying family"
            return checks.family_problem(
                g,
                labels,
                [m.relation.grid for m in family.members],
                [list(m.tags) for m in family.members],
            )

        ops.append(Op(f"certify.{shape}", run, check))
    return ops


# -- cli-files ------------------------------------------------------------------

# Malformed documents that do not depend on the seed.
HUGE_INTEGER_JSON = '{"elements": ["a"], "matrix": [[' + "1" * 400 + "]]}\n"
GRADE_OUT_OF_RANGE_CSV = ",a,b\na,1,1.5\nb,0,1\n"
RAGGED_CSV = ",a,b\na,1,0\nb,0\n"


def _damage_transitivity(g: np.ndarray) -> np.ndarray:
    """Zero the first positive entry (x, z) that some two-step path supports."""
    n = g.shape[0]
    for x in range(n):
        for z in range(n):
            if x != z and g[x, z] > 0 and any(
                y not in (x, z) and min(g[x, y], g[y, z]) > 0 for y in range(n)
            ):
                damaged = g.copy()
                damaged[x, z] = 0.0
                return damaged
    raise ValueError("no transitive path to break")


def _damage_antisymmetry(g: np.ndarray) -> np.ndarray:
    """Give the reverse of the last positive pair the same grade."""
    x, z = np.argwhere(np.triu(g > 0, k=1))[-1]
    damaged = g.copy()
    damaged[z, x] = g[x, z]
    return damaged


def _first_pair(mask: np.ndarray) -> tuple[int, int]:
    mask = mask.copy()
    np.fill_diagonal(mask, False)
    i, j = np.argwhere(mask)[0]
    return int(i), int(j)


def cli_files(lib, seed: int, workdir: Path, note) -> list[Op]:
    source = OrderSource(lib.oracle, 3, seed)
    files: dict[str, tuple[list[str], np.ndarray]] = {}

    def write(name, labels, grid):
        fmt = "json" if name.endswith(".json") else "csv"
        (workdir / name).write_text(checks.matrix_text(labels, grid, fmt), encoding="utf-8")
        files[name] = (labels, grid)

    order = source.order
    labels96, v96 = order(Shape("disjoint", 96, 0.5))
    write("v96.csv", labels96, v96)
    write("d96.csv", labels96, _damage_transitivity(v96))
    write("v96o.json", *order(Shape("ordinal", 96, 0.3)))
    labels48, v48 = order(Shape("ordinal", 48, 0.4))
    write("v48.csv", labels48, v48)
    labels48d, v48d = order(Shape("disjoint", 48, 0.5))
    write("d48.json", labels48d, _damage_antisymmetry(v48d))
    write("v8.csv", *order(Shape("block", 8, 0.4)))
    write("v6.json", *order(Shape("block", 6, 0.5)))
    (workdir / "huge.json").write_text(HUGE_INTEGER_JSON, encoding="utf-8")
    (workdir / "range.csv").write_text(GRADE_OUT_OF_RANGE_CSV, encoding="utf-8")
    (workdir / "ragged.csv").write_text(RAGGED_CSV, encoding="utf-8")
    for name, manifest in [
        ("fam_list", [1, 2]),
        ("fam_file7", {"members": [{"file": 7}]}),
        ("trav/a/fam", {"members": [{"file": "../../x.csv"}]}),
    ]:
        (workdir / name).mkdir(parents=True)
        (workdir / name / "family.json").write_text(json.dumps(manifest), encoding="utf-8")
    # The escaping manifest entry names a copy of the order itself, so the
    # family "verifies" if the file outside the directory is read.
    write("trav/x.csv", *files["v8.csv"])

    gen_seeds = [int(s) for s in source.rng.integers(0, 2**32, size=3)]
    pivot_a, pivot_b = _first_pair((v48 == 0) & (v48.T == 0))
    clamp_a, clamp_b = _first_pair((v48 > 0) & (v48 < 1))

    def path(name):
        return str(workdir / name)

    def op(label, argv, expect, extra=None):
        """One ``run_command`` call; ``expect`` is the exit code, or a function giving it."""
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.run_command(argv)
            out, err = out.getvalue(), err.getvalue()
            if note:
                note("cli.report_bytes", len(out.encode("utf-8")) + len(err.encode("utf-8")))
            return code, out, err

        def check(result):
            code, out, err = result
            expected = expect() if callable(expect) else expect
            if code != expected:
                raise OperationFailed(f"exit code {code}, expected {expected}: {err.strip()[-200:]}")
            return extra(out) if extra else None

        return Op(f"cli.{label}", run, check)

    def axiom_code(name):
        """The exit code of ``check`` by our own axiom count: 0 for an order, else 1."""
        return lambda: 1 if checks.order_problem(files[name][1]) else 0

    def verify_code(source, directory):
        """The exit code of ``verify`` by our own minimum over the member files."""
        def code():
            manifest = json.loads((workdir / directory / "family.json").read_text(encoding="utf-8"))
            grids = [checks.read_matrix_file(workdir / directory / e["file"])[1]
                     for e in manifest["members"]]
            return 0 if np.array_equal(np.minimum.reduce(grids), files[source][1]) else 1
        return code

    def check_report(name):
        """``check --json``: verdicts and witness counts against our own count."""
        def extra(out):
            report = json.loads(out)
            g = files[name][1]
            counts = checks.violation_counts(g)
            witnesses = report["witnesses"]
            for axiom, key in [("reflexivity", "reflexive"), ("antisymmetry", "antisymmetric"),
                               ("transitivity", "transitive")]:
                if len(witnesses[axiom]) != counts[axiom]:
                    return f"{len(witnesses[axiom])} {axiom} witnesses, expected {counts[axiom]}"
                if report["verdicts"][key] != (counts[axiom] == 0):
                    return f"{key} verdict disagrees with the axiom count"
            if 2 * len(witnesses["incomparable_pairs"]) != checks.incomparable_entries(g):
                return "incomparable pair count differs"
            return None
        return extra

    def check_summary(name):
        def extra(out):
            verdict = "no" if axiom_code(name)() else "yes"
            if not out.startswith(f"Zadeh fuzzy order: {verdict};"):
                return f"summary line {out.splitlines()[:1]} disagrees with the axiom check"
            return None
        return extra

    def output_file(source, target, linear, pair_problem=None):
        """A written matrix: parses back and extends the source order."""
        def extra(out):
            labels, s = checks.read_matrix_file(workdir / target)
            r_labels, r = files[source]
            if labels != r_labels:
                return f"{target}: labels differ from {source}"
            problem = checks.extension_problem(r, s, linear) or (
                pair_problem and pair_problem(r, s))
            return f"{target}: {problem}" if problem else None
        return extra

    def report_output(source, pair_problem):
        """A ``--json`` report whose ``output`` document is a linear extension."""
        def extra(out):
            _, s = checks.read_matrix_text(json.loads(out)["output"])
            r = files[source][1]
            return checks.extension_problem(r, s, linear=True) or pair_problem(r, s)
        return extra

    def oriented(a, b):
        return lambda r, s: None if s[a, b] == 1.0 and s[b, a] == 0.0 else "pivot pair not oriented"

    def preserved(a, b):
        return lambda r, s: None if s[a, b] == r[a, b] else "clamped grade not preserved"

    def linearize_report(source, policy):
        def extra(out):
            report = json.loads(out)
            _, s = checks.read_matrix_text(report["output"])
            r = files[source][1]
            trace = report["trace"]
            problem = checks.linearization_problem(r, s, trace["k"], trace["m"])
            if problem:
                return problem
            if not (len(trace["pivots"]) == len(trace["steps"]) == trace["k"]):
                return "pivot list, steps and k disagree"
            index = {label: i for i, label in enumerate(files[source][0])}
            for step in trace["steps"]:
                a, b = index[step["a"]], index[step["b"]]
                pivot_raised = [[step["a"], step["b"]], 0, 1] in step["entries_raised"]
                if (a > b) != (policy == "high") or not pivot_raised:
                    return f"step ({step['a']},{step['b']}) is not a {policy!r} pivot"
                if any(old >= new for _, old, new in step["entries_raised"]):
                    return "a raised entry did not rise"
            return None
        return extra

    def generated(target, n, text_of=None):
        def extra(out):
            text = text_of(out) if text_of else (workdir / target).read_text(encoding="utf-8")
            labels, g = checks.read_matrix_text(text)
            if labels != [f"x{i + 1}" for i in range(n)]:
                return f"generated labels {labels[:3]}... are not x1..x{n}"
            return checks.order_problem(g)
        return extra

    def family_dir(source, directory, members_in_report=False):
        """``family -o``: every written member parses back; the family certifies."""
        def extra(out):
            manifest = json.loads((workdir / directory / "family.json").read_text(encoding="utf-8"))
            members = manifest["members"]
            if members_in_report and json.loads(out)["family"]["members"] != len(members):
                return "report and manifest disagree on the member count"
            grids = []
            for entry in members:
                labels, s = checks.read_matrix_file(workdir / directory / entry["file"])
                if labels != files[source][0]:
                    return f"{entry['file']}: labels differ from {source}"
                grids.append(s)
            labels, r = files[source]
            return checks.family_problem(r, labels, grids, [e["tags"] for e in members])
        return extra

    def family_report(source):
        """``family --json`` without ``-o``: one tag list per member, the paper's certificates."""
        def extra(out):
            report = json.loads(out)["family"]
            labels, r = files[source]
            if report["members"] != len(report["tags"]):
                return "member count and tag lists disagree"
            return checks.certificate_problem(r, labels, report["tags"])
        return extra

    def verify_report(code):
        def extra(out):
            matches = json.loads(out)["verdicts"]["intersection_matches"]
            return None if matches == (code() == 0) else "intersection verdict is wrong"
        return extra

    lab48 = files["v48.csv"][0]
    lab96o, v96o = files["v96o.json"]
    clamp96_a, clamp96_b = _first_pair((v96o > 0) & (v96o < 1))
    return [
        op("check.v96.csv", ["check", path("v96.csv")], 0, check_summary("v96.csv")),
        op("check.v96.csv.json", ["check", path("v96.csv"), "--json"], 0, check_report("v96.csv")),
        op("check.v96o.json.json", ["check", path("v96o.json"), "--json"], 0,
           check_report("v96o.json")),
        op("check.d96.csv.json", ["check", path("d96.csv"), "--json"],
           axiom_code("d96.csv"), check_report("d96.csv")),
        op("check.d96.csv", ["check", path("d96.csv")], axiom_code("d96.csv"),
           check_summary("d96.csv")),
        op("check.d48.json.json", ["check", path("d48.json"), "--json"],
           axiom_code("d48.json"), check_report("d48.json")),
        op("check.v48.csv", ["check", path("v48.csv")], 0, check_summary("v48.csv")),
        op("linearize.v48.csv.o", ["linearize", path("v48.csv"), "-o", path("lin48.csv")], 0,
           output_file("v48.csv", "lin48.csv", linear=True)),
        op("linearize.v48.csv.trace.json",
           ["linearize", path("v48.csv"), "--trace", "--json", "--policy", "high"], 0,
           linearize_report("v48.csv", "high")),
        op("linearize.v96o.json.o", ["linearize", path("v96o.json"), "-o", path("lin96.json")], 0,
           output_file("v96o.json", "lin96.json", linear=True)),
        op("pivot.v48.csv.o",
           ["pivot", path("v48.csv"), "--a", lab48[pivot_a], "--b", lab48[pivot_b],
            "-o", path("piv48.csv")], 0,
           output_file("v48.csv", "piv48.csv", linear=False, pair_problem=oriented(pivot_a, pivot_b))),
        op("clamp.v48.csv.o",
           ["clamp", path("v48.csv"), "--a", lab48[clamp_a], "--b", lab48[clamp_b],
            "-o", path("clamp48.csv")], 0,
           output_file("v48.csv", "clamp48.csv", linear=True, pair_problem=preserved(clamp_a, clamp_b))),
        op("clamp.v96o.json.json",
           ["clamp", path("v96o.json"), "--a", lab96o[clamp96_a], "--b", lab96o[clamp96_b],
            "--json"], 0,
           report_output("v96o.json", preserved(clamp96_a, clamp96_b))),
        op("check.v96o.json", ["check", path("v96o.json")], 0, check_summary("v96o.json")),
        op("family.v8.csv.json", ["family", path("v8.csv"), "--json"], 0, family_report("v8.csv")),
        op("gen.12.csv.o", ["gen", "--n", "12", "--density", "0.4", "--seed", str(gen_seeds[0]),
                            "-o", path("gen12.csv")], 0, generated("gen12.csv", 12)),
        op("gen.10.json.o.json", ["gen", "--n", "10", "--density", "0.7", "--seed",
                                  str(gen_seeds[1]), "-o", path("gen10.json"), "--json"], 0,
           generated("gen10.json", 10)),
        op("gen.12.stdout", ["gen", "--n", "12", "--density", "0.2", "--seed", str(gen_seeds[2])], 0,
           generated(None, 12, text_of=lambda out: out)),
        op("family.v8.csv.o", ["family", path("v8.csv"), "-o", path("fam8")], 0,
           family_dir("v8.csv", "fam8")),
        op("verify.v8.csv", ["verify", path("v8.csv"), "--family", path("fam8")],
           verify_code("v8.csv", "fam8")),
        op("verify.v8.csv.json", ["verify", path("v8.csv"), "--family", path("fam8"), "--json"],
           verify_code("v8.csv", "fam8"), verify_report(verify_code("v8.csv", "fam8"))),
        op("family.v6.json.o.json",
           ["family", path("v6.json"), "-o", path("fam6"), "--format", "json", "--json"], 0,
           family_dir("v6.json", "fam6", members_in_report=True)),
        op("verify.v6.json", ["verify", path("v6.json"), "--family", path("fam6")],
           verify_code("v6.json", "fam6")),
        # Malformed input.  The first four exit with a traceback or with 0
        # because of known faults, and count as failed until those are fixed.
        op("malformed.huge-integer", ["check", path("huge.json")], 2),
        op("malformed.manifest-list", ["verify", path("v8.csv"), "--family", path("fam_list")], 2),
        op("malformed.manifest-file-7",
           ["verify", path("v8.csv"), "--family", path("fam_file7")], 2),
        op("malformed.manifest-escape",
           ["verify", path("v8.csv"), "--family", path("trav/a/fam")], 2),
        op("malformed.grade-out-of-range", ["check", path("range.csv")], 2),
        op("malformed.pivot-non-order", ["pivot", path("d48.json"), "--a", "e1", "--b", "e2"],
           axiom_code("d48.json")),
        op("malformed.missing-file", ["check", path("missing.csv")], 2),
        op("malformed.ragged-row", ["check", path("ragged.csv")], 2),
    ]


WORKLOADS = {
    "linearize-large": linearize_large,
    "certify": certify,
    "cli-files": cli_files,
}
