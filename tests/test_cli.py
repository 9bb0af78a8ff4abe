"""Exit-code contract and report schema for the command-line surface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzorder
from fuzzorder import FuzzyRelation, emit_matrix, linearize, load_matrix, parse_matrix
from fuzzorder.matrixio import detect_format
from fuzzorder.cli import build_parser, run_command

from conftest import FIXTURES, GOLDEN_GRIDS
from genutil import reference_incomparable_pairs

REPORT_KEYS = {"command", "verdicts", "witnesses", "trace", "family", "timing"}

ORDER7 = str(FIXTURES / "order7.csv")
ORDER3 = str(FIXTURES / "order3.csv")


@pytest.fixture
def corrupted_file(tmp_path):
    path = tmp_path / "corrupted.csv"
    path.write_text(",a,b\na,1,0.3\nb,0.2,1\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- check


def test_check_valid_order_exits_zero(capsys):
    assert run_command(["check", ORDER7]) == 0
    out = capsys.readouterr().out
    assert "Zadeh fuzzy order: yes; linear: no; incomparable pairs: 4" in out


def test_check_corrupted_exits_one_with_witness(corrupted_file, capsys):
    assert run_command(["check", corrupted_file]) == 1
    out = capsys.readouterr().out
    assert "antisymmetry violated" in out
    assert "r(a,b)=0.3" in out and "r(b,a)=0.2" in out


def test_check_linear_file(capsys):
    assert run_command(["check", str(FIXTURES / "order7_linear.csv")]) == 0
    assert "linear: yes; incomparable pairs: 0" in capsys.readouterr().out


def test_check_reports_the_argwhere_pair_list_on_goldens_and_fixtures(tmp_path, capsys):
    files = sorted(FIXTURES.glob("*.csv")) + sorted(FIXTURES.glob("*.json"))
    for name, (labels, grid) in GOLDEN_GRIDS.items():
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(emit_matrix(FuzzyRelation(labels, grid), "json"), encoding="utf-8")
    for path in files:
        run_command(["check", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        pairs = reference_incomparable_pairs(load_matrix(path)[0])
        assert report["witnesses"]["incomparable_pairs"] == [
            [p.first.label, p.second.label] for p in pairs
        ], path
        assert report["verdicts"]["linear"] is (not pairs), path


# ---------------------------------------------------------------- linearize


def test_linearize_writes_golden_output(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_command(["linearize", ORDER7, "-o", str(out)]) == 0
    written = parse_matrix(out.read_text(encoding="utf-8"))
    published = parse_matrix((FIXTURES / "order7_linear.csv").read_text(encoding="utf-8"))
    assert written == published
    summary = capsys.readouterr().out
    assert "k=2" in summary and "m=8" in summary


def test_linearize_stdout_is_pipeable(capsys):
    assert run_command(["linearize", ORDER3]) == 0
    captured = capsys.readouterr()
    assert parse_matrix(captured.out).tolists() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


def test_linearize_trace_flag(capsys):
    assert run_command(["linearize", ORDER7, "--trace"]) == 0
    err = capsys.readouterr().err
    assert "pivot 1: x1 above x2" in err
    assert "pivot 2: x4 above x5" in err


def test_linearize_policy_high(capsys):
    assert run_command(["linearize", ORDER3, "--policy", "high"]) == 0
    relation = parse_matrix(capsys.readouterr().out)
    assert relation.tolists() == [[1, 0, 0.4], [1, 1, 0.4], [0, 0, 1]]


def test_linearize_rejects_non_order(corrupted_file):
    assert run_command(["linearize", corrupted_file]) == 1


@pytest.mark.parametrize("policy, k, raised", [("low", 2, 10), ("high", 4, 11)])
def test_json_trace_steps_raise_their_own_pivot(capsys, policy, k, raised):
    assert run_command(["linearize", ORDER7, "--trace", "--json", "--policy", policy]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    steps = trace["steps"]
    assert (trace["k"], len(steps), sum(len(s["entries_raised"]) for s in steps)) == (k, k, raised)
    for step in steps:
        assert [[step["a"], step["b"]], 0, 1] in step["entries_raised"]
        assert all(old < new for _, old, new in step["entries_raised"])


# ---------------------------------------------------------------- pivot / clamp


def test_pivot_command_matches_library(capsys, order7):
    assert run_command(["pivot", ORDER7, "--a", "x1", "--b", "x2"]) == 0
    from fuzzorder import pivot_extend

    assert parse_matrix(capsys.readouterr().out) == pivot_extend(order7, "x1", "x2")


def test_pivot_precondition_failure_exits_one(capsys):
    # (a,c) and (x1,x4) are already comparable the other way
    for path, a, b, reverse in [(ORDER3, "c", "a", 0.4), (ORDER7, "x4", "x1", 0.55)]:
        assert run_command(["pivot", path, "--a", a, "--b", b]) == 1
        assert f"the reverse grade is {reverse}, not 0" in capsys.readouterr().err


def test_pivot_unknown_label_exits_two():
    assert run_command(["pivot", ORDER3, "--a", "zz", "--b", "a"]) == 2


def test_clamp_command(capsys, order7):
    assert run_command(["clamp", ORDER7, "--a", "x1", "--b", "x4"]) == 0
    captured = capsys.readouterr()
    relation = parse_matrix(captured.out)
    assert relation.value("x1", "x4") == 0.55
    assert "preserving (x1,x4) = 0.55" in captured.err


def test_clamp_zero_grade_exits_one():
    assert run_command(["clamp", ORDER7, "--a", "x1", "--b", "x2"]) == 1


# ---------------------------------------------------------------- family / verify


def test_family_then_verify_roundtrip(tmp_path, capsys):
    fam_dir = tmp_path / "family"
    assert run_command(["family", ORDER7, "-o", str(fam_dir)]) == 0
    manifest = json.loads((fam_dir / "family.json").read_text(encoding="utf-8"))
    assert len(manifest["members"]) == 12
    assert sum(len(m["tags"]) for m in manifest["members"]) == 25
    capsys.readouterr()

    assert run_command(["verify", ORDER7, "--family", str(fam_dir)]) == 0
    assert "intersection matches: yes" in capsys.readouterr().out


def test_verify_reads_members_with_upper_case_suffixes(tmp_path, capsys):
    """Without a manifest, a member's suffix is matched as -o matches it: in any case."""
    fam_dir = tmp_path / "family"
    assert run_command(["family", ORDER7, "-o", str(fam_dir)]) == 0
    (fam_dir / "family.json").unlink()
    (fam_dir / "member_000.csv").rename(fam_dir / "member_000.CSV")
    (fam_dir / "member_001.csv").rename(fam_dir / "member_001.Json")
    capsys.readouterr()
    assert run_command(["verify", ORDER7, "--family", str(fam_dir), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["family"]["members"] == 12


def test_verify_mismatch_exits_one(tmp_path, capsys):
    fam_dir = tmp_path / "small"
    fam_dir.mkdir()
    (fam_dir / "only.csv").write_text(
        (FIXTURES / "order7_linear.csv").read_text(encoding="utf-8"), encoding="utf-8"
    )
    assert run_command(["verify", ORDER7, "--family", str(fam_dir)]) == 1
    out = capsys.readouterr().out
    assert "mismatch at (x1,x2): inf=1, expected 0" in out


@pytest.mark.parametrize("labels, difference", [
    (("x1", "x2", "y3", "x4", "x5", "x6", "x7"), "element 3 is 'y3', not 'x3'"),
    (("x1", "x2", "x3", "x4", "x5", "x6"), "6 elements, not 7"),
], ids=["renamed", "shorter"])
def test_verify_names_the_member_whose_carrier_differs(tmp_path, capsys, labels, difference):
    """The message names the member file and where its carrier first differs, nothing more."""
    fam_dir = tmp_path / "fam"
    assert run_command(["family", ORDER7, "-o", str(fam_dir)]) == 0
    member = fam_dir / "member_001.csv"
    n = len(labels)
    grid = load_matrix(str(member))[0].grid[:n, :n]
    member.write_text(emit_matrix(FuzzyRelation(labels, grid), "csv"), encoding="utf-8")
    capsys.readouterr()
    assert run_command(["verify", ORDER7, "--family", str(fam_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {member.resolve()}: carriers differ: {difference}\n"


def test_verify_empty_family_dir_exits_two(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run_command(["verify", ORDER7, "--family", str(empty)]) == 2


def _family_dir(tmp_path, manifest, name="fam"):
    fam_dir = tmp_path / name
    fam_dir.mkdir()
    (fam_dir / "family.json").write_text(json.dumps(manifest), encoding="utf-8")
    return str(fam_dir)


@pytest.mark.parametrize(
    "manifest, named",
    [
        ([1, 2], '"members" list'),
        ({"members": [{"file": 7}]}, "member 1"),
        ({"members": [{"file": ""}]}, "member 1"),  # the family directory itself
        ({"members": [{"file": "."}]}, "member 1"),
        ({"members": [{"file": "nope.csv"}]}, "member 1 file 'nope.csv' does not exist"),
    ],
)
def test_verify_malformed_manifest_exits_two(tmp_path, capsys, manifest, named):
    assert run_command(["verify", ORDER3, "--family", _family_dir(tmp_path, manifest)]) == 2
    assert named in capsys.readouterr().err


def test_verify_deeply_nested_manifest_exits_two(tmp_path, capsys):
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    (fam_dir / "family.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_verify_manifest_syntax_error_names_the_manifest(tmp_path, capsys):
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    (fam_dir / "family.json").write_text("{", encoding="utf-8")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    err = capsys.readouterr().err
    assert "family.json: invalid JSON" in err and "(row 1, column 2)" in err


def test_non_utf8_files_exit_two_naming_the_file(tmp_path, capsys):
    matrix = tmp_path / "latin1.csv"
    matrix.write_bytes(b",a\na,1\xff\n")
    assert run_command(["check", str(matrix)]) == 2
    assert f"{matrix}: not UTF-8 text: byte 0xff at offset 6" in capsys.readouterr().err
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    (fam_dir / "family.json").write_bytes(b'{"members": ["\xff"]}')
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    assert f"{fam_dir / 'family.json'}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["0.2_5", "\u0660.\u0665"])
def test_csv_grades_that_are_not_ascii_decimals_exit_two(tmp_path, capsys, cell):
    matrix = tmp_path / "grades.csv"
    matrix.write_text(f",a,b\na,1,{cell}\nb,0,1\n", encoding="utf-8")
    assert run_command(["check", str(matrix)]) == 2
    assert f"error: malformed number {cell!r} (row 2, column 3)" in capsys.readouterr().err


def test_verify_member_parse_errors_name_the_member(tmp_path, capsys):
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    short = fam_dir / "member_000.csv"
    short.write_text(",a,b,c\na,1,0,0.4\nb,0,1\nc,0,0,1\n", encoding="utf-8")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    err = capsys.readouterr().err
    assert f"error: {short.resolve()}: expected 4 cells, got 3 (row 3, column 4)" in err
    short.write_bytes(b",a\na,1\xff\n")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {short.resolve()}: not UTF-8 text: byte 0xff at offset 6\n"


def test_verify_manifest_entry_outside_directory_exits_two(tmp_path, capsys):
    # x.csv is the order itself, so reading it would make the family verify.
    (tmp_path / "x.csv").write_text(Path(ORDER3).read_text(encoding="utf-8"), encoding="utf-8")
    for k, name in enumerate(["../x.csv", str(tmp_path / "x.csv")]):
        fam_dir = _family_dir(tmp_path, {"members": [{"file": name}]}, f"fam{k}")
        assert run_command(["verify", ORDER3, "--family", fam_dir]) == 2
        assert "outside" in capsys.readouterr().err


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_verify_symlinked_member_outside_directory_exits_two(tmp_path, capsys):
    # Without a manifest the directory is listed; x.csv is the order itself.
    _write(tmp_path / "outside" / "x.csv", Path(ORDER3).read_text(encoding="utf-8"))
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    (fam_dir / "m.csv").symlink_to(Path("..") / "outside" / "x.csv")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    assert f"{fam_dir}: file 'm.csv' lies outside {fam_dir}" in capsys.readouterr().err


def test_verify_symlinked_manifest_outside_directory_exits_two(tmp_path, capsys):
    # The outside manifest lists a member that is the order itself.
    outside = _write(tmp_path / "outside.json", json.dumps({"members": [{"file": "m.csv"}]}))
    fam_dir = tmp_path / "fam"
    _write(fam_dir / "m.csv", Path(ORDER3).read_text(encoding="utf-8"))
    (fam_dir / "family.json").symlink_to(outside)
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    assert f"{fam_dir}: file 'family.json' lies outside {fam_dir}" in capsys.readouterr().err


def test_verify_symlinks_inside_the_directory_are_read(tmp_path):
    fam_dir = tmp_path / "fam"
    _write(fam_dir / "x.csv", Path(ORDER3).read_text(encoding="utf-8"))
    (fam_dir / "m.csv").symlink_to("x.csv")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 0
    _write(fam_dir / "listing.json", json.dumps({"members": [{"file": "m.csv"}]}))
    (fam_dir / "family.json").symlink_to("listing.json")
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 0


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks on this platform")
@pytest.mark.parametrize("loop", ["manifest-entry", "listed-member", "family-directory"])
def test_verify_symlink_loop_exits_two(tmp_path, capsys, loop):
    """A member or family directory that loops back to itself is a positioned
    error, not a traceback."""
    fam_dir = tmp_path / "fam"
    if loop == "family-directory":
        fam_dir.symlink_to("fam")
        named = str(fam_dir)
    elif loop == "manifest-entry":
        _write(fam_dir / "family.json", json.dumps({"members": [{"file": "b.csv"}]}))
        (fam_dir / "b.csv").symlink_to("b.csv")
        named = f"{fam_dir / 'family.json'}: member 1 file 'b.csv'"
    else:
        fam_dir.mkdir()
        (fam_dir / "a.csv").symlink_to("a.csv")
        named = f"{fam_dir}: file 'a.csv'"
    assert run_command(["verify", ORDER3, "--family", str(fam_dir)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@pytest.mark.parametrize("listed", [True, False], ids=["manifest", "directory"])
def test_verify_named_pipe_member_exits_two_without_blocking(tmp_path, listed):
    """Opening a named pipe blocks until a writer comes, so a member must be
    a regular file.  The child is killed, and the test fails, if it blocks."""
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    os.mkfifo(fam_dir / "p.csv")
    if listed:
        _write(fam_dir / "family.json", json.dumps({"members": [{"file": "p.csv"}]}))
    args = ["verify", ORDER3, "--family", str(fam_dir)]
    done = _run_module(args, capture_output=True, timeout=10)
    where = f"{fam_dir / 'family.json'}: member 1 " if listed else f"{fam_dir}: "
    assert done.returncode == 2
    assert done.stderr == f"error: {where}file 'p.csv' is not a regular file\n"


# ---------------------------------------------------------------- gen


def test_gen_writes_deterministic_valid_order(tmp_path):
    out1 = tmp_path / "g1.csv"
    out2 = tmp_path / "g2.csv"
    args = ["gen", "--n", "6", "--density", "0.4", "--seed", "7"]
    assert run_command(args + ["-o", str(out1)]) == 0
    assert run_command(args + ["-o", str(out2)]) == 0
    assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")
    from fuzzorder import brute_check_order

    assert brute_check_order(parse_matrix(out1.read_text(encoding="utf-8")))


def test_gen_infers_json_from_output_path(tmp_path):
    out = tmp_path / "g.json"
    assert run_command(["gen", "--n", "4", "--density", "0.5", "--seed", "3",
                        "-o", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"elements", "matrix"}


@pytest.mark.parametrize("argv, linear", [
    (["linearize", str(FIXTURES / "order3.json"), "-o", "l3.csv"], "yes"),
    (["linearize", ORDER7, "--format", "json", "-o", "l7.json"], "yes"),
    (["pivot", ORDER7, "--a", "x1", "--b", "x2", "-o", "p7.csv"], "no"),
    (["clamp", ORDER7, "--a", "x1", "--b", "x4", "--format", "json", "-o", "c7.json"], "yes"),
    (["gen", "--n", "12", "--density", "0.5", "--seed", "7", "-o", "g.json"], "no"),
], ids=["linearize-csv", "linearize-json", "pivot", "clamp", "gen"])
def test_written_matrices_check_and_certify(tmp_path, monkeypatch, capsys, argv, linear):
    """Each file a command writes is an order whose family, written out, verifies."""
    monkeypatch.chdir(tmp_path)
    out = argv[-1]
    assert run_command(argv) == 0
    capsys.readouterr()
    assert run_command(["check", out]) == 0
    assert f"linear: {linear}" in capsys.readouterr().out
    assert run_command(["family", out, "-o", "fam"]) == 0
    assert run_command(["verify", out, "--family", "fam"]) == 0


def test_gen_bad_flags_exit_two():
    assert run_command(["gen", "--n", "0", "--density", "0.4", "--seed", "1"]) == 2
    assert run_command(["gen", "--n", "4", "--density", "2.0", "--seed", "1"]) == 2


# Each command that writes a matrix, with the arguments that follow its input file.
MATRIX_COMMANDS = {
    "linearize": [],
    "pivot": ["--a", "a", "--b", "b"],
    "clamp": ["--a", "a", "--b", "c"],
    "family": [],
    "gen": ["--n", "4", "--density", "0.5", "--seed", "3"],
}


@pytest.mark.parametrize(
    "name, source, flag, dest",
    [
        (name, source, flag, dest)
        for name in MATRIX_COMMANDS
        for source in ([None] if name == "gen" else ["csv", "json"])
        for flag in (None, "csv", "json")
        for dest in (["out.csv", "out.json"] if name == "family" else [None, "out.csv", "out.json"])
    ],
)
def test_output_format_is_the_flag_else_the_input_format(tmp_path, capsys, name, source, flag,
                                                         dest):
    """``gen`` has no input: it takes the -o extension, or CSV on stdout."""
    argv = [name] + ([str(FIXTURES / f"order3.{source}")] if source else [])
    argv += MATRIX_COMMANDS[name] + (["--format", flag] if flag else [])
    argv += ["-o", str(tmp_path / dest)] if dest else []
    assert run_command(argv) == 0
    if dest is None:
        written = {"stdout": capsys.readouterr().out}
    elif name == "family":
        members = sorted((tmp_path / dest).glob("member_*"))
        written = {p.name: p.read_text(encoding="utf-8") for p in members}
        assert members and all(p.suffix == f".{flag or source}" for p in members)
    else:
        written = {dest: (tmp_path / dest).read_text(encoding="utf-8")}
    expected = flag or source or (dest.rsplit(".", 1)[1] if dest else "csv")
    for where, text in written.items():
        assert detect_format(text) == expected, where
        parse_matrix(text, expected)


@pytest.mark.parametrize("name, default", [
    ("gen", "the -o extension, else csv"),
    ("linearize", "input format"),
    ("pivot", "input format"),
    ("clamp", "input format"),
    ("family", "input format"),
])
def test_format_help_states_the_real_default(capsys, name, default):
    with pytest.raises(SystemExit):
        build_parser().parse_args([name, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"output format (default: {default})" in text


# ---------------------------------------------------------------- contract


def test_unknown_command_exits_two():
    assert run_command(["frobnicate"]) == 2


@pytest.mark.parametrize("text", [" \n", '""\n'])
def test_header_without_labels_exits_two(tmp_path, capsys, text):
    matrix = tmp_path / "nolabels.csv"
    matrix.write_text(text, encoding="utf-8")
    assert run_command(["check", str(matrix)]) == 2
    assert "no element labels in header (row 1, column 2)" in capsys.readouterr().err


def test_missing_file_exits_two():
    assert run_command(["check", "does-not-exist.csv"]) == 2


def test_malformed_file_exits_two(tmp_path, capsys):
    for name, text, message in [
        ("bad.csv", ",a\na,1.5\n", "value 1.5 outside [0, 1] (row 2, column 2)"),
        ("short.csv", ",a,b\na,1,1.5\nb,0\n", "value 1.5 outside [0, 1] (row 2, column 3)"),
        ("short.json", '{"elements":["a","b"],"matrix":[[1,2],[0]]}',
         "value 2.0 outside [0, 1] (row 1, column 2)"),
        ("object.json", '{"elements": ["a"], "matrix": {"a": [1]}}',
         '"matrix" must be an array of rows'),
    ]:
        bad = _write(tmp_path / name, text)
        assert run_command(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _run_module(args, encoding=None, timeout=60, **kwargs):
    # ``python -m fuzzorder.cli *args`` in a new process, on this package, with
    # its standard streams in ``encoding`` when one is given.
    src = str(Path(fuzzorder.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    if encoding:
        env["PYTHONIOENCODING"] = encoding
    return subprocess.run(
        [sys.executable, "-m", "fuzzorder.cli", *args], text=True, env=env, timeout=timeout, **kwargs
    )


def test_module_runs_as_a_script(corrupted_file):
    done = _run_module(["check", corrupted_file], capture_output=True)
    assert done.returncode == 1
    assert done.stdout.startswith("Zadeh fuzzy order: no; linear: ")
    assert "antisymmetry violated at {a,b}" in done.stdout
    assert _run_module(["check", ORDER7], capture_output=True).returncode == 0


@pytest.mark.parametrize("args", [["family", ORDER7, "--json"], ["linearize", ORDER7]])
def test_closed_stdout_exits_two_without_a_traceback(args):
    """A reader that closes the pipe early, as ``| head`` does: every write
    to stdout fails, in the command's report or in the flush at exit."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_module(args, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    _assert_output_error(done)


def _assert_output_error(done):
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("name", ["linearize", "family"])
def test_unencodable_stdout_exits_two_without_a_traceback(tmp_path, name):
    """A label that stdout's encoding cannot write is an output error; the
    output is not written with the label replaced."""
    matrix = _write(tmp_path / "u.csv", ",\u00e9,b\n\u00e9,1,0\nb,0,1\n")
    done = _run_module([name, str(matrix)], encoding="ascii", capture_output=True)
    _assert_output_error(done)
    assert "ascii" in done.stderr


def test_run_command_builds_one_parser_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert run_command(["check", ORDER3]) == 0
    assert len(built) <= 8  # one parser and its seven subparsers
    assert build_parser() is not build_parser()


COMMAND_ARGS = {
    "check": ["f"],
    "linearize": ["f"],
    "pivot": ["f", "--a", "x", "--b", "y"],
    "clamp": ["f", "--a", "x", "--b", "y"],
    "family": ["f"],
    "verify": ["f", "--family", "d"],
    "gen": ["--n", "3", "--density", "0.5", "--seed", "1"],
}


@pytest.mark.parametrize("name", COMMAND_ARGS)
def test_every_command_parses_to_a_handler_and_accepts_json(name):
    args = build_parser().parse_args([name, *COMMAND_ARGS[name], "--json"])
    assert args.command == name and args.json
    assert callable(args.handler)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", ORDER7, "--json"],
        ["linearize", ORDER3, "--json"],
        ["pivot", ORDER7, "--a", "x1", "--b", "x2", "--json"],
        ["clamp", ORDER7, "--a", "x1", "--b", "x4", "--json"],
        ["family", ORDER3, "--json"],
        ["gen", "--n", "3", "--density", "0.5", "--seed", "2", "--json"],
    ],
)
def test_json_reports_are_schema_stable(argv, capsys):
    assert run_command(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert REPORT_KEYS <= set(payload)
    assert payload["command"] == argv
    assert isinstance(payload["timing"], float)


def test_json_verify_report(tmp_path, capsys):
    fam_dir = tmp_path / "family"
    run_command(["family", ORDER3, "-o", str(fam_dir)])
    capsys.readouterr()
    assert run_command(["verify", ORDER3, "--family", str(fam_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert REPORT_KEYS <= set(payload)
    assert payload["verdicts"] == {"intersection_matches": True}
    assert payload["family"] == {"members": 4}


def test_json_family_report_counts_members_before_merging(capsys):
    for name, counts in [("order3.json", (5, 4, 5)), ("order4.csv", (8, 6, 8)),
                         ("order7.csv", (25, 12, 25))]:
        assert run_command(["family", str(FIXTURES / name), "--json"]) == 0
        family = json.loads(capsys.readouterr().out)["family"]
        assert (family["built"], family["members"], family["certificates"]) == counts, name
    # order7's tags, in member order
    assert family["tags"][0][:2] == ["orients(x1,x2)", "orients(x4,x5)"]
    assert family["tags"][1] == ["orients(x2,x1)"]


def _report_text(argv, code, capsys):
    # The --json report as json.dumps writes it, without command and timing.
    assert run_command([*argv, "--json"]) == code
    report = json.loads(capsys.readouterr().out)
    del report["command"], report["timing"]
    return json.dumps(report)


def test_json_payloads_are_pinned_byte_for_byte(tmp_path, capsys):
    bad = tmp_path / "bad3.csv"
    bad.write_text(",a,b,c\na,0.5,0.3,0\nb,0.2,1,0.7\nc,0,0,1\n", encoding="utf-8")
    assert _report_text(["check", str(bad)], 1, capsys) == (
        '{"verdicts": {"zadeh_order": false, "reflexive": false, "antisymmetric": false, '
        '"transitive": false, "linear": false}, '
        '"witnesses": {"reflexivity": [["a", 0.5]], "antisymmetry": [[["a", "b"], 0.3, 0.2]], '
        '"transitivity": [[["a", "b", "c"], 0.0, 0.3]], "incomparable_pairs": [["a", "c"]]}, '
        '"trace": null, "family": null}'
    )
    # r(a,c) = 0 lies below min(r(a,b), r(b,c)) = 0.5, with every other axiom holding.
    zero = _write(tmp_path / "zero3.csv", ",a,b,c\na,1,0.5,0\nb,0,1,0.5\nc,0,0,1\n")
    assert _report_text(["check", str(zero)], 1, capsys) == (
        '{"verdicts": {"zadeh_order": false, "reflexive": true, "antisymmetric": true, '
        '"transitive": false, "linear": false}, '
        '"witnesses": {"reflexivity": [], "antisymmetry": [], '
        '"transitivity": [[["a", "b", "c"], 0.0, 0.5]], "incomparable_pairs": [["a", "c"]]}, '
        '"trace": null, "family": null}'
    )
    assert _report_text(["linearize", ORDER3, "--trace"], 0, capsys) == (
        '{"verdicts": {"zadeh_order": true, "linear": true}, "witnesses": null, '
        '"trace": {"k": 2, "m": 4, "pivots": [["a", "b"], ["b", "c"]], "steps": ['
        '{"a": "a", "b": "b", "entries_raised": [[["a", "b"], 0.0, 1.0]]}, '
        '{"a": "b", "b": "c", "entries_raised": [[["a", "c"], 0.4, 1.0], [["b", "c"], 0.0, 1.0]]}'
        ']}, "family": null, "output": ",a,b,c\\na,1,1,1\\nb,0,1,1\\nc,0,0,1\\n"}'
    )
    assert _report_text(["family", ORDER3], 0, capsys) == (
        '{"verdicts": {"zadeh_order": true}, "witnesses": null, "trace": null, '
        '"family": {"members": 4, "certificates": 5, "tags": [["orients(a,b)", "orients(b,c)"], '
        '["orients(b,a)"], ["orients(c,b)"], ["preserves(a,c)"]], "built": 5}}'
    )
    fam_dir = tmp_path / "family"
    assert run_command(["family", ORDER3, "-o", str(fam_dir)]) == 0
    member = fam_dir / "member_001.csv"
    assert member.read_text(encoding="utf-8") == ",a,b,c\na,1,0,0.4\nb,1,1,0.4\nc,0,0,1\n"
    member.write_text(",a,b,c\na,1,0,0.2\nb,1,1,0.4\nc,0,0,1\n", encoding="utf-8")
    capsys.readouterr()
    assert _report_text(["verify", ORDER3, "--family", str(fam_dir)], 1, capsys) == (
        '{"verdicts": {"intersection_matches": false}, "witnesses": [[["a", "c"], 0.2, 0.4]], '
        '"trace": null, "family": {"members": 4}}'
    )


def test_cli_is_thin_adapter(capsys, order7):
    """The linearize command must agree with a direct library call."""
    assert run_command(["linearize", ORDER7, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    direct = linearize(order7)
    assert payload["trace"]["k"] == direct.k
    assert payload["trace"]["m"] == direct.m
    assert payload["trace"]["pivots"] == [[s.a.label, s.b.label] for s in direct.trace]
    assert parse_matrix(payload["output"]) == direct.relation
