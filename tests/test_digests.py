"""Standing output digests: one SHA-256 per area over a fixed set of inputs.

Each constant hashes what the package returns on those inputs: grids as
explicit little-endian doubles (``'<f8'``), everything else as ``repr``s, so
the digests depend neither on ``hash()`` nor on the platform's byte order.
A change that alters an output on purpose updates the one constant of its
area and says so in CHANGES.md; any other change leaves all four as they are.
"""

import hashlib
import itertools
import json
import shutil

import numpy as np

from fuzzorder import (
    FuzzyRelation,
    certifying_family,
    check_order,
    clamp_extend,
    linearize,
    load_matrix,
    pivot_extend,
)
from fuzzorder.cli import run_command
from fuzzorder.relation import _incomparable

from conftest import FIXTURES, ORDER3_GRID, ORDER4_GRID, ORDER7_GRID
from conftest import ORDER3_LABELS, ORDER4_LABELS, ORDER7_LABELS
from genutil import block_sums, subnormal_regrade, tight_regrade

PIVOT_DIGEST = "7af6f70240f0e00357d2be92bd14b8a39905b6a27eb0fe63e8ae95f2dbb1756c"
LINEARIZE_DIGEST = "772f8770e6aa7cf17602125ac9b4d30b184402a4a4fc0de55b77b290b20f273f"
FAMILY_DIGEST = "7d2f17e83e1d96b2d6ce165ccc5adcda20a558c551bbd42c96dd0ee71038d61d"
CLI_DIGEST = "cb99b945015845ceebc2e285006564c941fa7dbe3d8ed392278d39ba8efde27d"


class _Digest:
    def __init__(self):
        self._sha = hashlib.sha256()

    def relation(self, r):
        self.value(r.labels)
        self._sha.update(np.asarray(r.grid, dtype="<f8").tobytes())

    def value(self, v):
        self._sha.update(repr(v).encode())

    def hexdigest(self):
        return self._sha.hexdigest()


def _goldens():
    return [
        FuzzyRelation(ORDER3_LABELS, ORDER3_GRID),
        FuzzyRelation(ORDER4_LABELS, ORDER4_GRID),
        FuzzyRelation(ORDER7_LABELS, ORDER7_GRID),
    ]


def _three_point_orders():
    # The 79 orders among the relations on three points with a unit diagonal
    # and off-diagonal grades in {0, 1/2, 1}.
    rows, cols = np.nonzero(~np.eye(3, dtype=bool))
    relations = []
    for grades in itertools.product((0.0, 0.5, 1.0), repeat=len(rows)):
        grid = np.eye(3)
        grid[rows, cols] = grades
        relations.append(FuzzyRelation(("a", "b", "c"), grid))
    return [r for r in relations if check_order(r).is_order]


def _regraded(orders):
    # Each order, then its tight and its subnormal regrade.
    return [s for r in orders for s in (r, tight_regrade(r), subnormal_regrade(r))]


def _override(r):
    # The fixed override list: every third incomparable pair, in row-major
    # order, put the other way round.
    i, j = _incomparable(r.grid).nonzero()
    return [(r.labels[b], r.labels[a]) for a, b in list(zip(i.tolist(), j.tolist()))[::3]]


def test_pivot_digest():
    """Every legal pivot_extend of the goldens and of the 79 three-point orders."""
    orders = _goldens() + _three_point_orders()
    assert len(orders) == 82
    digest = _Digest()
    for r in orders:
        for a, b in np.argwhere(r.grid.T == 0.0).tolist():
            digest.value((a, b))
            digest.relation(pivot_extend(r, a, b))
    assert digest.hexdigest() == PIVOT_DIGEST


def test_linearize_digest():
    """Grid, k, m, pivots and every step's entries_raised under "low", "high"
    and an override list: the goldens and the block sums up to n = 96, and
    the tight and subnormal regrades of those up to n = 48."""
    sums = [r for r in block_sums() if r.n <= 96]
    orders = _regraded(_goldens() + [r for r in sums if r.n <= 48]) + [r for r in sums if r.n > 48]
    assert len(orders) == 23
    digest = _Digest()
    for r in orders:
        for policy in ("low", "high", _override(r)):
            result = linearize(r, policy)
            digest.relation(result.relation)
            digest.value((result.k, result.m))
            digest.value([(s.a.label, s.b.label, s.step_index) for s in result.trace])
            digest.value([s.entries_raised for s in result.trace])
    assert digest.hexdigest() == LINEARIZE_DIGEST


def test_family_digest():
    """Members' grids and tags in order, ``built``, and clamp_extend on every
    positive pair: the goldens and the block sums up to n = 24, each also
    regraded, and the 79 three-point orders."""
    small = [r for r in block_sums() if r.n <= 24]
    orders = _regraded(_goldens() + small) + _three_point_orders()
    digest = _Digest()
    for r in orders:
        family = certifying_family(r)
        digest.value((len(family), family.built))
        for member in family:
            digest.value(member.tags)
            digest.relation(member.relation)
        positive = r.grid > 0.0
        np.fill_diagonal(positive, False)
        for a, b in np.argwhere(positive).tolist():
            clamp = clamp_extend(r, a, b)
            digest.value((clamp.beta, clamp.preserved_pair))
            digest.relation(clamp.base)
            digest.relation(clamp.relation)
    assert digest.hexdigest() == FAMILY_DIGEST


def _fixture_commands(names):
    # For each fixture: check, linearize (both policies, traced), a legal and
    # an illegal pivot, a clamp at a positive and at a zero grade, family
    # written out and verified; then gen and a missing input.
    commands = []
    for name in names:
        r, _ = load_matrix(FIXTURES / name)
        g, tag = r.grid, name.replace(".", "_")
        off = ~np.eye(r.n, dtype=bool)
        legal = np.argwhere(g.T == 0.0).tolist()
        illegal = np.argwhere((g.T > 0.0) & off).tolist()
        zero = np.argwhere(g == 0.0).tolist()
        positive = np.argwhere((g > 0.0) & off).tolist()
        pair = lambda ab: ["--a", r.labels[ab[0]], "--b", r.labels[ab[1]]]
        commands += [
            ["check", name],
            ["linearize", name, "--trace"],
            ["linearize", name, "--policy", "high", "--trace", "-o", f"lin_{tag}.csv"],
            ["pivot", name, *pair(legal[len(legal) // 2])],
            ["pivot", name, *pair(illegal[0]), "-o", f"bad_{tag}.csv"],
            ["family", name, "-o", f"fam_{tag}"],
            ["verify", name, "--family", f"fam_{tag}"],
        ]
        if positive:
            commands.append(["clamp", name, *pair(positive[-1]), "--format", "json"])
        if zero:
            commands.append(["clamp", name, *pair(zero[0])])
    commands += [
        ["gen", "--n", "6", "--density", "0.5", "--seed", "3", "-o", "gen.json"],
        ["gen", "--n", "5", "--density", "0.7", "--seed", "11"],
        ["check", "missing.csv"],
    ]
    return commands


def test_cli_digest(tmp_path, monkeypatch, capsys):
    """Exit code, stdout and stderr of the fixture commands, in human and
    --json mode (``timing`` masked), then every file they wrote; run in a
    temporary directory on relative paths."""
    names = sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".csv", ".json"))
    for name in names:
        shutil.copy(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    digest = _Digest()
    for argv in _fixture_commands(names):
        for mode in ([], ["--json"]):
            code = run_command(argv + mode)
            out, err = capsys.readouterr()
            if mode and out:
                report = json.loads(out)
                report["timing"] = None
                out = json.dumps(report)
            digest.value((argv + mode, code, out, err))
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.value(path.relative_to(tmp_path).as_posix())
        digest.value(path.read_bytes())
    assert digest.hexdigest() == CLI_DIGEST
