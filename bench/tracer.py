"""Spans around the calls into each layer of ``fuzzorder``, and the per-layer
metrics derived from them.

The tracer wraps every public function in the namespace of each library
module, under the name by which that module looks it up.  ``preserving``
imports ``linearize`` from ``extension``, so the wrapper installed as
``preserving.linearize`` sees every call that ``certifying_family`` and
``clamp_extend`` make, and gets a span whose parent is the caller's span.
The benchmark itself calls the library through module attributes
(``extension.linearize``), so its calls are wrapped the same way.

A span records its id, its parent's id, the operation it belongs to, the
name it was called by, the function it reached and its start and end in
nanoseconds.  Spans stay in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("relation", "extension", "preserving", "oracle", "matrixio", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, callee, start_ns, end_ns]
        self.counts: defaultdict = defaultdict(Counter)  # op -> work counts
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def operation(self, op: str, label: str):
        """Open the root span of one benchmark operation; returns its closer."""
        self._op = op
        return self._span(f"bench.{label}", f"bench.{label}")

    def count(self, key: str, amount: int) -> None:
        """Add to a work count of the current operation while the tracer is installed."""
        if self._patched:
            self.counts[self._op][key] += amount

    def _span(self, name: str, callee: str):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self._op, name, callee, time.perf_counter_ns(), None]
        self.spans.append(span)
        self._stack.append(span[0])

        def close():
            span[6] = time.perf_counter_ns()
            self._stack.pop()

        return close

    def _wrap(self, name: str, fn):
        callee = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        count = COUNTERS.get(callee)

        def traced(*args, **kwargs):
            close = self._span(name, callee)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if count is not None:
                count(self.counts[self._op], args, result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions each of ``modules`` looks up by name."""
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__.startswith("fuzzorder.")
                ):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write one JSON array per span, after a header line naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(["id", "parent", "op", "name", "callee", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def totals(self, ops: set) -> Counter:
        """Additive call counts, times and work counts of the given operations.

        Keys are ``calls:<callee>``, ``total_ns:<callee>``, ``self_ns:<callee>``
        and the work counts; self time is a span's duration minus the time its
        child spans cover.
        """
        spans = [s for s in self.spans if s[2] in ops]
        by_id = {s[0]: s for s in spans}
        covered: Counter = Counter()
        for _, parent, _, _, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for sid, parent, _, _, callee, start, end in spans:
            out["calls:" + callee] += 1
            out["total_ns:" + callee] += end - start
            out["self_ns:" + callee] += end - start - covered[sid]
            if callee == "extension.linearize" and _has_ancestor(
                by_id, parent, "preserving.certifying_family"
            ):
                out["linearize_in_family"] += 1
        for op in ops:
            out.update(self.counts[op])
        return out


def layer_metrics(t: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as (value, unit), from :meth:`Tracer.totals`."""

    def ms(key):
        return t[key] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "extension.linearize.calls": (t["calls:extension.linearize"], "count"),
        "extension.linearize.self_ms": (ms("self_ns:extension.linearize"), "ms"),
        "extension.pivot_extend.calls": (t["calls:extension.pivot_extend"], "count"),
        "extension.pivot_extend.self_ms": (ms("self_ns:extension.pivot_extend"), "ms"),
        "extension.pivots": (t["extension.pivots"], "count"),
        "extension.incomparable_entries": (t["extension.incomparable_entries"], "count"),
        "extension.entries_raised": (t["extension.entries_raised"], "count"),
        "extension.us_per_pivot": (
            ratio(t["self_ns:extension.linearize"] / 1e3, t["extension.pivots"]), "us"),
        "preserving.certifying_family.self_ms": (
            ms("self_ns:preserving.certifying_family"), "ms"),
        "preserving.clamp_extend.calls": (t["calls:preserving.clamp_extend"], "count"),
        "preserving.clamp_extend.self_ms": (ms("self_ns:preserving.clamp_extend"), "ms"),
        "preserving.verify_intersection.ms": (ms("total_ns:preserving.verify_intersection"), "ms"),
        "preserving.members_built": (t["preserving.members_built"], "count"),
        "preserving.members_kept": (t["preserving.members_kept"], "count"),
        "preserving.dedup_ratio": (
            ratio(t["preserving.members_kept"], t["preserving.members_built"]), "ratio"),
        "preserving.linearize_per_family": (
            ratio(t["linearize_in_family"], t["calls:preserving.certifying_family"]),
            "calls/family"),
        "relation.check_order.calls": (t["calls:relation.check_order"], "count"),
        "relation.check_order.ms": (ms("total_ns:relation.check_order"), "ms"),
        "relation.witnesses": (t["relation.witnesses"], "count"),
        "relation.incomparable_pairs.ms": (ms("total_ns:relation.incomparable_pairs"), "ms"),
        "relation.is_linear.ms": (ms("total_ns:relation.is_linear"), "ms"),
        "relation.pointwise_inf.ms": (ms("total_ns:relation.pointwise_inf"), "ms"),
        "matrixio.parse_matrix.ms": (ms("total_ns:matrixio.parse_matrix"), "ms"),
        "matrixio.emit_matrix.ms": (ms("total_ns:matrixio.emit_matrix"), "ms"),
        "matrixio.bytes_read": (t["matrixio.bytes_read"], "bytes"),
        "matrixio.bytes_written": (t["matrixio.bytes_written"], "bytes"),
        "cli.run_command.self_ms": (ms("self_ns:cli.run_command"), "ms"),
        "cli.report_bytes": (t["cli.report_bytes"], "bytes"),
        "oracle.random_zadeh_order.calls": (t["calls:oracle.random_zadeh_order"], "count"),
        "oracle.random_zadeh_order.ms": (ms("total_ns:oracle.random_zadeh_order"), "ms"),
    }


def _has_ancestor(by_id: dict, sid, callee: str) -> bool:
    while sid is not None:
        span = by_id[sid]
        if span[4] == callee:
            return True
        sid = span[1]
    return False


# Work counts read off arguments and results at the layer boundary.


def _count_linearize(counts, args, result):
    counts["extension.pivots"] += result.k
    counts["extension.incomparable_entries"] += result.m
    counts["extension.entries_raised"] += sum(len(step.entries_raised) for step in result.trace)


def _count_family(counts, args, result):
    # Each candidate member carries exactly one certificate tag, and merging
    # bit-identical members merges their tags, so the tags count the members built.
    counts["preserving.members_built"] += result.certificate_count
    counts["preserving.members_kept"] += len(result)


def _count_check_order(counts, args, result):
    counts["relation.witnesses"] += (
        len(result.reflexivity_witnesses)
        + len(result.antisymmetry_witnesses)
        + len(result.transitivity_witnesses)
    )


def _count_parse(counts, args, result):
    counts["matrixio.bytes_read"] += len(args[0].encode("utf-8"))


def _count_emit(counts, args, result):
    counts["matrixio.bytes_written"] += len(result.encode("utf-8"))


COUNTERS = {
    "extension.linearize": _count_linearize,
    "preserving.certifying_family": _count_family,
    "relation.check_order": _count_check_order,
    "matrixio.parse_matrix": _count_parse,
    "matrixio.emit_matrix": _count_emit,
}
