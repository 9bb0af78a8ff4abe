"""Closed-loop benchmark of fuzzorder: one workload per run.

    python3 bench/run.py --workload linearize-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process and one client thread send each operation only when the last
one has finished.  A run sets the workload up several times (import the
library, generate the inputs, write the input files), runs one warm-up round,
then repeats whole rounds of the same operations until ``--seconds`` have
passed and at least 100 operations have succeeded.  Operations are timed in
CPU time and scaled to a nominal machine speed by a reference workload timed
between them (``speed.py``); the metrics come from each operation's median
over the rounds.  Every output is checked independently of the library.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates untraced and traced rounds, reports the per-layer metrics of one
set-up plus the average traced round, and writes every span to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from speed import Speed
from tracer import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, OperationFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 7
MIN_SAMPLES = 100
HARD_STOP_S = 150.0  # stop starting rounds, whatever the sample count, to end within 180 s
# Operations and set-ups are timed in CPU time of this process.  The program is
# single-threaded, so on an idle machine that is its latency; on a shared host
# wall time also counts the spells in which other tenants hold the core.
CLOCK_NS = time.process_time_ns


def import_library() -> SimpleNamespace:
    """Import ``fuzzorder`` from this checkout afresh, discarding earlier imports."""
    for name in [m for m in sys.modules if m == "fuzzorder" or m.startswith("fuzzorder.")]:
        del sys.modules[name]
    package = importlib.import_module("fuzzorder")
    if Path(package.__file__).resolve().parent != SRC / "fuzzorder":
        raise ImportError(f"fuzzorder was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"fuzzorder.{layer}") for layer in LAYERS})


class Run:
    """Attempt, failure and problem counts of one run."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: Counter = Counter()

    def round(self, ops, tracer, round_id) -> list[int | None]:
        """Run every operation once; returns each latency in ns, None if it failed.

        Each latency is scaled by the reference times taken around the
        operation (see speed.py)."""
        latencies = []
        marks = [self.speed.mark()]
        for index, op in enumerate(ops):
            close = tracer.operation(f"{round_id}.{index}", op.label) if tracer else None
            self.attempted += 1
            start = CLOCK_NS()
            try:
                out = op.run()
            except Exception as exc:  # a fault in the program is a failed operation
                latency = None
                problem, failed = f"{type(exc).__name__}: {exc}", True
            else:
                latency = CLOCK_NS() - start
                try:
                    problem, failed = op.check(out), False
                except OperationFailed as exc:
                    latency, problem, failed = None, str(exc), True
            finally:
                if close:
                    close()
            if failed:
                self.failed += 1
            elif problem:
                self.wrong += 1
            if problem:
                self.problems[f"{'failed' if failed else 'WRONG'} {op.label}: {problem}"] += 1
            latencies.append(latency)
            marks.append(self.speed.mark())
        return [None if lat is None else lat * scale
                for lat, scale in zip(latencies, self.speed.scales(marks))]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    build = WORKLOADS[workload]
    setup_times = []
    speed = Speed(CLOCK_NS, workload)
    workdir = None
    try:
        for _ in range(1 if trace else SETUPS):
            if workdir:
                shutil.rmtree(workdir)
            gc.collect()  # start each set-up from the same collector state
            before = speed.mark()
            t0 = CLOCK_NS()
            lib = import_library()
            if tracer:
                tracer.install(vars(lib))
                close = tracer.operation("setup", "setup")
            workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
            ops = build(lib, seed, workdir, tracer.count if tracer else None)
            setup_ns = CLOCK_NS() - t0
            if tracer:
                close()
                tracer.uninstall()
            setup_times.append(setup_ns * speed.scales([before, speed.mark()])[0] / 1e9)

        run = Run(speed)
        run.round(ops, None, "warmup")
        rounds = []  # (traced, latencies)
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            samples = sum(lat is not None for _, lats in rounds for lat in lats)
            traced_rounds = sum(t for t, _ in rounds)
            if (elapsed >= seconds and samples >= MIN_SAMPLES and (traced_rounds or not trace)) \
                    or time.perf_counter() - started > HARD_STOP_S:
                break
            traced = trace and len(rounds) % 2 == 1
            if traced:
                tracer.install(vars(lib))
            try:
                rounds.append((traced, run.round(ops, tracer if traced else None, f"r{len(rounds)}")))
            finally:
                if traced:
                    tracer.uninstall()
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    for line, times in run.problems.items():
        print(f"{line} (x{times})", file=sys.stderr)
    samples = sum(lat is not None for _, lats in rounds for lat in lats)
    busy = [sum(lat for lat in lats if lat is not None) for _, lats in rounds]
    typical = {}  # each completed operation's median latency over the rounds
    for index, op in enumerate(ops):
        op_lats = [lats[index] for _, lats in rounds if lats[index] is not None]
        if op_lats:
            typical[op.label] = statistics.median(op_lats)
    print(
        f"{workload} seed {seed}: {len(rounds)} rounds of {len(ops)} operations, "
        f"{samples} latency samples, {run.failed} failed, {run.wrong} wrong",
        file=sys.stderr,
    )

    print(f"  reference_work median {statistics.median(speed.samples) / 1e6:.3f} ms over "
          f"{len(speed.samples)} calls", file=sys.stderr)
    print("  setup ms:", [round(t * 1e3, 1) for t in setup_times], file=sys.stderr)
    print("  round ms:", [round(b / 1e6) for b in busy], file=sys.stderr)
    for label, latency in typical.items():
        print(f"  {label}: median {latency / 1e6:.3f} ms", file=sys.stderr)

    if trace:
        traced_ops = {f"r{i}.{j}" for i, (t, _) in enumerate(rounds) if t for j in range(len(ops))}
        n_traced = sum(t for t, _ in rounds)
        per_round = tracer.totals(traced_ops)
        totals = tracer.totals({"setup"}) + Counter({k: v / n_traced for k, v in per_round.items()})
        metrics = {name: (int(v) if float(v).is_integer() else v, unit)
                   for name, (v, unit) in layer_metrics(totals).items()}
        # Rounds alternate untraced, traced; compare each traced round with the one before it.
        overhead = statistics.median(t - u for u, t in zip(busy[0::2], busy[1::2]))
        metrics["trace.overhead_s"] = (overhead / 1e9, "s")
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        # Medians per operation before the mix's percentiles, so that a round
        # slowed by a neighbour moves no operation past another.
        mix = sorted(typical.values())
        metrics = {
            "ops_per_s": (len(mix) / sum(mix) * 1e9, "operations/s"),
            "op_p50_ms": (statistics.median(mix) / 1e6, "ms"),
            "op_p90_ms": (statistics.quantiles(mix, n=10)[8] / 1e6, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzorder" / "__init__.py").is_file():
        print(f"error: no fuzzorder sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
