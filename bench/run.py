#!/usr/bin/env python3
"""pqlm benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload mcdoc-2k --seed 1 --seconds 44 --trace 0

The run generates a TREC collection from the seed, then repeats cycles
until the time budget is spent: build the query-ready artifacts with
``pqlm index`` / ``neighbors`` / ``cluster`` (``setup_s`` is the median
set-up), then make one whole ``pqlm run`` pass with cold caches.  It checks every run file and, for
the default seed, the recorded run digest and MAP.  Human-readable lines
come first; the last line of stdout is one JSON object.  With ``--trace 1``
it reports per-layer metrics instead, from one traced set-up and one traced
pass, plus the overhead against an untraced pass.

Everything it writes goes under ``.bench_work/`` at the repository root.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from probes import LogCounter, OpClock, Tracer, rebound  # noqa: E402
from workloads import DEPTH, WORKLOADS, Workload  # noqa: E402

DEFAULT_SEED = 1
# Set-ups and passes alternate, so that both are sampled across the whole
# run rather than in one stretch of it: each cycle sets up at least once and
# until SETUP_CYCLE_SECONDS are spent, then makes one cold pass.
MIN_CYCLES = 3
SETUP_CYCLE_SECONDS = 1.0
MIN_OPERATIONS = 100  # per pass, so that p90 has at least 10 beyond it
RECORDED = BENCH / "recorded.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a wrong output)."""


def import_pqlm() -> None:
    """Import pqlm from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "pqlm" / "__init__.py").is_file():
        raise BenchError(f"no pqlm sources under {src}")
    sys.path.insert(0, str(src))
    import pqlm

    if Path(pqlm.__file__).resolve().parent != (src / "pqlm").resolve():
        raise BenchError(f"imported pqlm from {pqlm.__file__}, not from {src}")


def cli(argv: list[str]) -> int:
    """`pqlm <argv>` in-process, its stdout discarded; returns the exit code."""
    from pqlm.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@dataclass
class Pass:
    run_s: float
    latencies: list[float]
    digest: str
    ok: bool


@dataclass
class Outcome:
    workload: Workload
    collection: gen.Collection
    setup: list[list[float]] = field(default_factory=list)  # per cycle
    passes: list[Pass] = field(default_factory=list)
    ops_per_pass: int = 0
    problems: list[str] = field(default_factory=list)
    maps: dict[str, float] = field(default_factory=dict)
    logs: LogCounter = field(default_factory=LogCounter)
    tracer: Tracer | None = None
    traced_setup_s: float = 0.0

    @property
    def attempted(self) -> int:
        return self.ops_per_pass * len(self.passes)

    @property
    def failed(self) -> int:
        return sum(self.ops_per_pass - len(p.latencies) for p in self.passes)

    @property
    def op_latencies(self) -> list[float]:
        """Each operation's mean time over the passes that completed."""
        done = [p.latencies for p in self.passes if p.ok]
        return [statistics.fmean(times) for times in zip(*done)]

    @property
    def digest(self) -> str:
        return self.passes[0].digest if self.passes else ""


def run_setup(workload: Workload, col: gen.Collection, work: Path) -> float:
    start = time.perf_counter()
    for argv in workload.setup_commands(col, work):
        code = cli(argv)
        if code != 0:
            raise BenchError(f"pqlm {argv[0]} exited with {code}")
    return time.perf_counter() - start


def run_pass(outcome: Outcome, work: Path) -> Pass:
    """One cold `pqlm run` of the experiment spec, timing each operation."""
    runs = work / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    clock = OpClock()
    with rebound(clock.targets()):
        start = time.perf_counter()
        try:
            code = cli(["run", str(work / "experiment.cfg"), "--threads", "1"])
        except Exception as exc:  # an uncaught pqlm error fails the pass, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - start
    ok = code == 0 and len(clock.latencies) == outcome.ops_per_pass
    if not ok:
        outcome.problems.append(
            f"pqlm run ended with {code} after {len(clock.latencies)} of "
            f"{outcome.ops_per_pass} operations")
    return Pass(run_s, clock.latencies, run_digest(runs), ok)


def run_digest(runs: Path) -> str:
    """sha256 over every run file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(runs.glob("*.run")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, expected: dict | None = None) -> Outcome:
    """Generate, set up and run one workload; `expected` holds the recorded
    run digest and MAP that the outputs must reproduce."""
    shutil.rmtree(work, ignore_errors=True)
    col = gen.generate(work, seed, workload.n_docs, workload.n_topics,
                       workload.word_forms)
    (work / "experiment.cfg").write_text(workload.spec_text(col))
    outcome = Outcome(workload, col, ops_per_pass=len(workload.systems) * col.n_topics)
    with outcome.logs.attached():
        if trace:
            measure_traced(outcome, work)
        else:
            deadline = time.perf_counter() + seconds
            while True:
                start = time.perf_counter()
                outcome.setup.append([])
                while True:
                    outcome.setup[-1].append(run_setup(workload, col, work))
                    if time.perf_counter() - start >= SETUP_CYCLE_SECONDS:
                        break
                done = run_pass(outcome, work)
                outcome.passes.append(done)
                if not done.ok:
                    break
                # another cycle only if it is expected to end in time
                cycle = time.perf_counter() - start
                if (len(outcome.passes) >= MIN_CYCLES
                        and time.perf_counter() + cycle > deadline):
                    break
    check_outputs(outcome, work, expected)
    return outcome


def measure_traced(outcome: Outcome, work: Path) -> None:
    """Traced set-up, then an untraced and a traced pass of the run phase."""
    tracer = outcome.tracer = Tracer()
    with rebound(tracer.targets()):
        with tracer.span("phase.setup"):
            outcome.traced_setup_s = run_setup(outcome.workload, outcome.collection, work)
    outcome.passes.append(run_pass(outcome, work))
    with rebound(tracer.targets()):
        with tracer.span("phase.run"):
            outcome.passes.append(run_pass(outcome, work))
    tracer.write_spans(work / "spans.jsonl")


def check_outputs(outcome: Outcome, work: Path, expected: dict | None) -> None:
    """Structural checks on every run file, MAP, and the recorded outputs."""
    from pqlm.evaluation import Qrels, evaluate_run, parse_run

    problems = outcome.problems
    if any(p.digest != outcome.digest for p in outcome.passes):
        problems.append("run files differ between passes")
    col = outcome.collection
    qids = {gen.topic_id(t) for t in range(col.n_topics)}
    docnos = {gen.docno(d) for d in range(col.n_docs)}
    qrels = Qrels.parse(col.qrels.read_text())
    for name, _method, _params in outcome.workload.systems:
        path = work / "runs" / f"{name}.run"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        text = path.read_text()
        problems.extend(f"{path.name}: {p}"
                        for p in check_run(text, qids, min(DEPTH, col.n_docs), docnos))
        outcome.maps[name] = evaluate_run(parse_run(text), qrels, DEPTH).mean_ap
        if not 0.0 < outcome.maps[name] < 1.0:
            problems.append(f"{name}: MAP {outcome.maps[name]} outside (0, 1)")
    if expected is not None:
        if expected["run_sha256"] != outcome.digest:
            problems.append(f"run digest {outcome.digest} != recorded "
                            f"{expected['run_sha256']}")
        for name, value in expected["map"].items():
            got = round(outcome.maps.get(name, -1.0), 6)
            if got != value:
                problems.append(f"{name}: MAP {got} != recorded {value}")


def check_run(text: str, qids: set[str], depth: int, docnos: set[str]) -> list[str]:
    """Every topic ranked to full depth: ranks 1..depth, scores nonincreasing,
    docnos unique and from the corpus, one tag."""
    rows: dict[str, list[list[str]]] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 6 or parts[1] != "Q0":
            return [f"malformed line {line!r}"]
        rows.setdefault(parts[0], []).append(parts)
    problems = []
    if set(rows) != qids:
        problems.append(f"{len(set(rows) ^ qids)} topics missing or unexpected")
    tags = {r[5] for rs in rows.values() for r in rs}
    if len(tags) != 1:
        problems.append(f"{len(tags)} run tags")
    for qid, rs in rows.items():
        scores = [float(r[4]) for r in rs]
        ranked = [r[2] for r in rs]
        if [int(r[3]) for r in rs] != list(range(1, depth + 1)):
            problems.append(f"topic {qid}: ranks are not 1..{depth}")
        elif any(b > a for a, b in zip(scores, scores[1:])):
            problems.append(f"topic {qid}: scores increase down the ranking")
        elif len(set(ranked)) != len(ranked) or not docnos.issuperset(ranked):
            problems.append(f"topic {qid}: duplicate or unknown docnos")
    return problems


# -- reporting ------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str]]:
    latencies = [t for p in outcome.passes for t in p.latencies]
    scoring_s = sum(latencies)
    per_op = outcome.op_latencies
    return {
        "setup_s": (statistics.median(map(statistics.fmean, outcome.setup)), "s"),
        "run_s": (statistics.median(p.run_s for p in outcome.passes), "s"),
        "queries_per_s": (len(latencies) / scoring_s if scoring_s else 0.0, "1/s"),
        "query_p50_ms": (1000 * percentile(per_op, 50), "ms"),
        "query_p90_ms": (1000 * percentile(per_op, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer(outcome: Outcome) -> dict[str, tuple[float, str]]:
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    stats = dict(outcome.tracer.stats)
    untraced, traced = (p.run_s for p in outcome.passes)
    stats.update({
        "trace.setup_s": outcome.traced_setup_s,
        "trace.untraced_run_s": untraced,
        "trace.run_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.spans": len(outcome.tracer.spans),
    })
    for key in ("pipeline.oov_warnings", "baselines.oov_warnings"):
        stats[key] = outcome.logs.counts[key]
    stats["log.records"] = sum(v for k, v in outcome.logs.counts.items()
                               if not k.endswith("oov_warnings"))
    return {m["name"]: (stats.get(m["name"], 0), m["unit"]) for m in declared}


def report(outcome: Outcome, seed: int, trace: bool) -> dict:
    w, col = outcome.workload, outcome.collection
    print(f"workload {w.name}  seed {seed}  docs {col.n_docs}  topics {col.n_topics}  "
          f"relevant {col.n_relevant}  oov topics {col.oov_queries}  "
          f"passes {len(outcome.passes)}  ops/pass {outcome.ops_per_pass}")
    metrics = per_layer(outcome) if trace else end_to_end(outcome)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if not trace:
        cycles = "; ".join(", ".join(f"{s:.3f}" for s in c) for c in outcome.setup)
        print(f"  set-ups per cycle: {cycles} s")
        print(f"  latency samples: {len(outcome.op_latencies)} operations, "
              f"each the mean of {len(outcome.passes)} passes")
    attempted = max(1, outcome.attempted)
    print(f"  {'failed_ratio':<40} {outcome.failed / attempted:>14.6g} "
          f"({outcome.failed}/{attempted})")
    print(f"  run sha256 {outcome.digest}")
    for name, value in outcome.maps.items():
        print(f"  MAP {name:<12} {value:.6f}")
    for key, count in sorted(outcome.logs.counts.items()):
        print(f"  log {key:<36} {count}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record_outputs(outcome: Outcome) -> None:
    """Store the default-seed digest and MAP that later runs must match."""
    data = json.loads(RECORDED.read_text()) if RECORDED.is_file() else {}
    data.setdefault("default_seed", DEFAULT_SEED)
    data.setdefault("outputs", {})[outcome.workload.name] = {
        "run_sha256": outcome.digest,
        "map": {k: round(v, 6) for k, v in outcome.maps.items()},
    }
    RECORDED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(BENCHMARK_JSON.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digest and MAP as the expected "
                             "default-seed outputs instead of checking them")
    args = parser.parse_args(argv)
    try:
        import_pqlm()
        if args.record and args.seed != DEFAULT_SEED:
            raise BenchError(f"--record needs the default seed {DEFAULT_SEED}")
        expected = None
        if args.seed == DEFAULT_SEED and not args.record:
            outputs = json.loads(RECORDED.read_text())["outputs"]
            if args.workload not in outputs:
                raise BenchError(f"{RECORDED.name} has no outputs for {args.workload}")
            expected = outputs[args.workload]
        outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), ROOT / ".bench_work" / args.workload,
                          expected)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.record:
        record_outputs(outcome)
    result = report(outcome, args.seed, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
