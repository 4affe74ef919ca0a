"""Tests of the benchmark itself: generator, metric names, probes and a
tiny end-to-end configuration of every workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
from probes import OpClock, Tracer, rebound  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], n_docs=150, n_topics=8)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("word_forms", [False, True])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, word_forms):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.generate(tmp_path / name, seed, 120, 9, word_forms)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert set(a) == set(c)
    assert a["docs.trec"] != c["docs.trec"]
    assert a["topics.txt"] != c["topics.txt"]
    assert a["qrels.txt"] != c["qrels.txt"]


@pytest.mark.parametrize("word_forms", [False, True])
def test_generated_collection_parses_and_queries_are_in_vocabulary(tmp_path, word_forms):
    run.import_pqlm()
    from pqlm import PreprocessOptions, build_corpus, parse_topics, parse_trec

    col = gen.generate(tmp_path, 3, 200, 30, word_forms)
    docs = parse_trec(col.docs.read_bytes())
    assert len(docs) == col.n_docs == 200
    topics = parse_topics(col.topics.read_text())
    assert [q for q, _ in topics] == [gen.topic_id(t) for t in range(30)]
    assert len(col.qrels.read_text().splitlines()) == col.n_relevant
    opts = (PreprocessOptions(stemmer="porter", stoplist=frozenset(gen.STOPWORDS))
            if word_forms else PreprocessOptions())
    corpus = build_corpus(docs, opts)
    oov = 0
    for qid, title in topics:
        words = title.split()
        assert 2 <= len(words) <= 5
        known = [w for w in words if not w.startswith("qx")]
        oov += len(words) - len(known)
        assert len(known) >= 2
        assert all(t in corpus.vocabulary
                   for t in corpus.preprocess_query(qid, " ".join(known)).terms)
    assert oov == col.oov_queries


def test_metric_names_and_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_every_workload_has_enough_operations_for_p90():
    for w in WORKLOADS.values():
        assert len(w.systems) * w.n_topics >= run.MIN_OPERATIONS, w.name


def test_op_latencies_average_each_operation_over_passes():
    outcome = run.Outcome(WORKLOADS["mcdoc-2k"], None, ops_per_pass=3)
    outcome.passes = [run.Pass(1.0, [1.0, 2.0, 3.0], "d", True),
                      run.Pass(1.0, [3.0, 2.0, 1.0], "d", True),
                      run.Pass(1.0, [5.0], "d", False)]
    assert outcome.op_latencies == [2.0, 2.0, 2.0]
    assert outcome.attempted == 9 and outcome.failed == 2


def test_tracer_self_time():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)], span=True)
    with tracer.span("root"):
        outer()
    s = tracer.stats
    assert s["inner.calls"] == 3 and s["outer.calls"] == 1
    total = s["root.s"] + s["outer.s"] + s["inner.s"]
    root = next(sp for sp in tracer.spans if sp[0] == "root")
    assert total == pytest.approx(root[2] - root[1])
    assert [sp[3] for sp in tracer.spans] == [None, 0]  # outer's parent is root


def test_tracer_keeps_one_stack_per_thread():
    # sleeps release the GIL, so the two workers' calls interleave
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: time.sleep(0.02))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    walls = []

    def worker():
        start = time.perf_counter()
        outer()
        walls.append(time.perf_counter() - start)

    with tracer.span("root"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: worker(), range(2)))
    s = tracer.stats
    root = tracer.spans[0]
    assert s["inner.calls"] == 6 and s["outer.calls"] == 2
    # the waiting thread owns all of its time; each worker's self times add
    # up to that worker's wall time
    assert s["root.s"] == pytest.approx(root[2] - root[1])
    assert s["outer.s"] + s["inner.s"] == pytest.approx(sum(walls), rel=0.01)
    assert 0 < s["outer.s"] < s["inner.s"]


def test_traced_threaded_neighbours():
    run.import_pqlm()
    import pqlm.lm as lm
    from pqlm import PreprocessOptions, build_corpus

    corpus = build_corpus([(f"d{i}", f"solar wind power grid {'x' * (i + 1)} y{i % 3}")
                           for i in range(300)], PreprocessOptions())
    tracer = Tracer()
    with rebound(tracer.targets()):
        start = time.perf_counter()
        expected = lm.precompute_neighbors(corpus, 5, 50.0, threads=2).neighbors
        wall = time.perf_counter() - start
    s = tracer.stats
    assert s["lm.log_rendition_docs.calls"] == 300
    # the calling thread only waits: its self time is its wall time
    assert s["lm.precompute_neighbors.s"] == pytest.approx(wall, rel=0.1)
    workers = s["lm.log_rendition_docs.s"] + s["corpus.postings.s"]
    assert 0 < workers <= 2 * wall
    assert s["corpus.postings.terms_built"] >= len(corpus.vocabulary)
    assert lm.precompute_neighbors(corpus, 5, 50.0, threads=1).neighbors == expected


def test_op_clock_times_whole_operations_and_restores():
    run.import_pqlm()
    import pqlm.baselines
    import pqlm.cli
    import pqlm.pipeline
    from pqlm import PreprocessOptions, build_corpus

    corpus = build_corpus([(f"d{i}", f"solar wind power grid {'x' * (i + 1)}")
                           for i in range(6)], PreprocessOptions())
    query = corpus.preprocess_query("q1", "solar power")
    original = pqlm.pipeline.run_retrieval
    clock = OpClock()
    with rebound(clock.targets()):
        assert pqlm.cli.run_retrieval is pqlm.pipeline.run_retrieval is not original
        # the relevance model calls lm_baseline inside: still one operation
        ranking = pqlm.baselines.relevance_model_rank(query, corpus, 2, 0.5, 0, 50.0, 6)
        pqlm.pipeline.format_run_lines("q1", ranking, corpus, "t")
    assert len(clock.latencies) == 1 and clock.latencies[0] > 0
    assert pqlm.cli.run_retrieval is pqlm.pipeline.run_retrieval is original


def test_rebound_leaves_no_wrapper_behind_in_a_fresh_process():
    # pqlm.cli imported for the first time inside a traced block must not
    # keep the tracer's wrappers once the block ends
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; run.import_pqlm()\n"
        "from probes import Tracer, rebound\n"
        "import pqlm.pipeline; original = pqlm.pipeline.run_retrieval\n"
        "with rebound(Tracer().targets()):\n"
        "    import pqlm.cli\n"
        "assert pqlm.cli.run_retrieval is original\n")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_check_run_catches_bad_rankings():
    docnos = {gen.docno(d) for d in range(10)}
    good = "\n".join(f"101 Q0 {gen.docno(d)} {d + 1} {1 - d / 10:.6f} t" for d in range(3))
    assert run.check_run(good, {"101"}, 3, docnos) == []
    assert run.check_run(good.replace("0.900000", "1.500000"), {"101"}, 3, docnos)
    assert run.check_run(good, {"101", "102"}, 3, docnos)
    assert run.check_run(good, {"101"}, 4, docnos)
    assert run.check_run(good.replace("BM-000002", "BM-000001"), {"101"}, 3, docnos)
    assert run.check_run(good.replace("BM-000002", "BM-000099"), {"101"}, 3, docnos)


def test_tiny_workloads_run_end_to_end(tmp_path):
    run.import_pqlm()
    layer = {}
    for name in WORKLOADS:
        outcome = run.measure(tiny(name), 5, 0.0, False, tmp_path / name)
        assert outcome.problems == [], outcome.problems
        assert outcome.attempted >= 8 and outcome.failed == 0
        metrics = run.end_to_end(outcome)
        assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(value > 0 for value, _ in metrics.values())

        traced = run.measure(tiny(name), 5, 0.0, True, tmp_path / f"{name}-trace")
        assert traced.problems == [] and traced.digest == outcome.digest
        assert (tmp_path / f"{name}-trace" / "spans.jsonl").is_file()
        for metric, (value, _unit) in run.per_layer(traced).items():
            layer[metric] = layer.get(metric, 0) or value
    # every declared layer metric is measured by at least one workload
    silent = [m for m, v in layer.items() if not v and not m.endswith("oov_warnings")]
    assert silent == []


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mcdoc-2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "no pqlm sources" in proc.stderr
    assert proc.stdout == ""
