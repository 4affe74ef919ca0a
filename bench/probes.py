"""Measurement hooks the benchmark installs around pqlm's public functions.

Nothing here edits pqlm: every probe rebinds a public function or method
for the duration of a ``with`` block and restores it afterwards.

* :class:`OpClock` times each operation (one system ranking one topic,
  including ``format_run_lines``) for the end-to-end latency metrics.  It
  is the only hook active in an untraced run.
* :class:`Tracer` records spans at coarse layer boundaries and aggregated
  calls and self time at hot leaves, for the per-layer metrics.
* :class:`LogCounter` captures the library's ``pqlm.*`` log records.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import logging
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

perf_counter = time.perf_counter


def _pqlm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pqlm" or name.startswith("pqlm."))]


@contextlib.contextmanager
def rebound(targets):
    """Rebind ``(owner, attr, make_wrapper)`` triples inside the block.

    A module-level function is also rebound in every ``pqlm`` module that
    imported it by name, so callers reach the wrapper whichever module they
    look it up in.  ``pqlm.cli`` imports every module, so it is imported
    first: a module imported inside the block would keep the wrapper.  Class
    attributes keep their descriptor kind (classmethod, property).
    """
    importlib.import_module("pqlm.cli")
    undo = []
    try:
        for owner, attr, make in targets:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            elif isinstance(raw, property):
                new = property(make(raw.fget))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
            if not isinstance(owner, type):
                for module in _pqlm_modules():
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, name, new)
                            undo.append((module, name, raw))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


class OpClock:
    """Latency of each operation: scorer entry to its run lines formatted.

    Nested scorer calls (the relevance model ranks its feedback documents
    with ``lm_baseline``) belong to the outer operation.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self._depth = 0
        self._start = 0.0

    def _scorer(self, fn):
        def scorer(*args, **kwargs):
            if self._depth == 0:
                self._start = perf_counter()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return scorer

    def _formatter(self, fn):
        def formatter(*args, **kwargs):
            lines = fn(*args, **kwargs)
            self.latencies.append(perf_counter() - self._start)
            return lines
        return formatter

    def targets(self):
        import pqlm.baselines
        import pqlm.pipeline

        return [(pqlm.pipeline, "run_retrieval", self._scorer),
                (pqlm.baselines, "lm_baseline", self._scorer),
                (pqlm.baselines, "rocchio_rank", self._scorer),
                (pqlm.baselines, "relevance_model_rank", self._scorer),
                (pqlm.pipeline, "format_run_lines", self._formatter)]


class Tracer:
    """Spans (name, start, end, parent, query id) and per-name aggregates.

    Every wrapped call adds to ``<name>.calls`` and to ``<name>.s``, its
    self time: its duration minus the time spent in wrapped calls it made
    on the same thread.  Each thread keeps its own call stack, so a worker
    thread's calls start without a parent and add nothing to the caller
    that waits for them.  Only calls wrapped with ``span=True`` are kept as
    spans; hot leaves are aggregated only.
    """

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def query_id(self) -> str | None:
        return getattr(self._local, "query_id", None)

    @query_id.setter
    def query_id(self, value: str | None) -> None:
        self._local.query_id = value

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.stats[key] += amount

    def _enter(self, name: str, span: bool) -> list:
        stack = self._stack()
        parent = stack[-1][1] if stack else None
        index = None
        if span:
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.query_id])
        # [child seconds, nearest span index, own span index, start]
        frame = [0.0, parent if index is None else index, index, perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        elapsed = perf_counter() - frame[3]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.stats[name + ".calls"] += 1
            self.stats[name + ".s"] += elapsed - frame[0]
            if frame[2] is not None:
                self.spans[frame[2]][1:3] = [frame[3], frame[3] + elapsed]

    def timed(self, name: str, fn, span: bool = False, query_arg: bool = False):
        """Wrap fn; with query_arg its first argument is the Query served."""
        def wrapper(*args, **kwargs):
            outer_query = self.query_id
            if query_arg:
                self.query_id = args[0].query_id
            frame = self._enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
                self.query_id = outer_query
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame)

    def counted_postings(self, name: str):
        """Postings lookups, counting the calls that found their term unbuilt.

        Two threads that miss the same term at once both build it, and
        both count.
        """
        def make(fn):
            def postings(owner, term):
                cache = getattr(owner, "_postings", None)
                if isinstance(cache, dict) and term not in cache:
                    self.add(f"{name}.terms_built", 1)
                return fn(owner, term)
            return self.timed(name, postings)
        return make

    def targets(self):
        import pqlm.baselines as baselines
        import pqlm.clustering as clustering
        import pqlm.corpus as corpus
        import pqlm.drift as drift
        import pqlm.evaluation as evaluation
        import pqlm.lm as lm
        import pqlm.pipeline as pipeline
        import pqlm.porter as porter
        import pqlm.scoring as scoring
        import pqlm.storage as storage

        def t(name, span=False, query_arg=False):
            return lambda fn: self.timed(name, fn, span, query_arg)

        def with_bytes(name, size):
            def make(fn):
                def call(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    self.add(f"{name}.bytes", size(args))
                    return result
                return self.timed(name, call, span=True)
            return make

        def file_size(args):
            return os.path.getsize(args[1])

        def member_rendition(fn):
            def call(index, cluster_id, corpus_):
                memo = getattr(index, "_member_scores", None)
                if isinstance(memo, dict) and cluster_id in memo:
                    self.add("clustering.member_rendition.hits", 1)
                return fn(index, cluster_id, corpus_)
            return self.timed("clustering.member_rendition", call)

        def scorer(name):
            def make(fn):
                def call(pq, *args, **kwargs):
                    first = list(pq.items) == [lm.QUERY_ID]
                    key = "round1" if first else "round2"
                    self.add(f"scoring.pseudo_queries.{key}", sum(1 for _ in pq.active()))
                    return fn(pq, *args, **kwargs)
                return self.timed(name, call, span=True)
            return make

        return [
            (corpus, "parse_trec", t("corpus.parse_trec", span=True)),
            (corpus, "build_corpus", t("corpus.build_corpus", span=True)),
            (porter, "stem", t("porter.stem")),
            (corpus.Corpus, "postings", self.counted_postings("corpus.postings")),
            (corpus.Corpus, "content_hash", t("corpus.content_hash")),
            (corpus.Corpus, "save", t("corpus.save", span=True)),
            (corpus.Corpus, "load", t("corpus.load", span=True)),
            (storage, "atomic_write",
             with_bytes("storage.atomic_write", lambda a: len(a[1]))),
            (lm, "log_rendition_docs", t("lm.log_rendition_docs")),
            (lm, "precompute_neighbors", t("lm.precompute_neighbors", span=True)),
            (lm.NeighborIndex, "save", with_bytes("lm.NeighborIndex.save", file_size)),
            (lm.NeighborIndex, "load", with_bytes("lm.NeighborIndex.load", file_size)),
            (clustering, "build_clusters", t("clustering.build_clusters", span=True)),
            (clustering.ClusterIndex, "load", t("clustering.ClusterIndex.load", span=True)),
            (clustering.ClusterIndex, "postings", self.counted_postings("clustering.postings")),
            (clustering.ClusterIndex, "member_rendition", member_rendition),
            (scoring, "score_mcdoc", scorer("scoring.score_mcdoc")),
            (scoring, "score_mccluster", scorer("scoring.score_mccluster")),
            (scoring, "log_rendition_clusters", t("scoring.log_rendition_clusters")),
            (drift, "interpolate", t("drift.interpolate", span=True)),
            (pipeline, "run_retrieval", t("pipeline.run_retrieval", span=True, query_arg=True)),
            (pipeline, "format_run_lines", t("pipeline.format_run_lines", span=True)),
            (baselines, "lm_baseline", t("baselines.lm_baseline", span=True, query_arg=True)),
            (baselines, "rocchio_rank", t("baselines.rocchio_rank", span=True, query_arg=True)),
            (baselines, "relevance_model_rank",
             t("baselines.relevance_model_rank", span=True, query_arg=True)),
            (evaluation, "parse_run", t("evaluation.parse_run", span=True)),
            (evaluation, "evaluate_run", t("evaluation.evaluate_run", span=True)),
            (evaluation, "format_report", t("evaluation.format_report", span=True)),
        ]

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; times are seconds since the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "query": qid}) + "\n")


class LogCounter(logging.Handler):
    """Counts ``pqlm.*`` records instead of letting them reach stderr."""

    def __init__(self):
        super().__init__()
        self.counts: Counter[str] = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        module = record.name.removeprefix("pqlm.")
        self.counts[f"{module}.{record.levelname.lower()}"] += 1
        if "out-of-vocabulary" in str(record.msg):
            self.counts[f"{module}.oov_warnings"] += 1

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger("pqlm")
        logger.addHandler(self)
        propagate, logger.propagate = logger.propagate, False
        try:
            yield self
        finally:
            logger.propagate = propagate
            logger.removeHandler(self)
