"""The iterative retrieval driver: rounds, pseudo-query construction,
round-1 privileged spread, and TREC run emission.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterIndex
from .corpus import Corpus, Query
from .drift import DriftTechnique
from .lm import log_rendition_docs
from .scoring import PseudoQueryList, ScoredRanking, score_mccluster, score_mcdoc, score_vdoc

log = logging.getLogger(__name__)

METHODS = ("vdoc", "mcdoc", "mccluster")


@dataclass(frozen=True)
class RunConfig:
    """Every free parameter of one retrieval system."""

    method: str = "mcdoc"
    alpha: int = 10
    alpha1: int | None = None       # round-1 spread; defaults to alpha
    alpha_cluster: int = 2
    beta: int = 20
    delta: int | None = None        # cluster size; 40 large corpora, 10 small
    m: int | None = None            # mcdoc re-scaling pool; defaults to 2 * alpha
    T: int = 1
    mu: float = 2000.0
    drift: DriftTechnique = field(default_factory=DriftTechnique)
    N: int = 1000                   # retrieval depth

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.alpha1 is None:
            object.__setattr__(self, "alpha1", self.alpha)
        if self.m is None:
            object.__setattr__(self, "m", 2 * self.alpha)
        for name in ("alpha", "alpha1", "alpha_cluster", "beta", "T", "N"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.method == "mcdoc" and self.m <= self.alpha:
            raise ValueError(f"m={self.m} must exceed alpha={self.alpha}")
        if self.delta is not None and self.delta < 1:
            raise ValueError("delta must be >= 1")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be a positive finite number, got mu={self.mu}")
        if self.T > 10:
            log.warning("T=%d rounds; the iteration count is meant to stay small",
                        self.T)

    def resolved_delta(self, corpus: Corpus) -> int:
        if self.delta is not None:
            return self.delta
        return 40 if corpus.n_docs > 1000 else 10


def _next_pseudo_queries(ranking: ScoredRanking) -> PseudoQueryList:
    """Round scores become the next round's weights, max-normalized.

    Division by the round maximum is order-preserving, so the pseudo-query
    order equals the round's ranking; zero-scored documents are dropped
    (they could contribute nothing anyway).
    """
    positive = ranking.scores > 0.0
    if not positive.any():
        raise ValueError("no pseudo-queries remain: every document scored zero")
    top = float(ranking.scores[0])
    items = ranking.doc_ids[positive].tolist()
    weights = (ranking.scores[positive] / top).tolist()
    return PseudoQueryList(items, weights)


def check_cluster_index(cluster_index: ClusterIndex | None, config: RunConfig,
                        corpus: Corpus) -> None:
    """An mccluster configuration's cluster index: present, built for this
    corpus and at the configuration's mu and delta; ValueError otherwise."""
    if cluster_index is None:
        raise ValueError("mccluster requires a cluster index")
    if cluster_index.corpus_hash != corpus.content_hash:
        raise ValueError("cluster index was built for a different corpus")
    if cluster_index.mu != config.mu:
        raise ValueError(f"cluster index was built with mu={cluster_index.mu}, "
                         f"config has mu={config.mu}")
    delta = config.resolved_delta(corpus)
    if cluster_index.delta != delta:
        raise ValueError(f"cluster index was built with delta={cluster_index.delta}, "
                         f"config expects delta={delta}")


def run_retrieval(query: Query, config: RunConfig, corpus: Corpus,
                  cluster_index: ClusterIndex | None = None) -> ScoredRanking:
    """Execute T rounds of pseudo-query processing for one query.

    The query is scored once, as ``query_p`` (its rendition probability per
    doc id): round 1 of vdoc and mcdoc, vdoc's unmatched documents and the
    interpolation and re-rank drift corrections read that one vector.
    mccluster with a drift technique that reads no query vector skips it.
    Round t's ranking is the run's with T=t, N=n_docs and the drift only if
    it acts after every round (``none`` otherwise): see a round by running to it.
    """
    query_counts = corpus.query_counts(query)

    if config.method == "mccluster":
        check_cluster_index(cluster_index, config, corpus)

    query_p = (np.exp(log_rendition_docs(corpus, query_counts, config.mu))
               if config.method != "mccluster" or config.drift.reads_query else None)

    pq = PseudoQueryList.initial()
    for t in range(1, config.T + 1):
        first = t == 1
        spread = config.alpha1 if first else config.alpha
        if config.method == "vdoc":
            ranking = score_vdoc(pq, spread, corpus, config.mu, query_p)
        elif config.method == "mcdoc":
            # The pool must exceed the round's spread.  Raising m in round 1
            # (single pseudo-query) rescales every score by one constant, so
            # the ranking and the next round's normalized weights are
            # unchanged.
            ranking = score_mcdoc(pq, spread, max(config.m, spread + 1), corpus,
                                  config.mu, query_p)
        else:
            alpha_cluster = config.alpha1 if first else config.alpha_cluster
            ranking = score_mccluster(pq, alpha_cluster, config.beta, corpus,
                                      cluster_index, query_counts)
        ranking = config.drift.apply(ranking, query_p, final=False)
        if t < config.T:
            pq = _next_pseudo_queries(ranking)
    return config.drift.apply(ranking, query_p, final=True).truncate(config.N)


def format_run_lines(query_id: str, ranking: ScoredRanking, corpus: Corpus,
                     tag: str) -> str:
    """The ranking's TREC run rows, newline-joined without a final newline:
    qid Q0 docno rank score tag, fixed 6-decimal scores.  The row template,
    with any "%" of the query id and tag escaped, is repeated once per row
    and filled by one % over the interleaved (docno, rank, score) values."""
    row = " ".join([query_id.replace("%", "%%"), "Q0 %s %d %.6f", tag.replace("%", "%%")])
    n = len(ranking)
    values: list = [None] * (3 * n)
    values[0::3] = map(corpus.docnos.__getitem__, ranking.doc_ids.tolist())
    values[1::3] = range(1, n + 1)
    values[2::3] = ranking.scores.tolist()
    return "\n".join([row] * n) % tuple(values)
