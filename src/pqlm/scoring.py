"""The three renderer-scoring methods mapping weighted pseudo-queries to
document scores.

All three consume a :class:`PseudoQueryList` (the ranked texts of the
current round) and produce a deterministic total order over documents.
Computation is repertoire-driven: each pseudo-query's top-renderer list is
computed once and inverted into per-document credits, which matches the
per-document definitions exactly while touching only active pseudo-queries.
The sums of ``mcdoc`` and of each ``mccluster`` phase are one
:func:`~pqlm.lm.credit_sums`, a ``bincount`` over the concatenated lists:
it adds in input order from 0.0, so every score is the same float sum as
one ``+=`` per list.
A document pseudo-query is its own text, so its top renderers do not depend
on the query that surfaced it: each document pseudo-query is scored once per
run (per mu and list length), memoised on the corpus or cluster index, and
reused by every later query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .clustering import ClusterIndex, cluster_membership
from .corpus import Corpus, _frozen
from .lm import QUERY_ID, credit_sums, log_rendition, ranked_order, top_k, top_renderers
from .params import check


@dataclass
class PseudoQueryList:
    """Ranked text ids with nonincreasing weights in [0, 1].

    Round 1 is the single entry QUERY_ID with weight 1; later rounds carry
    document ids.  Zero-weight items are inert and are pruned before any
    repertoire computation.
    """

    items: list[int]
    weights: list[float]

    def __post_init__(self):
        if len(self.items) != len(self.weights):
            raise ValueError("items and weights differ in length")
        if not self.items:
            raise ValueError("empty pseudo-query list")
        if QUERY_ID in self.items and len(self.items) > 1:
            raise ValueError("the query is a pseudo-query only alone, in round 1")
        prev = 1.0
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight {w} outside [0, 1]")
            if w > prev + 1e-12:
                raise ValueError("weights must be nonincreasing")
            prev = w

    def active(self) -> Iterator[tuple[int, float]]:
        """(item, weight) pairs with weight > 0, in rank order."""
        return ((i, w) for i, w in zip(self.items, self.weights) if w > 0.0)

    @classmethod
    def initial(cls) -> "PseudoQueryList":
        return cls([QUERY_ID], [1.0])


class ScoredRanking:
    """Total order over documents: score descending, doc id ascending."""

    def __init__(self, doc_ids, scores):
        self.doc_ids = np.asarray(doc_ids, dtype=int)
        self.scores = np.asarray(scores, dtype=float)
        if len(self.doc_ids) != len(self.scores):
            raise ValueError("ids and scores differ in length")
        if len(self.scores) and not np.all(np.isfinite(self.scores)):
            raise ValueError("non-finite score in ranking")

    @classmethod
    def from_dense(cls, scores: np.ndarray) -> "ScoredRanking":
        """Rank every document given a score-per-doc-id array."""
        order = ranked_order(scores)
        return cls(order, np.asarray(scores, dtype=float)[order])

    @property
    def entries(self) -> list[tuple[int, float]]:
        return list(zip(self.doc_ids.tolist(), self.scores.tolist()))

    def truncate(self, n: int) -> "ScoredRanking":
        return ScoredRanking(self.doc_ids[:n], self.scores[:n])

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScoredRanking)
            and np.array_equal(self.doc_ids, other.doc_ids)
            and np.array_equal(self.scores, other.scores)
        )


def _top_rendered(item: int, k: int, corpus: Corpus, mu: float,
                  query_p: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Top-k rendering documents of one pseudo-query, best first, and their
    rendition probabilities.

    The k best are picked with :func:`~pqlm.lm.top_k`, O(N + k log k), in
    ``ranked_order``'s order.  The query is read off ``query_p``, its
    rendition probability per doc id, and never stored.  A document item's
    list is :func:`~pqlm.lm.top_renderers` of its text, as in the neighbour
    file, memoised on the corpus, keyed by (doc id, mu, k).  Entries are
    read-only, own their memory (not views of an N-long array) and are
    identical whichever thread computes them, so concurrent stores need no
    lock.
    """
    if item == QUERY_ID:
        if query_p is None:
            raise ValueError("pseudo-query list references the query but no "
                             "query probabilities were provided")
        top = top_k(query_p, k)
        return top, query_p[top]
    key = (item, mu, k)
    hit = corpus._rendered.get(key)
    if hit is None:
        hit = corpus._rendered[key] = _frozen(
            *top_renderers(corpus, corpus.text(item), k, mu))
    return hit


def score_vdoc(pq: PseudoQueryList, alpha: int, corpus: Corpus, mu: float,
               query_p: np.ndarray) -> ScoredRanking:
    """Emit each pseudo-query's top-alpha renderers in turn, explicit scores.

    A document is credited at the highest-ranked pseudo-query whose
    top-alpha set contains it; its score is
    (p + 2 * (|D| - rank + 1)) / (1 + 2 * |D|) with p the rendition
    probability at that pseudo-query.  Documents matched by no pseudo-query
    use rank |D| + 1 and ``query_p[d]``, their rendition probability of the
    original query, which places them below every matched document.
    ``query_p`` holds one value per document and must be smoothed with the
    same ``mu``.
    """
    n = corpus.n_docs
    check(alpha=alpha)
    if np.shape(query_p) != (n,):
        raise ValueError(f"query_p needs one value per document ({n})")
    matched_rank = np.full(n, n + 1, dtype=int)
    matched_p = query_p.copy()
    rank = 0
    for item, _w in pq.active():
        rank += 1
        top, probs = _top_rendered(item, alpha, corpus, mu, query_p)
        # the ids of one list are distinct: its unmatched ones match here
        first = matched_rank[top] == n + 1
        matched_rank[top[first]] = rank
        matched_p[top[first]] = probs[first]
    scores = (matched_p + 2.0 * np.where(matched_rank <= n, n - matched_rank + 1, 0)) \
        / (1.0 + 2.0 * n)
    return ScoredRanking.from_dense(scores)


def score_mcdoc(pq: PseudoQueryList, alpha: int, m: int, corpus: Corpus,
                mu: float, query_p: np.ndarray | None = None) -> ScoredRanking:
    """Credit each document for every pseudo-query it is a top renderer of.

    score(d) = sum over pseudo-queries q in d's repertoire of
    w(q) * p(q | d) / N(q), where N(q) sums the rendition probabilities of
    q's top-m renderers.  The sums are one :func:`credit_sums` over the
    active pseudo-queries' top-alpha lists in rank order, so results are
    bit-stable.  Round 1 reads the query's p(q | d) off ``query_p``, which
    holds one value per document and must be smoothed with the same ``mu``.
    """
    if not 1 <= alpha < m:
        raise ValueError(f"need 1 <= alpha < m, got alpha={alpha}, m={m}")
    if query_p is not None and np.shape(query_p) != (corpus.n_docs,):
        raise ValueError(f"query_p needs one value per document ({corpus.n_docs})")
    active = list(pq.active())
    pools = [_top_rendered(item, m, corpus, mu, query_p) for item, _w in active]
    scores = credit_sums(corpus.n_docs, [pool[:alpha] for pool, _ in pools],
                          [probs[:alpha] for _, probs in pools], [w for _, w in active],
                          [float(probs.sum()) for _, probs in pools])
    return ScoredRanking.from_dense(scores)


def log_rendition_clusters(cluster_index: ClusterIndex,
                           text: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """:func:`~pqlm.lm.log_rendition` against every cluster model at the index's
    mu, once :meth:`ClusterIndex.stage` has derived the text's new postings together."""
    cluster_index.stage(text[0].tolist())
    return log_rendition(cluster_index, text, cluster_index.mu)


def _cluster_credits(item: int, k: int, cluster_index: ClusterIndex,
                     query_counts) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 credits of one pseudo-query: its top-k clusters among those
    containing it, best first, and their rendition probabilities divided by
    the sum over all containing clusters (both empty if none contains it).

    Memoised on the cluster index for document items, keyed by (doc id, k),
    like :func:`_top_rendered`; the index's own mu smooths every cluster.
    """
    key = (item, k)
    hit = cluster_index._credits.get(key) if item != QUERY_ID else None
    if hit is None:
        cand = cluster_membership(cluster_index, item)
        hit = _frozen(np.zeros(0, dtype=int), np.zeros(0))
        if len(cand):
            if item == QUERY_ID and query_counts is None:
                raise ValueError("pseudo-query list references the query but no "
                                 "query counts were provided")
            text = query_counts if item == QUERY_ID else cluster_index._corpus.text(item)
            logp = log_rendition_clusters(cluster_index, text)
            probs = np.exp(logp[cand])
            norm = float(probs.sum())
            order = top_k(probs, k)
            hit = _frozen(cand[order], probs[order] / norm)
        if item != QUERY_ID:
            cluster_index._credits[key] = hit
    return hit


def score_mccluster(pq: PseudoQueryList, alpha_cluster: int, beta: int, corpus: Corpus,
                    cluster_index: ClusterIndex, query_counts=None) -> ScoredRanking:
    """Two-phase cluster scoring, both phases smoothed with the index's mu.

    Phase 1 credits each cluster for every pseudo-query it is a top
    renderer of, where a cluster may only render its constituent documents
    (the round-1 query counts as belonging to all clusters); the credit is
    normalized over all clusters containing the pseudo-query.  Phase 2
    converts cluster scores into document scores by crediting each document
    for every scored cluster it is a top-beta renderer of, restricted to
    the clusters it belongs to.  Each phase is one :func:`credit_sums`,
    over the pseudo-queries in rank order and then over the scored
    clusters in ascending id order.
    """
    active = list(pq.active())
    credits = [_cluster_credits(item, alpha_cluster, cluster_index, query_counts)
               for item, _w in active]
    cscores = credit_sums(len(cluster_index), [ids for ids, _ in credits],
                           [credit for _, credit in credits], [w for _, w in active])

    cids = np.flatnonzero(cscores)
    ranked = [cluster_index.member_rendition(cid, corpus) for cid in cids.tolist()]
    dscores = credit_sums(corpus.n_docs, [members[:beta] for members, _, _ in ranked],
                           [probs[:beta] for _, probs, _ in ranked],
                           cscores[cids], [norm for _, _, norm in ranked])
    return ScoredRanking.from_dense(dscores)
