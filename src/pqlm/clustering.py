"""Overlapping nearest-neighbor clusters: one cluster per seed document.

A cluster is literally its seed's top-delta renderer set; the seed is a
member only if it ranks among its own top delta (checked, never assumed).
Cluster ids reuse seed doc ids, so the lower-id tie rule carries over
without a second numbering scheme.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, ParseError, TermIndex, canonical_json, check_doc_id_rows, read_payload
from .lm import QUERY_ID, NeighborIndex
from .storage import atomic_write

log = logging.getLogger(__name__)

CLUSTERS_FORMAT = "pqlm-clusters-v1"


@dataclass
class Cluster:
    cluster_id: int  # = seed doc_id
    members: tuple[int, ...]  # sorted doc ids
    term_counts: dict[str, int]
    length: int


class ClusterIndex:
    """All clusters plus the doc -> containing-clusters reverse map."""

    def __init__(self, clusters: list[Cluster], corpus: Corpus, mu: float, delta: int):
        self.clusters = clusters
        self.corpus_hash = corpus.content_hash
        self.mu = mu
        self.delta = delta
        self.containing: dict[int, set[int]] = {}
        for c in clusters:
            for d in c.members:
                self.containing.setdefault(d, set()).add(c.cluster_id)
        self._terms = TermIndex(clusters, corpus.vocabulary)
        self._postings: dict[str, tuple] = {}
        self._member_scores: dict[int, tuple] = {}
        # (doc id, alpha_cluster) -> phase-1 cluster credits of that
        # document's text, filled by score_mccluster
        self._credits: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.clusters)

    def membership(self, doc_id: int) -> set[int]:
        return self.containing.get(doc_id, set())

    def lengths(self) -> np.ndarray:
        return self._terms.arrays()[3]

    def postings(self, term: str):
        """(cluster ids, counts) of one term: O(df) views into the term index."""
        hit = self._postings.get(term)
        if hit is None:
            hit = self._postings[term] = self._terms.postings(term)
        return hit

    def member_rendition(self, cluster_id: int, corpus: Corpus):
        """Member docs of one cluster scored as renderers of the cluster text.

        Returns (member ids desc-by-score, their rendition probs, total over
        all members).  Query-independent, so memoized per cluster.
        """
        hit = self._member_scores.get(cluster_id)
        if hit is None:
            c = self.clusters[cluster_id]
            terms = sorted(c.term_counts)
            index = {t: i for i, t in enumerate(terms)}
            text_counts = np.array([c.term_counts[t] for t in terms], dtype=float)
            coll = np.array([corpus.collection_prob(t) for t in terms])
            counts = np.zeros((len(c.members), len(terms)))
            for i, d in enumerate(c.members):
                doc_counts = corpus.documents[d].term_counts
                counts[i, [index[t] for t in doc_counts]] = list(doc_counts.values())
            lengths = corpus.lengths()[list(c.members)]
            # elementwise log + pairwise sum keeps results thread-independent;
            # sorting each member's contributions first makes members with
            # permuted-but-equal count profiles come out exactly tied, so the
            # lower-id rule decides instead of summation rounding
            logs = np.log((counts + self.mu * coll) / (lengths[:, None] + self.mu))
            probs = np.exp(np.sort(logs * text_counts, axis=1).sum(axis=1) / c.length)
            order = np.lexsort((np.array(c.members), -probs))
            members = np.array(c.members, dtype=int)[order]
            scores = probs[order]
            hit = (members, scores, float(scores[np.argsort(members)].sum()))
            self._member_scores[cluster_id] = hit
        return hit

    # -- persistence ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": CLUSTERS_FORMAT,
            "corpus_hash": self.corpus_hash,
            "mu": self.mu,
            "delta": self.delta,
            "members": [list(c.members) for c in self.clusters],
        }

    def save(self, path) -> None:
        atomic_write(path, canonical_json(self.to_payload()))

    @classmethod
    def load(cls, path, corpus: Corpus) -> "ClusterIndex":
        payload = read_payload(path, CLUSTERS_FORMAT)
        try:
            if payload["corpus_hash"] != corpus.content_hash:
                raise ValueError(f"{path}: clusters were built for a different corpus")
            delta, members = payload["delta"], payload["members"]
            check_doc_id_rows(path, members, corpus.n_docs, delta, "member list")
            clusters = [_make_cluster(cid, row, corpus) for cid, row in enumerate(members)]
            return cls(clusters, corpus, payload["mu"], delta)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: malformed cluster payload: {exc}") from exc


def _make_cluster(cluster_id: int, members, corpus: Corpus) -> Cluster:
    counts: Counter = Counter()
    length = 0
    for d in members:
        doc = corpus.documents[d]
        counts.update(doc.term_counts)
        length += doc.length
    return Cluster(cluster_id, tuple(sorted(members)), dict(counts), length)


def build_clusters(corpus: Corpus, delta: int, neighbors: NeighborIndex) -> ClusterIndex:
    """One cluster per document: the seed's top-delta renderers."""
    if not 1 <= delta <= corpus.n_docs:
        raise ValueError(f"delta={delta} outside 1..{corpus.n_docs}")
    if delta > neighbors.k_max:
        raise ValueError(
            f"delta={delta} exceeds precomputed k_max={neighbors.k_max}; "
            "recompute neighbor lists with a larger k_max"
        )
    if neighbors.corpus_hash != corpus.content_hash:
        raise ValueError("neighbor lists were built for a different corpus")
    clusters = [
        _make_cluster(seed, neighbors.top(seed, delta), corpus)
        for seed in range(corpus.n_docs)
    ]
    index = ClusterIndex(clusters, corpus, neighbors.mu, delta)
    self_in = sum(1 for c in clusters if c.cluster_id in c.members)
    if self_in < len(clusters):
        log.info("%d/%d seeds are not members of their own cluster",
                 len(clusters) - self_in, len(clusters))
    return index


def singleton_cluster_index(corpus: Corpus, mu: float) -> ClusterIndex:
    """Degenerate partition: every document is its own one-element cluster."""
    clusters = [_make_cluster(d, [d], corpus) for d in range(corpus.n_docs)]
    return ClusterIndex(clusters, corpus, mu, 1)


def cluster_membership(cluster_index: ClusterIndex, text_id: int,
                       first_round: bool) -> set[int]:
    """Clusters a text belongs to; the round-1 query belongs to all of them."""
    if text_id == QUERY_ID:
        if not first_round:
            raise ValueError("the query is not a round-2+ pseudo-query")
        return {c.cluster_id for c in cluster_index.clusters}
    if not 0 <= text_id < len(cluster_index.clusters):
        raise ValueError(f"text id {text_id} outside the corpus")
    return cluster_index.membership(text_id)
