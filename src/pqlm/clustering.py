"""Overlapping nearest-neighbor clusters: one cluster per seed document.

A cluster is literally its seed's top-delta renderer set; the seed is a
member only if it ranks among its own top delta (checked, never assumed).
Cluster ids reuse seed doc ids, so the lower-id tie rule carries over
without a second numbering scheme.  A cluster is stored as its member list.
Its length, the sum of its members' lengths, is summed from the corpus's
document lengths when the index is made (O(N * delta), without building
the postings); as a renderer, its term counts are its members' postings
summed per term on first use, and as a text, its members' rows summed per
term id.  All are integers below 2**53, exact in float64.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Corpus, _frozen, load_doc_id_rows, save_doc_id_rows
from .lm import QUERY_ID, NeighborIndex, ranked_order

log = logging.getLogger(__name__)

CLUSTERS_FORMAT = "pqlm-clusters-v1"


class ClusterIndex:
    """Row i of `members` is cluster i, doc ids ascending; document d is in
    the clusters ``_holders[_holder_ptr[d]:_holder_ptr[d + 1]]``, ascending."""

    def __init__(self, members, corpus: Corpus, mu: float, delta: int):
        self.members: list[tuple[int, ...]] = [tuple(sorted(row)) for row in members]
        self._corpus = corpus
        self._collection_probs = corpus._collection_probs
        self.corpus_hash = corpus.content_hash
        self.mu = mu
        self.delta = delta
        sizes = np.fromiter(map(len, self.members), np.int64, len(self.members))
        docs = np.fromiter((d for row in self.members for d in row), np.int64, sizes.sum())
        owners = np.repeat(np.arange(len(self.members)), sizes)
        self._holders = owners[np.argsort(docs, kind="stable")]
        self._holder_ptr = np.zeros(corpus.n_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(docs, minlength=corpus.n_docs), out=self._holder_ptr[1:])
        self._lengths = np.bincount(owners, corpus.lengths()[docs], minlength=len(self.members))
        self._postings: dict[int, tuple] = {}
        # mu -> term id -> (background, deviations), as on the corpus
        self._deviations: dict[float, dict] = {}
        self._member_scores: dict[int, tuple] = {}
        # (doc id, alpha_cluster) -> phase-1 cluster credits of that
        # document's text, filled by score_mccluster
        self._credits: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self.members)

    def lengths(self) -> np.ndarray:
        """Cluster lengths: the sums of their members' lengths."""
        return self._lengths

    def postings(self, t: int):
        """(cluster ids ascending, counts) of term id `t`, which the corpus
        checks: its document postings summed per holding cluster,
        O(df * clusters per doc + clusters)."""
        hit = self._postings.get(t)
        if hit is None:
            doc_ids, counts = self._corpus.postings(t)
            starts = self._holder_ptr[doc_ids]
            sizes = self._holder_ptr[doc_ids + 1] - starts
            offsets = np.cumsum(sizes) - sizes
            rows = np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)
            sums = np.bincount(self._holders[rows], weights=np.repeat(counts, sizes),
                               minlength=len(self))
            # int32 ids, as in the document postings
            ids = np.flatnonzero(sums).astype(np.int32)
            # bincount makes integer zeros when no cluster holds the term
            hit = self._postings[t] = (ids, sums[ids].astype(float, copy=False))
        return hit

    def member_rendition(self, cluster_id: int, corpus: Corpus):
        """Member docs of one cluster scored as renderers of the cluster text.

        Returns (member ids by descending probability, ties to the lower id;
        their rendition probs; the total over all members, summed in member
        order).  Query-independent, so memoized per cluster; the arrays are
        read-only.
        """
        hit = self._member_scores.get(cluster_id)
        if hit is None:
            members = self.members[cluster_id]
            texts = [corpus.text(d) for d in members]
            columns, inverse = np.unique(np.concatenate([ids for ids, _ in texts]),
                                         return_inverse=True)
            counts = np.zeros((len(members), len(columns)))
            counts[np.repeat(np.arange(len(members)), [len(ids) for ids, _ in texts]),
                   inverse] = np.concatenate([tfs for _, tfs in texts])
            text_counts = counts.sum(axis=0)  # integer sums, exact
            coll = corpus._collection_probs[columns]
            lengths = corpus.lengths()[list(members)]
            # elementwise log + pairwise sum keeps results thread-independent;
            # sorting each member's contributions first makes the sum
            # independent of column order, and makes members with
            # permuted-but-equal count profiles come out exactly tied, so the
            # lower-id rule decides instead of summation rounding
            logs = np.log((counts + self.mu * coll) / (lengths[:, None] + self.mu))
            probs = np.exp(np.sort(logs * text_counts, axis=1).sum(axis=1)
                           / self._lengths[cluster_id])
            order = ranked_order(probs)
            hit = (*_frozen(np.array(members, dtype=int)[order], probs[order]),
                   float(probs.sum()))
            self._member_scores[cluster_id] = hit
        return hit

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        save_doc_id_rows(path, CLUSTERS_FORMAT, self, "delta", "members")

    @classmethod
    def load(cls, path, corpus: Corpus) -> "ClusterIndex":
        mu, delta, members = load_doc_id_rows(path, CLUSTERS_FORMAT, corpus, "delta",
                                              "members", "member list")
        return cls(members, corpus, mu, delta)


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
    index = ClusterIndex([neighbors.top(seed, delta) for seed in range(corpus.n_docs)],
                         corpus, neighbors.mu, delta)
    self_out = sum(1 for seed, row in enumerate(index.members) if seed not in row)
    if self_out:
        log.info("%d/%d seeds are not members of their own cluster", self_out, len(index))
    return index


def singleton_cluster_index(corpus: Corpus, mu: float) -> ClusterIndex:
    """Degenerate partition: every document is its own one-element cluster."""
    return ClusterIndex([(d,) for d in range(corpus.n_docs)], corpus, mu, 1)


def cluster_membership(cluster_index: ClusterIndex, text_id: int,
                       first_round: bool) -> np.ndarray:
    """Clusters a text belongs to, ids ascending; the round-1 query is in all."""
    if text_id == QUERY_ID:
        if not first_round:
            raise ValueError("the query is not a round-2+ pseudo-query")
        return np.arange(len(cluster_index))
    if not 0 <= text_id < len(cluster_index):
        raise ValueError(f"text id {text_id} outside the corpus")
    ptr = cluster_index._holder_ptr
    return cluster_index._holders[ptr[text_id]:ptr[text_id + 1]]
