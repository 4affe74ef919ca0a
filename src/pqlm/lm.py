"""Unigram language models: the Dirichlet-smoothed rendition kernel, the
ranking order it induces, and offline neighbor precomputation.

A *renderer* is a document or cluster whose smoothed language model assigns a
rendition probability to a text.  The rendition probability used throughout is
the geometric mean of the smoothed per-term probabilities,

    p(r, x) = (prod_i p_dir(w_i | r)) ** (1 / |x|),

accumulated in natural-log space.  It equals exp(-KL(MLE_x || Dir_r)) divided
by exp(H(MLE_x)); the entropy factor is constant for a fixed text, so every
per-text ranking and every ratio normalization downstream is unchanged by the
omission.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .corpus import Corpus, load_doc_id_rows, save_doc_id_rows

log = logging.getLogger(__name__)

#: Reserved text id for the original query in pseudo-query lists.
QUERY_ID = -1

NEIGHBORS_FORMAT = "pqlm-neighbors-v1"


def log_rendition(owner, text: tuple[np.ndarray, np.ndarray], mu: float,
                  length: float | None = None) -> np.ndarray:
    """Log geometric-mean rendition scores of one text, (term ids ascending,
    counts), against every renderer of `owner` (the corpus or a cluster
    index: its postings, which refuse an unknown id, collection probabilities
    and lengths); requires a finite mu > 0.  `length` is ``sum(counts)``
    summed in another order, when the caller's order differs.

    Only renderers holding a text term deviate from the background
    log(mu * p_coll).  A term's background and its deviations
    ``log(c + mu * p_coll) - log(mu * p_coll)``, one per posting, depend
    only on the owner, the term and mu: the logarithms are taken on the
    term's first use and kept read-only in ``owner._deviations[mu][t]``,
    at most one float64 per posting per mu.  Each call weights the gathered
    deviations by the text counts and ``bincount`` sums them per renderer in
    term-id (sorted term) order from 0.0.  O(|x| + sum of the text terms' df).
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"rendition scoring requires mu > 0 and finite, got mu={mu}")
    term_ids, cnts = (a.tolist() for a in text)
    xlen = float(sum(cnts) if length is None else length)
    if xlen == 0:
        raise ValueError("empty sequence")
    memo = owner._deviations.setdefault(mu, {})
    ids, deviations, base = [], [], 0.0
    for t, cnt in zip(term_ids, cnts):
        renderers, counts = owner.postings(t)
        entry = memo.get(t)
        if entry is None:
            p_coll = float(owner._collection_probs[t])
            background = math.log(mu * p_coll)
            deviation = np.log(counts + mu * p_coll) - background
            deviation.flags.writeable = False
            entry = memo[t] = (background, deviation)
        background, deviation = entry
        base += cnt * background
        ids.append(renderers)
        deviations.append(deviation)
    weights = np.concatenate(deviations)
    weights *= np.repeat(np.array(cnts, dtype=float), [len(i) for i in ids])
    # "+ base" also makes floats of bincount's integer zeros when no posting exists
    out = np.bincount(np.concatenate(ids), weights=weights, minlength=len(owner)) + base
    out -= xlen * np.log(owner.lengths() + mu)
    out /= xlen
    return out


def log_rendition_docs(corpus: Corpus, text: tuple[np.ndarray, np.ndarray], mu: float,
                       length: float | None = None) -> np.ndarray:
    """:func:`log_rendition` against every document."""
    return log_rendition(corpus, text, mu, length)


def ranked_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, ties toward lower index."""
    ids = np.arange(len(scores))
    return np.lexsort((ids, -np.asarray(scores, dtype=float)))


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """``ranked_order(scores)[:k]`` as a new array, without sorting all N.

    ``np.partition`` finds the k-th best value; every index scoring at least
    that much is a candidate, so ties at the cut are all kept, and only the
    candidates are sorted.  O(N + c log c) for c candidates (c = k without
    ties at the cut).  Fewer than k candidates happen only with NaNs, which
    ``ranked_order`` places last; that case, k >= N and k < 1 sort fully.
    """
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    if 0 < k < n:
        cand = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
        if len(cand) >= k:
            return cand[np.lexsort((cand, -scores[cand]))[:k]]
    return ranked_order(scores)[:k].copy()


def top_renderers(corpus: Corpus, text: tuple[np.ndarray, np.ndarray], k: int,
                  mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The k best renderers of a text by :func:`top_k`, and their probabilities."""
    probs = np.exp(log_rendition_docs(corpus, text, mu))
    top = top_k(probs, k)
    return top, probs[top]


class NeighborIndex:
    """Per-document ordered best-renderer lists, precomputed offline.

    Keyed by (corpus hash, mu, k_max); loading against a different corpus or
    smoothing parameter is an error.
    """

    def __init__(self, corpus_hash: str, mu: float, k_max: int,
                 neighbors: list[list[int]]):
        self.corpus_hash = corpus_hash
        self.mu = mu
        self.k_max = k_max
        self.neighbors = neighbors

    def top(self, doc_id: int, k: int) -> list[int]:
        if k > self.k_max:
            raise ValueError(
                f"k={k} exceeds precomputed k_max={self.k_max}; recompute neighbors"
            )
        return self.neighbors[doc_id][:k]

    def save(self, path) -> None:
        save_doc_id_rows(path, NEIGHBORS_FORMAT, self, "k_max", "neighbors")

    @classmethod
    def load(cls, path, corpus: Corpus, mu: float | None = None) -> "NeighborIndex":
        built_mu, k_max, neighbors = load_doc_id_rows(path, NEIGHBORS_FORMAT, corpus, "k_max",
                                                      "neighbors", "neighbor list")
        if mu is not None and built_mu != mu:
            raise ValueError(f"{path}: neighbor lists were built with mu={built_mu}, not {mu}")
        return cls(corpus.content_hash, built_mu, k_max, neighbors)


def precompute_neighbors(corpus: Corpus, k_max: int, mu: float,
                         threads: int = 1) -> NeighborIndex:
    """Top-k_max renderer list for every document, one scoring pass each.

    Row d is :func:`top_renderers` of document d, as the scorers rank it.
    Per-document results are independent, so the computation may fan out
    over threads without affecting the (deterministic) output.
    """
    n = corpus.n_docs
    if k_max > n:
        log.warning("k_max=%d exceeds corpus size %d; clamped", k_max, n)
        k_max = n
    if k_max < 1:
        raise ValueError("k_max must be >= 1")

    def one(doc_id: int) -> list[int]:
        return top_renderers(corpus, corpus.text(doc_id), k_max, mu)[0].tolist()

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            neighbors = list(pool.map(one, range(n)))
    else:
        neighbors = [one(d) for d in range(n)]
    return NeighborIndex(corpus.content_hash, mu, k_max, neighbors)
