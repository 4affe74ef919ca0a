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

import itertools
import logging
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .corpus import Corpus, left_sum, load_doc_id_rows, save_doc_id_rows, split_at
from .params import check

log = logging.getLogger(__name__)

#: Reserved text id for the original query in pseudo-query lists.
QUERY_ID = -1

NEIGHBORS_FORMAT = "pqlm-neighbors-v1"


def log_rendition(owner, text: tuple[np.ndarray, np.ndarray], mu: float,
                  length: float | None = None) -> np.ndarray:
    """Log geometric-mean rendition scores of one text, (term ids ascending,
    counts), against every renderer of `owner` (the corpus or a cluster
    index: its postings, which refuse an unknown id, collection
    probabilities and lengths); requires a finite mu > 0.  `length` is the
    counts' sum added in another order, when the caller's order differs; by
    default :func:`~pqlm.corpus.left_sum` adds them in term-id order.

    Only renderers holding a text term deviate from the background
    log(mu * p_coll).  A term's renderers, background and deviations
    ``log(c + mu * p_coll) - log(mu * p_coll)``, one per posting, depend
    only on the owner, the term and mu: they are its one read-only entry
    ``owner._deviations[mu][t]``, at most one float64 per posting per mu.
    Only a term without an entry has its postings read, once per term and
    mu; the new terms' deviations come from one ``np.log`` over their
    concatenated posting counts.  Each call weights the gathered
    deviations by the text counts and :func:`credit_sums` adds them per
    renderer in term-id (sorted term) order from 0.0.  O(|x| + sum of the
    text terms' df).
    """
    check(mu=mu)
    term_ids, cnts = (a.tolist() for a in text)
    xlen = left_sum(text[1]) if length is None else float(length)
    if xlen == 0:
        raise ValueError("empty sequence")
    memo = owner._deviations.setdefault(mu, {})
    new = [t for t in term_ids if t not in memo]
    if new:
        _store_deviations(owner, memo, mu, new)
    ids, deviations, base = [], [], 0.0
    for t, cnt in zip(term_ids, cnts):
        renderers, background, deviation = memo[t]
        base += cnt * background
        ids.append(renderers)
        deviations.append(deviation)
    # "+ base" also makes floats of bincount's integer zeros when no posting exists
    out = credit_sums(len(owner), ids, deviations, cnts) + base
    out -= xlen * np.log(owner.lengths() + mu)
    out /= xlen
    return out


def credit_sums(n: int, ids: list[np.ndarray], credits: list[np.ndarray],
                weights, norms=None) -> np.ndarray:
    """Length-n sums of ``weights[j] * (credits[j] / norms[j])`` at ``ids[j]``.

    One ``np.bincount`` over the concatenated lists, which adds in input
    order from 0.0 and makes each product with the same IEEE operations, so
    every sum is bit-equal to one ``out[ids[j]] += ...`` per list j in list
    order (the ids of one list are distinct).  ``norms=None`` divides by
    nothing.  The products are made in place in the concatenated credits.
    """
    if not ids:
        return np.zeros(n)
    sizes = [len(a) for a in ids]
    credit = np.concatenate(credits)
    if norms is not None:
        credit /= np.repeat(norms, sizes)
    credit *= np.repeat(np.asarray(weights, float), sizes)
    return np.bincount(np.concatenate(ids), credit, minlength=n)


def _store_deviations(owner, memo: dict, mu: float, term_ids: list[int]) -> None:
    """Store each term's (renderer ids, background, read-only deviations) in
    `memo`: its postings on `owner`, all terms' deviations from one np.log.
    A mu so small that a term's mu * p(w | C) is 0.0 is a ValueError."""
    renderers, counts = zip(*map(owner.postings, term_ids))
    sizes = [len(c) for c in counts]
    scaled = mu * owner._collection_probs[term_ids]
    if not scaled.all():
        raise ValueError(f"mu={mu} is too small: mu * p(w | C) is 0.0 for some w")
    backgrounds = [math.log(s) for s in scaled.tolist()]
    logs = np.log(np.concatenate(counts) + np.repeat(scaled, sizes))
    logs -= np.repeat(backgrounds, sizes)
    logs.flags.writeable = False
    bounds = [0, *itertools.accumulate(sizes)]
    for t, entry in zip(term_ids, zip(renderers, backgrounds, split_at(logs, bounds))):
        memo[t] = entry


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
        if not 0 <= doc_id < len(self.neighbors):
            raise ValueError(f"document id {doc_id} outside 0..{len(self.neighbors) - 1}")
        if k < 1:
            raise ValueError(f"k={k} is not a positive number of neighbors")
        if k > self.k_max:
            raise ValueError(
                f"k={k} exceeds precomputed k_max={self.k_max}; recompute neighbors"
            )
        return self.neighbors[doc_id][:k]

    def save(self, path) -> None:
        save_doc_id_rows(path, NEIGHBORS_FORMAT, self, "k_max", "neighbors", "neighbor list",
                         len(self.neighbors))

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
    check(k_max=k_max, mu=mu)
    n = corpus.n_docs
    if k_max > n:
        log.warning("k_max=%d exceeds corpus size %d; clamped", k_max, n)
        k_max = n

    def one(doc_id: int) -> list[int]:
        return top_renderers(corpus, corpus.text(doc_id), k_max, mu)[0].tolist()

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            neighbors = list(pool.map(one, range(n)))
    else:
        neighbors = [one(d) for d in range(n)]
    return NeighborIndex(corpus.content_hash, mu, k_max, neighbors)
