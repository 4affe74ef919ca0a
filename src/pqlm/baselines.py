"""Reference retrieval systems: the plain language-model ranking,
pseudo-feedback Rocchio, and the (optionally clipped) relevance model.

Per-query cost, for N documents, depth n and V distinct corpus terms: the LM
ranking is one rendition pass, O(|q| + sum of the query terms' df + N +
n log n); Rocchio is two tf.idf inner-product passes, with idf for the query
and feedback terms only; the relevance model is an LM ranking for its
feedback, O(k1 * V) vector operations and O(V) list work to estimate the
model, and one rendition pass over the model's support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Query
from .lm import log_rendition_docs, top_k, top_renderers
from .scoring import ScoredRanking


# spec key -> (test of a value, the range it states); N is the depth n
_ARG_RANGES = {
    "N": (lambda v: v >= 1, ">= 1"),
    "k1": (lambda v: v >= 1, ">= 1"),
    "t": (lambda v: v >= 0, ">= 0"),
    "gamma": (lambda v: v >= 0, ">= 0"),
    "lambda_r": (lambda v: 0 < v < 1, "strictly between 0 and 1"),
    "clip_k": (lambda v: v >= 0, ">= 0"),
    "mu": (lambda v: 0 < v < math.inf, "a positive finite number"),
}


def check_args(**args) -> None:
    """ValueError for the first argument, keyed by its spec key, that lies
    outside its range; every system below checks its arguments here."""
    for key, value in args.items():
        test, bound = _ARG_RANGES[key]
        if not test(value):
            raise ValueError(f"{key} must be {bound}, got {key}={value}")


def lm_baseline(query: Query, corpus: Corpus, mu: float, n: int) -> ScoredRanking:
    """Rank every document by its rendition probability of the query.

    O(|q| + sum of the query terms' df + N + n log n) per query.
    """
    check_args(N=n, mu=mu)
    return ScoredRanking(*top_renderers(corpus, corpus.query_counts(query), n, mu))


# -- Rocchio over pseudo-feedback ----------------------------------------


def _tfidf_weight(tf: int, idf: float) -> float:
    return (1.0 + math.log(tf)) * idf if tf > 0 else 0.0


def _idf(corpus: Corpus, term_ids) -> dict[int, float]:
    # every term id occurs in some document, so df >= 1
    return {t: math.log(corpus.n_docs / len(corpus.postings(t)[0]))
            for t in term_ids}


def rocchio_rank(query: Query, corpus: Corpus, k1: int, t: int, gamma: float,
                 n: int) -> ScoredRanking:
    """Vector-space pseudo-feedback with log tf.idf weights.

    Weights are (1 + ln tf) * ln(|D| / df); similarity is the inner
    product.  The query is augmented with the top-t centroid terms (of the
    top-k1 feedback documents) that it does not already contain, scaled by
    gamma; only positive feedback is used.

    idf is computed only for the query and feedback-document terms, so a
    query costs O(|q| + feedback terms) postings lookups, two inner-product
    passes over the postings of the query and expansion terms, and two
    O(N log N) rankings.  Vectors are keyed by term id.
    """
    check_args(N=n, k1=k1, t=t, gamma=gamma)
    k1 = min(k1, corpus.n_docs)
    q_ids, q_tfs = (a.tolist() for a in corpus.query_counts(query))
    idf = _idf(corpus, q_ids)
    q_vec = {w: _tfidf_weight(c, idf[w]) for w, c in zip(q_ids, q_tfs)}

    def inner_products(vec: dict[int, float]) -> np.ndarray:
        scores = np.zeros(corpus.n_docs)
        for term, wq in sorted(vec.items()):
            if wq == 0.0:
                continue
            ids, counts = corpus.postings(term)
            scores[ids] += wq * (1.0 + np.log(counts)) * idf[term]
        return scores

    initial = ScoredRanking.from_dense(inner_products(q_vec))
    feedback = initial.doc_ids[:k1].tolist()

    if t == 0 or gamma == 0.0:
        return initial.truncate(n)

    # accumulate each term over its sorted tf values so that terms with
    # identical (tf multiset, df) come out exactly equal and fall to the
    # term-id tie rule
    term_tfs: dict[int, list[int]] = {}
    for d in feedback:
        for term, tf in zip(*(a.tolist() for a in corpus.text(d))):
            term_tfs.setdefault(term, []).append(tf)
    idf.update(_idf(corpus, term_tfs.keys() - idf.keys()))
    centroid = {
        term: sum(_tfidf_weight(tf, idf[term]) for tf in sorted(tfs)) / k1
        for term, tfs in term_tfs.items()
    }

    candidates = [(term, w) for term, w in centroid.items() if term not in q_vec]
    candidates.sort(key=lambda e: (-e[1], e[0]))
    expanded = dict(q_vec)
    for term, w in candidates[:t]:
        expanded[term] = gamma * w
    return ScoredRanking.from_dense(inner_products(expanded)).truncate(n)


# -- relevance model ------------------------------------------------------


@dataclass
class RelevanceDistribution:
    """Sparse term-id distribution estimated from feedback documents."""

    probs: dict[int, float]

    def __post_init__(self):
        total = sum(self.probs.values())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"relevance distribution sums to {total}, not 1")
        if any(p <= 0.0 for p in self.probs.values()):
            raise ValueError("relevance distribution has non-positive entries")

    @property
    def support_size(self) -> int:
        return len(self.probs)

    def entropy(self) -> float:
        return -sum(p * math.log(p) for _, p in sorted(self.probs.items()))


def estimate_relevance_model(query_counts: tuple[np.ndarray, np.ndarray], corpus: Corpus,
                             feedback: list[int], lambda_r: float,
                             clip_k: int) -> RelevanceDistribution:
    """Mixture of feedback-document models weighted by query likelihood.

    `query_counts` is the query as a text, (term ids ascending, counts).
    Document models are Jelinek-Mercer smoothed,
    p(w | d) = (1 - lambda_r) * mle(w | d) + lambda_r * mle(w | collection),
    and the mixture weights are the (uniform-prior) posteriors of the
    feedback documents given the query under the same smoothed models.
    The support is every term id when lambda_r > 0 and exactly the
    union of the feedback documents' terms when lambda_r == 0.  When
    clip_k > 0 only the clip_k most probable terms survive (ties to the
    lower term id) and the distribution is renormalized.

    O(k1 * |q|) scalar work for the posteriors, O(k1 * V) vector operations
    for the mixture, and O(V) list work (O(V log V) to clip) to normalize.
    Each term's value is the same chain of float operations, in the same
    (feedback, then term-id) order, as a per-term loop.
    """
    def smoothed(tf, length, coll_prob):
        # scalars or term-id vectors alike
        return (1.0 - lambda_r) * tf / length + lambda_r * coll_prob

    coll, lengths = corpus._collection_probs, corpus.lengths()
    q_ids, q_cnts = (a.tolist() for a in query_counts)
    likelihood = []
    for d in feedback:
        tf = dict(zip(*(a.tolist() for a in corpus.text(d))))
        val = 1.0
        for t, cnt in zip(q_ids, q_cnts):
            val *= smoothed(tf.get(t, 0), float(lengths[d]), float(coll[t])) ** cnt
        likelihood.append(val)
    total = sum(likelihood)
    if total <= 0.0:
        raise ValueError("query is unrenderable by every feedback document")
    posterior = [v / total for v in likelihood]

    # term ids are lexicographic, so every sum below runs in sorted-term
    # order, which a freshly built and a reloaded corpus share
    mixture = np.zeros(len(coll))
    in_feedback = np.zeros(len(coll), dtype=bool)
    for pi, d in zip(posterior, feedback):
        ids, counts = corpus.text(d)
        tf = np.zeros(len(coll))
        tf[ids] = counts
        mixture += pi * smoothed(tf, lengths[d], coll)
        in_feedback[ids] = True
    ids = np.arange(len(coll)) if lambda_r != 0.0 else np.flatnonzero(in_feedback)
    # one renormalization guards against accumulated rounding; Python's
    # sum keeps the sequential order
    probs = mixture[ids]
    probs = probs / sum(probs.tolist())

    if 0 < clip_k < len(ids):
        kept = top_k(probs, clip_k)
        ids, probs = ids[kept], probs[kept]
        probs = probs / sum(probs.tolist())
    return RelevanceDistribution(dict(zip(ids.tolist(), probs.tolist())))


def relevance_model_rank(query: Query, corpus: Corpus, k1: int, lambda_r: float,
                         clip_k: int, mu: float, n: int) -> ScoredRanking:
    """Rank documents by increasing divergence from the relevance model.

    Feedback documents are the top k1 by query rendition probability.
    Scores are emitted as negative KL(R || Dirichlet(d)) so that higher is
    better, matching every other system here.
    """
    check_args(N=n, k1=k1, lambda_r=lambda_r, clip_k=clip_k, mu=mu)
    counts = corpus.query_counts(query)
    # the lm_baseline order of the feedback documents, without normalising
    # the query a second time
    feedback = top_renderers(corpus, counts, k1, mu)[0].tolist()
    rel = estimate_relevance_model(counts, corpus, feedback, lambda_r, clip_k)
    # -KL(R || d) = H(R) + sum_w p_R(w) log p_dir(w | d): the cross-entropy
    # term is a rendition score of the fractional-count text p_R, whose
    # length is summed in the model's own (rank, when clipped) order
    ids = np.fromiter(rel.probs, np.int32, len(rel.probs))
    order = np.argsort(ids)
    text = ids[order], np.fromiter(rel.probs.values(), float, len(ids))[order]
    cross = log_rendition_docs(corpus, text, mu, sum(rel.probs.values()))
    return ScoredRanking.from_dense(rel.entropy() + cross).truncate(n)
