"""Reference retrieval systems: the plain language-model ranking,
pseudo-feedback Rocchio, and the (optionally clipped) relevance model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Query
from .lm import log_rendition_docs, ranked_order
from .scoring import ScoredRanking


def lm_baseline(query: Query, corpus: Corpus, mu: float, n: int) -> ScoredRanking:
    """Rank every document by its rendition probability of the query."""
    scores = np.exp(log_rendition_docs(corpus, corpus.query_counts(query), mu))
    return ScoredRanking.from_dense(scores).truncate(n)


# -- Rocchio over pseudo-feedback ----------------------------------------


def _tfidf_weight(tf: int, idf: float) -> float:
    return (1.0 + math.log(tf)) * idf if tf > 0 else 0.0


def _idf(corpus: Corpus) -> dict[str, float]:
    # every vocabulary term occurs in some document, so df >= 1
    return {t: math.log(corpus.n_docs / len(corpus.postings(t)[0]))
            for t in corpus.collection_counts}


def rocchio_rank(query: Query, corpus: Corpus, k1: int, t: int, gamma: float,
                 n: int) -> ScoredRanking:
    """Vector-space pseudo-feedback with log tf.idf weights.

    Weights are (1 + ln tf) * ln(|D| / df); similarity is the inner
    product.  The query is augmented with the top-t centroid terms (of the
    top-k1 feedback documents) that it does not already contain, scaled by
    gamma; only positive feedback is used.
    """
    if k1 < 1:
        raise ValueError("k1 must be >= 1")
    if t < 0 or gamma < 0:
        raise ValueError("t and gamma must be >= 0")
    k1 = min(k1, corpus.n_docs)
    q_counts = corpus.query_counts(query)
    idf = _idf(corpus)
    q_vec = {w: _tfidf_weight(c, idf[w]) for w, c in q_counts.items()}

    def inner_products(vec: dict[str, float]) -> np.ndarray:
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
    term_tfs: dict[str, list[int]] = {}
    for d in feedback:
        for term, tf in corpus.documents[d].term_counts.items():
            if term in idf:
                term_tfs.setdefault(term, []).append(tf)
    centroid = {
        term: sum(_tfidf_weight(tf, idf[term]) for tf in sorted(tfs)) / k1
        for term, tfs in term_tfs.items()
    }

    candidates = [(term, w) for term, w in centroid.items() if term not in q_vec]
    candidates.sort(key=lambda e: (-e[1], corpus.vocabulary[e[0]]))
    expanded = dict(q_vec)
    for term, w in candidates[:t]:
        expanded[term] = gamma * w
    return ScoredRanking.from_dense(inner_products(expanded)).truncate(n)


# -- relevance model ------------------------------------------------------


@dataclass
class RelevanceDistribution:
    """Sparse term distribution estimated from feedback documents."""

    probs: dict[str, float]

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


def estimate_relevance_model(query_counts: dict[str, int], corpus: Corpus,
                             feedback: list[int], lambda_r: float,
                             clip_k: int) -> RelevanceDistribution:
    """Mixture of feedback-document models weighted by query likelihood.

    Document models are Jelinek-Mercer smoothed,
    p(w | d) = (1 - lambda_r) * mle(w | d) + lambda_r * mle(w | collection),
    and the mixture weights are the (uniform-prior) posteriors of the
    feedback documents given the query under the same smoothed models.
    When clip_k > 0 only the clip_k most probable terms survive (ties to
    the lower term id) and the distribution is renormalized.
    """
    def smoothed(doc, term):
        return ((1.0 - lambda_r) * doc.term_counts.get(term, 0) / doc.length
                + lambda_r * corpus.collection_prob(term))

    likelihood = []
    for d in feedback:
        doc = corpus.documents[d]
        val = 1.0
        for term, cnt in sorted(query_counts.items()):
            val *= smoothed(doc, term) ** cnt
        likelihood.append(val)
    total = sum(likelihood)
    if total <= 0.0:
        raise ValueError("query is unrenderable by every feedback document")
    posterior = [v / total for v in likelihood]

    # sorted term iteration keeps results identical between a freshly
    # built corpus and a reloaded one (dict orders differ)
    probs: dict[str, float] = {}
    for pi, d in zip(posterior, feedback):
        doc = corpus.documents[d]
        support = doc.term_counts if lambda_r == 0.0 else corpus.collection_counts
        for term in sorted(support):
            probs[term] = probs.get(term, 0.0) + pi * smoothed(doc, term)
    probs = dict(sorted(probs.items()))
    # one renormalization guards against accumulated rounding
    total = sum(probs.values())
    probs = {w: p / total for w, p in probs.items()}

    if clip_k > 0 and clip_k < len(probs):
        ranked = sorted(probs.items(), key=lambda e: (-e[1], corpus.vocabulary[e[0]]))
        kept = dict(ranked[:clip_k])
        total = sum(kept.values())
        probs = {w: p / total for w, p in kept.items()}
    return RelevanceDistribution(probs)


def relevance_model_rank(query: Query, corpus: Corpus, k1: int, lambda_r: float,
                         clip_k: int, mu: float, n: int) -> ScoredRanking:
    """Rank documents by increasing divergence from the relevance model.

    Feedback documents are the top k1 by query rendition probability.
    Scores are emitted as negative KL(R || Dirichlet(d)) so that higher is
    better, matching every other system here.
    """
    if k1 < 1:
        raise ValueError("k1 must be >= 1")
    if not 0.0 < lambda_r < 1.0:
        raise ValueError("lambda_r must lie strictly between 0 and 1")
    if clip_k < 0:
        raise ValueError("clip_k must be >= 0")
    counts = corpus.query_counts(query)
    # the lm_baseline order of the feedback documents, without normalising
    # the query a second time
    feedback = ranked_order(np.exp(log_rendition_docs(corpus, counts, mu)))[:k1].tolist()
    rel = estimate_relevance_model(counts, corpus, feedback, lambda_r, clip_k)
    # -KL(R || d) = H(R) + sum_w p_R(w) log p_dir(w | d): the cross-entropy
    # term is a rendition score of the fractional-count text p_R.
    cross = log_rendition_docs(corpus, rel.probs, mu)
    return ScoredRanking.from_dense(rel.entropy() + cross).truncate(n)
