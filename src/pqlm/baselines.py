"""Reference retrieval systems: the plain language-model ranking,
pseudo-feedback Rocchio, and the (optionally clipped) relevance model.

Per-query cost, for N documents, depth n, V distinct corpus terms and F
(term, tf) pairs in the k1 feedback documents: the LM ranking is one
rendition pass, O(|q| + sum of the query terms' df + N + n log n).
Rocchio is two tf.idf inner-product passes over the postings of the query
and expansion terms, with idf for the query and feedback terms only, and
O(F log F) array work for the centroid.  The relevance model is an LM
ranking for its feedback, 2 * k1 + O(1) V-long vector passes to estimate
the model, and one rendition pass over the model's support.  Every sum of
floats adds left to right (:func:`~pqlm.corpus.left_sum`, or ``np.bincount``
in input order), so the scores do not depend on the Python version.
"""

from __future__ import annotations

import math

import numpy as np

from . import lm
from .corpus import Corpus, Query, left_sum
from .params import check
from .scoring import ScoredRanking


def lm_baseline(query: Query, corpus: Corpus, mu: float, n: int) -> ScoredRanking:
    """Rank every document by its rendition probability of the query.

    O(|q| + sum of the query terms' df + N + n log n) per query.
    """
    check(N=n, mu=mu)
    return ScoredRanking(*lm.top_renderers(corpus, corpus.query_counts(query), n, mu))


# -- Rocchio over pseudo-feedback ----------------------------------------


def _per_distinct(fn, values: np.ndarray) -> np.ndarray:
    """fn of each value, called once per distinct value."""
    distinct, at = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()], dtype=float)[at]


def _idf(corpus: Corpus, term_ids: np.ndarray) -> np.ndarray:
    # every term id occurs in some document, so df >= 1
    n = corpus.n_docs
    return _per_distinct(lambda df: math.log(n / df), corpus.doc_freqs()[term_ids])


def _tfidf_weights(tfs: np.ndarray, idf: np.ndarray) -> np.ndarray:
    """(1 + ln tf) * idf of positive counts."""
    return (1.0 + _per_distinct(math.log, tfs)) * idf


def _inner_products(corpus: Corpus, terms: np.ndarray, weights: np.ndarray,
                    idf: np.ndarray) -> np.ndarray:
    """Every document's inner product with a weighted query: `terms`
    ascending, their weights and idf; one postings pass per nonzero weight,
    summed in term order by :func:`~pqlm.lm.credit_sums`."""
    live = np.flatnonzero(weights)
    postings = [corpus.postings(t) for t in terms[live].tolist()]
    return lm.credit_sums(corpus.n_docs, [ids for ids, _ in postings],
                          [wq * (1.0 + np.log(counts))
                           for wq, (_, counts) in zip(weights[live].tolist(), postings)],
                          idf[live])


def _centroid(corpus: Corpus, feedback: np.ndarray) -> tuple[np.ndarray, ...]:
    """(term ids ascending, centroid weights, idf) of the feedback documents'
    terms: O(F log F) for their F (term, tf) pairs, and one ``np.bincount``
    over the pairs' term slots.

    Each term's weights are summed in ascending tf order, so that terms with
    identical (tf multiset, df) come out exactly equal and fall to the
    term-id tie rule.  ``np.bincount`` adds each term's weights in input
    order from 0.0, and the weights are non-negative, so 0.0 plus the first
    is the first.
    """
    rows = [corpus.text(d) for d in feedback.tolist()]
    terms = np.concatenate([ids for ids, _ in rows])
    tfs = np.concatenate([counts for _, counts in rows])
    order = np.lexsort((tfs, terms))
    ids, slot = np.unique(terms[order], return_inverse=True)
    idf = _idf(corpus, ids)
    sums = np.bincount(slot, _tfidf_weights(tfs[order], idf[slot]))
    return ids, sums / len(feedback), idf


def rocchio_rank(query: Query, corpus: Corpus, k1: int, t: int, gamma: float,
                 n: int) -> ScoredRanking:
    """Vector-space pseudo-feedback with log tf.idf weights.

    Weights are (1 + ln tf) * ln(|D| / df); similarity is the inner
    product.  The query is augmented with the top-t centroid terms (of the
    top-k1 feedback documents) that it does not already contain, scaled by
    gamma, ties to the lower term id; only positive feedback is used.

    idf is read off :meth:`Corpus.doc_freqs` for the query and feedback
    terms only.  A query costs two inner-product passes over the postings
    of its |q| terms and the t expansion terms, O(F log F) array work for
    the centroid of the F feedback (term, tf) pairs, an O(N + k1 log k1)
    pick of the feedback documents and one O(N log N) ranking.
    """
    check(N=n, k1=k1, t=t, gamma=gamma)
    q_ids, q_tfs = corpus.query_counts(query)
    q_idf = _idf(corpus, q_ids)
    q_weights = _tfidf_weights(q_tfs, q_idf)
    initial = _inner_products(corpus, q_ids, q_weights, q_idf)
    if t == 0 or gamma == 0.0:
        return ScoredRanking.from_dense(initial).truncate(n)

    terms, centroid, idf = _centroid(corpus, lm.top_k(initial, min(k1, corpus.n_docs)))
    fresh = ~np.isin(terms, q_ids)
    terms, centroid, idf = terms[fresh], centroid[fresh], idf[fresh]
    # terms ascend, so top_k's ties to the lower index go to the lower term id
    best = lm.top_k(centroid, t)
    ids = np.concatenate([q_ids, terms[best]])
    order = np.argsort(ids)
    idf = np.concatenate([q_idf, idf[best]])
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.concatenate([q_weights, gamma * centroid[best]])
        scores = _inner_products(corpus, ids[order], weights[order], idf[order])
    if not np.isfinite(scores).all():
        raise ValueError(f"gamma={gamma} is too large: an expanded-query score is not finite")
    return ScoredRanking.from_dense(scores).truncate(n)


# -- relevance model ------------------------------------------------------


def _model_length(probs) -> float:
    """The sum of a model's probabilities in its own order, once they are
    checked to be positive and to sum to 1."""
    total = left_sum(probs)
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"relevance model sums to {total}, not 1")
    if (np.asarray(probs) <= 0.0).any():
        raise ValueError("relevance model has non-positive entries")
    return total


def _entropy(probs: np.ndarray) -> float:
    """-sum p ln p of probabilities in ascending term-id order."""
    logs = np.fromiter(map(math.log, probs.tolist()), float, len(probs))
    return -left_sum(probs * logs)


def _smoothed(lambda_r: float, tf, length, coll_prob):
    """Jelinek-Mercer p(w | d) of scalars or arrays alike."""
    return (1.0 - lambda_r) * tf / length + lambda_r * coll_prob


def _posteriors(query_counts: tuple[np.ndarray, np.ndarray], corpus: Corpus,
                feedback: list[int], lambda_r: float) -> list[float]:
    """Each feedback document's posterior given the query, uniform prior.

    A document's likelihood is the product, from 1.0 in term-id order, of
    its smoothed query-term probabilities, each to the power of the term's
    count.  The posteriors are the likelihoods over their sum.  With
    lambda_r > 0 every factor is positive, but a long query's product can
    underflow to 0.0; when any document's does, all of the query's
    posteriors are exp(l_d - max l) over their sum instead, with l_d the
    log-likelihood.  Products that stay positive thus keep their arithmetic.
    O(k1 * |q|) scalar work.
    """
    q_ids, q_cnts = query_counts
    tf = np.zeros((len(feedback), len(q_ids)), dtype=np.int64)
    for i, d in enumerate(feedback):
        ids, counts = corpus.text(d)
        at = np.minimum(np.searchsorted(ids, q_ids), len(ids) - 1)
        tf[i] = np.where(ids[at] == q_ids, counts[at], 0)
    factors = _smoothed(lambda_r, tf, corpus.lengths()[feedback][:, None],
                        corpus._collection_probs[q_ids])
    likelihood, cnts = [], q_cnts.tolist()
    for row in factors.tolist():
        val = 1.0
        for x, cnt in zip(row, cnts):
            val *= x ** cnt
        likelihood.append(val)
    if 0.0 in likelihood:
        logs = np.add.accumulate(q_cnts * np.log(factors), axis=1)[:, -1]
        likelihood = np.exp(logs - logs.max()).tolist()
    total = left_sum(likelihood)
    return [v / total for v in likelihood]


def estimate_relevance_model(query_counts: tuple[np.ndarray, np.ndarray], corpus: Corpus,
                             feedback: list[int], lambda_r: float,
                             clip_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture of feedback-document models weighted by query likelihood, as
    (term ids, probabilities): every term id in ascending order, or, when
    clipped, the kept ids in rank order.

    `query_counts` is the query as a text, (term ids ascending, counts).
    Document models are Jelinek-Mercer smoothed,
    p(w | d) = (1 - lambda_r) * mle(w | d) + lambda_r * mle(w | collection),
    with 0 < lambda_r < 1, and the mixture weights are the (uniform-prior)
    posteriors of the feedback documents given the query under the same
    smoothed models (:func:`_posteriors`).  When clip_k > 0 only the clip_k
    most probable terms survive (ties to the lower term id) and the model
    is renormalized.

    Two V-long vector passes per feedback document make the mixture (every
    term's smoothed background, then the document's own terms set), one
    left-to-right accumulate normalises it, and O(V) more selects the
    clipped terms.  Each term's value is the same chain of float operations,
    in the same (feedback, then term-id) order, as a per-term loop.
    """
    check(lambda_r=lambda_r, clip_k=clip_k)
    coll, lengths = corpus._collection_probs, corpus.lengths()
    # a term the document lacks has _smoothed == 0.0 + lambda_r * coll, the
    # same float; term ids are lexicographic, so every sum below runs in
    # sorted-term order, which a freshly built and a reloaded corpus share
    background = lambda_r * coll
    if not background.all():  # so that every smoothed probability is positive
        raise ValueError(f"lambda_r={lambda_r} is too small: "
                         "lambda_r * p(w | C) is 0.0 for some w")
    mixture, row = np.zeros(len(coll)), np.empty(len(coll))
    for pi, d in zip(_posteriors(query_counts, corpus, feedback, lambda_r), feedback):
        ids, counts = corpus.text(d)
        np.multiply(pi, background, out=row)
        row[ids] = pi * _smoothed(lambda_r, counts, lengths[d], coll[ids])
        mixture += row
    # one renormalization guards against accumulated rounding
    ids, probs = np.arange(len(coll)), mixture / left_sum(mixture)
    if 0 < clip_k < len(ids):
        ids = lm.top_k(probs, clip_k)
        probs = probs[ids] / left_sum(probs[ids])
    return ids, probs


def relevance_model_rank(query: Query, corpus: Corpus, k1: int, lambda_r: float,
                         clip_k: int, mu: float, n: int) -> ScoredRanking:
    """Rank documents by increasing divergence from the relevance model.

    Feedback documents are the top k1 by query rendition probability.
    Scores are emitted as negative KL(R || Dirichlet(d)) so that higher is
    better, matching every other system here.  The model stays two arrays:
    no dict of its support is built, and only a clipped model is sorted.
    """
    check(N=n, k1=k1, lambda_r=lambda_r, clip_k=clip_k, mu=mu)
    counts = corpus.query_counts(query)
    # the lm_baseline order of the feedback documents, without normalising
    # the query a second time
    feedback = lm.top_renderers(corpus, counts, k1, mu)[0].tolist()
    ids, probs = estimate_relevance_model(counts, corpus, feedback, lambda_r, clip_k)
    # -KL(R || d) = H(R) + sum_w p_R(w) log p_dir(w | d): the cross-entropy
    # term is a rendition score of the fractional-count text p_R, whose
    # length is summed in the model's own (rank, when clipped) order
    length = _model_length(probs)
    if clip_k:
        order = np.argsort(ids)
        ids, probs = ids[order], probs[order]
    cross = lm.log_rendition_docs(corpus, (ids, probs), mu, length)
    return ScoredRanking.from_dense(_entropy(probs) + cross).truncate(n)
