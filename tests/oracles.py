"""Naive desk-scale reference implementations used to verify production code.

Everything here evaluates the defining formulas head-on: the documents are
read as literal count dicts off the corpus's text rows, collection
statistics are recounted from them, top-renderer sets come from
full sorts, and scoring walks every (renderer, pseudo-query) pair.  No
indexing shortcut from the production modules is reused, so agreement
between the two is meaningful evidence.

Every ordering decision (top-renderer sets, normalizer pools, final sort
keys where possible) is taken over exact rational arithmetic so that
mathematically tied candidates really compare equal and fall back to the
lower-id rule; floating point appears only in reported score values.
Size limits are enforced because nothing here is meant to scale.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Mapping, Sequence

from pqlm.corpus import Corpus
from pqlm.lm import QUERY_ID

MAX_DOCS = 64
MAX_VOCAB = 32


_Document = namedtuple("_Document", "doc_id term_counts length")


def _documents(corpus: Corpus) -> list[_Document]:
    """The documents as literal count dicts, read off the corpus's text
    rows; desk-scale corpora only."""
    docs = []
    for d in range(corpus.n_docs):
        ids, counts = corpus.text(d)
        table = {corpus._terms[t]: c for t, c in zip(ids.tolist(), counts.tolist())}
        docs.append(_Document(d, table, sum(table.values())))
    if len(docs) > MAX_DOCS or len(set().union(*(d.term_counts for d in docs))) > MAX_VOCAB:
        raise ValueError("oracle is desk-scale only "
                         f"(docs <= {MAX_DOCS}, vocab <= {MAX_VOCAB})")
    return docs


def _collection(docs: list[_Document]) -> tuple[dict[str, int], int]:
    counts: dict[str, int] = {}
    total = 0
    for doc in docs:
        for term, c in doc.term_counts.items():
            counts[term] = counts.get(term, 0) + c
            total += c
    return counts, total


def dirichlet_prob(term: str, counts: Mapping[str, int], length: int,
                   mu: float, coll: Mapping[str, int], coll_len: int) -> float:
    return (counts.get(term, 0) + mu * coll.get(term, 0) / coll_len) / (length + mu)


def _dirichlet_exact(term: str, counts: Mapping[str, int], length: int,
                     mu: Fraction, coll: Mapping[str, int], coll_len: int) -> Fraction:
    return ((counts.get(term, 0) + mu * Fraction(coll.get(term, 0), coll_len))
            / (length + mu))


def _product_exact(counts: Mapping[str, int], length: int,
                   text: Mapping[str, int], mu: Fraction,
                   coll: Mapping[str, int], coll_len: int) -> Fraction:
    value = Fraction(1)
    for term, cnt in sorted(text.items()):
        value *= _dirichlet_exact(term, counts, length, mu, coll, coll_len) ** cnt
    return value


def _root(product: Fraction, n: int) -> float:
    # big-int logs keep huge exact products out of the float range
    return math.exp((math.log(product.numerator)
                     - math.log(product.denominator)) / n)


def rendition(counts: Mapping[str, int], length: int, text: Mapping[str, int],
              mu: float, coll: Mapping[str, int], coll_len: int) -> float:
    """Geometric mean of smoothed term probabilities, via the exact product."""
    return _root(_product_exact(counts, length, text, Fraction(mu), coll,
                                coll_len), sum(text.values()))


class _Table:
    """Rendition scores of one text against a candidate set.

    Exact rational products drive every comparison; the float geometric
    means are what enter reported scores.
    """

    def __init__(self, exact: dict[int, Fraction], n_tokens: int):
        self.exact = exact
        self.value = {i: _root(p, n_tokens) for i, p in exact.items()}

    def top(self, k: int) -> list[int]:
        return sorted(self.exact, key=lambda i: (-self.exact[i], i))[:k]

    def __getitem__(self, i: int) -> float:
        return self.value[i]

    def __iter__(self):
        return iter(self.exact)


def _doc_table(docs: list[_Document], text: Mapping[str, int], mu: float,
               coll, coll_len) -> _Table:
    mu_f = Fraction(mu)
    exact = {
        d.doc_id: _product_exact(d.term_counts, d.length, text, mu_f, coll, coll_len)
        for d in docs
    }
    return _Table(exact, sum(text.values()))


def _top(scores: Mapping[int, float], k: int) -> list[int]:
    if isinstance(scores, _Table):
        return scores.top(k)
    return sorted(scores, key=lambda i: (-scores[i], i))[:k]


def _text_of(item: int, docs: list[_Document], query_counts) -> Mapping[str, int]:
    return query_counts if item == QUERY_ID else docs[item].term_counts


def lm_baseline_scores(query_counts, corpus: Corpus, mu: float) -> list[tuple[int, float]]:
    docs = _documents(corpus)
    coll, coll_len = _collection(docs)
    table = _doc_table(docs, query_counts, mu, coll, coll_len)
    return [(d, table[d]) for d in table.top(len(docs))]


def vdoc_scores(pq_items, pq_weights, alpha: int, corpus: Corpus, mu: float,
                query_counts) -> list[tuple[int, float]]:
    """Explicit score-function evaluation of the first scoring method."""
    docs = _documents(corpus)
    coll, coll_len = _collection(docs)
    n = len(docs)
    active = [i for i, w in zip(pq_items, pq_weights) if w > 0]
    tables = [
        _doc_table(docs, _text_of(i, docs, query_counts), mu, coll, coll_len)
        for i in active
    ]
    tops = [set(t.top(alpha)) for t in tables]
    q_table = _doc_table(docs, query_counts, mu, coll, coll_len)
    out = {}
    for d in range(n):
        rank = n + 1
        prob = q_table[d]
        for idx in range(len(active)):
            if d in tops[idx]:
                rank = idx + 1
                prob = tables[idx][d]
                break
        bonus = 2 * (n - rank + 1) if rank <= n else 0
        out[d] = (prob + bonus) / (1 + 2 * n)
    return [(d, out[d]) for d in _top(out, n)]


def mcdoc_scores(pq_items, pq_weights, alpha: int, m: int, corpus: Corpus,
                 mu: float, query_counts) -> list[tuple[int, float]]:
    """Per-document sum over its repertoire of weighted normalized credits."""
    docs = _documents(corpus)
    coll, coll_len = _collection(docs)
    n = len(docs)
    out = {d: 0.0 for d in range(n)}
    for item, w in zip(pq_items, pq_weights):
        if w <= 0:
            continue
        table = _doc_table(docs, _text_of(item, docs, query_counts),
                           mu, coll, coll_len)
        norm = sum(table[d] for d in sorted(table.top(m)))
        top_alpha = set(table.top(alpha))
        for d in range(n):
            if d in top_alpha:
                out[d] += w * (table[d] / norm)
    return [(d, out[d]) for d in _top(out, n)]


def mccluster_scores(pq_items, pq_weights, alpha_cluster: int, beta: int,
                     cluster_members: Sequence[Sequence[int]], corpus: Corpus,
                     mu: float, first_round: bool, query_counts) -> list[tuple[int, float]]:
    """Literal two-phase evaluation over explicit cluster member lists."""
    docs = _documents(corpus)
    coll, coll_len = _collection(docs)
    mu_f = Fraction(mu)
    n = len(docs)
    n_clusters = len(cluster_members)

    cluster_counts = []
    cluster_lengths = []
    for members in cluster_members:
        counts: dict[str, int] = {}
        length = 0
        for d in members:
            for term, c in docs[d].term_counts.items():
                counts[term] = counts.get(term, 0) + c
            length += docs[d].length
        cluster_counts.append(counts)
        cluster_lengths.append(length)

    def clusters_containing(item: int) -> list[int]:
        if item == QUERY_ID:
            if not first_round:
                raise ValueError("the query is not a round-2+ pseudo-query")
            return list(range(n_clusters))
        return [c for c in range(n_clusters) if item in cluster_members[c]]

    cscores = {c: 0.0 for c in range(n_clusters)}
    for item, w in zip(pq_items, pq_weights):
        if w <= 0:
            continue
        cand = clusters_containing(item)
        if not cand:
            continue
        text = _text_of(item, docs, query_counts)
        table = _Table(
            {c: _product_exact(cluster_counts[c], cluster_lengths[c], text,
                               mu_f, coll, coll_len) for c in cand},
            sum(text.values()))
        norm = sum(table[c] for c in sorted(cand))
        for c in table.top(alpha_cluster):
            cscores[c] += w * (table[c] / norm)

    dscores = {d: 0.0 for d in range(n)}
    for c in range(n_clusters):
        if cscores[c] == 0.0:
            continue
        table = _Table(
            {d: _product_exact(docs[d].term_counts,
                               docs[d].length, cluster_counts[c],
                               mu_f, coll, coll_len)
             for d in cluster_members[c]},
            cluster_lengths[c])
        norm = sum(table[d] for d in sorted(table))
        for d in table.top(beta):
            dscores[d] += cscores[c] * (table[d] / norm)
    return [(d, dscores[d]) for d in _top(dscores, n)]


def oracle_scores(method: str, pq_items, pq_weights, params: Mapping, corpus: Corpus,
                  cluster_members=None, first_round: bool = True,
                  query_counts=None) -> list[tuple[int, float]]:
    """Dispatch to the matching naive scorer; desk-scale enforced inside."""
    if method == "vdoc":
        return vdoc_scores(pq_items, pq_weights, params["alpha"], corpus,
                           params["mu"], query_counts)
    if method == "mcdoc":
        return mcdoc_scores(pq_items, pq_weights, params["alpha"], params["m"],
                            corpus, params["mu"], query_counts)
    if method == "mccluster":
        return mccluster_scores(pq_items, pq_weights, params["alpha_cluster"],
                                params["beta"], cluster_members, corpus,
                                params["mu"], first_round, query_counts)
    raise ValueError(f"unknown method {method!r}")


# -- drift ---------------------------------------------------------------


def interpolate(method_pairs, query_pairs, lambda_: float) -> list[tuple[int, float]]:
    m_max = max(s for _, s in method_pairs)
    q_max = max(s for _, s in query_pairs)
    if m_max <= 0.0:
        return sorted(query_pairs, key=lambda e: (-e[1], e[0]))
    q_of = dict(query_pairs)
    combined = [
        (d, lambda_ * s / m_max + (1 - lambda_) * q_of[d] / q_max)
        for d, s in method_pairs
    ]
    return sorted(combined, key=lambda e: (-e[1], e[0]))


def truncated_rerank(method_pairs, query_pairs, n: int) -> list[tuple[int, float]]:
    ranked = sorted(method_pairs, key=lambda e: (-e[1], e[0]))[:n]
    q_of = dict(query_pairs)
    return sorted(((d, q_of[d]) for d, _ in ranked), key=lambda e: (-e[1], e[0]))


def iterated_truncation(pairs, n: int) -> list[tuple[int, float]]:
    ranked = sorted(pairs, key=lambda e: (-e[1], e[0]))
    kept = ranked[:n] + [(d, 0.0) for d, _ in ranked[n:]]
    return sorted(kept, key=lambda e: (-e[1], e[0]))


# -- baselines -----------------------------------------------------------


def rocchio_scores(query_terms: Sequence[str], corpus: Corpus, k1: int, t: int,
                   gamma: float, ) -> list[tuple[int, float]]:
    """Straight vector arithmetic: build every vector as an explicit dict."""
    docs = _documents(corpus)
    n = len(docs)
    df: dict[str, int] = {}
    for doc in docs:
        for term in doc.term_counts:
            df[term] = df.get(term, 0) + 1

    def weight(tf: int, term: str) -> float:
        return (1 + math.log(tf)) * math.log(n / df[term])

    def doc_vector(doc) -> dict[str, float]:
        return {term: weight(tf, term) for term, tf in doc.term_counts.items()}

    q_tf: dict[str, int] = {}
    for term in query_terms:
        if term in df:
            q_tf[term] = q_tf.get(term, 0) + 1
    q_vec = {term: weight(tf, term) for term, tf in q_tf.items()}

    def inner(u: dict, v: dict) -> float:
        return sum(u[w] * v[w] for w in sorted(u) if w in v)

    initial = {d.doc_id: inner(q_vec, doc_vector(d)) for d in docs}
    feedback = _top(initial, min(k1, n))
    if t == 0 or gamma == 0.0:
        return [(d, initial[d]) for d in _top(initial, n)]

    # same canonical accumulation as production: per-term sorted tf values,
    # one division, so mathematically tied terms compare exactly equal
    term_tfs: dict[str, list[int]] = {}
    for d in feedback:
        for term, tf in docs[d].term_counts.items():
            term_tfs.setdefault(term, []).append(tf)
    centroid = {
        term: sum(weight(tf, term) for tf in sorted(tfs)) / len(feedback)
        for term, tfs in term_tfs.items()
    }
    extra = sorted(
        (term for term in centroid if term not in q_vec),
        key=lambda term: (-centroid[term], sorted(df).index(term)),
    )[:t]
    expanded = dict(q_vec)
    for term in extra:
        expanded[term] = gamma * centroid[term]
    final = {d.doc_id: inner(expanded, doc_vector(d)) for d in docs}
    return [(d, final[d]) for d in _top(final, n)]


def relevance_model_scores(query_terms: Sequence[str], corpus: Corpus, k1: int,
                           lambda_r: float, clip_k: int, mu: float) -> list[tuple[int, float]]:
    """Direct mixture construction and full-vocabulary KL evaluation."""
    docs = _documents(corpus)
    coll, coll_len = _collection(docs)
    q_counts: dict[str, int] = {}
    for term in query_terms:
        if term in coll:
            q_counts[term] = q_counts.get(term, 0) + 1
    table = _doc_table(docs, q_counts, mu, coll, coll_len)
    feedback = table.top(min(k1, len(docs)))

    def p_lambda(doc, term):
        return ((1 - lambda_r) * doc.term_counts.get(term, 0) / doc.length
                + lambda_r * coll[term] / coll_len)

    raw = []
    for d in feedback:
        doc = docs[d]
        v = 1.0
        for term, cnt in sorted(q_counts.items()):
            v *= p_lambda(doc, term) ** cnt
        raw.append(v)
    total = sum(raw)
    pis = [v / total for v in raw]

    vocab = sorted(coll)
    rel = {}
    for term in vocab:
        rel[term] = sum(pi * p_lambda(docs[d], term)
                        for pi, d in zip(pis, feedback))
    total = sum(rel[w] for w in vocab)
    rel = {w: p / total for w, p in rel.items()}
    if clip_k > 0 and clip_k < len(rel):
        term_id = {w: i for i, w in enumerate(vocab)}
        kept = sorted(rel, key=lambda w: (-rel[w], term_id[w]))[:clip_k]
        total = sum(rel[w] for w in kept)
        rel = {w: rel[w] / total for w in kept}

    out = {}
    for doc in docs:
        kl = 0.0
        for term in sorted(rel):
            p_r = rel[term]
            p_d = dirichlet_prob(term, doc.term_counts, doc.length, mu, coll, coll_len)
            kl += p_r * math.log(p_r / p_d)
        out[doc.doc_id] = -kl
    return [(d, out[d]) for d in _top(out, len(out))]


# -- statistics ----------------------------------------------------------


def wilcoxon_exact_p(diffs: Sequence[float]) -> float:
    """Two-sided signed-rank p by enumerating every sign assignment."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    if n > 20:
        raise ValueError("enumeration oracle limited to n <= 20")
    mags = sorted((abs(d), i) for i, d in enumerate(diffs))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[j + 1][0] == mags[i][0]:
            j += 1
        for k in range(i, j + 1):
            ranks[mags[k][1]] = (i + j) / 2 + 1
        i = j + 1
    observed = sum(r for r, d in zip(ranks, diffs) if d > 0)
    at_most = at_least = 0
    for signs in itertools.product((False, True), repeat=n):
        w = sum(r for r, pos in zip(ranks, signs) if pos)
        if w <= observed:
            at_most += 1
        if w >= observed:
            at_least += 1
    total = 2**n
    return min(1.0, 2.0 * min(at_most / total, at_least / total))
