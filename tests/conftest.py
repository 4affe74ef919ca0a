from collections import Counter

import numpy as np
import pytest

from pqlm import PreprocessOptions, build_corpus
from pqlm.lm import log_rendition_docs

VOCAB = list("abcdefgh")


def random_corpus(rng, n_docs=None, vocab_size=8, max_len=12):
    """Small random corpus over a letter vocabulary; never empty docs."""
    n = int(n_docs) if n_docs is not None else int(rng.integers(4, 13))
    docs = []
    for i in range(n):
        length = int(rng.integers(2, max_len + 1))
        terms = rng.choice(VOCAB[:vocab_size], size=length)
        docs.append((f"D{i}", " ".join(terms)))
    return build_corpus(docs, PreprocessOptions())


def random_mu(rng) -> float:
    return float(rng.uniform(0.5, 50.0))


def as_text(corpus, counts):
    """A term -> count mapping as the kernel reads a text: (term ids
    ascending, counts)."""
    items = sorted((corpus.vocabulary[t], c) for t, c in counts.items())
    return np.array([t for t, _ in items], dtype=np.int32), np.array([c for _, c in items])


def doc_counts(corpus, d):
    """Document d's text row as a term -> count dict."""
    ids, counts = corpus.text(d)
    return {corpus._terms[t]: c for t, c in zip(ids.tolist(), counts.tolist())}


def collection_counts(corpus):
    """Term -> count over the whole collection, recounted from the rows."""
    total = Counter()
    for d in range(corpus.n_docs):
        total.update(doc_counts(corpus, d))
    return dict(total)


def query_probs(corpus, counts, mu):
    """Rendition probability of a text (a term -> count mapping) per doc
    id, via the kernel: the query vector that the iterative scorers and
    drift take."""
    return np.exp(log_rendition_docs(corpus, as_text(corpus, counts), mu))


def term_probs(corpus, term, mu):
    """Dirichlet-smoothed p(term | d) of every document d, via the kernel."""
    return query_probs(corpus, {term: 1}, mu)


@pytest.fixture
def opts():
    return PreprocessOptions()


@pytest.fixture
def tiny_corpus():
    """The two-document worked example: d0 = 'a a b', d1 = 'b c'."""
    return build_corpus([("d0", "a a b"), ("d1", "b c")], PreprocessOptions())
