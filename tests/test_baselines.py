import math

import numpy as np
import pytest

from conftest import as_text, collection_counts, doc_counts, random_corpus, random_mu
from pqlm import (
    PreprocessOptions,
    build_corpus,
    lm_baseline,
    relevance_model_rank,
    rocchio_rank,
)
from pqlm import oracles
from pqlm.baselines import RelevanceDistribution, estimate_relevance_model
from pqlm.corpus import Corpus, Query
from pqlm.lm import log_rendition_docs, ranked_order


def query_for(corpus, rng, n_terms=2):
    vocab = sorted(corpus.vocabulary)
    return Query("q", [str(t) for t in rng.choice(vocab, size=n_terms)])


def reference_relevance_model(query_counts, corpus, feedback, lambda_r, clip_k):
    """The per-term dict loop that estimate_relevance_model vectorises,
    keyed by term id."""
    def smoothed(doc, term):
        return ((1.0 - lambda_r) * doc.get(term, 0) / sum(doc.values())
                + lambda_r * corpus.collection_prob(term))

    likelihood = []
    for d in feedback:
        doc = doc_counts(corpus, d)
        val = 1.0
        for term, cnt in sorted(query_counts.items()):
            val *= smoothed(doc, term) ** cnt
        likelihood.append(val)
    posterior = [v / sum(likelihood) for v in likelihood]
    probs = {}
    for pi, d in zip(posterior, feedback):
        doc = doc_counts(corpus, d)
        support = doc if lambda_r == 0.0 else collection_counts(corpus)
        for term in sorted(support):
            probs[term] = probs.get(term, 0.0) + pi * smoothed(doc, term)
    probs = dict(sorted(probs.items()))
    total = sum(probs.values())
    probs = {w: p / total for w, p in probs.items()}
    if clip_k > 0 and clip_k < len(probs):
        ranked = sorted(probs.items(), key=lambda e: (-e[1], corpus.vocabulary[e[0]]))
        kept = dict(ranked[:clip_k])
        total = sum(kept.values())
        probs = {w: p / total for w, p in kept.items()}
    return {corpus.vocabulary[w]: p for w, p in probs.items()}


class TestLmBaseline:
    def test_equals_top_renderers(self):
        rng = np.random.default_rng(199)
        corpus = random_corpus(rng, n_docs=7)
        mu = random_mu(rng)
        q = query_for(corpus, rng)
        base = lm_baseline(q, corpus, mu, 5)
        counts = {t: q.terms.count(t) for t in set(q.terms)}
        top = ranked_order(np.exp(log_rendition_docs(corpus, as_text(corpus, counts), mu)))[:5]
        assert base.doc_ids.tolist() == top.tolist()

    def test_identical_documents_adjacent_lower_id_first(self):
        corpus = build_corpus(
            [("A", "k k m"), ("B", "k k m"), ("C", "m m m")],
            PreprocessOptions())
        out = lm_baseline(Query("q", ["k"]), corpus, 2.0, 3)
        assert out.doc_ids.tolist()[:2] == [0, 1]
        assert out.scores[0] == out.scores[1]

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=5)
            mu = random_mu(rng)
            q = query_for(corpus, rng)
            got = lm_baseline(q, corpus, mu, 5)
            counts = {t: q.terms.count(t) for t in set(q.terms)}
            want = oracles.lm_baseline_scores(counts, corpus, mu)
            assert got.doc_ids.tolist() == [d for d, _ in want]
            np.testing.assert_allclose(got.scores, [s for _, s in want],
                                       rtol=1e-10)

    def test_empty_query(self, tiny_corpus):
        with pytest.raises(ValueError, match="empty"):
            lm_baseline(Query("q", []), tiny_corpus, 1.0, 2)


class TestRocchio:
    def test_gamma_zero_keeps_initial_ranking(self):
        rng = np.random.default_rng(223)
        corpus = random_corpus(rng, n_docs=8)
        q = query_for(corpus, rng)
        plain = rocchio_rank(q, corpus, k1=3, t=5, gamma=0.0, n=8)
        no_terms = rocchio_rank(q, corpus, k1=3, t=0, gamma=0.5, n=8)
        assert plain == no_terms

    def test_single_feedback_doc_adds_its_heaviest_term(self):
        corpus = build_corpus(
            [("A", "q q w w w z"), ("B", "q z"), ("C", "z z")],
            PreprocessOptions())
        # k1=1 picks A; heaviest non-query centroid term of A decides
        idf = {t: math.log(3 / len(corpus.postings(i)[0]))
               for t, i in corpus.vocabulary.items()}
        weights = {t: (1 + math.log(c)) * idf[t]
                   for t, c in doc_counts(corpus, 0).items()
                   if t != "q"}
        heaviest = max(sorted(weights), key=lambda t: weights[t])
        assert heaviest == "w"
        got = rocchio_rank(Query("q", ["q"]), corpus, 1, 1, 0.5, 3)
        # hand evaluation: q' = q + 0.5 * centroid{w}; inner products per doc
        q_w = (1 + math.log(1)) * idf["q"]
        added_w = 0.5 * weights["w"]
        expected = {}
        for d in range(corpus.n_docs):
            doc = doc_counts(corpus, d)
            score = 0.0
            if "q" in doc:
                score += q_w * (1 + math.log(doc["q"])) * idf["q"]
            if "w" in doc:
                score += added_w * (1 + math.log(doc["w"])) * idf["w"]
            expected[d] = score
        for d, s in got.entries:
            assert s == pytest.approx(expected[d], rel=1e-12)

    def test_matches_vector_oracle(self):
        rng = np.random.default_rng(227)
        for _ in range(15):
            corpus = random_corpus(rng, n_docs=6)
            q = query_for(corpus, rng)
            got = rocchio_rank(q, corpus, k1=2, t=2, gamma=0.5, n=6)
            want = oracles.rocchio_scores(q.terms, corpus, 2, 2, 0.5)
            assert got.doc_ids.tolist() == [d for d, _ in want]
            np.testing.assert_allclose(got.scores, [s for _, s in want],
                                       rtol=1e-10, atol=1e-12)

    def test_idf_only_for_query_and_feedback_terms(self, monkeypatch):
        corpus = build_corpus(
            [("A", "q w w"), ("B", "q z"), ("C", "x y"), ("D", "u v s")],
            PreprocessOptions())
        looked_up = []
        postings = Corpus.postings
        monkeypatch.setattr(Corpus, "postings",
                            lambda self, term: looked_up.append(term) or postings(self, term))
        # k1=1: the feedback document is A, the lower id of a tie with B
        rocchio_rank(Query("q", ["q"]), corpus, k1=1, t=1, gamma=0.5, n=4)
        assert looked_up and set(looked_up) <= {corpus.vocabulary[t] for t in "qw"}

    def test_k1_clamped(self, tiny_corpus):
        out = rocchio_rank(Query("q", ["a"]), tiny_corpus, k1=99, t=1,
                           gamma=0.5, n=2)
        assert len(out) == 2


class TestRelevanceModel:
    def test_k1_one_is_single_smoothed_model(self, tiny_corpus):
        rel = estimate_relevance_model(as_text(tiny_corpus, {"a": 1}), tiny_corpus, [0], 0.3, 0)
        doc = doc_counts(tiny_corpus, 0)
        for term in tiny_corpus.vocabulary:
            expected = (0.7 * doc.get(term, 0) / sum(doc.values())
                        + 0.3 * tiny_corpus.collection_prob(term))
            assert rel.probs[tiny_corpus.vocabulary[term]] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("lambda_r", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("clip_k", [0, 1, 3, 20, 10_000])
    def test_bit_equal_to_literal_reference(self, lambda_r, clip_k):
        rng = np.random.default_rng(257)
        vocab = [f"w{i:02d}" for i in range(40)]
        for _ in range(15):
            corpus = build_corpus(
                [(f"D{i}", " ".join(rng.choice(vocab, size=int(rng.integers(5, 30)))))
                 for i in range(int(rng.integers(3, 9)))],
                PreprocessOptions())
            term = str(rng.choice(sorted(corpus.vocabulary)))
            # at lambda_r = 0 every feedback document must hold the query
            # term, or its terms get probability 0
            holders = corpus.postings(corpus.vocabulary[term])[0].tolist()
            feedback = holders[:3] if lambda_r == 0.0 else [2, 0, 1]
            counts = {term: int(rng.integers(1, 3))}
            got = estimate_relevance_model(as_text(corpus, counts), corpus, feedback,
                                           lambda_r, clip_k)
            assert got.probs == reference_relevance_model(
                counts, corpus, feedback, lambda_r, clip_k)
            if lambda_r == 0.0 and clip_k == 0:
                assert set(got.probs) == set().union(
                    *(corpus.text(d)[0].tolist() for d in feedback))

    @pytest.mark.parametrize("lambda_r", [0.0, 0.5])
    def test_clip_tie_keeps_the_lower_term_id(self, lambda_r):
        # b and a tie exactly: equal counts in the feedback document and in
        # the collection
        corpus = build_corpus([("A", "c b a c"), ("B", "d")], PreprocessOptions())
        rel = estimate_relevance_model(as_text(corpus, {"c": 1}), corpus, [0], lambda_r, 2)
        assert set(rel.probs) == {corpus.vocabulary[t] for t in "ac"}
        assert rel.probs == reference_relevance_model({"c": 1}, corpus, [0], lambda_r, 2)

    def test_distribution_normalized_before_and_after_clipping(self):
        rng = np.random.default_rng(229)
        for _ in range(20):
            corpus = random_corpus(rng, n_docs=6)
            q = query_for(corpus, rng)
            counts = {t: q.terms.count(t) for t in set(q.terms)}
            full = estimate_relevance_model(as_text(corpus, counts), corpus, [0, 1, 2], 0.4, 0)
            assert sum(full.probs.values()) == pytest.approx(1.0, abs=1e-9)
            clipped = estimate_relevance_model(as_text(corpus, counts), corpus, [0, 1, 2], 0.4, 3)
            assert sum(clipped.probs.values()) == pytest.approx(1.0, abs=1e-9)
            assert clipped.support_size <= 3

    def test_clipping_beyond_vocab_is_noop(self):
        rng = np.random.default_rng(233)
        corpus = random_corpus(rng, n_docs=5)
        q = query_for(corpus, rng)
        a = relevance_model_rank(q, corpus, 2, 0.5, 0, 2.0, 5)
        b = relevance_model_rank(q, corpus, 2, 0.5, 10_000, 2.0, 5)
        assert a == b

    def test_matches_mixture_kl_oracle(self):
        rng = np.random.default_rng(239)
        for _ in range(15):
            corpus = random_corpus(rng, n_docs=5)
            mu = random_mu(rng)
            q = query_for(corpus, rng)
            got = relevance_model_rank(q, corpus, 2, 0.5, 0, mu, 5)
            want = oracles.relevance_model_scores(q.terms, corpus, 2, 0.5, 0, mu)
            assert got.doc_ids.tolist() == [d for d, _ in want]
            np.testing.assert_allclose(got.scores, [s for _, s in want],
                                       rtol=1e-10, atol=1e-12)

    def test_clipped_matches_oracle(self):
        rng = np.random.default_rng(241)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=6)
            q = query_for(corpus, rng)
            got = relevance_model_rank(q, corpus, 3, 0.4, 4, 3.0, 6)
            want = oracles.relevance_model_scores(q.terms, corpus, 3, 0.4, 4, 3.0)
            assert got.doc_ids.tolist() == [d for d, _ in want]
            np.testing.assert_allclose(got.scores, [s for _, s in want],
                                       rtol=1e-10, atol=1e-12)

    def test_parameter_validation(self, tiny_corpus):
        q = Query("q", ["a"])
        with pytest.raises(ValueError, match="k1"):
            relevance_model_rank(q, tiny_corpus, 0, 0.5, 0, 1.0, 2)
        with pytest.raises(ValueError, match="lambda_r"):
            relevance_model_rank(q, tiny_corpus, 1, 1.0, 0, 1.0, 2)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            RelevanceDistribution({0: 0.5})
        with pytest.raises(ValueError, match="non-positive"):
            RelevanceDistribution({0: 1.5, 1: -0.5})

    def test_feedback_doc_usually_ranked_first_at_low_lambda(self, capsys):
        # informational: KL to a mixture need not be minimized by its source
        rng = np.random.default_rng(251)
        wins = trials = 0
        for _ in range(20):
            corpus = random_corpus(rng, n_docs=6)
            q = query_for(corpus, rng)
            base = lm_baseline(q, corpus, 2.0, 6)
            if base.scores[0] == base.scores[1]:
                continue
            trials += 1
            out = relevance_model_rank(q, corpus, 1, 0.4, 0, 2.0, 6)
            if out.doc_ids[0] == base.doc_ids[0]:
                wins += 1
        print(f"feedback-doc-first held in {wins}/{trials} trials")
        assert trials > 0
