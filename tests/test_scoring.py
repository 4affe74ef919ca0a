import numpy as np
import pytest

import oracles
from conftest import as_text, query_probs, random_corpus, random_mu
from pqlm import (
    QUERY_ID,
    PreprocessOptions,
    PseudoQueryList,
    ScoredRanking,
    build_clusters,
    build_corpus,
    cluster_membership,
    lm_baseline,
    precompute_neighbors,
    score_mccluster,
    score_mcdoc,
    score_vdoc,
    singleton_cluster_index,
)
from pqlm import scoring
from pqlm.corpus import Query
from pqlm.lm import log_rendition_docs, ranked_order


def assert_rankings_close(ranking: ScoredRanking, oracle_pairs, rel=1e-10):
    assert ranking.doc_ids.tolist() == [d for d, _ in oracle_pairs]
    for (got), (_, want) in zip(ranking.scores.tolist(), oracle_pairs):
        assert got == pytest.approx(want, rel=rel, abs=1e-300)


class TestPseudoQueryList:
    def test_weights_must_not_increase(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            PseudoQueryList([1, 2], [0.4, 0.9])

    def test_weight_range(self):
        with pytest.raises(ValueError, match="outside"):
            PseudoQueryList([1], [1.5])

    def test_initial_round(self):
        pq = PseudoQueryList.initial()
        assert pq.items == [QUERY_ID] and pq.weights == [1.0]

    def test_items_and_weights_differ_in_length(self):
        with pytest.raises(ValueError, match="^items and weights differ in length$"):
            PseudoQueryList([1, 2], [1.0])


class TestScoredRanking:
    def test_ids_and_scores_differ_in_length(self):
        with pytest.raises(ValueError, match="^ids and scores differ in length$"):
            ScoredRanking([0, 1], [1.0])

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_non_finite_score(self, score):
        with pytest.raises(ValueError, match="^non-finite score in ranking$"):
            ScoredRanking([0, 1], [1.0, score])


def test_query_item_without_the_query_is_refused(tiny_corpus):
    # round 1 ranks the query, which the caller must hand in
    pq = PseudoQueryList.initial()
    with pytest.raises(ValueError, match="no query probabilities were provided"):
        score_mcdoc(pq, 1, 2, tiny_corpus, 1.0)
    with pytest.raises(ValueError, match="no query counts were provided"):
        score_mccluster(pq, 1, 1, tiny_corpus, singleton_cluster_index(tiny_corpus, 1.0))


class TestVDoc:
    def test_degenerate_alpha_full_is_baseline_order(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            q = {"a": 1, "b": 1}
            ranking = score_vdoc(PseudoQueryList.initial(), corpus.n_docs,
                                 corpus, mu, query_probs(corpus, q, mu))
            base = lm_baseline(Query("q", ["a", "b"]), corpus, mu, corpus.n_docs)
            assert ranking.doc_ids.tolist() == base.doc_ids.tolist()

    def test_earlier_pseudo_query_dominates(self):
        # documents matched at pseudo-query rank 1 outrank all documents
        # first matched at rank 2, whatever their rendition probabilities
        rng = np.random.default_rng(73)
        for _ in range(20):
            corpus = random_corpus(rng, n_docs=8)
            mu = random_mu(rng)
            alpha = 3
            ranking = score_vdoc(PseudoQueryList([0, 1], [1.0, 0.5]), alpha,
                                 corpus, mu, query_probs(corpus, {"a": 1}, mu))
            firsts = set(ranked_order(np.exp(log_rendition_docs(corpus, corpus.text(0), mu)))
                         [:alpha].tolist())
            position = {d: i for i, d in enumerate(ranking.doc_ids.tolist())}
            worst_first = max(position[d] for d in firsts)
            best_other = min(position[d] for d in range(8) if d not in firsts)
            assert worst_first < best_other

    def test_matches_footnote_formula_oracle(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            corpus = random_corpus(rng, n_docs=6)
            mu = random_mu(rng)
            vocab = sorted(corpus.vocabulary)
            q = {vocab[0]: 1, vocab[-1]: 2}
            pq = PseudoQueryList([2, 5], [0.9, 0.4])
            got = score_vdoc(pq, 2, corpus, mu, query_probs(corpus, q, mu))
            want = oracles.vdoc_scores([2, 5], [0.9, 0.4], 2, corpus, mu, q)
            assert_rankings_close(got, want)

    def test_empty_pseudo_query_list(self, tiny_corpus):
        with pytest.raises(ValueError, match="empty"):
            PseudoQueryList([], [])

    def test_weight_zero_items_are_inert(self):
        # pruned before ranks are assigned, so trailing zeros change nothing
        rng = np.random.default_rng(307)
        corpus = random_corpus(rng, n_docs=8)
        mu = random_mu(rng)
        q = {sorted(corpus.vocabulary)[0]: 1}
        q_p = query_probs(corpus, q, mu)
        plain = score_vdoc(PseudoQueryList([1, 4], [0.9, 0.4]), 3, corpus, mu, q_p)
        padded = score_vdoc(PseudoQueryList([1, 4, 6], [0.9, 0.4, 0.0]), 3,
                            corpus, mu, q_p)
        assert plain == padded


@pytest.mark.parametrize("length", [1, 3])
def test_query_p_must_cover_every_document(length, tiny_corpus):
    # a vector for another corpus would broadcast (length 1) or rank only
    # a prefix of the documents
    q_p = np.full(length, 0.5)
    with pytest.raises(ValueError, match="one value per document"):
        score_vdoc(PseudoQueryList.initial(), 1, tiny_corpus, 1.0, q_p)
    with pytest.raises(ValueError, match="one value per document"):
        score_mcdoc(PseudoQueryList.initial(), 1, 2, tiny_corpus, 1.0, q_p)


@pytest.mark.parametrize("doc_id", [-2, 3])
def test_document_id_outside_the_corpus_is_refused(doc_id):
    # -2 would otherwise read document 2's row, and 3 end in an IndexError
    corpus = build_corpus([("d0", "a a b"), ("d1", "b c"), ("d2", "c d")],
                          PreprocessOptions())
    q_p = query_probs(corpus, {"b": 1}, 10.0)
    pq = PseudoQueryList([doc_id], [1.0])
    with pytest.raises(ValueError, match=rf"^document id {doc_id} outside 0\.\.2$"):
        score_mcdoc(pq, 1, 2, corpus, 10.0)
    with pytest.raises(ValueError, match=rf"^document id {doc_id} outside 0\.\.2$"):
        score_vdoc(pq, 1, corpus, 10.0, q_p)
    assert corpus._rendered == {}


class TestMcDoc:
    def test_round_one_only_top_renderers_nonzero(self):
        rng = np.random.default_rng(83)
        corpus = random_corpus(rng, n_docs=10)
        mu = 2.0
        q = {"a": 1, "b": 1}
        ranking = score_mcdoc(PseudoQueryList.initial(), 3, 5, corpus, mu,
                              query_probs(corpus, q, mu))
        nonzero = [d for d, s in ranking.entries if s > 0]
        assert len(nonzero) == 3
        base = lm_baseline(Query("q", ["a", "b"]), corpus, mu, 3)
        assert sorted(nonzero) == sorted(base.doc_ids.tolist())

    def test_three_doc_worked_example_matches_oracle(self):
        corpus = build_corpus(
            [("d0", "a a"), ("d1", "a b"), ("d2", "b b")], PreprocessOptions())
        pq = PseudoQueryList([0, 1], [0.6, 0.4])
        got = score_mcdoc(pq, 2, 3, corpus, 1.0)
        want = oracles.mcdoc_scores([0, 1], [0.6, 0.4], 2, 3, corpus, 1.0, None)
        assert_rankings_close(got, want)

    def test_weight_zero_items_are_inert(self):
        rng = np.random.default_rng(89)
        corpus = random_corpus(rng, n_docs=9)
        mu = random_mu(rng)
        base = score_mcdoc(PseudoQueryList([0, 3], [0.8, 0.6]), 2, 4, corpus, mu)
        padded = score_mcdoc(
            PseudoQueryList([0, 3, 5, 7], [0.8, 0.6, 0.0, 0.0]), 2, 4, corpus, mu)
        assert base == padded

    def test_weight_scale_equivariance(self):
        rng = np.random.default_rng(97)
        corpus = random_corpus(rng, n_docs=8)
        mu = random_mu(rng)
        one = score_mcdoc(PseudoQueryList([1, 4], [1.0, 0.5]), 3, 4, corpus, mu)
        half = score_mcdoc(PseudoQueryList([1, 4], [0.5, 0.25]), 3, 4, corpus, mu)
        assert one.doc_ids.tolist() == half.doc_ids.tolist()
        np.testing.assert_allclose(half.scores, one.scores * 0.5, rtol=1e-12)

    @pytest.mark.parametrize("alpha,m", [(0, 2), (3, 3), (4, 3)])
    def test_alpha_must_lie_below_m(self, alpha, m, tiny_corpus):
        with pytest.raises(ValueError, match="alpha < m"):
            score_mcdoc(PseudoQueryList([0], [1.0]), alpha, m, tiny_corpus, 1.0)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            corpus = random_corpus(rng, n_docs=int(rng.integers(4, 13)))
            mu = random_mu(rng)
            n = corpus.n_docs
            k = int(rng.integers(1, min(4, n) + 1))
            items = sorted(rng.choice(n, size=k, replace=False).tolist())
            weights = sorted(rng.uniform(0.05, 1.0, size=k).tolist(), reverse=True)
            alpha = int(rng.integers(1, n))
            m = int(rng.integers(alpha + 1, n + 2))
            got = score_mcdoc(PseudoQueryList(items, weights), alpha, m, corpus, mu)
            want = oracles.mcdoc_scores(items, weights, alpha, m, corpus, mu, None)
            assert_rankings_close(got, want)


def two_doc_cluster_setup(rng, n_docs=4, delta=2, mu=1.0):
    corpus = random_corpus(rng, n_docs=n_docs)
    neighbors = precompute_neighbors(corpus, delta, mu)
    return corpus, build_clusters(corpus, delta, neighbors)


class TestMcCluster:
    def test_singleton_partition_round_one_is_baseline(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            index = singleton_cluster_index(corpus, mu)
            ranking = score_mccluster(PseudoQueryList.initial(), corpus.n_docs, 3,
                                      corpus, index, as_text(corpus, {"a": 1, "b": 2}))
            base = lm_baseline(Query("q", ["a", "b", "b"]), corpus, mu, corpus.n_docs)
            assert ranking.doc_ids.tolist() == base.doc_ids.tolist()
            # proportionality: scores differ from rendition probs by one factor
            scores = dict(ranking.entries)
            probs = dict(base.entries)
            factors = {d: scores[d] / probs[d] for d in scores if probs[d] > 0}
            vals = list(factors.values())
            np.testing.assert_allclose(vals, vals[0], rtol=1e-9)

    def test_document_outside_scored_clusters_gets_zero(self):
        corpus = build_corpus(
            [("A", "x x"), ("B", "x y"), ("C", "z z")], PreprocessOptions())
        index = singleton_cluster_index(corpus, 1.0)
        ranking = score_mccluster(PseudoQueryList([0], [1.0]), 1, 1, corpus, index)
        scores = dict(ranking.entries)
        assert sum(1 for s in scores.values() if s > 0) == 1

    def test_two_round_matches_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            corpus, index = two_doc_cluster_setup(rng, n_docs=4, delta=2,
                                                  mu=1.0)
            members = [list(row) for row in index.members]
            q = {"a": 1, "b": 1}
            r1 = score_mccluster(PseudoQueryList.initial(), 1, 2, corpus,
                                 index, as_text(corpus, q))
            want1 = oracles.mccluster_scores([QUERY_ID], [1.0], 1, 2, members,
                                             corpus, 1.0, True, q)
            assert_rankings_close(r1, want1)
            positive = r1.scores > 0
            if not positive.any():
                continue
            items = r1.doc_ids[positive].tolist()
            weights = (r1.scores[positive] / r1.scores[0]).tolist()
            r2 = score_mccluster(PseudoQueryList(items, weights), 1, 2,
                                 corpus, index, as_text(corpus, q))
            want2 = oracles.mccluster_scores(items, weights, 1, 2, members,
                                             corpus, 1.0, False, q)
            assert_rankings_close(r2, want2)

    def test_restrictions_enforced(self):
        rng = np.random.default_rng(109)
        for _ in range(10):
            corpus, index = two_doc_cluster_setup(rng, n_docs=6, delta=3, mu=2.0)
            pq = PseudoQueryList([0, 4], [1.0, 0.7])
            ranking = score_mccluster(pq, 2, 2, corpus, index)
            # a pseudo-query credits only clusters it is in, and a cluster
            # only its members
            holding = {cid for cid, row in enumerate(index.members) if {0, 4} & set(row)}
            scored = ranking.doc_ids[ranking.scores > 0].tolist()
            assert holding and scored
            for d in scored:
                assert holding & set(cluster_membership(index, d).tolist())

    def test_weight_zero_neutral(self):
        rng = np.random.default_rng(113)
        corpus, index = two_doc_cluster_setup(rng, n_docs=5, delta=2, mu=1.5)
        a = score_mccluster(PseudoQueryList([0, 2], [0.9, 0.3]), 1, 2, corpus, index)
        b = score_mccluster(PseudoQueryList([0, 2, 3], [0.9, 0.3, 0.0]), 1, 2,
                            corpus, index)
        assert a == b

    def test_weight_scale_equivariance(self):
        rng = np.random.default_rng(127)
        corpus, index = two_doc_cluster_setup(rng, n_docs=6, delta=2, mu=2.0)
        one = score_mccluster(PseudoQueryList([0, 3], [1.0, 0.6]), 2, 2, corpus, index)
        half = score_mccluster(PseudoQueryList([0, 3], [0.5, 0.3]), 2, 2, corpus, index)
        assert one.doc_ids.tolist() == half.doc_ids.tolist()
        np.testing.assert_allclose(half.scores, one.scores * 0.5, rtol=1e-12)


# -- the sums against one += per list ---------------------------------------


def loop_mcdoc(pq, alpha, m, corpus, mu, query_p=None):
    """score_mcdoc's sums as one ``+=`` per pseudo-query, in rank order."""
    scores = np.zeros(corpus.n_docs)
    for item, w in pq.active():
        pool, probs = scoring._top_rendered(item, m, corpus, mu, query_p)
        scores[pool[:alpha]] += w * (probs[:alpha] / float(probs.sum()))
    return scores


def loop_mccluster(pq, alpha_cluster, beta, corpus, index, query_counts=None):
    """score_mccluster's two phases as one ``+=`` per pseudo-query, then one
    per scored cluster in ascending id order."""
    cscores = np.zeros(len(index))
    for item, w in pq.active():
        chosen, credit = scoring._cluster_credits(item, alpha_cluster, index, query_counts)
        cscores[chosen] += w * credit
    dscores = np.zeros(corpus.n_docs)
    for cid in np.flatnonzero(cscores).tolist():
        members, probs, norm = index.member_rendition(cid, corpus)
        dscores[members[:beta]] += cscores[cid] * (probs[:beta] / norm)
    return dscores


def random_pseudo_queries(rng, n):
    """Distinct documents with random nonincreasing weights, some zero."""
    k = int(rng.integers(1, n + 1))
    items = rng.choice(n, size=k, replace=False).tolist()
    weights = sorted(rng.uniform(0.0, 1.0, size=k).tolist(), reverse=True)
    zeros = int(rng.integers(0, k))
    return PseudoQueryList(items, weights[:k - zeros] + [0.0] * zeros)


def test_sums_bit_equal_to_one_add_per_list():
    rng = np.random.default_rng(131)
    for _ in range(30):
        corpus = random_corpus(rng, n_docs=int(rng.integers(4, 15)))
        n, mu = corpus.n_docs, random_mu(rng)
        query = as_text(corpus, {"a": 1, "b": 2})
        query_p = np.exp(log_rendition_docs(corpus, query, mu))
        delta = int(rng.integers(1, n + 1))
        index = build_clusters(corpus, delta, precompute_neighbors(corpus, delta, mu))
        alpha = int(rng.integers(1, n))
        m = int(rng.integers(alpha + 1, n + 2))
        beta = int(rng.integers(1, n + 1))  # may exceed the clusters' sizes
        for pq in (PseudoQueryList.initial(), random_pseudo_queries(rng, n)):
            assert score_mcdoc(pq, alpha, m, corpus, mu, query_p) == \
                ScoredRanking.from_dense(loop_mcdoc(pq, alpha, m, corpus, mu, query_p))
            assert score_mccluster(pq, alpha, beta, corpus, index, query) == \
                ScoredRanking.from_dense(loop_mccluster(pq, alpha, beta, corpus, index,
                                                        query))
