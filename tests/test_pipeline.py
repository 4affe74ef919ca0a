import dataclasses
import re

import numpy as np
import pytest

import oracles
from conftest import query_probs, random_corpus, random_mu
from pqlm import (
    DriftTechnique,
    PreprocessOptions,
    PseudoQueryList,
    RunConfig,
    build_clusters,
    build_corpus,
    lm_baseline,
    precompute_neighbors,
    run_retrieval,
    score_mcdoc,
    singleton_cluster_index,
)
from pqlm.corpus import Query
from pqlm.lm import log_rendition_docs
from pqlm.pipeline import _next_pseudo_queries, format_run_lines
from pqlm.scoring import ScoredRanking


def query_for(corpus, rng, n_terms=2):
    vocab = sorted(corpus.vocabulary)
    terms = [str(t) for t in rng.choice(vocab, size=n_terms)]
    return Query("q1", terms)


class TestRunConfigValidation:
    def test_defaults_fill_in(self):
        cfg = RunConfig(method="mcdoc", alpha=7)
        assert cfg.alpha1 == 7 and cfg.m == 14

    def test_m_must_exceed_alpha(self):
        with pytest.raises(ValueError, match="must exceed alpha"):
            RunConfig(method="mcdoc", alpha=10, m=10)

    @pytest.mark.parametrize("method", ["vdoc", "mccluster"])
    def test_m_checked_for_mcdoc_only(self, method):
        assert RunConfig(method=method, alpha=10, m=5).m == 5

    @pytest.mark.parametrize("kwargs, message", [
        ({"alpha": 1.5, "m": 4}, "alpha must be an integer, got alpha=1.5"),
        ({"alpha": True}, "alpha must be an integer, got alpha=True"),
        ({"N": 10.0}, "N must be an integer, got N=10.0"),
        ({"mu": False}, "mu must be a number, got mu=False"),
        ({"mu": "2000"}, "mu must be a number, got mu='2000'"),
    ])
    def test_values_of_another_type_are_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(method="mcdoc", **kwargs)

    def test_numpy_numbers_are_numbers(self):
        cfg = RunConfig(method="mcdoc", alpha=np.int64(3), mu=np.float64(5.0), T=np.int32(2))
        assert (cfg.alpha, cfg.m, cfg.mu, cfg.T) == (3, 6, 5.0, 2)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            RunConfig(method="bm25")

    def test_large_t_warns(self, caplog):
        with caplog.at_level("WARNING"):
            RunConfig(method="vdoc", T=11)
        assert "meant to stay small" in caplog.text

    def test_delta_resolution(self, tiny_corpus):
        # the default, 10 at most 1000 documents, is cut to the 2 documents
        assert RunConfig(method="mcdoc").resolved_delta(tiny_corpus) == 2
        assert RunConfig(method="mcdoc", delta=3).resolved_delta(tiny_corpus) == 3


class TestDegenerateEquivalences:
    def test_mcdoc_one_round_full_spread_is_baseline(self):
        rng = np.random.default_rng(163)
        for _ in range(10):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            n = corpus.n_docs
            q = query_for(corpus, rng)
            cfg = RunConfig(method="mcdoc", alpha=2, alpha1=n, m=n + 1, T=1,
                            mu=mu, N=n)
            got = run_retrieval(q, cfg, corpus)
            base = lm_baseline(q, corpus, mu, n)
            assert got.doc_ids.tolist() == base.doc_ids.tolist()

    def test_mccluster_singleton_half_iteration_is_baseline(self):
        rng = np.random.default_rng(167)
        for _ in range(10):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            n = corpus.n_docs
            q = query_for(corpus, rng)
            clusters = singleton_cluster_index(corpus, mu)
            cfg = RunConfig(method="mccluster", alpha=1, alpha1=n, m=2,
                            alpha_cluster=1, beta=1, delta=1, T=1, mu=mu, N=n)
            got = run_retrieval(q, cfg, corpus, clusters)
            base = lm_baseline(q, corpus, mu, n)
            assert got.doc_ids.tolist() == base.doc_ids.tolist()


class TestTranscriptOracle:
    def test_two_round_mcdoc_with_interpolation(self):
        # straight-line replay: round-1 credits, re-weighting, round-2
        # credits, final interpolation, all via the naive oracle pieces
        rng = np.random.default_rng(173)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=10)
            mu = random_mu(rng)
            n = corpus.n_docs
            q = query_for(corpus, rng)
            q_counts = {t: q.terms.count(t) for t in set(q.terms)}
            alpha, alpha1, m = 3, 5, 6
            cfg = RunConfig(method="mcdoc", alpha=alpha, alpha1=alpha1, m=m,
                            T=2, mu=mu, N=n,
                            drift=DriftTechnique("interpolation", lambda_=0.5))
            got = run_retrieval(q, cfg, corpus)

            from pqlm.lm import QUERY_ID
            r1 = oracles.mcdoc_scores([QUERY_ID], [1.0], alpha1,
                                      max(m, alpha1 + 1), corpus, mu, q_counts)
            positive = [(d, s) for d, s in r1 if s > 0]
            top = positive[0][1]
            items = [d for d, _ in positive]
            weights = [s / top for _, s in positive]
            r2 = oracles.mcdoc_scores(items, weights, alpha, m, corpus, mu,
                                      q_counts)
            q_table = oracles.lm_baseline_scores(q_counts, corpus, mu)
            want = oracles.interpolate(r2, q_table, 0.5)

            assert got.doc_ids.tolist() == [d for d, _ in want]
            np.testing.assert_allclose(
                got.scores, [s for _, s in want], rtol=1e-10)


class TestPipelineBehavior:
    def test_deterministic_across_invocations(self):
        rng = np.random.default_rng(179)
        corpus = random_corpus(rng, n_docs=12)
        q = query_for(corpus, rng)
        cfg = RunConfig(method="vdoc", alpha=3, alpha1=5, T=3, mu=10.0, N=12,
                        drift=DriftTechnique("iterated_rerank", N=6))
        a = run_retrieval(q, cfg, corpus)
        b = run_retrieval(q, cfg, corpus)
        assert a == b

    def test_growing_rounds_stay_finite_and_total(self):
        rng = np.random.default_rng(181)
        corpus = random_corpus(rng, n_docs=10)
        q = query_for(corpus, rng)
        for T in (1, 2, 4):
            cfg = RunConfig(method="mcdoc", alpha=4, m=8, T=T, mu=5.0, N=10)
            out = run_retrieval(q, cfg, corpus)
            assert np.isfinite(out.scores).all()
            assert len(set(out.doc_ids.tolist())) == len(out)
            assert (np.diff(out.scores) <= 0).all()

    def test_rounds_seen_through_t_runs(self):
        # round t of a run is the run with T=t: round 1 scores the query
        # alone, and round t + 1 the pseudo-queries of the T=t run
        rng = np.random.default_rng(191)
        corpus = random_corpus(rng, n_docs=9)
        q = query_for(corpus, rng)
        drift = DriftTechnique("iterated_truncation", N=4)
        runs = [run_retrieval(q, RunConfig(method="mcdoc", alpha=2, m=5, T=t, mu=4.0, N=9,
                                           drift=drift), corpus) for t in (1, 2, 3)]
        query_p = np.exp(log_rendition_docs(corpus, corpus.query_counts(q), 4.0))
        pq = PseudoQueryList.initial()
        assert len(pq.items) == 1
        for t, run in enumerate(runs, start=1):
            if t > 1:
                pq = _next_pseudo_queries(runs[t - 2])
                # iterated truncation caps the surviving pool at its cutoff
                assert len(pq.items) <= 4
            assert run == drift.apply(score_mcdoc(pq, 2, 5, corpus, 4.0, query_p),
                                      query_p, final=False)

    def test_iterated_rerank_restricts_pool_and_output(self):
        rng = np.random.default_rng(193)
        corpus = random_corpus(rng, n_docs=12)
        q = query_for(corpus, rng)
        cfg = RunConfig(method="mcdoc", alpha=6, m=13, T=2, mu=3.0, N=12,
                        drift=DriftTechnique("iterated_rerank", N=5))
        out = run_retrieval(q, cfg, corpus)
        assert len(out) <= 5
        # round 2's pseudo-queries are the documents of the T=1 run
        round1 = run_retrieval(q, dataclasses.replace(cfg, T=1), corpus)
        assert len(_next_pseudo_queries(round1).items) <= 5

    def test_oov_terms_dropped_with_diagnostic(self, tiny_corpus, caplog):
        cfg = RunConfig(method="mcdoc", alpha=1, m=2, T=1, mu=1.0, N=2)
        with caplog.at_level("WARNING"):
            out = run_retrieval(Query("q", ["a", "zzz"]), cfg, tiny_corpus)
        assert "out-of-vocabulary" in caplog.text
        assert len(out) == 2

    def test_empty_query_is_an_error(self, tiny_corpus):
        cfg = RunConfig(method="mcdoc", alpha=1, m=2, mu=1.0)
        with pytest.raises(ValueError, match="empty after preprocessing"):
            run_retrieval(Query("q", ["zzz"]), cfg, tiny_corpus)

    def test_incompatible_cluster_artifacts(self):
        rng = np.random.default_rng(197)
        corpus = random_corpus(rng, n_docs=6)
        neighbors = precompute_neighbors(corpus, 2, 7.0)
        clusters = build_clusters(corpus, 2, neighbors)
        q = Query("q", [sorted(corpus.vocabulary)[0]])
        with pytest.raises(ValueError, match="mu"):
            run_retrieval(q, RunConfig(method="mccluster", delta=2, mu=8.0),
                          corpus, clusters)
        with pytest.raises(ValueError, match="delta"):
            run_retrieval(q, RunConfig(method="mccluster", delta=3, mu=7.0),
                          corpus, clusters)
        with pytest.raises(ValueError, match="requires a cluster index"):
            run_retrieval(q, RunConfig(method="mccluster", delta=2, mu=7.0),
                          corpus)
        other = build_corpus([("Z", "qq rr")], PreprocessOptions())
        with pytest.raises(ValueError, match="different corpus"):
            run_retrieval(Query("q", ["qq"]),
                          RunConfig(method="mccluster", delta=2, mu=7.0),
                          other, clusters)


class TestNextPseudoQueries:
    def test_weights_are_max_normalized_scores(self):
        from pqlm.pipeline import _next_pseudo_queries
        from pqlm.scoring import ScoredRanking

        ranking = ScoredRanking([3, 0, 5, 7], [0.8, 0.4, 0.2, 0.0])
        pq = _next_pseudo_queries(ranking)
        assert pq.items == [3, 0, 5]
        assert pq.weights == pytest.approx([1.0, 0.5, 0.25])

    def test_all_zero_scores_error(self):
        from pqlm.pipeline import _next_pseudo_queries
        from pqlm.scoring import ScoredRanking

        with pytest.raises(ValueError, match="no pseudo-queries"):
            _next_pseudo_queries(ScoredRanking([0, 1], [0.0, 0.0]))


class TestDriftNoneIdentity:
    def test_pipeline_equals_direct_scoring(self):
        from pqlm.scoring import PseudoQueryList, score_mcdoc

        rng = np.random.default_rng(223)
        corpus = random_corpus(rng, n_docs=9)
        q = query_for(corpus, rng)
        counts = {t: q.terms.count(t) for t in set(q.terms)}
        cfg = RunConfig(method="mcdoc", alpha=3, alpha1=3, m=7, T=1, mu=4.0,
                        N=9)
        via_pipeline = run_retrieval(q, cfg, corpus)
        direct = score_mcdoc(PseudoQueryList.initial(), 3, 7, corpus, 4.0,
                             query_probs(corpus, counts, 4.0))
        assert via_pipeline == direct


class TestRunLines:
    def test_trec_format(self, tiny_corpus):
        base = lm_baseline(Query("7", ["a"]), tiny_corpus, 1.0, 2)
        lines = format_run_lines("7", base, tiny_corpus, "sys1").split("\n")
        assert lines[0].split() == ["7", "Q0", "d0", "1",
                                    f"{base.scores[0]:.6f}", "sys1"]
        assert lines[1].split()[3] == "2"
        assert len(lines) == 2

    @pytest.mark.parametrize("doc_ids, scores", [
        ([2, 0, 1], [12345.6789125, -0.0, -3.0000005]),
        ([1, 2, 0], [1e300, 2.5e-7, -1e-7]),
        ([2], [-0.0]),
        ([0], [-7.25]),
    ], ids=["mixed", "large-and-tiny", "one-row-negative-zero", "one-row-negative"])
    def test_block_equals_rows_formatted_one_by_one(self, doc_ids, scores):
        # "%" in the query id, the tag and a docno is text, not a format
        corpus = build_corpus([("d%s", "a"), ("e", "a a"), ("%d", "b")], PreprocessOptions())
        ranking = ScoredRanking(doc_ids, scores)
        block = format_run_lines("q%d", ranking, corpus, "t%%s")
        rows = ["%s Q0 %s %d %.6f %s" % ("q%d", corpus.docnos[d], rank, score, "t%%s")
                for rank, (d, score) in enumerate(zip(doc_ids, scores), start=1)]
        assert block == "\n".join(rows)

    def test_one_template_for_every_row(self):
        corpus = build_corpus([("d%s", "a"), ("e", "a a"), ("%d", "b")], PreprocessOptions())
        ranking = ScoredRanking([2, 0, 1], [12345.6789125, -0.0, -3.0000005])
        lines = format_run_lines("q%d", ranking, corpus, "t%%s").split("\n")
        assert lines == ["q%d Q0 %d 1 12345.678912 t%%s", "q%d Q0 d%s 2 -0.000000 t%%s",
                         "q%d Q0 e 3 -3.000001 t%%s"]
