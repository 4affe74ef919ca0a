import numpy as np
import pytest

import oracles
from conftest import random_corpus, random_mu
from pqlm import (
    DriftTechnique,
    Query,
    RunConfig,
    ScoredRanking,
    interpolate,
    iterated_truncation,
    run_retrieval,
    truncated_rerank,
)
from pqlm import drift
from pqlm.lm import ranked_order


def dense(pairs):
    """Scores indexed by doc id; the pairs cover doc ids 0..n-1."""
    out = np.zeros(len(pairs))
    for d, s in pairs:
        out[d] = s
    return out


def ranking(pairs):
    return ScoredRanking.from_dense(dense(pairs))


def entries(query_p):
    """(doc id, score) pairs of a query vector, as the oracles take them."""
    return list(enumerate(query_p.tolist()))


def random_rankings(rng, n):
    """Method ranking and query vector over the same n documents."""
    method = ranking([(d, float(rng.uniform(0, 1))) for d in range(n)])
    query = dense([(d, float(rng.uniform(0.01, 1))) for d in range(n)])
    return method, query


class TestTechniqueValidation:
    def test_lambda_only_for_interpolation(self):
        DriftTechnique("interpolation", lambda_=0.4)
        with pytest.raises(ValueError, match="lambda"):
            DriftTechnique("truncated_rerank", lambda_=0.4, N=5)
        with pytest.raises(ValueError, match="lambda"):
            DriftTechnique("interpolation")

    def test_n_only_for_truncation(self):
        DriftTechnique("iterated_truncation", N=10)
        with pytest.raises(ValueError, match="^drift_N is meaningless for interpolation$"):
            DriftTechnique("interpolation", lambda_=0.2, N=10)
        with pytest.raises(ValueError, match="drift_N must be >= 1, got drift_N=0"):
            DriftTechnique("iterated_rerank", N=0)

    def test_none_takes_no_params(self):
        DriftTechnique()
        with pytest.raises(ValueError):
            DriftTechnique("none", N=3)


class TestInterpolate:
    def test_lambda_one_keeps_method_order(self):
        rng = np.random.default_rng(127)
        method, query = random_rankings(rng, 12)
        out = interpolate(method, query, 1.0)
        assert out.doc_ids.tolist() == method.doc_ids.tolist()

    def test_lambda_zero_is_query_order(self):
        rng = np.random.default_rng(131)
        method, query = random_rankings(rng, 12)
        out = interpolate(method, query, 0.0)
        assert out.doc_ids.tolist() == ranked_order(query).tolist()

    def test_hand_computed_midpoint(self):
        method = ranking([(0, 4.0), (1, 2.0), (2, 1.0)])
        query = dense([(0, 0.1), (1, 0.5), (2, 0.4)])
        out = interpolate(method, query, 0.5)
        expected = {
            0: 0.5 * 1.0 + 0.5 * 0.2,
            1: 0.5 * 0.5 + 0.5 * 1.0,
            2: 0.5 * 0.25 + 0.5 * 0.8,
        }
        for d, s in out.entries:
            assert s == pytest.approx(expected[d], rel=1e-12)
        assert out.doc_ids.tolist() == [1, 0, 2]

    def test_all_zero_method_scores_fall_back(self, caplog):
        method = ranking([(0, 0.0), (1, 0.0)])
        query = dense([(0, 0.2), (1, 0.9)])
        with caplog.at_level("WARNING"):
            out = interpolate(method, query, 0.7)
        assert out.doc_ids.tolist() == [1, 0]
        assert "falling back" in caplog.text

    def test_query_scores_without_a_positive_maximum(self):
        method = ranking([(0, 0.4), (1, 0.2)])
        with pytest.raises(ValueError, match="^query scores have no positive maximum$"):
            interpolate(method, dense([(0, 0.0), (1, 0.0)]), 0.5)

    @pytest.mark.parametrize("lambda_", [5.0, -0.5, float("nan"), True])
    def test_lambda_outside_the_unit_interval(self, lambda_):
        method = ranking([(0, 4.0), (1, 2.0), (2, 1.0)])
        query = dense([(0, 0.1), (1, 0.5), (2, 0.4)])
        with pytest.raises(ValueError, match="lambda must be"):
            interpolate(method, query, lambda_)

    def test_mismatched_doc_sets(self):
        with pytest.raises(ValueError, match="different document sets"):
            interpolate(ranking([(0, 1.0)]), dense([(0, 0.5), (1, 1.0)]), 0.5)
        with pytest.raises(ValueError, match="different document sets"):
            interpolate(ScoredRanking([1], [1.0]), dense([(0, 1.0)]), 0.5)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            method, query = random_rankings(rng, n)
            out = interpolate(method, query, 0.35)
            scaled = ScoredRanking(method.doc_ids, method.scores * 7.5)
            out2 = interpolate(scaled, query, 0.35)
            assert out.doc_ids.tolist() == out2.doc_ids.tolist()

    def test_matches_oracle(self):
        rng = np.random.default_rng(139)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            method, query = random_rankings(rng, n)
            lam = float(rng.uniform(0, 1))
            got = interpolate(method, query, lam)
            want = oracles.interpolate(method.entries, entries(query), lam)
            assert got.doc_ids.tolist() == [d for d, _ in want]
            np.testing.assert_allclose(
                got.scores, [s for _, s in want], rtol=1e-12)


class TestTruncatedRerank:
    def test_n_at_least_length_reorders_everything(self):
        method = ranking([(0, 3.0), (1, 2.0), (2, 1.0)])
        query = dense([(0, 0.1), (1, 0.2), (2, 0.3)])
        out = truncated_rerank(method, query, 10)
        assert out.doc_ids.tolist() == [2, 1, 0]

    def test_retained_set_is_method_top_n(self):
        rng = np.random.default_rng(149)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            cut = int(rng.integers(1, n + 1))
            method, query = random_rankings(rng, n)
            out = truncated_rerank(method, query, cut)
            assert len(out) == min(cut, n)
            assert set(out.doc_ids.tolist()) == set(method.doc_ids[:cut].tolist())

    def test_hand_example(self):
        method = ranking([(0, 9.0), (1, 7.0), (2, 5.0), (3, 3.0)])
        query = dense([(0, 0.2), (1, 0.8), (2, 0.5), (3, 0.9)])
        out = truncated_rerank(method, query, 2)
        assert out.entries == [(1, 0.8), (0, 0.2)]

    def test_matches_oracle(self):
        rng = np.random.default_rng(151)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            method, query = random_rankings(rng, n)
            cut = int(rng.integers(1, n + 2))
            got = truncated_rerank(method, query, cut)
            want = oracles.truncated_rerank(method.entries, entries(query), cut)
            assert got.entries == want


class TestIteratedTruncation:
    def test_identity_when_n_covers_list(self):
        r = ranking([(0, 2.0), (1, 1.0)])
        out = iterated_truncation(r, 5)
        assert out.entries == r.entries

    def test_all_equal_scores_keep_lowest_ids(self):
        r = ranking([(d, 1.0) for d in range(5)])
        out = iterated_truncation(r, 2)
        survivors = [d for d, s in out.entries if s > 0]
        assert survivors == [0, 1]

    def test_tail_zeroed(self):
        r = ranking([(d, 10.0 - d) for d in range(5)])
        out = iterated_truncation(r, 3)
        assert out.entries == [(0, 10.0), (1, 9.0), (2, 8.0), (3, 0.0), (4, 0.0)]

    def test_survivor_order_preserved(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            cut = int(rng.integers(1, n + 1))
            r = ranking([(d, float(rng.uniform(0, 1))) for d in range(n)])
            out = iterated_truncation(r, cut)
            assert out.doc_ids[:cut].tolist() == r.doc_ids[:cut].tolist()
            assert (out.scores[cut:] == 0).all()
            want = oracles.iterated_truncation(r.entries, cut)
            assert out.entries == want


class TestSchedule:
    # two rounds: a final-round technique acts once, an iterated one per round
    @pytest.mark.parametrize("kind,calls", [("interpolation", 1),
                                            ("iterated_interpolation", 2)])
    def test_pipeline_reaches_a_rebound_transform(self, kind, calls, tiny_corpus,
                                                  monkeypatch):
        seen = []

        def counting(*args):
            seen.append(args)
            return interpolate(*args)

        monkeypatch.setattr(drift, "interpolate", counting)
        config = RunConfig(method="mcdoc", alpha=1, m=2, T=2, mu=1.0,
                           drift=DriftTechnique(kind, lambda_=0.5))
        run_retrieval(Query("q", ["a"]), config, tiny_corpus)
        assert len(seen) == calls
