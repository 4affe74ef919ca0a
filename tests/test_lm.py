import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import as_text, collection_counts, doc_counts, random_corpus, random_mu, term_probs
from pqlm import (
    NeighborIndex,
    PreprocessOptions,
    build_corpus,
    precompute_neighbors,
)
from pqlm.lm import log_rendition_docs, ranked_order, top_k
from pqlm.scoring import _top_rendered


def renditions(corpus, text, mu):
    """Rendition probability of a text (a count mapping) under every document."""
    return np.exp(log_rendition_docs(corpus, as_text(corpus, text), mu))


def oracle_term_prob(corpus, d, term, mu):
    doc = doc_counts(corpus, d)
    return oracles.dirichlet_prob(term, doc, sum(doc.values()), mu,
                                  collection_counts(corpus), corpus.collection_length)


class TestDirichlet:
    def test_hand_example(self, tiny_corpus):
        # (2 + 1 * 0.4) / (3 + 1)
        assert term_probs(tiny_corpus, "a", 1.0)[0] == pytest.approx(0.6)

    def test_mu_infinity_limit(self, tiny_corpus):
        val = term_probs(tiny_corpus, "a", 1e9)[0]
        assert val == pytest.approx(0.4, abs=1e-6)

    def test_normalizes_over_vocabulary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            d = int(rng.integers(0, corpus.n_docs))
            total = sum(term_probs(corpus, w, mu)[d] for w in corpus.vocabulary)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestRendition:
    def test_single_term_identity(self, tiny_corpus):
        assert renditions(tiny_corpus, {"a": 1}, 1.0)[0] == pytest.approx(
            oracle_term_prob(tiny_corpus, 0, "a", 1.0))

    def test_repeated_term_identity(self, tiny_corpus):
        assert renditions(tiny_corpus, {"a": 2}, 1.0)[0] == pytest.approx(
            oracle_term_prob(tiny_corpus, 0, "a", 1.0))

    def test_hand_example(self, tiny_corpus):
        # sqrt(0.6 * 0.35)
        assert renditions(tiny_corpus, {"a": 1, "b": 1}, 1.0)[0] \
            == pytest.approx(0.45825756949558394, abs=1e-9)

    def test_permutation_invariance(self, tiny_corpus):
        fwd = renditions(tiny_corpus, Counter(["a", "b", "a", "c"]), 2.0)
        rev = renditions(tiny_corpus, Counter(["c", "a", "b", "a"]), 2.0)
        assert np.array_equal(fwd, rev)

    def test_log_space_matches_direct_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            d = int(rng.integers(0, corpus.n_docs))
            length = int(rng.integers(1, 21))
            seq = [str(t) for t in rng.choice(sorted(corpus.vocabulary), size=length)]
            direct = 1.0
            for term in seq:
                direct *= oracle_term_prob(corpus, d, term, mu)
            direct **= 1.0 / length
            val = renditions(corpus, Counter(seq), mu)[d]
            assert val == pytest.approx(direct, rel=1e-12)

    def test_geometric_mean_ranks_like_exp_neg_kl(self):
        # exp(-KL(mle_x || dir_r)) = exp(H(x)) * geometric mean: the entropy
        # factor is constant per text, so candidate orderings must agree.
        rng = np.random.default_rng(17)
        for _ in range(100):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            x = doc_counts(corpus, int(rng.integers(0, corpus.n_docs)))
            xlen = sum(x.values())
            gm = renditions(corpus, x, mu)
            p = {term: term_probs(corpus, term, mu) for term in x}
            kl = [math.exp(-sum((cnt / xlen) * math.log((cnt / xlen) / p[term][d])
                                for term, cnt in x.items()))
                  for d in range(corpus.n_docs)]
            ids = np.arange(corpus.n_docs)
            order_gm = np.lexsort((ids, -gm))
            order_kl = np.lexsort((ids, -np.array(kl)))
            assert np.array_equal(order_gm, order_kl)


class TestTopRenderers:
    def test_tie_breaks_to_lower_id(self):
        corpus = build_corpus(
            [("A", "x y"), ("B", "x y"), ("C", "y y")], PreprocessOptions())
        assert ranked_order(renditions(corpus, {"x": 1}, 1.0))[:1].tolist() == [0]

    def test_k_equals_candidates_returns_all_sorted(self, tiny_corpus):
        probs = renditions(tiny_corpus, {"a": 1}, 1.0)
        top = ranked_order(probs)[:2]
        assert top.tolist() == [0, 1]
        scores = probs[top].tolist()
        assert scores == sorted(scores, reverse=True)

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            corpus = random_corpus(rng, n_docs=10)
            mu = random_mu(rng)
            x = doc_counts(corpus, int(rng.integers(0, 10)))
            scores = renditions(corpus, x, mu)
            expected = sorted(range(10), key=lambda d: (-scores[d], d))[:3]
            assert ranked_order(scores)[:3].tolist() == expected

    def test_candidate_order_irrelevant(self, tiny_corpus):
        # enumerating the documents in reverse gives the same renderers
        rev = build_corpus([("d1", "b c"), ("d0", "a a b")], PreprocessOptions())
        a = ranked_order(renditions(tiny_corpus, {"b": 1}, 1.0))[:2]
        b = ranked_order(renditions(rev, {"b": 1}, 1.0))[:2]
        assert [tiny_corpus.docnos[d] for d in a] == [rev.docnos[d] for d in b]


# few distinct values make heavy ties; the rest are any floats, NaN included
_SCORES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, math.inf, -math.inf]),
                             st.floats()), min_size=1, max_size=40)


class TestTopK:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_SCORES, st.data())
    def test_equals_ranked_order_prefix(self, values, data):
        scores = np.array(values)
        n = len(values)
        k = data.draw(st.one_of(st.sampled_from([1, n, n + 3]), st.integers(1, n)))
        top = top_k(scores, k)
        assert top.tolist() == ranked_order(scores)[:k].tolist()
        # a new array, never a view of an N-long one
        assert top.base is None

    def test_ties_at_the_cut_go_to_lower_ids(self, monkeypatch):
        # below N and without NaN, the partition path answers alone
        monkeypatch.setattr("pqlm.lm.ranked_order", None)
        scores = np.array([1.0, 3.0, 2.0, 2.0, 3.0, 2.0])
        assert top_k(scores, 3).tolist() == [1, 4, 2]
        assert top_k(scores, 4).tolist() == [1, 4, 2, 3]


class TestRepertoire:
    """A renderer's repertoire is {x : r in top-k(x)}, read off the
    neighbour lists."""

    def test_k_covers_everything(self, tiny_corpus):
        neighbors = precompute_neighbors(tiny_corpus, 2, 1.0)
        assert {x for x in range(2) if 0 in neighbors.top(x, 2)} == {0, 1}

    def test_duality_with_top_renderers(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=8)
            mu = random_mu(rng)
            k = int(rng.integers(1, 4))
            docs = list(range(8))
            neighbors = precompute_neighbors(corpus, k, mu)
            reps = {r: {x for x in docs if r in neighbors.top(x, k)} for r in docs}
            for x in docs:
                x_counts = doc_counts(corpus, x)
                tops = ranked_order(renditions(corpus, x_counts, mu))[:k].tolist()
                for r in docs:
                    assert (x in reps[r]) == (r in tops)


class TestNeighbors:
    def test_k1_matches_exhaustive(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=8)
            mu = random_mu(rng)
            idx = precompute_neighbors(corpus, 1, mu)
            for d in range(8):
                x = doc_counts(corpus, d)
                scores = renditions(corpus, x, mu)
                best = min(range(8), key=lambda r: (-scores[r], r))
                assert idx.top(d, 1) == [best]

    def test_identical_documents_order_by_id(self, opts):
        corpus = build_corpus([("A", "q q r"), ("B", "q q r"), ("C", "r r")], opts)
        idx = precompute_neighbors(corpus, 3, 2.0)
        assert idx.top(0, 2) == [0, 1]
        assert idx.top(1, 2) == [0, 1]

    def test_rows_are_the_scorers_top_renderers(self):
        # the neighbour file and the scorers' memo rank by one rule; repeated
        # documents tie exactly, so the lower id decides
        rng = np.random.default_rng(43)
        for _ in range(20):
            texts = [" ".join(rng.choice(list("abcdef"), size=int(rng.integers(2, 9))))
                     for _ in range(int(rng.integers(3, 9)))]
            texts += [texts[i] for i in rng.integers(0, len(texts), size=3)]
            corpus = build_corpus(list(zip(map(str, range(len(texts))), texts)),
                                  PreprocessOptions())
            mu = random_mu(rng)
            for k in (1, int(rng.integers(2, corpus.n_docs)), corpus.n_docs):
                idx = precompute_neighbors(corpus, k, mu)
                for d in range(corpus.n_docs):
                    assert idx.top(d, k) == _top_rendered(d, k, corpus, mu, None)[0].tolist()

    def test_thread_counts_agree(self):
        rng = np.random.default_rng(37)
        corpus = random_corpus(rng, n_docs=12)
        one = precompute_neighbors(corpus, 5, 3.0, threads=1)
        four = precompute_neighbors(corpus, 5, 3.0, threads=4)
        assert one.neighbors == four.neighbors

    def test_k_max_clamped(self, tiny_corpus, caplog):
        with caplog.at_level("WARNING"):
            idx = precompute_neighbors(tiny_corpus, 99, 1.0)
        assert idx.k_max == 2
        assert "clamped" in caplog.text

    def test_requesting_beyond_k_max(self, tiny_corpus):
        idx = precompute_neighbors(tiny_corpus, 1, 1.0)
        with pytest.raises(ValueError, match="recompute"):
            idx.top(0, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, tiny_corpus, k):
        # a slice would give [] at 0, and every id but the last at -1
        idx = precompute_neighbors(tiny_corpus, 2, 1.0)
        with pytest.raises(ValueError, match=f"^k={k} is not a positive number of neighbors$"):
            idx.top(0, k)

    @pytest.mark.parametrize("doc_id", [-1, 2, 99])
    def test_document_outside_the_corpus(self, tiny_corpus, doc_id):
        idx = precompute_neighbors(tiny_corpus, 1, 1.0)
        with pytest.raises(ValueError, match=f"document id {doc_id} outside 0..1"):
            idx.top(doc_id, 1)

    @pytest.mark.parametrize("k_max, neighbors, message", [
        (2, [[0, 1], [1, 1], [2, 0]], "neighbor list 1 is not 2 distinct ids in 0..2"),
        (2, [[0, 1], [1, 3], [2, 0]], "neighbor list 1 is not 2 distinct ids in 0..2"),
        (3, [[0, 1], [1, 2], [2, 0]], "neighbor list 0 is not 3 distinct ids in 0..2"),
        (0, [[], [], []], "neighbor list length is not a positive integer"),
    ], ids=["repeated-id", "id-range", "k_max", "empty"])
    def test_save_refuses_what_load_refuses(self, tmp_path, k_max, neighbors, message):
        path = tmp_path / "nbrs.json"
        with pytest.raises(ValueError, match=f"^{message}$"):
            NeighborIndex("0" * 64, 1.0, k_max, neighbors).save(path)
        assert list(tmp_path.iterdir()) == []

    def test_persistence_and_key_checks(self, tmp_path, tiny_corpus, opts):
        idx = precompute_neighbors(tiny_corpus, 2, 1.5)
        path = tmp_path / "nbrs.json"
        idx.save(path)
        loaded = NeighborIndex.load(path, tiny_corpus, mu=1.5)
        assert loaded.neighbors == idx.neighbors
        with pytest.raises(ValueError, match="mu"):
            NeighborIndex.load(path, tiny_corpus, mu=2.0)
        other = build_corpus([("Z", "zz zz")], opts)
        with pytest.raises(ValueError, match="different corpus"):
            NeighborIndex.load(path, other)
