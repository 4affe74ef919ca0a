from collections import Counter

import numpy as np
import pytest

from conftest import doc_counts, random_corpus, random_mu
from pqlm import (
    QUERY_ID,
    ClusterIndex,
    PreprocessOptions,
    PseudoQueryList,
    build_clusters,
    build_corpus,
    cluster_membership,
    precompute_neighbors,
    score_mccluster,
    singleton_cluster_index,
)
from pqlm.lm import log_rendition_docs


def neighbors_for(corpus, k, mu):
    return precompute_neighbors(corpus, k, mu)


class TestBuild:
    def test_delta_one_matches_exhaustive_best_renderer(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=9)
            mu = random_mu(rng)
            index = build_clusters(corpus, 1, neighbors_for(corpus, 3, mu))
            for seed in range(9):
                scores = np.exp(log_rendition_docs(corpus, corpus.text(seed), mu))
                best = min(range(9), key=lambda r: (-scores[r], r))
                assert index.members[seed] == (best,)

    def test_identical_documents_symmetric_clusters(self):
        corpus = build_corpus(
            [("A", "p q"), ("B", "p q"), ("C", "q q q")], PreprocessOptions())
        index = build_clusters(corpus, 2, neighbors_for(corpus, 2, 1.0))
        assert index.members[0] == (0, 1)
        assert index.members[1] == (0, 1)

    def test_document_in_no_cluster(self):
        # B ties A everywhere, so every top-1 list picks the lower id A
        corpus = build_corpus(
            [("A", "x y"), ("B", "x y"), ("C", "z w")], PreprocessOptions())
        index = build_clusters(corpus, 1, neighbors_for(corpus, 1, 1.0))
        assert index.members == [(0,), (0,), (2,)]
        assert cluster_membership(index, 1, False).tolist() == []
        for term in ("x", "y"):
            ids, counts = index.postings(corpus.vocabulary[term])
            assert ids.tolist() == [0, 1] and counts.tolist() == [1.0, 1.0]
        counters: dict = {}
        ranking = score_mccluster(PseudoQueryList([1], [1.0]), 1, 1, corpus, index,
                                  False, instrumentation=counters)
        assert counters["cluster_credits"] == [] and not ranking.scores.any()
        for credits in index._credits[(1, 1)]:
            assert len(credits) == 0 and credits.base is None

    def test_containment_inverts_membership(self):
        rng = np.random.default_rng(43)
        corpus = random_corpus(rng, n_docs=10)
        index = build_clusters(corpus, 3, neighbors_for(corpus, 4, 2.0))
        for d in range(corpus.n_docs):
            holders = cluster_membership(index, d, False)
            assert holders.tolist() == [cid for cid, row in enumerate(index.members)
                                        if d in row]

    def test_cluster_counts_match_recomputation(self):
        rng = np.random.default_rng(47)
        corpus = random_corpus(rng, n_docs=8)
        index = build_clusters(corpus, 3, neighbors_for(corpus, 3, 1.0))
        merged = [Counter() for _ in index.members]
        for fresh, row in zip(merged, index.members):
            for d in row:
                fresh.update(doc_counts(corpus, d))
        assert index.lengths().tolist() == [sum(m.values()) for m in merged]
        for term, t in corpus.vocabulary.items():
            ids, counts = index.postings(t)
            assert dict(zip(ids.tolist(), counts.tolist())) == {
                cid: m[term] for cid, m in enumerate(merged) if term in m}

    def test_one_cluster_per_document_and_overlap(self):
        rng = np.random.default_rng(53)
        corpus = random_corpus(rng, n_docs=10)
        index = build_clusters(corpus, 3, neighbors_for(corpus, 3, 2.0))
        assert len(index) == corpus.n_docs
        assert sum(map(len, index.members)) >= corpus.n_docs

    def test_delta_above_k_max_instructs_recomputation(self, tiny_corpus):
        nbrs = neighbors_for(tiny_corpus, 1, 1.0)
        with pytest.raises(ValueError, match="recompute"):
            build_clusters(tiny_corpus, 2, nbrs)

    def test_determinism(self):
        rng = np.random.default_rng(59)
        corpus = random_corpus(rng, n_docs=9)
        a = build_clusters(corpus, 2, precompute_neighbors(corpus, 2, 1.0, threads=1))
        b = build_clusters(corpus, 2, precompute_neighbors(corpus, 2, 1.0, threads=4))
        assert a.members == b.members

    def test_report_seed_self_inclusion_rate(self):
        # seeds are not force-included; report how often they make their own
        # top-delta so anomalies stay visible (informational, not asserted)
        rng = np.random.default_rng(67)
        included = total = 0
        for _ in range(20):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            delta = int(rng.integers(1, 4))
            index = build_clusters(corpus, delta,
                                   neighbors_for(corpus, delta, mu))
            for seed, row in enumerate(index.members):
                total += 1
                included += seed in row
        print(f"seed self-inclusion: {included}/{total} "
              f"({100 * included / total:.0f}%)")
        assert total > 0


class TestMemberRendition:
    def test_permuted_count_profiles_tie_exactly(self):
        # A and B hold the same counts on permuted terms of equal collection
        # probability; at mu=3 their unsorted per-term sums differ in the last bit
        corpus = build_corpus(
            [("A", "x y y z z z"), ("B", "x x x y y z")], PreprocessOptions())
        index = build_clusters(corpus, 2, neighbors_for(corpus, 2, 3.0))
        members, probs, _ = index.member_rendition(0, corpus)
        assert members.tolist() == [0, 1] and probs[0] == probs[1]

    def test_memo_entries_are_read_only_and_total_sums_in_member_order(self):
        rng = np.random.default_rng(67)
        corpus = random_corpus(rng, n_docs=9)
        index = build_clusters(corpus, 4, neighbors_for(corpus, 4, 2.0))
        for cid, row in enumerate(index.members):
            members, probs, total = index.member_rendition(cid, corpus)
            assert sorted(members.tolist()) == list(row)
            assert total == float(probs[np.argsort(members)].sum())
            for a in (members, probs):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[1]


class TestMembership:
    def test_query_round_one_belongs_to_all(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        assert cluster_membership(index, QUERY_ID, True).tolist() == [0, 1]

    def test_query_round_two_is_an_error(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        with pytest.raises(ValueError, match="round-2"):
            cluster_membership(index, QUERY_ID, False)

    def test_doc_in_own_cluster_only(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        assert cluster_membership(index, 0, False).tolist() == [0]

    def test_out_of_range(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        with pytest.raises(ValueError, match="outside the corpus"):
            cluster_membership(index, 7, False)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        corpus = random_corpus(rng, n_docs=7)
        index = build_clusters(corpus, 2, neighbors_for(corpus, 2, 1.0))
        path = tmp_path / "clusters.json"
        index.save(path)
        loaded = ClusterIndex.load(path, corpus)
        assert loaded.members == index.members
        assert loaded.mu == index.mu and loaded.delta == index.delta
        index.save(path)
        first = path.read_bytes()
        loaded.save(path)
        assert path.read_bytes() == first

    def test_wrong_corpus_rejected(self, tmp_path, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        path = tmp_path / "clusters.json"
        index.save(path)
        other = build_corpus([("Q", "zz xx")], PreprocessOptions())
        with pytest.raises(ValueError, match="different corpus"):
            ClusterIndex.load(path, other)
