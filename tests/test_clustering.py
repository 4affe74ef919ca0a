import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

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
from pqlm import clustering
from pqlm.lm import log_rendition_docs
from pqlm.scoring import log_rendition_clusters


def neighbors_for(corpus, k, mu):
    return precompute_neighbors(corpus, k, mu)


def random_clusters(rng, corpus, n_clusters):
    """Random overlapping member lists; some documents are in no cluster."""
    return [rng.choice(corpus.n_docs, size=int(rng.integers(1, 5)), replace=False).tolist()
            for _ in range(n_clusters)]


def merged_counts(corpus, index):
    """Each cluster's member rows merged into one term -> count Counter."""
    merged = [Counter() for _ in index.members]
    for counts, row in zip(merged, index.members):
        for d in row:
            counts.update(doc_counts(corpus, d))
    return merged


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

    def test_neighbor_lists_of_another_corpus(self, tiny_corpus):
        other = build_corpus([("d0", "a a b"), ("d1", "b d")], PreprocessOptions())
        with pytest.raises(ValueError, match="^neighbor lists were built for a different corpus$"):
            build_clusters(tiny_corpus, 1, neighbors_for(other, 1, 1.0))

    def test_document_in_no_cluster(self):
        # B ties A everywhere, so every top-1 list picks the lower id A
        corpus = build_corpus(
            [("A", "x y"), ("B", "x y"), ("C", "z w")], PreprocessOptions())
        index = build_clusters(corpus, 1, neighbors_for(corpus, 1, 1.0))
        assert index.members == [(0,), (0,), (2,)]
        assert cluster_membership(index, 1).tolist() == []
        for term in ("x", "y"):
            ids, counts = index.postings(corpus.vocabulary[term])
            assert ids.tolist() == [0, 1] and counts.tolist() == [1.0, 1.0]
        ranking = score_mccluster(PseudoQueryList([1], [1.0]), 1, 1, corpus, index)
        # B is in no cluster, so it credits none (its memoised phase-1
        # credits are empty) and no document scores
        assert not ranking.scores.any()
        for credits in index._credits[(1, 1)]:
            assert len(credits) == 0 and credits.base is None

    def test_containment_inverts_membership(self):
        rng = np.random.default_rng(43)
        corpus = random_corpus(rng, n_docs=10)
        index = build_clusters(corpus, 3, neighbors_for(corpus, 4, 2.0))
        for d in range(corpus.n_docs):
            holders = cluster_membership(index, d)
            assert holders.tolist() == [cid for cid, row in enumerate(index.members)
                                        if d in row]

    def test_cluster_counts_match_recomputation(self):
        rng = np.random.default_rng(47)
        corpus = random_corpus(rng, n_docs=8)
        index = build_clusters(corpus, 3, neighbors_for(corpus, 3, 1.0))
        merged = merged_counts(corpus, index)
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


class TestBatchedPostings:
    """A text's cluster postings, derived together by ClusterIndex.stage
    when log_rendition_clusters scores the text."""

    @pytest.mark.parametrize("max_bins", [None, 1, 40])
    def test_every_term_equals_a_merge_of_member_rows(self, max_bins, monkeypatch):
        if max_bins is not None:
            # 1 bin derives one term per bincount, 40 bins a few terms each
            monkeypatch.setattr(clustering, "_MAX_BINS", max_bins)
        rng = np.random.default_rng(71)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=12)
            index = ClusterIndex(random_clusters(rng, corpus, 15), corpus, 2.0, 4)
            merged = merged_counts(corpus, index)
            vocab = sorted(corpus.vocabulary.values())
            # one term derived alone first, then texts partly derived already
            index.postings(vocab[len(vocab) // 2])
            for d in rng.permutation(corpus.n_docs)[:6].tolist():
                log_rendition_clusters(index, corpus.text(d))
            for term, t in corpus.vocabulary.items():
                ids, counts = index.postings(t)
                assert ids.dtype == np.int32 and counts.dtype == np.float64
                assert not ids.flags.writeable and not counts.flags.writeable
                assert list(zip(ids.tolist(), counts.tolist())) == [
                    (cid, m[term]) for cid, m in enumerate(merged) if term in m]
            assert index._staged == {}

    def test_staged_terms_miss_the_memo_on_their_first_request(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        index.stage([0, 1, 2, 3, -1])  # ids outside the vocabulary are skipped
        assert set(index._staged) == {0, 1, 2} and index._postings == {}
        index.postings(1)
        assert set(index._staged) == {0, 2} and set(index._postings) == {1}
        index.stage([1, 2])
        assert set(index._staged) == {0, 2}

    def test_overlapping_texts_on_threads_match_serial(self):
        rng = np.random.default_rng(73)
        corpus = random_corpus(rng, n_docs=40, max_len=20)
        members = random_clusters(rng, corpus, 30)
        texts = [corpus.text(d) for d in range(corpus.n_docs)]

        def scores(index, order):
            return [(d, log_rendition_clusters(index, texts[d])) for d in order]

        serial_index = ClusterIndex(members, corpus, 3.0, 4)
        serial = dict(scores(serial_index, range(corpus.n_docs)))
        shared = ClusterIndex(members, corpus, 3.0, 4)
        orders = [rng.permutation(corpus.n_docs).tolist() for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(scores, shared, order) for order in orders]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            for d, got in result:
                assert np.array_equal(got, serial[d])
        for t in corpus.vocabulary.values():
            for got, expected in zip(shared.postings(t), serial_index.postings(t)):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestMembership:
    def test_query_round_one_belongs_to_all(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        assert cluster_membership(index, QUERY_ID).tolist() == [0, 1]

    def test_query_round_two_is_an_error(self):
        # the query is a pseudo-query only alone, as round 1's
        for items in ([0, QUERY_ID], [QUERY_ID, 1]):
            with pytest.raises(ValueError, match="only alone, in round 1"):
                PseudoQueryList(items, [1.0, 0.5])

    def test_doc_in_own_cluster_only(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        assert cluster_membership(index, 0).tolist() == [0]

    def test_out_of_range(self, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        with pytest.raises(ValueError, match="outside the corpus"):
            cluster_membership(index, 7)

    def test_ids_bounded_by_the_documents_not_the_clusters(self):
        # two clusters over three documents: document 2 is in none of them
        corpus = build_corpus([("d0", "a a b"), ("d1", "b c"), ("d2", "c d")],
                              PreprocessOptions())
        index = ClusterIndex([(0,), (0,)], corpus, 1.0, 1)
        assert cluster_membership(index, 2).tolist() == []
        with pytest.raises(ValueError, match="^text id 3 outside the corpus$"):
            cluster_membership(index, 3)
        ranking = score_mccluster(PseudoQueryList([2, 0], [1.0, 0.5]), 1, 1, corpus, index)
        assert ranking.entries[0][0] == 0 and len(ranking) == 3


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

    @pytest.mark.parametrize("members, delta, message", [
        ([(0, 1), (1,), (2, 0)], 2, "member list 1 is not 2 distinct ids in 0..2"),
        ([(0, 1), (1, 2), (2, 0)], 5, "member list 0 is not 5 distinct ids in 0..2"),
        ([(0,), (0,)], 1, "2 member lists for 3 documents"),
    ], ids=["short-row", "delta", "row-count"])
    def test_save_refuses_what_load_refuses(self, tmp_path, members, delta, message):
        corpus = build_corpus([("d0", "a a b"), ("d1", "b c"), ("d2", "c d")],
                              PreprocessOptions())
        path = tmp_path / "clusters.json"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClusterIndex(members, corpus, 1.0, delta).save(path)
        assert list(tmp_path.iterdir()) == []

    def test_wrong_corpus_rejected(self, tmp_path, tiny_corpus):
        index = singleton_cluster_index(tiny_corpus, 1.0)
        path = tmp_path / "clusters.json"
        index.save(path)
        other = build_corpus([("Q", "zz xx")], PreprocessOptions())
        with pytest.raises(ValueError, match="different corpus"):
            ClusterIndex.load(path, other)
