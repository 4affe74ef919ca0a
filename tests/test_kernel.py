"""The rendition kernel, the postings it reads, a golden digest of the
run bytes every system produces on a seeded 200-document corpus, and the
per-run memo of document pseudo-queries.

The digest was recorded before the term index and the shared kernel
replaced the per-term postings scans; any change to scores, tie-breaking
or formatting shows up as a different digest.
"""

import dataclasses
import hashlib
import math
import random
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import as_text, doc_counts, random_corpus, random_mu
from pqlm import (
    ClusterIndex,
    Corpus,
    DriftTechnique,
    PreprocessOptions,
    RunConfig,
    build_clusters,
    build_corpus,
    format_run_lines,
    lm_baseline,
    parse_trec,
    precompute_neighbors,
    relevance_model_rank,
    rocchio_rank,
    run_retrieval,
    singleton_cluster_index,
)
from pqlm import baselines, lm, pipeline, scoring
from pqlm.baselines import estimate_relevance_model
from pqlm.clustering import cluster_membership
from pqlm.corpus import Query
from pqlm.lm import log_rendition, log_rendition_docs
from pqlm.scoring import PseudoQueryList, ScoredRanking

DATA = Path(__file__).parent / "data"

GOLDEN_SHA256 = "b1cffddc03ddcd2ab30a1a6cf31bd516f0503030abc6f0168d000db72c9314f0"
# sha256 of the pqlm-index-v1 bytes of golden_corpus() and of
# tests/data/micro.trec (default options, and Porter with MICRO_STOPLIST),
# and of the neighbour (k_max 6) and cluster (delta 5) files of
# golden_corpus() at mu = MU
INDEX_SHA256 = {
    "golden": "143c37955891e0f384bf102831d5aeca0c88d1cf0dc169db2b086e6997727067",
    "micro": "d0234987d5de67754d1998fc0db64378eb3eb3fba9ccfa09e21b4359bac0416e",
    "micro-porter": "a82907473d8e83f7bafa26ec17cd3ef52b140aaa03d446a19f1097e38e63cb46",
    "neighbors": "39844b9512fb23f7dfb7a2eb30a0c5cb02d7549ef7354058fa71dc9ddba2b4b1",
    "clusters": "8e2537996f77478a2411c6e15350722180a4cfea6115f4236a524b22607d03ea",
}
MICRO_STOPLIST = {"the", "and", "in", "from", "into", "about"}


def literal_log_rendition(corpus, x_counts, mu, tables=None):
    """Per-term reference: postings found by scanning every renderer's
    term -> count table, by default every document's."""
    if tables is None:
        tables = [doc_counts(corpus, d) for d in range(corpus.n_docs)]
    out = np.zeros(len(tables))
    xlen = float(sum(x_counts.values()))
    base = 0.0
    for term, cnt in sorted(x_counts.items()):
        p_coll = corpus.collection_prob(term)
        background = math.log(mu * p_coll)
        base += cnt * background
        ids = [d for d, table in enumerate(tables) if term in table]
        counts = np.array([tables[d][term] for d in ids], dtype=float)
        if ids:
            out[ids] += cnt * (np.log(counts + mu * p_coll) - background)
    out += base
    lengths = np.array([sum(table.values()) for table in tables], dtype=float)
    out -= xlen * np.log(lengths + mu)
    out /= xlen
    return out


class TestKernel:
    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            terms = [str(t) for t in rng.choice(sorted(corpus.vocabulary), size=5)]
            text = {t: terms.count(t) for t in set(terms)}
            scores = np.exp(log_rendition_docs(corpus, as_text(corpus, text), mu))
            for d, expected in oracles.lm_baseline_scores(text, corpus, mu):
                assert scores[d] == pytest.approx(expected, rel=1e-12)

    def test_bit_equal_to_literal_reference_for_repeated_terms(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            corpus = random_corpus(rng, vocab_size=6)
            mu = random_mu(rng)
            terms = [str(t) for t in rng.choice(sorted(corpus.vocabulary), size=9)]
            text = {t: terms.count(t) for t in set(terms)}
            assert max(text.values()) > 1
            assert np.array_equal(log_rendition_docs(corpus, as_text(corpus, text), mu),
                                  literal_log_rendition(corpus, text, mu))

    def test_bit_equal_to_literal_reference_for_float_counts(self):
        # the relevance model scores a text of fractional term weights
        rng = np.random.default_rng(31)
        for _ in range(40):
            corpus = random_corpus(rng)
            mu = random_mu(rng)
            weights = rng.dirichlet(np.ones(len(corpus.vocabulary)))
            text = {t: float(w) for t, w in zip(sorted(corpus.vocabulary), weights)}
            assert np.array_equal(log_rendition_docs(corpus, as_text(corpus, text), mu),
                                  literal_log_rendition(corpus, text, mu))

    def test_relevance_model_is_bit_equal_to_literal_reference(self):
        # a clipped model lists its terms in rank order, and its length is
        # summed in that order, not in term-id order
        corpus, topics = golden_corpus()
        rank_ordered = []
        for qid, text in topics:
            query = corpus.preprocess_query(qid, text)
            counts = corpus.query_counts(query)
            feedback = lm.top_renderers(corpus, counts, 5, MU)[0].tolist()
            for clip_k in (0, 7, 30):
                ids, probs = estimate_relevance_model(counts, corpus, feedback, 0.5, clip_k)
                named = {corpus._terms[t]: p for t, p in zip(ids.tolist(), probs.tolist())}
                entropy = baselines._entropy(probs[np.argsort(ids)])
                expected = entropy + literal_log_rendition(corpus, named, MU)
                ranking = relevance_model_rank(query, corpus, 5, 0.5, clip_k, MU, corpus.n_docs)
                assert np.array_equal(ranking.scores, expected[ranking.doc_ids])
                rank_ordered.append(ids.tolist() != sorted(ids.tolist()))
        assert any(rank_ordered)

    def test_out_of_vocabulary_term(self, tiny_corpus):
        # the vocabulary holds term ids 0..2; the corpus's postings refuse
        # the others, for itself, for a cluster index and for the kernel
        for owner in (tiny_corpus, singleton_cluster_index(tiny_corpus, 1.0)):
            for bad_id in (3, -1):
                message = f"term id {bad_id} is not in the corpus vocabulary"
                with pytest.raises(ValueError, match=message):
                    owner.postings(bad_id)
                text = np.array([0, bad_id], dtype=np.int32), np.array([1, 1])
                with pytest.raises(ValueError, match=message):
                    log_rendition(owner, text, 1.0)
            assert set(owner._postings) == {0}

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_non_positive_mu(self, tiny_corpus, mu):
        with pytest.raises(ValueError, match=f"mu must be a positive finite number, got mu={mu}"):
            log_rendition_docs(tiny_corpus, as_text(tiny_corpus, {"a": 1}), mu)

    def test_mu_whose_background_underflows(self, tiny_corpus):
        # p(a | C) = 0.4, and 5e-324 * 0.4 rounds to 0.0, which has no log
        with pytest.raises(ValueError, match=r"mu=5e-324 is too small: "
                                             r"mu \* p\(w \| C\) is 0.0 for some w"):
            log_rendition_docs(tiny_corpus, as_text(tiny_corpus, {"a": 1}), 5e-324)

    @pytest.mark.parametrize("text", [{}, {"a": 0}])
    def test_empty_text(self, tiny_corpus, text):
        with pytest.raises(ValueError, match="empty sequence"):
            log_rendition_docs(tiny_corpus, as_text(tiny_corpus, text), 1.0)

    def test_postings_of_unknown_term_are_empty(self, tiny_corpus):
        # no cluster holds d1, the only document with "c"; its postings are
        # derived alone, or staged with every other term
        for staged in ([], sorted(tiny_corpus.vocabulary.values())):
            clusters = ClusterIndex([(0,), (0,)], tiny_corpus, 1.0, 1)
            clusters.stage(staged)
            ids, counts = clusters.postings(tiny_corpus.vocabulary["c"])
            assert len(ids) == len(counts) == 0
            assert ids.dtype == np.int32 and counts.dtype == np.float64

    def test_postings_list_each_holder_once_in_id_order(self, tiny_corpus):
        ids, counts = tiny_corpus.postings(tiny_corpus.vocabulary["b"])
        assert ids.tolist() == [0, 1] and counts.tolist() == [1.0, 1.0]
        ids, counts = tiny_corpus.postings(tiny_corpus.vocabulary["a"])
        assert ids.tolist() == [0] and counts.tolist() == [2.0]


class TestCorpusStatistics:
    """The statistics a corpus builds once, at construction."""

    def test_lengths_and_cluster_index_do_not_build_postings(self, monkeypatch):
        corpus, _ = golden_corpus()
        builds = []
        build = Corpus._build_postings

        def counted_build(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(Corpus, "_build_postings", counted_build)
        lengths = [sum(doc_counts(corpus, d).values()) for d in range(corpus.n_docs)]
        assert corpus.lengths().tolist() == lengths
        clusters = ClusterIndex([(d, (d + 1) % corpus.n_docs) for d in range(corpus.n_docs)],
                                corpus, MU, 2)
        assert clusters.lengths()[0] == lengths[0] + lengths[1]
        assert builds == []
        corpus.postings(corpus.vocabulary["w0"])
        assert builds == [corpus]

    def test_collection_vector_equals_collection_prob(self, tmp_path):
        corpus, _ = golden_corpus()
        corpus.save(tmp_path / "index.json")
        for owner in (corpus, Corpus.load(tmp_path / "index.json")):
            assert owner._terms == tuple(sorted(owner.vocabulary))
            assert owner._collection_probs.tolist() == [
                owner.collection_prob(t) for t in owner._terms]
            for stat in (owner._collection_probs, owner.lengths()):
                assert not stat.flags.writeable


class _CountingMemo(dict):
    """A deviation memo that counts its stores: one per memo miss, each
    miss one logarithm per posting of the term."""

    stores = 0

    def __setitem__(self, term, entry):
        self.stores += 1
        super().__setitem__(term, entry)


class TestDeviationMemo:
    @staticmethod
    def owners(corpus):
        return {"corpus": corpus,
                "clusters": build_clusters(corpus, 3, precompute_neighbors(corpus, 3, 2.0))}

    @pytest.mark.parametrize("owner_kind", ["corpus", "clusters"])
    def test_second_rendition_of_a_text_takes_no_logarithm(self, owner_kind):
        corpus = random_corpus(np.random.default_rng(37), n_docs=10)
        owner = self.owners(corpus)[owner_kind]
        mu = 7.5
        memo = owner._deviations[mu] = _CountingMemo()
        text = corpus.text(0)
        first = log_rendition(owner, text, mu)
        n_terms = len(text[0])
        assert memo.stores == n_terms
        second = log_rendition(owner, text, mu)
        assert memo.stores == n_terms
        assert np.array_equal(first, second)
        # another mu has its own entries
        log_rendition(owner, text, 2 * mu)
        assert memo.stores == n_terms and len(owner._deviations[2 * mu]) == n_terms

    def test_memo_hits_stay_bit_equal_to_literal_reference(self):
        rng = np.random.default_rng(41)
        corpus = random_corpus(rng, n_docs=12)
        for mu in (0.5, 30.0, 0.5):
            for d in range(corpus.n_docs):
                assert np.array_equal(log_rendition_docs(corpus, corpus.text(d), mu),
                                      literal_log_rendition(corpus, doc_counts(corpus, d), mu))

    @pytest.mark.parametrize("owner_kind", ["corpus", "clusters"])
    def test_texts_mixing_memoised_and_new_terms_match_literal_reference(self, owner_kind):
        rng = np.random.default_rng(47)
        corpus = random_corpus(rng, n_docs=12)
        owner = self.owners(corpus)[owner_kind]
        tables = [doc_counts(corpus, d) for d in range(corpus.n_docs)]
        if owner_kind == "clusters":
            tables = [sum((Counter(tables[d]) for d in row), Counter())
                      for row in owner.members]
        terms = sorted(corpus.vocabulary)
        for mu in (0.5, 30.0, 4.0):
            memo = owner._deviations[mu] = _CountingMemo()
            mixed = 0
            for _ in range(6):
                picked = rng.choice(terms, size=int(rng.integers(1, 5)))
                text = {str(t): int(rng.integers(1, 4)) for t in picked}
                new = len(set(text) - {corpus._terms[t] for t in memo})
                mixed += 0 < new < len(text)
                stores = memo.stores
                got = log_rendition(owner, as_text(corpus, text), mu)
                assert memo.stores == stores + new  # one store per new term
                assert np.array_equal(got, literal_log_rendition(corpus, text, mu, tables))
            assert mixed

    @pytest.mark.parametrize("owner_kind", ["corpus", "clusters"])
    def test_postings_are_read_once_per_term_and_mu(self, owner_kind, monkeypatch):
        corpus = random_corpus(np.random.default_rng(53), n_docs=10)
        owner = self.owners(corpus)[owner_kind]
        calls = []
        postings = type(owner).postings

        def counted(self, t):
            calls.append(t)
            return postings(self, t)

        monkeypatch.setattr(type(owner), "postings", counted)
        text = corpus.text(0)
        first = log_rendition(owner, text, 3.0)
        assert calls == text[0].tolist()
        assert np.array_equal(log_rendition(owner, text, 3.0), first)
        assert calls == text[0].tolist()  # the second rendition reads none
        log_rendition(owner, text, 6.0)
        assert calls == 2 * text[0].tolist()  # another mu reads them again
        for t in text[0].tolist():
            assert owner._deviations[3.0][t][0] is postings(owner, t)[0]

    def test_entries_are_read_only_and_one_float_per_posting(self):
        corpus = random_corpus(np.random.default_rng(43), n_docs=10)
        for owner in self.owners(corpus).values():
            for d in range(corpus.n_docs):
                log_rendition(owner, corpus.text(d), 2.0)
            assert list(owner._deviations) == [2.0]
            for t, (renderers, background, deviations) in owner._deviations[2.0].items():
                assert renderers is owner.postings(t)[0]
                assert background == math.log(2.0 * corpus.collection_prob(corpus._terms[t]))
                assert deviations.dtype == np.float64
                assert len(deviations) == len(owner.postings(t)[0])
                assert not deviations.flags.writeable
                with pytest.raises(ValueError):
                    deviations[:] = 0.0


# -- golden run bytes -----------------------------------------------------

MU = 500.0
DEPTH = 60
DRIFTS = [
    DriftTechnique(),
    DriftTechnique("interpolation", 0.5, None),
    DriftTechnique("truncated_rerank", None, 25),
    DriftTechnique("iterated_truncation", None, 25),
    DriftTechnique("iterated_rerank", None, 25),
    DriftTechnique("iterated_interpolation", 0.3, None),
]


def golden_corpus():
    """200 documents: a Zipf background plus one of eight planted topics."""
    rng = random.Random(2005)
    background = [f"w{i}" for i in range(400)]
    zipf = [1.0 / (i + 1) for i in range(len(background))]
    topics = [[f"t{k}v{j}" for j in range(8)] for k in range(8)]
    docs = []
    for d in range(200):
        words = rng.choices(background, zipf, k=rng.randint(15, 60))
        if d % 5:
            words += rng.choices(topics[d % 8], k=rng.randint(2, 10))
        rng.shuffle(words)
        docs.append((f"G{d:03d}", " ".join(words)))
    queries = [
        (f"q{k}", " ".join(rng.sample(topics[k], 2) + [rng.choice(background[:50])]))
        for k in (0, 3, 6)
    ]
    queries.append(("q9", "t1v0 t1v3 unseenword"))
    return build_corpus(docs, PreprocessOptions()), queries


def golden_run_bytes() -> bytes:
    corpus, topics = golden_corpus()
    queries = [corpus.preprocess_query(qid, text) for qid, text in topics]
    neighbors = precompute_neighbors(corpus, 6, MU)
    clusters = build_clusters(corpus, 5, neighbors)
    blocks = [" ".join(map(str, row)) for row in neighbors.neighbors]
    for method in ("vdoc", "mcdoc", "mccluster"):
        for drift in DRIFTS:
            config = RunConfig(method=method, alpha=4, alpha1=6, m=8,
                               alpha_cluster=2, beta=5, delta=5, T=2, mu=MU,
                               drift=drift, N=DEPTH)
            tag = f"{method}-{drift.kind}"
            for q in queries:
                ranking = run_retrieval(q, config, corpus, clusters)
                blocks.append(format_run_lines(q.query_id, ranking, corpus, tag))
    for q in queries:
        blocks.append(format_run_lines(q.query_id, lm_baseline(q, corpus, MU, DEPTH),
                                       corpus, "lm"))
        blocks.append(format_run_lines(q.query_id, rocchio_rank(q, corpus, 5, 6, 0.5, DEPTH),
                                       corpus, "rocchio"))
        for clip_k in (0, 30):
            ranking = relevance_model_rank(q, corpus, 5, 0.5, clip_k, MU, DEPTH)
            blocks.append(format_run_lines(q.query_id, ranking, corpus, f"rm{clip_k}"))
    return ("\n".join(blocks) + "\n").encode()


def test_golden_run_bytes():
    assert hashlib.sha256(golden_run_bytes()).hexdigest() == GOLDEN_SHA256


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_index_bytes(tmp_path):
    corpus, _ = golden_corpus()
    micro_docs = parse_trec((DATA / "micro.trec").read_bytes())
    micro = build_corpus(micro_docs, PreprocessOptions())
    stemmed = build_corpus(micro_docs, PreprocessOptions(stemmer="porter",
                                                         stoplist=MICRO_STOPLIST))
    corpus.save(tmp_path / "index.json")
    reloaded = Corpus.load(tmp_path / "index.json")
    for name, owner in (("golden", corpus), ("golden", reloaded), ("micro", micro),
                        ("micro-porter", stemmed)):
        assert _sha256(owner.serialize()) == INDEX_SHA256[name]
        assert owner.content_hash == INDEX_SHA256[name]
    neighbors = precompute_neighbors(reloaded, 6, MU)
    neighbors.save(tmp_path / "neighbors.json")
    build_clusters(reloaded, 5, neighbors).save(tmp_path / "clusters.json")
    for name in ("neighbors", "clusters"):
        assert _sha256((tmp_path / f"{name}.json").read_bytes()) == INDEX_SHA256[name]


# -- raw score bits ---------------------------------------------------------

# sha256 of doc_ids.tobytes() + scores.tobytes() of score_mcdoc and
# score_mccluster on golden_corpus(), each case over the four queries in
# order; the run digests above see six decimals of a score, these every bit.
# numpy's float64 log and exp give last bits that depend on the SIMD code
# they dispatch to, so there is one set per (log, exp) dispatch target; the
# AVX2 and baseline sets were recorded in child processes run with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (and X86_V3),
# which acts only on the process that reads it:
#   NPY_DISABLE_CPU_FEATURES=... PYTHONPATH=src:tests python -c \
#     "import test_kernel; print(test_kernel.raw_score_digests())"
AVX512_RAW_SHA256 = {
    "mcdoc round 1": "dd8f4f351319b0c30b04caa5f0b491ae013ff8de701dcdc78e5f238b1084917f",
    "mcdoc round 2": "d28318c5e0e5561196167245bb746340caedb1fbe601735a7ff0230a7a4b2789",
    "mcdoc wide": "b87846ed600099570c4aa9bfeefbbf8132317a04dbbfb2564b7510658d2199b6",
    "mccluster beta 3 round 1": "c08d6f91b7e55bac0c34146f41c761c7e5325e4ffe5afec04bf96f69a2196bfd",
    "mccluster beta 3 round 2": "e03435671406e090b4988337466e3a35343802413cb3b372ab71c5eba004c9b5",
    "mccluster beta 3 wide": "832a3df06a68cec6d9120163350806e42ab24758bf4473d0a44ba1916a56c998",
    "mccluster beta 8 round 1": "4a967d2abc2f7f42bb0f147b728cb07eeba8a7317200dd5547d5b9287e7178b1",
    "mccluster beta 8 round 2": "6f81634d56b703efee231e89301414eea78c823b09b547529756c05f13e71ac3",
    "mccluster beta 8 wide": "7d9d740f2ea1ada27520d40986c1095d72ecf3cb8b07d6dfc9ec98afb948c416",
    "mccluster no doc 7 round 1": "32bf14a78edcd29089d267826aff0f4e4802dc4198b8c62b26fd51e2ebae8e3e",
    "mccluster no doc 7 round 2": "707e1b55d5e1db13ad361d70b6a57c02d004f03b3da9310b2e4adca6f6ea877a",
    "mccluster no doc 7 wide": "f8e5f976020e910c41a7e350d97ca4d346e867a1706884d29b9cd10548eded55",
}
AVX2_RAW_SHA256 = {
    "mcdoc round 1": "dd8f4f351319b0c30b04caa5f0b491ae013ff8de701dcdc78e5f238b1084917f",
    "mcdoc round 2": "58d9723b631473ee611e8735f3f4c135180e0c9033cce69c5f2a687b47cf5008",
    "mcdoc wide": "f24b543557a772bc32a72a30daec09213b278684aa186c9ee3f83878e2823207",
    "mccluster beta 3 round 1": "adc68e0819f4cb480fffe757a653bc024321b4a6f47ab089cc0e36547e28aead",
    "mccluster beta 3 round 2": "6ee2a46762b3aaea256caa0f46ff58d67522567b95f03b466f421a1419d7bbbc",
    "mccluster beta 3 wide": "1a34a7ad9fe22d788a7fd41391cc2a39a5b4dfd9b90b0097a9c9c42733e330ae",
    "mccluster beta 8 round 1": "83516208489168e8ec6d94e29c74f0284b677e1be8e5989eb7f16aaaa88accff",
    "mccluster beta 8 round 2": "7a7729514ae777c8837f9cc9ff558382d09e005f1f369db8688f1a4822ebc31c",
    "mccluster beta 8 wide": "83a19f9c8d6dec909d5e07e7b40b5bb0bc5b0cd4c9e439bdf6256fa7f934abb6",
    "mccluster no doc 7 round 1": "7b0731ab1eabe88a23a5fc94ec3871f117385cfd889afcaa5ee1df5faa718de5",
    "mccluster no doc 7 round 2": "ad276f51d72d98469e00febe0000f3d67b95f7206814f4143ccabd69d5711c21",
    "mccluster no doc 7 wide": "b06b649e1d92e6cd37a8cc0b99d6bdbbcc0255c7ec929322766cd1a2fd180ddc",
}
RAW_SHA256 = {
    ("X86_V4", "X86_V4"): AVX512_RAW_SHA256,
    ("X86_V3", "X86_V3"): AVX2_RAW_SHA256,
    ("baseline(X86_V2)", "baseline(X86_V2)"): AVX2_RAW_SHA256,
}


def transcendental_dispatch() -> tuple[str, str]:
    """The (log, exp) targets numpy dispatches its float64 log and exp to on
    this host, such as ("X86_V4", "X86_V4") on a CPU with AVX-512."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return (f"unknown: numpy {np.__version__} has no opt_func_info",) * 2
    info = opt_func_info(func_name="^(log|exp)$", signature="float64")
    return info["log"]["dd"]["current"], info["exp"]["dd"]["current"]


def raw_score_cases():
    """(case, ScoredRanking) of both iterative sums, rounds 1 and 2, per query.

    Round 2 takes the pseudo-queries of its own round 1, and "wide" takes
    every document, weighted by its rendition of the query.  The cluster
    indexes are the delta-5 clusters at beta 3 and at beta 8 (more than any
    cluster holds), and those clusters without document 7, which is then in
    no cluster while every wide list holds it.
    """
    corpus, queries, clusters = golden_setup()
    hole = 7
    holey = ClusterIndex([[d for d in row if d != hole] for row in clusters.members],
                         corpus, MU, 5)
    assert len(cluster_membership(clusters, hole)) and \
        not len(cluster_membership(holey, hole))
    for q in queries:
        counts = corpus.query_counts(q)
        query_p = np.exp(log_rendition_docs(corpus, counts, MU))
        wide = pipeline._next_pseudo_queries(ScoredRanking.from_dense(query_p))
        assert hole in wide.items
        first = scoring.score_mcdoc(PseudoQueryList.initial(), 6, 8, corpus, MU, query_p)
        yield "mcdoc round 1", first
        yield "mcdoc round 2", scoring.score_mcdoc(pipeline._next_pseudo_queries(first),
                                                   4, 8, corpus, MU, query_p)
        yield "mcdoc wide", scoring.score_mcdoc(wide, 4, 8, corpus, MU, query_p)
        for label, index, beta in (("beta 3", clusters, 3), ("beta 8", clusters, 8),
                                   ("no doc 7", holey, 5)):
            first = scoring.score_mccluster(PseudoQueryList.initial(), 6, beta, corpus,
                                            index, counts)
            yield f"mccluster {label} round 1", first
            for name, pq in (("round 2", pipeline._next_pseudo_queries(first)),
                             ("wide", wide)):
                yield f"mccluster {label} {name}", scoring.score_mccluster(
                    pq, 2, beta, corpus, index)


def raw_score_digests() -> dict[str, str]:
    digests: dict = {}
    for case, r in raw_score_cases():
        digests.setdefault(case, hashlib.sha256()).update(
            r.doc_ids.tobytes() + r.scores.tobytes())
    return {case: h.hexdigest() for case, h in digests.items()}


def test_raw_score_bits():
    level = transcendental_dispatch()
    if level not in RAW_SHA256:
        pytest.fail(f"no raw score digests recorded for numpy's float64 (log, exp) "
                    f"dispatch {level}")
    assert raw_score_digests() == RAW_SHA256[level]


# sha256 of doc_ids.tobytes() + scores.tobytes() of every golden query's
# ranking of all 200 documents, per feedback baseline case, and of the
# underflowing query's
BASELINE_RAW_SHA256 = {
    "rocchio": "a93c285733c3084eb810dd4929fb20b9ba0ca0b56d3096449fdd6f179a1bc2e5",
    "rocchio t 0": "dc71cdd7e10c57459da5603d9d4898cc6f812269a10d576b3d21061c1b913f14",
    "rocchio gamma 0": "dc71cdd7e10c57459da5603d9d4898cc6f812269a10d576b3d21061c1b913f14",
    "rocchio k1 clamped": "59c76b9943a3224998ee92665f82a470aee77baddbe5c19e9fab0404cdfb0b9d",
    "rm full support": "cccb0a2ae43ddce27a9153df78a5234033a4a8dc04212458bd36fa7fcd5b9b71",
    "rm clip 20": "55274e60f74f054af26da01fb3d20db27b59fdc6677419d6e6a3088af236b5d1",
    "rm underflow full support": "74f857469578074815e76465571d00927580a41070cbdaed979f5481c021841e",
    "rm underflow clip 20": "f7239e239da30a5a28dbbb22cc3bc9088c4f4b7c83f8cd8d52fb84a80ded6973",
}


def baseline_raw_cases():
    """(case, ScoredRanking) of Rocchio (with expansion, without terms,
    without weight, with k1 beyond the corpus) and of the relevance model
    (every term id, clipped), per golden query; then the relevance model of
    a query of 300 background terms, whose likelihood product underflows to
    0.0 in every feedback document, so that its posteriors come from the
    log-likelihoods."""
    corpus, queries, _ = golden_setup()
    n = corpus.n_docs
    for q in queries:
        yield "rocchio", rocchio_rank(q, corpus, k1=5, t=10, gamma=0.5, n=n)
        yield "rocchio t 0", rocchio_rank(q, corpus, k1=5, t=0, gamma=0.5, n=n)
        yield "rocchio gamma 0", rocchio_rank(q, corpus, k1=5, t=10, gamma=0.0, n=n)
        yield "rocchio k1 clamped", rocchio_rank(q, corpus, k1=10 * n, t=10, gamma=0.5, n=n)
        yield "rm full support", relevance_model_rank(q, corpus, 5, 0.5, 0, MU, n)
        yield "rm clip 20", relevance_model_rank(q, corpus, 5, 0.5, 20, MU, n)
    long = Query("long", sorted(t for t in corpus.vocabulary if t.startswith("w"))[:300])
    yield "rm underflow full support", relevance_model_rank(long, corpus, 5, 0.5, 0, MU, n)
    yield "rm underflow clip 20", relevance_model_rank(long, corpus, 5, 0.5, 20, MU, n)


def test_baseline_raw_score_bits():
    digests: dict = {}
    for case, r in baseline_raw_cases():
        digests.setdefault(case, hashlib.sha256()).update(
            r.doc_ids.tobytes() + r.scores.tobytes())
    assert {case: h.hexdigest() for case, h in digests.items()} == BASELINE_RAW_SHA256


# -- the term index under threads -----------------------------------------


def test_term_index_built_once_under_threads(tmp_path, monkeypatch):
    corpus, _ = golden_corpus()
    corpus.save(tmp_path / "index.json")
    fresh = Corpus.load(tmp_path / "index.json")
    builds = []
    build = Corpus._build_postings

    def slow_build(self):
        builds.append(self)
        time.sleep(0.05)  # lets the other workers reach the index meanwhile
        return build(self)

    monkeypatch.setattr(Corpus, "_build_postings", slow_build)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = precompute_neighbors(fresh, 8, MU, threads=4).neighbors
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert threaded == precompute_neighbors(corpus, 8, MU, threads=1).neighbors


def test_doc_freqs_built_once_with_the_postings_under_threads(monkeypatch):
    corpus, _ = golden_corpus()
    builds = []
    build = Corpus._build_postings

    def slow_build(self):
        builds.append(self)
        time.sleep(0.05)
        return build(self)

    monkeypatch.setattr(Corpus, "_build_postings", slow_build)
    with ThreadPoolExecutor(max_workers=4) as pool:
        dfs = list(pool.map(lambda _: corpus.doc_freqs(), range(4)))
    assert len(builds) == 1 and all(df is dfs[0] for df in dfs)


def test_cluster_postings_match_member_counts():
    corpus, _ = golden_corpus()
    clusters = build_clusters(corpus, 5, precompute_neighbors(corpus, 5, MU))
    merged = [Counter() for _ in clusters.members]
    for counts, row in zip(merged, clusters.members):
        for d in row:
            counts.update(doc_counts(corpus, d))
    for term in ("t2v1", "w0", "w399"):
        ids, counts = clusters.postings(corpus.vocabulary[term])
        expected = [(cid, m[term]) for cid, m in enumerate(merged) if term in m]
        assert list(zip(ids.tolist(), counts.tolist())) == expected
    assert clusters.lengths().tolist() == [
        sum(sum(doc_counts(corpus, d).values()) for d in row) for row in clusters.members]


# -- memoised document pseudo-queries -------------------------------------

METHODS = ("vdoc", "mcdoc", "mccluster")
KERNELS = {"vdoc": (lm, "log_rendition_docs"), "mcdoc": (lm, "log_rendition_docs"),
           "mccluster": (scoring, "log_rendition_clusters")}
MU2 = 1500.0


def _key(text):
    """A text's (ids, counts) as a hashable value."""
    return tuple(tuple(a.tolist()) for a in text)


def golden_setup():
    corpus, topics = golden_corpus()
    queries = [corpus.preprocess_query(qid, text) for qid, text in topics]
    clusters = build_clusters(corpus, 5, precompute_neighbors(corpus, 6, MU))
    return corpus, queries, clusters


def golden_config(method, mu=MU, T=2, N=DEPTH):
    return RunConfig(method=method, alpha=4, alpha1=6, m=8, alpha_cluster=2,
                     beta=5, delta=5, T=T, mu=mu, N=N)


@pytest.mark.parametrize("method", METHODS)
def test_document_pseudo_query_scored_once_across_queries(method, monkeypatch):
    corpus, queries, clusters = golden_setup()
    # a second query close to the first, so that their round 2 share documents
    pair = [queries[0], Query("q0b", queries[0].terms + ["w1"])]
    round2 = []
    for q in pair:
        fresh, _, fresh_clusters = golden_setup()
        first = run_retrieval(q, golden_config(method, T=1, N=fresh.n_docs), fresh,
                              fresh_clusters)
        round2.append(set(first.doc_ids[first.scores > 0].tolist()))
    assert round2[0] & round2[1]

    # every document text of the golden corpus is distinct
    texts = {_key(corpus.text(d)): d for d in range(corpus.n_docs)}
    assert len(texts) == corpus.n_docs
    calls = Counter()
    module, name = KERNELS[method]
    kernel = getattr(module, name)

    def counting(*args):
        calls[texts.get(_key(args[1]))] += 1  # args[1] is the scored text
        return kernel(*args)

    monkeypatch.setattr(module, name, counting)
    for q in pair:
        run_retrieval(q, golden_config(method), corpus, clusters)
    # the queries themselves: only mccluster renders them in scoring, against
    # the clusters; vdoc and mcdoc read the query vector of run_retrieval
    assert calls.pop(None, 0) == (len(pair) if method == "mccluster" else 0)
    assert set(calls) == round2[0] | round2[1]
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("method, drift, scored", [
    pytest.param("vdoc", DRIFTS[1], 1, id="vdoc"),
    pytest.param("mcdoc", DRIFTS[1], 1, id="mcdoc"),
    # mccluster ranks against clusters: only a drift that reads the vector needs it
    pytest.param("mccluster", DRIFTS[0], 0, id="mccluster-none"),
    pytest.param("mccluster", DRIFTS[3], 0, id="mccluster-iterated_truncation"),
    pytest.param("mccluster", DRIFTS[1], 1, id="mccluster-interpolation"),
])
def test_query_scored_once_per_run(method, drift, scored, monkeypatch):
    # round 1, vdoc's unmatched documents and drift all read one query vector
    corpus, queries, clusters = golden_setup()
    documents = {_key(corpus.text(d)) for d in range(corpus.n_docs)}
    calls = []
    for module in (pipeline, lm):
        def counting(*args, kernel=module.log_rendition_docs):
            if _key(args[-2]) not in documents:  # args[-2] is the scored text
                calls.append(_key(args[-2]))
            return kernel(*args)
        monkeypatch.setattr(module, "log_rendition_docs", counting)
    for q in queries:
        calls.clear()
        run_retrieval(q, dataclasses.replace(golden_config(method), drift=drift), corpus, clusters)
        assert calls == [_key(corpus.query_counts(q))] * scored, \
            f"{len(calls)} kernel calls on {q.query_id}"


def test_memo_entries_own_their_memory_and_hold_at_most_k():
    corpus, queries, clusters = golden_setup()
    for method in METHODS:
        for q in queries:
            run_retrieval(q, golden_config(method), corpus, clusters)
    assert corpus._rendered and clusters._credits
    assert {mu for _, mu, _ in corpus._rendered} == {MU}
    entries = chain((((doc, k), arrays) for (doc, _, k), arrays in corpus._rendered.items()),
                    clusters._credits.items())
    for (doc, k), arrays in entries:
        assert 0 <= doc < corpus.n_docs
        for a in arrays:
            # a view would keep the whole N-long ranking it was cut from alive
            assert a.base is None and len(a) <= k
            assert not a.flags.writeable


@pytest.mark.parametrize("method", ["vdoc", "mcdoc"])
def test_second_mu_on_one_corpus_matches_a_fresh_corpus(method):
    corpus, queries, _ = golden_setup()
    for q in queries:
        run_retrieval(q, golden_config(method), corpus)
    fresh, _ = golden_corpus()
    for q in queries:
        assert run_retrieval(q, golden_config(method, MU2), corpus) == \
            run_retrieval(q, golden_config(method, MU2), fresh)
    assert {mu for _, mu, _ in corpus._rendered} == {MU, MU2}


@pytest.mark.parametrize("method", METHODS)
def test_query_order_does_not_change_run_lines(method):
    corpus, queries, clusters = golden_setup()
    config = dataclasses.replace(golden_config(method), drift=DRIFTS[1])
    shared = {q.query_id: format_run_lines(q.query_id, run_retrieval(q, config, corpus, clusters),
                                           corpus, method)
              for q in reversed(queries)}
    for q in queries:
        fresh, _, fresh_clusters = golden_setup()
        ranking = run_retrieval(q, config, fresh, fresh_clusters)
        assert shared[q.query_id] == format_run_lines(q.query_id, ranking, fresh, method)


def test_memo_shared_by_threads_gives_serial_run_lines():
    corpus, queries, clusters = golden_setup()
    fresh, _, fresh_clusters = golden_setup()

    def lines(method, qs, corpus_, clusters_):
        return {q.query_id: format_run_lines(
            q.query_id, run_retrieval(q, golden_config(method), corpus_, clusters_),
            corpus_, method) for q in qs}

    serial = {m: lines(m, queries, fresh, fresh_clusters) for m in METHODS}
    # workers of every method fill the memo of one corpus and cluster index
    # at once, each in its own query order
    jobs = [(m, queries[i:] + queries[:i]) for m in METHODS for i in range(len(queries))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lines, m, qs, corpus, clusters) for m, qs in jobs]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (method, _), got in zip(jobs, results):
        assert got == serial[method]
