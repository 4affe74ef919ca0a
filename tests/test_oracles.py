import numpy as np
import pytest

import oracles
from conftest import random_corpus
from pqlm import PreprocessOptions, build_corpus
from pqlm.lm import QUERY_ID


class TestScaleLimits:
    def test_too_many_documents(self):
        docs = [(f"D{i}", "a b") for i in range(65)]
        corpus = build_corpus(docs, PreprocessOptions())
        with pytest.raises(ValueError, match="desk-scale only"):
            oracles.oracle_scores("mcdoc", [0], [1.0],
                                  {"alpha": 1, "m": 2, "mu": 1.0}, corpus)

    def test_too_large_vocabulary(self):
        text = " ".join(f"w{i}" for i in range(40))
        corpus = build_corpus([("D0", text)], PreprocessOptions())
        with pytest.raises(ValueError, match="desk-scale only"):
            oracles.lm_baseline_scores({"w0": 1}, corpus, 1.0)

    def test_unknown_method(self, tiny_corpus):
        with pytest.raises(ValueError, match="unknown method"):
            oracles.oracle_scores("pagerank", [0], [1.0], {}, tiny_corpus)


class TestDegenerateAgreement:
    def test_mcdoc_full_spread_equals_baseline_oracle(self):
        rng = np.random.default_rng(283)
        corpus = random_corpus(rng, n_docs=7)
        q = {"a": 1}
        base = oracles.lm_baseline_scores(q, corpus, 2.0)
        deg = oracles.oracle_scores(
            "mcdoc", [QUERY_ID], [1.0],
            {"alpha": 7, "m": 8, "mu": 2.0}, corpus, query_counts=q)
        assert [d for d, _ in deg] == [d for d, _ in base]

    def test_weight_zero_padding_is_inert(self):
        rng = np.random.default_rng(293)
        corpus = random_corpus(rng, n_docs=6)
        plain = oracles.mcdoc_scores([0, 2], [0.9, 0.5], 2, 3, corpus, 1.0, None)
        padded = oracles.mcdoc_scores([0, 2, 4], [0.9, 0.5, 0.0], 2, 3,
                                      corpus, 1.0, None)
        assert plain == padded


class TestWilcoxonEnumeration:
    def test_small_case_by_hand(self):
        # diffs all positive, ranks 1..5: only one assignment reaches W=15
        assert oracles.wilcoxon_exact_p([1, 2, 3, 4, 5]) == pytest.approx(2 / 32)

    def test_enumeration_limit(self):
        with pytest.raises(ValueError, match="n <= 20"):
            oracles.wilcoxon_exact_p(list(range(1, 23)))
