import hashlib
import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqlm.porter

from conftest import collection_counts, doc_counts
from pqlm import oracles
from pqlm import (
    Corpus,
    NeighborIndex,
    ParseError,
    PreprocessOptions,
    Query,
    RunConfig,
    build_corpus,
    lm_baseline,
    parse_lines,
    parse_topics,
    parse_trec,
    precompute_neighbors,
    relevance_model_rank,
    rocchio_rank,
    run_retrieval,
    tokenize,
)


class TestTokenize:
    def test_plain_segmentation(self):
        opts = PreprocessOptions(lowercase=True)
        assert tokenize("The cat, the HAT", opts) == ["the", "cat", "the", "hat"]

    def test_stoplist_and_length_filter(self):
        opts = PreprocessOptions(stoplist={"in"}, drop_length_one=True)
        assert tokenize("a cat in hats", opts) == ["cat", "hats"]

    def test_porter(self):
        opts = PreprocessOptions(stemmer="porter")
        assert tokenize("running runner", opts) == ["run", "runner"]

    def test_case_preserved_when_disabled(self):
        opts = PreprocessOptions(lowercase=False)
        assert tokenize("Cat cat", opts) == ["Cat", "cat"]

    def test_idempotent_without_stemming(self):
        opts = PreprocessOptions(stoplist={"the"}, drop_length_one=True)
        once = tokenize("The quick brown fox, a fox!", opts)
        assert tokenize(" ".join(once), opts) == once

    def test_krovetz_not_shipped(self):
        with pytest.raises(ValueError, match="krovetz"):
            PreprocessOptions(stemmer="krovetz")


class TestStemMemo:
    @pytest.fixture
    def stem_calls(self, monkeypatch):
        calls: Counter = Counter()
        stem = pqlm.porter.stem
        monkeypatch.setattr(pqlm.porter, "stem", lambda t: calls.update([t]) or stem(t))
        return calls

    def test_build_stems_each_distinct_token_once(self, stem_calls):
        docs = [("d0", "Running runners run"), ("d1", "running jumps RUNNING"),
                ("d2", "the the")]
        opts = PreprocessOptions(stemmer="porter", stoplist={"the"})
        excluded: list[str] = []
        corpus = build_corpus(docs, opts, excluded)
        assert stem_calls == Counter(["running", "runners", "run", "jumps"])
        assert [doc_counts(corpus, d) for d in range(corpus.n_docs)] == [
            {"run": 2, "runner": 1}, {"run": 2, "jump": 1}]
        assert excluded == ["d2"]

    def test_tokenize_stems_each_distinct_token_once_per_call(self, stem_calls):
        opts = PreprocessOptions(stemmer="porter")
        for _ in range(2):
            assert tokenize("cats cats cat", opts) == ["cat", "cat", "cat"]
        assert stem_calls == Counter({"cats": 2, "cat": 2})


class TestParseTrec:
    def test_single_block(self):
        assert parse_trec("<DOC><DOCNO>X1</DOCNO><TEXT>a b</TEXT></DOC>") == [
            ("X1", "a b")
        ]

    def test_empty_stream(self):
        assert parse_trec("") == []

    def test_multiple_text_sections_concatenate(self):
        data = "<DOC><DOCNO> X1 </DOCNO><TEXT>a</TEXT><TEXT>b</TEXT></DOC>"
        assert parse_trec(data) == [("X1", "a b")]

    def test_missing_docno(self):
        with pytest.raises(ParseError, match="DOC block 0"):
            parse_trec("<DOC><TEXT>a</TEXT></DOC>")

    def test_unclosed_block_reports_offset(self):
        data = "<DOC><DOCNO>A</DOCNO></DOC>  <DOC><DOCNO>B</DOCNO>"
        with pytest.raises(ParseError, match="byte offset 29"):
            parse_trec(data)

    def test_file_object(self):
        assert parse_trec(io.BytesIO(b"<DOC><DOCNO>Z</DOCNO><TEXT>x</TEXT></DOC>")) \
            == [("Z", "x")]


class TestBuildCorpus:
    def test_counting(self, opts):
        corpus = build_corpus([("A", "a a b"), ("B", "b c")], opts)
        assert collection_counts(corpus) == {"a": 2, "b": 2, "c": 1}
        assert corpus._collection_probs.tolist() == [0.4, 0.4, 0.2]
        assert corpus.collection_length == 5
        assert corpus.docnos == ["A", "B"]
        assert corpus.text(1)[0].tolist() == [1, 2] and corpus.text(1)[1].tolist() == [1, 1]

    def test_empty_document_excluded(self, opts):
        excluded = []
        corpus = build_corpus([("A", "")], opts, excluded)
        assert corpus.n_docs == 0
        assert excluded == ["A"]

    def test_duplicate_docno(self, opts):
        with pytest.raises(ParseError, match="duplicate docno 'A'"):
            build_corpus([("A", "x"), ("A", "y")], opts)

    def test_count_invariants(self, opts):
        import numpy as np

        rng = np.random.default_rng(7)
        from conftest import random_corpus

        for _ in range(20):
            corpus = random_corpus(rng)
            assert sum(collection_counts(corpus).values()) == corpus.collection_length
            for d in range(corpus.n_docs):
                assert sum(doc_counts(corpus, d).values()) == corpus.lengths()[d]
                assert corpus.lengths()[d] >= 1

    def test_term_ids_lexicographic(self, opts):
        corpus = build_corpus([("A", "zebra apple mango")], opts)
        assert corpus.vocabulary == {"apple": 0, "mango": 1, "zebra": 2}


_DOCUMENTS = st.lists(st.lists(st.sampled_from(["a", "b", "bb", "c", "d", "e", "ab", "z"]),
                                min_size=1, max_size=12), min_size=1, max_size=10)


class TestTextRows:
    """Each document's text is one row of term ids and counts; the postings
    are the rows' transpose."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_DOCUMENTS)
    def test_rows_and_postings_are_the_dict_view(self, documents):
        corpus = build_corpus([(f"D{i}", " ".join(words)) for i, words in enumerate(documents)],
                              PreprocessOptions())
        view = oracles._documents(corpus)
        for d, doc in enumerate(view):
            ids, counts = corpus.text(d)
            assert np.all(np.diff(ids) > 0)
            assert counts.sum() == corpus.lengths()[d] == len(documents[d])
            assert doc.term_counts == Counter(documents[d])
            assert not ids.flags.writeable and not counts.flags.writeable
        for term, t in corpus.vocabulary.items():
            ids, counts = corpus.postings(t)
            assert list(zip(ids.tolist(), counts.tolist())) == [
                (doc.doc_id, doc.term_counts[term]) for doc in view if term in doc.term_counts]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, opts):
        corpus = build_corpus(
            [("A", "the cat sat"), ("B", "a hat and a bat")],
            PreprocessOptions(stoplist={"the"}, stemmer="porter"),
        )
        path = tmp_path / "index.json"
        corpus.save(path)
        first = path.read_bytes()
        reloaded = Corpus.load(path)
        reloaded.save(path)
        assert path.read_bytes() == first
        assert reloaded.content_hash == corpus.content_hash
        assert reloaded.options == corpus.options
        for d in range(corpus.n_docs):
            assert doc_counts(reloaded, d) == doc_counts(corpus, d)

    def test_loaded_hash_is_the_hash_of_the_bytes_read(self, tmp_path, opts, monkeypatch):
        corpus = build_corpus([("A", "x y z"), ("B", "y y")], opts)
        canonical = tmp_path / "index.json"
        corpus.save(canonical)
        expected = corpus.content_hash

        def serialize(self):
            raise AssertionError("a load serialised the corpus")

        monkeypatch.setattr(Corpus, "serialize", serialize)
        loaded = Corpus.load(canonical)
        assert loaded.content_hash == expected == _sha256(canonical.read_bytes())
        # an index pqlm did not write: the same content in other bytes is
        # another corpus to the artifacts, which match only the bytes read
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(canonical.read_text()), indent=1))
        other = Corpus.load(pretty)
        assert other.content_hash == _sha256(pretty.read_bytes()) != expected
        precompute_neighbors(other, 1, 1.0).save(tmp_path / "nbrs.json")
        assert NeighborIndex.load(tmp_path / "nbrs.json", Corpus.load(pretty)).k_max == 1
        with pytest.raises(ValueError, match="built for a different corpus"):
            NeighborIndex.load(tmp_path / "nbrs.json", loaded)

    def test_reingest_is_deterministic(self, opts):
        docs = [("A", "x y z"), ("B", "y y")]
        assert build_corpus(docs, opts).serialize() == build_corpus(docs, opts).serialize()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ParseError, match="not a pqlm-index"):
            Corpus.load(path)


class TestOtherInputs:
    def test_lines_format(self):
        assert parse_lines("a b\nc\n") == [("L0", "a b"), ("L1", "c")]

    def test_topics(self):
        data = """
<top>
<num> Number: 401
<title> foreign minorities, Germany

<desc> Description:
something else
</top>
<top>
<num> Number: 402
<title> Topic: behavioral genetics
</top>
"""
        assert parse_topics(data) == [
            ("401", "foreign minorities, Germany"),
            ("402", "behavioral genetics"),
        ]

    def test_topic_without_num(self):
        with pytest.raises(ParseError, match="without <num>"):
            parse_topics("<top><title> x </top>")


class TestQueryCounts:
    ENTRY_POINTS = {
        "run_retrieval": lambda q, c: run_retrieval(
            q, RunConfig(method="mcdoc", alpha=1, m=2, mu=1.0), c),
        "lm_baseline": lambda q, c: lm_baseline(q, c, 1.0, 2),
        "rocchio_rank": lambda q, c: rocchio_rank(q, c, 1, 1, 0.5, 2),
        "relevance_model_rank": lambda q, c: relevance_model_rank(q, c, 1, 0.5, 0, 1.0, 2),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_one_oov_warning_per_call(self, entry, tiny_corpus, caplog):
        with caplog.at_level("WARNING", logger="pqlm"):
            self.ENTRY_POINTS[entry](Query("q", ["a", "zzz"]), tiny_corpus)
        dropped = [r.getMessage() for r in caplog.records
                   if "out-of-vocabulary terms dropped" in r.getMessage()]
        assert dropped == ["query q: 1 out-of-vocabulary terms dropped"]
