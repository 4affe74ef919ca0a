"""Corpus ingestion: TREC parsing, tokenization, and index construction.

The built :class:`Corpus` is immutable after construction and is the shared
substrate for every language-model computation.  Term ids are assigned
lexicographically so that tie-breaking by "lower term id" survives a
save/load round trip.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import porter
from .storage import atomic_write

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")

INDEX_FORMAT = "pqlm-index-v1"


class ParseError(ValueError):
    """Malformed input data (TREC SGML, topics, qrels, run files)."""


@dataclass(frozen=True)
class PreprocessOptions:
    lowercase: bool = True
    stemmer: str = "none"  # none | porter
    stoplist: frozenset[str] = frozenset()
    drop_length_one: bool = False

    def __post_init__(self):
        if self.stemmer not in ("none", "porter"):
            raise ValueError(f"unknown stemmer {self.stemmer!r}")
        object.__setattr__(self, "stoplist", frozenset(self.stoplist))

    def to_dict(self) -> dict:
        return {
            "lowercase": self.lowercase,
            "stemmer": self.stemmer,
            "stoplist": sorted(self.stoplist),
            "drop_length_one": self.drop_length_one,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessOptions":
        """The options of a loaded index: ValueError unless they have the
        types that `to_dict` writes and a known stemmer."""
        for key in ("lowercase", "drop_length_one"):
            if type(d[key]) is not bool:
                raise ValueError(f"options {key} {d[key]!r} is not a boolean")
        stoplist = d["stoplist"]
        if not (isinstance(stoplist, list) and all(isinstance(w, str) for w in stoplist)):
            raise ValueError("options stoplist is not a list of strings")
        return cls(
            lowercase=d["lowercase"],
            stemmer=d["stemmer"],
            stoplist=frozenset(stoplist),
            drop_length_one=d["drop_length_one"],
        )


def tokenize(text: str, opts: PreprocessOptions) -> list[str]:
    """Split text into maximal alphanumeric runs and apply the option chain.

    Order: segment, lowercase, stoplist filter, length-one filter, stem.
    Each distinct token is stemmed once per call.
    """
    return _tokenize(text, opts, {})


def _tokenize(text: str, opts: PreprocessOptions, stems: dict[str, str]) -> list[str]:
    """:func:`tokenize` with a caller-owned token -> stem memo, so that one
    build stems each distinct token once."""
    tokens = _TOKEN_RE.findall(text)
    if opts.lowercase:
        tokens = [t.lower() for t in tokens]
    if opts.stoplist:
        tokens = [t for t in tokens if t not in opts.stoplist]
    if opts.drop_length_one:
        tokens = [t for t in tokens if len(t) > 1]
    if opts.stemmer == "porter":
        for t in set(tokens).difference(stems):
            stems[t] = porter.stem(t)
        tokens = [stems[t] for t in tokens]
    return tokens


@dataclass
class Document:
    doc_id: int
    docno: str
    term_counts: dict[str, int]
    length: int


@dataclass
class Query:
    query_id: str
    terms: list[str]


class Corpus:
    """Indexed document collection with the statistics every language model
    reads, each built once and read-only.  Construction makes the collection
    counts and length (O(P) over the P postings), the lexicographic
    vocabulary (O(V log V) for V terms), the document lengths (N float64s),
    each term id's collection probability (V float64s) and the id -> term
    tuple.  The first :meth:`postings` call builds the CSR postings in one
    pass, under a lock: int32 doc ids and float64 counts, 12 bytes a posting.
    """

    def __init__(self, documents: list[Document], options: PreprocessOptions):
        self.documents = documents
        self.options = options
        counts: Counter = Counter()
        for doc in documents:
            counts.update(doc.term_counts)
        self.collection_counts: dict[str, int] = dict(counts)
        self.collection_length = sum(doc.length for doc in documents)
        # lexicographic term ids: deterministic and reload-stable
        self.vocabulary = {t: i for i, t in enumerate(sorted(self.collection_counts))}
        self._terms = tuple(self.vocabulary)
        self._lengths = np.array([d.length for d in documents], dtype=float)
        self._collection_probs = (np.array([counts[t] for t in self._terms], dtype=float)
                                  / self.collection_length)
        self._lengths.flags.writeable = self._collection_probs.flags.writeable = False
        self._csr, self._csr_lock = None, threading.Lock()
        self._postings: dict[str, tuple] = {}
        # mu -> term -> (background, read-only per-posting deviations),
        # filled by lm.log_rendition
        self._deviations: dict[float, dict] = {}
        # (doc id, mu, k) -> top-k renderers of that document's text, filled
        # by the scorers; lives as long as the corpus
        self._rendered: dict[tuple, tuple] = {}
        self._hash: str | None = None

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    def collection_prob(self, term: str) -> float:
        """Collection maximum-likelihood probability; 0 for unknown terms."""
        return self.collection_counts.get(term, 0) / self.collection_length

    def lengths(self) -> np.ndarray:
        """Document lengths by doc id, float64, read-only."""
        return self._lengths

    def postings(self, term: str):
        """(doc_ids, counts) of one term: O(df) views into the CSR postings;
        empty when the term is unknown."""
        hit = self._postings.get(term)
        if hit is None:
            with self._csr_lock:
                if self._csr is None:
                    self._csr = self._build_postings()
            indptr, ids, counts = self._csr
            t = self.vocabulary.get(term)
            span = slice(0, 0) if t is None else slice(indptr[t], indptr[t + 1])
            hit = self._postings[term] = (ids[span], counts[span])
        return hit

    def _build_postings(self) -> tuple[np.ndarray, ...]:
        """(indptr, ids, counts): term id t has doc ids
        ``ids[indptr[t]:indptr[t + 1]]``, ascending, and their counts."""
        tables = [d.term_counts for d in self.documents]
        sizes = np.fromiter(map(len, tables), np.int64, len(tables))
        terms = np.fromiter(map(self.vocabulary.__getitem__, chain.from_iterable(tables)),
                            np.int32, sizes.sum())
        counts = np.fromiter(chain.from_iterable(t.values() for t in tables),
                             np.float64, len(terms))
        order = np.argsort(terms, kind="stable")
        indptr = np.zeros(len(self._terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(terms, minlength=len(self._terms)), out=indptr[1:])
        ids = np.repeat(np.arange(len(tables), dtype=np.int32), sizes)[order]
        return indptr, ids, counts[order]

    def preprocess_query(self, query_id: str, text: str) -> Query:
        return Query(query_id, tokenize(text, self.options))

    def query_counts(self, query: Query) -> dict[str, int]:
        """Term counts of the query's vocabulary terms.  Out-of-vocabulary
        terms are dropped with one warning; a query left without terms is a
        ValueError."""
        terms = [t for t in query.terms if t in self.collection_counts]
        if len(terms) < len(query.terms):
            log.warning("query %s: %d out-of-vocabulary terms dropped",
                        query.query_id, len(query.terms) - len(terms))
        if not terms:
            raise ValueError(f"query {query.query_id} is empty after preprocessing")
        return dict(Counter(terms))

    # -- persistence ----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": INDEX_FORMAT,
            "options": self.options.to_dict(),
            "documents": [
                {"docno": d.docno, "counts": dict(sorted(d.term_counts.items()))}
                for d in self.documents
            ],
        }

    def serialize(self) -> bytes:
        return canonical_json(self.to_payload())

    @property
    def content_hash(self) -> str:
        if self._hash is None:
            self._hash = hashlib.sha256(self.serialize()).hexdigest()
        return self._hash

    def save(self, path) -> None:
        atomic_write(path, self.serialize())

    @classmethod
    def load(cls, path) -> "Corpus":
        payload = read_payload(path, INDEX_FORMAT)
        try:
            options = PreprocessOptions.from_dict(payload["options"])
            entries = [(e["docno"], dict(e["counts"].items())) for e in payload["documents"]]
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed index payload: {exc}") from exc
        # the term index trusts its input: hold a loaded index to what
        # ingestion guarantees; a document's length is the sum of its counts
        documents: list[Document] = []
        seen = set()
        collection_length = 0
        for docno, counts in entries:
            if not _is_docno(docno) or docno in seen:
                raise ParseError(f"{path}: docno {docno!r} is duplicated, "
                                 "empty or not a string without whitespace")
            seen.add(docno)
            valid = bool(counts) and all(type(c) is int and c > 0 for c in counts.values())
            length = sum(counts.values()) if valid else 0
            collection_length += length
            # counts enter float64 arrays, which hold integers below 2**53
            # exactly; every count and every sum of counts (a document's or a
            # cluster's) is at most the collection length
            if not valid or collection_length >= 2**53:
                raise ParseError(f"{path}: document {docno!r} needs positive integer counts "
                                 "that keep the collection length below 2**53")
            documents.append(Document(len(documents), docno, counts, length))
        return cls(documents, options)


def canonical_json(payload) -> bytes:
    """Deterministic byte encoding used for hashing and persistence."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def read_payload(path, fmt: str) -> dict:
    """The JSON object in an artifact file, which must declare format `fmt`."""
    with open(path, "rb") as fh:
        payload = json.loads(fh.read())
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ParseError(f"{path}: not a {fmt} file")
    return payload


def check_mu(path, mu) -> None:
    """A smoothing parameter read from an artifact: a positive finite number."""
    if type(mu) not in (int, float) or not 0 < mu <= sys.float_info.max:
        raise ParseError(f"{path}: mu is not a positive finite number")


def check_doc_id_rows(path, rows, n_docs: int, width: int, what: str) -> None:
    """One row per document, each `width` distinct doc ids in 0..n_docs-1."""
    if type(width) is not int or width < 1:
        raise ParseError(f"{path}: {what} length is not a positive integer")
    if len(rows) != n_docs:
        raise ParseError(f"{path}: {len(rows)} {what}s for {n_docs} documents")
    for i, row in enumerate(rows):
        if len(row) != width or len(set(row)) != width or not all(
                type(d) is int and 0 <= d < n_docs for d in row):
            raise ParseError(f"{path}: {what} {i} is not {width} distinct ids in 0..{n_docs - 1}")


def _is_docno(docno) -> bool:
    """A docno fills one column of a whitespace-separated run row."""
    return isinstance(docno, str) and docno.split() == [docno]


def build_corpus(
    docs: list[tuple[str, str]],
    opts: PreprocessOptions,
    excluded: list[str] | None = None,
) -> Corpus:
    """Index (docno, text) pairs; doc ids follow input order.

    Documents that tokenize to nothing are excluded (their docnos are
    appended to `excluded` when given) since a length-0 document has no
    maximum-likelihood model.
    """
    seen: set[str] = set()
    documents: list[Document] = []
    stems: dict[str, str] = {}
    for docno, text in docs:
        if not _is_docno(docno):
            raise ParseError(f"docno {docno!r} is empty or contains whitespace")
        if docno in seen:
            raise ParseError(f"duplicate docno {docno!r}")
        seen.add(docno)
        tokens = _tokenize(text, opts, stems)
        if not tokens:
            log.warning("document %s is empty after preprocessing; excluded", docno)
            if excluded is not None:
                excluded.append(docno)
            continue
        counts = dict(Counter(tokens))
        documents.append(Document(len(documents), docno, counts, len(tokens)))
    return Corpus(documents, opts)


# -- input file formats -------------------------------------------------

_DOC_OPEN = re.compile(rb"<DOC>")
_DOC_CLOSE = re.compile(rb"</DOC>")
_DOCNO_RE = re.compile(r"<DOCNO>(.*?)</DOCNO>", re.S)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.S)


def read_text(data, errors: str = "replace") -> str:
    """`data` as text: a str, UTF-8 bytes or a file-like object."""
    if hasattr(data, "read"):
        data = data.read()
    return data.decode("utf-8", errors) if isinstance(data, bytes) else data


def parse_trec(data) -> list[tuple[str, str]]:
    """Parse TREC SGML <DOC> blocks into (docno, text) pairs.

    `data` may be str, bytes, or a file-like object.  The text of a
    document is the concatenation of its <TEXT> sections.
    """
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "replace")
    out: list[tuple[str, str]] = []
    pos = 0
    block_index = 0
    while True:
        m = _DOC_OPEN.search(data, pos)
        if m is None:
            break
        end = _DOC_CLOSE.search(data, m.end())
        if end is None:
            raise ParseError(f"unclosed <DOC> block at byte offset {m.start()}")
        block = data[m.end() : end.start()].decode("utf-8", "replace")
        docno_m = _DOCNO_RE.search(block)
        if docno_m is None:
            raise ParseError(f"missing <DOCNO> in DOC block {block_index}")
        docno = docno_m.group(1).strip()
        text = " ".join(t.strip() for t in _TEXT_RE.findall(block))
        out.append((docno, text))
        pos = end.end()
        block_index += 1
    return out


def parse_lines(data) -> list[tuple[str, str]]:
    """One document per line; line k (0-based) becomes docno "L<k>"."""
    return [(f"L{k}", line) for k, line in enumerate(read_text(data).splitlines())]


_TOP_RE = re.compile(r"<top>(.*?)</top>", re.S | re.I)
_NUM_RE = re.compile(r"<num>\s*(?:Number:)?\s*([^<\s]+)", re.I)
_TITLE_RE = re.compile(r"<title>\s*(?:Topic:)?\s*(.*?)\s*(?=<|\Z)", re.S | re.I)


def parse_topics(data) -> list[tuple[str, str]]:
    """Parse TREC topic files into (query_id, title) pairs."""
    out = {}
    for block in _TOP_RE.findall(read_text(data)):
        num_m = _NUM_RE.search(block)
        if num_m is None:
            raise ParseError("topic block without <num>")
        qid = num_m.group(1).strip()
        title_m = _TITLE_RE.search(block)
        if title_m is None:
            raise ParseError(f"topic {qid} has no <title>")
        # one qid is one ranked block of the run file
        if qid in out:
            raise ParseError(f"duplicate topic number {qid!r}")
        out[qid] = " ".join(title_m.group(1).split())
    return list(out.items())
