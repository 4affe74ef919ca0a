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
        tokens = list(map(str.lower, tokens))
    if opts.stoplist:
        tokens = [t for t in tokens if t not in opts.stoplist]
    if opts.drop_length_one:
        tokens = [t for t in tokens if len(t) > 1]
    if opts.stemmer == "porter":
        for t in set(tokens).difference(stems):
            stems[t] = porter.stem(t)
        tokens = list(map(stems.__getitem__, tokens))
    return tokens


@dataclass
class Query:
    query_id: str
    terms: list[str]


class Corpus:
    """Indexed document collection with the statistics every language model
    reads, each built once and read-only.

    Construction keeps each document's text once, with no dict: a doc-major
    CSR store whose row d is :meth:`text` d, int32 term ids (lexicographic,
    so ascending ids are sorted terms) and int64 counts, 12 bytes a posting
    plus N + 1 int64 offsets.  The rows' sums are the document lengths, and
    a ``bincount`` of them the collection probability of each term id.  The
    first :meth:`postings` or :meth:`doc_freqs` call builds the rows' stable
    transpose under a lock: int32 doc ids and float64 counts, another 12
    bytes a posting, and each term id's document frequency.
    """

    def __init__(self, docnos: list[str], terms: tuple[str, ...],
                 rows: tuple[np.ndarray, np.ndarray, np.ndarray], options: PreprocessOptions):
        """`terms` sorted, and `rows` (indptr, int32 term ids, int64
        counts): row d, ``ids[indptr[d]:indptr[d + 1]]``, holds ascending
        ids of `terms` with positive counts."""
        self.docnos, self.options = docnos, options
        # lexicographic term ids: deterministic and reload-stable
        self._terms = terms
        self.vocabulary = {t: i for i, t in enumerate(terms)}
        n, v = len(docnos), len(terms)
        indptr, ids, counts = self._rows = _frozen(*rows)
        self.collection_length = int(counts.sum())
        self._lengths = np.bincount(np.repeat(np.arange(n), np.diff(indptr)), weights=counts,
                                    minlength=n)
        self._collection_probs = (np.bincount(ids, weights=counts, minlength=v)
                                  / self.collection_length)
        _frozen(self._lengths, self._collection_probs)
        self._csr, self._csr_lock = None, threading.Lock()
        self._postings: dict[int, tuple] = {}
        # mu -> term id -> (renderer ids, background, read-only per-posting
        # deviations), filled by lm.log_rendition
        self._deviations: dict[float, dict] = {}
        # (doc id, mu, k) -> top-k renderers of that document's text, filled
        # by the scorers; lives as long as the corpus
        self._rendered: dict[tuple, tuple] = {}
        self._hash: str | None = None

    def __len__(self) -> int:
        return len(self.docnos)

    @property
    def n_docs(self) -> int:
        return len(self.docnos)

    def collection_prob(self, term: str) -> float:
        """Collection maximum-likelihood probability; 0 for unknown terms."""
        t = self.vocabulary.get(term)
        return 0.0 if t is None else float(self._collection_probs[t])

    def lengths(self) -> np.ndarray:
        """Document lengths by doc id, float64, read-only."""
        return self._lengths

    def text(self, doc_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Document `doc_id` as a text: read-only views of its row.  An id
        outside 0..N-1 is a ValueError naming it, not a wrapped row."""
        indptr, ids, counts = self._rows
        if not 0 <= doc_id < self.n_docs:
            raise ValueError(f"document id {doc_id} outside 0..{self.n_docs - 1}")
        row = slice(indptr[doc_id], indptr[doc_id + 1])
        return ids[row], counts[row]

    def postings(self, t: int):
        """(doc_ids, counts) of term id `t`: O(df) views into the CSR postings.
        The one vocabulary check: an unknown id is a ValueError, once per id."""
        hit = self._postings.get(t)
        if hit is None:
            if not 0 <= t < len(self._terms):
                raise ValueError(f"term id {t} is not in the corpus vocabulary")
            indptr, ids, counts, _ = self._term_index()
            span = slice(indptr[t], indptr[t + 1])
            hit = self._postings[t] = (ids[span], counts[span])
        return hit

    def doc_freqs(self) -> np.ndarray:
        """Number of documents holding each term id, int64, read-only; built
        with the postings."""
        return self._term_index()[3]

    def _term_index(self) -> tuple[np.ndarray, ...]:
        """:meth:`_build_postings`, built once, by whichever thread asks first."""
        with self._csr_lock:
            if self._csr is None:
                self._csr = self._build_postings()
        return self._csr

    def _build_postings(self) -> tuple[np.ndarray, ...]:
        """(indptr, ids, counts, df), read-only: term id t has doc ids
        ``ids[indptr[t]:indptr[t + 1]]``, ascending, their counts, and
        ``df[t]`` of them."""
        row_ptr, terms, counts = self._rows
        order = np.argsort(terms, kind="stable")
        # a row holds each of its term ids once
        df = np.bincount(terms, minlength=len(self._terms))
        indptr = np.zeros(len(self._terms) + 1, dtype=np.int64)
        np.cumsum(df, out=indptr[1:])
        ids = np.repeat(np.arange(self.n_docs, dtype=np.int32), np.diff(row_ptr))[order]
        return _frozen(indptr, ids, counts[order].astype(float), df)

    def preprocess_query(self, query_id: str, text: str) -> Query:
        return Query(query_id, tokenize(text, self.options))

    def query_counts(self, query: Query) -> tuple[np.ndarray, np.ndarray]:
        """The query's vocabulary terms as a text: (term ids ascending,
        counts).  Out-of-vocabulary terms are dropped with one warning; a
        query left without terms is a ValueError."""
        ids = [self.vocabulary[t] for t in query.terms if t in self.vocabulary]
        if len(ids) < len(query.terms):
            log.warning("query %s: %d out-of-vocabulary terms dropped",
                        query.query_id, len(query.terms) - len(ids))
        if not ids:
            raise ValueError(f"query {query.query_id} is empty after preprocessing")
        return np.unique(np.array(ids, dtype=np.int32), return_counts=True)

    # -- persistence ----------------------------------------------------

    def serialize(self) -> bytes:
        indptr, ids, counts = (a.tolist() for a in self._rows)
        names = list(map(self._terms.__getitem__, ids))
        return canonical_json({
            "format": INDEX_FORMAT,
            "options": self.options.to_dict(),
            "documents": [{"docno": docno, "counts": dict(zip(names[a:b], counts[a:b]))}
                          for docno, a, b in zip(self.docnos, indptr, indptr[1:])],
        })

    @property
    def content_hash(self) -> str:
        if self._hash is None:
            self._hash = hashlib.sha256(self.serialize()).hexdigest()
        return self._hash

    def save(self, path) -> None:
        atomic_write(path, self.serialize())

    @classmethod
    def load(cls, path) -> "Corpus":
        """The index at `path`.  Its content hash is that of the bytes read,
        which for an index pqlm wrote (canonical JSON) is the hash of
        :meth:`serialize`, so no reload serialises the corpus again.  For a
        file pqlm did not write, artifacts match only those exact bytes."""
        payload, digest = read_payload(path, INDEX_FORMAT)
        try:
            options = PreprocessOptions.from_dict(payload["options"])
            entries = [(e["docno"], e["counts"]) for e in payload["documents"]]
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed index payload: {exc}") from exc
        if not entries:  # `pqlm index` writes none: nothing to score against
            raise ParseError(f"{path}: the index has no documents")
        # the rows trust their input: hold a loaded index to what ingestion
        # guarantees
        seen, collection_length = set(), 0
        for docno, counts in entries:
            if not _is_docno(docno) or docno in seen:
                raise ParseError(f"{path}: docno {docno!r} is duplicated, "
                                 "empty or not a string without whitespace")
            seen.add(docno)
            valid = isinstance(counts, dict) and bool(counts) and all(
                type(c) is int and c > 0 for c in counts.values())
            collection_length += sum(counts.values()) if valid else 0
            # counts enter float64 arrays, which hold integers below 2**53
            # exactly; every count and every sum of counts (a document's or a
            # cluster's) is at most the collection length
            if not valid or collection_length >= 2**53:
                raise ParseError(f"{path}: document {docno!r} needs positive integer counts "
                                 "that keep the collection length below 2**53")
        corpus = cls([d for d, _ in entries], *_dict_rows([c for _, c in entries]), options)
        corpus._hash = digest
        return corpus


def _dict_rows(tables: list[dict[str, int]]) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """(sorted terms, rows) of term -> count tables, a key sort per table:
    the tables of a canonical index file are sorted already."""
    terms = tuple(sorted(set().union(*tables)))
    vocabulary = {t: i for i, t in enumerate(terms)}
    indptr = np.zeros(len(tables) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, tables), np.int64, len(tables)), out=indptr[1:])
    # a row in sorted-term order is in ascending term-id order
    keys = [sorted(t) for t in tables]
    ids = np.fromiter(map(vocabulary.__getitem__, chain.from_iterable(keys)), np.int32,
                      indptr[-1])
    values = chain.from_iterable(map(t.__getitem__, k) for t, k in zip(tables, keys))
    return terms, (indptr, ids, np.fromiter(values, np.int64, len(ids)))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays made read-only, as memo entries shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def split_at(a: np.ndarray, bounds: list[int]) -> list[np.ndarray]:
    """Views ``a[bounds[i]:bounds[i + 1]]``: ``np.split`` without its
    per-piece overhead."""
    return [a[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def left_sum(values) -> float:
    """The float sum of `values` added strictly left to right from 0.0, as a
    loop of ``+=`` adds them, on every Python version: builtin ``sum``
    compensates float sums from Python 3.12 on, and ``np.sum`` adds
    pairwise.  ``+ 0.0`` is the 0.0 start: it only turns a -0.0 into 0.0."""
    values = np.asarray(values, dtype=float)
    return float(np.add.accumulate(values)[-1]) + 0.0 if len(values) else 0.0


def canonical_json(payload) -> bytes:
    """Deterministic byte encoding used for hashing and persistence."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def read_payload(path, fmt: str) -> tuple[dict, str]:
    """The JSON object in an artifact file, which must declare format `fmt`,
    and the sha256 of the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    payload = json.loads(data)
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ParseError(f"{path}: not a {fmt} file")
    return payload, hashlib.sha256(data).hexdigest()


def save_doc_id_rows(path, fmt: str, owner, width_key: str, rows_key: str, noun: str,
                     n_docs: int) -> None:
    """Write `owner`, a neighbour or cluster index over `n_docs` documents,
    as a `fmt` file: its corpus hash, mu, row length `width_key` and doc-id
    rows `rows_key`, once :func:`check_doc_id_rows` has passed them."""
    width, rows = getattr(owner, width_key), getattr(owner, rows_key)
    check_doc_id_rows(rows, width, n_docs, noun)
    atomic_write(path, canonical_json({
        "format": fmt, "corpus_hash": owner.corpus_hash, "mu": owner.mu,
        width_key: width, rows_key: [list(row) for row in rows]}))


def check_doc_id_rows(rows, width, n_docs: int, noun: str) -> None:
    """Rows a :func:`save_doc_id_rows` file may hold: a positive integer
    row length, and one row (a `noun`) per document of that many distinct
    int ids in 0..n_docs-1.  A ValueError names the first fault."""
    if type(width) is not int or width < 1:
        raise ValueError(f"{noun} length is not a positive integer")
    if len(rows) != n_docs:
        raise ValueError(f"{len(rows)} {noun}s for {n_docs} documents")
    for i, row in enumerate(rows):
        if len(row) != width or len(set(row)) != width or not all(
                type(d) is int and 0 <= d < n_docs for d in row):
            raise ValueError(f"{noun} {i} is not {width} distinct ids in 0..{n_docs - 1}")


def load_doc_id_rows(path, fmt: str, corpus: Corpus, width_key: str, rows_key: str,
                     noun: str) -> tuple:
    """(mu, row length, rows) of a :func:`save_doc_id_rows` file, held to
    what it writes for `corpus`: a positive finite mu and rows that pass
    :func:`check_doc_id_rows`.  Errors name the file."""
    payload = read_payload(path, fmt)[0]
    try:
        mu, width, rows = payload["mu"], payload[width_key], payload[rows_key]
        if payload["corpus_hash"] != corpus.content_hash:
            raise ValueError(f"{path}: {noun}s were built for a different corpus")
        if type(mu) not in (int, float) or not 0 < mu <= sys.float_info.max:
            raise ParseError(f"{path}: mu is not a positive finite number")
        try:
            check_doc_id_rows(rows, width, corpus.n_docs, noun)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed {fmt} payload: {exc}") from exc
    return mu, width, rows


def _is_docno(docno) -> bool:
    """A docno fills one column of a whitespace-separated run row."""
    return isinstance(docno, str) and docno.split() == [docno]


def build_corpus(
    docs: list[tuple[str, str]],
    opts: PreprocessOptions,
    excluded: list[str] | None = None,
) -> Corpus:
    """Index (docno, text) pairs; doc ids follow input order.

    Documents that tokenize to nothing are excluded, since a length-0
    document has no maximum-likelihood model.  Their docnos are appended to
    `excluded` when it is given, and logged as warnings only when it is not,
    so a caller that reports the list names each of them once.
    """
    seen: set[str] = set()
    docnos: list[str] = []
    stems: dict[str, str] = {}
    first_seen = _FirstSeen()
    ids, counts = [], []
    for docno, text in docs:
        if not _is_docno(docno):
            raise ParseError(f"docno {docno!r} is empty or contains whitespace")
        if docno in seen:
            raise ParseError(f"duplicate docno {docno!r}")
        seen.add(docno)
        tokens = _tokenize(text, opts, stems)
        if not tokens:
            if excluded is None:
                log.warning("document %s is empty after preprocessing; excluded", docno)
            else:
                excluded.append(docno)
            continue
        row = np.fromiter(map(first_seen.__getitem__, tokens), np.int32, len(tokens))
        row_ids, row_counts = np.unique(row, return_counts=True)
        docnos.append(docno)
        ids.append(row_ids)
        counts.append(row_counts)
    # one remap of the first-seen ids to lexicographic ones, then one sort of
    # all rows by (document, term id)
    terms = tuple(sorted(first_seen))
    lexicographic = np.empty(len(terms), dtype=np.int32)
    lexicographic[np.fromiter(map(first_seen.__getitem__, terms), np.int64, len(terms))] = \
        np.arange(len(terms))
    indptr = np.zeros(len(docnos) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)), out=indptr[1:])
    none = [np.zeros(0, dtype=np.int64)]
    flat = lexicographic[np.concatenate(ids or none)]
    order = np.argsort(np.repeat(np.arange(len(docnos)), np.diff(indptr)) * len(terms) + flat)
    rows = (indptr, flat[order], np.concatenate(counts or none)[order])
    return Corpus(docnos, terms, rows, opts)


class _FirstSeen(dict):
    """Token -> id in first-seen order: a missing token gets the next id."""

    def __missing__(self, token: str) -> int:
        self[token] = i = len(self)
        return i


# -- input file formats -------------------------------------------------

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
    start = data.find(b"<DOC>")
    while start >= 0:
        end = data.find(b"</DOC>", start + 5)
        if end < 0:
            raise ParseError(f"unclosed <DOC> block at byte offset {start}")
        block = data[start + 5 : end].decode("utf-8", "replace")
        docno_m = _DOCNO_RE.search(block)
        if docno_m is None:
            raise ParseError(f"missing <DOCNO> in DOC block {len(out)}")
        out.append((docno_m.group(1).strip(),
                    " ".join(t.strip() for t in _TEXT_RE.findall(block))))
        start = data.find(b"<DOC>", end + 6)
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
