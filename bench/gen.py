"""Seeded synthetic TREC collections for the pqlm benchmark.

Every document draws its tokens from a Zipf(1.1) background over a fixed
vocabulary of pronounceable pseudo-words.  Topics are planted on top: each
topic owns a weighted term set, topics come in families whose term sets
overlap, and a topic's relevant documents replace a share of their tokens
with draws from its term set.  Sibling topics therefore share query terms,
which keeps mean average precision well inside (0, 1).

Queries take 2-4 terms of their topic's set; about one in ten also carries
one out-of-vocabulary term.  With ``word_forms`` the tokens get real English
suffixes and stopwords are mixed in, so that Porter stemming and a stoplist
have work to do.

The same seed always yields byte-identical files: all draws come from one
``random.Random(seed)``, whose stream is stable across Python versions.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.1
DOC_LENGTH = (40, 200)
# topic terms come from below the most frequent background ranks, so a
# query term is informative but not unique to its topic
TOPIC_RANK_FLOOR = 300
FAMILY_SIZE = 3
FAMILY_POOL = 24
TOPIC_SHARED = 16
TOPIC_OWN = 4
PLANT_SHARE = (0.02, 0.10)
OOV_SHARE = 0.1
STOPWORD_SHARE = 0.25

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
# plain forms (weighted 3x) and suffixes that Porter strips again
SUFFIXES = ("", "", "", "s", "ing", "ed", "er", "ness", "ment", "ful")
STOPWORDS = (
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from",
    "had", "has", "have", "in", "is", "it", "its", "not", "of", "on", "or",
    "that", "the", "this", "to", "was", "were", "which", "with",
)


def pseudo_word(i: int) -> str:
    """The i-th vocabulary word: three consonant-vowel syllables.

    An affine permutation decouples a word's frequency rank from its
    spelling, so lexicographic term ids are unrelated to frequency.
    """
    n = len(_SYLLABLES)
    code = (i * 7919 + 104_729) % n**3
    return _SYLLABLES[code // (n * n)] + _SYLLABLES[(code // n) % n] + _SYLLABLES[code % n]


VOCABULARY = [pseudo_word(i) for i in range(VOCAB_SIZE)]
_ZIPF_CUM = list(itertools.accumulate(
    1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(VOCAB_SIZE)))


@dataclass(frozen=True)
class Collection:
    """Paths of one generated collection and what the generator planted."""

    docs: Path
    topics: Path
    qrels: Path
    stoplist: Path | None
    n_docs: int
    n_topics: int
    n_relevant: int
    oov_queries: int


def _weighted(rng: random.Random, cum: list[float], k: int) -> list[int]:
    total = cum[-1]
    return [bisect.bisect(cum, rng.random() * total) for _ in range(k)]


def _surface(rng: random.Random, word: str, word_forms: bool) -> str:
    return word + rng.choice(SUFFIXES) if word_forms else word


def generate(out_dir: Path, seed: int, n_docs: int, n_topics: int,
             word_forms: bool = False) -> Collection:
    """Write docs.trec, topics.txt, qrels.txt (and stoplist.txt) to out_dir."""
    rng = random.Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    # topics: families share a pool, each topic adds a few terms of its own
    topics: list[tuple[list[int], list[float]]] = []
    for _family in range(-(-n_topics // FAMILY_SIZE)):
        pool = rng.sample(range(TOPIC_RANK_FLOOR, VOCAB_SIZE), FAMILY_POOL)
        for _ in range(FAMILY_SIZE):
            terms = rng.sample(pool, TOPIC_SHARED) + rng.sample(
                range(TOPIC_RANK_FLOOR, VOCAB_SIZE), TOPIC_OWN)
            terms = list(dict.fromkeys(terms))
            cum = list(itertools.accumulate(1.0 / (j + 1) for j in range(len(terms))))
            topics.append((terms, cum))
    topics = topics[:n_topics]

    # relevant documents: disjoint sets, about 60% of the corpus in total
    mean_rel = max(2, min(15, int(0.6 * n_docs / n_topics)))
    order = list(range(n_docs))
    rng.shuffle(order)
    planted: dict[int, int] = {}
    cursor = 0
    for t in range(n_topics):
        k = rng.randint(mean_rel // 2, mean_rel + mean_rel // 2)
        for d in order[cursor:cursor + k]:
            planted[d] = t
        cursor += k

    # surface forms of each topic's terms as they occur in its documents
    seen_forms: list[dict[int, list[str]]] = [{} for _ in range(n_topics)]
    doc_lines = []
    for d in range(n_docs):
        length = rng.randint(*DOC_LENGTH)
        tokens = _weighted(rng, _ZIPF_CUM, length)
        topic = planted.get(d)
        topic_positions = []
        if topic is not None:
            terms, cum = topics[topic]
            share = rng.uniform(*PLANT_SHARE)
            topic_positions = rng.sample(range(length), max(1, round(share * length)))
            for pos in topic_positions:
                tokens[pos] = terms[_weighted(rng, cum, 1)[0]]
        words = [_surface(rng, VOCABULARY[w], word_forms) for w in tokens]
        if word_forms:
            free = sorted(set(range(length)) - set(topic_positions))
            for pos in rng.sample(free, min(len(free), round(STOPWORD_SHARE * length))):
                words[pos] = rng.choice(STOPWORDS)
        for pos in topic_positions:
            seen_forms[topic].setdefault(tokens[pos], []).append(words[pos])
        lines = [" ".join(words[i:i + 12]) for i in range(0, length, 12)]
        doc_lines.append(f"<DOC>\n<DOCNO> {docno(d)} </DOCNO>\n<TEXT>\n"
                         + "\n".join(lines) + "\n</TEXT>\n</DOC>\n")

    topic_blocks, qrels_lines, oov = [], [], 0
    for t, (terms, cum) in enumerate(topics):
        # only forms the corpus really contains, so no query is all-OOV
        usable = [(w, c) for w, c in zip(terms, _increments(cum)) if w in seen_forms[t]]
        words_cum = list(itertools.accumulate(c for _, c in usable))
        k = min(rng.randint(2, 4), len(usable))
        chosen: list[int] = []
        while len(chosen) < k:
            w = usable[_weighted(rng, words_cum, 1)[0]][0]
            if w not in chosen:
                chosen.append(w)
        title = [rng.choice(seen_forms[t][w]) for w in chosen]
        if rng.random() < OOV_SHARE:
            title.insert(rng.randint(0, len(title)), f"qx{rng.randrange(10**6)}z")
            oov += 1
        qid = topic_id(t)
        topic_blocks.append(f"<top>\n<num> Number: {qid}\n<title> {' '.join(title)}\n</top>\n")
        qrels_lines.extend(f"{qid} 0 {docno(d)} 1"
                           for d in sorted(d for d, tp in planted.items() if tp == t))

    paths = Collection(out_dir / "docs.trec", out_dir / "topics.txt",
                       out_dir / "qrels.txt",
                       out_dir / "stoplist.txt" if word_forms else None,
                       n_docs, n_topics, len(planted), oov)
    paths.docs.write_text("".join(doc_lines))
    paths.topics.write_text("\n".join(topic_blocks))
    paths.qrels.write_text("\n".join(qrels_lines) + "\n")
    if paths.stoplist is not None:
        paths.stoplist.write_text("\n".join(STOPWORDS) + "\n")
    return paths


def docno(d: int) -> str:
    return f"BM-{d:06d}"


def topic_id(t: int) -> str:
    return str(101 + t)


def _increments(cum: list[float]) -> list[float]:
    return [b - a for a, b in zip([0.0] + cum[:-1], cum)]
