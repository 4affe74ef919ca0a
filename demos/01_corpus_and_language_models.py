"""Build a tiny corpus and look at its language models.

Walks from raw text to smoothed term probabilities and rendition scores:
the probability-like quantity that says how well a document's language
model accounts for a piece of text.
"""

import math

from pqlm import PreprocessOptions, build_corpus, tokenize
from pqlm.lm import log_rendition_docs, ranked_order

DOCS = [
    ("sun-1", "solar panels convert sunlight into electric power"),
    ("sun-2", "the solar farm stores power in large batteries"),
    ("wind-1", "wind turbines generate electric power from moving air"),
    ("poem-1", "a verse about sunlight in a summer poem"),
    ("poem-2", "poets write verses about love and loss"),
]

opts = PreprocessOptions(lowercase=True, stoplist={"the", "a", "in", "and"})
print("tokenize('Solar power, the SUN!') ->",
      tokenize("Solar power, the SUN!", opts))

corpus = build_corpus(DOCS, opts)
print(f"\n{corpus.n_docs} documents, {len(corpus.vocabulary)} distinct terms, "
      f"{corpus.collection_length} tokens")
print("collection probability of 'power':", corpus.collection_prob("power"))

# a document's text is one row: its term ids, ascending, and their counts;
# term ids are lexicographic
terms = sorted(corpus.vocabulary)
ids, counts = corpus.text(0)
print(f"\ntext of {corpus.docnos[0]}:",
      {terms[t]: c for t, c in zip(ids.tolist(), counts.tolist())})
power = dict(zip(ids.tolist(), counts.tolist())).get(corpus.vocabulary["power"], 0)
print(f"unsmoothed model of {corpus.docnos[0]}: p('power') =", power / corpus.lengths()[0])


def text_of(words: str):
    """A query string as a text: (term ids ascending, counts)."""
    return corpus.query_counts(corpus.preprocess_query("demo", words))


# One kernel scores a text against every document at once.  A one-term
# text's rendition is that term's smoothed probability; mu must be > 0.
print("\nDirichlet smoothing pulls unseen terms up from zero:")
for mu in (0.0, 10.0, 1000.0):
    try:
        p = math.exp(log_rendition_docs(corpus, text_of("turbines"), mu)[0])
    except ValueError as exc:
        p = f"error: {exc}"
    print(f"  mu={mu:>6}: p('turbines' | {corpus.docnos[0]}) = {p}")

scores = [math.exp(s) for s in log_rendition_docs(corpus, text_of("solar power"), 10.0)]
print("\nrendition scores of the text 'solar power' under each document:")
for d, score in enumerate(scores):
    print(f"  {corpus.docnos[d]:7s} {score:.6f}")

print("\ntop-3 renderers of 'solar power':",
      [corpus.docnos[i] for i in ranked_order(scores)[:3]])
