"""Reference systems and the evaluation harness.

Compares the plain language-model ranking, Rocchio over pseudo-feedback,
and the (clipped) relevance model on a toy collection, then scores all of
them with average precision / recall and tests significance.
"""

from pqlm import (
    PreprocessOptions,
    Qrels,
    build_corpus,
    evaluate_run,
    lm_baseline,
    relevance_model_rank,
    rocchio_rank,
    wilcoxon_two_sided,
)
from pqlm.corpus import Query
from pqlm.evaluation import format_report

DOCS = [
    ("sun-1", "solar panels convert sunlight into electric power"),
    ("sun-2", "the solar farm stores power in large batteries"),
    ("sun-3", "battery storage smooths solar and wind power output"),
    ("wind-1", "wind turbines generate electric power from moving air"),
    ("grid-1", "grid operators balance electric load and generation"),
    ("poem-1", "a verse about sunlight in a summer poem"),
    ("poem-2", "poets write verses about love and loss"),
    ("poem-3", "ancient poetry describes the sun and the wind"),
]
QUERIES = [("1", "solar power"), ("2", "poetry verse"), ("3", "electric grid")]
QRELS = Qrels.parse("""\
1 0 sun-1 1
1 0 sun-2 1
1 0 sun-3 1
2 0 poem-1 1
2 0 poem-2 1
2 0 poem-3 1
3 0 grid-1 1
3 0 wind-1 1
""")

corpus = build_corpus(DOCS, PreprocessOptions())
docno = lambda d: corpus.docnos[int(d)]

systems = {
    "baseline": lambda q: lm_baseline(q, corpus, 50.0, 8),
    "rocchio": lambda q: rocchio_rank(q, corpus, k1=2, t=2, gamma=0.5, n=8),
    "rel-model": lambda q: relevance_model_rank(q, corpus, k1=2, lambda_r=0.5,
                                                clip_k=6, mu=50.0, n=8),
}

reports = {}
for name, system in systems.items():
    run = {}
    for qid, text in QUERIES:
        query = corpus.preprocess_query(qid, text)
        run[qid] = [docno(d) for d in system(query).doc_ids]
    reports[name] = evaluate_run(run, QRELS, n=8)

print(format_report(reports))
print()
for name, rep in reports.items():
    per_query = "  ".join(f"q{q}={ap:.3f}" for q, ap in rep.per_query_ap.items())
    print(f"{name:9s} per-query AP: {per_query}")

a = [reports["baseline"].per_query_ap[q] for q, _ in QUERIES]
b = [reports["rocchio"].per_query_ap[q] for q, _ in QUERIES]
res = wilcoxon_two_sided(a, b)
print("\nWilcoxon baseline vs rocchio:",
      "insufficient data (needs 5+ differing queries)" if res.insufficient
      else f"p={res.p_value:.4f}")
