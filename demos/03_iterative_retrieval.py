"""The iterative retrieval loop, end to end.

Round 1 retrieves the best renderers of the query; each later round
treats the previous round's documents as weighted pseudo-queries.  Drift
techniques re-anchor the result to the original query so that iteration
deepens recall without wandering off topic.
"""

from pqlm import (
    DriftTechnique,
    PreprocessOptions,
    RunConfig,
    build_clusters,
    build_corpus,
    precompute_neighbors,
    run_retrieval,
)

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

corpus = build_corpus(DOCS, PreprocessOptions())
name = lambda d: corpus.docnos[d]
query = corpus.preprocess_query("demo", "solar power")


def show(label, ranking):
    row = ", ".join(f"{name(d)}:{s:.4f}" for d, s in ranking.entries[:5])
    print(f"  {label:28s} {row}")


print("query:", query.terms, "\n")

for method, extra in (
    ("vdoc", {}),
    ("mcdoc", {}),
    ("mccluster", {"alpha_cluster": 2, "beta": 3, "delta": 2}),
):
    clusters = None
    if method == "mccluster":
        neighbors = precompute_neighbors(corpus, 2, 50.0)
        clusters = build_clusters(corpus, 2, neighbors)
    cfg = RunConfig(method=method, alpha=3, alpha1=4, m=7, T=2, mu=50.0,
                    N=8, **extra)
    show(f"{method} (T=2, no drift)", run_retrieval(query, cfg, corpus, clusters))

print("\ndrift techniques on mcdoc, T=3:")
for drift in (
    DriftTechnique("none"),
    DriftTechnique("interpolation", lambda_=0.5),
    DriftTechnique("truncated_rerank", N=5),
    DriftTechnique("iterated_truncation", N=5),
    DriftTechnique("iterated_rerank", N=5),
    DriftTechnique("iterated_interpolation", lambda_=0.5),
):
    cfg = RunConfig(method="mcdoc", alpha=3, alpha1=4, m=7, T=3, mu=50.0,
                    N=8, drift=drift)
    show(drift.kind, run_retrieval(query, cfg, corpus))

print("\nround by round (mcdoc, iterated truncation): round t is the T=t run")
drift = DriftTechnique("iterated_truncation", N=4)
pseudo_queries = 1  # round 1 scores the query alone
for t in (1, 2, 3):
    cfg = RunConfig(method="mcdoc", alpha=3, alpha1=4, m=7, T=t, mu=50.0,
                    N=corpus.n_docs, drift=drift)
    ranking = run_retrieval(query, cfg, corpus)
    tops = ", ".join(f"{name(d)}:{s:.4f}" for d, s in ranking.entries[:4])
    print(f"  round {t}: {pseudo_queries} pseudo-queries; top: {tops}")
    # the next round's pseudo-queries are this round's positive-scored documents
    pseudo_queries = int((ranking.scores > 0).sum())
