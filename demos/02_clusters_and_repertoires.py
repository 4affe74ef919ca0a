"""Offline structure: neighbor lists, overlapping clusters, repertoires.

Every document seeds one cluster made of its best renderers, so clusters
overlap and expose different facets of the corpus.  A renderer's
repertoire is the set of texts it ranks highly for; it is the inverse
view of the top-renderer relation.
"""

from pqlm import (
    PreprocessOptions,
    build_clusters,
    build_corpus,
    cluster_membership,
    precompute_neighbors,
)
from pqlm.lm import QUERY_ID

DOCS = [
    ("sun-1", "solar panels convert sunlight into electric power"),
    ("sun-2", "the solar farm stores power in large batteries"),
    ("sun-3", "battery storage smooths solar and wind power output"),
    ("wind-1", "wind turbines generate electric power from moving air"),
    ("poem-1", "a verse about sunlight in a summer poem"),
    ("poem-2", "poets write verses about love and loss"),
]

MU = 10.0
corpus = build_corpus(DOCS, PreprocessOptions())
name = lambda d: corpus.docnos[d]

neighbors = precompute_neighbors(corpus, k_max=3, mu=MU)
print("per-document best renderers (k_max=3):")
for d in range(corpus.n_docs):
    print(f"  {name(d):7s} -> {[name(x) for x in neighbors.top(d, 3)]}")

clusters = build_clusters(corpus, delta=2, neighbors=neighbors)
print("\none overlapping cluster per seed (delta=2):")
for seed, (row, length) in enumerate(zip(clusters.members, clusters.lengths())):
    print(f"  seed {name(seed):7s} members {[name(m) for m in row]}  length={length:g}")

print("\nwhich clusters contain wind-1?",
      sorted(name(c) for c in cluster_membership(clusters, 3)))
print("the round-1 query belongs to every cluster:",
      len(cluster_membership(clusters, QUERY_ID)), "of",
      len(clusters))

# the repertoire of r: every text that has r among its top-k renderers
rep = {x for x in range(corpus.n_docs) if 0 in neighbors.top(x, 2)}
print(f"\nrepertoire of {name(0)} at k=2:", sorted(name(x) for x in rep))
