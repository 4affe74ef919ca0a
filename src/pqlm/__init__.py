"""pqlm: iterative pseudo-query retrieval over document- and cluster-based
unigram language models, with baselines and a TREC-style evaluation harness.
"""

from .baselines import lm_baseline, relevance_model_rank, rocchio_rank
from .clustering import (
    ClusterIndex,
    build_clusters,
    cluster_membership,
    singleton_cluster_index,
)
from .corpus import (
    Corpus,
    ParseError,
    PreprocessOptions,
    Query,
    build_corpus,
    parse_lines,
    parse_topics,
    parse_trec,
    tokenize,
)
from .drift import DriftTechnique, interpolate, iterated_truncation, truncated_rerank
from .evaluation import (
    EvalReport,
    Qrels,
    average_precision,
    evaluate_run,
    recall_at,
    wilcoxon_two_sided,
)
from .lm import QUERY_ID, NeighborIndex, precompute_neighbors
from .pipeline import RunConfig, format_run_lines, run_retrieval
from .scoring import PseudoQueryList, ScoredRanking, score_mccluster, score_mcdoc, score_vdoc

__version__ = "0.1.0"

__all__ = [
    "QUERY_ID",
    "ClusterIndex",
    "Corpus",
    "DriftTechnique",
    "EvalReport",
    "NeighborIndex",
    "ParseError",
    "PreprocessOptions",
    "PseudoQueryList",
    "Qrels",
    "Query",
    "RunConfig",
    "ScoredRanking",
    "average_precision",
    "build_clusters",
    "build_corpus",
    "cluster_membership",
    "evaluate_run",
    "format_run_lines",
    "interpolate",
    "iterated_truncation",
    "lm_baseline",
    "parse_lines",
    "parse_topics",
    "parse_trec",
    "precompute_neighbors",
    "recall_at",
    "relevance_model_rank",
    "rocchio_rank",
    "run_retrieval",
    "score_mccluster",
    "score_mcdoc",
    "score_vdoc",
    "singleton_cluster_index",
    "tokenize",
    "truncated_rerank",
    "wilcoxon_two_sided",
]
