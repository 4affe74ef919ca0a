"""Query-drift prevention: pure transformations over scored rankings and
the schedule that says when each technique applies them.

Two techniques touch only the final round (interpolation, truncated
re-rank); the iterated variants reuse the same transforms at the end of
every round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .scoring import ScoredRanking

log = logging.getLogger(__name__)

# kind -> (acts after every round rather than once after the last,
# transform(ranking, query_scores, technique)); the lambdas look the
# transforms up by name at call time, so a rebound module attribute is used
SCHEDULE = {
    "none": (False, None),
    "interpolation": (False, lambda r, q, t: interpolate(r, q, t.lambda_)),
    "truncated_rerank": (False, lambda r, q, t: truncated_rerank(r, q, t.N)),
    "iterated_truncation": (True, lambda r, q, t: iterated_truncation(r, t.N)),
    "iterated_rerank": (True, lambda r, q, t: truncated_rerank(r, q, t.N)),
    "iterated_interpolation": (True, lambda r, q, t: interpolate(r, q, t.lambda_)),
}
INTERPOLATING = ("interpolation", "iterated_interpolation")
TRUNCATING = ("truncated_rerank", "iterated_truncation", "iterated_rerank")


@dataclass(frozen=True)
class DriftTechnique:
    kind: str = "none"
    lambda_: float | None = None
    N: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE:
            raise ValueError(f"unknown drift technique {self.kind!r}")
        if self.kind in INTERPOLATING:
            if self.lambda_ is None or not 0.0 <= self.lambda_ <= 1.0:
                raise ValueError("interpolating techniques need lambda in [0, 1]")
        elif self.lambda_ is not None:
            raise ValueError(f"lambda is meaningless for {self.kind}")
        if self.kind in TRUNCATING:
            if self.N is None or self.N < 1:
                raise ValueError("truncating techniques need N >= 1")
        elif self.N is not None:
            raise ValueError(f"N is meaningless for {self.kind}")

    def apply(self, ranking: ScoredRanking, query_scores: ScoredRanking,
              final: bool) -> ScoredRanking:
        """The ranking after this technique's step: called on every round's
        ranking with final=False and once more after the last round with
        final=True."""
        per_round, transform = SCHEDULE[self.kind]
        if transform is None or per_round == final:
            return ranking
        return transform(ranking, query_scores, self)


def interpolate(method_scores: ScoredRanking, query_scores: ScoredRanking,
                lambda_: float) -> ScoredRanking:
    """Convex combination of max-rescaled method and query-rendition scores."""
    if set(method_scores.doc_ids.tolist()) != set(query_scores.doc_ids.tolist()):
        raise ValueError("interpolation inputs cover different document sets")
    q_max = float(query_scores.scores.max()) if len(query_scores) else 0.0
    if q_max <= 0.0:
        raise ValueError("query scores have no positive maximum")
    m_max = float(method_scores.scores.max()) if len(method_scores) else 0.0
    if m_max <= 0.0:
        log.warning("all method scores are zero; falling back to query scores")
        return ScoredRanking.from_pairs(query_scores.entries)
    q_of = query_scores.score_of()
    pairs = [
        (int(d), lambda_ * (s / m_max) + (1.0 - lambda_) * (q_of[int(d)] / q_max))
        for d, s in zip(method_scores.doc_ids, method_scores.scores)
    ]
    return ScoredRanking.from_pairs(pairs)


def truncated_rerank(method_scores: ScoredRanking, query_scores: ScoredRanking,
                     n: int) -> ScoredRanking:
    """Keep the method's top-N documents, re-scored by query rendition.

    The retrieved set is unchanged; only its internal order moves.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    q_of = query_scores.score_of()
    kept = method_scores.doc_ids[:n].tolist()
    return ScoredRanking.from_pairs([(d, q_of[d]) for d in kept])


def iterated_truncation(scores: ScoredRanking, n: int) -> ScoredRanking:
    """Zero every score below rank N; the top-N order is untouched."""
    if n < 1:
        raise ValueError("N must be >= 1")
    new_scores = scores.scores.copy()
    new_scores[n:] = 0.0
    top = ScoredRanking(scores.doc_ids[:n], new_scores[:n])
    if len(scores) <= n:
        return top
    tail = ScoredRanking.from_pairs(
        [(int(d), 0.0) for d in scores.doc_ids[n:]])
    return ScoredRanking(
        np.concatenate([top.doc_ids, tail.doc_ids]),
        np.concatenate([top.scores, tail.scores]),
    )
