"""Query-drift prevention: pure transformations of a round's ranking against
``query_p``, the query's rendition probability per doc id (scored once per
run), and :data:`KINDS`, the one table of when each technique applies them
and what it reads.  Each transform is O(N) array work plus one sort.

Two techniques touch only the final round (interpolation, truncated
re-rank); the iterated variants reuse the same transforms at the end of
every round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .params import check
from .scoring import ScoredRanking

log = logging.getLogger(__name__)

# kind -> (acts after every round rather than once after the last, the spec
# key of the value it reads or None, whether it reads query_p,
# transform(ranking, query_p, value)); the lambdas look the transforms up by
# name at call time, so a rebound module attribute is used
KINDS = {
    "none": (False, None, False, None),
    "interpolation": (False, "lambda", True, lambda r, q, v: interpolate(r, q, v)),
    "truncated_rerank": (False, "drift_N", True, lambda r, q, v: truncated_rerank(r, q, v)),
    "iterated_truncation": (True, "drift_N", False, lambda r, q, v: iterated_truncation(r, v)),
    "iterated_rerank": (True, "drift_N", True, lambda r, q, v: truncated_rerank(r, q, v)),
    "iterated_interpolation": (True, "lambda", True, lambda r, q, v: interpolate(r, q, v)),
}


@dataclass(frozen=True)
class DriftTechnique:
    """A drift kind with its interpolation weight ``lambda_`` (the spec's
    ``lambda``) or its truncation depth ``N`` (the spec's ``drift_N``)."""

    kind: str = "none"
    lambda_: float | None = None
    N: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown drift technique {self.kind!r}")
        for key, value in self._values().items():
            if key == KINDS[self.kind][1]:
                check(**{key: value})
            elif value is not None:
                raise ValueError(f"{key} is meaningless for {self.kind}")

    def _values(self) -> dict:
        """The technique's values by spec key."""
        return {"lambda": self.lambda_, "drift_N": self.N}

    @property
    def reads_query(self) -> bool:
        """Whether ``apply`` reads ``query_p``; when it does not, callers
        need not score the query against every document."""
        return KINDS[self.kind][2]

    def apply(self, ranking: ScoredRanking, query_p: np.ndarray | None,
              final: bool) -> ScoredRanking:
        """The ranking after this technique's step: called on every round's
        ranking with final=False and once more after the last round with
        final=True."""
        per_round, key, _, transform = KINDS[self.kind]
        if transform is None or per_round == final:
            return ranking
        return transform(ranking, query_p, self._values()[key])


def interpolate(method_scores: ScoredRanking, query_p: np.ndarray,
                lambda_: float) -> ScoredRanking:
    """Convex combination of max-rescaled method and query-rendition scores."""
    check(**{"lambda": lambda_})
    n = len(query_p)
    ids = method_scores.doc_ids
    if len(ids) != n or not (np.bincount(ids, minlength=n) == 1).all():
        raise ValueError("interpolation inputs cover different document sets")
    q_max = float(query_p.max()) if n else 0.0
    if q_max <= 0.0:
        raise ValueError("query scores have no positive maximum")
    m_max = float(method_scores.scores.max())
    if m_max <= 0.0:
        log.warning("all method scores are zero; falling back to query scores")
        return ScoredRanking.from_dense(query_p)
    s = np.empty(n)
    s[ids] = method_scores.scores
    return ScoredRanking.from_dense(
        lambda_ * (s / m_max) + (1.0 - lambda_) * (query_p / q_max))


def truncated_rerank(method_scores: ScoredRanking, query_p: np.ndarray,
                     n: int) -> ScoredRanking:
    """Keep the method's top-N documents, re-scored by query rendition.

    The retrieved set is unchanged; only its internal order moves.
    """
    check(drift_N=n)
    kept = method_scores.doc_ids[:n]
    q = query_p[kept]
    # kept is in rank order, not id order, so ties need the ids as a key
    order = np.lexsort((kept, -q))
    return ScoredRanking(kept[order], q[order])


def iterated_truncation(scores: ScoredRanking, n: int) -> ScoredRanking:
    """Zero every score below rank N; the top-N order is untouched."""
    check(drift_N=n)
    tail = np.sort(scores.doc_ids[n:])
    return ScoredRanking(np.concatenate([scores.doc_ids[:n], tail]),
                         np.concatenate([scores.scores[:n], np.zeros(len(tail))]))
