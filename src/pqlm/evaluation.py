"""Evaluation: non-interpolated average precision, recall at N, and the
two-sided Wilcoxon signed-rank test.

trec_eval conventions apply where nothing else is stated: unjudged
retrieved documents count as nonrelevant, a query that lists a docno twice,
at any rank and judged or not, is an error, and queries with no judged
relevant documents are excluded from the averages rather than scored zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import ParseError, left_sum, read_text
from .params import check


def _check_unique(run: Sequence[str]) -> None:
    """ValueError naming the first docno, in rank order, that a higher rank
    of `run` already lists."""
    if len(set(run)) != len(run):
        seen: set[str] = set()
        for docno in run:
            if docno in seen:
                raise ValueError(f"duplicate docno {docno!r} in run")
            seen.add(docno)


def _measures(run: Sequence[str], relevant: set[str], n: int) -> tuple[float, float, int]:
    """Average precision and recall at n of one query's ranked docnos, and
    the number of relevant documents in its top n."""
    if not relevant:
        raise ValueError("query has no relevant documents; exclude it")
    hit_ranks = [rank for rank, docno in enumerate(run[:n], start=1) if docno in relevant]
    total = 0.0
    for hits, rank in enumerate(hit_ranks, start=1):
        total += hits / rank
    return total / len(relevant), len(hit_ranks) / len(relevant), len(hit_ranks)


def average_precision(run: Sequence[str], relevant: set[str], n: int) -> float:
    """Mean precision at the ranks of relevant documents retrieved in the
    top n, divided by the total number of relevant documents.  A docno
    listed twice anywhere in `run` is a ValueError."""
    ap, _, _ = _measures(run, relevant, n)
    _check_unique(run)
    return ap


def recall_at(run: Sequence[str], relevant: set[str], n: int) -> float:
    """The share of the relevant documents retrieved in the top n.  A docno
    listed twice anywhere in `run` is a ValueError."""
    _, recall, _ = _measures(run, relevant, n)
    _check_unique(run)
    return recall


# -- Wilcoxon signed-rank -------------------------------------------------

EXACT_LIMIT = 25


@dataclass
class WilcoxonResult:
    significant: bool
    p_value: float | None
    n: int  # pairs remaining after zero-difference removal
    insufficient: bool = False


def _midranks(values) -> np.ndarray:
    """Ranks from 1 of `values` ascending; tied values share their mean rank."""
    _, at, ties = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(ties)  # each tie group's ranks are last - ties + 1 .. last
    return ((2 * last - ties + 1) / 2)[at]


def _exact_p(ranks: np.ndarray, w_plus: float) -> float:
    """Exact two-sided p over the 2^n equiprobable sign assignments.

    Ranks are doubled to make midranks integral; the distribution of the
    doubled positive-rank sum is built by convolution, one add per rank.
    """
    doubled = (2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1, dtype=np.float64)
    dist[0] = 1.0
    for r in doubled.tolist():
        dist[r:] += dist[: total + 1 - r]  # numpy reads the overlap before writing
    count = 2.0 ** len(doubled)
    w2 = round(2 * w_plus)
    cdf = dist[: w2 + 1].sum() / count
    sf = dist[w2:].sum() / count
    return min(1.0, 2.0 * float(min(cdf, sf)))


def _normal_p(ranks: np.ndarray, w_plus: float) -> float:
    """Normal approximation with tie correction and continuity correction."""
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    _, ties = np.unique(ranks, return_counts=True)
    tie_sum = int((ties**3 - ties).sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_sum / 48.0
    d = 0.5 * math.copysign(1.0, w_plus - mean) if w_plus != mean else 0.0
    z = (w_plus - mean - d) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_two_sided(a: Sequence[float], b: Sequence[float],
                       level: float = 0.95) -> WilcoxonResult:
    """Paired two-sided signed-rank test.

    Zero differences are discarded and ties share mid-ranks.  The null
    distribution is exact (full enumeration by convolution) up to 25
    remaining pairs and a continuity-corrected normal approximation above
    that.  Fewer than 5 nonzero pairs is reported as insufficient data.
    """
    if len(a) != len(b):
        raise ValueError("paired samples differ in length")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    diffs = (a - b)[a != b]
    n = len(diffs)
    if n < 5:
        return WilcoxonResult(False, None, n, insufficient=True)
    ranks = _midranks(np.abs(diffs))
    w_plus = left_sum(ranks[diffs > 0])
    p = (_exact_p if n <= EXACT_LIMIT else _normal_p)(ranks, w_plus)
    return WilcoxonResult(p < (1.0 - level), p, n)


# -- qrels / runs / reports ------------------------------------------------


@dataclass
class Qrels:
    relevant: dict[str, set[str]]

    @classmethod
    def parse(cls, data) -> "Qrels":
        """Lines of `qid 0 docno rel`; rel > 0 marks relevance."""
        relevant: dict[str, set[str]] = {}
        for lineno, line in enumerate(read_text(data, "strict").splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"qrels line {lineno}: expected 4 fields")
            qid, _, docno, rel = parts
            relevant.setdefault(qid, set())
            if _int_field(rel, f"qrels line {lineno}") > 0:
                relevant[qid].add(docno)
        return cls(relevant)

    def judges_any(self, qids) -> bool:
        """Whether any of `qids` is in the qrels; :func:`evaluate_run`
        refuses a run with none."""
        return any(qid in self.relevant for qid in qids)


def _int_field(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{where}: {value!r} is not an integer") from None


def parse_run(data) -> dict[str, list[str]]:
    """TREC 6-column run -> qid -> docnos in rank order (ties by docno)."""
    runs: dict[str, list[tuple[int, str]]] = {}
    qid = rows = None
    # unnamed, the list of lines is freed once the loop has read it
    split_lines = map(str.split, read_text(data, "strict").splitlines())
    for lineno, parts in enumerate(split_lines, start=1):
        if len(parts) != 6:
            if not parts:  # a blank line
                continue
            raise ParseError(f"run line {lineno}: expected 6 fields")
        row_qid, _, docno, rank, _score, _tag = parts
        try:
            rank = int(rank)
        except ValueError:
            raise ParseError(f"run line {lineno}: {rank!r} is not an integer") from None
        if row_qid != qid:
            qid = row_qid
            rows = runs.setdefault(qid, [])
        rows.append((rank, docno))
    for rows in runs.values():
        rows.sort()
    return {qid: [docno for _, docno in rows] for qid, rows in runs.items()}


@dataclass
class EvalReport:
    """Per-query and aggregate effectiveness for one run."""

    per_query_ap: dict[str, float]
    per_query_recall: dict[str, float]
    mean_ap: float
    recall_micro: float  # total relevant retrieved / total relevant
    recall_macro: float
    excluded: list[str] = field(default_factory=list)  # no relevant docs judged


def evaluate_run(run: dict[str, list[str]], qrels: Qrels, n: int = 1000) -> EvalReport:
    """Average precision and recall at depth n of each run query that the
    qrels judge, and their means.

    A run query that the qrels hold with no relevant document is excluded.
    A run with no query in the qrels, an empty run among them, has nothing
    to average: that is a ValueError, not a mean of 0.  A query, judged or
    not, that lists a docno twice at any rank is a ParseError naming the
    query.
    """
    check(depth=n)
    if not qrels.judges_any(run):
        raise ValueError("no query of the run is in the qrels")
    per_ap: dict[str, float] = {}
    per_recall: dict[str, float] = {}
    excluded: list[str] = []
    rel_total = 0
    rel_found = 0
    for qid in sorted(run):
        try:
            _check_unique(run[qid])
        except ValueError as exc:
            raise ParseError(f"query {qid}: {exc}") from None
        relevant = qrels.relevant.get(qid)
        if relevant is None:
            continue
        if not relevant:
            excluded.append(qid)
            continue
        per_ap[qid], per_recall[qid], found = _measures(run[qid], relevant, n)
        rel_total += len(relevant)
        rel_found += found
    # the per-query dicts are in qid order
    mean_ap = left_sum(list(per_ap.values())) / len(per_ap) if per_ap else 0.0
    macro = left_sum(list(per_recall.values())) / len(per_recall) if per_recall else 0.0
    micro = rel_found / rel_total if rel_total else 0.0
    return EvalReport(per_ap, per_recall, mean_ap, micro, macro, excluded)


def _stars(rep: EvalReport, base: EvalReport) -> tuple[str, str]:
    shared = sorted(set(rep.per_query_ap) & set(base.per_query_ap))
    ap_test = wilcoxon_two_sided(
        [rep.per_query_ap[q] for q in shared],
        [base.per_query_ap[q] for q in shared])
    rc_test = wilcoxon_two_sided(
        [rep.per_query_recall[q] for q in shared],
        [base.per_query_recall[q] for q in shared])
    return ("*" if ap_test.significant else "",
            "*" if rc_test.significant else "")


def format_report(reports: dict[str, EvalReport]) -> str:
    """Aligned systems-by-measures table with significance markers.

    A star after a value means the system's per-query average precisions
    (or recalls) differ from the first system's per the two-sided Wilcoxon
    test at level 0.95.
    """
    width = max(len("system"), *map(len, reports)) if reports else 8
    lines = [f"{'system':<{width}}  {'prec':>14}  {'recall':>14}"]
    baseline = next(iter(reports), None)
    for name, rep in reports.items():
        stars = _stars(rep, reports[baseline]) if name != baseline else ("", "")
        lines.append(f"{name:<{width}}  {rep.mean_ap * 100:>12.2f}%{stars[0]:1}"
                     f"  {rep.recall_micro * 100:>12.2f}%{stars[1]:1}".rstrip())
    return "\n".join(lines)
