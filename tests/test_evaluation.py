import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pqlm import Qrels, average_precision, evaluate_run, recall_at, wilcoxon_two_sided
from pqlm.corpus import ParseError, left_sum, read_text
from pqlm.evaluation import EXACT_LIMIT, format_report, parse_run


class TestAveragePrecision:
    def test_worked_example(self):
        val = average_precision(["d1", "d2", "d3"], {"d1", "d3"}, 1000)
        assert val == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-9)

    def test_nothing_relevant_retrieved(self):
        assert average_precision(["x", "y"], {"z"}, 10) == 0.0

    def test_perfect_ranking(self):
        assert average_precision(["a", "b", "c"], {"a", "b", "c"}, 10) == 1.0

    def test_depth_cutoff(self):
        # relevant doc below the cutoff earns nothing
        assert average_precision(["x", "rel"], {"rel"}, 1) == 0.0

    def test_empty_relevant_set_is_an_error(self):
        with pytest.raises(ValueError, match="exclude"):
            average_precision(["a"], set(), 10)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            average_precision(["a", "a"], {"a"}, 10)

    def test_order_only_matters(self):
        run = ["a", "b", "c", "d"]
        rel = {"b", "d"}
        assert average_precision(run, rel, 10) == pytest.approx(
            (1 / 2 + 2 / 4) / 2)


class TestRecall:
    def test_all_found(self):
        assert recall_at(["a", "b"], {"a", "b"}, 10) == 1.0

    def test_disjoint(self):
        assert recall_at(["a"], {"b"}, 10) == 0.0

    def test_half(self):
        assert recall_at(["a", "b", "c"], {"a", "z", "q", "b"}, 2) == pytest.approx(0.5)

    def test_ap_never_exceeds_recall(self):
        rng = np.random.default_rng(257)
        for _ in range(100):
            docs = [f"d{i}" for i in range(20)]
            rng.shuffle(docs)
            rel = set(rng.choice(docs, size=5, replace=False).tolist())
            n = int(rng.integers(1, 25))
            ap = average_precision(docs, rel, n)
            rc = recall_at(docs, rel, n)
            assert 0.0 <= ap <= rc <= 1.0


class TestWilcoxon:
    def test_identical_systems_insufficient(self):
        res = wilcoxon_two_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.insufficient and not res.significant
        assert res.p_value is None

    def test_all_positive_n6_exact(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.0] * 6
        res = wilcoxon_two_sided(a, b)
        assert res.p_value == pytest.approx(2 / 64, abs=1e-12)
        assert res.significant

    def test_textbook_pair_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        # Hollander & Wolfe depression data: distinct differences, no zeros
        a = [1.83, 0.50, 1.62, 2.48, 1.68, 1.88, 1.55, 3.06, 1.30]
        b = [0.878, 0.647, 0.598, 2.05, 1.06, 1.29, 1.06, 3.14, 1.29]
        ref = scipy_stats.wilcoxon(a, b, alternative="two-sided", mode="exact")
        res = wilcoxon_two_sided(a, b)
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-3)
        assert res.p_value == pytest.approx(0.0390625, abs=1e-9)
        assert res.significant

    def test_large_n_matches_scipy_approx(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(281)
        for _ in range(10):
            n = int(rng.integers(30, 60))
            a = rng.normal(0.3, 1.0, size=n).tolist()
            b = rng.normal(0.0, 1.0, size=n).tolist()
            ref = scipy_stats.wilcoxon(a, b, alternative="two-sided",
                                       mode="approx", correction=True)
            res = wilcoxon_two_sided(a, b)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-3)

    def test_antisymmetric(self):
        rng = np.random.default_rng(263)
        for _ in range(20):
            n = int(rng.integers(6, 30))
            a = rng.normal(size=n).tolist()
            b = rng.normal(size=n).tolist()
            ab = wilcoxon_two_sided(a, b)
            ba = wilcoxon_two_sided(b, a)
            assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(269)
        for _ in range(20):
            n = int(rng.integers(5, 13))
            diffs = rng.normal(size=n)
            diffs[rng.random(size=n) < 0.2] = 0.0
            a = diffs.tolist()
            b = [0.0] * n
            nonzero = [d for d in diffs if d != 0]
            if len(nonzero) < 5:
                continue
            res = wilcoxon_two_sided(a, b)
            assert res.p_value == pytest.approx(
                oracles.wilcoxon_exact_p(nonzero), abs=1e-12)

    def test_exact_and_normal_agree_at_boundary(self):
        from pqlm.evaluation import _exact_p, _midranks, _normal_p

        rng = np.random.default_rng(271)
        for _ in range(50):
            diffs = rng.normal(size=25)
            ranks = _midranks([abs(d) for d in diffs])
            w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
            assert _exact_p(ranks, w_plus) == pytest.approx(
                _normal_p(ranks, w_plus), abs=0.01)

    def test_ties_get_midranks(self):
        # |diffs| = [1,1,2,2,2] -> ranks [1.5,1.5,4,4,4]
        res = wilcoxon_two_sided([1, 1, 2, 2, 2], [0, 0, 0, 0, 0])
        assert res.n == 5
        assert res.p_value == pytest.approx(2 / 32, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            wilcoxon_two_sided([1.0], [1.0, 2.0])


# -- the Wilcoxon test against a literal reference -----------------------


def reference_midranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def reference_exact_p(ranks: list[float], w_plus: float) -> float:
    doubled = [round(2 * r) for r in ranks]
    total = sum(doubled)
    dist = np.zeros(total + 1, dtype=np.float64)
    dist[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(dist)
        shifted[r:] = dist[: total + 1 - r]
        dist += shifted
    count = 2.0 ** len(ranks)
    w2 = round(2 * w_plus)
    cdf = dist[: w2 + 1].sum() / count
    sf = dist[w2:].sum() / count
    return min(1.0, 2.0 * min(cdf, sf))


def reference_normal_p(ranks: list[float], w_plus: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    tie_sum = 0.0
    counts: dict[float, int] = {}
    for r in ranks:
        counts[r] = counts.get(r, 0) + 1
    for t in counts.values():
        tie_sum += t**3 - t
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_sum / 48.0
    d = 0.5 * math.copysign(1.0, w_plus - mean) if w_plus != mean else 0.0
    z = (w_plus - mean - d) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def reference_wilcoxon(a, b, level=0.95):
    """(significant, p, n, insufficient) of the list-based test that the
    numpy one replaced, kept as its reference."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n < 5:
        return False, None, n, True
    ranks = reference_midranks([abs(d) for d in diffs])
    w_plus = left_sum([r for r, d in zip(ranks, diffs) if d > 0])
    if n <= EXACT_LIMIT:
        p = reference_exact_p(ranks, w_plus)
    else:
        p = reference_normal_p(ranks, w_plus)
    return p < (1.0 - level), p, n, False


class TestWilcoxonReference:
    def test_same_result_as_the_literal_reference(self):
        rng = np.random.default_rng(619)
        exact = 0
        for _ in range(3000):
            n = int(rng.integers(0, 60))
            # few distinct values and shared entries: ties and zero differences
            grain = float(rng.choice([0.5, 0.1, 0.01, 1e-6]))
            a = np.round(rng.random(n) / grain) * grain
            b = np.where(rng.random(n) < 0.2, a, np.round(rng.random(n) / grain) * grain)
            level = float(rng.choice([0.9, 0.95, 0.99]))
            res = wilcoxon_two_sided(a.tolist(), b.tolist(), level)
            significant, p, n_pairs, insufficient = reference_wilcoxon(a.tolist(), b.tolist(),
                                                                       level)
            assert (res.significant, res.n, res.insufficient) == \
                (significant, n_pairs, insufficient)
            assert (res.p_value is None and p is None) or res.p_value.hex() == float(p).hex()
            exact += 5 <= n_pairs <= EXACT_LIMIT
        assert exact > 500

    @pytest.mark.parametrize("n", [3, 6, 40])  # insufficient, exact and normal
    def test_fields_are_python_bool_and_float(self, n):
        res = wilcoxon_two_sided([float(i + 1) for i in range(n)], [0.0] * n)
        assert type(res.significant) is bool and type(res.insufficient) is bool
        assert type(res.n) is int
        assert res.p_value is None if n < 5 else type(res.p_value) is float
        json.dumps(dataclasses.asdict(res))


class TestFilesAndReports:
    def test_qrels_parsing(self):
        q = Qrels.parse("1 0 docA 1\n1 0 docB 0\n2 0 docC 2\n")
        assert q.relevant == {"1": {"docA"}, "2": {"docC"}}

    def test_qrels_blank_lines_are_skipped(self):
        q = Qrels.parse("1 0 docA 1\n\n   \n2 0 docC 0\n")
        assert q.relevant == {"1": {"docA"}, "2": set()}

    def test_qrels_from_a_file_object(self):
        assert read_text(io.BytesIO(b"1 0 docA 1\n")) == "1 0 docA 1\n"
        assert read_text(io.StringIO("x")) == "x"
        assert Qrels.parse(io.BytesIO(b"1 0 docA 1\n")).relevant == {"1": {"docA"}}

    def test_qrels_bad_line(self):
        with pytest.raises(ParseError, match="line 1"):
            Qrels.parse("1 0 docA\n")

    def test_run_parsing_orders_by_rank(self):
        run = parse_run("1 Q0 b 2 0.5 t\n1 Q0 a 1 0.9 t\n")
        assert run == {"1": ["a", "b"]}

    def test_evaluate_run_aggregates(self):
        qrels = Qrels.parse("1 0 a 1\n1 0 b 1\n2 0 c 1\n3 0 z 0\n")
        run = {"1": ["a", "x", "b"], "2": ["y", "c"], "3": ["z"]}
        rep = evaluate_run(run, qrels, n=1000)
        assert rep.per_query_ap["1"] == pytest.approx((1 + 2 / 3) / 2)
        assert rep.per_query_ap["2"] == pytest.approx(0.5)
        assert rep.mean_ap == pytest.approx(
            ((1 + 2 / 3) / 2 + 0.5) / 2)
        assert rep.recall_micro == pytest.approx(1.0)
        assert rep.recall_macro == pytest.approx(1.0)
        assert rep.excluded == ["3"]

    def test_micro_vs_macro_differ(self):
        qrels = Qrels.parse("1 0 a 1\n2 0 b 1\n2 0 c 1\n2 0 d 1\n")
        run = {"1": ["a"], "2": ["b"]}
        rep = evaluate_run(run, qrels, n=1000)
        assert rep.recall_micro == pytest.approx(2 / 4)
        assert rep.recall_macro == pytest.approx((1.0 + 1 / 3) / 2)

    def test_report_table_marks_significance(self):
        rng = np.random.default_rng(277)
        qids = [str(i) for i in range(12)]
        base_ap = {q: 0.2 for q in qids}
        better_ap = {q: 0.7 for q in qids}
        from pqlm.evaluation import EvalReport

        base = EvalReport(base_ap, dict(base_ap), 0.2, 0.4, 0.4)
        better = EvalReport(better_ap, dict(better_ap), 0.7, 0.9, 0.9)
        table = format_report({"base": base, "better": better})
        lines = table.splitlines()
        assert "prec" in lines[0] and "recall" in lines[0]
        assert "20.00%" in lines[1]
        assert "70.00%*" in lines[2]


# -- parse_run against a literal reference --------------------------------


def reference_int_field(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{where}: {value!r} is not an integer") from None


def reference_parse_run(data) -> dict[str, list[str]]:
    """TREC 6-column run -> qid -> docnos in rank order: the line-by-line
    parser that the one-loop parse_run replaced, kept as its reference."""
    runs: dict[str, list[tuple[int, str]]] = {}
    for lineno, line in enumerate(read_text(data, "strict").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"run line {lineno}: expected 6 fields")
        qid, _, docno, rank, _score, _tag = parts
        runs.setdefault(qid, []).append((reference_int_field(rank, f"run line {lineno}"), docno))
    return {qid: [d for _, d in sorted(rows)] for qid, rows in runs.items()}


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


# every separator str.splitlines breaks at, and field separators that are not
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
_FIELD_GAPS = [" ", "  ", "\t", " \t ", "\xa0", "\u3000"]
_RANKS = ["1", "2", "3", "10", "+3", "3_0", "x", "-1", "007", "2.0", "\u0663", ""]
_ROW = st.tuples(st.sampled_from(["1", "2", "10", "%s"]), st.sampled_from(["Q0", "q"]),
                 st.sampled_from(["a", "b", "c", "D%d", "\u00e9"]), st.sampled_from(_RANKS),
                 st.sampled_from(["0.5", "-0.000000", "1e3"]), st.sampled_from(["t", "sys.1"]))


@st.composite
def _run_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \t  ", "\xa0"])))
        else:
            fields = [f for f in draw(_ROW) if f]  # an empty rank drops a field
            if kind == "short":
                fields = fields[:5]
            elif kind == "long":
                fields = fields + ["extra"]
            gaps = [draw(st.sampled_from(_FIELD_GAPS)) for _ in fields]
            line = "".join(gap + field for gap, field in zip(gaps, fields))
            lines.append(line[len(gaps[0]):] if draw(st.booleans()) else line)
    text = "".join(line + draw(st.sampled_from(_LINE_BREAKS)) for line in lines)
    return text[:-1] if draw(st.booleans()) else text  # no final line break


class TestParseRunReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_run_texts())
    @example("1 Q0 a x 0.5 t\n1 Q0 b 2 0.5\n")        # bad rank before a bad field count
    @example("1 Q0 a 1 0.5 t\n1 Q0 b 2 0.5\n1 Q0 c y 0.5 t\n")
    @example("2 Q0 b 1 0.5 t\n1 Q0 c 2 0.5 t\n2 Q0 a 1 0.5 t\n1 Q0 a 2 0.5 t\n"
             "1 Q0 d +1 0.5 t\n")                     # interleaved qids, repeated ranks
    @example(" \t\r\n1 Q0 a 3_0 0.5 t\r\n\r\n1\tQ0\tb\t2\t0.5\tt")
    def test_same_dict_or_same_error(self, text):
        expected = _outcome(reference_parse_run, text)
        assert _outcome(parse_run, text) == expected
        assert _outcome(parse_run, text.encode()) == expected
