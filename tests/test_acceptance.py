"""Acceptance suite: every release criterion with one printed
pass/fail line per criterion (run with `pytest -s` to see them).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import as_text, doc_counts, query_probs, random_corpus, term_probs
from pqlm import (
    DriftTechnique,
    PreprocessOptions,
    PseudoQueryList,
    RunConfig,
    average_precision,
    build_clusters,
    build_corpus,
    interpolate,
    lm_baseline,
    precompute_neighbors,
    relevance_model_rank,
    rocchio_rank,
    run_retrieval,
    score_mccluster,
    score_mcdoc,
    score_vdoc,
    singleton_cluster_index,
    truncated_rerank,
    wilcoxon_two_sided,
)
from pqlm import oracles
from pqlm.cli import main as cli_main
from pqlm.corpus import Query, parse_topics, parse_trec
from pqlm.evaluation import Qrels, evaluate_run, parse_run, _exact_p, _midranks, _normal_p
from pqlm.lm import QUERY_ID, log_rendition, log_rendition_docs

DATA = Path(__file__).parent / "data"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_text_counts(corpus, rng, max_terms=3):
    vocab = sorted(corpus.vocabulary)
    k = int(rng.integers(1, max_terms + 1))
    counts = {}
    for t in rng.choice(vocab, size=k):
        counts[str(t)] = counts.get(str(t), 0) + 1
    return counts


def _pairs_match(ranking, pairs, rel=1e-10):
    """Scores equal per document; orders equal, allowing permutations only
    inside runs of oracle scores that are themselves within tolerance
    (documents a float implementation cannot be required to distinguish)."""
    got_scores = dict(ranking.entries)
    want_scores = dict(pairs)
    if set(got_scores) != set(want_scores):
        return False
    for d, want in want_scores.items():
        if not math.isclose(got_scores[d], want, rel_tol=rel, abs_tol=1e-300):
            return False
    got_ids = ranking.doc_ids.tolist()
    want_ids = [d for d, _ in pairs]
    if got_ids == want_ids:
        return True
    scores = [s for _, s in pairs]
    i, n = 0, len(want_ids)
    while i < n:
        j = i
        while j + 1 < n and math.isclose(scores[j + 1], scores[j],
                                         rel_tol=rel, abs_tol=1e-300):
            j += 1
        if sorted(got_ids[i:j + 1]) != sorted(want_ids[i:j + 1]):
            return False
        i = j + 1
    return True


def test_criterion_1_degenerate_equivalence():
    """mcdoc at full spread and mccluster over singleton clusters both
    reproduce the plain language-model ranking exactly."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    failures = []
    for trial in range(20):
        corpus = random_corpus(rng, n_docs=int(rng.integers(10, 51)))
        n = corpus.n_docs
        mu = float(rng.uniform(100, 4000))
        q_counts = _random_text_counts(corpus, rng)
        terms = [t for t, c in sorted(q_counts.items()) for _ in range(c)]
        query = Query(f"q{trial}", terms)
        base = lm_baseline(query, corpus, mu, n)

        cfg = RunConfig(method="mcdoc", alpha=2, alpha1=n, m=n + 1, T=1,
                        mu=mu, N=n)
        mc = run_retrieval(query, cfg, corpus)
        if mc.doc_ids.tolist() != base.doc_ids.tolist():
            failures.append((trial, "mcdoc"))

        clusters = singleton_cluster_index(corpus, mu)
        cfg = RunConfig(method="mccluster", alpha=1, alpha1=n, m=2,
                        alpha_cluster=1, beta=1, delta=1, T=1, mu=mu, N=n)
        cl = run_retrieval(query, cfg, corpus, clusters)
        if cl.doc_ids.tolist() != base.doc_ids.tolist():
            failures.append((trial, "mccluster"))
    elapsed = time.perf_counter() - start
    _report("criterion 1: degenerate equivalence on 20 random corpora",
            not failures and elapsed < 10.0,
            f"{elapsed:.1f}s, failures={failures}")


def _replay_mcdoc_pipeline(corpus, q_counts, alpha, alpha1, m, rounds, mu,
                           kind, lam, cutoff, depth):
    """Straight-line transcript of the iterative driver using oracle parts."""
    q_table = oracles.lm_baseline_scores(q_counts, corpus, mu)
    items, weights = [QUERY_ID], [1.0]
    ranking = None
    for t in range(1, rounds + 1):
        spread = alpha1 if t == 1 else alpha
        ranking = oracles.mcdoc_scores(items, weights, spread,
                                       max(m, spread + 1), corpus, mu, q_counts)
        if kind == "iterated_truncation":
            ranking = oracles.iterated_truncation(ranking, cutoff)
        elif kind == "iterated_rerank":
            ranking = oracles.truncated_rerank(ranking, q_table, cutoff)
        elif kind == "iterated_interpolation":
            ranking = oracles.interpolate(ranking, q_table, lam)
        if t < rounds:
            positive = [(d, s) for d, s in ranking if s > 0]
            items = [d for d, _ in positive]
            weights = [s / positive[0][1] for _, s in positive]
    if kind == "interpolation":
        ranking = oracles.interpolate(ranking, q_table, lam)
    elif kind == "truncated_rerank":
        ranking = oracles.truncated_rerank(ranking, q_table, cutoff)
    return ranking[:depth]


def test_criterion_2_oracle_equivalence():
    """All scoring methods, all five drift techniques, Rocchio, and the
    clipped relevance model against definition-literal oracles."""
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    mismatches = []
    components = ("vdoc", "mcdoc", "mccluster", "interpolation",
                  "truncated_rerank", "iterated_truncation",
                  "iterated_rerank", "iterated_interpolation",
                  "rocchio", "relevance_model")
    counts = dict.fromkeys(components, 0)
    for i in range(240):
        kind = components[i % len(components)]
        counts[kind] += 1
        corpus = random_corpus(rng, n_docs=int(rng.integers(3, 13)))
        n = corpus.n_docs
        mu = float(rng.uniform(0.5, 100.0))
        q_counts = _random_text_counts(corpus, rng)
        terms = [t for t, c in sorted(q_counts.items()) for _ in range(c)]
        query = Query(f"q{i}", terms)
        ok = True

        if kind == "vdoc":
            items, weights = _random_pq(rng, n)
            alpha = int(rng.integers(1, n + 1))
            got = score_vdoc(PseudoQueryList(items, weights), alpha, corpus,
                             mu, query_probs(corpus, q_counts, mu))
            want = oracles.vdoc_scores(items, weights, alpha, corpus, mu,
                                       q_counts)
            ok = _pairs_match(got, want)
        elif kind == "mcdoc":
            items, weights = _random_pq(rng, n)
            alpha = int(rng.integers(1, n))
            m = int(rng.integers(alpha + 1, n + 2))
            got = score_mcdoc(PseudoQueryList(items, weights), alpha, m,
                              corpus, mu, query_probs(corpus, q_counts, mu))
            want = oracles.mcdoc_scores(items, weights, alpha, m, corpus, mu,
                                        q_counts)
            ok = _pairs_match(got, want)
        elif kind == "mccluster":
            delta = int(rng.integers(1, min(4, n) + 1))
            clusters = build_clusters(
                corpus, delta, precompute_neighbors(corpus, delta, mu))
            members = [list(row) for row in clusters.members]
            first = bool(rng.integers(0, 2))
            if first:
                items, weights = [QUERY_ID], [1.0]
            else:
                items, weights = _random_pq(rng, n)
            ac = int(rng.integers(1, n + 1))
            beta = int(rng.integers(1, delta + 1))
            got = score_mccluster(PseudoQueryList(items, weights), ac, beta,
                                  corpus, clusters, first, as_text(corpus, q_counts))
            want = oracles.mccluster_scores(items, weights, ac, beta, members,
                                            corpus, mu, first, q_counts)
            ok = _pairs_match(got, want)
        elif kind in ("interpolation", "truncated_rerank",
                      "iterated_truncation", "iterated_rerank",
                      "iterated_interpolation"):
            rounds = 1 if kind in ("interpolation", "truncated_rerank") else 2
            rounds = int(rng.integers(rounds, 3))
            alpha = int(rng.integers(1, n))
            alpha1 = int(rng.integers(1, n + 1))
            m = alpha + 1
            lam = round(float(rng.uniform(0.1, 0.9)), 3)
            cutoff = int(rng.integers(1, n + 1))
            technique = _technique(kind, lam, cutoff)
            cfg = RunConfig(method="mcdoc", alpha=alpha, alpha1=alpha1, m=m,
                            T=rounds, mu=mu, N=n, drift=technique)
            got = run_retrieval(query, cfg, corpus)
            want = _replay_mcdoc_pipeline(corpus, q_counts, alpha, alpha1, m,
                                          rounds, mu, kind, lam, cutoff, n)
            ok = _pairs_match(got, want)
        elif kind == "rocchio":
            k1 = int(rng.integers(1, n + 1))
            t_terms = int(rng.integers(0, 4))
            gamma = round(float(rng.uniform(0.0, 2.0)), 3)
            got = rocchio_rank(query, corpus, k1, t_terms, gamma, n)
            want = oracles.rocchio_scores(query.terms, corpus, k1, t_terms,
                                          gamma)
            ok = _pairs_match(got, want)
        else:
            k1 = int(rng.integers(1, n + 1))
            lam = round(float(rng.uniform(0.1, 0.9)), 3)
            clip = int(rng.integers(1, 6))
            got = relevance_model_rank(query, corpus, k1, lam, clip, mu, n)
            want = oracles.relevance_model_scores(query.terms, corpus, k1,
                                                  lam, clip, mu)
            ok = _pairs_match(got, want)
        if not ok:
            mismatches.append((i, kind))
    elapsed = time.perf_counter() - start
    assert all(c >= 20 for c in counts.values())
    _report("criterion 2: oracle equivalence on 240 desk-scale instances",
            not mismatches and elapsed < 60.0,
            f"{elapsed:.1f}s, mismatches={mismatches}")


def _random_pq(rng, n):
    k = int(rng.integers(1, min(4, n) + 1))
    items = sorted(rng.choice(n, size=k, replace=False).tolist())
    weights = sorted((round(float(w), 6) for w in rng.uniform(0.05, 1.0, size=k)),
                     reverse=True)
    return items, weights


def _technique(kind, lam, cutoff):
    if kind in ("interpolation", "iterated_interpolation"):
        return DriftTechnique(kind, lambda_=lam)
    return DriftTechnique(kind, N=cutoff)


def test_criterion_3_lm_invariants():
    rng = np.random.default_rng(3003)
    ok = True
    detail = []

    # 1000 random (renderer, mu) pairs: smoothed distribution sums to 1
    pairs_checked = 0
    while pairs_checked < 1000:
        corpus = random_corpus(rng)
        clusters = singleton_cluster_index(corpus, 1.0) if pairs_checked % 3 \
            else build_clusters(corpus, 2, precompute_neighbors(corpus, 2, 1.0))
        for _ in range(25):
            mu = float(rng.uniform(0.1, 5000.0))
            if rng.integers(0, 2):
                renderer = int(rng.integers(0, corpus.n_docs))
                total = sum(term_probs(corpus, w, mu)[renderer]
                            for w in corpus.vocabulary)
            else:
                cid = int(rng.integers(0, len(clusters)))
                total = sum(math.exp(log_rendition(clusters, as_text(corpus, {w: 1}), mu)[cid])
                    for w in corpus.vocabulary)
            pairs_checked += 1
            if abs(total - 1.0) > 1e-9:
                ok = False
                detail.append(f"normalization off by {total - 1.0:.2e}")
                break
        if not ok:
            break

    # mu -> infinity limit approaches the collection model
    if ok:
        for _ in range(50):
            corpus = random_corpus(rng)
            d = int(rng.integers(0, corpus.n_docs))
            term = str(rng.choice(sorted(corpus.vocabulary)))
            limit = term_probs(corpus, term, 1e9)[d]
            if abs(limit - corpus.collection_prob(term)) > 1e-6:
                ok = False
                detail.append("mu->infinity limit broken")
                break

    # geometric mean and exp(-KL) induce the same candidate order
    if ok:
        checked = 0
        while checked < 100:
            corpus = random_corpus(rng)
            mu = float(rng.uniform(0.5, 2000.0))
            x = doc_counts(corpus, int(rng.integers(0, corpus.n_docs)))
            xlen = sum(x.values())
            cand = sorted(
                rng.choice(corpus.n_docs,
                           size=int(rng.integers(2, corpus.n_docs + 1)),
                           replace=False).tolist())
            probs = np.exp(log_rendition_docs(corpus, as_text(corpus, x), mu))
            p = {t: term_probs(corpus, t, mu) for t in x}
            gm, kl = [], []
            for d in cand:
                gm.append(probs[d])
                div = sum((c / xlen) * math.log((c / xlen) / p[t][d])
                          for t, c in x.items())
                kl.append(math.exp(-div))
            order_gm = sorted(range(len(cand)), key=lambda i: (-gm[i], cand[i]))
            order_kl = sorted(range(len(cand)), key=lambda i: (-kl[i], cand[i]))
            checked += 1
            if order_gm != order_kl:
                ok = False
                detail.append("geometric-mean vs exp(-KL) order differs")
                break
    _report("criterion 3: language-model invariants", ok, "; ".join(detail))


def test_criterion_4_drift_contracts():
    rng = np.random.default_rng(4004)
    ok = True
    detail = []
    for trial in range(100):
        corpus = random_corpus(rng)
        n = corpus.n_docs
        mu = float(rng.uniform(0.5, 100.0))
        q_counts = _random_text_counts(corpus, rng)
        terms = [t for t, c in sorted(q_counts.items()) for _ in range(c)]
        query = Query(f"q{trial}", terms)
        base = lm_baseline(query, corpus, mu, n)
        items, weights = _random_pq(rng, n)
        q_p = query_probs(corpus, q_counts, mu)
        method = score_mcdoc(PseudoQueryList(items, weights), max(1, n // 2),
                             n + 1, corpus, mu, q_p)
        at_one = interpolate(method, q_p, 1.0)
        at_zero = interpolate(method, q_p, 0.0)
        if at_one.doc_ids.tolist() != method.doc_ids.tolist():
            ok = False
            detail.append(f"lambda=1 endpoint broken at trial {trial}")
            break
        if at_zero.doc_ids.tolist() != base.doc_ids.tolist():
            ok = False
            detail.append(f"lambda=0 endpoint broken at trial {trial}")
            break
        cutoff = int(rng.integers(1, n + 1))
        reranked = truncated_rerank(method, q_p, cutoff)
        if set(reranked.doc_ids.tolist()) != set(method.doc_ids[:cutoff].tolist()):
            ok = False
            detail.append(f"retrieved set changed at trial {trial}")
            break
    _report("criterion 4: drift technique contracts", ok, "; ".join(detail))


def test_criterion_5_metric_fidelity():
    ap = average_precision(["d1", "d2", "d3"], {"d1", "d3"}, 1000)
    ap_ok = abs(ap - 5 / 6) <= 1e-9

    res = wilcoxon_two_sided([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0] * 6)
    w_ok = res.p_value == pytest.approx(0.03125, abs=1e-12) and res.significant

    rng = np.random.default_rng(5005)
    boundary_ok = True
    for _ in range(50):
        diffs = rng.normal(size=25)
        ranks = _midranks([abs(d) for d in diffs])
        w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
        if abs(_exact_p(ranks, w_plus) - _normal_p(ranks, w_plus)) > 0.01:
            boundary_ok = False
            break
    _report("criterion 5: metric fidelity",
            ap_ok and w_ok and boundary_ok,
            f"AP={ap:.6f}, exact p={res.p_value}")


def test_criterion_6_run_determinism(tmp_path):
    spec = tmp_path / "exp.cfg"
    spec.write_text(f"""\
corpus = {DATA / 'micro.trec'}
topics = {DATA / 'micro_topics.txt'}
qrels = {DATA / 'micro.qrels'}
output = out

[system]
name = baseline
method = baseline
mu = 2000

[system]
name = iterative
method = mcdoc
alpha = 3
alpha1 = 5
m = 6
T = 2
mu = 2000
drift = interpolation
lambda = 0.5
""")
    snapshots = []
    for threads in ("1", "1", "4"):
        code = cli_main(["run", str(spec), "--threads", threads])
        assert code == 0
        snapshots.append({p.name: p.read_bytes()
                          for p in sorted((tmp_path / "out").glob("*.run"))})
    ok = snapshots[0] == snapshots[1] == snapshots[2] and len(snapshots[0]) == 2
    _report("criterion 6: byte-identical runs across invocations and "
            "thread counts {1,4}", ok)


def _run_ap89_protocol(docs_glob: str, topics_path: str, qrels_path: str):
    """Porter stemming, title queries, mu=2000, depth 1000, topics 1-46,48-50."""
    import glob

    opts = PreprocessOptions(lowercase=True, stemmer="porter")
    pairs = []
    for path in sorted(glob.glob(docs_glob)):
        with open(path, "rb") as fh:
            pairs.extend(parse_trec(fh.read()))
    corpus = build_corpus(pairs, opts)
    topics = parse_topics(Path(topics_path).read_text())
    wanted = {str(i) for i in range(1, 47)} | {"48", "49", "50"}
    run = {}
    for qid, title in topics:
        if qid not in wanted:
            continue
        query = corpus.preprocess_query(qid, title)
        ranking = lm_baseline(query, corpus, 2000.0, 1000)
        run[qid] = [corpus.docnos[int(d)] for d in ranking.doc_ids]
    qrels = Qrels.parse(Path(qrels_path).read_text())
    return evaluate_run(run, qrels, 1000)


def test_protocol_harness_smoke(tmp_path):
    """The criterion-7 machinery runs end to end on synthetic stand-in data."""
    docs = tmp_path / "docs.trec"
    docs.write_text("".join(
        f"<DOC><DOCNO>S{i}</DOCNO><TEXT>{'solar ' * (i + 1)} power farm"
        f"</TEXT></DOC>" for i in range(6)))
    topics = tmp_path / "topics.txt"
    topics.write_text("<top>\n<num> Number: 1\n<title> solar power\n</top>\n"
                      "<top>\n<num> Number: 48\n<title> farm\n</top>\n"
                      "<top>\n<num> Number: 47\n<title> ignored topic\n</top>\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 S0 1\n1 0 S1 1\n48 0 S5 1\n47 0 S0 1\n")
    report = _run_ap89_protocol(str(docs), str(topics), str(qrels))
    assert set(report.per_query_ap) == {"1", "48"}  # topic 47 excluded
    assert 0.0 <= report.mean_ap <= 1.0


def test_criterion_7_trec_protocol_fidelity(capsys):
    """Data-conditional: executes the full evaluation protocol when a TREC
    collection is supplied via environment variables.  Informational only,
    because tokenization details are not pinned by any reference."""
    docs_glob = os.environ.get("PQLM_AP89_DOCS")
    topics_path = os.environ.get("PQLM_AP89_TOPICS")
    qrels_path = os.environ.get("PQLM_AP89_QRELS")
    if not (docs_glob and topics_path and qrels_path):
        print("SKIP: criterion 7 (no TREC collection configured; set "
              "PQLM_AP89_DOCS/TOPICS/QRELS)")
        pytest.skip("TREC AP89 collection not supplied")
    report = _run_ap89_protocol(docs_glob, topics_path, qrels_path)
    delta = report.mean_ap * 100 - 20.74
    verdict = "PASS" if abs(delta) <= 2.0 else "INFO(outside tolerance)"
    print(f"{verdict}: criterion 7: baseline MAP {report.mean_ap * 100:.2f}% "
          f"({delta:+.2f} vs 20.74%), recall {report.recall_micro * 100:.2f}%")
