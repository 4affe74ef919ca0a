"""Command-line surface: index, neighbors, cluster, run, eval, sweep.

Exit codes: 0 success, 1 usage error, 2 data error.  The default worker
count comes from PQLM_THREADS; outputs are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

from . import baselines
from .clustering import ClusterIndex, build_clusters
from .corpus import (
    Corpus,
    ParseError,
    PreprocessOptions,
    build_corpus,
    parse_lines,
    parse_topics,
    parse_trec,
)
from .drift import INTERPOLATING, TRUNCATING, DriftTechnique
from .evaluation import Qrels, evaluate_run, format_report, parse_run
from .experiment import SystemSpec, parse_spec
from .lm import NeighborIndex, precompute_neighbors
from .pipeline import RunConfig, check_cluster_index, format_run_lines, run_retrieval
from .storage import atomic_write

THREADS_ENV = "PQLM_THREADS"

# feedback method -> (name of its pqlm.baselines function, its spec keys with
# their defaults in argument order after (query, corpus)); the function is
# looked up by name at call time, so a rebound module attribute is used
_BASELINES = {
    "baseline": ("lm_baseline", {"mu": 2000.0, "N": 1000}),
    "rocchio": ("rocchio_rank", {"k1": 10, "t": 10, "gamma": 1.0, "N": 1000}),
    "relevance_model": ("relevance_model_rank",
                        {"k1": 10, "lambda_r": 0.5, "clip_k": 0, "mu": 2000.0, "N": 1000}),
}

_CONFIG_HELP = """\
system section keys (RunConfig fields) and defaults:
  method         vdoc | mcdoc | mccluster | baseline | rocchio | relevance_model
  alpha          top-renderer spread per round (default 10)
  alpha1         privileged round-1 spread (default: alpha)
  alpha_cluster  cluster spread for mccluster (default 2)
  beta           documents credited per cluster (default 20)
  delta          cluster size (default 40 above 1000 docs, else 10)
  m              re-scaling pool (mcdoc only), must exceed alpha (default 2*alpha)
  T              rounds (default 1)
  mu             Dirichlet smoothing parameter (default 2000)
  drift          none | interpolation | truncated_rerank | iterated_truncation |
                 iterated_rerank | iterated_interpolation (default none)
  lambda         interpolation weight in [0,1]
  drift_N        drift cutoff of the truncating techniques (default: N)
                 a system may grid over drift kinds; a point ignores lambda or
                 drift_N when its kind does not read the key and another kind
                 in the grid does; a key no kind in the grid reads is an error
  N              retrieval depth (default 1000)
""" + "".join(f"{method} keys and defaults: {', '.join(f'{k}={v}' for k, v in keys.items())}\n"
              for method, (_, keys) in _BASELINES.items())


class _OncePerMessage(logging.Handler):
    """Writes each distinct message once, as ``pqlm: <message>``, to the current
    ``sys.stderr``; ``handle`` holds the handler's lock around ``emit``."""

    def __init__(self):
        super().__init__()
        self._seen: set[str] = set()

    def emit(self, record: logging.LogRecord) -> None:
        if (message := record.getMessage()) not in self._seen:
            self._seen.add(message)
            sys.stderr.write(f"pqlm: {message}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV, "1")))
    except ValueError:
        return 1


def _thread_count(text: str) -> int:
    """The type of --threads: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="pqlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("index",
                       help="ingest documents and persist the corpus index")
    p.add_argument("inputs", nargs="+", help="document files")
    p.add_argument("-o", "--output", required=True, help="index file to write")
    p.add_argument("--format", choices=("trec", "lines"), default="trec")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--stemmer", choices=("none", "porter"), default="none")
    p.add_argument("--stoplist", help="file with one stopword per line")
    p.add_argument("--drop-length-one", action="store_true")

    p = sub.add_parser("neighbors",
                       help="precompute per-document best-renderer lists")
    p.add_argument("--index", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--mu", type=float, default=2000.0)
    p.add_argument("--threads", type=_thread_count, default=_default_threads())

    p = sub.add_parser("cluster",
                       help="build the overlapping clusters (member lists)")
    p.add_argument("--index", required=True)
    p.add_argument("--neighbors", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--delta", type=int, required=True)

    p = sub.add_parser("run",
                       help="execute an experiment spec and evaluate it",
                       formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog=_CONFIG_HELP)
    p.add_argument("spec", help="experiment spec file")
    p.add_argument("--threads", type=_thread_count, default=_default_threads())

    p = sub.add_parser("eval",
                       help="evaluate TREC run files against qrels")
    p.add_argument("--qrels", required=True)
    p.add_argument("runs", nargs="+", help="run files (first one is the baseline)")
    p.add_argument("--depth", type=int, default=1000)

    p = sub.add_parser("sweep",
                       help="vary the round-1 spread and emit a CSV of "
                            "(alpha1, MAP, recall)")
    p.add_argument("spec")
    p.add_argument("--system", required=True, help="system name from the spec")
    p.add_argument("--alpha1", type=int, nargs="+", required=True)
    p.add_argument("--threads", type=_thread_count, default=_default_threads())
    return parser


def _preprocess_options(lowercase: bool, stemmer: str, stoplist: str | None,
                        drop_length_one: bool) -> PreprocessOptions:
    """Options from the `pqlm index` flags or the spec keys; `stoplist` is
    a file with one stopword per line."""
    stop = frozenset(_parse_file(str.split, stoplist)) if stoplist else frozenset()
    return PreprocessOptions(lowercase, stemmer, stop, drop_length_one)


def _read_documents(paths, fmt: str) -> list[tuple[str, str]]:
    docs: list[tuple[str, str]] = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        docs.extend(parse_trec(data) if fmt == "trec" else parse_lines(data))
    return docs


def cmd_index(args) -> int:
    opts = _preprocess_options(not args.no_lowercase, args.stemmer, args.stoplist,
                               args.drop_length_one)
    excluded: list[str] = []
    corpus = build_corpus(_read_documents(args.inputs, args.format), opts, excluded)
    # an index without documents has no collection model to score against
    if not corpus.n_docs:
        raise ParseError(f"{' '.join(args.inputs)}: no document has a term left after "
                         "preprocessing; no index written")
    corpus.save(args.output)
    print(f"{corpus.n_docs} documents, {len(corpus.vocabulary)} terms, "
          f"{corpus.collection_length} tokens -> {args.output}")
    if excluded:
        print(f"excluded {len(excluded)} empty documents: {' '.join(excluded)}")
    return 0


def cmd_neighbors(args) -> int:
    corpus = Corpus.load(args.index)
    index = precompute_neighbors(corpus, args.k_max, args.mu, threads=args.threads)
    index.save(args.output)
    print(f"neighbor lists (k_max={index.k_max}, mu={index.mu}) -> {args.output}")
    return 0


def cmd_cluster(args) -> int:
    corpus = Corpus.load(args.index)
    neighbors = NeighborIndex.load(args.neighbors, corpus)
    clusters = build_clusters(corpus, args.delta, neighbors)
    clusters.save(args.output)
    print(f"{len(clusters)} clusters (delta={args.delta}, mu={clusters.mu}) "
          f"-> {args.output}")
    return 0


# -- run / sweep ----------------------------------------------------------


# the drift keys build the DriftTechnique; the rest are RunConfig fields
_ITERATIVE_KEYS = {f.name for f in fields(RunConfig)} - {"method"} | {"lambda", "drift_N"}
_FLOAT_KEYS = ("mu", "gamma", "lambda", "lambda_r")


def _typed(params: dict[str, str]) -> dict:
    """Spec values as numbers: float for _FLOAT_KEYS, int for every other
    key; a value of neither is a ParseError naming the key."""
    out = {}
    for key, value in params.items():
        number, noun = (float, "a number") if key in _FLOAT_KEYS else (int, "an integer")
        try:
            out[key] = number(value)
        except ValueError:
            raise ParseError(f"{key} {value!r} is not {noun}") from None
    return out


@contextlib.contextmanager
def _naming(system: SystemSpec):
    """Turns a ValueError raised in the block into a ParseError naming the
    system."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"system {system.name!r}: {exc}") from None


def _make_run_config(system: SystemSpec, point: dict[str, str]) -> RunConfig:
    """The RunConfig of one grid point of an iterative system; the drift
    kinds its grid takes decide which drift keys a point reads."""
    grid_drifts = system.params.get("drift", ["none"])
    raw = dict(point)
    drift_kind = raw.pop("drift", "none")
    params = _typed(raw)
    lambda_ = params.pop("lambda", None)
    drift_n = params.pop("drift_N", None)
    # one key set serves every drift kind in the grid, so a point drops a
    # key its kind does not read if another kind in the grid reads it
    if drift_kind not in INTERPOLATING and set(grid_drifts) & set(INTERPOLATING):
        lambda_ = None
    if drift_kind in TRUNCATING:
        if drift_n is None:
            drift_n = params.get("N", RunConfig.N)
    elif set(grid_drifts) & set(TRUNCATING):
        drift_n = None
    drift = DriftTechnique(drift_kind, lambda_, drift_n)
    return RunConfig(method=system.method, drift=drift, **params)


def _parse_file(parse, path, text: bool = True):
    """``parse`` of a file's UTF-8 text, or of its bytes when not ``text``;
    a data error in it names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8") if text else Path(path).read_bytes())
    except ValueError as exc:  # ParseError and UnicodeDecodeError among them
        raise ParseError(f"{path}: {exc}") from None


def _load_experiment(spec_path: str):
    spec = _parse_file(parse_spec, spec_path)
    if spec.index:
        corpus = Corpus.load(_rel(spec_path, spec.index))
    else:
        if not spec.corpus:
            raise ParseError("spec needs either an index or corpus paths")
        opts = _preprocess_options(spec.lowercase, spec.stemmer,
                                   spec.stoplist and _rel(spec_path, spec.stoplist),
                                   spec.drop_length_one)
        docs = _read_documents([_rel(spec_path, p) for p in spec.corpus], spec.format)
        corpus = build_corpus(docs, opts)
    if not spec.topics:
        raise ParseError("spec has no topics path")
    # topics decode with replacement, as documents do
    topics = _parse_file(parse_topics, _rel(spec_path, spec.topics), text=False)
    qrels = None
    if spec.qrels:
        qrels = _parse_file(Qrels.parse, _rel(spec_path, spec.qrels))
    return spec, corpus, topics, qrels


def _rel(spec_path: str, path: str) -> str:
    """Paths inside a spec resolve relative to the spec file."""
    p = Path(path)
    return str(p if p.is_absolute() else Path(spec_path).parent / p)


def _system_tag(name: str, point: dict[str, str]) -> str:
    digest = hashlib.sha1(
        ";".join(f"{k}={point[k]}" for k in sorted(point)).encode()
    ).hexdigest()[:8]
    return f"{name}.{digest}"


def _point_label(system: SystemSpec, point: dict[str, str]) -> str:
    varying = sorted(k for k, v in system.params.items() if len(v) > 1)
    if not varying:
        return system.name
    parts = "_".join(f"{k}={point[k]}" for k in varying)
    return f"{system.name}__{parts}"


def _configure(spec, spec_path, corpus, system: SystemSpec, point: dict[str, str],
               cluster_indexes: dict):
    """The checked scorer ``query -> ScoredRanking`` of one grid point, and
    the point's depth N.  An iterative point scores with ``run_retrieval``,
    its checked cluster index bound in; a feedback baseline with its
    ``pqlm.baselines`` function, defaults filled in.  Both are looked up
    at call time, so a rebound module attribute is used."""
    method = system.method
    keys = _BASELINES[method][1] if method in _BASELINES else _ITERATIVE_KEYS
    unknown = set(point) - set(keys)
    if unknown:
        raise ParseError(f"system {system.name!r}: invalid parameters "
                         f"for {method}: {', '.join(sorted(unknown))}")
    if method in _BASELINES:
        function, defaults = _BASELINES[method]
        with _naming(system):
            params = {**defaults, **_typed(point)}
            baselines.check_args(**params)
        return (lambda query: getattr(baselines, function)(query, corpus, *params.values()),
                params["N"])
    with _naming(system):
        config = _make_run_config(system, point)
    cluster_index = None
    if method == "mccluster":
        # one cluster index per (delta, mu), kept in `cluster_indexes` for the
        # other points: it and its memos depend only on the text, delta and mu
        delta = config.resolved_delta(corpus)
        key = (delta, config.mu)
        if key not in cluster_indexes:
            if spec.clusters:
                index = ClusterIndex.load(_rel(spec_path, spec.clusters), corpus)
            else:
                neighbors = (NeighborIndex.load(_rel(spec_path, spec.neighbors), corpus,
                                                mu=config.mu)
                             if spec.neighbors else precompute_neighbors(corpus, delta, config.mu))
                index = build_clusters(corpus, delta, neighbors)
            cluster_indexes[key] = index
        cluster_index = cluster_indexes[key]
        with _naming(system):
            check_cluster_index(cluster_index, config, corpus)
    return lambda query: run_retrieval(query, config, corpus, cluster_index), config.N


def _run_points(spec_path, spec, corpus, topics, qrels, points, threads: int):
    """Score each (system, grid point, run file name) of `points` in order:
    write its run file and yield the file's path, its row count and, with
    qrels, the report of its rows cut at the point's depth N.

    The topics and qrels are checked first, then every point with its
    cluster index and its run file, before any is scored: a bad point
    leaves no run files of the points before it, and bad topics or qrels
    cost no neighbour pass or cluster build."""
    queries, skipped = _queries(corpus, topics, qrels, _rel(spec_path, spec.topics))
    outdir = Path(_rel(spec_path, spec.output))
    configured, cluster_indexes = {}, {}
    for system, point, name in points:
        run_path = outdir / f"{name}.run"
        if run_path in configured:
            raise ParseError(f"{run_path}: two points of the spec write this run file")
        configured[run_path] = (_system_tag(system.name, point),
                                *_configure(spec, spec_path, corpus, system, point,
                                            cluster_indexes))
    for line in skipped:
        print(line, file=sys.stderr)
    outdir.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for run_path, (tag, score, depth) in configured.items():
            def one(query):
                return format_run_lines(query.query_id, score(query), corpus, tag)

            # a pool of one would only move the work off this thread
            text = "\n".join(filter(None, (pool.map if threads > 1 else map)(one, queries)))
            atomic_write(run_path, (text + "\n").encode())
            report = (evaluate_run(parse_run(text), qrels, depth)
                      if qrels is not None else None)
            # no field of a row holds a newline: docnos and query ids hold
            # no whitespace, and a tag's system name is read from one line
            yield run_path, text.count("\n") + 1 if text else 0, report


def _queries(corpus, topics, qrels, topics_path):
    """Preprocessed topics, and one stderr line for each topic skipped
    because no term of it is in the corpus vocabulary, for the caller to
    print once the spec has passed every check.  Some topic must be left to
    rank, and with qrels, the runs are evaluated, so some query must be in
    them."""
    out, skipped = [], []
    for qid, title in topics:
        q = corpus.preprocess_query(qid, title)
        if any(t in corpus.vocabulary for t in q.terms):
            out.append(q)
        else:
            why = "no term in the corpus vocabulary" if q.terms else "empty after preprocessing"
            skipped.append(f"skipping query {qid}: {why}")
    if not out:
        raise ParseError(f"{topics_path}: no topic has a term in the corpus vocabulary")
    if qrels is not None and not qrels.judges_any(q.query_id for q in out):
        raise ParseError("no query of the spec is in the qrels")
    return out, skipped


def cmd_run(args) -> int:
    spec, corpus, topics, qrels = _load_experiment(args.spec)
    points = [(system, point, _point_label(system, point))
              for system in spec.systems for point in system.grid()]
    reports = {}
    for run_path, rows, report in _run_points(args.spec, spec, corpus, topics, qrels,
                                              points, args.threads):
        print(f"wrote {run_path} ({rows} rows)")
        if report is not None:
            reports[run_path.stem] = report
    if reports:
        print()
        print(format_report(reports))
    return 0


def cmd_eval(args) -> int:
    # a run's report row is named by its file stem
    names = [Path(path).stem for path in args.runs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"{args.runs[names.index(name)]} and {args.runs[i]}: "
                             f"two run files named {name!r}")
    qrels = _parse_file(Qrels.parse, args.qrels)
    reports = {}
    for name, path in zip(names, args.runs):
        run = _parse_file(parse_run, path)
        if not qrels.judges_any(run):
            raise ParseError(f"{path}: no query of the run is in the qrels")
        try:
            reports[name] = evaluate_run(run, qrels, args.depth)
        except ParseError as exc:  # a query of the run lists a docno twice
            raise ParseError(f"{path}: {exc}") from None
    print(format_report(reports))
    for name, rep in reports.items():
        if rep.excluded:
            print(f"{name}: excluded queries with no relevant docs: "
                  f"{' '.join(rep.excluded)}")
    return 0


def cmd_sweep(args) -> int:
    spec, corpus, topics, qrels = _load_experiment(args.spec)
    if qrels is None:
        raise ParseError("sweep needs qrels in the spec")
    systems = {s.name: s for s in spec.systems}
    if args.system not in systems:
        raise ParseError(f"system {args.system!r} not found in spec")
    system = systems[args.system]
    grid = system.grid()
    if len(grid) != 1:
        raise ParseError("sweep expects a single-point system; move other "
                         "parameters out of grids")
    if system.method == "baseline":
        raise ParseError("the plain baseline has no round-1 spread to sweep; "
                         "pick an iterative or feedback system")
    # feedback baselines share the round-1 pool size through k1
    knob = "k1" if system.method in _BASELINES else "alpha1"
    points = [(system, {**grid[0], knob: str(alpha1)}, f"{i:03d}_{system.name}_alpha1={alpha1}")
              for i, alpha1 in enumerate(args.alpha1)]
    reports = [report for *_, report in _run_points(args.spec, spec, corpus, topics, qrels,
                                                    points, args.threads)]
    rows = ["alpha1,map,recall"] + [f"{alpha1},{report.mean_ap:.6f},{report.recall_micro:.6f}"
                                    for alpha1, report in zip(args.alpha1, reports)]
    csv_path = Path(_rel(args.spec, spec.output)) / f"sweep_{system.name}.csv"
    atomic_write(csv_path, ("\n".join(rows) + "\n").encode())
    print("\n".join(rows))
    print(f"wrote {csv_path}")
    return 0


_COMMANDS = {
    "index": cmd_index,
    "neighbors": cmd_neighbors,
    "cluster": cmd_cluster,
    "run": cmd_run,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    logger, handler = logging.getLogger("pqlm"), _OncePerMessage()
    if not logger.handlers:  # a handler of its own takes the command's records
        logger.addHandler(handler)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"pqlm: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
