import contextlib
import io
import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlm.cli import main
from pqlm.evaluation import Qrels, evaluate_run, parse_run

DATA = Path(__file__).parent / "data"


def write_spec(tmp_path, body: str) -> Path:
    spec = tmp_path / "exp.cfg"
    spec.write_text(body)
    return spec


def baseline_spec(tmp_path, extra_systems: str = "") -> Path:
    return write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {DATA / 'micro_topics.txt'}
qrels = {DATA / 'micro.qrels'}
output = out

[system]
name = baseline
method = baseline
mu = 2000
N = 1000
{extra_systems}""")


class TestIndex:
    def test_summary_and_determinism(self, tmp_path, capsys):
        doc = tmp_path / "two.trec"
        doc.write_text("<DOC><DOCNO>A</DOCNO><TEXT>x y</TEXT></DOC>"
                       "<DOC><DOCNO>B</DOCNO><TEXT>y z</TEXT></DOC>")
        out = tmp_path / "index.json"
        assert main(["index", str(doc), "-o", str(out)]) == 0
        assert "2 documents" in capsys.readouterr().out
        first = out.read_bytes()
        assert main(["index", str(doc), "-o", str(out)]) == 0
        assert out.read_bytes() == first

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.trec"
        code = main(["index", str(missing), "-o", str(tmp_path / "i.json")])
        assert code == 2
        assert "nope.trec" in capsys.readouterr().err

    def test_duplicate_docno_is_data_error(self, tmp_path, capsys):
        doc = tmp_path / "dup.trec"
        doc.write_text("<DOC><DOCNO>A</DOCNO><TEXT>x</TEXT></DOC>"
                       "<DOC><DOCNO>A</DOCNO><TEXT>y</TEXT></DOC>")
        assert main(["index", str(doc), "-o", str(tmp_path / "i.json")]) == 2

    @pytest.mark.parametrize("docno", [" AP 1 ", "  "])
    def test_docno_not_one_run_column_is_data_error(self, tmp_path, capsys, docno):
        doc = tmp_path / "ws.trec"
        doc.write_text(f"<DOC><DOCNO>{docno}</DOCNO><TEXT>x</TEXT></DOC>")
        out = tmp_path / "i.json"
        _assert_data_error(main(["index", str(doc), "-o", str(out)]), capsys,
                           "is empty or contains whitespace")
        assert not out.exists()

    @pytest.mark.parametrize("texts, stoplist", [
        (["", ""], False),
        (["<DOC><DOCNO>A</DOCNO><TEXT>the and the</TEXT></DOC>"], True),
    ], ids=["empty-files", "all-stopwords"])
    def test_index_without_documents_is_data_error(self, tmp_path, capsys, texts, stoplist):
        docs = [tmp_path / f"d{i}.trec" for i in range(len(texts))]
        for doc, text in zip(docs, texts):
            doc.write_text(text)
        out = tmp_path / "i.json"
        argv = ["index", *map(str, docs), "-o", str(out)]
        if stoplist:
            (tmp_path / "stop.txt").write_text("the\nand\n")
            argv += ["--stoplist", str(tmp_path / "stop.txt")]
        _assert_data_error(main(argv), capsys,
                           f"{' '.join(map(str, docs))}: no document has a term left")
        assert not out.exists()

    @pytest.mark.parametrize("texts, code, stdout", [
        (["the and the"], 2, ""),
        (["the and the", "solar the"], 0,
         "1 documents, 1 terms, 1 tokens -> {out}\nexcluded 1 empty documents: D0\n"),
    ], ids=["none-left", "one-left"])
    def test_empty_documents_reported_once(self, tmp_path, texts, code, stdout):
        # in a fresh interpreter: pytest's log capture would hide what
        # Python's last-resort handler writes to stderr
        import subprocess
        import sys

        doc = tmp_path / "d.trec"
        doc.write_text("".join(f"<DOC><DOCNO>D{i}</DOCNO><TEXT>{text}</TEXT></DOC>"
                               for i, text in enumerate(texts)))
        (tmp_path / "stop.txt").write_text("the\nand\n")
        out = tmp_path / "i.json"
        proc = subprocess.run([sys.executable, "-m", "pqlm.cli", "index", str(doc), "-o",
                               str(out), "--stoplist", str(tmp_path / "stop.txt")],
                              capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stdout == stdout.format(out=out)
        if code:
            assert re.fullmatch(r"pqlm: [^\n]*no document has a term left[^\n]*\n",
                                proc.stderr), proc.stderr
        else:
            assert proc.stderr == ""

    def test_usage_error_exit_code(self, capsys):
        assert main(["index"]) == 1
        assert main(["frobnicate"]) == 1

    def test_lines_format(self, tmp_path, capsys):
        doc = tmp_path / "docs.txt"
        doc.write_text("solar power\nwind power\n")
        out = tmp_path / "index.json"
        assert main(["index", str(doc), "-o", str(out), "--format", "lines"]) == 0
        assert "2 documents" in capsys.readouterr().out
        from pqlm import Corpus

        corpus = Corpus.load(out)
        assert corpus.docnos == ["L0", "L1"]


class TestArtifactCommands:
    def test_neighbors_then_cluster(self, tmp_path, capsys):
        doc = tmp_path / "docs.trec"
        doc.write_text("".join(
            f"<DOC><DOCNO>D{i}</DOCNO><TEXT>{'x ' * (i + 1)}y</TEXT></DOC>"
            for i in range(4)))
        index = tmp_path / "index.json"
        nbrs = tmp_path / "nbrs.json"
        clusters = tmp_path / "clusters.json"
        assert main(["index", str(doc), "-o", str(index)]) == 0
        assert main(["neighbors", "--index", str(index), "-o", str(nbrs),
                     "--k-max", "2", "--mu", "5"]) == 0
        assert main(["cluster", "--index", str(index), "--neighbors",
                     str(nbrs), "-o", str(clusters), "--delta", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 clusters" in out

    def test_cluster_delta_beyond_kmax(self, tmp_path, capsys):
        doc = tmp_path / "docs.trec"
        doc.write_text("<DOC><DOCNO>A</DOCNO><TEXT>x</TEXT></DOC>"
                       "<DOC><DOCNO>B</DOCNO><TEXT>x y</TEXT></DOC>")
        index = tmp_path / "i.json"
        nbrs = tmp_path / "n.json"
        main(["index", str(doc), "-o", str(index)])
        main(["neighbors", "--index", str(index), "-o", str(nbrs),
              "--k-max", "1", "--mu", "5"])
        assert main(["cluster", "--index", str(index), "--neighbors",
                     str(nbrs), "-o", str(tmp_path / "c.json"),
                     "--delta", "2"]) == 2


def _artifacts(tmp_path, n_docs=6, k_max=2, delta=2):
    """Index, neighbour and cluster files for n_docs small documents."""
    doc = tmp_path / "docs.trec"
    doc.write_text("".join(
        f"<DOC><DOCNO>D{i}</DOCNO><TEXT>{'x ' * (i + 1)}y w{i % 3}</TEXT></DOC>"
        for i in range(n_docs)))
    paths = {name: tmp_path / f"{name}.json" for name in ("index", "nbrs", "clusters")}
    assert main(["index", str(doc), "-o", str(paths["index"])]) == 0
    assert main(["neighbors", "--index", str(paths["index"]), "-o", str(paths["nbrs"]),
                 "--k-max", str(k_max), "--mu", "5"]) == 0
    assert main(["cluster", "--index", str(paths["index"]), "--neighbors",
                 str(paths["nbrs"]), "-o", str(paths["clusters"]),
                 "--delta", str(delta)]) == 0
    return paths


def _rewrite(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _assert_data_error(code, capsys, needle):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("pqlm: ") and err.count("\n") == 1, err
    assert needle in err and "Traceback" not in err


class TestArtifactChecks:
    """Loaded artifacts are held to what the commands that write them
    guarantee; a violation is a one-line data error (exit 2)."""

    def _neighbors(self, paths):
        return main(["neighbors", "--index", str(paths["index"]), "-o",
                     str(paths["nbrs"]), "--k-max", "2", "--mu", "5"])

    def test_duplicate_docno_in_index(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()

        def edit(p):
            p["documents"][3]["docno"] = p["documents"][1]["docno"]
        _rewrite(paths["index"], edit)
        _assert_data_error(self._neighbors(paths), capsys, "docno 'D1' is duplicated")

    @pytest.mark.parametrize("docno", ["D 9", "", 7])
    def test_docno_not_one_run_column_in_index(self, tmp_path, capsys, docno):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["index"], lambda p: p["documents"][2].update(docno=docno))
        _assert_data_error(self._neighbors(paths), capsys, "not a string without whitespace")

    @pytest.mark.parametrize("count", [-3, 0, 2.5, "3", True, pytest.param(2**53, id="2**53"),
                                       pytest.param(10**400, id="10**400")])
    def test_count_not_a_positive_int_in_index(self, tmp_path, capsys, count):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["index"], lambda p: p["documents"][2]["counts"].update(y=count))
        _assert_data_error(self._neighbors(paths), capsys, "needs positive integer counts")

    def test_collection_length_must_stay_below_2_53(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        for last, code in ((2**52 - 1, 0), (2**52, 2)):
            _rewrite(paths["index"], lambda p: p.update(documents=[
                {"docno": "A", "counts": {"x": 2**52}},
                {"docno": "B", "counts": {"x": last}}]))
            assert self._neighbors(paths) == code
        _assert_data_error(code, capsys, "keep the collection length below 2**53")

    def test_document_without_terms_in_index(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["index"], lambda p: p["documents"][0].update(counts={}))
        _assert_data_error(self._neighbors(paths), capsys, "needs positive integer counts")

    @pytest.mark.parametrize("key, value, needle", [
        ("stoplist", ["the", 5], "options stoplist is not a list of strings"),
        ("stoplist", "the", "options stoplist is not a list of strings"),
        ("lowercase", "no", "options lowercase 'no' is not a boolean"),
        ("drop_length_one", 0, "options drop_length_one 0 is not a boolean"),
        ("stemmer", "snowball", "unknown stemmer 'snowball'"),
    ], ids=["stoplist-item", "stoplist-string", "lowercase", "drop-length-one", "stemmer"])
    def test_options_not_what_index_writes(self, tmp_path, capsys, key, value, needle):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["index"], lambda p: p["options"].update({key: value}))
        _assert_data_error(self._neighbors(paths), capsys,
                           f"{paths['index']}: malformed index payload: {needle}")

    def _cluster(self, paths):
        return main(["cluster", "--index", str(paths["index"]), "--neighbors",
                     str(paths["nbrs"]), "-o", str(paths["clusters"]), "--delta", "2"])

    @pytest.mark.parametrize("bad_id", [99, 6, -1, 1.0])
    def test_neighbor_id_out_of_range(self, tmp_path, capsys, bad_id):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["nbrs"], lambda p: p["neighbors"][4].__setitem__(1, bad_id))
        _assert_data_error(self._cluster(paths), capsys,
                           "neighbor list 4 is not 2 distinct ids in 0..5")

    def test_neighbor_row_not_k_max_long(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["nbrs"], lambda p: p["neighbors"][2].pop())
        _assert_data_error(self._cluster(paths), capsys, "neighbor list 2")

    def test_neighbor_row_repeats_an_id(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["nbrs"], lambda p: p["neighbors"][0].__setitem__(1, p["neighbors"][0][0]))
        _assert_data_error(self._cluster(paths), capsys, "neighbor list 0")

    def test_neighbor_rows_not_one_per_document(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["nbrs"], lambda p: p["neighbors"].pop())
        _assert_data_error(self._cluster(paths), capsys, "5 neighbor lists for 6 documents")

    @pytest.mark.parametrize("mu", ["abc", 0, -1, True, float("inf")])
    def test_mu_not_a_positive_finite_number(self, tmp_path, capsys, mu):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["clusters"], lambda p: p.update(mu=mu))
        _assert_data_error(self._run_with_clusters(tmp_path, paths), capsys,
                           "mu is not a positive finite number")
        _rewrite(paths["nbrs"], lambda p: p.update(mu=mu))
        _assert_data_error(self._cluster(paths), capsys, "mu is not a positive finite number")

    def _run_with_clusters(self, tmp_path, paths):
        topics = tmp_path / "topics.txt"
        topics.write_text("<top><num> 1 <title> x w1 </top>")
        spec = write_spec(tmp_path, f"""\
index = {paths['index']}
clusters = {paths['clusters']}
topics = {topics}
output = out

[system]
name = clustered
method = mccluster
delta = 2
mu = 5
""")
        return main(["run", str(spec)])

    def test_clusters_load_when_intact(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        assert self._run_with_clusters(tmp_path, paths) == 0

    @pytest.mark.parametrize("delta, mu, needle", [
        (2, 5, "cluster index was built with delta=3"),
        (3, 7, "cluster index was built with mu=5.0"),
    ])
    def test_cluster_file_mismatch_writes_no_run_file(self, tmp_path, capsys,
                                                      delta, mu, needle):
        # the vdoc point comes first; the clusters point is checked before it runs
        paths = _artifacts(tmp_path, k_max=3, delta=3)
        capsys.readouterr()
        topics = tmp_path / "topics.txt"
        topics.write_text("<top><num> 1 <title> x w1 </top>")
        spec = write_spec(tmp_path, f"""\
index = {paths['index']}
clusters = {paths['clusters']}
topics = {topics}
output = out

[system]
name = v
method = vdoc
mu = 5

[system]
name = clustered
method = mccluster
delta = {delta}
mu = {mu}
""")
        _assert_data_error(main(["run", str(spec)]), capsys, f"system 'clustered': {needle}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad_id", [99, -1])
    def test_cluster_member_out_of_range(self, tmp_path, capsys, bad_id):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["clusters"], lambda p: p["members"][3].__setitem__(0, bad_id))
        _assert_data_error(self._run_with_clusters(tmp_path, paths), capsys,
                           "member list 3 is not 2 distinct ids in 0..5")

    def test_cluster_size_not_a_positive_int(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["clusters"], lambda p: p.update(delta="2\n"))
        _assert_data_error(self._run_with_clusters(tmp_path, paths), capsys,
                           "member list length is not a positive integer")

    def test_cluster_lists_not_one_per_document(self, tmp_path, capsys):
        paths = _artifacts(tmp_path)
        capsys.readouterr()
        _rewrite(paths["clusters"], lambda p: p["members"].append([0, 1]))
        _assert_data_error(self._run_with_clusters(tmp_path, paths), capsys,
                           "7 member lists for 6 documents")


_FUZZ_SPEC = """\
index = index.json
clusters = clusters.json
topics = topics.txt
qrels = qrels.txt
output = out

[system]
name = base
method = baseline
mu = 5

[system]
name = roc
method = rocchio
k1 = 2
t = 2

[system]
name = rm
method = relevance_model
k1 = 2
clip_k = 3
mu = 5

[system]
name = mc
method = mccluster
alpha1 = 3
alpha_cluster = 1
beta = 2
delta = 2
T = 2
mu = 5
drift = interpolation
lambda = 0.5
"""

# commands that read each fuzzed file
_FUZZ_COMMANDS = {
    "index": (["neighbors", "--index", "index.json", "-o", "n2.json", "--k-max", "2",
               "--mu", "5"], ["run", "exp.cfg"]),
    "nbrs": (["cluster", "--index", "index.json", "--neighbors", "nbrs.json",
              "-o", "c2.json", "--delta", "2"],),
    "clusters": (["run", "exp.cfg"],),
    "spec": (["run", "exp.cfg"],),
}

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**53, 10**400])
    | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4)

# spec values: small numbers only, since a huge T is a long run, not an error
_SPEC_VALUES = st.sampled_from([
    "", "0", "-1", "1", "2", "3", "2.5", "1e3", "nan", "inf", "-inf", "x", "1 2",
    "none", "vdoc", "mcdoc", "mccluster", "baseline", "rocchio", "relevance_model",
    "interpolation", "truncated_rerank", "iterated_truncation", "missing.json",
    "index.json", "exp.cfg", "out", "[system]", "=", "k1 = 2"])


def _mutate_json(data, payload):
    """Replace, drop or add one node of a JSON tree, chosen by `data`."""
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys)) if keys else None
        child = None if key is None else node[key]
        if isinstance(child, (dict, list)) and data.draw(st.booleans()):
            node = child
            continue
        op = data.draw(st.sampled_from(["replace", "drop", "add"] if keys else ["add"]))
        if op == "replace":
            node[key] = data.draw(_JSON_VALUES)
        elif op == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.text(max_size=3))] = data.draw(_JSON_VALUES)
        else:
            node.insert(data.draw(st.integers(0, len(node))), data.draw(_JSON_VALUES))
        return


def _mutate_spec(data, text):
    """Drop, repeat, insert or rewrite one spec line."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["drop", "repeat", "insert", "value"]))
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    elif op == "insert":
        key = data.draw(st.sampled_from(["name", "method", "alpha", "m", "N", "mu", "k1",
                                         "clip_k", "lambda", "lambda_r", "gamma", "delta",
                                         "drift", "drift_N", "neighbors", "index", "corpus",
                                         "bogus"]))
        lines.insert(i, f"{key} = {data.draw(_SPEC_VALUES)}")
    else:
        lines[i] = f"{lines[i].partition('=')[0]}= {data.draw(_SPEC_VALUES)}"
    return "\n".join(lines) + "\n"


class TestFuzz:
    """Mutated index, neighbour, cluster and spec files end in exit 0 or a
    data error (exit 2), never in a traceback."""

    def test_mutated_inputs(self, tmp_path):
        intact = _artifacts(tmp_path)
        (tmp_path / "topics.txt").write_text(
            "<top><num> 1 <title> x w1 </top><top><num> 2 <title> y w2 </top>")
        (tmp_path / "qrels.txt").write_text("1 0 D1 1\n2 0 D2 1\n")
        (tmp_path / "exp.cfg").write_text(_FUZZ_SPEC)
        files = [p.name for p in intact.values()] + ["topics.txt", "qrels.txt", "exp.cfg"]

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(st.sampled_from(sorted(_FUZZ_COMMANDS)), st.data())
        def check(target, data):
            with tempfile.TemporaryDirectory() as work:
                work = Path(work)
                for name in files:
                    shutil.copy(tmp_path / name, work / name)
                path = work / ("exp.cfg" if target == "spec" else intact[target].name)
                raw = path.read_text()
                if target == "spec":
                    raw = _mutate_spec(data, raw)
                elif data.draw(st.booleans()):
                    payload = json.loads(raw)
                    _mutate_json(data, payload)
                    raw = json.dumps(payload)
                else:
                    raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
                path.write_text(raw)
                for argv in _FUZZ_COMMANDS[target]:
                    argv = [str(work / a) if a.endswith((".json", ".cfg")) else a
                            for a in argv]
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err), \
                            contextlib.redirect_stdout(io.StringIO()):
                        code = main(argv)
                    assert code in (0, 2) and "Traceback" not in err.getvalue()
                    assert code == 0 or err.getvalue().split("\n")[-2].startswith("pqlm: ")

        check()


class TestRun:
    def test_baseline_map_matches_recomputation(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path)
        assert main(["run", str(spec)]) == 0
        out = capsys.readouterr().out
        run_path = tmp_path / "out" / "baseline.run"
        assert run_path.exists()
        report = evaluate_run(parse_run(run_path.read_text()),
                              Qrels.parse((DATA / "micro.qrels").read_text()),
                              1000)
        assert f"{report.mean_ap * 100:.2f}%" in out
        assert f"{report.recall_micro * 100:.2f}%" in out

    def test_degenerate_mcdoc_matches_baseline_ranking(self, tmp_path):
        spec = baseline_spec(tmp_path, """
[system]
name = degenerate
method = mcdoc
alpha = 2
alpha1 = 8
m = 9
T = 1
mu = 2000
N = 1000
""")
        assert main(["run", str(spec)]) == 0

        def projection(path):
            return [tuple(line.split()[:4]) for line in
                    path.read_text().splitlines()]

        assert projection(tmp_path / "out" / "baseline.run") == \
            projection(tmp_path / "out" / "degenerate.run")

    def test_grid_produces_one_run_per_point(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path, """
[system]
name = vd
method = vdoc
alpha = 2 3
T = 1
mu = 2000
""")
        assert main(["run", str(spec)]) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("vd__*.run"))
        assert names == ["vd__alpha=2.run", "vd__alpha=3.run"]

    def test_mccluster_and_drift_via_spec(self, tmp_path):
        spec = baseline_spec(tmp_path, """
[system]
name = clustered
method = mccluster
alpha = 1
alpha1 = 4
alpha_cluster = 2
beta = 3
delta = 3
m = 2
T = 2
mu = 2000
drift = interpolation
lambda = 0.5
N = 1000
""")
        assert main(["run", str(spec)]) == 0
        assert (tmp_path / "out" / "clustered.run").exists()

    def test_neighbors_file_in_the_spec(self, tmp_path, capsys):
        index, nbrs, clusters = (tmp_path / f"{name}.json" for name in "inc")
        assert main(["index", str(DATA / "micro.trec"), "-o", str(index)]) == 0
        assert main(["neighbors", "--index", str(index), "-o", str(nbrs),
                     "--k-max", "2"]) == 0
        assert main(["cluster", "--index", str(index), "--neighbors", str(nbrs),
                     "-o", str(clusters), "--delta", "2"]) == 0
        runs = {}
        for key, path, delta in (("clusters", clusters, 2), ("neighbors", nbrs, 2),
                                 ("neighbors", nbrs, 3)):
            spec = write_spec(tmp_path, f"""\
index = {index}
{key} = {path}
topics = {DATA / 'micro_topics.txt'}
output = {key}-{delta}

[system]
name = clustered
method = mccluster
alpha1 = 4
alpha_cluster = 2
beta = 2
delta = {delta}
T = 2
""")
            capsys.readouterr()
            code = main(["run", str(spec)])
            if delta == 2:
                assert code == 0
                runs[key] = {p.name: p.read_bytes()
                             for p in (tmp_path / f"{key}-{delta}").glob("*.run")}
        # the spec's neighbour file builds the clusters that `pqlm cluster` writes
        assert len(runs["clusters"]) == 1 and runs["neighbors"] == runs["clusters"]
        _assert_data_error(code, capsys, "delta=3 exceeds precomputed k_max=2; recompute")
        assert not (tmp_path / "neighbors-3").exists()

    def test_query_without_vocabulary_terms_is_skipped(self, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_text((DATA / "micro_topics.txt").read_text()
                          + "\n<top>\n<num> Number: 999\n<title> zebra quokka\n</top>\n")
        spec = write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {topics}
output = out

[system]
name = baseline
method = baseline

[system]
name = iter
method = mcdoc
alpha = 2
alpha1 = 3
m = 4
T = 2
""")
        assert main(["run", str(spec)]) == 0
        err = capsys.readouterr().err
        assert err.count("skipping query 999: no term in the corpus vocabulary") == 1
        for name in ("baseline.run", "iter.run"):
            lines = (tmp_path / "out" / name).read_text().splitlines()
            assert {line.split()[0] for line in lines} == {"901", "902"}

    @pytest.mark.parametrize("target, old, new, needle", [
        # a docno or system name with whitespace would split a run row's column
        ("micro.trec", "<DOCNO>M02</DOCNO>", "<DOCNO> AP 1 </DOCNO>",
         "docno 'AP 1' is empty or contains whitespace"),
        ("exp.cfg", "name = baseline", "name = my base",
         "system name 'my base' contains whitespace"),
        # one qid is one ranked block of the run file
        ("micro_topics.txt", "Number: 902", "Number: 901", "duplicate topic number '901'"),
    ], ids=["docno", "system-name", "topic-number"])
    def test_input_that_breaks_the_run_format_writes_nothing(self, tmp_path, capsys,
                                                             target, old, new, needle):
        for name in ("micro.trec", "micro_topics.txt", "micro.qrels"):
            shutil.copy(DATA / name, tmp_path / name)
        spec = baseline_spec(tmp_path)
        spec.write_text(spec.read_text().replace(f"{DATA}/", ""))
        path = tmp_path / target
        path.write_text(path.read_text().replace(old, new))
        _assert_data_error(main(["run", str(spec)]), capsys, needle)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("topics_text", [
        "", "<top>\n<num> Number: 999\n<title> zebra quokka\n</top>\n",
    ], ids=["empty", "out-of-vocabulary"])
    def test_topics_without_a_rankable_query_write_nothing(self, tmp_path, capsys, command,
                                                           topics_text):
        topics = tmp_path / "topics.txt"
        topics.write_text(topics_text)
        # sweep needs qrels; run is checked without them, where nothing else stops it
        qrels = f"qrels = {DATA / 'micro.qrels'}\n" if command == "sweep" else ""
        spec = write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {topics}
{qrels}output = out

[system]
name = roc
method = rocchio
""")
        argv = {"run": ["run", str(spec)],
                "sweep": ["sweep", str(spec), "--system", "roc", "--alpha1", "2"]}[command]
        _assert_data_error(main(argv), capsys,
                           f"{topics}: no topic has a term in the corpus vocabulary")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("topics_text, qrels_text, needle", [
        ("", None, "no topic has a term in the corpus vocabulary"),
        (None, "777 0 M01 1\n", "no query of the spec is in the qrels"),
    ], ids=["empty-topics", "qrels-judging-no-query"])
    def test_topics_and_qrels_checked_before_any_neighbour_pass(
            self, tmp_path, capsys, monkeypatch, topics_text, qrels_text, needle):
        import pqlm.cli

        calls = []
        for name in ("precompute_neighbors", "build_clusters"):
            wrapped = getattr(pqlm.cli, name)
            monkeypatch.setattr(pqlm.cli, name, lambda *a, name=name, wrapped=wrapped, **kw:
                                calls.append(name) or wrapped(*a, **kw))
        spec = baseline_spec(tmp_path, "[system]\nname = mc\nmethod = mccluster\ndelta = 3\n")
        if topics_text is not None:
            (tmp_path / "topics.txt").write_text(topics_text)
            spec.write_text(spec.read_text().replace(str(DATA / "micro_topics.txt"),
                                                     str(tmp_path / "topics.txt")))
        if qrels_text is not None:
            (tmp_path / "qrels.txt").write_text(qrels_text)
            spec.write_text(spec.read_text().replace(str(DATA / "micro.qrels"),
                                                     str(tmp_path / "qrels.txt")))
        _assert_data_error(main(["run", str(spec)]), capsys, needle)
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_bad_point_error_is_the_only_line(self, tmp_path, capsys):
        # a skipped topic's line is printed only once every point has passed
        topics = tmp_path / "topics.txt"
        topics.write_text((DATA / "micro_topics.txt").read_text()
                          + "\n<top>\n<num> Number: 999\n<title> zebra quokka\n</top>\n")
        spec = baseline_spec(tmp_path, "[system]\nname = bad\nmethod = rocchio\nk1 = 0\n")
        spec.write_text(spec.read_text().replace(str(DATA / "micro_topics.txt"), str(topics)))
        _assert_data_error(main(["run", str(spec)]), capsys, "k1 must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, needle", [
        ("Number: 902", "Number: 901", "duplicate topic number '901'"),
        ("<num> Number: 902", "", "topic block without <num>"),
        ("<title> poetry verse", "", "topic 902 has no <title>"),
    ], ids=["duplicate-number", "no-num", "no-title"])
    def test_topics_error_names_the_file(self, tmp_path, capsys, old, new, needle):
        topics = tmp_path / "topics.txt"
        topics.write_text((DATA / "micro_topics.txt").read_text().replace(old, new))
        spec = baseline_spec(tmp_path)
        spec.write_text(spec.read_text().replace(str(DATA / "micro_topics.txt"), str(topics)))
        _assert_data_error(main(["run", str(spec)]), capsys, f"{topics}: {needle}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("systems, run_file", [
        ("[system]\nname = baseline\nmethod = rocchio\n", "baseline.run"),
        ("[system]\nname = x\nmethod = mcdoc\nalpha1 = 1 2\n"
         "[system]\nname = x__alpha1=1\nmethod = vdoc\n", "x__alpha1=1.run"),
    ], ids=["same-system-name", "grid-label"])
    def test_points_sharing_a_run_file_write_nothing(self, tmp_path, capsys, systems, run_file):
        spec = baseline_spec(tmp_path, systems)
        _assert_data_error(main(["run", str(spec)]), capsys,
                           f"{tmp_path / 'out' / run_file}: two points of the spec write")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, key, value", [
        ("baseline", "N", "0"), ("baseline", "mu", "0"),
        ("rocchio", "k1", "0"), ("rocchio", "t", "-1"), ("rocchio", "gamma", "-0.5"),
        ("relevance_model", "lambda_r", "1"), ("relevance_model", "lambda_r", "0"),
        ("relevance_model", "clip_k", "-1"), ("relevance_model", "mu", "-inf"),
        ("rocchio", "gamma", "inf"),
    ])
    def test_bad_feedback_value_writes_no_run_file(self, tmp_path, capsys, method, key, value):
        # the good baseline system comes first: no run file may be written for it
        spec = baseline_spec(tmp_path, f"""
[system]
name = bad
method = {method}
{key} = {value}
""")
        _assert_data_error(main(["run", str(spec)]), capsys, f"{key} must be")
        assert not (tmp_path / "out").exists()

    def test_topics_decode_with_replacement(self, tmp_path, capsys):
        topics = tmp_path / "topics.txt"
        topics.write_bytes(b"\xff\xfe" + (DATA / "micro_topics.txt").read_bytes())
        spec = baseline_spec(tmp_path)
        spec.write_text(spec.read_text().replace(str(DATA / "micro_topics.txt"), str(topics)))
        assert main(["run", str(spec)]) == 0
        lines = (tmp_path / "out" / "baseline.run").read_text().splitlines()
        assert {line.split()[0] for line in lines} == {"901", "902"}

    def test_qrels_not_utf8_names_the_file(self, tmp_path, capsys):
        qrels = tmp_path / "bad.qrels"
        qrels.write_bytes((DATA / "micro.qrels").read_bytes() + b"902 0 M\xff 1\n")
        spec = baseline_spec(tmp_path)
        spec.write_text(spec.read_text().replace(str(DATA / "micro.qrels"), str(qrels)))
        _assert_data_error(main(["run", str(spec)]), capsys, f"{qrels}: 'utf-8' codec")
        assert not (tmp_path / "out").exists()

    def test_qrels_judging_no_query_writes_no_run_file(self, tmp_path, capsys):
        qrels = tmp_path / "other.qrels"
        qrels.write_text("903 0 M01 1\n")
        spec = baseline_spec(tmp_path)
        spec.write_text(spec.read_text().replace(str(DATA / "micro.qrels"), str(qrels)))
        _assert_data_error(main(["run", str(spec)]), capsys, "no query of the spec is in the qrels")
        assert not (tmp_path / "out").exists()

    def test_invalid_grid_value_is_data_error(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path, """
[system]
name = bad
method = mcdoc
alpha = 0
""")
        assert main(["run", str(spec)]) == 2

    @pytest.mark.parametrize("method", ["vdoc", "relevance_mode"])
    def test_parameter_of_another_method_is_data_error(self, tmp_path, capsys, method):
        spec = baseline_spec(tmp_path, f"""
[system]
name = bad
method = {method}
k1 = 3
""")
        _assert_data_error(main(["run", str(spec)]), capsys, f"invalid parameters for {method}: k1")

    @pytest.mark.parametrize("depth", [0, -1])
    @pytest.mark.parametrize("method", ["baseline", "rocchio", "relevance_model"])
    def test_feedback_depth_below_one_is_data_error(self, tmp_path, capsys, method, depth):
        spec = write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {DATA / 'micro_topics.txt'}
output = out

[system]
name = shallow
method = {method}
N = {depth}
""")
        _assert_data_error(main(["run", str(spec)]), capsys, "N must be >= 1")

    @pytest.mark.parametrize("drift,keys,needle", [
        ("interpolation", "lambda = 0.5\ndrift_N = 3", "N is meaningless for interpolation"),
        ("none", "lambda = 0.5", "lambda is meaningless for none"),
        ("truncated_rerank", "lambda = 0.7", "lambda is meaningless for truncated_rerank"),
    ])
    def test_drift_key_of_another_technique_is_data_error(self, tmp_path, capsys,
                                                          drift, keys, needle):
        spec = write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {DATA / 'micro_topics.txt'}
output = out

[system]
name = drifting
method = mcdoc
alpha = 2
m = 4
T = 2
drift = {drift}
{keys}
""")
        _assert_data_error(main(["run", str(spec)]), capsys, needle)

    @staticmethod
    def _drift_spec(tmp_path, systems: str) -> Path:
        return write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {DATA / 'micro_topics.txt'}
output = out
{systems}""")

    @staticmethod
    def _mcdoc_system(name: str, keys: str) -> str:
        return f"""
[system]
name = {name}
method = mcdoc
alpha = 2
m = 4
T = 2
{keys}
"""

    @staticmethod
    def _ranked_rows(path: Path) -> list[list[str]]:
        # every column but the run tag, which hashes the point's keys
        return [line.split()[:5] for line in path.read_text().splitlines()]

    @pytest.mark.parametrize("kinds,keys,alone", [
        (["interpolation", "truncated_rerank"], "lambda = 0.5\ndrift_N = 3",
         {"interpolation": "lambda = 0.5", "truncated_rerank": "drift_N = 3"}),
        (["none", "interpolation"], "lambda = 0.5",
         {"none": "", "interpolation": "lambda = 0.5"}),
    ], ids=["interpolation+truncated_rerank", "none+interpolation"])
    def test_drift_grid_point_reads_only_its_own_keys(self, tmp_path, kinds, keys, alone):
        grid = self._mcdoc_system("grid", f"drift = {' '.join(kinds)}\n{keys}")
        singles = "".join(self._mcdoc_system(f"one_{k}", f"drift = {k}\n{alone[k]}")
                          for k in kinds)
        spec = self._drift_spec(tmp_path, grid + singles)
        assert main(["run", str(spec)]) == 0
        for kind in kinds:
            assert self._ranked_rows(tmp_path / "out" / f"grid__drift={kind}.run") \
                == self._ranked_rows(tmp_path / "out" / f"one_{kind}.run")

    @pytest.mark.parametrize("kinds,keys,needle", [
        ("none truncated_rerank", "lambda = 0.5", "lambda is meaningless for none"),
        ("none interpolation", "lambda = 0.5\ndrift_N = 3", "N is meaningless for none"),
    ], ids=["lambda", "drift_N"])
    def test_drift_key_no_kind_in_grid_reads_is_data_error(self, tmp_path, capsys,
                                                           kinds, keys, needle):
        # the good system comes first: no run file may be written for it
        spec = self._drift_spec(tmp_path, self._mcdoc_system("good", "")
                                + self._mcdoc_system("bad", f"drift = {kinds}\n{keys}"))
        _assert_data_error(main(["run", str(spec)]), capsys, needle)
        assert not list(tmp_path.glob("out/*.run"))

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    @pytest.mark.parametrize("method", ["mcdoc", "baseline"])
    def test_non_finite_mu_is_data_error(self, tmp_path, capsys, method, mu):
        spec = write_spec(tmp_path, f"""\
corpus = {DATA / 'micro.trec'}
topics = {DATA / 'micro_topics.txt'}
output = out

[system]
name = smoothed
method = {method}
mu = {mu}
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code = main(["run", str(spec)])
        _assert_data_error(code, capsys, f"mu={mu}")

    def test_unknown_parameter_is_data_error(self, tmp_path):
        spec = baseline_spec(tmp_path, """
[system]
name = bad
method = baseline
bogus = 3
""")
        assert main(["run", str(spec)]) == 2

    def test_unknown_corpus_format_is_data_error(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path)
        spec.write_text("format = trce\n" + spec.read_text())
        _assert_data_error(main(["run", str(spec)]), capsys, "format 'trce' is not trec or lines")
        assert not (tmp_path / "out").exists()

    def test_cluster_index_built_once_per_delta_and_mu(self, tmp_path, monkeypatch):
        import pqlm.cli

        passes = []
        precompute = pqlm.cli.precompute_neighbors
        monkeypatch.setattr(pqlm.cli, "precompute_neighbors",
                            lambda *args, **kw: passes.append(args[1:]) or precompute(*args, **kw))
        system = """
[system]
name = mc
method = mccluster
alpha = {}
alpha1 = 4
alpha_cluster = 2
beta = 3
delta = 3
T = 2
mu = 2000
"""
        (tmp_path / "grid").mkdir()
        assert main(["run", str(baseline_spec(tmp_path / "grid", system.format("2 3 4")))]) == 0
        assert passes == [(3, 2000.0)]
        (tmp_path / "sweep").mkdir()
        assert main(["sweep", str(baseline_spec(tmp_path / "sweep", system.format("2"))),
                     "--system", "mc", "--alpha1", "2", "4", "8"]) == 0
        assert len(passes) == 2
        # each point's run file is what a fresh invocation of that point writes
        for alpha in ("2", "3", "4"):
            (tmp_path / alpha).mkdir()
            assert main(["run", str(baseline_spec(tmp_path / alpha, system.format(alpha)))]) == 0
            assert (tmp_path / alpha / "out" / "mc.run").read_bytes() == \
                (tmp_path / "grid" / "out" / f"mc__alpha={alpha}.run").read_bytes()
        (tmp_path / "sweep8").mkdir()
        point = system.format("2").replace("alpha1 = 4", "alpha1 = 8")
        assert main(["run", str(baseline_spec(tmp_path / "sweep8", point))]) == 0
        assert (tmp_path / "sweep8" / "out" / "mc.run").read_bytes() == \
            (tmp_path / "sweep" / "out" / "002_mc_alpha1=8.run").read_bytes()


class TestDeterminism:
    def test_byte_identical_across_invocations_and_threads(self, tmp_path):
        spec = baseline_spec(tmp_path, """
[system]
name = iter
method = mcdoc
alpha = 3
alpha1 = 5
m = 6
T = 2
mu = 2000
drift = iterated_truncation
drift_N = 6
""")
        outputs = []
        for threads in ("1", "1", "4"):
            assert main(["run", str(spec), "--threads", threads]) == 0
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted((tmp_path / "out").glob("*.run"))
            })
        assert outputs[0] == outputs[1] == outputs[2]

    def test_mcdoc_and_mccluster_bytes_equal_at_one_and_two_threads(self, tmp_path):
        spec = baseline_spec(tmp_path, """
[system]
name = iter
method = mcdoc
alpha = 3
alpha1 = 5
m = 6
T = 2
mu = 2000

[system]
name = clustered
method = mccluster
alpha1 = 4
alpha_cluster = 2
beta = 3
delta = 3
T = 2
mu = 2000

[system]
name = voting
method = vdoc
alpha = 2
alpha1 = 4
T = 2
mu = 2000
""")
        outputs = []
        for threads in ("1", "2"):
            assert main(["run", str(spec), "--threads", threads]) == 0
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted((tmp_path / "out").glob("*.run"))
            })
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def literal_eval_output(run_text, qrels_text, depth, name):
    """What `pqlm eval --depth depth` prints for one run named `name`,
    recomputed literally from the definitions: AP is the sum of the
    precisions at the ranks of the relevant documents in the top `depth`,
    over the number judged relevant; recall is the relevant documents in
    the top `depth` over those judged, summed over the judged queries.  An
    error is returned as its "pqlm: " line without the run file's path."""
    judged = {}
    for line in qrels_text.splitlines():
        qid, _, docno, rel = line.split()
        judged.setdefault(qid, set())
        if int(rel) > 0:
            judged[qid].add(docno)
    rows = {}
    for line in run_text.splitlines():
        qid, _, docno, rank, _, _ = line.split()
        rows.setdefault(qid, []).append((int(rank), docno))
    if not set(rows) & set(judged):
        return "pqlm: no query of the run is in the qrels\n"
    ranked = {qid: [docno for _, docno in sorted(r)] for qid, r in rows.items()}
    for qid in sorted(ranked):
        for k, docno in enumerate(ranked[qid]):
            if docno in ranked[qid][:k]:
                return f"pqlm: query {qid}: duplicate docno {docno!r} in run\n"
    aps, excluded, found, total = [], [], 0, 0
    for qid in sorted(ranked):
        if qid not in judged:
            continue
        relevant, top = judged[qid], ranked[qid][:depth]
        if not relevant:
            excluded.append(qid)
            continue
        ap = 0.0
        for k in range(1, len(top) + 1):
            if top[k - 1] in relevant:
                ap += sum(docno in relevant for docno in top[:k]) / k
        aps.append(ap / len(relevant))
        found += sum(docno in relevant for docno in top)
        total += len(relevant)
    mean_ap = 0.0
    for ap in aps:
        mean_ap += ap
    mean_ap = mean_ap / len(aps) if aps else 0.0
    recall = found / total if total else 0.0
    width = max(len("system"), len(name))
    out = (f"{'system':<{width}}  {'prec':>14}  {'recall':>14}\n"
           f"{name:<{width}}  {mean_ap * 100:>12.2f}%   {recall * 100:>12.2f}%\n")
    if excluded:
        out += f"{name}: excluded queries with no relevant docs: {' '.join(excluded)}\n"
    return out


@st.composite
def _eval_inputs(draw):
    """(run text, qrels text, depth): queries 1-3 judged over documents a-f,
    queries 1-4 ranked in shuffled rows with ties of rank, some query now
    and then listing a docno twice."""
    docs = "abcdef"
    qrels = [f"{qid} 0 {docno} {draw(st.sampled_from([0, 0, 1, 2]))}"
             for qid in draw(st.lists(st.sampled_from("123"), min_size=1, unique=True))
             for docno in draw(st.lists(st.sampled_from(docs), min_size=1, unique=True))]
    rows = []
    for qid in draw(st.lists(st.sampled_from("1234"), min_size=1, unique=True)):
        ranked = draw(st.permutations(docs))[:draw(st.integers(1, 6))]
        if draw(st.integers(0, 5)) == 0:
            ranked.insert(draw(st.integers(0, len(ranked))), draw(st.sampled_from(ranked)))
        for rank, docno in enumerate(ranked, start=1):
            rank = draw(st.sampled_from([rank, rank, rank, rank + 1]))
            rows.append(f"{qid} Q0 {docno} {rank} 0.5 t")
    rows = draw(st.permutations(rows))
    return "\n".join(rows) + "\n", "\n".join(qrels) + "\n", draw(st.integers(1, 7))


class TestEvalCommand:
    def test_eval_prints_table(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path)
        main(["run", str(spec)])
        capsys.readouterr()
        run_path = tmp_path / "out" / "baseline.run"
        assert main(["eval", "--qrels", str(DATA / "micro.qrels"),
                     str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "prec" in out and "recall" in out and "baseline" in out

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_depth_below_one_is_data_error(self, tmp_path, capsys, depth):
        main(["run", str(baseline_spec(tmp_path))])
        capsys.readouterr()
        code = main(["eval", "--qrels", str(DATA / "micro.qrels"), "--depth", depth,
                     str(tmp_path / "out" / "baseline.run")])
        _assert_data_error(code, capsys, "depth must be >= 1")

    def test_non_integer_relevance_names_its_line(self, tmp_path, capsys):
        qrels = tmp_path / "bad.qrels"
        qrels.write_text("1 0 D1 1\n1 0 D2 x\n")
        run = tmp_path / "r.run"
        run.write_text("1 Q0 D1 1 0.5 t\n")
        code = main(["eval", "--qrels", str(qrels), str(run)])
        _assert_data_error(code, capsys, "qrels line 2: 'x' is not an integer")

    @pytest.mark.parametrize("rows", ["", "903 Q0 M01 1 0.5 t\n"], ids=["empty", "unjudged"])
    def test_run_with_no_judged_query_names_the_file(self, tmp_path, capsys, rows):
        run = tmp_path / "r.run"
        run.write_text(rows)
        code = main(["eval", "--qrels", str(DATA / "micro.qrels"), str(run)])
        _assert_data_error(code, capsys, f"{run}: no query of the run is in the qrels")

    def test_docno_listed_twice_names_file_and_query(self, tmp_path, capsys):
        good, bad = tmp_path / "good.run", tmp_path / "bad.run"
        good.write_text("901 Q0 M01 1 0.5 t\n")
        bad.write_text("901 Q0 M01 1 0.5 t\n902 Q0 M02 1 0.5 t\n902 Q0 M02 2 0.4 t\n")
        code = main(["eval", "--qrels", str(DATA / "micro.qrels"), str(good), str(bad)])
        assert code == 2
        assert capsys.readouterr().err == f"pqlm: {bad}: query 902: duplicate docno 'M02' in run\n"

    @pytest.mark.parametrize("depth", [[], ["--depth", "2"], ["--depth", "1"]],
                             ids=["default", "depth-2", "depth-1"])
    @pytest.mark.parametrize("qid", ["902", "903"], ids=["judged", "unjudged"])
    def test_docno_listed_twice_refused_at_any_depth(self, tmp_path, capsys, depth, qid):
        # M02 at ranks 2 and 3: below a depth of 2 or 1, and for a query
        # the qrels do not hold
        run = tmp_path / "r.run"
        run.write_text(f"901 Q0 M01 1 0.5 t\n{qid} Q0 M01 1 0.6 t\n{qid} Q0 M02 2 0.5 t\n"
                       f"{qid} Q0 M02 3 0.4 t\n{qid} Q0 M01 4 0.3 t\n")
        code = main(["eval", "--qrels", str(DATA / "micro.qrels"), *depth, str(run)])
        assert code == 2
        assert capsys.readouterr().err == f"pqlm: {run}: query {qid}: duplicate docno 'M02' in run\n"

    def test_report_equals_literal_recomputation(self):
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(_eval_inputs())
        def check(inputs):
            run_text, qrels_text, depth = inputs
            with tempfile.TemporaryDirectory() as work:
                run, qrels = Path(work) / "sys.run", Path(work) / "q.qrels"
                run.write_text(run_text)
                qrels.write_text(qrels_text)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["eval", "--qrels", str(qrels), "--depth", str(depth), str(run)])
                expected = literal_eval_output(run_text, qrels_text, depth, "sys")
                if expected.startswith("pqlm: "):
                    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"pqlm: {run}: "
                                                                        + expected[6:])
                else:
                    assert (code, out.getvalue(), err.getvalue()) == (0, expected, "")

        check()

    @pytest.mark.parametrize("target", ["qrels", "run"])
    def test_file_not_utf8_names_the_file(self, tmp_path, capsys, target):
        files = {"qrels": tmp_path / "q.qrels", "run": tmp_path / "r.run"}
        files["qrels"].write_bytes((DATA / "micro.qrels").read_bytes())
        files["run"].write_text("901 Q0 M01 1 0.5 t\n")
        files[target].write_bytes(files[target].read_bytes() + b"\xff\n")
        code = main(["eval", "--qrels", str(files["qrels"]), str(files["run"])])
        _assert_data_error(code, capsys, f"{files[target]}: 'utf-8' codec can't decode byte 0xff")

    def test_two_run_files_with_one_stem_are_data_error(self, tmp_path, capsys):
        # the report names each run by its stem: one would replace the other
        runs = [tmp_path / "a" / "x.run", tmp_path / "b" / "x.run"]
        for run, doc in zip(runs, ("M01", "M02")):
            run.parent.mkdir()
            run.write_text(f"901 Q0 {doc} 1 0.5 t\n")
        code = main(["eval", "--qrels", str(DATA / "micro.qrels"), *map(str, runs)])
        _assert_data_error(code, capsys, f"{runs[0]} and {runs[1]}: two run files named 'x'")

    def test_non_integer_rank_names_its_line(self, tmp_path, capsys):
        run = tmp_path / "r.run"
        run.write_text("1 Q0 D1 1 0.5 t\n1 Q0 D2 two 0.4 t\n")
        code = main(["eval", "--qrels", str(DATA / "micro.qrels"), str(run)])
        _assert_data_error(code, capsys, "run line 2: 'two' is not an integer")


class TestSweep:
    def test_alpha1_sweep_emits_csv(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path, """
[system]
name = sweepme
method = mcdoc
alpha = 2
m = 9
T = 1
mu = 2000
""")
        assert main(["sweep", str(spec), "--system", "sweepme",
                     "--alpha1", "2", "4", "8"]) == 0
        csv_path = tmp_path / "out" / "sweep_sweepme.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "alpha1,map,recall"
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "4", "8"]
        run_names = sorted(p.name for p in (tmp_path / "out").glob("*_sweepme_*.run"))
        assert run_names == [
            "000_sweepme_alpha1=2.run",
            "001_sweepme_alpha1=4.run",
            "002_sweepme_alpha1=8.run",
        ]

    def test_bad_point_writes_no_run_file(self, tmp_path, capsys):
        # every point is checked before the first is scored
        spec = baseline_spec(tmp_path, """
[system]
name = sweepme
method = mcdoc
alpha = 2
m = 9
""")
        code = main(["sweep", str(spec), "--system", "sweepme", "--alpha1", "1", "0"])
        _assert_data_error(code, capsys, "alpha1 must be >= 1")
        assert not (tmp_path / "out").exists()

    def test_bad_feedback_point_writes_no_run_file(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path, """
[system]
name = roc
method = rocchio
""")
        code = main(["sweep", str(spec), "--system", "roc", "--alpha1", "5", "0"])
        _assert_data_error(code, capsys, "k1 must be >= 1, got k1=0")
        assert not (tmp_path / "out").exists()

    def test_unknown_system(self, tmp_path):
        spec = baseline_spec(tmp_path)
        assert main(["sweep", str(spec), "--system", "nope",
                     "--alpha1", "2"]) == 2

    def test_plain_baseline_cannot_sweep(self, tmp_path, capsys):
        spec = baseline_spec(tmp_path)
        assert main(["sweep", str(spec), "--system", "baseline",
                     "--alpha1", "2"]) == 2
        assert "no round-1 spread" in capsys.readouterr().err

    def test_feedback_baseline_sweeps_k1(self, tmp_path):
        spec = baseline_spec(tmp_path, """
[system]
name = roc
method = rocchio
t = 2
gamma = 0.5
""")
        assert main(["sweep", str(spec), "--system", "roc",
                     "--alpha1", "1", "3"]) == 0
        lines = (tmp_path / "out" / "sweep_roc.csv").read_text().splitlines()
        assert len(lines) == 3


class TestSpecSystems:
    """A system's name becomes a run file's name and its values numbers:
    a bad one is a line-numbered or system-named data error that `run` and
    `sweep` report before writing anything."""

    @staticmethod
    def _command(command, spec, system):
        if command == "run":
            return main(["run", str(spec)])
        return main(["sweep", str(spec), "--system", system, "--alpha1", "2"])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("name", ["../escaped", "sub/b", "sub\\b"])
    def test_name_with_a_path_separator_writes_nothing(self, tmp_path, capsys, command, name):
        # the good baseline system comes first
        spec = baseline_spec(tmp_path, f"""
[system]
name = {name}
method = rocchio
""")
        line = spec.read_text().splitlines().index(f"name = {name}") + 1
        _assert_data_error(self._command(command, spec, name), capsys,
                           f"spec line {line}: system name {name!r} contains whitespace "
                           "or a path separator")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("method, key, value, noun", [
        ("mcdoc", "alpha", "1.5", "an integer"),
        ("mcdoc", "mu", "x", "a number"),
        ("mcdoc", "lambda", "half", "a number"),
        ("rocchio", "t", "2.0", "an integer"),
        ("relevance_model", "lambda_r", "0,5", "a number"),
    ])
    def test_value_of_the_wrong_type_names_system_and_key(self, tmp_path, capsys, command,
                                                          method, key, value, noun):
        spec = baseline_spec(tmp_path, f"""
[system]
name = m
method = {method}
{key} = {value}
""")
        _assert_data_error(self._command(command, spec, "m"), capsys,
                           f"system 'm': {key} {value!r} is not {noun}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("method, key, value, message", [
        ("mcdoc", "N", "0", "N must be >= 1"),
        ("vdoc", "drift", "interpolation", "interpolating techniques need lambda in [0, 1]"),
        ("rocchio", "t", "-1", "t must be >= 0, got t=-1"),
        ("relevance_model", "lambda_r", "1",
         "lambda_r must be strictly between 0 and 1, got lambda_r=1.0"),
        ("mcdoc", "alpha", "1.5", "alpha '1.5' is not an integer"),
    ], ids=["run-config", "drift", "check-args", "lambda_r", "typed"])
    def test_point_error_names_the_system_once(self, tmp_path, capsys, command, method, key,
                                               value, message):
        # the good baseline system comes first
        spec = baseline_spec(tmp_path, f"""
[system]
name = m
method = {method}
{key} = {value}
""")
        assert self._command(command, spec, "m") == 2
        assert capsys.readouterr().err == f"pqlm: system 'm': {message}\n"
        assert not (tmp_path / "out").exists()


class TestThreadsEnvVar:
    @pytest.mark.parametrize("threads", ["0", "-4"])
    @pytest.mark.parametrize("command", ["neighbors", "run", "sweep"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, command, threads):
        spec = str(baseline_spec(tmp_path))
        argv = {"neighbors": ["--index", "index.json", "-o", "nbrs.json", "--k-max", "2"],
                "run": [spec], "sweep": [spec, "--system", "baseline", "--alpha1", "2"]}
        assert main([command, *argv[command], "--threads", threads]) == 1
        assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_worker_count_from_environment(self, monkeypatch):
        from pqlm.cli import _default_threads

        monkeypatch.setenv("PQLM_THREADS", "6")
        assert _default_threads() == 6
        monkeypatch.setenv("PQLM_THREADS", "not-a-number")
        assert _default_threads() == 1
        monkeypatch.delenv("PQLM_THREADS")
        assert _default_threads() == 1


class TestLogRecords:
    """Library warnings reach stderr once per command each, as one
    `pqlm: ` line, unless the pqlm logger has a handler of its own."""

    def _cli(self, *argv):
        # a fresh interpreter: pytest's log capture sits on the root logger
        import subprocess
        import sys

        return subprocess.run([sys.executable, "-m", "pqlm.cli", *map(str, argv)],
                              capture_output=True, text=True)

    def _oov_spec(self, tmp_path):
        topics = tmp_path / "topics.txt"
        topics.write_text("<top>\n<num> Number: 901\n<title> solar zzzunseen\n</top>\n")
        spec = baseline_spec(tmp_path, "[system]\nname = iter\nmethod = mcdoc\n"
                                       "alpha = 2 3\nm = 4\nT = 2\n")
        spec.write_text(spec.read_text().replace(str(DATA / "micro_topics.txt"), str(topics)))
        return spec

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_warning_printed_once_per_command(self, tmp_path, threads):
        proc = self._cli("run", self._oov_spec(tmp_path), "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("wrote ") == 3
        assert proc.stderr == "pqlm: query 901: 1 out-of-vocabulary terms dropped\n"

    def test_clamped_k_max(self, tmp_path):
        index = tmp_path / "index.json"
        assert self._cli("index", DATA / "micro.trec", "-o", index).returncode == 0
        proc = self._cli("neighbors", "--index", index, "-o", tmp_path / "n.json",
                         "--k-max", "999")
        assert proc.returncode == 0
        assert proc.stderr == "pqlm: k_max=999 exceeds corpus size 8; clamped\n"

    def test_handler_of_the_logger_gets_every_record(self, tmp_path, capsys):
        import logging

        records = []
        collect = logging.Handler()
        collect.emit = records.append
        logger = logging.getLogger("pqlm")
        logger.addHandler(collect)
        propagate, logger.propagate = logger.propagate, False
        try:
            assert main(["run", str(self._oov_spec(tmp_path))]) == 0
        finally:
            logger.propagate = propagate
            logger.removeHandler(collect)
        # one record per system point, and none on stderr
        assert [r.getMessage() for r in records] == \
            ["query 901: 1 out-of-vocabulary terms dropped"] * 3
        assert capsys.readouterr().err == ""
        assert logger.handlers == []

    def test_threads_print_each_message_once(self):
        import logging
        import sys
        import threading

        from pqlm.cli import _OncePerMessage

        handler, err = _OncePerMessage(), io.StringIO()
        # every thread logs the same messages in the same order, so each
        # message's first record is contested
        records = [logging.LogRecord("pqlm.x", logging.WARNING, "", 0, "message %d",
                                     (i,), None) for i in range(2000)]
        start = threading.Barrier(8)

        def log_all():
            start.wait(timeout=30)
            for r in records:
                handler.handle(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with contextlib.redirect_stderr(err):
                workers = [threading.Thread(target=log_all) for _ in range(8)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert sorted(err.getvalue().splitlines()) == \
            sorted(f"pqlm: message {i}" for i in range(2000))


class TestConsoleScript:
    def test_entry_point_runs(self):
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-m", "pqlm.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("index", "cluster", "neighbors", "run", "eval", "sweep"):
            assert sub in proc.stdout

    def test_cli_runs_on_numpy_alone(self):
        # importing scipy.sparse adds ~16 MB to a process's peak RSS
        import subprocess
        import sys

        code = "import pqlm.cli, sys; assert 'scipy' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestHelp:
    def test_run_help_lists_every_config_field(self, capsys):
        assert main(["run", "--help"]) == 0
        out = capsys.readouterr().out
        for field in ("method", "alpha", "alpha1", "alpha_cluster", "beta",
                      "delta", "m", "T", "mu", "drift", "lambda", "N"):
            assert re.search(rf"\b{field}\b", out), field
        assert "2000" in out and "1000" in out
