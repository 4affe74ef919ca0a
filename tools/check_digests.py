#!/usr/bin/env python3
"""Hold pqlm's answers to their recorded bytes.

    python tools/check_digests.py

For each row of CHECKS it generates the benchmark collection of a workload
and seed (bench/gen.py) and runs the workload's set-up commands.  When the
row records an index digest, it compares the sha256 of index.json, and of
``Corpus.load(index.json).serialize()``, with it.  It then runs
``pqlm run --threads N`` at each of the row's thread counts and compares
the sha256 of the run directory (bench/run.py's ``run_digest``), and the
sha256 of the report that the command prints (its standard output without
the ``wrote ...`` lines: MAP, recall and the Wilcoxon stars).  The
seed-1 run digests are the ones in bench/recorded.json; bench/run.py
checks them only at ``--threads 1``.

The 8k rows (CHECK_8K) run their own systems, not a workload's, over one
8,000-document, 20-topic seed-1 collection set up once: two specs, one
reading the cluster file and one the neighbour lists, from which
``pqlm run`` builds its clusters.  Everything is written under
``.bench_work/digests/``.  Exits 1 if any command fails or any digest
differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
from pqlm.cli import main  # noqa: E402
from pqlm.corpus import Corpus  # noqa: E402
from run import RECORDED, run_digest  # noqa: E402
from workloads import DEPTH, MU, WORKLOADS, Workload  # noqa: E402

SEED_1 = {name: out["run_sha256"]
          for name, out in json.loads(RECORDED.read_text())["outputs"].items()}

# (workload, seed, index.json sha256 or None, run directory sha256,
#  report sha256, `pqlm run` thread counts)
CHECKS = [
    ("mcdoc-2k", 1, "cf188c23f2349d4c1e1f4cfc7b3119931287ee0d4d38f1fff5ce87e6c9727473",
     SEED_1["mcdoc-2k"],
     "80910095fdaa1ba6068e942dd56a2bcbd855ee14f33edcdc178328555e1e35b3", ("2",)),
    ("mccluster-300", 1, "ccf4d8ec72438a33b4bd1014b5ad5ff97fee121c65f73dde27e2091ce42d1a82",
     SEED_1["mccluster-300"],
     "a6f101746edda908da4fe49ccf98478c8f1af423cf33694168f0d6630a95398e", ("2",)),
    ("feedback-1k", 1, "b94c3d2d2b419568c84a3c8e2f681f4c0f5a05f00cad062ae07bf9f9d0abaf1d",
     SEED_1["feedback-1k"],
     "b2652964b67d02a37ca62c42c273e7279e6d11b1a50a91846999b68e0784a51a", ("2",)),
    ("mccluster-300", 2, None,
     "fbe42170bf75c177f3b0be3df6492fea07122040bfd02207158c989ae5f0b089",
     "aac41c888e4cb6d8688ed71cfe168ab7981b2c360626eb8be81dca8e17975f0b", ("1", "2")),
    ("mccluster-300", 3, None,
     "4fd1a3132eefbbf9427fce75e0e00965f44370b186e05bc239bb5079f907afad",
     "cae38231026ce9d1438d6549037827015066e9b806674e32e9173abb11b230c4", ("1", "2")),
    ("mcdoc-2k", 2, None,
     "7949ab589f0c6bb24407e7676dbc732627f500f4f85019b0caf795ff344bb6c7",
     "58562a20195f51661559f9a348dad6afc5d7e81f9a5805dc93c7da0d769d714b", ("1", "2")),
    ("mcdoc-2k", 3, None,
     "43e9900c6f255cd67177cca919e20e869a9c5278099f11e9a149e3753e64736f",
     "5de46a488ebbd4dd1cf18ddc7dc4bdfc6448dd3f804d4b583b07ddc7e6a79a2f", ("1", "2")),
    ("feedback-1k", 2, None,
     "8f0de5702d394f0a5c5f045d674db25cd6ee300f56d2adc19b6c2ea05aee3ee6",
     "2a979b7f71712a27b6e51d097946024419f8bbdc469cf6eeb0e261f36f1a77a7", ("1", "2")),
    ("feedback-1k", 3, None,
     "30e5d75e0997c68b534369b5d1864cb4d610838bbc84f8eb995885c719e31321",
     "fb7c26db08224a66227ca5c7891a0671b360d705e66bdd8bb62944d108159f96", ("1", "2")),
    ("mccluster-300", 6, None,
     "80f475c3ca94a462468946a0ee04218fbfd6d52720afc6c3ddf7c019268ce709",
     "98141318c99c311e71f12affb8d9d73ec3f8efaf2b8cedd80a8222f195269516", ("1", "2")),
    ("mcdoc-2k", 6, None,
     "70fa24dbb6b21d32304ccd2cc1759ae794940bf0c25c25393dd65f7c2f2fce84",
     "14e9692ef58917d1a66c97ab915cdaa7466bfc0aaebe724e2ba8d508db9c5e11", ("1", "2")),
    ("feedback-1k", 6, None,
     "50696f1970dff4ae5b676214c581c4a36275f1f6b301633430af5d9c39224892",
     "1e361a08bdb9bad406af773c290d16c3c1fab84e28fd6a4bb40474fe782382e4", ("1", "2")),
]

_MCCLUSTER_8K = ("mccluster", "mccluster", {"alpha1": 10, "alpha_cluster": 2, "beta": 20,
                                            "delta": 40, "T": 2, "mu": MU, "N": DEPTH})
_DRIFTS_8K = {"none": {}, "interpolation": {"lambda": 0.5},
              "truncated_rerank": {"drift_N": 50}, "iterated_truncation": {"drift_N": 50},
              "iterated_rerank": {"drift_N": 50}, "iterated_interpolation": {"lambda": 0.5}}
# every method, vdoc at T=2, mcdoc under every drift kind and the relevance
# model unclipped and clipped; the set-up makes neighbour lists and clusters
WORKLOAD_8K = Workload(
    "answers-8k", "every method and drift kind over 8k documents",
    n_docs=8000, n_topics=20, word_forms=False, k_max=40, delta=40,
    systems=(
        ("baseline", "baseline", {"mu": MU, "N": DEPTH}),
        *((f"mcdoc-{kind}", "mcdoc", {"alpha1": 50, "alpha": 10, "m": 40, "T": 2, "mu": MU,
                                      "N": DEPTH, "drift": kind, **value})
          for kind, value in _DRIFTS_8K.items()),
        _MCCLUSTER_8K,
        ("vdoc", "vdoc", {"alpha": 10, "T": 2, "mu": MU, "N": DEPTH,
                          "drift": "truncated_rerank", "drift_N": 50}),
        ("rocchio", "rocchio", {"k1": 10, "t": 10, "N": DEPTH}),
        ("rm0", "relevance_model", {"k1": 10, "clip_k": 0, "mu": MU, "N": DEPTH}),
        ("rm50", "relevance_model", {"k1": 10, "clip_k": 50, "mu": MU, "N": DEPTH}),
    ))

# (seed, index.json sha256, (run directory sha256, report sha256) of the
#  cluster-file spec and of the neighbour-file spec, `pqlm run` thread counts)
CHECK_8K = (1, "e2c0be217341d1c5f3906214812154d52cfee1a6ce1da4894acd94f08c3b1070",
            (("c234d8a6b8968bb1c0d24313fb0af240828d49f009b476818cf4397e8a659cb0",
              "b3d3b400edfe7194577deca8a4cfa1f539535e3fa090461c67b4edb8bcb52bf7"),
             ("4f155b10e93aa51ca4ab4fc7670e2daa55b4baeadc7ebc5f60bf1931726805a8",
              "e59a8d1eff521086c0a98316fba6c8ed000fb16fa08a5736b9205ad80b176f80")),
            ("1",))


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """`pqlm` exit code and standard output."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return main(argv), out.getvalue()


def report_digest(stdout: str) -> str:
    """sha256 of `pqlm run`'s printed report: its output without the
    ``wrote ...`` lines."""
    lines = stdout.splitlines(keepends=True)
    return hashlib.sha256("".join(line for line in lines
                                  if not line.startswith("wrote ")).encode()).hexdigest()


def set_up(w: Workload, seed: int) -> tuple[Path, gen.Collection, list[int]]:
    """A fresh work directory with the workload's collection and set-up
    artifacts, and the set-up commands' exit codes."""
    work = ROOT / ".bench_work" / "digests" / f"{w.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    col = gen.generate(work, seed, w.n_docs, w.n_topics, w.word_forms)
    return work, col, [quiet_main(argv)[0] for argv in w.setup_commands(col, work)]


def check_index(label: str, work: Path, codes: list[int], index_sha256: str) -> bool:
    """Compare index.json, and what its reload serializes to, with the digest."""
    ok = True
    index = work / "index.json"
    for what, data in (("index sha256", index.read_bytes()),
                       ("reloaded index serializes to sha256",
                        Corpus.load(index).serialize())):
        digest = hashlib.sha256(data).hexdigest()
        good = set(codes) == {0} and digest == index_sha256
        print(f"{label}: set-up exit codes {codes}, {what} {digest}",
              "ok" if good else "MISMATCH")
        ok &= good
    return ok


def check_runs(label: str, spec: Path, codes: list[int], run_sha256: str,
               report_sha256: str, threads: tuple[str, ...]) -> bool:
    """Run the spec at each thread count and compare its digests."""
    ok = True
    for n in threads:
        shutil.rmtree(spec.parent / "runs", ignore_errors=True)
        code, stdout = quiet_main(["run", str(spec), "--threads", n])
        for what, digest, recorded in (("run", run_digest(spec.parent / "runs"), run_sha256),
                                       ("report", report_digest(stdout), report_sha256)):
            good = set(codes) == {0} and code == 0 and digest == recorded
            print(f"{label} --threads {n}: exit codes {codes + [code]}, "
                  f"{what} sha256 {digest}", "ok" if good else "MISMATCH")
            ok &= good
    return ok


def check(name: str, seed: int, index_sha256: str | None, run_sha256: str,
          report_sha256: str, threads: tuple[str, ...]) -> bool:
    """Print one line per digest compared; True if all match."""
    w, label = WORKLOADS[name], f"{name} seed {seed}"
    work, col, codes = set_up(w, seed)
    spec = work / "experiment.cfg"
    spec.write_text(w.spec_text(col))
    ok = index_sha256 is None or check_index(label, work, codes, index_sha256)
    return check_runs(label, spec, codes, run_sha256, report_sha256, threads) and ok


def check_8k(seed: int, index_sha256: str, runs: tuple[tuple[str, str], ...],
             threads: tuple[str, ...]) -> bool:
    """:func:`check` for WORKLOAD_8K: one set-up, then both specs."""
    w = WORKLOAD_8K
    work, col, codes = set_up(w, seed)
    from_neighbors = replace(w, delta=None, systems=(_MCCLUSTER_8K,))
    specs = {"clusters.cfg": w.spec_text(col),
             "neighbors.cfg": "neighbors = neighbors.json\n" + from_neighbors.spec_text(col)}
    ok = check_index(f"{w.name} seed {seed}", work, codes, index_sha256)
    for (spec_name, text), (run_sha256, report_sha256) in zip(specs.items(), runs):
        spec = work / spec_name
        spec.write_text(text)
        ok &= check_runs(f"{w.name} seed {seed} {spec_name}", spec, codes, run_sha256,
                         report_sha256, threads)
    return ok


if __name__ == "__main__":
    logging.getLogger("pqlm").setLevel(logging.ERROR)  # the topics' OOV warnings
    results = [check(*row) for row in CHECKS] + [check_8k(*CHECK_8K)]
    sys.exit(int(not all(results)))
