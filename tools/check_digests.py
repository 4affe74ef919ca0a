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
checks them only at ``--threads 1``.  Everything is written under
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
from pqlm.cli import main  # noqa: E402
from pqlm.corpus import Corpus  # noqa: E402
from run import RECORDED, run_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

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


def check(name: str, seed: int, index_sha256: str | None, run_sha256: str,
          report_sha256: str, threads: tuple[str, ...]) -> bool:
    """Print one line per digest compared; True if all match."""
    w, work = WORKLOADS[name], ROOT / ".bench_work" / "digests" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    col = gen.generate(work, seed, w.n_docs, w.n_topics, w.word_forms)
    (work / "experiment.cfg").write_text(w.spec_text(col))
    codes = [quiet_main(argv)[0] for argv in w.setup_commands(col, work)]
    set_up = ok = set(codes) == {0}
    if index_sha256 is not None:
        index = work / "index.json"
        for what, data in (("index sha256", index.read_bytes()),
                           ("reloaded index serializes to sha256",
                            Corpus.load(index).serialize())):
            digest = hashlib.sha256(data).hexdigest()
            good = set_up and digest == index_sha256
            print(f"{name} seed {seed}: set-up exit codes {codes}, {what} {digest}",
                  "ok" if good else "MISMATCH")
            ok &= good
    for n in threads:
        shutil.rmtree(work / "runs", ignore_errors=True)
        code, stdout = quiet_main(["run", str(work / "experiment.cfg"), "--threads", n])
        for what, digest, recorded in (("run", run_digest(work / "runs"), run_sha256),
                                       ("report", report_digest(stdout), report_sha256)):
            good = set_up and code == 0 and digest == recorded
            print(f"{name} seed {seed} --threads {n}: exit codes {codes + [code]}, "
                  f"{what} sha256 {digest}", "ok" if good else "MISMATCH")
            ok &= good
    return ok


if __name__ == "__main__":
    logging.getLogger("pqlm").setLevel(logging.ERROR)  # the topics' OOV warnings
    results = [check(*row) for row in CHECKS]
    sys.exit(int(not all(results)))
