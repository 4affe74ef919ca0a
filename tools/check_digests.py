#!/usr/bin/env python3
"""Hold pqlm's answers to their recorded bytes.

    python tools/check_digests.py

For each row of CHECKS it generates the benchmark collection of a workload
and seed (bench/gen.py) and runs the workload's set-up commands.  When the
row records an index digest, it compares the sha256 of index.json, and of
``Corpus.load(index.json).serialize()``, with it.  It then runs
``pqlm run --threads N`` at each of the row's thread counts and compares
the sha256 of the run directory (bench/run.py's ``run_digest``).  The
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
#  `pqlm run` thread counts)
CHECKS = [
    ("mcdoc-2k", 1, "cf188c23f2349d4c1e1f4cfc7b3119931287ee0d4d38f1fff5ce87e6c9727473",
     SEED_1["mcdoc-2k"], ("2",)),
    ("mccluster-300", 1, "ccf4d8ec72438a33b4bd1014b5ad5ff97fee121c65f73dde27e2091ce42d1a82",
     SEED_1["mccluster-300"], ("2",)),
    ("feedback-1k", 1, "b94c3d2d2b419568c84a3c8e2f681f4c0f5a05f00cad062ae07bf9f9d0abaf1d",
     SEED_1["feedback-1k"], ("2",)),
    ("mccluster-300", 2, None,
     "fbe42170bf75c177f3b0be3df6492fea07122040bfd02207158c989ae5f0b089", ("1", "2")),
    ("mccluster-300", 3, None,
     "4fd1a3132eefbbf9427fce75e0e00965f44370b186e05bc239bb5079f907afad", ("1", "2")),
    ("mcdoc-2k", 2, None,
     "7949ab589f0c6bb24407e7676dbc732627f500f4f85019b0caf795ff344bb6c7", ("1", "2")),
    ("mcdoc-2k", 3, None,
     "43e9900c6f255cd67177cca919e20e869a9c5278099f11e9a149e3753e64736f", ("1", "2")),
    ("feedback-1k", 2, None,
     "8f0de5702d394f0a5c5f045d674db25cd6ee300f56d2adc19b6c2ea05aee3ee6", ("1", "2")),
    ("feedback-1k", 3, None,
     "30e5d75e0997c68b534369b5d1864cb4d610838bbc84f8eb995885c719e31321", ("1", "2")),
    ("mccluster-300", 6, None,
     "80f475c3ca94a462468946a0ee04218fbfd6d52720afc6c3ddf7c019268ce709", ("1", "2")),
    ("mcdoc-2k", 6, None,
     "70fa24dbb6b21d32304ccd2cc1759ae794940bf0c25c25393dd65f7c2f2fce84", ("1", "2")),
]


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def check(name: str, seed: int, index_sha256: str | None, run_sha256: str,
          threads: tuple[str, ...]) -> bool:
    """Print one line per digest compared; True if all match."""
    w, work = WORKLOADS[name], ROOT / ".bench_work" / "digests" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    col = gen.generate(work, seed, w.n_docs, w.n_topics, w.word_forms)
    (work / "experiment.cfg").write_text(w.spec_text(col))
    codes = [quiet_main(argv) for argv in w.setup_commands(col, work)]
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
        code = quiet_main(["run", str(work / "experiment.cfg"), "--threads", n])
        digest = run_digest(work / "runs")
        good = set_up and code == 0 and digest == run_sha256
        print(f"{name} seed {seed} --threads {n}: exit codes {codes + [code]}, "
              f"run sha256 {digest}", "ok" if good else "MISMATCH")
        ok &= good
    return ok


if __name__ == "__main__":
    logging.getLogger("pqlm").setLevel(logging.ERROR)  # the topics' OOV warnings
    results = [check(*row) for row in CHECKS]
    sys.exit(int(not all(results)))
