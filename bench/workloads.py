"""The benchmark's workloads: corpus shape, offline set-up and systems.

Each workload runs one iterative method (or none), because mixing methods
with different per-query costs puts the median between two latency modes
and makes it swing from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from gen import Collection

MU = 2000
DEPTH = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_docs: int
    n_topics: int
    word_forms: bool          # suffixed tokens, indexed with Porter + stoplist
    systems: tuple[tuple[str, str, dict], ...]  # (name, method, parameters)
    k_max: int | None = None  # neighbour lists (and clusters) in set-up
    neighbor_threads: int = 1
    delta: int | None = None

    def setup_commands(self, col: Collection, work: Path) -> list[list[str]]:
        """`pqlm` argument lists that turn generated files into artifacts."""
        index = ["index", str(col.docs), "-o", str(work / "index.json")]
        if self.word_forms:
            index += ["--stemmer", "porter", "--stoplist", str(col.stoplist)]
        commands = [index]
        if self.k_max is not None:
            commands.append(["neighbors", "--index", str(work / "index.json"),
                             "-o", str(work / "neighbors.json"),
                             "--k-max", str(self.k_max), "--mu", str(MU),
                             "--threads", str(self.neighbor_threads)])
        if self.delta is not None:
            commands.append(["cluster", "--index", str(work / "index.json"),
                             "--neighbors", str(work / "neighbors.json"),
                             "-o", str(work / "clusters.json"),
                             "--delta", str(self.delta)])
        return commands

    def spec_text(self, col: Collection) -> str:
        """The `pqlm run` experiment spec over the set-up artifacts."""
        lines = ["index = index.json"]
        if self.delta is not None:
            lines.append("clusters = clusters.json")
        lines += [f"topics = {col.topics.name}", f"qrels = {col.qrels.name}",
                  "output = runs"]
        for name, method, params in self.systems:
            lines += ["", "[system]", f"name = {name}", f"method = {method}"]
            lines += [f"{k} = {v}" for k, v in params.items()]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        "mcdoc-2k",
        "iterative mcdoc T=2 over 2k docs: cold lazy postings and ~50 "
        "full-corpus rendition passes per query in round 2",
        n_docs=2000, n_topics=100, word_forms=False,
        systems=(("mcdoc", "mcdoc", {
            "alpha1": 50, "alpha": 10, "m": 40, "T": 2, "mu": MU, "N": DEPTH,
            "drift": "interpolation", "lambda": 0.5}),),
    ),
    Workload(
        "mccluster-300",
        "full offline chain (neighbours on 2 threads, clusters, saves and "
        "reloads) then mccluster T=2: set-up and cluster-postings heavy",
        n_docs=300, n_topics=100, word_forms=False,
        k_max=40, neighbor_threads=2, delta=40,
        systems=(("mccluster", "mccluster", {
            "alpha1": 10, "alpha_cluster": 2, "beta": 20, "delta": 40, "T": 2,
            "mu": MU, "N": DEPTH}),),
    ),
    Workload(
        "feedback-1k",
        "Porter + stoplist ingest and the three feedback baselines: bypasses "
        "the iterative scorers, drift and clustering",
        n_docs=1000, n_topics=34, word_forms=True,
        systems=(
            ("baseline", "baseline", {"mu": MU, "N": DEPTH}),
            ("rocchio", "rocchio", {"k1": 10, "t": 10, "N": DEPTH}),
            ("rm", "relevance_model", {"k1": 10, "clip_k": 50, "mu": MU,
                                       "N": DEPTH}),
        ),
    ),
)}
