"""Experiment specification files: line-oriented `key = value` with
[system] sections.

The format is diff-friendly on purpose (one parameter per line, repeated
`corpus` keys accumulate), and a parsed spec holds every key it was given,
so a run's provenance can be reconstructed from its spec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

from .corpus import ParseError

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass
class SystemSpec:
    name: str
    method: str
    params: dict[str, list[str]] = field(default_factory=dict)

    def grid(self) -> list[dict[str, str]]:
        """Cartesian product over multi-valued parameters, sorted key order."""
        keys = sorted(self.params)
        if not keys:
            return [{}]
        values = [self.params[k] for k in keys]
        return [dict(zip(keys, combo)) for combo in itertools.product(*values)]


@dataclass
class ExperimentSpec:
    corpus: list[str] = field(default_factory=list)
    format: str = "trec"  # trec | lines
    topics: str | None = None
    qrels: str | None = None
    output: str = "runs"
    index: str | None = None
    neighbors: str | None = None
    clusters: str | None = None
    lowercase: bool = True
    stemmer: str = "none"
    stoplist: str | None = None
    drop_length_one: bool = False
    systems: list[SystemSpec] = field(default_factory=list)


# the global keys are the spec's fields; a field's default says how its
# value is read: a list accumulates repeated keys, a bool is parsed, the
# rest are strings
_GLOBAL_KEYS = {f.name: f for f in fields(ExperimentSpec) if f.name != "systems"}


def parse_bool(value: str) -> bool:
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise ParseError(f"expected a boolean, got {value!r}") from None


def parse_spec(text: str) -> ExperimentSpec:
    spec = ExperimentSpec()
    system: SystemSpec | None = None
    seen: set[str] = set()  # the keys of the current section
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[system]":
            system, seen = SystemSpec(name="", method=""), set()
            spec.systems.append(system)
            continue
        if "=" not in line:
            raise ParseError(f"spec line {lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if not value:
            raise ParseError(f"spec line {lineno}: key {key!r} has no value")
        if key in seen:
            raise ParseError(f"spec line {lineno}: key {key!r} repeated")
        if key != "corpus":  # repeated corpus keys accumulate
            seen.add(key)
        if system is None:
            _set_global(spec, key, value, lineno)
        elif key == "name":
            # the name is a run file's name, inside `output`
            if len(value.split()) > 1 or "/" in value or "\\" in value:
                raise ParseError(f"spec line {lineno}: system name {value!r} "
                                 "contains whitespace or a path separator")
            system.name = value
        elif key == "method":
            system.method = value
        else:
            system.params[key] = value.split()
    for i, sys_spec in enumerate(spec.systems):
        if not sys_spec.name:
            raise ParseError(f"system {i} has no name")
        if not sys_spec.method:
            raise ParseError(f"system {sys_spec.name!r} has no method")
    return spec


def _set_global(spec: ExperimentSpec, key: str, value: str, lineno: int) -> None:
    f = _GLOBAL_KEYS.get(key)
    if f is None:
        raise ParseError(f"spec line {lineno}: unknown key {key!r} "
                         f"(expected one of {', '.join(_GLOBAL_KEYS)})")
    if key == "format" and value not in ("trec", "lines"):
        raise ParseError(f"spec line {lineno}: format {value!r} is not trec or lines")
    if f.default_factory is list:
        getattr(spec, key).append(value)
    elif isinstance(f.default, bool):
        setattr(spec, key, parse_bool(value))
    else:
        setattr(spec, key, value)
