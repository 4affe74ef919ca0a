from dataclasses import fields

import pytest

from pqlm.corpus import ParseError
from pqlm.experiment import ExperimentSpec, SystemSpec, parse_spec


def serialize_spec(spec: ExperimentSpec) -> str:
    """The spec text that parse_spec reads back as `spec`."""
    lines: list[str] = []
    for f in fields(ExperimentSpec):
        if f.name == "systems":
            continue
        value = getattr(spec, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, bool):
                item = "true" if item else "false"
            if item is not None:
                lines.append(f"{f.name} = {item}")
    for system in spec.systems:
        lines.append("")
        lines.append("[system]")
        lines.append(f"name = {system.name}")
        lines.append(f"method = {system.method}")
        for key, values in system.params.items():
            lines.append(f"{key} = {' '.join(values)}")
    return "\n".join(lines) + "\n"

SAMPLE = """\
# experiment provenance
corpus = docs1.trec
corpus = docs2.trec
format = trec
topics = topics.txt
qrels = qrels.txt
output = runs
stemmer = porter
drop_length_one = true

[system]
name = base
method = baseline
mu = 2000

[system]
name = grid
method = mcdoc
alpha = 10 20
T = 2
"""


class TestParsing:
    def test_fields(self):
        spec = parse_spec(SAMPLE)
        assert spec.corpus == ["docs1.trec", "docs2.trec"]
        assert spec.stemmer == "porter"
        assert spec.drop_length_one is True
        assert spec.qrels == "qrels.txt"
        assert [s.name for s in spec.systems] == ["base", "grid"]
        assert spec.systems[1].params == {"alpha": ["10", "20"], "T": ["2"]}

    def test_round_trip_lossless(self):
        spec = parse_spec(SAMPLE)
        assert parse_spec(serialize_spec(spec)) == spec

    def test_round_trip_of_programmatic_spec(self):
        spec = ExperimentSpec(
            corpus=["a.trec"], topics="t.txt", output="o",
            systems=[SystemSpec("s", "vdoc", {"alpha": ["5"]})])
        assert parse_spec(serialize_spec(spec)) == spec

    def test_unknown_global_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_spec("bogus = 1\n")

    def test_system_without_method(self):
        with pytest.raises(ParseError, match="no method"):
            parse_spec("[system]\nname = x\n")

    @pytest.mark.parametrize("text, line, key", [
        ("index = a.json\nindex = b.json\n", 2, "index"),
        ("output = o\n[system]\nname = s\nmethod = vdoc\nalpha = 10\n\nalpha = 20\n", 7,
         "alpha"),
        ("[system]\nname = a\nmethod = vdoc\nname = b\n", 4, "name"),
        ("[system]\nname = a\nmethod = vdoc\n# a comment\nmethod = mcdoc\n", 5, "method"),
    ], ids=["global", "system-param", "name", "method"])
    def test_key_repeated_in_a_section(self, text, line, key):
        with pytest.raises(ParseError, match=f"spec line {line}: key '{key}' repeated"):
            parse_spec(text)

    @pytest.mark.parametrize("text, line, key", [
        ("output = o\nqrels =\n", 2, "qrels"),
        ("[system]\nname = s\nmethod = mcdoc\n\nalpha =   \n", 5, "alpha"),
    ], ids=["global", "system"])
    def test_key_without_a_value(self, text, line, key):
        # an empty grid would give the system no points, and an empty
        # global path would read as the key left out
        with pytest.raises(ParseError, match=f"^spec line {line}: key '{key}' has no value$"):
            parse_spec(text)

    def test_line_without_an_equals_sign(self):
        with pytest.raises(ParseError, match="^spec line 3: expected key = value$"):
            parse_spec("output = o\n\nalpha 10\n")

    def test_keys_repeat_across_sections_and_corpus_accumulates(self):
        spec = parse_spec("corpus = a\ncorpus = b\n[system]\nname = x\nmethod = vdoc\n"
                          "alpha = 1\n[system]\nname = y\nmethod = vdoc\nalpha = 2\n")
        assert spec.corpus == ["a", "b"]
        assert [s.params for s in spec.systems] == [{"alpha": ["1"]}, {"alpha": ["2"]}]

    def test_bad_boolean(self):
        with pytest.raises(ParseError, match="boolean"):
            parse_spec("lowercase = maybe\n")


class TestGrid:
    def test_cartesian_product_sorted_keys(self):
        system = SystemSpec("s", "mcdoc",
                            {"alpha": ["1", "2"], "T": ["1", "3"]})
        points = system.grid()
        assert len(points) == 4
        assert points[0] == {"T": "1", "alpha": "1"}
        assert points[-1] == {"T": "3", "alpha": "2"}

    def test_empty_grid_is_single_point(self):
        assert SystemSpec("s", "baseline").grid() == [{}]
