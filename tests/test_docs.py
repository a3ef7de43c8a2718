"""The README's and the docs' examples, run against the package."""
import json
import re

import pytest

from conftest import REPO_ROOT
from splitgame import CellCoord, load_scenario
from splitgame.scenario import scenario_schema

FORMAT_DOC = REPO_ROOT / "docs" / "scenario_format.md"


def _fenced(text: str, language: str) -> list[tuple[str, str]]:
    """Each ```language block in a markdown text, with the ``##`` heading
    above it."""
    blocks, heading, body = [], "", None
    for line in text.splitlines():
        if body is not None:
            if line == "```":
                blocks.append((heading, "\n".join(body)))
                body = None
            else:
                body.append(line)
        elif line.startswith("## "):
            heading = line[3:]
        elif line == f"```{language}":
            body = []
    return blocks


def test_readme_quick_start_states_what_it_computes():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    [code] = [
        body
        for heading, body in _fenced(readme, "python")
        if heading == "Quick start (Python)"
    ]
    # the comment states the result; the block then prints the report
    claim = "# equilibria == {(0, 0), (1, 1)}, undecided == frozenset()"
    assert claim in code.splitlines()
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["equilibria"] == {CellCoord(0, 0), CellCoord(1, 1)}
    assert namespace["undecided"] == frozenset()


def test_field_table_matches_the_schema():
    text = FORMAT_DOC.read_text(encoding="utf-8")
    table = text.split("## Top-level fields\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| (yes|no) +\|", table, re.M)
    schema = scenario_schema()
    assert len(rows) == len({field for field, _ in rows})
    assert {field for field, _ in rows} == set(schema["properties"])
    assert {field for field, need in rows if need == "yes"} == set(
        schema["required"]
    )


_EXAMPLES = _fenced(FORMAT_DOC.read_text(encoding="utf-8"), "json")


@pytest.mark.parametrize(
    "heading, fragment", _EXAMPLES, ids=[heading for heading, _ in _EXAMPLES]
)
def test_example_fragment_loads_in_the_shipped_file(
    heading, fragment, ipd_path, tmp_path
):
    # each example sits under the heading of the field it shows; a
    # constraint example is one entry of the list
    field = re.fullmatch(r"`(\w+)`", heading).group(1)
    with open(ipd_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    value = json.loads(fragment)
    if field == "constraints":
        doc[field].append(value)
    else:
        doc[field] = value
    path = tmp_path / "spliced.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    load_scenario(path)


def test_every_documented_field_has_an_example():
    assert {heading for heading, _ in _EXAMPLES} == {
        "`game`", "`constraints`", "`events`", "`parameters`", "`mc`"
    }
