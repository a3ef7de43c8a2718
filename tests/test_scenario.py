import ast
import copy
import inspect
import json
import math
import os
import warnings
from operator import itemgetter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitgame
from splitgame import (
    Case,
    ConstraintSet,
    DecisionReport,
    DomainError,
    InconsistentOrderError,
    IndexParameters,
    Mode,
    SplitgameError,
    UnknownSymbolError,
    ValidationError,
    ipd_scenario,
    load_scenario,
    scenario_from_dict,
    solve,
    with_parameters,
)
from splitgame._record import replace
from splitgame.errors import MAX_TRIALS, _JSON_TYPES, _schema_errors, check_document
from splitgame.scenario import PARAMETERS, scenario_schema
from test_docs import FORMAT_DOC, _fenced


@pytest.fixture
def ipd_dict(ipd):
    return ipd.to_dict()


class TestShippedFile:
    def test_file_matches_builder(self, ipd_path, ipd):
        assert load_scenario(ipd_path) == ipd

    def test_shipped_defaults(self, ipd):
        assert ipd.name == "ipd"
        assert ipd.case is Case.WEAK_EVIDENCE
        assert ipd.mode is Mode.PUBLISHED
        assert ipd.em_params.score == 3.4 and ipd.em_params.weight == 0.5
        assert ipd.pf_params.score == 6.5 and ipd.pf_params.weight == 0.5
        assert ipd.mc.trials == 1_000_000 and ipd.mc.seed == 123456
        assert ipd.players == ("Emotion", "Profession")
        assert len(ipd.constraints.constraints) == 8
        grouped = [
            c
            for c in ipd.constraints.constraints
            if c.group == "column_best_response_assumptions"
        ]
        assert {(c.left, c.right) for c in grouped} == {
            ("PF11", "PF12"),
            ("PF22", "PF21"),
        }

    def test_builder_variants(self):
        strong = ipd_scenario(case=Case.STRONG_EVIDENCE, mode=Mode.COMPUTED, r=0.3)
        assert strong.case is Case.STRONG_EVIDENCE
        assert strong.mode is Mode.COMPUTED
        assert strong.em_params.weight == 0.3

    def test_example_links_to_the_packaged_file(self, ipd_path):
        packaged = Path(splitgame.__file__).parent / "resources" / "ipd.json"
        assert Path(ipd_path).resolve() == packaged.resolve()
        assert not os.path.isabs(os.readlink(ipd_path))

    @pytest.mark.parametrize("name, value", [("r", 1.5), ("s", 0.0)])
    def test_builder_rejects_a_boundary_weight(self, name, value):
        with pytest.raises(DomainError) as exc:
            ipd_scenario(**{name: value})
        assert str(exc.value) == (
            f"weight must lie strictly inside (0, 1), got {value!r}; "
            "boundary values appear only in reported bounds"
        )

    def test_each_call_builds_its_own_constraint_set(self):
        first, second = ipd_scenario(), ipd_scenario()
        assert first.constraints == second.constraints
        assert first.constraints is not second.constraints


_IDS = st.text(min_size=1, max_size=6)


@st.composite
def valid_scenario_documents(draw):
    """The shipped scenario with valid edits to every field kind: names,
    symbols, constraints, events, parameters, case, mode and the optional
    blocks. Published mode keeps the two reference scores it requires."""
    doc = ipd_scenario().to_dict()
    doc["name"] = draw(_IDS)
    doc["case"] = draw(st.sampled_from(["strong_evidence", "weak_evidence"]))
    doc["mode"] = draw(st.sampled_from(["computed", "published", "paper"]))
    description = draw(st.one_of(st.none(), st.text(max_size=12)))
    if description is None:
        del doc["description"]
    else:
        doc["description"] = description

    game = doc["game"]
    game["row_player"], game["col_player"] = draw(_IDS), draw(_IDS)
    strategies = st.lists(_IDS, min_size=2, max_size=2, unique=True)
    game["row_strategies"] = draw(strategies)
    game["col_strategies"] = draw(strategies)
    old = sorted(sym for row in game["payoffs"] for pair in row for sym in pair)
    new = draw(st.lists(_IDS, min_size=8, max_size=8, unique=True))
    rename = dict(zip(old, new))
    game["payoffs"] = [
        [[rename[sym] for sym in pair] for pair in row]
        for row in game["payoffs"]
    ]

    constraints = []
    for entry in doc["constraints"]:
        if not draw(st.booleans()):
            continue
        entry = {
            **entry,
            "left": rename[entry["left"]],
            "right": rename[entry["right"]],
        }
        entry["probability"] = draw(st.one_of(
            st.just(entry["probability"]), st.just(1), st.floats(0.0, 1.0)
        ))
        group = draw(st.one_of(st.just(entry.get("group")), st.none(), _IDS))
        entry.pop("group", None)
        if group is not None:
            entry["group"] = group
        constraints.append(entry)
    symbols = sorted(rename.values())
    for _ in range(draw(st.integers(0, 3))):
        # lower bounds never conflict with an exact probability or the order
        left, right = draw(st.lists(
            st.sampled_from(symbols), min_size=2, max_size=2, unique=True
        ))
        constraints.append({
            "left": left, "right": right,
            "probability": draw(st.floats(0.0, 1.0)), "bound": "lower",
        })
    doc["constraints"] = draw(st.permutations(constraints))

    labels = draw(st.lists(_IDS, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(
        st.floats(0.01, 1.0), min_size=len(labels), max_size=len(labels)
    ))
    doc["events"] = {
        "labels": labels,
        "prior": [w / sum(weights) for w in weights],
    }

    weight = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    params = {"r": draw(weight), "s": draw(weight)}
    if doc["mode"] == "computed":
        # scores at or below 1 and exactly 10 are accepted with a warning
        score = st.floats(0.0, 10.0, exclude_min=True)
        params["C"], params["Q"] = draw(score), draw(score)
    else:
        params["C"], params["Q"] = 3.4, 6.5
    variance = draw(st.one_of(
        st.none(), st.floats(0.0, 1e300, exclude_min=True), st.integers(1, 100)
    ))
    if variance is not None:
        params["variance"] = variance
    doc["parameters"] = params

    if draw(st.booleans()):
        del doc["mc"]
    else:
        doc["mc"] = {
            "trials": draw(st.integers(1, MAX_TRIALS)),
            "seed": draw(st.integers(0, 2**128)),
        }
    return doc


class TestRoundTrip:
    def test_dict_round_trip(self, ipd, ipd_dict):
        assert scenario_from_dict(copy.deepcopy(ipd_dict)) == ipd

    @settings(max_examples=200, deadline=None)
    @given(valid_scenario_documents())
    def test_scenario_round_trips_through_its_document(self, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scenario = scenario_from_dict(doc)
            assert scenario_from_dict(scenario.to_dict()) == scenario
            text = json.dumps(scenario.to_dict(), allow_nan=False)
            assert scenario_from_dict(json.loads(text)) == scenario

    @settings(max_examples=100, deadline=None)
    @given(valid_scenario_documents())
    def test_equal_scenarios_hash_equal(self, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scenario = scenario_from_dict(copy.deepcopy(doc))
            again = scenario_from_dict(doc)
        assert again == scenario and hash(again) == hash(scenario)
        assert len({scenario, again}) == 1
        assert again in {scenario}

    def test_shipped_scenarios_are_set_members(self, ipd):
        strong = replace(ipd, case=Case.STRONG_EVIDENCE)
        assert {ipd, ipd_scenario(), strong} == {ipd, strong}

    @settings(max_examples=200, deadline=None)
    @given(valid_scenario_documents())
    def test_report_round_trips_through_its_document(self, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                report = solve(scenario_from_dict(doc))
            except SplitgameError:
                # a valid scenario can still fail to solve, e.g. a strong
                # case without the probabilities its certainty chain needs
                return
        assert DecisionReport.from_dict(report.to_dict()) == report
        text = json.dumps(report.to_dict(), allow_nan=False)
        assert DecisionReport.from_dict(json.loads(text)) == report

    def test_file_round_trip(self, tmp_path, ipd, ipd_dict):
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(ipd_dict))
        assert load_scenario(path) == ipd

    def test_mode_alias_accepted(self, ipd_dict):
        ipd_dict["mode"] = "paper"
        assert scenario_from_dict(ipd_dict).mode is Mode.PUBLISHED

    def test_optional_blocks_are_optional(self, ipd_dict):
        del ipd_dict["mc"]
        del ipd_dict["description"]
        scenario = scenario_from_dict(ipd_dict)
        assert scenario.mc is None
        assert scenario.description == ""


def _side_fields(scenario) -> dict:
    """Each (Scenario field, IndexParameters field) pair and its value."""
    return {
        (attr, field): getattr(getattr(scenario, attr), field)
        for attr in ("em_params", "pf_params")
        for field in IndexParameters._fields
    }


class TestParameterTable:
    """``PARAMETERS`` against the schema, the format document and the reader."""

    def test_schema_and_format_example_name_the_table(self):
        names = [*PARAMETERS, "variance"]
        schema = scenario_schema()["properties"]["parameters"]
        assert sorted(schema["properties"]) == sorted(names)
        [example] = [
            json.loads(body)
            for heading, body in _fenced(FORMAT_DOC.read_text(encoding="utf-8"), "json")
            if heading == "`parameters`"
        ]
        assert list(example) == names  # file order

    @pytest.mark.parametrize("name", [*PARAMETERS, "variance"])
    def test_each_parameter_moves_only_its_field(self, ipd, ipd_dict, name):
        value = {"r": 0.25, "C": 5.0, "s": 0.75, "Q": 2.0, "variance": 3.0}[name]
        ipd_dict["parameters"][name] = value
        moved = scenario_from_dict(ipd_dict)
        before, after = _side_fields(ipd), _side_fields(moved)
        changed = {key for key in before if before[key] != after[key]}
        if name == "variance":
            assert changed == {("em_params", "variance"), ("pf_params", "variance")}
        else:
            assert changed == {PARAMETERS[name]}
            assert with_parameters(ipd, {name: value}) == moved
        assert {after[key] for key in changed} == {value}
        assert replace(moved, em_params=ipd.em_params, pf_params=ipd.pf_params) == ipd
        assert moved.to_dict() == ipd_dict


class TestSchemaValidation:
    def test_unknown_top_level_field(self, ipd_dict):
        ipd_dict["surprise"] = 1
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict, source="mem.json")
        message = str(exc.value)
        assert "mem.json" in message and "surprise" in message

    def test_missing_section_named(self, ipd_dict):
        del ipd_dict["events"]
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "events" in str(exc.value)

    def test_bad_mode_value(self, ipd_dict):
        ipd_dict["mode"] = "quantum"
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "mode" in str(exc.value)

    def test_payoff_cell_arity(self, ipd_dict):
        ipd_dict["game"]["payoffs"][0][0] = ["EM11", "PF11", "X"]
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "payoffs" in str(exc.value)

    def test_constraint_probability_range(self, ipd_dict):
        ipd_dict["constraints"][0]["probability"] = 1.5
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert "constraints" in str(exc.value)

    def test_constraint_unknown_symbol(self, ipd_dict):
        ipd_dict["constraints"][0]["left"] = "ZZ99"
        with pytest.raises(ValidationError):
            scenario_from_dict(ipd_dict)


# values that break the types, bounds and lengths the schema declares:
# bools (not numbers), integral floats (integers in draft 2020-12), empty and
# wrong-arity lists, objects with stray keys
WRONG_VALUES = (
    None, True, False, 0, 1, -1, 1.0, 2.0, 2.5, -0.5, 1e300,
    "", "x", "exact", "weak_evidence",
    [], ["x"], [1, 2], ["EM11", "PF11", "X"], [["EM11", "PF11"]],
    {}, {"left": "A"},
)
EXTRA_KEYS = ("surprise", "bound", "group", "variance", "description")


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


@st.composite
def mutated_documents(draw, base):
    """``base`` with one to three field-level mutations."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = _at(doc, path)
        parent = _at(doc, path[:-1]) if path else None
        kind = draw(st.sampled_from(("replace", "delete", "extra", "grow", "shrink")))
        wrong = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
        if kind == "replace":
            if parent is None:
                doc = wrong
            else:
                parent[path[-1]] = wrong
        elif kind == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif kind == "extra" and isinstance(node, dict):
            node[draw(st.sampled_from(EXTRA_KEYS))] = wrong
        elif kind == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node else wrong)
        elif kind == "shrink" and isinstance(node, list) and node:
            node.pop(draw(st.integers(0, len(node) - 1)))
    return doc


# every shipped schema -> a document that meets it: the shipped scenario, a
# report solved from it, the shipped instrument
SCHEMAS = {
    "scenario.schema.json": ipd_scenario().to_dict(),
    "report.schema.json": solve(ipd_scenario()).to_dict(),
    "instrument.schema.json": copy.deepcopy(splitgame._resource("instrument.json")),
}


def _schema(name):
    """A copy of the shipped schema ``name``, so no test can change it."""
    return copy.deepcopy(splitgame._resource(name))


@st.composite
def mutated_shipped_documents(draw):
    """A shipped schema's name and its document with one to three
    field-level mutations."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    return name, draw(mutated_documents(SCHEMAS[name]))


def _oracle_errors(doc, schema):
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    return [(tuple(e.absolute_path), e.message) for e in errors]


def _reader_errors(doc, schema):
    return sorted(_schema_errors(doc, schema), key=itemgetter(0))


def _first_error(doc, schema):
    """``check_document``'s message for ``doc``, or None if it passes."""
    try:
        check_document(doc, schema, "doc")
    except ValidationError as error:
        return str(error)
    return None


def _oracle_first_error(doc, schema):
    """The first error by path that jsonschema reports, worded as
    ``check_document`` words it, or None."""
    errors = _oracle_errors(doc, schema)
    if not errors:
        return None
    path, message = errors[0]
    return f"doc: {'/'.join(map(str, path)) or '<root>'}: {message}"


def _prefix_pair_schema():
    """The shipped scenario schema with each payoff pair stated as two
    ``prefixItems`` schemas and ``items: false``, as it once was."""
    schema = scenario_schema()
    grid = schema["properties"]["game"]["properties"]["payoffs"]["items"]
    item = grid["items"]["items"]
    assert grid["items"] == {
        "type": "array", "items": item, "minItems": 2, "maxItems": 2,
    }
    grid["items"] = {
        "type": "array",
        "prefixItems": [item, copy.deepcopy(item)],
        "minItems": 2,
        "maxItems": 2,
        "items": False,
    }
    return schema


def _reader_keywords():
    """The keywords ``_schema_errors`` compares ``keyword`` against, read
    off its source, so a keyword the reader would skip is never listed."""
    tree = ast.parse(inspect.getsource(_schema_errors))
    return {
        node.comparators[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "keyword"
        and isinstance(node.comparators[0], ast.Constant)
    }


def _schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if isinstance(schema.get("items"), dict):
        yield from _schema_nodes(schema["items"])


class TestSchemaReader:
    """The package's schema reader against jsonschema as an oracle."""

    @settings(max_examples=800, deadline=None)
    @given(mutated_shipped_documents())
    def test_errors_match_jsonschema(self, named_doc):
        name, doc = named_doc
        schema = _schema(name)
        assert _reader_errors(doc, schema) == _oracle_errors(doc, schema)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("mc", "trials"), 1.0),
            (("mc", "trials"), True),
            (("mc", "seed"), 2.5),
            (("constraints", 0, "probability"), False),
            (("constraints", 0, "probability"), -0.5),
            (("parameters", "variance"), "10"),
            (("game", "payoffs", 0, 0), ["EM11"]),
            (("game", "payoffs", 0, 0), ["EM11", "PF11", "X", "Y"]),
            (("game", "row_strategies"), []),
            (("name",), ""),
            (("case",), "weak"),
        ],
    )
    def test_hand_picked_mutations_match_jsonschema(self, path, value):
        doc = ipd_scenario().to_dict()
        _at(doc, path[:-1])[path[-1]] = value
        schema = scenario_schema()
        assert _reader_errors(doc, schema) == _oracle_errors(doc, schema)

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents(SCHEMAS["scenario.schema.json"]))
    def test_one_item_schema_words_the_first_error_as_the_prefix_pair(self, doc):
        assert _first_error(doc, scenario_schema()) == _oracle_first_error(
            doc, _prefix_pair_schema()
        )

    @pytest.mark.parametrize(
        "pair",
        [[], ["a"], ["a", "b", "c"], [1, "b", "c"], ["a", "b", 3], ["", "b"],
         ["a", 2], "ab", [None], None],
    )
    def test_a_pair_reads_as_under_the_prefix_pair(self, pair):
        doc = ipd_scenario().to_dict()
        doc["game"]["payoffs"][0][1] = pair
        expected = _oracle_first_error(doc, _prefix_pair_schema())
        assert expected is not None
        assert _first_error(doc, scenario_schema()) == expected

    @pytest.mark.parametrize(
        "schema, value",
        [
            ({"type": "object", "additionalProperties": False}, {"a": 1, "b": 2}),
            ({"type": "array", "minItems": 2, "maxItems": 0}, [1]),
            ({"type": "string", "minLength": 2}, "a"),
            ({"minimum": 0.5, "maximum": 0}, 0.25),
            ({"type": "number", "maximum": 1}, True),
        ],
    )
    def test_wording_off_the_shipped_schema_matches_jsonschema(self, schema, value):
        oracle = jsonschema.Draft202012Validator(schema).iter_errors(value)
        assert list(_schema_errors(value, schema)) == [
            (tuple(e.absolute_path), e.message) for e in oracle
        ]

    def test_schema_uses_only_keywords_the_reader_reads(self):
        annotations = {"$schema", "title", "description"}
        handled = _reader_keywords()
        # the source scan finds the reader's keywords, and a keyword such
        # as "pattern", which it skips, would fail the walk below
        assert {"type", "enum", "properties", "minimum"} <= handled
        assert "pattern" not in handled
        resources = Path(splitgame.__file__).parent / "resources"
        names = sorted(path.name for path in resources.glob("*.schema.json"))
        # every schema the package ships is also checked against jsonschema
        assert names == sorted(SCHEMAS)
        for name in names:
            for node in _schema_nodes(_schema(name)):
                assert set(node) <= handled | annotations, node
                assert node.get("type", "object") in _JSON_TYPES, node
                assert node.get("additionalProperties", False) is False, node
                # the reader reads "items" as one schema, never a boolean
                assert isinstance(node.get("items", {}), dict), node
                assert all(isinstance(v, str) for v in node.get("enum", ())), node


    def test_changing_the_returned_schema_changes_no_check(self, ipd_path):
        schema = scenario_schema()
        schema["properties"]["name"] = {"type": "number"}
        assert load_scenario(ipd_path).name == "ipd"
        assert scenario_schema()["properties"]["name"] == {"type": "string", "minLength": 1}


class TestSemanticValidation:
    def test_unequal_variances_rejected(self, ipd):
        with pytest.raises(ValidationError, match="10.0 and 2.0"):
            replace(
                ipd,
                mode=Mode.COMPUTED,
                pf_params=IndexParameters(score=6.5, weight=0.5, variance=2.0),
            )

    def test_order_must_know_every_game_symbol(self, ipd):
        # the first missing symbol in sorted order is named
        universe = ipd.constraints.universe - {"PF22", "EM12", "PF11"}
        kept = [
            c
            for c in ipd.constraints.constraints
            if {c.left, c.right} <= universe
        ]
        with pytest.raises(UnknownSymbolError) as exc:
            replace(ipd, constraints=ConstraintSet(kept, universe=universe))
        assert str(exc.value) == "unknown payoff symbol 'EM12'"
        assert exc.value.exit_code == 4
        # a universe wider than the game passes
        wider = ConstraintSet(kept, universe=ipd.constraints.universe | {"X"})
        assert replace(ipd, constraints=wider).constraints is wider

    def test_report_inputs_echo_the_variance_used(self, ipd_dict):
        ipd_dict["mode"] = "computed"
        ipd_dict["parameters"]["variance"] = 2.0
        report = solve(scenario_from_dict(ipd_dict))
        assert report.inputs["parameters"]["variance"] == 2.0
        again = solve(scenario_from_dict(report.inputs))
        assert again.p_pf21 == report.p_pf21

    def test_weight_outside_open_interval(self, ipd_dict):
        ipd_dict["parameters"]["r"] = 1.0
        with pytest.raises(DomainError):
            scenario_from_dict(ipd_dict)

    def test_prior_must_sum_to_one(self, ipd_dict):
        ipd_dict["events"]["prior"] = [0.5, 0.3, 0.1]
        with pytest.raises(DomainError):
            scenario_from_dict(ipd_dict)

    def test_nan_prior_is_domain_error(self, ipd_dict):
        ipd_dict["events"]["prior"] = [math.nan, 0.5, 0.5]
        with pytest.raises(DomainError, match="scholarship_offer"):
            scenario_from_dict(ipd_dict)

    def test_nan_variance_is_domain_error(self, ipd_dict):
        ipd_dict["parameters"]["variance"] = math.nan
        with pytest.raises(DomainError, match="variance"):
            scenario_from_dict(ipd_dict)

    def test_certain_cycle_named(self, ipd_dict):
        ipd_dict["constraints"].append(
            {"left": "EM21", "right": "EM11", "probability": 1.0}
        )
        with pytest.raises(InconsistentOrderError) as exc:
            scenario_from_dict(ipd_dict)
        assert "EM21" in str(exc.value) and "EM11" in str(exc.value)

    def test_published_mode_gate_applies_to_files(self, ipd_dict):
        ipd_dict["parameters"]["C"] = 2.0
        scenario = scenario_from_dict(ipd_dict)
        with pytest.raises(ValidationError):
            solve(scenario)


# what a numeric field is mutated to: any float (NaN and the infinities
# included), integers past a float's range, boundary values and booleans
_MUTANT_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, -0.0, 5e-324, 1 - 2**-53, 1, 3.4, 6.5, 10, 10**400]),
    st.booleans(),
)
# what an enum field is mutated to: every value of the three enums, and
# near misses
_MUTANT_ENUMS = st.sampled_from([
    "strong_evidence", "weak_evidence", "computed", "published", "paper",
    "exact", "lower", "", " Paper ", "WEAK_EVIDENCE", "upper",
])


@st.composite
def mutated_scenario_documents(draw):
    """A valid scenario document with one to four of its numeric, list and
    enum fields mutated."""
    doc = draw(valid_scenario_documents())
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("number", "list", "enum")))
        if kind == "enum":
            paths = [("case",), ("mode",)] + [
                ("constraints", i, "bound")
                for i in range(len(doc["constraints"]))
            ]
        else:
            paths = [
                path for path in _paths(doc)
                if isinstance(_at(doc, path), list if kind == "list" else float)
                or kind == "number" and type(_at(doc, path)) is int
            ]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if kind == "number":
            parent[path[-1]] = draw(_MUTANT_NUMBERS)
        elif kind == "enum":
            parent[path[-1]] = draw(_MUTANT_ENUMS)
        else:
            node = _at(doc, path)
            edit = draw(st.sampled_from(("empty", "drop", "repeat", "shuffle")))
            if edit == "empty":
                node.clear()
            elif edit == "drop" and node:
                node.pop(draw(st.integers(0, len(node) - 1)))
            elif edit == "repeat" and node:
                node.append(copy.deepcopy(draw(st.sampled_from(node))))
            else:
                node[:] = draw(st.permutations(node))
    return doc


def _finite(node) -> bool:
    if isinstance(node, dict):
        return all(map(_finite, node.values()))
    if isinstance(node, list):
        return all(map(_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


class TestMutatedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(mutated_scenario_documents())
    def test_solves_to_a_finite_report_or_raises(self, doc):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                report = solve(scenario_from_dict(doc))
            except SplitgameError:
                return
        assert _finite(report.to_dict())

    @pytest.mark.parametrize(
        "path", [("parameters", "C"), ("parameters", "variance"),
                 ("events", "prior", 1)],
    )
    def test_integer_past_a_float_is_a_validation_error(self, ipd_dict, path):
        _at(ipd_dict, path[:-1])[path[-1]] = 10**400
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        where = "/".join(map(str, path))
        assert str(exc.value) == (
            f"<scenario>: {where}: integer too large for a float"
        )

    def test_mc_trials_above_the_cap_rejected(self, ipd_dict):
        ipd_dict["mc"]["trials"] = MAX_TRIALS + 1
        with pytest.raises(ValidationError) as exc:
            scenario_from_dict(ipd_dict)
        assert str(exc.value) == "trials must be <= 100000000"


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert "JSON" in str(exc.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_names_file(self, tmp_path, ipd_dict, literal):
        text = json.dumps(ipd_dict).replace(
            '"variance": 10.0', f'"variance": {literal}'
        )
        assert literal in text
        path = tmp_path / "non_finite.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(path) in str(exc.value)
        assert literal in str(exc.value)

    def test_integer_past_the_digit_limit_names_file(self, tmp_path, ipd_dict):
        # Python's int() refuses a literal of more than 4300 digits
        text = json.dumps(ipd_dict).replace(
            '"variance": 10.0', '"variance": 1' + "0" * 5000
        )
        path = tmp_path / "long_integer.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(exc.value) == (
            f"{path}: not valid JSON: integer literal longer than 4300 digits"
        )

    def test_undecodable_bytes_keep_the_codec_message(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ValidationError) as exc:
            load_scenario(path)
        assert str(exc.value) == (
            f"{path}: not valid JSON: 'utf-8' codec can't decode byte 0xff "
            "in position 10: invalid start byte"
        )
