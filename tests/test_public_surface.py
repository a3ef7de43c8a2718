"""The package's public names: every exported name resolves, none is listed
twice, each loads only the module that defines it, and every name the
acceptance gate imports stays where it is."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitgame
from test_layering import ALLOWED

SOURCE_ROOT = Path(splitgame.__file__).parent.parent

# module -> names tests/test_acceptance.py imports from it
GATE_IMPORTS = {
    "splitgame": (
        "EventSpace", "Mode", "NumericOrder", "OrdinalGame",
        "SimulationConfig", "SurveyResponse", "fixed_point_posterior",
        "gaussian_tail", "ipd_scenario", "numeric_pure_nash",
        "published_coefficient", "pure_nash", "score_factor",
        "score_response", "simulate_selection", "solve",
        "verify_nash_numeric",
    ),
    "splitgame.solver": ("Case",),
    "splitgame.survey": ("CHOICES", "POSITIVE", "canonical_instrument"),
}


def test_every_exported_name_resolves_once():
    assert len(set(splitgame.__all__)) == len(splitgame.__all__)
    for name in splitgame.__all__:
        assert hasattr(splitgame, name), name


def test_acceptance_gate_names_present():
    assert sum(len(names) for names in GATE_IMPORTS.values()) == 21
    assert set(GATE_IMPORTS["splitgame"]) <= set(splitgame.__all__)
    for module_name, names in GATE_IMPORTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"


def _loaded_after(statement: str) -> set:
    """The modules a fresh ``python -S`` holds after running ``statement``."""
    code = f"import sys\n{statement}\nprint(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SOURCE_ROOT))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_import_loads_no_package_module():
    loaded = _loaded_after("import splitgame")
    assert "splitgame" in loaded
    assert not [
        name for name in loaded
        if name.startswith("splitgame.") or name.partition(".")[0] == "numpy"
    ]


def test_import_loads_neither_json_nor_functools():
    # the package data loader imports json on first use
    loaded = _loaded_after("import splitgame")
    assert not loaded & {"json", "functools"}


def test_cli_loads_no_dataclasses_inspect_or_typing():
    # each would add milliseconds to every command's start
    loaded = _loaded_after("import splitgame.cli")
    assert "splitgame.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing"}


def test_a_name_loads_only_its_module():
    loaded = _loaded_after("from splitgame import score_response")
    package = {name for name in loaded if name.startswith("splitgame.")}
    assert package == {"splitgame._record", "splitgame.errors", "splitgame.survey"}


def test_each_name_is_its_modules_object():
    for name, module in splitgame._EXPORTS.items():
        home = importlib.import_module(f"splitgame.{module}")
        assert getattr(splitgame, name) is getattr(home, name), name


def test_table_names_only_modules_the_package_may_import():
    assert set(splitgame._EXPORTS.values()) <= ALLOWED["__init__"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splitgame.no_such_name


def test_dir_lists_every_exported_name():
    assert set(splitgame.__all__) <= set(dir(splitgame))
