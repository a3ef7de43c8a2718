"""The package's public names: every exported name resolves, none is listed
twice, and every name the acceptance gate imports stays where it is."""
import importlib

import splitgame

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
