"""Span recording around the package's public functions.

The benchmark times layers from the outside: ``install`` replaces each
listed function or method, on every loaded ``splitgame`` module that binds
it, with a wrapper that records a span (name, start, end, parent span, op
id, phase, work units, auxiliary count). Spans are kept in flat arrays in memory and are
written out once, when the traced run ends. Nothing in the package itself
changes.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# phases of a traced worker; metrics read spans from the phases they name
# and never from WARMUP
SETUP, WORKLOAD, WARM_CLI, PROBE, WARMUP = range(5)
PHASE_NAMES = ("setup", "workload", "warm_cli", "probe", "warmup")


class Recorder:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self.units = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.current_phase = SETUP

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name):
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.phase.append(self.current_phase)
        self.units.append(0.0)
        self.aux.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx, units=0.0, aux=0.0):
        self.end[idx] = perf_counter()
        self.units[idx] = units
        self.aux[idx] = aux
        self._stack.pop()

    def add(self, name, start, end, parent, units=0.0, aux=0.0):
        """Append a finished span, e.g. one read back from a child process."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.phase.append(self.current_phase)
        self.units.append(units)
        self.aux.append(aux)
        return idx

    def rows(self):
        for i in range(len(self.start)):
            yield (
                self.names[self.name[i]], self.start[i], self.end[i],
                self.parent[i], self.op[i], PHASE_NAMES[self.phase[i]], self.units[i], self.aux[i],
            )

    def dump(self, path):
        """Write the spans as gzip'd tab-separated lines, with a header."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\top\tphase\tunits\taux\n")
            for i, row in enumerate(self.rows()):
                handle.write(f"{i}\t" + "\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _wrap(recorder, fn, name, units):
    """``name`` is a string or a function of the call's arguments;
    ``units(args, kwargs, result)`` gives the work units of one call, or a
    (units, aux) pair."""
    static = isinstance(name, str)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name if static else name(args, kwargs))
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            measure = units(args, kwargs, result) if units and result is not None else 0.0
            if isinstance(measure, tuple):
                recorder.close(idx, *measure)
            else:
                recorder.close(idx, measure)

    return wrapper


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def sweep_kind(args, kwargs):
    """rs_computed, cq_computed, rs_published, ...: swept axes and mode."""
    axes = "cq" if {"C", "Q"} & set(_arg(args, kwargs, 1, "grid")) else "rs"
    return f"{axes}_{_arg(args, kwargs, 0, 'scenario').mode.value}"


# (module, attribute, span name, units per call); "Class.method" patches the class
TARGETS = (
    ("scenario", "load_scenario", "scenario.load_scenario", None),
    ("scenario", "scenario_from_dict", "scenario.scenario_from_dict", None),
    ("index_model", "gaussian_tail", "index_model.gaussian_tail", None),
    ("solver", "solve", lambda a, k: "solver.solve." + _arg(a, k, 0, "scenario").mode.value, None),
    ("solver", "sweep", lambda a, k: "solver.sweep." + sweep_kind(a, k), lambda a, k, res: len(res[1])),
    ("solver", "Scenario.to_dict", "solver.Scenario.to_dict", None),
    ("constraints", "ConstraintSet.__init__", "constraints.ConstraintSet", None),
    ("constraints", "ConstraintSet.sample_realization", "constraints.sample_realization", None),
    ("game", "pure_nash", "game.pure_nash", None),
    ("montecarlo", "verify_nash_numeric", "montecarlo.verify_nash_numeric",
     lambda a, k, res: res.trials),
    ("montecarlo", "numeric_pure_nash", "montecarlo.numeric_pure_nash", None),
    ("montecarlo", "simulate_selection", "montecarlo.simulate_selection",
     lambda a, k, res: res.trials),
    ("survey", "read_responses_csv", "survey.read_responses_csv",
     lambda a, k, res: (len(res[0]) + len(res[1]), len(res[1]))),
    ("survey", "score_response", "survey.score_response", None),
    ("cli", "main", lambda a, k: "cli.main." + _arg(a, k, 0, "argv")[0], None),
)


def install(recorder):
    """Wrap every target; the package must already be imported."""
    import splitgame.cli  # noqa: F401  (loads every submodule)

    modules = [m for n, m in list(sys.modules.items()) if n == "splitgame" or n.startswith("splitgame.")]
    for module_name, attr, name, units in TARGETS:
        home = sys.modules[f"splitgame.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, _wrap(recorder, getattr(cls, method), name, units))
            continue
        original = getattr(home, attr)
        wrapper = _wrap(recorder, original, name, units)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
