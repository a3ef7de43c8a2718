"""Per-layer metrics from a traced worker's spans.

Each metric is computed from the spans of the workload itself (its set-up
and its timed ops) when the workload calls the function the metric is
about. Otherwise it comes from the fixed probe that every traced worker
runs after its workload (a warm in-process pass over the CLI commands,
small sweeps of each grid kind, a short IPD verification and two cold CLI
ops), so every metric has a measured value on every workload. ``sources``
says which set each value came from and ``samples`` how many spans it
rests on.
"""
from __future__ import annotations

import statistics

from spans import PROBE, SETUP, WARM_CLI, WORKLOAD

OWN = (SETUP, WORKLOAD)
FALLBACK = (WARM_CLI, PROBE)
SWEEP = "solver.sweep."
GRID_KINDS = ("rs_computed", "cq_computed", "rs_published")
CLI_COMMANDS = ("solve", "simulate", "sweep", "score")


class SpanTable:
    def __init__(self, recorder):
        self.names = [recorder.names[i] for i in recorder.name]
        self.phase = list(recorder.phase)
        self.parent = list(recorder.parent)
        self.units = list(recorder.units)
        self.aux = list(recorder.aux)
        self.dur = [end - start for start, end in zip(recorder.start, recorder.end)]
        self.self_time = list(self.dur)
        self.grid = [None] * len(self.dur)  # grid kind of the enclosing sweep
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]
                self.grid[i] = self.grid[parent]
            if self.names[i].startswith(SWEEP):
                self.grid[i] = self.names[i][len(SWEEP):]
        self.by_name = {}
        for i, name in enumerate(self.names):
            self.by_name.setdefault(name, []).append(i)

    def spans(self, name, phases, prefix=False):
        names = [n for n in self.by_name if n.startswith(name)] if prefix else [name]
        return [i for n in names for i in self.by_name.get(n, ()) if self.phase[i] in phases]


class LayerMetrics:
    def __init__(self, table):
        self.t = table
        self.values, self.sources, self.samples = {}, {}, {}

    def _pick(self, name, prefix=False):
        """Spans of ``name`` from the workload if it calls it, else the probe."""
        for phases, label in ((OWN, "workload"), (FALLBACK, "probe")):
            found = self.t.spans(name, phases, prefix)
            if found:
                return found, phases, label
        raise RuntimeError(f"no spans for {name}: the probe must call every layer")

    def put(self, metric, value, label, count):
        self.values[metric] = value
        self.sources[metric] = label
        self.samples[metric] = count

    def per_call(self, metric, name, scale):
        found, _, label = self._pick(name)
        self.put(metric, scale * sum(self.t.dur[i] for i in found) / len(found), label, len(found))

    def per_unit(self, metric, name, scale, prefix=False):
        found, _, label = self._pick(name, prefix)
        units = sum(self.t.units[i] for i in found)
        self.put(metric, scale * sum(self.t.dur[i] for i in found) / units, label, len(found))

    def self_share(self, metric, name, within):
        """Self time of ``name`` over the time of the ``within`` spans."""
        found, phases, label = self._pick(name)
        outer = self.t.spans(within, phases, prefix=True)
        total = sum(self.t.dur[i] for i in outer)
        self.put(metric, sum(self.t.self_time[i] for i in found) / total, label, len(found))

    def calls_per_point(self, metric, name, kind=None):
        sweeps, phases, label = self._pick(SWEEP + kind if kind else SWEEP, prefix=kind is None)
        points = sum(self.t.units[i] for i in sweeps)
        calls = [
            i for i in self.t.spans(name, phases)
            if self.t.grid[i] is not None and (kind is None or self.t.grid[i] == kind)
        ]
        self.put(metric, len(calls) / points, label, int(points))

    def import_share(self, metric):
        """1 - (time inside main) / (wall time of the cold process)."""
        for phases, label in (((WORKLOAD,), "workload"), ((PROBE,), "probe")):
            shares = [
                1.0 - self.t.dur[i] / self.t.dur[self.t.parent[i]]
                for i in self.t.spans("cli.main.", phases, prefix=True)
                if self.t.parent[i] >= 0 and self.t.names[self.t.parent[i]].startswith("op.")
            ]
            if shares:
                self.put(metric, statistics.median(shares), label, len(shares))
                return
        raise RuntimeError("no cold CLI op was traced")

    def rows_skipped(self, metric):
        found, _, label = self._pick("survey.read_responses_csv")
        skipped = {self.t.aux[i] for i in found}
        if len(skipped) != 1:
            raise RuntimeError(f"reads of one cohort skipped different row counts: {skipped}")
        self.put(metric, skipped.pop(), label, len(found))


def compute(recorder):
    """All span-based per-layer metrics, as (values, sources, samples)."""
    m = LayerMetrics(SpanTable(recorder))
    m.per_call("scenario.load_scenario.ms_per_call", "scenario.load_scenario", 1e3)
    m.per_call("scenario.scenario_from_dict.ms_per_call", "scenario.scenario_from_dict", 1e3)
    for command in CLI_COMMANDS:
        found = m.t.spans(f"cli.main.{command}", (WARM_CLI,))
        m.put(
            f"cli.main.{command}.ms",
            1e3 * sum(m.t.dur[i] for i in found) / len(found), "warm_cli", len(found),
        )
    m.import_share("cli.import_share")
    for kind in GRID_KINDS:
        m.calls_per_point(f"index_model.gaussian_tail.calls_per_point.{kind}", "index_model.gaussian_tail", kind)
    m.per_call("index_model.gaussian_tail.us_per_call", "index_model.gaussian_tail", 1e6)
    m.self_share("index_model.gaussian_tail.self_share", "index_model.gaussian_tail", "op.")
    m.per_call("solver.solve.computed.us_per_call", "solver.solve.computed", 1e6)
    m.per_call("solver.solve.published.us_per_call", "solver.solve.published", 1e6)
    m.per_unit("solver.sweep.us_per_point", SWEEP, 1e6, prefix=True)
    m.per_call("solver.Scenario.to_dict.us_per_call", "solver.Scenario.to_dict", 1e6)
    m.calls_per_point("constraints.ConstraintSet.calls_per_point", "constraints.ConstraintSet")
    m.per_call("constraints.ConstraintSet.us_per_call", "constraints.ConstraintSet", 1e6)
    m.per_call("constraints.sample_realization.us_per_call", "constraints.sample_realization", 1e6)
    m.calls_per_point("game.pure_nash.calls_per_point", "game.pure_nash")
    m.per_call("game.pure_nash.us_per_call", "game.pure_nash", 1e6)
    m.per_unit("montecarlo.verify_nash_numeric.us_per_trial", "montecarlo.verify_nash_numeric", 1e6)
    m.per_call("montecarlo.numeric_pure_nash.us_per_call", "montecarlo.numeric_pure_nash", 1e6)
    m.self_share("montecarlo.sampler_self_share", "constraints.sample_realization", "montecarlo.verify_nash_numeric")
    m.per_unit("montecarlo.simulate_selection.ns_per_trial", "montecarlo.simulate_selection", 1e9)
    m.per_unit("survey.read_responses_csv.us_per_row", "survey.read_responses_csv", 1e6)
    m.per_call("survey.score_response.us_per_call", "survey.score_response", 1e6)
    m.rows_skipped("survey.rows_skipped")
    return m.values, m.sources, m.samples
