"""One benchmark process: set a workload up, then run it in a closed loop.

Started by run.py:

    worker.py WORKLOAD RUN_DIR SECONDS MODE OUT

MODE is ``setup`` (set up, report, exit), ``run`` (untraced timed loop) or
``traced`` (spans on, then the probe and the per-layer metrics). The
worker prints ``ready`` on stdout once ``splitgame`` is imported and the
workload's inputs are loaded into program objects; run.py times that line
as the set-up. Results go to the JSON file OUT.
"""
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

VERIFY_IPD_TRIALS = 128
VERIFY_TIGHT_TRIALS = 4
CLI_TIMEOUT_S = 120
# op ids of the traced extras start here, clear of the workload's ops
WARM_FIRST_OP = 1_000_000
PROBE_FIRST_OP = 2_000_000
WARM_CLI_REPEATS = {
    "solve_published": 10,
    "solve_computed": 10,
    "simulate": 3,
    "sweep_published": 10,
    "score_lenient": 3,
}


class Op:
    """One kind of op: ``run(i)`` does the work, ``check(output)`` returns
    None or the reason the output is wrong; ``units`` is its work count.
    ``after(output, span)``, when given, runs after a traced op's span."""

    def __init__(self, kind, run, check, units=1, after=None):
        self.kind, self.run, self.check, self.units, self.after = kind, run, check, units, after


def _doc(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _certain_pairs(doc):
    return [
        (c["left"], c["right"])
        for c in doc["constraints"]
        if c["probability"] == 1.0 and c.get("bound", "exact") == "exact"
    ]


# -- in-process workloads ---------------------------------------------------


def sweep_grid(manifest):
    from splitgame import load_scenario, sweep

    import checks

    files = manifest["files"]
    bases = {
        "rs_computed": ("sweep_computed", "computed"),
        "cq_computed": ("sweep_computed", "computed"),
        "rs_published": ("sweep_published", "published"),
    }
    scenarios = {name: load_scenario(files[name]) for name, _ in bases.values()}
    ops = []
    for kind, (name, mode) in bases.items():
        scenario, grid = scenarios[name], manifest["grids"][kind]
        params = _doc(files[name])["parameters"]
        points = math.prod(len(values) for values in grid.values())
        ops.append(Op(
            kind,
            lambda i, scenario=scenario, grid=grid: sweep(scenario, grid),
            lambda out, grid=grid, params=params, mode=mode: checks.check_sweep(out[0], out[1], grid, params, mode),
            points,
        ))
    return ops, scenarios


def _verify(manifest, name, trials):
    from splitgame import load_scenario, verify_nash_numeric

    import checks

    path = manifest["files"][name]
    scenario = load_scenario(path)
    doc = _doc(path)
    expected = checks.decided_cells(doc["game"]["payoffs"], _certain_pairs(doc))
    seed_base = manifest["verify_seed_base"] * 100_000
    op = Op(
        name,
        lambda i: verify_nash_numeric(scenario.game, scenario.constraints, trials, seed_base + i),
        lambda out: checks.check_verification(out, trials, *expected),
        trials,
    )
    return [op], {name: scenario}


def verify_ipd(manifest):
    return _verify(manifest, "ipd", VERIFY_IPD_TRIALS)


def verify_tight(manifest):
    return _verify(manifest, "tight", VERIFY_TIGHT_TRIALS)


# -- cold CLI ---------------------------------------------------------------


class ColdCli:
    """Runs one ``python -m splitgame`` process per op; when traced, the
    process is clichild.py and its spans are merged under the op span."""

    def __init__(self, recorder=None, spans_dir=None):
        self.recorder, self.spans_dir = recorder, spans_dir

    def __call__(self, argv, i):
        if self.recorder is None:
            cmd = [sys.executable, "-m", "splitgame", *argv]
            spans_path = None
        else:
            spans_path = self.spans_dir / f"child_{self.recorder.current_phase}_{i}.json"
            cmd = [sys.executable, str(HERE / "clichild.py"), str(spans_path), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, spans_path

    def merge(self, output, op_span):
        """Add the child's spans under ``op_span``; parents are re-based."""
        spans_path = output[3]
        if spans_path is None or not spans_path.exists():
            return
        base = len(self.recorder)
        for name, start, end, parent, units, aux in json.loads(spans_path.read_text()):
            self.recorder.add(name, start, end, op_span if parent < 0 else base + parent, units, aux)
        spans_path.unlink()


def _expect_exit(codes, check=None):
    def verdict(out):
        code, stdout, stderr, _ = out
        if code not in codes:
            return f"exit {code}, expected {' or '.join(map(str, sorted(codes)))}"
        if code != 0 and stdout:
            return "a failing op wrote to stdout"
        return check(stdout, stderr) if check else None

    return verdict


def cli_ops(manifest, cli):
    import checks

    f, c = manifest["files"], manifest["cli"]
    scenario = f["cli_scenario"]
    r, s = c["r"], c["s"]
    table = [
        ("solve_published", ["solve", "--scenario", scenario], {0},
         lambda out, err: checks.check_solve_output(out, r, s, "published")),
        ("solve_computed", ["solve", "--scenario", scenario, "--mode", "computed"], {0},
         lambda out, err: checks.check_solve_output(out, r, s, "computed")),
        ("simulate", ["simulate", "--scenario", scenario], {0},
         lambda out, err: checks.check_simulate_output(out, r, s)),
        ("sweep_published", ["sweep", "--scenario", scenario, "--grid", c["sweep_grid"]], {0},
         lambda out, err: checks.check_sweep_output(out, c["sweep_start"], c["sweep_points"], c["sweep_step"], s)),
        ("score_lenient", ["score", f["cohort"], "--lenient"], {0},
         lambda out, err: checks.check_score_output(out, err, manifest["cohort"])),
        ("err_cyclic", ["solve", "--scenario", f["err_cyclic"]], {5}, None),
        ("err_weight", ["solve", "--scenario", f["err_weight"]], {6}, None),
        ("err_schema", ["solve", "--scenario", f["err_schema"]], {4}, None),
        # documented contract for non-finite input: a validation or domain error
        ("defect_nan_variance", ["solve", "--scenario", f["defect_nan_variance"]], {4, 6}, None),
        ("defect_nan_prior", ["solve", "--scenario", f["defect_nan_prior"]], {4, 6}, None),
    ]
    after = cli.merge if getattr(cli, "recorder", None) is not None else None
    return [
        Op(kind, lambda i, argv=argv: cli(argv, i), _expect_exit(codes, check), after=after)
        for kind, argv, codes, check in table
    ]


def cli_cold(manifest, recorder=None, spans_dir=None):
    from splitgame import canonical_instrument, load_scenario

    scenario = load_scenario(manifest["files"]["cli_scenario"])
    canonical_instrument()
    return cli_ops(manifest, ColdCli(recorder, spans_dir)), {"cli_scenario": scenario}


WORKLOADS = {
    "cli_cold": cli_cold,
    "sweep_grid": sweep_grid,
    "verify_ipd": verify_ipd,
    "verify_tight": verify_tight,
}


# -- the loop -----------------------------------------------------------------


def run_ops(ops, seconds, recorder=None, first_op=0, prefix="op.", reference=None):
    """Closed loop, one caller: whole cycles of ``ops`` until ``seconds``
    have passed. Returns the op records [kind, latency_s, units, failure
    reason or None, start_s] and, when a calibration ``reference`` is
    named, its samples [at_s, seconds] taken before the first op and after
    every op (times count from the loop's start)."""
    import calibrate

    records, samples = [], []
    i = first_op
    start = time.perf_counter()
    if reference is not None:
        samples.append([0.0, calibrate.sample(reference)])
    while True:
        for op in ops:
            if recorder is not None:
                recorder.current_op = i
                span = recorder.open(prefix + op.kind)
            t0 = time.perf_counter()
            try:
                output, reason = op.run(i), None
            except Exception as exc:  # an op failure is a result, not a crash
                output, reason = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if reference is not None:
                samples.append([time.perf_counter() - start, calibrate.sample(reference)])
            if recorder is not None:
                recorder.close(span, op.units)
                if op.after is not None and output is not None:
                    op.after(output, span)
            if reason is None:
                try:
                    reason = op.check(output)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
            records.append([op.kind, latency, op.units, reason, t0 - start])
            i += 1
        if time.perf_counter() - start >= seconds:
            return records, samples


def warm_cli(manifest, run_dir, recorder):
    """In-process ``cli.main`` per command after a warm import."""
    import contextlib
    import io

    import spans
    import splitgame.cli

    out_path = run_dir / "warm_cli.out"

    def call(argv, i):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = splitgame.cli.main(argv + ["--out", str(out_path)])
        return code, out_path.read_text(encoding="utf-8"), err.getvalue(), None

    ops = [op for op in cli_ops(manifest, call) if op.kind in WARM_CLI_REPEATS]
    recorder.current_phase = spans.WARMUP
    for op in ops:  # one pass so first-call costs stay out of the figures
        op.run(0)
    recorder.current_phase = spans.WARM_CLI
    cycle = [op for op in ops for _ in range(WARM_CLI_REPEATS[op.kind])]
    return run_ops(cycle, 0, recorder, first_op=WARM_FIRST_OP, prefix="op.warm.")[0]


def probe(manifest, run_dir, recorder, workload):
    """Small fixed passes over the layers a workload may not call: a 4x4
    sweep of each grid kind, one IPD verification and, unless the workload
    is the cold CLI, two cold ``solve`` processes."""
    import checks
    from splitgame import sweep

    grid_ops, scenarios = sweep_grid(manifest)
    files = manifest["files"]
    ops = []
    for op in grid_ops:
        grid = {k: v[:4] for k, v in manifest["grids"][op.kind].items()}
        name = "sweep_published" if op.kind == "rs_published" else "sweep_computed"
        doc = _doc(files[name])
        params, mode = doc["parameters"], doc["mode"]
        ops.append(Op(
            op.kind,
            lambda i, s=scenarios[name], g=grid: sweep(s, g),
            lambda out, g=grid, p=params, m=mode: checks.check_sweep(out[0], out[1], g, p, m),
            16,
        ))
    ops += verify_ipd(manifest)[0]
    records = run_ops(ops, 0, recorder, first_op=PROBE_FIRST_OP, prefix="op.probe.")[0]
    if workload != "cli_cold":
        solve = cli_ops(manifest, ColdCli(recorder, run_dir))[0]
        records += run_ops(
            [solve, solve], 0, recorder, first_op=PROBE_FIRST_OP + len(ops), prefix="op.probe.cli_"
        )[0]
    return records


def traced_extras(manifest, run_dir, recorder, workload, scenarios):
    """Warm CLI pass, probe, per-layer metrics and the spans file."""
    import layers
    import linext
    import spans
    from splitgame import load_scenario

    extra = warm_cli(manifest, run_dir, recorder)
    recorder.current_phase = spans.PROBE
    extra += probe(manifest, run_dir, recorder, workload)
    values, sources, samples = layers.compute(recorder)

    # acceptance of the order the workload samples from (the IPD order
    # of the probe when the workload samples nothing)
    name = "tight" if workload == "verify_tight" else "ipd"
    scenario = scenarios.get(name) or load_scenario(manifest["files"][name])
    order = scenario.constraints
    pairs, symbols = order.certain_order, order.symbols
    fraction = linext.acceptance(symbols, pairs)
    acceptance = {
        "order": name,
        "symbols": len(symbols),
        "linear_extensions": linext.count_linear_extensions(symbols, pairs),
        "value": str(fraction),
        "method": "computed: e(P)/n! by downset DP over ConstraintSet.certain_order",
    }
    if name == "ipd":
        brute = linext.count_by_brute_force(symbols, pairs)
        if brute != acceptance["linear_extensions"]:
            raise RuntimeError(f"e(P) DP {acceptance['linear_extensions']} != brute force {brute}")
        acceptance["brute_force_linear_extensions"] = brute
    values["constraints.sample_realization.acceptance"] = float(fraction)
    sources["constraints.sample_realization.acceptance"] = "workload" if name in scenarios else "probe"
    samples["constraints.sample_realization.acceptance"] = 1
    recorder.dump(run_dir / "spans.tsv.gz")
    return {
        "layers": values,
        "sources": sources,
        "samples": samples,
        "acceptance": acceptance,
        "extra_failures": [r for r in extra if r[3] is not None],
        "spans": len(recorder),
    }


def main(workload, run_dir, seconds, mode, out):
    run_dir, seconds = Path(run_dir), float(seconds)
    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    else:
        import splitgame  # noqa: F401
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    if workload == "cli_cold":
        ops, scenarios = cli_cold(manifest, recorder, run_dir)
    else:
        ops, scenarios = WORKLOADS[workload](manifest)
    print("ready", flush=True)
    if mode == "setup":
        return
    if recorder is not None:
        recorder.current_phase = spans.WORKLOAD
    reference = "process" if workload == "cli_cold" else "kernel"
    records, samples = run_ops(ops, seconds, recorder, reference=reference)
    result = {
        "ops": records,
        "calibration": {"reference": reference, "samples": samples},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if recorder is not None:
        result.update(traced_extras(manifest, run_dir, recorder, workload, scenarios))
    Path(out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
