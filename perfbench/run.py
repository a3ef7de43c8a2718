"""The splitgame benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs ``src/splitgame`` and
nothing installed. Inputs are generated from ``--seed`` into
``.perfbench_runs/<run>/``, each workload runs in a fresh worker process
in a closed loop with one caller for S seconds, and every output is
checked. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload once untraced and once traced, in separate processes, and
reports the per-layer metrics. The full run record (machine, settings,
op counts, failures, metric sources) is printed before the result line
and kept as ``record.json`` in the run directory. See README.md.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "splitgame"
RUNS_DIR = ROOT / ".perfbench_runs"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("cli_cold", "sweep_grid", "verify_ipd", "verify_tight")
SETUP_PROBES = 7  # fresh set-up processes per run, each between two calibration samples
IMPORTTIME_SAMPLES = 3
IMPORT_PACKAGES = ("splitgame", "scipy", "jsonschema", "numpy")
RUN_DEADLINE_S = 170
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# ops that fail today because of defects the roadmap lists; they count in
# ``failed`` and ``success_rate`` but do not make a run incorrect
KNOWN_DEFECTS = {
    "defect_nan_variance": '"variance": NaN in computed mode solves to an all-NaN report with exit 0',
    "defect_nan_prior": "a NaN prior is accepted and solves with exit 0",
}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")
        return remaining


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def worker(workload, run_dir, seconds, mode, deadline):
    """Start a worker; returns (set-up seconds, result dict or None)."""
    out = run_dir / f"result_{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(run_dir), str(seconds), mode, str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], deadline.left())[0]:
            raise subprocess.TimeoutExpired(cmd, deadline.left())
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise BenchError(f"{mode} worker for {workload} did not start")
        proc.communicate(timeout=deadline.left())
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past the deadline") from None
    finally:
        _stop(proc)
    if mode == "setup":
        return setup, None
    return setup, json.loads(out.read_text(encoding="utf-8"))


def parse_importtime(text):
    """Cumulative microseconds per package, counting each package tree at
    its outermost import only."""
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:") or "imported package" in line:
            continue
        field = parts[2][1:]
        depth = (len(field) - len(field.lstrip())) // 2
        entries.append((depth, field.strip(), int(parts[1])))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    stack = []
    for depth, name, cumulative in reversed(entries):  # parents first
        del stack[depth:]
        for package in IMPORT_PACKAGES:
            def inside(module):
                return module == package or module.startswith(package + ".")

            if inside(name) and not any(inside(outer) for outer in stack):
                totals[package] += cumulative
        stack.append(name)
    return totals


def import_times(deadline):
    """Median -X importtime cumulative ms per package, at reference speed."""
    samples = {package: [] for package in IMPORT_PACKAGES}
    before = calibrate.sample("process", child_env())
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import splitgame"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=deadline.left(),
        )
        after = calibrate.sample("process", child_env())
        if proc.returncode != 0:
            raise BenchError("import splitgame failed under -X importtime")
        for package, us in parse_importtime(proc.stderr).items():
            samples[package].append(us * calibrate.factor("process", before, after))
        before = after
    return {f"import.{p}.ms": statistics.median(v) / 1e3 for p, v in samples.items()}


def op_summary(records):
    """Per op kind: count, failures and the first failure reason."""
    kinds = {}
    for kind, _, _, reason, _ in records:
        entry = kinds.setdefault(kind, {"ops": 0, "failed": 0})
        entry["ops"] += 1
        if reason is not None:
            entry["failed"] += 1
            entry.setdefault("first_failure", reason)
    return kinds


def speed_factors(result):
    """Per op, the calibration factor from the samples right around it."""
    reference, samples = result["calibration"]["reference"], result["calibration"]["samples"]
    times = [at for at, _ in samples]
    factors = []
    for _, latency, _, _, start in result["ops"]:
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = min(bisect.bisect_left(times, start + latency), len(samples) - 1)
        factors.append(calibrate.factor(reference, samples[before][1], samples[after][1]))
    return factors


def latencies(result, scaled=True):
    if not scaled:
        return [r[1] for r in result["ops"]]
    return [r[1] * f for r, f in zip(result["ops"], speed_factors(result))]


def rate(result, scaled=True):
    return sum(r[2] for r in result["ops"]) / sum(latencies(result, scaled))


def end_to_end(workload, setups, result, scaled=True):
    records = result["ops"]
    lat = latencies(result, scaled)
    failed = sum(r[3] is not None for r in records)
    rss_kb = result["children_maxrss_kb"] if workload == "cli_cold" else result["maxrss_kb"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate(result, scaled),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_kb / 1024.0,
        "success_rate": 1.0 - failed / len(records),
    }


def spread_summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


TIME_UNITS = ("ms", "us", "ns")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine():
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy", "jsonschema"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        **versions,
    }


def warm_bytecode(deadline):
    """Compile and cache the package once, so no timed start compiles it."""
    subprocess.run(
        [sys.executable, "-c", "import splitgame.cli"], cwd=ROOT, env=child_env(),
        check=True, capture_output=True, timeout=deadline.left(),
    )


def run(args):
    deadline = Deadline(RUN_DEADLINE_S)
    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    t0 = time.perf_counter()
    gen.generate(args.seed, run_dir)
    generate_s = time.perf_counter() - t0
    warm_bytecode(deadline)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "machine": machine(),
        "settings": {
            **THREAD_ENV, "PYTHONHASHSEED": "0",
            "loop": "closed, one caller, whole op cycles until --seconds have passed",
            "setup_samples": SETUP_PROBES,
        },
        "input_generation_s": generate_s,
        "run_dir": str(run_dir.relative_to(ROOT)),
    }
    units = declared_units(args.trace)
    if args.trace:
        _, plain = worker(args.workload, run_dir, args.seconds, "run", deadline)
        _, traced = worker(args.workload, run_dir, args.seconds, "traced", deadline)
        result = plain
        # span times are raw; bring them to reference speed like the rest
        scale = statistics.median(speed_factors(traced))
        values = {
            name: value * scale if units.get(name) in TIME_UNITS else value
            for name, value in traced["layers"].items()
        }
        values.update(import_times(deadline))
        values["trace.overhead_share"] = 1.0 - rate(traced) / rate(plain)
        record["speed_factor"] = {"traced": spread_summary(speed_factors(traced)),
                                  "untraced": spread_summary(speed_factors(plain))}
        record["trace_run"] = {
            "ops": op_summary(traced["ops"]),
            "sources": traced["sources"],
            "samples": traced["samples"],
            "acceptance": traced["acceptance"],
            "spans": traced["spans"],
            "spans_file": str((run_dir / "spans.tsv.gz").relative_to(ROOT)),
            "probe_failures": traced["extra_failures"],
        }
        traced_failures = [r for r in traced["ops"] if r[3] is not None and r[0] not in KNOWN_DEFECTS]
        if traced_failures or traced["extra_failures"]:
            record["trace_run"]["unexpected_failures"] = True
    else:
        setups, scaled_setups = [], []
        before = calibrate.sample("process", child_env())
        for _ in range(SETUP_PROBES):
            setups.append(worker(args.workload, run_dir, args.seconds, "setup", deadline)[0])
            after = calibrate.sample("process", child_env())
            scaled_setups.append(setups[-1] * calibrate.factor("process", before, after))
            before = after
        _, result = worker(args.workload, run_dir, args.seconds, "run", deadline)
        values = end_to_end(args.workload, scaled_setups, result)
        record["raw_metrics"] = end_to_end(args.workload, setups, result, scaled=False)
        record["setup_s_samples"] = {"raw": setups, "scaled": scaled_setups}
        record["speed_factor"] = spread_summary(speed_factors(result))

    records = result["ops"]
    failures = [r for r in records if r[3] is not None]
    unexpected = [r for r in failures if r[0] not in KNOWN_DEFECTS]
    record.update(
        attempted=len(records),
        failed=len(failures),
        error_rate=len(failures) / len(records),
        ops=op_summary(records),
        known_defect_ops={kind: why for kind, why in KNOWN_DEFECTS.items() if any(r[0] == kind for r in failures)},
        latency_samples=len(records),
    )
    correct = not unexpected and not record.get("trace_run", {}).get("unexpected_failures")
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": record["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no splitgame sources at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
