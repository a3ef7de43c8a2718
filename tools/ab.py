"""In-process A/B timing of two trees of ``src/splitgame``.

    python tools/ab.py --base REV [--head REV] [--rounds N] [--case NAME ...]

Each tree is taken with ``git archive REV src/splitgame`` (the head
defaults to the working tree) and loaded as a package of its own name,
beside a second copy of the base for an A/A control. Each repeat runs N
rounds; a round times one block of ``BLOCK`` ops per side, the sides in a
fresh random order. A repeat's ratio is the base's median block time over
a side's, so above 1 the side is faster. Per case the table gives the A/A
and A/B ranges of that ratio over ``REPEATS`` repeats and a verdict: faster
or slower when the A/B range lies wholly above or below the A/A range,
otherwise unresolved. It also gives each side's median time per op and
its tracemalloc peak per op.

The inputs are built by ``perfbench/gen.py``, imported read-only: the
benchmark's tight 3x3 game, its 8x8 grids and its scenario documents.
"""
import argparse
import gc
import importlib.util
import io
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache in either tree or perfbench/

ROOT = Path(__file__).resolve().parents[1]
BLOCK = 20  # ops per timed block
REPEATS = 5
SEED = 46  # the inputs' seed, one for every side
# an import of the package by its own name, which would load another tree
_ABSOLUTE = re.compile(r"^\s*(from|import) splitgame\b", re.MULTILINE)


def _load(name, directory):
    """The package in ``directory``, imported under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _git(*args) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, check=True
    ).stdout


def _extract(rev, into: Path) -> Path:
    """``src/splitgame`` at ``rev``, written under ``into``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev, "src/splitgame"))) as tar:
        # the "data" filter where this Python has it: plain files only
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    package = into / "src" / "splitgame"
    for path in package.rglob("*.py"):
        if _ABSOLUTE.search(path.read_text(encoding="utf-8")):
            raise SystemExit(
                f"ab.py: {rev}: {path.name} imports splitgame by its absolute "
                "name, so the tree cannot load under another name"
            )
    return package


# -- cases: each builds its inputs from a package and returns op(i) ----------


def _doc(gen, mode="published", **changes):
    doc = gen.ipd_document(0.4, 0.6, mode=mode)
    doc.update(changes)
    return doc


def verify_ipd(pkg, gen):
    scenario = pkg.scenario_from_dict(_doc(gen))
    return lambda i: pkg.verify_nash_numeric(scenario.game, scenario.constraints, 128, i)


def verify_tight(pkg, gen):
    doc, _, _ = gen._tight_document(random.Random(SEED))
    scenario = pkg.scenario_from_dict(doc)
    return lambda i: pkg.verify_nash_numeric(scenario.game, scenario.constraints, 4, i)


def _sweep(mode, axes):
    def case(pkg, gen):
        rng = random.Random(SEED)
        pick = {"r": gen._weights, "s": gen._weights, "C": gen._scores, "Q": gen._scores}
        grid = {axis: pick[axis](rng, gen.GRID_SIDE) for axis in axes}
        scenario = pkg.scenario_from_dict(_doc(gen, mode))
        return lambda i: pkg.sweep(scenario, grid)

    return case


def _solve(case_name):
    def case(pkg, gen):
        scenario = pkg.scenario_from_dict(_doc(gen, "computed", case=case_name))
        return lambda i: pkg.solve(scenario)

    return case


def simulate(pkg, gen):
    return lambda i: pkg.simulate_selection(pkg.SimulationConfig(
        trials=10**6, seed=i, p_em12=gen.PUBLISHED_EM, p_pf21=gen.PUBLISHED_PF
    ))


CASES = {
    "verify_ipd": verify_ipd,
    "verify_tight": verify_tight,
    "sweep_rs_computed": _sweep("computed", "rs"),
    "sweep_cq_computed": _sweep("computed", "CQ"),
    "sweep_rs_published": _sweep("published", "rs"),
    "solve_weak": _solve("weak_evidence"),
    "solve_strong": _solve("strong_evidence"),
    "simulate": simulate,
}


def _peak_kb(op, i):
    op(i)  # warm: what is built on first use is not the op's
    gc.collect()
    tracemalloc.start()
    try:
        op(i)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def measure(ops, rounds, rng):
    """Per repeat, each side's median block time in seconds, and its peak
    traced KB per op: ``([{side: median}, ...], {side: kb})``."""
    calls = dict.fromkeys(ops, 0)  # each side sees the same op indices

    def block(side):
        op, first = ops[side], calls[side]
        calls[side] += BLOCK
        start = time.perf_counter()
        for i in range(first, first + BLOCK):
            op(i)
        return time.perf_counter() - start

    for side in ops:
        block(side)
    repeats = []
    for _ in range(REPEATS):
        times = {side: [] for side in ops}
        for _ in range(rounds):
            order = list(ops)
            rng.shuffle(order)
            for side in order:
                times[side].append(block(side))
        repeats.append({side: statistics.median(t) for side, t in times.items()})
    return repeats, {side: _peak_kb(op, 0) for side, op in ops.items()}


def _range(values):
    return f"{min(values):.3f}-{max(values):.3f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--head", help="the revision to compare (default: the working tree)")
    parser.add_argument("--rounds", type=int, default=30, help="rounds per repeat (default 30)")
    parser.add_argument("--case", action="extend", nargs="+", choices=sorted(CASES),
                        metavar="NAME", help=f"cases to run (default: all): {', '.join(CASES)}")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    spec = importlib.util.spec_from_file_location("ab_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    try:
        base_rev = _git("rev-parse", "--short", args.base).decode().strip()
        head_rev = args.head and _git("rev-parse", "--short", args.head).decode().strip()
    except subprocess.CalledProcessError as failed:
        raise SystemExit(f"ab.py: {failed.stderr.decode().strip()}") from None
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        packages = {
            "base": _load("ab_base", _extract(args.base, tmp / "base")),
            "base_copy": _load("ab_base_copy", _extract(args.base, tmp / "base_copy")),
            "head": _load("ab_head", _extract(args.head, tmp / "head") if args.head
                          else ROOT / "src" / "splitgame"),
        }
        import numpy

        print(f"base {base_rev}, head {head_rev or 'working tree'}; "
              f"{REPEATS} repeats of {args.rounds} rounds, blocks of {BLOCK} ops")
        print(f"cpus {os.cpu_count()}, python {platform.python_version()}, "
              f"numpy {numpy.__version__}")
        print(f"{'case':<20} {'A/A':>12} {'A/B':>12} {'verdict':>11} "
              f"{'base us/op':>11} {'head us/op':>11} {'base KB/op':>11} {'head KB/op':>11}")
        rng = random.Random(SEED)
        for name in args.case or CASES:
            ops = {side: CASES[name](pkg, gen) for side, pkg in packages.items()}
            repeats, peaks = measure(ops, args.rounds, rng)
            aa = [r["base"] / r["base_copy"] for r in repeats]
            ab = [r["base"] / r["head"] for r in repeats]
            verdict = (
                "faster" if min(ab) > max(aa)
                else "slower" if max(ab) < min(aa)
                else "unresolved"
            )
            per_op = {
                side: 1e6 * statistics.median(r[side] for r in repeats) / BLOCK
                for side in ("base", "head")
            }
            print(f"{name:<20} {_range(aa):>12} {_range(ab):>12} {verdict:>11} "
                  f"{per_op['base']:>11.1f} {per_op['head']:>11.1f} "
                  f"{peaks['base']:>11.1f} {peaks['head']:>11.1f}", flush=True)


if __name__ == "__main__":
    main()
