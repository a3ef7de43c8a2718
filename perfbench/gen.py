"""Seeded input generators for the benchmark.

Everything the program reads during a run is produced here from the
workload seed and written into the run directory: scenario files, the
survey cohort CSV, the sweep grids and the tight 3x3 game. The same seed
always gives byte-identical files. ``manifest.json`` records what was
generated together with the facts the output checks need (injected
malformed rows, grid values, certain chains).
"""
from __future__ import annotations

import json
import random
from pathlib import Path

PUBLISHED_EM = 0.3090
PUBLISHED_PF = 0.2999
REFERENCE_C = 3.4
REFERENCE_Q = 6.5
VARIANCE = 10.0

# survey: item polarities of the published seven-item instrument
POSITIVE_ITEMS = (1, 3, 7)
N_ITEMS = 7
COHORT_VALID_ROWS = 3000
COHORT_MALFORMED_ROWS = 30

GRID_SIDE = 8
CLI_SWEEP_STEP = 0.1
CLI_SWEEP_POINTS = 8

IPD_RELATIONS = (
    ("EM11", "EM21"),
    ("EM11", "EM12"),
    ("EM22", "EM12"),
    ("PF11", "PF21"),
    ("EM22", "EM21"),
    ("PF22", "PF12"),
)
IPD_ASSUMPTIONS = (("PF11", "PF12"), ("PF22", "PF21"))



def ipd_document(r, s, mode="published", mc_seed=123456, **overrides):
    """The bundled dilemma's scenario file, with chosen weights and mode."""
    doc = {
        "name": "ipd",
        "game": {
            "row_player": "Emotion",
            "col_player": "Profession",
            "row_strategies": ["Fatherhood", "Promotion"],
            "col_strategies": ["L1", "L2"],
            "payoffs": [
                [["EM11", "PF11"], ["EM12", "PF12"]],
                [["EM21", "PF21"], ["EM22", "PF22"]],
            ],
        },
        "constraints": [
            {"left": a, "right": b, "probability": 1.0} for a, b in IPD_RELATIONS
        ]
        + [
            {
                "left": a,
                "right": b,
                "probability": 1.0,
                "group": "column_best_response_assumptions",
            }
            for a, b in IPD_ASSUMPTIONS
        ],
        "events": {
            "labels": ["scholarship_offer", "desired_promotion", "undesired_promotion"],
            "prior": [1.0 / 3.0] * 3,
        },
        "parameters": {
            "r": r,
            "C": REFERENCE_C,
            "s": s,
            "Q": REFERENCE_Q,
            "variance": VARIANCE,
        },
        "case": "weak_evidence",
        "mode": mode,
        "mc": {"trials": 1_000_000, "seed": mc_seed},
    }
    doc.update(overrides)
    return doc


def _weight(rng):
    return round(rng.uniform(0.05, 0.95), 6)


def _weights(rng, n):
    values = set()
    while len(values) < n:
        values.add(_weight(rng))
    return sorted(values)


def _scores(rng, n):
    values = set()
    while len(values) < n:
        value = round(rng.uniform(1.5, 9.5), 6)
        if min(abs(value - REFERENCE_C), abs(value - REFERENCE_Q)) > 1e-3:
            values.add(value)
    return sorted(values)


def _write_json(path: Path, doc):
    # allow_nan writes the bare NaN literal the defect files need
    path.write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n", encoding="utf-8")


def _cohort(rng, path: Path):
    """A respondent CSV with a fixed number of malformed rows.

    Returns the 1-based file line numbers of the malformed rows and the
    expected (respondent id, raw sum) of every valid row, computed here
    from the instrument's published polarities.
    """
    total = COHORT_VALID_ROWS + COHORT_MALFORMED_ROWS
    bad_rows = set(rng.sample(range(total), COHORT_MALFORMED_ROWS))
    lines = ["respondent_id," + ",".join(f"item{i}" for i in range(1, N_ITEMS + 1))]
    malformed_lines = []
    expected = []
    for k in range(total):
        respondent = f"R{k:05d}"
        positions = [rng.randint(1, 6) for _ in range(N_ITEMS)]
        # the accepted spellings of a choice: a-f, A-F, 1-6
        cells = [rng.choice(("abcdef"[p - 1], "ABCDEF"[p - 1], str(p))) for p in positions]
        if k in bad_rows:
            kind = k % 4
            if kind == 0:
                cells = cells[:-1]
            elif kind == 1:
                cells[rng.randrange(N_ITEMS)] = "g"
            elif kind == 2:
                cells[rng.randrange(N_ITEMS)] = "7"
            else:
                respondent = ""
            malformed_lines.append(len(lines) + 1)
        else:
            raw = sum(
                p if i + 1 in POSITIVE_ITEMS else 7 - p
                for i, p in enumerate(positions)
            )
            expected.append([respondent, raw])
        lines.append(",".join([respondent] + cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return malformed_lines, expected


def _tight_document(rng):
    """A 3x3 game with 18 symbols and two certain chains.

    The row player's chain covers two full columns plus one symbol of the
    third (7 symbols); the column player's chain covers one full row
    (3 symbols). Every other symbol is unconstrained, so uniform proposals
    are accepted with probability 1 / (7! * 3!).
    """
    payoffs = [[[f"R{r}{c}", f"K{r}{c}"] for c in range(3)] for r in range(3)]
    columns = rng.sample(range(3), 3)
    row_syms = [f"R{r}{c}" for c in columns[:2] for r in range(3)]
    row_syms.append(f"R{rng.randrange(3)}{columns[2]}")
    rng.shuffle(row_syms)
    full_row = rng.randrange(3)
    col_syms = [f"K{full_row}{c}" for c in range(3)]
    rng.shuffle(col_syms)
    constraints = [
        {"left": chain[i], "right": chain[i + 1], "probability": 1.0}
        for chain in (row_syms, col_syms)
        for i in range(len(chain) - 1)
    ]
    doc = ipd_document(0.5, 0.5)
    doc.update(
        name="tight3x3",
        game={
            "row_player": "Row",
            "col_player": "Column",
            "row_strategies": ["A", "B", "C"],
            "col_strategies": ["X", "Y", "Z"],
            "payoffs": payoffs,
        },
        constraints=constraints,
    )
    return doc, row_syms, col_syms


def generate(seed: int, out_dir: Path) -> dict:
    """Write every input for every workload into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = {}

    def put(name, doc):
        path = out_dir / name
        _write_json(path, doc)
        files[name.rsplit(".", 1)[0]] = str(path)

    # cli_cold: one valid scenario, three documented error paths, two defects
    r, s = _weight(rng), _weight(rng)
    mc_seed = rng.randrange(2**31)
    put("cli_scenario.json", ipd_document(r, s, mc_seed=mc_seed))
    cyclic = ipd_document(r, s)
    cyclic["constraints"].append({"left": "EM21", "right": "EM11", "probability": 1.0})
    put("err_cyclic.json", cyclic)
    weight = ipd_document(r, s)
    weight["parameters"]["r"] = round(rng.uniform(1.05, 2.0), 6)
    put("err_weight.json", weight)
    put("err_schema.json", ipd_document(r, s, unexpected_field=rng.randrange(100)))
    nan_variance = ipd_document(r, s, mode="computed")
    nan_variance["parameters"]["variance"] = float("nan")
    put("defect_nan_variance.json", nan_variance)
    nan_prior = ipd_document(r, s)
    nan_prior["events"]["prior"] = [float("nan"), 0.5, 0.5]
    put("defect_nan_prior.json", nan_prior)
    cli_sweep_start = round(rng.uniform(0.05, 0.15), 2)
    cohort_path = out_dir / "cohort.csv"
    malformed_lines, cohort_expected = _cohort(rng, cohort_path)
    files["cohort"] = str(cohort_path)

    # sweep_grid: three grids over two base scenarios
    put("sweep_published.json", ipd_document(_weight(rng), _weight(rng)))
    put("sweep_computed.json", ipd_document(_weight(rng), _weight(rng), mode="computed"))
    grids = {
        "rs_computed": {"r": _weights(rng, GRID_SIDE), "s": _weights(rng, GRID_SIDE)},
        "cq_computed": {"C": _scores(rng, GRID_SIDE), "Q": _scores(rng, GRID_SIDE)},
        "rs_published": {"r": _weights(rng, GRID_SIDE), "s": _weights(rng, GRID_SIDE)},
    }

    # verify_ipd and verify_tight
    put("ipd.json", ipd_document(_weight(rng), _weight(rng)))
    tight, row_chain, col_chain = _tight_document(rng)
    put("tight.json", tight)

    manifest = {
        "seed": seed,
        "files": files,
        "cli": {
            "r": r,
            "s": s,
            "mc_seed": mc_seed,
            "sweep_grid": f"r={cli_sweep_start}:{cli_sweep_start + CLI_SWEEP_STEP * (CLI_SWEEP_POINTS - 1):.2f}:{CLI_SWEEP_STEP}",
            "sweep_start": cli_sweep_start,
            "sweep_step": CLI_SWEEP_STEP,
            "sweep_points": CLI_SWEEP_POINTS,
        },
        "cohort": {
            "valid_rows": COHORT_VALID_ROWS,
            "malformed_lines": malformed_lines,
            "expected": cohort_expected,
        },
        "grids": grids,
        "tight": {"row_chain": row_chain, "col_chain": col_chain},
        "verify_seed_base": rng.randrange(2**20),
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest
