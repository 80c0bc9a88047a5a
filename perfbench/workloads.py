"""Workload definitions: grids, the served request stream, expected tables.

The grids are the paper-shaped 48-cell template-matching and 40-cell
PIV grids (Table 6.21/6.22 axes at test scale).  The benchmark seed
only chooses the input data (``ProblemSpec.seed``) and, for the served
workload, the order in which requests arrive; the grids and the mix of
requests never change.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

WORKLOADS = ("tm-sweep", "piv-sweep", "tm-serve")

#: Application problems and grid axes per app id.
TM_AXES = {"tile": [(4, 4), (8, 4), (8, 8), (16, 8), (16, 16), (8, 16)],
           "threads": [32, 64, 96, 128, 160, 192, 224, 256]}
PIV_AXES = {"rb": [1, 2, 4, 8, 16],
            "threads": [32, 64, 96, 128, 160, 192, 224, 256]}
MEMORY_BYTES = 8 << 20

#: Devices each sweep runs on, and its pool.
SWEEPS = {
    "tm-sweep": {"app": "template_matching", "devices": ("c2070",),
                 "jobs": 1, "pool": "thread"},
    "piv-sweep": {"app": "piv", "devices": ("c1060", "c2070"),
                  "jobs": 2, "pool": "process"},
}

#: The served stream: length, distinct configurations and Zipf skew.
STREAM_REQUESTS = 200
STREAM_DISTINCT = 36
STREAM_ZIPF_S = 1.1
SERVE_CLIENTS = 2


def problem(app: str):
    if app == "template_matching":
        from repro.apps.template_matching import MatchProblem
        return MatchProblem("at", frame_h=60, frame_w=80, tmpl_h=16,
                            tmpl_w=12, shift_h=5, shift_w=5, n_frames=1)
    from repro.apps.piv import PIVProblem
    return PIVProblem("at", 40, 40, mask=8, offs=3)


def axes(app: str) -> Dict[str, list]:
    return TM_AXES if app == "template_matching" else PIV_AXES


def grid(app: str) -> List[dict]:
    from repro.tuning.sweep import grid_configs
    return grid_configs(**axes(app))


def input_seed(seed: int) -> int:
    """The ``ProblemSpec`` seed derived from the benchmark seed."""
    return random.Random(f"inputs:{seed}").randrange(1 << 31)


def request_stream(seed: int) -> List[dict]:
    """A seeded Zipf-skewed stream over the template-matching grid.

    A fixed permutation ranks the 48 configurations by popularity.  The
    :data:`STREAM_DISTINCT` most popular appear, each as often as its
    Zipf weight gives (at least once, largest remainders rounded up),
    and the seed chooses the arrival order.  The multiset is fixed
    because per-config costs differ by more than the bound: a seed that
    drew a slow config more often would change the work, not the order.
    """
    cells = grid("template_matching")
    ranked = random.Random("popularity").sample(cells, len(cells))
    ranked = ranked[:STREAM_DISTINCT]
    weights = [1.0 / (rank + 1) ** STREAM_ZIPF_S
               for rank in range(STREAM_DISTINCT)]
    spare = STREAM_REQUESTS - STREAM_DISTINCT
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(share) for share in shares]
    by_remainder = sorted(range(STREAM_DISTINCT),
                          key=lambda r: int(shares[r]) - shares[r])
    for rank in by_remainder[:STREAM_REQUESTS - sum(counts)]:
        counts[rank] += 1
    stream = [cfg for cfg, n in zip(ranked, counts) for _ in range(n)]
    random.Random(f"stream:{seed}").shuffle(stream)
    return stream


# -- expected results ---------------------------------------------------

def config_key(config: dict) -> str:
    """A stable JSON key for one grid configuration."""
    return json.dumps({k: list(v) if isinstance(v, tuple) else v
                       for k, v in sorted(config.items())})


def outcome(reg_count, occupancy, valid, error, seconds) -> dict:
    """The checked fields of one evaluation, JSON-exact."""
    return {"reg_count": int(reg_count), "occupancy": float(occupancy),
            "valid": bool(valid),
            "error_class": error.split(":", 1)[0].strip() if error else "",
            "seconds": float(seconds) if valid else None}


def record_outcome(record) -> dict:
    return outcome(record.reg_count, record.occupancy, record.valid,
                   record.error, record.seconds)


def result_outcome(result) -> dict:
    return outcome(result.reg_count, result.occupancy, True, "",
                   result.seconds)


def expected_path(app: str, device: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{app}-{device}.json")


def load_expected(app: str, device: str) -> dict:
    with open(expected_path(app, device)) as fh:
        return json.load(fh)


def table_from_records(records) -> dict:
    """The expected-table document for one swept grid."""
    from repro.tuning.sweep import best_record
    return {"cells": {config_key(r.config): record_outcome(r)
                      for r in records},
            "best": config_key(best_record(records).config)}


def check_sweep(app: str, device: str, records) -> Tuple[int, List[str]]:
    """Compare swept records with the committed table.

    Returns (mismatched cells, messages).  A mismatched best config is
    one more mismatch.
    """
    want = load_expected(app, device)
    got = table_from_records(records)
    bad = []
    for key, cell in want["cells"].items():
        if got["cells"].get(key) != cell:
            bad.append(f"{app}/{device} {key}: expected {cell}, "
                       f"got {got['cells'].get(key)}")
    extra = set(got["cells"]) - set(want["cells"])
    bad.extend(f"{app}/{device} {key}: not in the expected table"
               for key in sorted(extra))
    if got["best"] != want["best"]:
        bad.append(f"{app}/{device} best config: expected {want['best']}, "
                   f"got {got['best']}")
    return len(bad), bad

