"""``python perfbench/record_expected.py``

Re-records the committed expected tables under ``perfbench/expected/``
by sweeping each grid once per device, on the inputs of benchmark seed
0 (the simulated times of these grids do not depend on the input
data).  Run it only when a change is meant to alter what the sweeps
compute, and say so.
"""

import json
import os
import sys

import workloads as W


def main() -> int:
    from repro.tuning import harness_sweep
    os.makedirs(W.EXPECTED_DIR, exist_ok=True)
    for sweep in W.SWEEPS.values():
        app = sweep["app"]
        for device in sweep["devices"]:
            sweeper = harness_sweep(app, W.problem(app), W.axes(app),
                                    device=device, seed=W.input_seed(0),
                                    memory_bytes=W.MEMORY_BYTES)
            doc = W.table_from_records(sweeper.records)
            with open(W.expected_path(app, device), "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{app}/{device}: {len(doc['cells'])} cells, "
                  f"best {doc['best']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
