"""``python perfbench/daemon.py plain|traced [repro.serve options]``

Starts the ``repro.serve`` daemon with the benchmark's wrappers
installed (see :mod:`ledger`): the serve worker, forked from the
daemon, probes its speed before each request and ships the probe on
the reply.  ``traced`` also installs the layer wrappers, so each reply
carries the worker's per-request ledger.  Everything after the mode,
``--trace`` included, is the daemon's own command line; pass
``--start-method fork`` so the worker inherits the wrappers.
"""

import sys

import ledger

if __name__ == "__main__":
    layers = sys.argv[1] == "traced"
    if layers:
        ledger.install(layers=True)
    ledger.wrap_requests(ship_ledger=layers)
    from repro.serve.__main__ import main
    sys.exit(main(sys.argv[2:]))
