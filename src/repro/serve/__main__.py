"""``python -m repro.serve`` — run the specialization daemon.

Binds localhost (see :mod:`repro.serve.wire` for the trust model),
prints the bound address on stdout (machine-readable first line:
``serve: HOST PORT``), and serves until SIGINT/SIGTERM, then drains.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.faults.retry import RetryPolicy
from repro.serve.server import ServiceServer
from repro.serve.supervisor import ServiceConfig, SpecializationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Resilient specialization-as-a-service daemon.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (keep it local)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed)")
    parser.add_argument("--workers", type=int, default=2,
                        help="warm worker processes")
    parser.add_argument("--queue-capacity", type=int, default=16,
                        help="admission queue bound (beyond = shed)")
    parser.add_argument("--heartbeat", type=float, default=0.1,
                        help="worker heartbeat interval, seconds")
    parser.add_argument("--hang-timeout", type=float, default=3.0,
                        help="stale-heartbeat kill threshold, seconds")
    parser.add_argument("--max-redispatch", type=int, default=2,
                        help="extra dispatches after worker crashes")
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive compile faults to trip")
    parser.add_argument("--breaker-reset", type=float, default=1.0,
                        help="seconds before a half-open probe")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method")
    parser.add_argument("--restart-seed", type=int, default=1009,
                        help="seed for the restart backoff schedule")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="enable end-to-end tracing; write the "
                             "grafted Chrome-trace JSON to PATH on "
                             "shutdown")
    parser.add_argument("--flight-recorder", default=None,
                        metavar="PATH",
                        help="dump the flight recorder to PATH on "
                             "shutdown (and on an uncaught crash)")
    parser.add_argument("--slo", action="append", default=[],
                        metavar="NAME=SECONDS",
                        help="SLO threshold for a latency histogram, "
                             "e.g. client.latency_s=0.5 (repeatable)")
    return parser


def _parse_slo(pairs) -> dict:
    slo = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"--slo expects NAME=SECONDS, got {pair!r}")
        try:
            slo[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"--slo {name}: {value!r} is not a number") from None
    return slo


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        workers=args.workers, queue_capacity=args.queue_capacity,
        max_redispatch=args.max_redispatch,
        heartbeat_interval=args.heartbeat,
        hang_timeout=args.hang_timeout,
        start_method=args.start_method,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        restart_backoff=RetryPolicy(max_attempts=8, base_delay=0.05,
                                    max_delay=2.0,
                                    seed=args.restart_seed),
        slo=_parse_slo(args.slo) or None)
    service = SpecializationService(config)
    if args.trace:
        service.enable_tracing("serve-daemon")
    if args.flight_recorder:
        service.recorder.install_crash_dump(args.flight_recorder)

    # Handlers go in before anything starts: a signal that arrives while
    # workers spawn, or right after the address is printed, must drain
    # the daemon, not raise KeyboardInterrupt past the shutdown below.
    stop = threading.Event()

    def _signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)
    service.start()
    try:
        server = ServiceServer(service, host=args.host,
                               port=args.port).start()
    except BaseException:
        service.shutdown(drain=False)
        raise
    host, port = server.address
    print(f"serve: {host} {port}", flush=True)
    print(f"workers={config.workers} queue={config.queue_capacity} "
          f"breaker={config.breaker_threshold}@{config.breaker_reset}s",
          flush=True)
    try:
        stop.wait()
    finally:
        print("serve: draining", flush=True)
        server.stop()
        service.shutdown(drain=True)
        if args.trace:
            service.export_trace(args.trace)
            print(f"serve: trace written to {args.trace}", flush=True)
        if args.flight_recorder:
            service.recorder.dump_json(args.flight_recorder)
            print(f"serve: flight recorder dumped to "
                  f"{args.flight_recorder}", flush=True)
        print("serve: stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
