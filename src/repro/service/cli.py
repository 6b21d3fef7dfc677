"""Command line for the solve service: ``python -m repro.service``.

Subcommands::

    serve     run the daemon (graceful on SIGINT/SIGTERM)
    request   send one solve/roundelim request to a running daemon
    direct    run the same solve locally through repro.api (for byte cmp)
    status    print a daemon's live counters
    shutdown  stop a daemon gracefully

``serve --port 0 --ready-file F`` binds an ephemeral port and writes
``host port`` to ``F`` once listening, so scripts (CI's service job, the
benchmark) can start the daemon without racing the bind.

``request --report-only`` prints exactly ``canonical_dumps(report)``,
which ``cmp``s clean against ``direct``'s output — the service/direct
byte-parity check as a shell one-liner.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro import api
from repro.service.client import ServiceClient
from repro.service.httpd import ServiceHTTPServer
from repro.service.server import SolveService
from repro.utils import ReproError
from repro.utils.serialization import canonical_dumps, write_atomic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Digest-keyed solve service over repro.api",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk cache tier")
    serve.add_argument("--capacity", type=int, default=1024,
                       help="in-memory LRU capacity")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = inline)")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="max requests dispatched per worker batch")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds (stable "
                            "'timeout' wire code when exceeded)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="bounded queue: shed requests past this many "
                            "in flight with 'overloaded' + Retry-After")
    serve.add_argument("--ready-file", default=None,
                       help="write 'host port' here once listening")
    serve.add_argument("--verbose", action="store_true",
                       help="log HTTP requests to stderr")

    def add_url(p):
        p.add_argument("--url", default="http://127.0.0.1:8642",
                       help="daemon base URL")

    request = sub.add_parser("request", help="send one request to a daemon")
    add_url(request)
    request.add_argument("--json", dest="raw_json", default=None,
                         help="raw request-v1 JSON ('-' reads stdin)")
    request.add_argument("--spec", default=None, help="problem spec string")
    request.add_argument("--algorithm", default=None)
    request.add_argument("--engine", default=None)
    request.add_argument("--n", type=int, default=None)
    request.add_argument("--seed", type=int, default=0)
    request.add_argument("--max-rounds", type=int, default=10_000)
    request.add_argument("--no-check", action="store_true")
    request.add_argument("--report-only", action="store_true",
                         help="print only the canonical report bytes")

    direct = sub.add_parser(
        "direct", help="run the same solve locally (byte-comparison partner)"
    )
    direct.add_argument("--spec", required=True)
    direct.add_argument("--algorithm", required=True)
    direct.add_argument("--engine", default=None)
    direct.add_argument("--n", type=int, default=None)
    direct.add_argument("--seed", type=int, default=0)
    direct.add_argument("--max-rounds", type=int, default=10_000)
    direct.add_argument("--no-check", action="store_true")

    status = sub.add_parser("status", help="print a daemon's status JSON")
    add_url(status)

    shutdown = sub.add_parser("shutdown", help="stop a daemon gracefully")
    add_url(shutdown)

    return parser


def _cmd_serve(args) -> int:
    service = SolveService(
        cache_dir=args.cache_dir,
        capacity=args.capacity,
        jobs=args.jobs,
        batch_size=args.batch_size,
        deadline=args.deadline,
        max_pending=args.max_pending,
    )
    server = ServiceHTTPServer(
        service, args.host, args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    if args.ready_file:
        # Atomic, so a poller never reads the file before the address is in.
        write_atomic(args.ready_file, f"{host} {port}\n".encode())
    print(f"solve service listening on http://{host}:{port}", file=sys.stderr)

    def _stop(_signum, _frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    # Signal handlers can only be installed from the main thread; when
    # serve() is driven from a worker thread (tests), skip them — the
    # HTTP shutdown endpoint still stops the server.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
    server.run()  # blocks; close() + cache flush happen on the way out
    print("solve service stopped", file=sys.stderr)
    return 0


def _solve_kwargs(args) -> dict:
    return {
        "algorithm": args.algorithm,
        "engine": args.engine,
        "n": args.n,
        "seed": args.seed,
        "max_rounds": args.max_rounds,
        "check": not args.no_check,
    }


def _cmd_request(args) -> int:
    client = ServiceClient(args.url)
    if args.raw_json is not None:
        raw = sys.stdin.read() if args.raw_json == "-" else args.raw_json
        response = client.request(json.loads(raw))
    elif args.spec and args.algorithm:
        response = client.solve(args.spec, **_solve_kwargs(args))
    else:
        print("request needs --json, or --spec with --algorithm",
              file=sys.stderr)
        return 2
    if response.get("status") != "ok":
        print(canonical_dumps(response), file=sys.stderr)
        return 1
    if args.report_only:
        print(canonical_dumps(response["report"]))
    else:
        print(canonical_dumps(response))
    return 0


def _cmd_direct(args) -> int:
    kwargs = _solve_kwargs(args)
    if kwargs["engine"] is None:
        del kwargs["engine"]
    report = api.solve(args.spec, **kwargs)
    print(report.canonical_json())
    return 0


def _cmd_status(args) -> int:
    print(canonical_dumps(ServiceClient(args.url).status()))
    return 0


def _cmd_shutdown(args) -> int:
    response = ServiceClient(args.url).shutdown()
    print(canonical_dumps(response))
    return 0 if response.get("status") == "ok" else 1


_COMMANDS = {
    "serve": _cmd_serve,
    "request": _cmd_request,
    "direct": _cmd_direct,
    "status": _cmd_status,
    "shutdown": _cmd_shutdown,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
