"""``python -m repro.experiments`` — list, run and smoke-test suites.

Commands:

* ``list`` — suites and their scenarios, plus the algorithm and engine
  registries (via :func:`repro.api.list_algorithms` /
  :func:`repro.api.list_engines`);
* ``run --suite NAME [--jobs N] [--seed K] [--engine E] [--out FILE]
  [--timings]`` — execute a suite; canonical JSON goes to ``--out`` (or
  stdout), a human summary table goes to stderr; ``--engine`` retargets
  every scenario to a :mod:`repro.api` backend (object/vectorized) without
  changing the deterministic payload;
* ``smoke [--jobs N] ...`` — shorthand for ``run --suite smoke``, the CI
  benchmark gate.

The process exits non-zero when any scenario's validity check fails, so
CI can gate on the command directly.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.engines import available_engines
from repro.api.introspection import list_algorithms, list_engines, list_solvers
from repro.experiments.registry import SUITES, suite_names
from repro.experiments.runner import Runner
from repro.utils.serialization import canonical_dumps, write_json
from repro.utils.tables import format_table


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (suite, scenario.name, scenario.pipeline, scenario.family or "-")
        for suite in suite_names()
        for scenario in SUITES[suite]
    ]
    print(format_table(["suite", "scenario", "pipeline", "family"], rows))
    # The registries, via the api introspection helpers — the same data
    # the solve service's /v1/status endpoint reports.
    algorithm_rows = [
        (entry["name"], ", ".join(entry["families"]))
        for entry in list_algorithms()
    ]
    print()
    print(format_table(["algorithm", "families"], algorithm_rows))
    engine_rows = [
        (entry["name"], entry["type"], "yes" if entry["default"] else "")
        for entry in list_engines()
    ]
    print()
    print(format_table(["engine", "type", "default"], engine_rows))
    solver_rows = [
        (
            entry["name"],
            entry["budget_unit"],
            "yes" if entry["default"] else "",
            entry["description"],
        )
        for entry in list_solvers()
    ]
    print()
    print(
        format_table(
            ["solver", "budget unit", "default", "description"], solver_rows
        )
    )
    return 0


def _summarize(result) -> str:
    rows = [
        (
            item.scenario.name,
            item.scenario.pipeline,
            len(item.records),
            "ok" if item.ok else "FAIL",
            f"{item.wall_seconds:.3f}s",
        )
        for item in result.results
    ]
    rows.append(("total", "", "", "ok" if result.ok else "FAIL",
                 f"{result.wall_seconds:.3f}s"))
    return format_table(
        ["scenario", "pipeline", "records", "status", "wall"],
        rows,
        title=f"suite {result.suite!r} (seed {result.seed}, "
        f"{len(result.results)} scenarios)",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    runner = Runner(jobs=args.jobs, seed=args.seed, engine=args.engine)
    result = runner.run_suite(args.suite)
    payload = result.payload(timings=args.timings)
    if args.out:
        write_json(args.out, payload)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(canonical_dumps(payload, indent=2))
    print(_summarize(result), file=sys.stderr)
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Declarative experiment suites for the reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list suites and scenarios").set_defaults(
        handler=_cmd_list
    )

    run = commands.add_parser("run", help="run a suite")
    run.add_argument("--suite", required=True, choices=suite_names())
    _add_run_options(run)
    run.set_defaults(handler=_cmd_run)

    smoke = commands.add_parser(
        "smoke", help="run the fast CI smoke suite (alias for run --suite smoke)"
    )
    _add_run_options(smoke)
    smoke.set_defaults(handler=_cmd_run, suite="smoke")

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_run_options(command: argparse.ArgumentParser) -> None:
    command.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes (default: 1, serial)")
    command.add_argument("--seed", type=int, default=0,
                         help="base seed for scenario RNGs (default: 0)")
    command.add_argument("--engine", default=None,
                         choices=available_engines(),
                         help="run every scenario on this repro.api engine "
                         "backend (default: each scenario's own, normally "
                         "'object'); results are engine-independent")
    command.add_argument("--out", default=None,
                         help="write canonical JSON here instead of stdout")
    command.add_argument("--timings", action="store_true",
                         help="include wall-clock timings in the JSON "
                         "(breaks run-to-run byte equality)")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)
