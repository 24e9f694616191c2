"""Command-line interface for the Λnum error analyser.

Usage (after ``pip install -e .`` or from a checkout)::

    python -m repro check program.lnum            # type-check every function
    python -m repro check program.lnum -f FMA     # one function only
    python -m repro check - < program.lnum        # read from stdin
    python -m repro fpcore bench.fpcore           # analyse an FPCore benchmark
    python -m repro batch examples/programs -j 4  # analyse a whole directory
    python -m repro table table3                  # regenerate a paper table
    python -m repro perf --quick                  # inference micro-benchmarks
    python -m repro validate program.lnum -i x=0.5 -i y=2   # Corollary 4.20 check
    python -m repro serve --port 7351             # long-lived analysis service
    python -m repro query program.lnum            # query a running server

The ``check`` command prints, per function, the inferred type, the rounding
error grade, the induced relative-error bound and the inference time — the
same information the paper's prototype reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .analysis import (
    AnalysisCache,
    BatchAnalyzer,
    analyze_program,
    analyze_term,
    check_error_soundness,
    default_cache_directory,
)
from .core import parse_program
from .core.errors import LnumError
from .core.inference import InferenceConfig
from .core.grades import Grade
from .floats.formats import STANDARD_FORMATS
from .frontend.compiler import compile_expression
from .frontend.fpcore import parse_fpcore

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Numerical Fuzz (Λnum): type-based rounding error analysis",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="type-check a Λnum surface program")
    check.add_argument("path", help="path to the program, or '-' for stdin")
    check.add_argument("-f", "--function", help="only analyse this function")
    _add_instantiation_arguments(check)

    fpcore = subparsers.add_parser("fpcore", help="analyse an FPCore benchmark")
    fpcore.add_argument("path", help="path to the FPCore file, or '-' for stdin")
    _add_instantiation_arguments(fpcore)

    batch = subparsers.add_parser(
        "batch", help="analyse many programs through the worker pool + cache"
    )
    batch.add_argument(
        "paths",
        nargs="+",
        help="program files, or directories scanned recursively for .lnum/.fpcore",
    )
    batch.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1: serial, same results either way)",
    )
    batch.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="disable the content-keyed result cache"
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro-lnum)",
    )
    batch.add_argument(
        "--engine",
        choices=["auto", "compiled", "interpreted"],
        default="auto",
        help="inference engine (auto: compiled when numpy is available)",
    )
    _add_instantiation_arguments(batch)

    table = subparsers.add_parser("table", help="regenerate one of the paper's tables")
    table.add_argument(
        "which", choices=["table1", "table2", "table3", "table4", "table5", "all"]
    )
    table.add_argument("--full", action="store_true", help="include MatrixMultiply128")
    table.add_argument("--no-baselines", action="store_true")
    table.add_argument("-j", "--jobs", type=int, default=1, help="worker processes")
    table.add_argument("--no-cache", action="store_true", help="disable the result cache")
    table.add_argument("--cache-dir", default=None, metavar="DIR")

    perf = subparsers.add_parser(
        "perf",
        help="micro-benchmark the inference kernel and write BENCH_inference.json",
    )
    _configure_perf_parser(perf)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived analysis service (NDJSON over TCP)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7351, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "-w", "--workers", type=int, default=1, metavar="N",
        help="cluster worker processes: N>1 starts a router that "
        "consistent-hashes requests onto N shard-affine workers "
        "(1: today's single-process server, byte-for-byte)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=256,
        help="bounded work queue; full queue sheds requests with a busy response",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the persistent disk tier"
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="disk-tier location (default $REPRO_CACHE_DIR or ~/.cache/repro-lnum)",
    )
    serve.add_argument(
        "--deadline", type=float, default=60.0, metavar="SECONDS",
        help="default per-request deadline (0 disables)",
    )
    serve.add_argument(
        "--engine",
        choices=["auto", "compiled", "interpreted"],
        default="auto",
        help="inference engine for analysis jobs (auto: compiled when "
        "numpy is available and no judgement memo applies)",
    )
    serve.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="info",
        help="stderr log verbosity (default info)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log lines instead of plain text",
    )
    serve.add_argument(
        "--faults",
        default=os.environ.get("REPRO_FAULTS"),
        metavar="SPEC",
        help="deterministic fault-injection plan, e.g. "
        "'seed=42;kill_worker=@40;corrupt_cache=0.05' "
        "(default: $REPRO_FAULTS; see docs/robustness.md)",
    )
    _add_instantiation_arguments(serve)

    query = subparsers.add_parser(
        "query", help="send programs to a running analysis server"
    )
    query.add_argument(
        "paths", nargs="*",
        help="program files ('-' for stdin); with --stats, may be empty",
    )
    query.add_argument("--host", default="127.0.0.1", help="server address")
    query.add_argument("--port", type=int, default=7351, help="server port")
    query.add_argument(
        "--priority", choices=["interactive", "bulk"], default="interactive",
        help="scheduling lane (default interactive)",
    )
    query.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline (0 disables; default: the server's)",
    )
    query.add_argument(
        "--no-cache", action="store_true", help="bypass the server-side result cache"
    )
    query.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry retryable failures (worker death, open circuits, "
        "transport errors) up to N times with capped exponential backoff",
    )
    query.add_argument(
        "--retry-budget", type=float, default=30.0, metavar="SECONDS",
        help="total backoff sleep allowed across all retries (default 30)",
    )
    query.add_argument(
        "--validate",
        action="store_true",
        help="run the differential soundness harness instead of plain analysis",
    )
    query.add_argument(
        "--tune",
        action="store_true",
        help="search certified mixed-precision assignments instead of plain analysis",
    )
    query.add_argument(
        "--samples", type=int, default=None,
        help="stochastic samples (--validate default 64, --tune default 8)",
    )
    query.add_argument(
        "--points", type=int, default=None,
        help="input points (--validate default 4, --tune default 3)",
    )
    query.add_argument(
        "--seed", type=int, default=0,
        help="sampling seed (with --validate/--tune)",
    )
    query.add_argument(
        "--target", default=None, metavar="BOUND",
        help="with --tune: absolute RP target (exact fraction or decimal)",
    )
    query.add_argument(
        "--target-ratio", default=None, metavar="RATIO",
        help="with --tune: target as a multiple of the program's uniform "
        "binary64 bound (default 2**43)",
    )
    query.add_argument(
        "--budget", type=int, default=48,
        help="with --tune: certification budget for refinement (default 48)",
    )
    query.add_argument(
        "--stochastic", action="store_true",
        help="with --tune: also certify under stochastic-rounding execution",
    )
    query.add_argument(
        "--json", action="store_true", help="print raw JSON responses"
    )
    query.add_argument(
        "--stats", action="store_true", help="also print the server's /stats payload"
    )
    query.add_argument(
        "--metrics",
        action="store_true",
        help="print the server's metrics snapshot (per-worker in cluster mode)",
    )
    query.add_argument(
        "--prom",
        action="store_true",
        help="with --metrics, render Prometheus text exposition format",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="request per-phase spans (router/queue/cache/engine) with each response",
    )
    query.add_argument(
        "--shutdown", action="store_true", help="ask the server to exit afterwards"
    )

    validate = subparsers.add_parser(
        "validate",
        help="differential soundness validation: inference vs baselines vs execution",
    )
    validate.add_argument(
        "paths",
        nargs="*",
        help="program files or directories (.lnum/.fpcore); see also --suite",
    )
    validate.add_argument(
        "--suite",
        action="append",
        default=[],
        choices=["examples", "table3", "table4", "table5", "all"],
        help="also validate a benchmark suite (repeatable)",
    )
    validate.add_argument(
        "--samples",
        type=int,
        default=64,
        help="stochastic-rounding executions per program (default 64)",
    )
    validate.add_argument(
        "--points",
        type=int,
        default=4,
        help="input points sampled per program (default 4)",
    )
    validate.add_argument("--seed", type=int, default=0, help="sampling seed")
    validate.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the execution fan-out (default 1)",
    )
    validate.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    validate.add_argument(
        "--no-cache", action="store_true", help="disable the content-keyed result cache"
    )
    validate.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro-lnum)",
    )
    validate.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a BENCH_validation.json-style report with tightness ratios",
    )
    validate.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="gate verdicts and tightness ratios against a checked-in report",
    )
    validate.add_argument(
        "--max-loosening",
        type=float,
        default=4.0,
        metavar="RATIO",
        help="baseline-gate tolerance for shrinking tightness ratios (default 4.0)",
    )
    validate.add_argument(
        "--full", action="store_true", help="include MatrixMultiply128 in --suite table4"
    )
    validate.add_argument(
        "-i",
        "--input",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="single-program mode: check Corollary 4.20 on this exact input "
        "(repeatable); values are exact rationals or decimals",
    )
    validate.add_argument(
        "-f", "--function", help="only validate this function (single-program mode: "
        "analyse this function's body)"
    )
    _add_instantiation_arguments(validate)

    tune = subparsers.add_parser(
        "tune",
        help="grade-guided mixed-precision tuning: cheapest certified "
        "per-rnd-site format assignment meeting a target error bound",
    )
    tune.add_argument(
        "paths",
        nargs="*",
        help="program files or directories (.lnum/.fpcore); see also --suite",
    )
    tune.add_argument(
        "--suite",
        action="append",
        default=[],
        choices=["examples", "table3", "table4", "table5", "all"],
        help="also tune a benchmark suite (repeatable)",
    )
    tune.add_argument(
        "--target",
        default=None,
        metavar="BOUND",
        help="absolute RP target (exact fraction or decimal); default: "
        "--target-ratio times each program's uniform binary64 bound",
    )
    tune.add_argument(
        "--target-ratio",
        default=None,
        metavar="RATIO",
        help="target as a multiple of each program's uniform binary64 bound "
        "(default 2**43, between uniform binary16 and uniform bfloat16)",
    )
    tune.add_argument(
        "--budget",
        type=int,
        default=48,
        help="certification budget for the refinement rounds (default 48)",
    )
    tune.add_argument(
        "--samples",
        type=int,
        default=8,
        help="stochastic-rounding executions per certification point (default 8)",
    )
    tune.add_argument(
        "--points",
        type=int,
        default=3,
        help="input points sampled per certification (default 3)",
    )
    tune.add_argument("--seed", type=int, default=0, help="sampling seed")
    tune.add_argument(
        "--stochastic",
        action="store_true",
        help="also certify candidates under stochastic-rounding execution",
    )
    tune.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the certification fan-out (default 1)",
    )
    tune.add_argument(
        "-f", "--function", help="only tune this function"
    )
    tune.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    tune.add_argument(
        "--no-cache", action="store_true", help="disable the content-keyed result cache"
    )
    tune.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro-lnum)",
    )
    tune.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a BENCH_tuning.json-style report with cost reductions",
    )
    tune.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="gate statuses and cost reductions against a checked-in report",
    )
    tune.add_argument(
        "--max-loosening",
        type=float,
        default=4.0,
        metavar="RATIO",
        help="baseline-gate tolerance for shrinking cost reductions (default 4.0)",
    )
    tune.add_argument(
        "--full", action="store_true", help="include MatrixMultiply128 in --suite table4"
    )

    return parser


def _configure_perf_parser(parser: argparse.ArgumentParser) -> None:
    """The ``repro perf`` arguments.

    Declared here (plain argparse, no imports) so ``build_parser`` does
    not pay for loading the benchmark subsystem on every CLI invocation;
    ``repro.perf.bench`` delegates to this for its standalone entry
    point, keeping one source of truth.
    """
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_inference.json",
        metavar="PATH",
        help="where to write the JSON report (default ./BENCH_inference.json)",
    )
    parser.add_argument(
        "--families",
        default=None,
        metavar="A,B",
        help="comma-separated inference families (default: all, see repro.perf.families)",
    )
    parser.add_argument(
        "--sizes",
        default=None,
        metavar="N,M",
        help="comma-separated node-count targets (default 1000,10000,100000; quick: 1000)",
    )
    parser.add_argument(
        "--engine",
        choices=["both", "compiled", "interpreted"],
        default="both",
        help="which inference engines to time (default both: adds "
        "compiled_seconds/compiled_speedup columns)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare against a checked-in report and fail on regressions",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=3.0,
        metavar="RATIO",
        help="failure threshold for --baseline (default 3.0x)",
    )
    parser.add_argument(
        "--overhead",
        action="store_true",
        help="measure instrumentation overhead (instrumented vs plain "
        "inference on horner at ~10^4 nodes) instead of the full sweep",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=1.05,
        metavar="RATIO",
        help="failure threshold for --overhead (default 1.05 = 5%%)",
    )


def _add_instantiation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=sorted(STANDARD_FORMATS),
        default="binary64",
        help="floating-point format fixing the unit roundoff (default binary64)",
    )
    parser.add_argument(
        "--nearest",
        action="store_true",
        help="use the round-to-nearest unit roundoff instead of the directed one",
    )


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _config_from_arguments(arguments: argparse.Namespace) -> InferenceConfig:
    if arguments.format == "binary64" and not arguments.nearest:
        # The default instantiation keeps the grade symbolic in eps, as in the paper.
        return InferenceConfig()
    fmt = STANDARD_FORMATS[arguments.format]
    unit = fmt.unit_roundoff(not arguments.nearest)
    return InferenceConfig().with_rnd_grade(Grade.constant(unit))


def _parse_inputs(assignments: Sequence[str]) -> Dict[str, Fraction]:
    inputs: Dict[str, Fraction] = {}
    for assignment in assignments:
        if "=" not in assignment:
            raise SystemExit(f"bad input assignment {assignment!r}; expected NAME=VALUE")
        name, _, value = assignment.partition("=")
        try:
            inputs[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise SystemExit(
                f"bad input assignment {assignment!r}; VALUE must be an exact rational or decimal"
            ) from None
    return inputs


def _command_check(arguments: argparse.Namespace) -> int:
    source = _read_source(arguments.path)
    config = _config_from_arguments(arguments)
    program = parse_program(source)
    if not program.definitions and program.main is not None:
        report = analyze_term(program.main, {}, config, name="<main>")
        print(report.summary())
        return 0
    reports = analyze_program(program, config)
    if arguments.function:
        reports = [report for report in reports if report.name == arguments.function]
        if not reports:
            raise SystemExit(f"no function named {arguments.function!r}")
    failed = False
    for report in reports:
        print(report.summary())
        print()
        if report.annotation is not None and not report.annotation_satisfied:
            failed = True
    return 1 if failed else 0


def _command_fpcore(arguments: argparse.Namespace) -> int:
    source = _read_source(arguments.path)
    config = _config_from_arguments(arguments)
    core = parse_fpcore(source)
    program = compile_expression(core.expression)
    report = analyze_term(
        program.term, program.skeleton, config, name=core.name or "<fpcore>"
    )
    print(report.summary())
    return 0


def _command_batch(arguments: argparse.Namespace) -> int:
    import json

    config = _config_from_arguments(arguments)
    cache = None
    if not arguments.no_cache:
        cache = AnalysisCache(directory=arguments.cache_dir or default_cache_directory())
    engine = BatchAnalyzer(
        jobs=arguments.jobs, cache=cache, config=config, engine=arguments.engine
    )
    result = engine.analyze_paths(arguments.paths)
    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render_text())
    if result.failures:
        return 2
    if result.annotation_violations:
        return 1
    return 0


def _command_table(arguments: argparse.Namespace) -> int:
    from .benchsuite import runner

    argv: List[str] = [arguments.which]
    if arguments.full:
        argv.append("--full")
    if arguments.no_baselines:
        argv.append("--no-baselines")
    if arguments.jobs != 1:
        argv.extend(["--jobs", str(arguments.jobs)])
    if arguments.no_cache:
        argv.append("--no-cache")
    if arguments.cache_dir:
        argv.extend(["--cache-dir", arguments.cache_dir])
    return runner.main(argv)


def _command_perf(arguments: argparse.Namespace) -> int:
    from .perf import bench

    return bench.run(arguments)


def _service_config(arguments: argparse.Namespace):
    """The :class:`ServiceConfig` one ``repro serve`` server (or each
    cluster worker) runs, from the parsed command line."""
    from .service import ServiceConfig

    cache_dir = None
    if not arguments.no_cache:
        cache_dir = arguments.cache_dir or default_cache_directory()
    return ServiceConfig(
        queue_size=arguments.queue_size,
        cache_dir=cache_dir,
        default_deadline_seconds=arguments.deadline or None,
        inference=_config_from_arguments(arguments),
        engine=arguments.engine,
        log_level=arguments.log_level,
        log_json=arguments.log_json,
        faults=arguments.faults or None,
    )


def _command_serve(arguments: argparse.Namespace) -> int:
    import asyncio

    from .obs.logs import configure_logging
    from .service import AnalysisServer, AnalysisService

    if getattr(arguments, "workers", 1) > 1:
        return _serve_cluster(arguments)
    configure_logging(arguments.log_level, arguments.log_json)
    config = _service_config(arguments)
    server = AnalysisServer(
        AnalysisService(config), host=arguments.host, port=arguments.port
    )

    async def _serve() -> None:
        host, port = await server.start()
        print(f"repro serve: listening on {host}:{port} "
              f"(queue={config.queue_size}, "
              f"cache={'disk:' + config.cache_dir if config.cache_dir else 'memory'})",
              flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
    return 0


def _serve_cluster(arguments: argparse.Namespace) -> int:
    """``repro serve --workers N``: router + N shard-affine workers."""
    import asyncio

    from .obs.logs import configure_logging
    from .service import ClusterConfig, RouterServer

    configure_logging(arguments.log_level, arguments.log_json, process_name="router")
    service = _service_config(arguments)
    router = RouterServer(
        config=ClusterConfig(workers=arguments.workers, service=service),
        host=arguments.host,
        port=arguments.port,
    )

    async def _serve() -> None:
        host, port = await router.start()
        print(f"repro serve: router listening on {host}:{port} "
              f"(workers={arguments.workers}, queue={service.queue_size}, "
              f"cache={'disk:' + service.cache_dir if service.cache_dir else 'memory'})",
              flush=True)
        await router.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
        router.cluster.stop()
    return 0


def _print_trace(response: Dict) -> None:
    """Render a response's ``trace`` block (``repro query --trace``)."""
    trace = response.get("trace")
    if not isinstance(trace, dict):
        return
    print(f"trace {trace.get('id', '?')}:")
    for span in trace.get("spans", []):
        name = span.get("name", "?")
        seconds = span.get("seconds", 0.0)
        attributes = ", ".join(
            f"{key}={value}"
            for key, value in sorted(span.items())
            if key not in ("name", "seconds")
        )
        suffix = f"  ({attributes})" if attributes else ""
        print(f"  {name:<18} {seconds * 1000.0:9.3f} ms{suffix}")


def _command_query(arguments: argparse.Namespace) -> int:
    import json
    import os

    from .analysis.batch import SOURCE_SUFFIXES
    from .service.client import (
        RetryPolicy,
        ServiceClient,
        ServiceError,
        render_report,
        render_tuning,
        render_validation,
    )

    if not arguments.paths and not (
        arguments.stats or arguments.metrics or arguments.shutdown
    ):
        raise SystemExit(
            "repro query: give program paths and/or --stats/--metrics/--shutdown"
        )
    if arguments.prom and not arguments.metrics:
        raise SystemExit("repro query: --prom requires --metrics")
    if arguments.validate and arguments.tune:
        raise SystemExit("repro query: --validate and --tune are mutually exclusive")
    # Give the socket more slack than the analysis deadline, so a long
    # but legitimate request dies server-side (a clean timeout response)
    # rather than as a client transport error at some unrelated cutoff.
    timeout = 120.0
    if arguments.deadline_ms is not None:
        timeout = max(timeout, arguments.deadline_ms / 1000.0 + 30.0)
    retry = None
    if arguments.retries > 0:
        retry = RetryPolicy(
            retries=arguments.retries, budget_seconds=arguments.retry_budget
        )
    exit_code = 0
    try:
        with ServiceClient(
            host=arguments.host, port=arguments.port, timeout=timeout, retry=retry
        ) as client:
            for path in arguments.paths:
                source = _read_source(path)
                kind = SOURCE_SUFFIXES.get(
                    os.path.splitext(path)[1].lower(), "lnum"
                )
                try:
                    if arguments.validate:
                        response = client.validate(
                            source,
                            kind=kind,
                            name=path,
                            samples=64 if arguments.samples is None else arguments.samples,
                            points=4 if arguments.points is None else arguments.points,
                            seed=arguments.seed,
                            priority=arguments.priority,
                            deadline_ms=arguments.deadline_ms,
                            no_cache=arguments.no_cache,
                            trace=arguments.trace or None,
                        )
                    elif arguments.tune:
                        response = client.tune(
                            source,
                            kind=kind,
                            name=path,
                            target=arguments.target,
                            target_ratio=arguments.target_ratio,
                            budget=arguments.budget,
                            samples=8 if arguments.samples is None else arguments.samples,
                            points=3 if arguments.points is None else arguments.points,
                            seed=arguments.seed,
                            stochastic=arguments.stochastic,
                            priority=arguments.priority,
                            deadline_ms=arguments.deadline_ms,
                            no_cache=arguments.no_cache,
                            trace=arguments.trace or None,
                        )
                    else:
                        response = client.analyze(
                            source,
                            kind=kind,
                            name=path,
                            priority=arguments.priority,
                            deadline_ms=arguments.deadline_ms,
                            no_cache=arguments.no_cache,
                            trace=arguments.trace or None,
                        )
                except ServiceError as error:
                    status = (error.response or {}).get("status", "transport")
                    print(f"error: {path}: {status}: {error}", file=sys.stderr)
                    exit_code = max(exit_code, 3 if status in ("busy", "timeout") else 2)
                    continue
                if arguments.json:
                    print(json.dumps(response, indent=2, sort_keys=True))
                elif arguments.validate:
                    print(render_validation(response))
                    _print_trace(response)
                    print()
                elif arguments.tune:
                    print(render_tuning(response))
                    _print_trace(response)
                    print()
                else:
                    print(render_report(response))
                    _print_trace(response)
                    print()
                verdict = response["report"].get("verdict")
                if not response["report"]["ok"]:
                    exit_code = max(exit_code, 2)
                elif arguments.validate and verdict == "violation":
                    exit_code = max(exit_code, 1)
                elif arguments.tune and verdict == "error":
                    exit_code = max(exit_code, 2)
                elif arguments.tune and verdict == "infeasible":
                    exit_code = max(exit_code, 1)
            if arguments.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            if arguments.metrics:
                response = client.metrics(
                    format="prometheus" if arguments.prom else None
                )
                if arguments.prom:
                    print(response.get("prometheus", ""), end="")
                else:
                    response.pop("prometheus", None)
                    print(json.dumps(response, indent=2, sort_keys=True))
            if arguments.shutdown:
                client.shutdown()
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    return exit_code


def _command_validate(arguments: argparse.Namespace) -> int:
    if arguments.input:
        return _command_validate_single(arguments)
    return _command_validate_corpus(arguments)


def _command_validate_corpus(arguments: argparse.Namespace) -> int:
    """Differential validation over programs and/or benchmark suites."""
    import json

    from .analysis.batch import BatchItem, discover_items
    from .validation import bench as validation_bench
    from .validation.harness import (
        ValidationEngine,
        ValidationOptions,
        subjects_or_failures,
    )

    if not arguments.paths and not arguments.suite:
        raise SystemExit(
            "repro validate: give program paths, a --suite, or -i inputs "
            "for the single-program check"
        )
    if arguments.nearest:
        raise SystemExit(
            "repro validate: --nearest applies to the single-input mode only; "
            "the differential harness compares directed, nearest and stochastic "
            "executions against directed-roundoff bounds"
        )
    config = _config_from_arguments(arguments)
    fmt = STANDARD_FORMATS[arguments.format]
    try:
        options = ValidationOptions(
            points=arguments.points,
            samples=arguments.samples,
            precision=fmt.precision,
            seed=arguments.seed,
        )
    except ValueError as error:
        raise SystemExit(f"repro validate: {error}") from None

    items = []
    if "-" in arguments.paths:
        items.append(BatchItem(name="<stdin>", kind="lnum", source=_read_source("-")))
    items.extend(discover_items([p for p in arguments.paths if p != "-"]))
    subjects, failures = subjects_or_failures(items)
    if arguments.suite:
        extra_subjects, extra_failures = validation_bench.suite_subjects(
            arguments.suite, include_huge=arguments.full
        )
        subjects.extend(extra_subjects)
        failures.extend(extra_failures)
    if arguments.function:
        wanted = f"::{arguments.function}"
        subjects = [
            subject for subject in subjects if subject.name.endswith(wanted)
        ]
        if not subjects:
            raise SystemExit(f"no function named {arguments.function!r} to validate")

    cache = None
    if not arguments.no_cache:
        cache = AnalysisCache(directory=arguments.cache_dir or default_cache_directory())
    with ValidationEngine(
        jobs=arguments.jobs, cache=cache, config=config, options=options
    ) as engine:
        result = engine.validate_subjects(subjects)
    result.reports.extend(failures)

    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render_text())

    gate_failed = False
    report = None
    if arguments.out or arguments.baseline:
        report = validation_bench.build_report(
            result, options.to_dict(), arguments.suite or ["<paths>"]
        )
    if arguments.out:
        path = validation_bench.write_report(report, arguments.out)
        print(f"report written to {path}")
    if arguments.baseline:
        baseline = validation_bench.load_report(arguments.baseline)
        ok, lines = validation_bench.compare_with_baseline(
            report, baseline, max_loosening=arguments.max_loosening
        )
        print(f"\nbaseline comparison ({arguments.max_loosening:g}x loosening gate):")
        print("\n".join(lines))
        print("validation gate " + ("passed" if ok else "FAILED"))
        gate_failed = not ok
    code = result.exit_code()
    if gate_failed and code == 0:
        code = 4
    return code


def _command_tune(arguments: argparse.Namespace) -> int:
    """Grade-guided mixed-precision tuning over programs and/or suites."""
    import json

    from .analysis.batch import BatchItem, discover_items
    from .tuning import bench as tuning_bench
    from .tuning.search import (
        PrecisionTuner,
        SubjectTuning,
        TuningOptions,
        parse_fraction,
    )
    from .validation.bench import suite_subjects
    from .validation.harness import subjects_or_failures

    if not arguments.paths and not arguments.suite:
        raise SystemExit("repro tune: give program paths or a --suite")
    try:
        options = TuningOptions(
            target=(
                None if arguments.target is None
                else parse_fraction(arguments.target)
            ),
            target_ratio=(
                None if arguments.target_ratio is None
                else parse_fraction(arguments.target_ratio)
            ),
            budget=arguments.budget,
            points=arguments.points,
            samples=arguments.samples,
            seed=arguments.seed,
            stochastic=arguments.stochastic,
        )
    except ValueError as error:
        raise SystemExit(f"repro tune: {error}") from None

    items = []
    if "-" in arguments.paths:
        items.append(BatchItem(name="<stdin>", kind="lnum", source=_read_source("-")))
    items.extend(discover_items([p for p in arguments.paths if p != "-"]))
    subjects, failures = subjects_or_failures(items)
    if arguments.suite:
        extra_subjects, extra_failures = suite_subjects(
            arguments.suite, include_huge=arguments.full
        )
        subjects.extend(extra_subjects)
        failures.extend(extra_failures)
    if arguments.function:
        wanted = f"::{arguments.function}"
        subjects = [
            subject for subject in subjects if subject.name.endswith(wanted)
        ]
        if not subjects:
            raise SystemExit(f"no function named {arguments.function!r} to tune")

    cache = None
    if not arguments.no_cache:
        cache = AnalysisCache(directory=arguments.cache_dir or default_cache_directory())
    with PrecisionTuner(
        jobs=arguments.jobs, cache=cache, options=options
    ) as tuner:
        result = tuner.tune_subjects(subjects)
    result.reports.extend(
        SubjectTuning(
            name=failure.name,
            kind=failure.kind,
            status="error",
            notes=list(failure.notes),
        )
        for failure in failures
    )

    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render_text())

    gate_failed = False
    report = None
    if arguments.out or arguments.baseline:
        report = tuning_bench.build_report(
            result, options.to_dict(), arguments.suite or ["<paths>"]
        )
    if arguments.out:
        path = tuning_bench.write_report(report, arguments.out)
        print(f"report written to {path}")
    if arguments.baseline:
        baseline = tuning_bench.load_report(arguments.baseline)
        ok, lines = tuning_bench.compare_with_baseline(
            report, baseline, max_loosening=arguments.max_loosening
        )
        print(f"\nbaseline comparison ({arguments.max_loosening:g}x loosening gate):")
        print("\n".join(lines))
        print("tuning gate " + ("passed" if ok else "FAILED"))
        gate_failed = not ok
    code = result.exit_code
    if gate_failed and code == 0:
        code = 4
    return code


def _command_validate_single(arguments: argparse.Namespace) -> int:
    """Corollary 4.20 on one program at explicit inputs (the ``-i`` mode)."""
    if len(arguments.paths) != 1:
        raise SystemExit(
            "repro validate -i: give exactly one program path with explicit inputs"
        )
    if arguments.suite:
        raise SystemExit("repro validate -i: --suite cannot be combined with inputs")
    source = _read_source(arguments.paths[0])
    config = _config_from_arguments(arguments)
    program = parse_program(source)
    if arguments.function or program.definitions:
        name = arguments.function or program.names()[-1]
        definition = program.definition(name)
        term = definition.body
        skeleton = definition.parameter_skeleton()
        # Bring earlier definitions into scope around the body.
        for earlier in reversed(program.definitions):
            if earlier.name == name:
                continue
            from .core import ast as A

            if earlier.name in A.free_variables(term):
                term = A.Let(earlier.name, earlier.term, term)
    else:
        term = program.main
        skeleton = {}
        from .core import types as T
        from .core import ast as A

        skeleton = {variable: T.NUM for variable in A.free_variables(term)}
    inputs = _parse_inputs(arguments.input)
    missing = [name for name in skeleton if name not in inputs]
    if missing:
        raise SystemExit(f"missing inputs for: {', '.join(sorted(missing))}")
    report = check_error_soundness(term, skeleton, inputs, config)
    print(f"ideal value      : {float(report.ideal_value):.17g}")
    print(f"floating-point   : {float(report.fp_value):.17g}")
    print(f"measured RP  <=  : {float(report.rp_upper):.6e}")
    print(f"certified bound  : {float(report.bound):.6e}")
    print(f"bound holds      : {report.holds}")
    return 0 if report.holds else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handlers = {
        "check": _command_check,
        "fpcore": _command_fpcore,
        "batch": _command_batch,
        "table": _command_table,
        "perf": _command_perf,
        "serve": _command_serve,
        "query": _command_query,
        "validate": _command_validate,
        "tune": _command_tune,
    }
    try:
        return handlers[arguments.command](arguments)
    except LnumError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream consumer (head, a pager) closed our stdout: normal
        # truncation, not a failure.  Point stdout at /dev/null so the
        # interpreter's exit-time flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as error:
        # Unreadable/missing source files, sockets torn down mid-write, ...
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
