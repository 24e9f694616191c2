"""Micro-benchmark harness for the inference kernel (``repro perf``).

See ``docs/performance.md`` for the kernel design, how to run the suite and
how to read the ``BENCH_inference.json`` trajectory it maintains.
"""

from .bench import (
    BENCH_FILENAME,
    compare_with_baseline,
    load_report,
    main,
    render_report,
    run_suite,
    write_report,
)
from .families import FAMILIES, build_family, parameter_for_nodes

__all__ = [
    "BENCH_FILENAME",
    "FAMILIES",
    "build_family",
    "compare_with_baseline",
    "load_report",
    "main",
    "parameter_for_nodes",
    "render_report",
    "run_suite",
    "write_report",
]
