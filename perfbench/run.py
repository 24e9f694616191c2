"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 -m perfbench.run --workload batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the one holding ``src/repro``).  Workloads:
``batch``, ``validate`` and ``tune`` run a fresh interpreter per measured
pass (``sweep.py``), a number of passes fixed by ``--seconds`` (at least
``MIN_PASSES``); ``serve`` drives a ``repro serve --workers 2`` process tree
(``serve.py``).  Outputs are checked on every run.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Names,
units and meanings are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import mean, median
from typing import Any, Dict, List, Optional, Tuple

from .metrics import END_TO_END, per_layer, result_line, smooth_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("batch", "validate", "tune", "serve")
#: Passes per sweep run at the least: one per-program minimum needs two.
MIN_PASSES = 2
#: Seconds of ``--seconds`` each pass stands for.  The number of passes is
#: fixed from ``--seconds`` and these alone before any pass runs, so it
#: does not depend on how fast the code under test is: a per-program
#: minimum over more samples reads lower, and a faster change must not earn
#: itself more samples.  At ``--seconds 15``: three passes of ``batch``
#: (about 5 s each on a 2-vCPU x86-64 VM) and ``validate`` (about 7.5 s),
#: two of ``tune`` (about 10 s).
SECONDS_PER_PASS = {"batch": 5.0, "validate": 5.0, "tune": 7.5}
#: ``validate`` samples its points at a pinned sampling seed per pass (the
#: pass number, from 1), and the workload seed orders the subjects.  Its
#: cost moves with the sampling seed: the exact rationals of the sampled
#: points set the size of each result, so over sampling seeds 1-10 the
#: largest subject (``table3::Horner20``) took 2.0-3.6 s to validate and
#: 1.9-3.9 ms to load from the cache.  Drawn from the workload seed, the
#: sampling seeds moved ``hit_p99_ms`` by 0.13 (interquartile range over
#: median, ten runs of three seeds) on their own.
SAMPLING_SEEDED = ("validate",)
#: Set-up-only interpreters started after each pass, so ``setup_s`` is a
#: median of ``1 + SETUP_EXTRA`` samples per pass spread over the run.
SETUP_EXTRA = 2
#: Per-pass time limit; a pass takes 1-15 s on a 2-core machine.
PASS_TIMEOUT = 150
#: Scratch space inside the checkout (listed in ``.gitignore``).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SPANS_ROOT = os.path.join(ROOT, ".perfbench_out")


def _child_env(work: str) -> Dict[str, str]:
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = work
    env.pop("REPRO_FAULTS", None)
    return env


def _sweep(arguments: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.sweep", *arguments],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=PASS_TIMEOUT, check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr.decode("utf-8", "replace"))
        raise RuntimeError(f"perfbench.sweep {' '.join(arguments)} exited {completed.returncode}")
    return json.loads(completed.stdout.decode("utf-8").strip().splitlines()[-1])


def run_sweep(workload: str, seed: int, seconds: float, trace: bool, work: str) -> Tuple[Dict[str, float], int, int]:
    env = _child_env(work)
    # Untimed: the first interpreter after a fresh checkout compiles
    # bytecode, which would otherwise land in the first pass's set-up.
    _sweep(["--workload", workload, "--seed", str(seed), "--warmup"], env)

    passes: List[Dict[str, Any]] = []
    traced_flags: List[bool] = []
    seeds: List[Optional[int]] = []
    setups: List[float] = []
    for index in range(pass_count(workload, seconds, trace)):
        traced = trace and index % 2 == 1
        cache_dir = os.path.join(work, f"pass-{index}")
        seeds.append(sampling_seed(workload, index, trace))
        arguments = ["--workload", workload, "--seed", str(seed), "--cache-dir", cache_dir]
        if seeds[-1] is not None:
            arguments += ["--sampling-seed", str(seeds[-1])]
        if traced:
            os.makedirs(SPANS_ROOT, exist_ok=True)
            arguments += ["--trace", "--spans", os.path.join(SPANS_ROOT, f"{workload}-seed{seed}.spans.jsonl")]
        if workload == "tune" and index == 0:
            arguments.append("--recertify")
        arguments += ["--spawned-at", repr(time.monotonic())]
        passes.append(_sweep(arguments, env))
        traced_flags.append(traced)
        shutil.rmtree(cache_dir, ignore_errors=True)
        setups.append(passes[-1]["setup_s"])
        for _ in range(SETUP_EXTRA):
            setups.append(_sweep([
                "--workload", workload, "--seed", str(seed), "--cache-dir", cache_dir,
                "--setup-only", "--spawned-at", repr(time.monotonic()),
            ], env)["setup_s"])
            shutil.rmtree(cache_dir, ignore_errors=True)

    expected = None
    if workload == "batch":
        expected = _sweep(["--workload", "batch", "--seed", str(seed), "--oracle"], env)["oracle"]
    attempted, failed = check(workload, passes, expected)

    untraced = [result for result, flag in zip(passes, traced_flags) if not flag]
    untraced_seeds = [seed for seed, flag in zip(seeds, traced_flags) if not flag]
    # Every pass runs the same programs in the same order, so each program
    # has one miss sample per pass and many hit samples per pass.  The work
    # is CPU-bound and deterministic, so noise only adds time: a program's
    # miss latency is its fastest pass, which a host slowdown during part of
    # the run does not reach.  Its hit latency is its fastest hit at each
    # sampling seed of the run, averaged over those seeds (one for every
    # workload but those in ``SAMPLING_SEEDED``).  Percentiles over programs
    # are Harrell-Davis estimates (``smooth_percentile``).
    miss = [min(samples) for samples in zip(*(result["miss_s"] for result in untraced))]
    hit = []
    for index in range(len(miss)):
        fastest: Dict[Optional[int], float] = {}
        for result, pass_seed_value in zip(untraced, untraced_seeds):
            value = min(result["hit_s"][index])
            fastest[pass_seed_value] = min(value, fastest.get(pass_seed_value, value))
        hit.append(mean(fastest.values()))
    values: Dict[str, float] = {
        "setup_s": median(setups),
        "wall_s": sum(miss),
        "peak_rss_mb": median([result["peak_rss_mb"] for result in untraced]),
        "ok_frac": 1.0 - failed / attempted,
    }
    for kind, samples in (("hit", hit), ("miss", miss)):
        values[f"{kind}_p50_ms"] = 1000.0 * smooth_percentile(samples, 50)
        values[f"{kind}_p99_ms"] = 1000.0 * smooth_percentile(samples, 99)
    traced = sorted(
        (result for result, flag in zip(passes, traced_flags) if flag),
        key=lambda result: result["wall_s"],
    )
    if traced:
        # The traced pass with the median wall time supplies the layer
        # rows, so its self times and ``other`` add up to its own wall.
        chosen = traced[(len(traced) - 1) // 2]
        values.update(chosen["layers"])
        values["trace.overhead_ratio"] = (
            median([result["wall_s"] for result in traced])
            / median([result["wall_s"] for result in untraced])
        )
    return values, attempted, failed


def sampling_seed(workload: str, index: int, trace: bool) -> Optional[int]:
    """The sampling seed of pass ``index`` for :data:`SAMPLING_SEEDED`
    workloads, else None (a traced run gives each untraced and traced pair
    the same seed, so their walls compare)."""
    if workload not in SAMPLING_SEEDED:
        return None
    return 1 + (index // 2 if trace else index)


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes in a sweep run: a function of the arguments only.

    A traced run alternates untraced and traced passes, at least one of
    each.
    """
    untraced = max(MIN_PASSES, int(round(seconds / SECONDS_PER_PASS[workload])))
    return 2 * max(1, untraced // 2) if trace else untraced


def check(workload: str, passes: List[Dict[str, Any]], expected: Any) -> Tuple[int, int]:
    """Count programs checked and programs wrong, over every pass.

    ``batch``: each report (cold and warm) analyses cleanly and equals the
    interpreted-engine oracle.  ``validate``: every verdict is ``sound``.
    ``tune``: every status is ``tuned``, each winner passed
    re-certification, and every pass (same seed) chose the same assignment.
    """
    attempted = failed = 0
    reference = passes[0]["outputs"]
    for result in passes:
        for name, value in result["outputs"].items():
            attempted += 1
            warm = result["hit_outputs"].get(name)
            if workload == "batch":
                # An error judgement is wrong even when the oracle agrees:
                # the corpus is generated to type-check.
                wrong = (
                    value != expected.get(name) or warm != expected.get(name)
                    or any(row[0] == "error" for row in value)
                )
            elif workload == "validate":
                wrong = value != "sound" or warm != "sound"
            else:
                wrong = value[0] != "tuned" or value != reference.get(name) or warm != value
            if wrong:
                failed += 1
                sys.stderr.write(f"wrong output for {name}: {value!r}\n")
        for problem in result["problems"]:
            failed += 1
            sys.stderr.write(f"{problem}\n")
    return attempted, failed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Λnum reproduction benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/repro under {ROOT}; run from a full checkout\n")
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=WORK_ROOT)
    trace = bool(arguments.trace)
    try:
        if arguments.workload == "serve":
            from . import serve

            values, attempted, failed = serve.run(
                ROOT, work, _child_env(work), arguments.seed, arguments.seconds, trace
            )
        else:
            values, attempted, failed = run_sweep(
                arguments.workload, arguments.seed, arguments.seconds, trace, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = per_layer() if trace else list(END_TO_END)
    for name, unit in names:
        sys.stderr.write(f"{name:48s} {values.get(name, 0.0):14.6g} {unit}\n")
    sys.stderr.write(f"failed {failed} of {attempted} (fail_frac {failed / attempted:.4g})\n")
    print(json.dumps(result_line(failed == 0, attempted, failed, values, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
