"""Differential measurement of one mixed-precision assignment.

There is one differential executor,
:func:`repro.validation.sampling.sample_point`: uniform precision is an
assignment with one format, so this module only hands it a per-site
precision table.  Everything else is the validation harness's: the same
deterministic in-box input points (:func:`repro.validation.harness.point_tasks`),
exact-rational execution of the ideal and floating-point semantics,
per-run RP distances against the ideal value, and a soundness slack made
of the working-precision-sqrt allowance plus one ``u_site^2``
second-order term per rounding actually executed (the round-down gap of
the paper's RP algebra, format-dependent per site).

Sites are named by node identity in an *unshared* rebuild of the term
(:func:`repro.tuning.assignment.unshare_term`): hash-consing makes equal
subterms pointer-identical, so only an unshared tree gives every ``rnd``
occurrence a distinct identity for the evaluator's ``rounder``.
Everything here runs inline in whatever process certifies the candidate —
no nested pools, mirroring ``validate_item``.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..core.errors import LnumError
from ..core.inference import enumerate_rnd_sites
from ..floats.formats import STANDARD_FORMATS
from ..validation.harness import ValidationSubject, point_tasks
from ..validation.sampling import (
    EmpiricalSummary,
    PointResult,
    SampleOptions,
    sample_point,
    summarize_points,
)
from .assignment import PrecisionAssignment, unshare_term

__all__ = ["measure_assignment", "sample_point_mixed"]

#: The executor under its historical tuning name (profilers time it here).
sample_point_mixed = sample_point


def measure_assignment(
    subject: ValidationSubject,
    assignment: PrecisionAssignment,
    sample: SampleOptions,
    key: str,
) -> EmpiricalSummary:
    """Sample every point of one subject under one assignment, inline."""
    start = time.perf_counter()
    try:
        unshared = unshare_term(subject.term)
        sites = enumerate_rnd_sites(unshared, subject.skeleton)
        if len(sites) != assignment.sites:
            raise LnumError(
                f"assignment has {assignment.sites} formats but the term has "
                f"{len(sites)} rnd sites"
            )
        site_precisions: Dict[int, int] = {
            id(node): STANDARD_FORMATS[name].precision
            for node, name in zip(sites, assignment.formats)
        }
        if len(site_precisions) != len(sites):
            raise LnumError("unshared term still shares rnd occurrences")
        results: List[PointResult] = [
            sample_point(*task, site_precisions)
            for task in point_tasks(subject, sample, key, unshared)
        ]
    except LnumError as error:
        results = [PointResult(inputs={}, error=str(error))]
    return summarize_points(results, time.perf_counter() - start)
