"""Deterministic fault injection for the analysis service.

Chaos testing is only useful when a failing run can be replayed: this
package provides a *seeded* :class:`~repro.faults.plan.FaultPlan` whose
every injection decision is a pure function of ``(seed, site, event
counter)`` — no wall clock, no process-seeded randomness — so a chaos run
is reproducible bit-for-bit and a regression found under faults can be
re-triggered at will.

The plan is activated per process (workers activate from the pickled
:class:`~repro.service.server.ServiceConfig`, standalone servers from
``--faults`` or the ``REPRO_FAULTS`` environment variable) and consulted
at the injection *sites* threaded through the stack:

=================== =======================================================
site                where it fires
=================== =======================================================
``kill_worker``     :meth:`AnalysisService.handle` — hard ``os._exit``
                    mid-request, as if the process was SIGKILLed
``slow_response``   the server write path — delay the response frame
``truncate_frame``  the server write path — emit a partial frame and
                    drop the connection
``drop_connection`` the server write path — close without responding
``corrupt_cache``   :meth:`AnalysisCache.write_disk` — garbage the
                    just-written pickle so a later read must quarantine
``compiled_error``  :func:`repro.core.inference.infer` — the compiled
                    engine raises, exercising the interpreted fallback
=================== =======================================================

See ``docs/robustness.md`` for the plan grammar and the degradation
matrix each site is meant to exercise.
"""

from .plan import (
    FAULT_SITES,
    FaultPlan,
    InjectedFault,
    activate,
    active_plan,
    deactivate,
    injected_counts,
    plan_from_environment,
)

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "InjectedFault",
    "activate",
    "active_plan",
    "deactivate",
    "injected_counts",
    "plan_from_environment",
]
