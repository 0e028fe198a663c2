"""Deterministic schedule-exploration and Byzantine fuzzing harness.

Everything a test needs to fuzz the SINTRA stack from one integer seed:

* :mod:`repro.testing.schedule` — seeded fault plans, protocol workload
  scenarios (the :mod:`repro.heal` closed repair loop among them), the
  single-case runner (schedule chaos, crashes and
  :mod:`repro.adversary` strategies in one case), the campaign driver
  (also a CLI: ``python -m repro.testing.schedule``) and the failure
  report with its ``REPRO:`` lines and state-dump artifacts;
* :mod:`repro.testing.invariants` — live protocol safety checkers;
* :mod:`repro.testing.netchaos` — seeded socket-level chaos proxies for
  the real asyncio TCP runtime;
* :mod:`repro.testing.shrink` — greedy fault-plan minimization.

See ``docs/TESTING.md`` for the guided tour.

Re-exports resolve lazily (PEP 562) so that ``python -m
repro.testing.schedule`` does not import the CLI module twice.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "invariants": [
        "AgreementInvariant",
        "ConsistencyInvariant",
        "Invariant",
        "InvariantSuite",
        "InvariantViolation",
        "LedgerInvariant",
        "SecureCausalityInvariant",
        "TotalOrderInvariant",
    ],
    "netchaos": ["ChaosFabric", "ChaosProxy"],
    "schedule": [
        "AgreementScenario",
        "CaseResult",
        "ChannelScenario",
        "Directive",
        "LedgerScenario",
        "SCENARIOS",
        "Scenario",
        "build_fault_plan",
        "case_seed_for",
        "default_group",
        "fuzz",
        "make_scenario",
        "plan_from_seed",
        "report_failures",
        "run_case",
        "write_failure_dumps",
    ],
    "shrink": ["shrink_case"],
}

_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name: str) -> Any:
    module_name = _NAME_TO_MODULE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
