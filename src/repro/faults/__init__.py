"""Deterministic fault injection (see :mod:`repro.faults.injector`).

Pipeline-level plans live in :mod:`repro.faults.plans`; serving-level
client-misbehavior plans (stalls, mid-upload disconnects, admission
storms) in :mod:`repro.faults.serving`.
"""

from repro.faults.injector import FaultInjector, FaultPlan, StageFaults
from repro.faults.plans import FAULT_PLANS, available_fault_plans, get_fault_plan
from repro.faults.serving import (
    SERVING_FAULT_PLANS,
    ClientDisconnects,
    ClientStalls,
    ServingFaultPlan,
    available_serving_fault_plans,
    get_serving_fault_plan,
)

__all__ = [
    "ClientDisconnects",
    "ClientStalls",
    "FAULT_PLANS",
    "FaultInjector",
    "FaultPlan",
    "SERVING_FAULT_PLANS",
    "ServingFaultPlan",
    "StageFaults",
    "available_fault_plans",
    "available_serving_fault_plans",
    "get_fault_plan",
    "get_serving_fault_plan",
]
