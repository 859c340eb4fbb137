"""Workload generators for the consensus benches and the serving layer."""

from .load import LoadResult, OrderHasher, run_pipeline_load, split_arrivals
from .generator import (
    WorkloadSpec,
    bank_transfers,
    generate_workload,
    open_loop_arrivals,
    skewed_kv,
    tenant_ops,
    tenant_workloads,
    uniform_kv,
)

__all__ = [
    "LoadResult",
    "OrderHasher",
    "WorkloadSpec",
    "bank_transfers",
    "generate_workload",
    "open_loop_arrivals",
    "run_pipeline_load",
    "skewed_kv",
    "split_arrivals",
    "tenant_ops",
    "tenant_workloads",
    "uniform_kv",
]
