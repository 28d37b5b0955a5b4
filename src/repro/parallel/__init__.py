"""Multi-process execution of the forest-sampling Monte-Carlo stage.

See :mod:`repro.parallel.engine` for the chunked engine and its
determinism contract, :mod:`repro.parallel.pool` for the persistent
fork pool a batch solver's pushes run on,
:mod:`repro.parallel.shared_bank` for the
general named-array shared-memory / memmap carriers, and
:mod:`repro.parallel.shared_graph` for a graph's arrays in them.
"""

from repro.parallel.engine import (
    DEFAULT_CHUNK_SIZE,
    StageResult,
    parallel_estimate_stage,
    plan_chunks,
    pool_size,
    resolve_workers,
    sample_forests_parallel,
    usable_cpus,
)
from repro.parallel.pool import ForkPool
from repro.parallel.shared_bank import (
    AttachedBank,
    BankHandle,
    SharedArrayBank,
    attach_bank,
    bank_manifest,
    load_array_bank,
    save_array_bank,
)

__all__ = [
    "AttachedBank",
    "BankHandle",
    "DEFAULT_CHUNK_SIZE",
    "ForkPool",
    "SharedArrayBank",
    "StageResult",
    "attach_bank",
    "bank_manifest",
    "load_array_bank",
    "parallel_estimate_stage",
    "plan_chunks",
    "pool_size",
    "resolve_workers",
    "sample_forests_parallel",
    "save_array_bank",
    "usable_cpus",
]
