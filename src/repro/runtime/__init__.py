"""OpenCL-like host runtime emulation (paper §IV.B-C methodology)."""

from repro.runtime.admission import TokenBucket, WeightedFairQueue
from repro.runtime.artifacts import ArtifactCache, artifact_key
from repro.runtime.checkpoint import CheckpointManager, CheckpointPolicy
from repro.runtime.host import (
    Buffer,
    CommandQueue,
    Event,
    HostDevice,
    PowerSensor,
    RetryPolicy,
    StencilProgram,
    benchmark_kernel,
)
from repro.runtime.scheduler import (
    CircuitBreaker,
    JobResult,
    StencilJob,
    StencilScheduler,
)
from repro.runtime.service import (
    ServiceMetrics,
    ServicePolicy,
    ServiceResult,
    ServiceTicket,
    StencilService,
    TenantQuota,
)

__all__ = [
    "ArtifactCache",
    "Buffer",
    "CheckpointManager",
    "CheckpointPolicy",
    "CircuitBreaker",
    "CommandQueue",
    "Event",
    "HostDevice",
    "JobResult",
    "PowerSensor",
    "RetryPolicy",
    "ServiceMetrics",
    "ServicePolicy",
    "ServiceResult",
    "ServiceTicket",
    "StencilJob",
    "StencilProgram",
    "StencilScheduler",
    "StencilService",
    "TenantQuota",
    "TokenBucket",
    "WeightedFairQueue",
    "artifact_key",
    "benchmark_kernel",
]
