"""repro.ir — backend-neutral plan IR with a compiled replay executor.

The subsystem in three moves:

1. **Capture** (:mod:`repro.ir.capture`): run any pipeline once on a
   live cluster with a recorder attached — a plain interpreted run —
   and get an :class:`IRGraph` of everything it issued, with
   dependency edges resolved from the actual event objects.
2. **Certify** (:meth:`IRGraph.certify` + :mod:`repro.ir.prealloc`):
   replay timing-only onto a scratch cluster, hazard-sanitize the
   ledger, and check every captured collective against its
   :class:`~repro.analysis.plancheck.PlanCertificate`, deriving the
   graph-level preallocation contract.
3. **Replay** (:class:`ReplayExecutor`): a walk over compiled step
   tuples that feeds each op to the cluster's own commit for its
   record shape — the same timing arithmetic interpretation uses —
   with zero per-run plan/graph construction, producing ledger,
   telemetry, and (execute mode) numerics bit-identical to the
   interpreted run.

:mod:`repro.ir.pipelines` has one capture entry point per pipeline;
:mod:`repro.ir.fuse` implements the opt-in elementwise-stage fusion.
"""

from __future__ import annotations

from repro.ir.capture import CaptureError, capture
from repro.ir.executor import ReplayError, ReplayExecutor, scratch_replay
from repro.ir.fuse import fuse_elementwise
from repro.ir.graph import IRGraph, IRNode
from repro.ir.pipelines import (
    PIPELINE_NAMES,
    capture_fft1d,
    capture_fft2d,
    capture_fmm,
    capture_fmmfft,
    capture_nufft,
    capture_pipeline,
    capture_rfft,
)
from repro.ir.prealloc import check_graph_prealloc

__all__ = [
    "CaptureError",
    "IRGraph",
    "IRNode",
    "PIPELINE_NAMES",
    "ReplayError",
    "ReplayExecutor",
    "capture",
    "capture_fft1d",
    "capture_fft2d",
    "capture_fmm",
    "capture_fmmfft",
    "capture_nufft",
    "capture_pipeline",
    "capture_rfft",
    "check_graph_prealloc",
    "fuse_elementwise",
    "scratch_replay",
]
