"""Always-on serving tier: warm caches + multi-tenant sweep fusion.

The batch tiers (experiments CLI, campaign runner) pay compilation —
compiled tables, lockstep engines, chain LU factorizations — once per
process and throw it away.  This package keeps those artifacts warm in
a persistent process behind a stdlib HTTP server, keyed by canonical
content signatures (never object identity), and coalesces concurrent
tenants' sweep submissions into fused
:class:`~repro.markov.sweep_engine.SweepRunner` batches: an idle
dispatcher starts a submission at once, and whatever queues while a
batch runs forms the next batch (group commit).  Batches run in one
forked sweep worker (:mod:`repro.workers`), so exact-tier queries keep
the server's core.  Responses stay bit-identical to a sequential
``SweepRunner`` run of the same batch — fusion buys throughput, not
different numbers.

Layering: :class:`~repro.lru.SignatureLRU` (the library's
signature-keyed LRU primitive) → :mod:`~repro.serving.resolver` (JSON
payloads → executable specs via the campaign family registry) →
:mod:`~repro.serving.jobs` (admission queue, dispatcher, sweep worker) →
:mod:`~repro.serving.service` (transport-independent facade) →
:mod:`~repro.serving.http` (ThreadingHTTPServer shim).
"""

from repro.lru import SignatureLRU
from repro.serving.http import SweepHTTPServer, make_server, serve
from repro.serving.jobs import AdmissionDispatcher, Job, result_payload
from repro.serving.resolver import (
    MAX_POINTS_PER_REQUEST,
    PARAMETRIC_FAMILIES,
    parametric_parts,
    resolve_point,
    resolve_points,
    verdict_parts,
)
from repro.serving.service import ServiceConfig, SweepService

__all__ = [
    "AdmissionDispatcher",
    "Job",
    "MAX_POINTS_PER_REQUEST",
    "PARAMETRIC_FAMILIES",
    "ServiceConfig",
    "SignatureLRU",
    "SweepHTTPServer",
    "SweepService",
    "make_server",
    "parametric_parts",
    "resolve_point",
    "resolve_points",
    "result_payload",
    "serve",
    "verdict_parts",
]
