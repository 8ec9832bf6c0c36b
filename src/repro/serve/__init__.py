"""SLAM-as-a-service: the streaming serving tier.

The batch-eval library (:mod:`repro.eval.service`) answers "run this
key"; this package answers "serve many concurrent camera streams":

* :mod:`repro.serve.registry` — bounded session registry with LRU
  *checkpoint parking* eviction (bit-exact park/resume on any shard);
  its ``ParkingLot`` is the one owner of durable session state.
* :mod:`repro.serve.ingest` — asynchronous frame ingestion: bounded
  per-session queues drained by a worker pool, bit-identical to
  synchronous feeding.
* :mod:`repro.serve.shard` — deterministic session-id routing across N
  registry shards sharing one parking root.
* :mod:`repro.serve.admission` — overload shedding: per-client token
  buckets and a global in-flight-frames budget (HTTP 429).
* :mod:`repro.serve.api` — the stdlib-only HTTP frontend (JSON plus a
  header-plus-raw-buffers frame codec), with per-frame deadlines, body
  caps, health endpoints and graceful drain.
* :mod:`repro.serve.chaos` — the storm driver hammering a server with N
  over-capacity concurrent clients on deterministic misbehavior
  schedules (:mod:`repro.faults.serving`).

See the README's "Serving" section and ``examples/streaming_service.py``.
"""

from repro.serve.registry import LruMap, ParkingLot, SessionRegistry
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.ingest import AsyncSessionHandle, IngestPool
from repro.serve.shard import ShardedRegistry, shard_index
from repro.serve.api import (
    SlamClient,
    SlamClientError,
    SlamServer,
    decode_frame,
    default_session_factory,
    encode_frame,
    result_to_payload,
)
from repro.serve.chaos import StormClientReport, StormReport, run_storm

__all__ = [
    "AdmissionController",
    "AsyncSessionHandle",
    "IngestPool",
    "LruMap",
    "ParkingLot",
    "SessionRegistry",
    "ShardedRegistry",
    "SlamClient",
    "SlamClientError",
    "SlamServer",
    "StormClientReport",
    "StormReport",
    "TokenBucket",
    "decode_frame",
    "default_session_factory",
    "encode_frame",
    "result_to_payload",
    "run_storm",
    "shard_index",
]
