"""Video CODEC substrate: block-matching motion estimation.

Edge SoCs running SLAM ship a hardware video CODEC whose motion-estimation
(ME) stage already computes, for every macro-block of the incoming frame,
the Sum of Absolute Differences (SAD) against candidate blocks of the
previous frame.  AGS repurposes the per-block *minimum* SAD values as a
free covisibility signal.  This package implements the ME pipeline in
software so those intermediate values exist in the reproduction: macro
block partitioning, full / diamond search, SAD computation, motion
vectors, and an encoder front-end that emits per-frame metadata.

:func:`motion_estimate` offers two search backends through ``backend=``
(:class:`StreamingEncoder` and the covisibility detector always use the
vectorized one):

* ``backend="vectorized"`` (default) — batched NumPy search in
  :mod:`repro.codec.motion_search`; all macro-blocks are matched against
  all candidate displacements at once (full search) or advanced in
  lock-step (diamond search).  This is the hot-path implementation,
  orders of magnitude faster than the scalar loop.
* ``backend="reference"`` — the original one-SAD-at-a-time loop, kept as
  the executable specification.

Both backends return bit-identical ``min_sads``, ``motion_vectors`` and
``sad_evaluations``, so hardware-model costs and covisibility values are
backend-independent (enforced by ``tests/test_motion_fast.py``).
"""

from repro.codec.macroblock import MacroBlockGrid, split_into_macroblocks
from repro.codec.motion_estimation import (
    SEARCH_BACKENDS,
    SEARCH_METHODS,
    MotionEstimationResult,
    diamond_search,
    full_search,
    motion_estimate,
    sad,
)
from repro.codec.motion_search import diamond_search_batched, full_search_batched
from repro.codec.encoder import CodecFrameMetadata, StreamingEncoder

__all__ = [
    "CodecFrameMetadata",
    "MacroBlockGrid",
    "MotionEstimationResult",
    "SEARCH_BACKENDS",
    "SEARCH_METHODS",
    "StreamingEncoder",
    "diamond_search",
    "diamond_search_batched",
    "full_search",
    "full_search_batched",
    "motion_estimate",
    "sad",
    "split_into_macroblocks",
]
