"""Reusable scratch buffers and scatter helpers for the rendering hot paths.

The bucketed rasterizer and backward pass allocate several
``(tiles, pixels, gaussians)`` temporaries per chunk; at SLAM frame rates
that is thousands of short-lived multi-megabyte allocations per second.  A
:class:`ScratchPool` hands out named buffers that are grown geometrically
and reused across chunks (and across render/backward calls, when the pool
is held by a ``ForwardCache``), so each temporary is allocated once per
steady-state frame size instead of once per chunk.

Buffers are plain views into a flat backing array and therefore
contiguous.  The safety contract is *key-disjoint serial consumption*: a
pool may be shared along one sequential chain of consumers (e.g. the
forward pass writing persistent ``cache.*`` buffers and the backward pass
taking transient ``bwd.*`` buffers from the same pool) as long as distinct
live buffers use distinct names and nothing consumes the pool
concurrently.  Re-taking a name invalidates the previous view of that
name.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ScratchPool", "scatter_add"]


def scatter_add(target: np.ndarray, ids: np.ndarray, values) -> None:
    """``target[ids] += values`` with repeated ids, via ``bincount``.

    ``np.add.at`` is an order of magnitude slower than one ``bincount``
    per trailing component for the (tiles, gaussians)-sized scatters the
    bucketed engines perform.  ``target`` must be contiguous; for integer
    targets the float ``bincount`` result is cast back (exact for the
    pixel-count magnitudes involved).  ``values`` may be a scalar, which
    adds ``values`` once per occurrence of each id.
    """
    flat_ids = ids.ravel()
    if flat_ids.size == 0:
        return
    count = target.shape[0]
    if np.isscalar(values):
        counts = np.bincount(flat_ids, minlength=count)
        target += (counts * values).astype(target.dtype, copy=False)
        return
    values = np.asarray(values)
    if target.ndim == 1:
        summed = np.bincount(flat_ids, weights=values.ravel(), minlength=count)
        target += summed.astype(target.dtype, copy=False)
        return
    flat_values = values.reshape(flat_ids.size, -1)
    flat_target = target.reshape(count, -1)
    for component in range(flat_values.shape[1]):
        flat_target[:, component] += np.bincount(
            flat_ids, weights=flat_values[:, component], minlength=count
        )


class ScratchPool:
    """Named, growable scratch buffers (single-consumer)."""

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Return an uninitialised contiguous array of ``shape``.

        The same ``name`` returns (a view of) the same backing memory on
        every call, resized only when ``shape`` outgrows it — callers must
        be done with the previous view before taking the name again.
        """
        dtype = np.dtype(dtype)
        # math.prod, not np.prod: this runs ~80 times per render/backward
        # call, where NumPy's reduction dispatch dominated the cost.
        size = int(math.prod(shape))
        key = (name, dtype)
        backing = self._buffers.get(key)
        if backing is None or backing.size < size:
            backing = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = backing
        return backing[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool's backing arrays."""
        return int(sum(backing.nbytes for backing in self._buffers.values()))

    def clear(self) -> None:
        """Drop every backing buffer (frees the memory on next GC)."""
        self._buffers.clear()
