"""Workload traces shared between the algorithm layer and the hardware simulator.

The paper's evaluation methodology (Section 6.1) runs the SLAM algorithm,
collects per-operation traces, and feeds them into a cycle-level simulator.
This module defines those trace records.  The SLAM systems
(:mod:`repro.slam`) and the AGS pipeline (:mod:`repro.core`) produce them;
the platform models (:mod:`repro.hardware`) consume them to estimate
cycles, DRAM traffic and energy on GPUs, GSCore and the AGS architecture.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "RenderWorkload",
    "TrackingWorkload",
    "MappingWorkload",
    "FrameTrace",
    "SequenceTrace",
    "scale_trace",
]


@dataclasses.dataclass
class RenderWorkload:
    """Cost-relevant statistics of one 3DGS forward (+ backward) iteration.

    Attributes:
        num_gaussians: Gaussians in the model at this point.
        gaussians_rendered: Gaussian instances across all tile tables
            (the preprocessing + sorting workload).
        pairs_computed: (pixel, Gaussian) alpha evaluations after early
            termination (the rendering workload).
        pairs_blended: pairs that contributed to blending.
        num_tiles: tiles with at least one Gaussian.
        num_pixels: rendered pixels.
        per_tile_gaussians: Gaussian count per non-empty tile (drives the
            GPE scheduler model).
        per_pixel_mean / per_pixel_max: blended-Gaussian statistics per
            pixel (drive the load-imbalance model).
        includes_backward: whether a gradient pass followed the forward.
        pixels_total: per-pair tile pixels of the retained (tile, Gaussian)
            pairs — the within-tile work a tile-granular rasterizer would
            execute.
        pixels_culled: of those, the entries removed by the pixel-level
            active-interval culling; the hardware models use the ratio to
            discount within-tile work.
    """

    num_gaussians: int
    gaussians_rendered: int
    pairs_computed: int
    pairs_blended: int
    num_tiles: int
    num_pixels: int
    per_tile_gaussians: np.ndarray
    per_pixel_mean: float
    per_pixel_max: float
    includes_backward: bool = False
    pixels_total: int = 0
    pixels_culled: int = 0

    @classmethod
    def from_result(cls, result, includes_backward: bool = False) -> "RenderWorkload":
        """Build a workload record from a :class:`RasterizationResult`."""
        workloads = result.tile_workloads
        per_tile = np.array([w.num_gaussians for w in workloads if w.num_gaussians > 0], dtype=np.int64)
        per_pixel = (
            np.concatenate([w.per_pixel_counts for w in workloads if len(w.per_pixel_counts)])
            if any(len(w.per_pixel_counts) for w in workloads)
            else np.zeros(1, dtype=np.int64)
        )
        height, width = result.color.shape[:2]
        return cls(
            num_gaussians=len(result.gaussian_max_alpha),
            gaussians_rendered=int(per_tile.sum()) if len(per_tile) else 0,
            pairs_computed=result.total_pairs_computed,
            pairs_blended=result.total_pairs_blended,
            num_tiles=int(len(per_tile)),
            num_pixels=int(height * width),
            per_tile_gaussians=per_tile,
            per_pixel_mean=float(per_pixel.mean()),
            per_pixel_max=float(per_pixel.max()),
            includes_backward=includes_backward,
            pixels_total=result.tile_grid.pixels_total,
            pixels_culled=result.tile_grid.pixels_culled,
        )

    def scaled(self, factor: float) -> "RenderWorkload":
        """Return a copy with all counts scaled (used for resolution scaling)."""
        return dataclasses.replace(
            self,
            gaussians_rendered=int(self.gaussians_rendered * factor),
            pairs_computed=int(self.pairs_computed * factor),
            pairs_blended=int(self.pairs_blended * factor),
            num_pixels=int(self.num_pixels * factor),
            pixels_total=int(self.pixels_total * factor),
            pixels_culled=int(self.pixels_culled * factor),
        )


@dataclasses.dataclass
class TrackingWorkload:
    """Tracking cost of one frame."""

    coarse_flops: float
    refine_iterations: int
    refine_renders: list[RenderWorkload] = dataclasses.field(default_factory=list)

    @property
    def total_pairs(self) -> int:
        """Total (pixel, Gaussian) pairs evaluated across refinement iterations."""
        return int(sum(r.pairs_computed for r in self.refine_renders))


@dataclasses.dataclass
class MappingWorkload:
    """Mapping cost of one frame."""

    iterations: int
    renders: list[RenderWorkload] = dataclasses.field(default_factory=list)
    is_keyframe: bool = True
    gaussians_skipped: int = 0
    gaussians_considered: int = 0
    contribution_entries_written: int = 0
    contribution_entries_read: int = 0

    @property
    def total_pairs(self) -> int:
        """Total (pixel, Gaussian) pairs evaluated across mapping iterations."""
        return int(sum(r.pairs_computed for r in self.renders))

    @property
    def skip_fraction(self) -> float:
        """Fraction of candidate Gaussians skipped by selective mapping."""
        if self.gaussians_considered <= 0:
            return 0.0
        return self.gaussians_skipped / self.gaussians_considered


@dataclasses.dataclass
class FrameTrace:
    """Trace of one SLAM frame (tracking + mapping + covisibility detection).

    ``health_events`` records the tracking-health monitor's findings for
    the frame (``"degraded:loss"``, ``"fallback:reseed"``, ...); empty on
    healthy frames.
    """

    frame_index: int
    tracking: TrackingWorkload
    mapping: MappingWorkload
    covisibility: float | None = None
    codec_sad_evaluations: int = 0
    num_gaussians: int = 0
    health_events: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class SequenceTrace:
    """Trace of a full SLAM run over a sequence."""

    sequence: str
    algorithm: str
    width: int
    height: int
    frames: list[FrameTrace] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def num_pixels(self) -> int:
        """Pixels per frame."""
        return self.width * self.height

    def total_tracking_iterations(self) -> int:
        """Sum of refinement iterations across frames."""
        return int(sum(f.tracking.refine_iterations for f in self.frames))



def scale_trace(
    trace: SequenceTrace,
    pixel_factor: float,
    gaussian_factor: float,
) -> SequenceTrace:
    """Extrapolate a trace collected at reduced scale to full-scale workloads.

    The NumPy substrate runs the SLAM algorithm at a reduced resolution and
    map size; all *decisions* (which frames refine, which Gaussians are
    skipped, key-frame designation) are made by the real algorithm, but the
    absolute workload magnitudes are smaller than the 640x480 / multi-
    hundred-thousand-Gaussian workloads the paper's platforms execute.
    This helper rescales the magnitudes so the platform models operate in
    their intended regime (GPU kernels that are compute/bandwidth bound
    rather than launch bound):

    * per-pixel quantities (pixels, tiles, convolution FLOPs, SAD counts)
      scale with ``pixel_factor``;
    * per-Gaussian quantities (model size, tile assignments, blending
      pairs, table entries) scale with ``gaussian_factor``.

    Args:
        trace: the collected trace.
        pixel_factor: ratio of target to collected pixel count.
        gaussian_factor: ratio of target to collected Gaussian count.

    Returns:
        A new, scaled :class:`SequenceTrace`.
    """
    density_factor = gaussian_factor / max(pixel_factor, 1e-9)

    def scale_render(render: RenderWorkload) -> RenderWorkload:
        return RenderWorkload(
            num_gaussians=int(render.num_gaussians * gaussian_factor),
            gaussians_rendered=int(render.gaussians_rendered * gaussian_factor),
            pairs_computed=int(render.pairs_computed * gaussian_factor),
            pairs_blended=int(render.pairs_blended * gaussian_factor),
            num_tiles=int(render.num_tiles * pixel_factor),
            num_pixels=int(render.num_pixels * pixel_factor),
            per_tile_gaussians=(render.per_tile_gaussians * density_factor).astype(np.int64),
            per_pixel_mean=render.per_pixel_mean * density_factor,
            per_pixel_max=render.per_pixel_max * density_factor,
            includes_backward=render.includes_backward,
            pixels_total=int(render.pixels_total * gaussian_factor),
            pixels_culled=int(render.pixels_culled * gaussian_factor),
        )

    frames = []
    for frame in trace.frames:
        tracking = TrackingWorkload(
            coarse_flops=frame.tracking.coarse_flops * pixel_factor,
            refine_iterations=frame.tracking.refine_iterations,
            refine_renders=[scale_render(r) for r in frame.tracking.refine_renders],
        )
        mapping = MappingWorkload(
            iterations=frame.mapping.iterations,
            renders=[scale_render(r) for r in frame.mapping.renders],
            is_keyframe=frame.mapping.is_keyframe,
            gaussians_skipped=int(frame.mapping.gaussians_skipped * gaussian_factor),
            gaussians_considered=int(frame.mapping.gaussians_considered * gaussian_factor),
            contribution_entries_written=int(
                frame.mapping.contribution_entries_written * gaussian_factor
            ),
            contribution_entries_read=int(
                frame.mapping.contribution_entries_read * gaussian_factor
            ),
        )
        frames.append(
            FrameTrace(
                frame_index=frame.frame_index,
                tracking=tracking,
                mapping=mapping,
                covisibility=frame.covisibility,
                codec_sad_evaluations=int(frame.codec_sad_evaluations * pixel_factor),
                num_gaussians=int(frame.num_gaussians * gaussian_factor),
                health_events=list(frame.health_events),
            )
        )
    return SequenceTrace(
        sequence=trace.sequence,
        algorithm=trace.algorithm,
        width=int(round(trace.width * np.sqrt(pixel_factor))),
        height=int(round(trace.height * np.sqrt(pixel_factor))),
        frames=frames,
    )
