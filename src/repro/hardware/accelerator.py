"""Top-level AGS accelerator simulator.

Consumes a :class:`repro.workloads.SequenceTrace` (produced by running the
AGS algorithm — or a baseline, for ablations — on a sequence) and produces
per-frame latencies.  The three engines are modeled independently; because
the pose tracking engine of frame ``t+1`` does not depend on the mapping
of frame ``t`` (Fig. 9), the steady-state frame latency with overlap
enabled is ``max(tracking, mapping) + fc_detection``.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.config import AgsHardwareConfig
from repro.hardware.dram import DramModel
from repro.hardware.fc_engine import FcDetectionEngine
from repro.hardware.mapping_engine import MappingEngine
from repro.hardware.tracking_engine import PoseTrackingEngine
from repro.perf import NULL_RECORDER, PerfRecorder
from repro.workloads import FrameTrace, SequenceTrace

__all__ = ["FrameTiming", "SimulationResult", "AgsAccelerator", "record_trace_counters"]


def record_trace_counters(perf: PerfRecorder, trace: SequenceTrace) -> None:
    """Feed a trace's workload magnitudes into the ``hw.*`` counters.

    Shared by every platform model so pair culling's effect on the
    simulated workloads — fewer Gaussian-table entries, fewer blended
    (pixel, Gaussian) pairs — is observable in perf reports regardless of
    which platform consumed the trace.
    """
    pairs = 0
    table_entries = 0
    renders = 0
    pixels_total = 0
    pixels_culled = 0
    for frame in trace.frames:
        for render in frame.tracking.refine_renders:
            pairs += render.pairs_computed
            table_entries += render.gaussians_rendered
            pixels_total += render.pixels_total
            pixels_culled += render.pixels_culled
            renders += 1
        for render in frame.mapping.renders:
            pairs += render.pairs_computed
            table_entries += render.gaussians_rendered
            pixels_total += render.pixels_total
            pixels_culled += render.pixels_culled
            renders += 1
    perf.count("hw.frames", len(trace.frames))
    perf.count("hw.render_iterations", renders)
    perf.count("hw.render_pairs", pairs)
    perf.count("hw.table_entries", table_entries)
    perf.count("hw.pixels_total", pixels_total)
    perf.count("hw.pixels_culled", pixels_culled)


@dataclasses.dataclass
class FrameTiming:
    """Latency breakdown of one frame on a platform."""

    frame_index: int
    fc_seconds: float
    tracking_seconds: float
    mapping_seconds: float
    frame_seconds: float


@dataclasses.dataclass
class SimulationResult:
    """Latency summary of a full sequence on a platform."""

    platform: str
    sequence: str
    algorithm: str
    frames: list[FrameTiming] = dataclasses.field(default_factory=list)
    dram_bytes: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of the run."""
        return float(sum(f.frame_seconds for f in self.frames))

    @property
    def tracking_seconds(self) -> float:
        """Total tracking latency."""
        return float(sum(f.tracking_seconds for f in self.frames))

    @property
    def mapping_seconds(self) -> float:
        """Total mapping latency."""
        return float(sum(f.mapping_seconds for f in self.frames))

    @property
    def mean_frame_seconds(self) -> float:
        """Average per-frame latency."""
        if not self.frames:
            return 0.0
        return self.total_seconds / len(self.frames)



class AgsAccelerator:
    """The AGS architecture performance model.

    ``perf=`` threads a :class:`repro.perf.PerfRecorder` through the
    simulation: per-engine wall-clock under the ``hw/ags/fc_engine`` /
    ``hw/ags/tracking_engine`` / ``hw/ags/mapping_engine`` timers and the
    shared ``hw.*`` trace-magnitude counters.
    """

    def __init__(self, config: AgsHardwareConfig, perf: PerfRecorder | None = None) -> None:
        self.config = config
        self.perf = perf or NULL_RECORDER
        self.dram = DramModel(config.dram)
        self.fc_engine = FcDetectionEngine(config, self.dram)
        self.tracking_engine = PoseTrackingEngine(config, self.dram)
        self.mapping_engine = MappingEngine(config, self.dram)

    # ------------------------------------------------------------------
    def frame_timing(self, frame: FrameTrace, num_macroblocks: int) -> FrameTiming:
        """Latency of one frame on the accelerator."""
        with self.perf.section("fc_engine"):
            fc_timing = self.fc_engine.detect(
                num_macroblocks if frame.covisibility is not None else 0
            )
            fc_seconds = fc_timing.total_seconds(self.config.frequency_hz)
        with self.perf.section("tracking_engine"):
            tracking = self.tracking_engine.frame_timing(frame.tracking)
        with self.perf.section("mapping_engine"):
            mapping = self.mapping_engine.frame_timing(frame.mapping)

        if self.config.enable_overlap:
            # Steady state of the pipelined execution (Fig. 9): tracking of
            # the next frame overlaps mapping of the current one, so the
            # per-frame latency is bounded by the slower engine.
            frame_seconds = fc_seconds + max(tracking.total_seconds, mapping.total_seconds)
        else:
            frame_seconds = fc_seconds + tracking.total_seconds + mapping.total_seconds

        return FrameTiming(
            frame_index=frame.frame_index,
            fc_seconds=fc_seconds,
            tracking_seconds=tracking.total_seconds,
            mapping_seconds=mapping.total_seconds,
            frame_seconds=frame_seconds,
        )

    # ------------------------------------------------------------------
    def simulate(self, trace: SequenceTrace, macroblock_size: int = 8) -> SimulationResult:
        """Simulate a full sequence trace."""
        with self.perf.section("hw/ags"):
            self.dram.reset()
            num_macroblocks = (trace.width // macroblock_size) * (trace.height // macroblock_size)
            result = SimulationResult(
                platform=self.config.name, sequence=trace.sequence, algorithm=trace.algorithm
            )
            for frame in trace.frames:
                result.frames.append(self.frame_timing(frame, num_macroblocks))
            result.dram_bytes = self.dram.stats.total_bytes
        record_trace_counters(self.perf, trace)
        self.perf.count("hw.dram_bytes", result.dram_bytes)
        return result
