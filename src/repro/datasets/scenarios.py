"""Deterministic adversarial stream scenarios (fault injection).

Every accuracy and perf claim of the clean pipeline is measured on
pristine :class:`~repro.datasets.sequences.SyntheticSequence` streams.  A
production SLAM service additionally has to survive the stream conditions
real sensors produce: dropped and duplicated frames, exposure drift,
sensor-noise ramps, motion blur and transient burst corruption.  This
module injects exactly those conditions as a *deterministic, composable*
wrapper over any :class:`~repro.datasets.sequences.FrameSource`:

* :class:`ScenarioSpec` — a frozen description of one adversarial
  scenario: which degradation transforms apply, over which window of the
  stream, with which intensity ramps, under which seed.
* :class:`ScenarioSource` — the :class:`FrameSource` wrapper applying a
  spec to an underlying source.

Determinism rules (the invariants tests and checkpoints rely on):

1. **Stateless per frame index.**  Every randomized decision — drop,
   duplication, noise draw, burst mask — is drawn from a fresh generator
   seeded by ``(scenario seed, transform domain, frame index)``.  Frame
   ``i`` of a scenario is therefore a pure function of ``i`` and the
   underlying source: independent of access order, of how many sessions
   share the wrapper, of batch ``run`` vs streaming ``feed``, and of
   whether the consumer was resumed mid-stream from a checkpoint in a
   fresh process.
2. **Windows are fractions of the stream.**  Transform windows are
   resolved against ``len(source)``, so a scenario describes the same
   *shape* of degradation for any run length.
3. **Ground truth is untouched.**  A degraded frame keeps the true
   camera pose and timestamp of its stream position; only the
   observation (color/depth, or which content is delivered) degrades.
   Trajectory error against the clean ground truth therefore measures
   exactly the damage done by the scenario.

Stream-level faults remap *content*: a dropped frame delivers the most
recent surviving observation again (a stale sensor read), a duplicated
frame stalls the content stream by one position (stutter).  Frame 0 is
never dropped or duplicated — it anchors the session.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.ndimage import uniform_filter1d

from repro.datasets.sequences import FrameSource, RGBDFrame

__all__ = [
    "BurstCorruption",
    "ExposureRamp",
    "FrameDrops",
    "FrameDuplicates",
    "MotionBlur",
    "NoiseRamp",
    "SCENARIOS",
    "ScenarioSource",
    "ScenarioSpec",
    "Window",
    "apply_scenario",
    "available_scenarios",
    "get_scenario",
]

# Seed domains: each transform draws from its own per-index stream so
# adding or removing one transform never shifts another's randomness.
_DOMAIN_DROP = 1
_DOMAIN_DUPLICATE = 2
_DOMAIN_NOISE = 3
_DOMAIN_BURST = 4


def _rng_at(seed: int, domain: int, index: int) -> np.random.Generator:
    """A fresh generator for (scenario, transform, frame) — stateless."""
    return np.random.default_rng(np.random.SeedSequence((seed, domain, index)))


@dataclasses.dataclass(frozen=True)
class Window:
    """A transform's active span, as fractions of the stream length."""

    start: float = 0.0
    stop: float = 1.0

    def bounds(self, length: int) -> tuple[int, int]:
        """Resolve to absolute frame indices ``[lo, hi)``."""
        lo = int(round(self.start * length))
        hi = int(round(self.stop * length))
        return lo, max(hi, lo)

    def contains(self, index: int, length: int) -> bool:
        lo, hi = self.bounds(length)
        return lo <= index < hi

    def progress(self, index: int, length: int) -> float:
        """Position of ``index`` within the window in [0, 1] (ramps)."""
        lo, hi = self.bounds(length)
        if hi - lo <= 1:
            return 1.0
        return min(max((index - lo) / (hi - 1 - lo), 0.0), 1.0)


@dataclasses.dataclass(frozen=True)
class FrameDrops:
    """Random frame drops: affected frames re-deliver stale content."""

    probability: float = 0.3
    window: Window = Window()


@dataclasses.dataclass(frozen=True)
class FrameDuplicates:
    """Random stream stutter: duplicated frames stall the content stream."""

    probability: float = 0.3
    window: Window = Window()


@dataclasses.dataclass(frozen=True)
class ExposureRamp:
    """Affine intensity drift: ``color' = gain * color + bias``, ramped."""

    gain_start: float = 1.0
    gain_end: float = 1.5
    bias_start: float = 0.0
    bias_end: float = 0.0
    window: Window = Window()


@dataclasses.dataclass(frozen=True)
class NoiseRamp:
    """Additive Gaussian sensor noise ramping across the window."""

    std_start: float = 0.0
    std_end: float = 0.15
    depth_std_start: float = 0.0
    depth_std_end: float = 0.0
    window: Window = Window()


@dataclasses.dataclass(frozen=True)
class MotionBlur:
    """Horizontal box blur (camera-shake smear) of ``kernel`` pixels."""

    kernel: int = 5
    window: Window = Window()


@dataclasses.dataclass(frozen=True)
class BurstCorruption:
    """Transient heavy corruption: a fraction of pixels replaced by noise."""

    pixel_fraction: float = 0.25
    amplitude: float = 1.0
    corrupt_depth: bool = True
    window: Window = Window()


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One adversarial stream scenario: a named bundle of transforms."""

    name: str
    seed: int = 0
    drops: FrameDrops | None = None
    duplicates: FrameDuplicates | None = None
    exposure: ExposureRamp | None = None
    noise: NoiseRamp | None = None
    blur: MotionBlur | None = None
    burst: BurstCorruption | None = None

    @property
    def is_clean(self) -> bool:
        """True when the spec applies no transform at all."""
        return all(
            getattr(self, field) is None
            for field in ("drops", "duplicates", "exposure", "noise", "blur", "burst")
        )


class ScenarioSource:
    """A :class:`FrameSource` applying a :class:`ScenarioSpec` to another.

    Degraded frames are cached per index; because frame content is a pure
    function of the index (rule 1 of the module docstring), the cache is
    a speedup only and concurrent readers racing on it are benign.
    """

    def __init__(self, source: FrameSource, spec: ScenarioSpec) -> None:
        self.source = source
        self.spec = spec
        self.intrinsics = source.intrinsics
        self._cache: dict[int, RGBDFrame] = {}

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.source.name}+{self.spec.name}"

    @property
    def dataset(self) -> str:
        return getattr(self.source, "dataset", "scenario")

    def __len__(self) -> int:
        return len(self.source)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def stream(self, start: int = 0, stop: int | None = None):
        """Yield ``(index, frame)`` pairs — the session-feeding iterator."""
        stop = len(self) if stop is None else min(stop, len(self))
        for index in range(start, stop):
            yield index, self[index]

    def ground_truth_trajectory(self):
        """The clean ground-truth trajectory (rule 3: gt is untouched)."""
        return [self.source[index].gt_pose.copy() for index in range(len(self))]

    # ------------------------------------------------------------------
    # Stream-level faults: content-index remapping
    # ------------------------------------------------------------------
    def _is_dropped(self, index: int) -> bool:
        drops = self.spec.drops
        if drops is None or index == 0 or not drops.window.contains(index, len(self)):
            return False
        return bool(_rng_at(self.spec.seed, _DOMAIN_DROP, index).random() < drops.probability)

    def _is_duplicated(self, index: int) -> bool:
        duplicates = self.spec.duplicates
        if (
            duplicates is None
            or index == 0
            or not duplicates.window.contains(index, len(self))
        ):
            return False
        return bool(
            _rng_at(self.spec.seed, _DOMAIN_DUPLICATE, index).random()
            < duplicates.probability
        )

    def content_index(self, index: int) -> int:
        """The underlying frame whose observation position ``index`` delivers.

        Duplications stall the content stream (each one shifts all later
        content back by one position); drops then re-deliver the most
        recent surviving content at or before the shifted position.  Both
        are pure functions of the index.
        """
        shift = sum(1 for j in range(1, index + 1) if self._is_duplicated(j))
        base = max(index - shift, 0)
        while base > 0 and self._is_dropped(base):
            base -= 1
        return base

    # ------------------------------------------------------------------
    # Pixel-level transforms
    # ------------------------------------------------------------------
    def _degrade(self, index: int, color: np.ndarray, depth: np.ndarray):
        spec = self.spec
        length = len(self)

        exposure = spec.exposure
        if exposure is not None and exposure.window.contains(index, length):
            t = exposure.window.progress(index, length)
            gain = exposure.gain_start + t * (exposure.gain_end - exposure.gain_start)
            bias = exposure.bias_start + t * (exposure.bias_end - exposure.bias_start)
            color = gain * color + bias

        blur = spec.blur
        if blur is not None and blur.kernel > 1 and blur.window.contains(index, length):
            color = uniform_filter1d(color, size=int(blur.kernel), axis=1, mode="nearest")

        noise = spec.noise
        if noise is not None and noise.window.contains(index, length):
            t = noise.window.progress(index, length)
            std = noise.std_start + t * (noise.std_end - noise.std_start)
            depth_std = noise.depth_std_start + t * (
                noise.depth_std_end - noise.depth_std_start
            )
            rng = _rng_at(spec.seed, _DOMAIN_NOISE, index)
            if std > 0:
                color = color + rng.normal(scale=std, size=color.shape)
            if depth_std > 0:
                depth = np.maximum(
                    depth * (1.0 + rng.normal(scale=depth_std, size=depth.shape)), 0.0
                )

        burst = spec.burst
        if burst is not None and burst.window.contains(index, length):
            rng = _rng_at(spec.seed, _DOMAIN_BURST, index)
            mask = rng.random(color.shape[:2]) < burst.pixel_fraction
            color = np.where(
                mask[..., None], rng.random(color.shape) * burst.amplitude, color
            )
            if burst.corrupt_depth:
                depth = np.where(mask, 0.0, depth)

        return np.clip(color, 0.0, 1.0), depth

    def __getitem__(self, index: int) -> RGBDFrame:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"frame index {index} out of range for {len(self)} frames")
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        anchor = self.source[index]
        content = (
            anchor if self.content_index(index) == index else self.source[self.content_index(index)]
        )
        color = np.asarray(content.color, dtype=np.float64).copy()
        depth = np.asarray(content.depth, dtype=np.float64).copy()
        color, depth = self._degrade(index, color, depth)
        frame = RGBDFrame(
            index=index,
            color=color,
            depth=depth,
            gt_pose=anchor.gt_pose.copy(),
            timestamp=anchor.timestamp,
        )
        self._cache[index] = frame
        return frame


# ---------------------------------------------------------------------------
# The scenario registry: the matrix the robustness grid runs
# ---------------------------------------------------------------------------
SCENARIOS: dict[str, ScenarioSpec] = {
    "clean": ScenarioSpec(name="clean"),
    "drops": ScenarioSpec(
        name="drops",
        seed=11,
        drops=FrameDrops(probability=0.35, window=Window(0.2, 1.0)),
    ),
    "stutter": ScenarioSpec(
        name="stutter",
        seed=12,
        duplicates=FrameDuplicates(probability=0.35, window=Window(0.2, 1.0)),
    ),
    # A step (gain_start == gain_end) rather than a ramp: an auto-exposure
    # jump is the realistic event, and a gradual ramp is normalized away by
    # the rolling health baseline — the step is what a monitor must catch.
    "exposure": ScenarioSpec(
        name="exposure",
        seed=13,
        exposure=ExposureRamp(
            gain_start=1.8, gain_end=1.8, bias_start=0.15, bias_end=0.15,
            window=Window(0.4, 1.0),
        ),
    ),
    "noise": ScenarioSpec(
        name="noise",
        seed=14,
        noise=NoiseRamp(
            std_start=0.02, std_end=0.22, depth_std_end=0.03, window=Window(0.3, 1.0)
        ),
    ),
    "blur": ScenarioSpec(
        name="blur",
        seed=15,
        blur=MotionBlur(kernel=7, window=Window(0.3, 0.9)),
    ),
    # Severe transient corruption: strong enough that a coarse flow-based
    # tracker (DroidLite) diverges at burst onset, which is exactly the
    # failure mode the tracking-health monitor exists to catch.
    "burst": ScenarioSpec(
        name="burst",
        seed=16,
        burst=BurstCorruption(
            pixel_fraction=0.6, amplitude=1.5, window=Window(0.35, 0.8)
        ),
    ),
    # Drops combined with an auto-exposure step: stale warm starts meet a
    # brightness discontinuity, the signature that defeats photometric
    # warm-started tracking and forces the feature-based fallback rung.
    "flicker": ScenarioSpec(
        name="flicker",
        seed=19,
        drops=FrameDrops(probability=0.3, window=Window(0.25, 1.0)),
        exposure=ExposureRamp(
            gain_start=1.6, gain_end=1.6, bias_start=0.10, bias_end=0.10,
            window=Window(0.3, 1.0),
        ),
    ),
    "stress": ScenarioSpec(
        name="stress",
        seed=17,
        drops=FrameDrops(probability=0.2, window=Window(0.2, 1.0)),
        exposure=ExposureRamp(
            gain_start=1.5, gain_end=1.5, bias_start=0.08, bias_end=0.08,
            window=Window(0.3, 1.0),
        ),
        noise=NoiseRamp(std_end=0.12, window=Window(0.3, 1.0)),
    ),
}


def available_scenarios() -> tuple[str, ...]:
    """Names of the registered scenarios."""
    return tuple(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name (clear error on a typo)."""
    spec = SCENARIOS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown scenario '{name}'; expected one of {tuple(SCENARIOS)}"
        )
    return spec


def apply_scenario(source: FrameSource, scenario: str | ScenarioSpec | None):
    """Wrap ``source`` in a scenario; clean/no-op scenarios pass through.

    Passing ``None``, ``"clean"`` or any transform-free spec returns the
    source unchanged, so clean runs pay zero wrapping overhead and stay
    bit-identical to runs that never imported this module.
    """
    if scenario is None:
        return source
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if spec.is_clean:
        return source
    return ScenarioSource(source, spec)
