"""AGS hyperparameters.

The paper's Section 4.3 / 6.6 fixes ``ThreshT`` = 90 %, ``ThreshAlpha`` =
1/255, and selects ``IterT`` = 20, ``ThreshM`` = 50 % and ``ThreshN`` = 450
from sensitivity sweeps (Figs. 19-21).  The reproduction exposes the same
knobs.  Two of them are resolution dependent and therefore scaled:

* ``IterT``: the paper reduces 200 baseline tracking iterations to 20 (a
  10x cut).  The NumPy substrate runs a scaled-down baseline (default 30
  iterations), so the default ``iter_t`` keeps the same ~10x reduction.
* ``ThreshN``: a per-Gaussian *pixel count*, so it scales with the frame
  area.  The paper's 450 pixels at 640x480 corresponds to ~0.15 % of the
  frame; the default here applies the same fraction to the configured
  resolution (see :meth:`AGSConfig.thresh_n_for_resolution`).
"""

from __future__ import annotations

import dataclasses

__all__ = ["AGSConfig"]

# ThreshN in the paper, expressed as a fraction of the frame's pixel count
# (450 pixels out of 640 * 480).
_THRESH_N_FRACTION = 450.0 / (640.0 * 480.0)


@dataclasses.dataclass(frozen=True)
class AGSConfig:
    """Hyperparameters of the AGS algorithm.

    Attributes:
        thresh_t: tracking covisibility threshold (paper: 0.9).  Frames
            with covisibility above it skip fine-grained refinement.
        iter_t: fine-grained refinement iterations for low-covisibility
            frames (paper: 20 out of a 200-iteration baseline).
        thresh_m: mapping covisibility threshold against the previous key
            frame (paper: 0.5).  Above it the frame is a non-key frame.
        thresh_alpha: per-pixel alpha below which a Gaussian is counted as
            non-contributory (paper: 1/255); the backbone mapper's
            ``contribution_threshold``.
        thresh_n: non-contributory pixel count above which a Gaussian is
            skipped on non-key frames (paper: 450 at 640x480; None means
            "derive from the resolution", see
            :meth:`thresh_n_for_resolution`).
        baseline_tracking_iterations: the backbone's N_T: the tracker budget
            of MAT-off runs and of every tracking-health ladder retry (a
            retry pass runs it plus ``retry_iterations``).
        enable_movement_adaptive_tracking: disable to ablate MAT: the
            primary tracking pass is then SplaTAM's.
        enable_contribution_mapping: disable to ablate GCM (the AGS-MAT
            column of Fig. 18): mapping and the keyframe policy are then
            SplaTAM's.
        covisibility_sad_scale: per-pixel SAD (0-255 scale) that maps to
            covisibility zero; see
            :class:`repro.core.covisibility.CovisibilityConfig`.
    """

    thresh_t: float = 0.9
    iter_t: int = 5
    thresh_m: float = 0.5
    thresh_alpha: float = 1.0 / 255.0
    thresh_n: int | None = None
    baseline_tracking_iterations: int = 30
    enable_movement_adaptive_tracking: bool = True
    enable_contribution_mapping: bool = True
    covisibility_sad_scale: float = 40.0

    def thresh_n_for_resolution(self, width: int, height: int) -> int:
        """Return the effective ThreshN for a frame resolution.

        When ``thresh_n`` is set explicitly it is returned unchanged;
        otherwise the paper's 450-pixel threshold is scaled by frame area.
        """
        if self.thresh_n is not None:
            return int(self.thresh_n)
        return max(int(round(_THRESH_N_FRACTION * width * height)), 1)
