"""The AGS algorithm: the paper's primary contribution.

AGS accelerates 3DGS-SLAM by exploiting frame covisibility measured from
the video CODEC's motion-estimation metadata:

* :mod:`repro.core.covisibility` — CODEC-assisted frame covisibility
  detection (accumulated per-macro-block minimum SADs).
* :mod:`repro.core.tracking` — movement-adaptive tracking: a lightweight
  coarse pose estimate for every frame, fine-grained 3DGS refinement only
  when covisibility is below ``ThreshT``.
* :mod:`repro.core.contribution` / :mod:`repro.core.mapping` — Gaussian
  contribution-aware mapping: full mapping + contribution recording on key
  frames, selective mapping that skips predicted non-contributory
  Gaussians on non-key frames.
* :mod:`repro.core.pipeline` — :class:`AgsSlam`, SplaTAM with the
  covisibility detection and the two switches above overriding its
  tracking and mapping hooks.
"""

from repro.core.config import AGSConfig
from repro.core.covisibility import (
    CovisibilityConfig,
    CovisibilityMeasurement,
    FrameCovisibilityDetector,
    covisibility_level,
)
from repro.core.contribution import ContributionPrediction, GaussianContributionTable
from repro.core.tracking import MovementAdaptiveTracker, AdaptiveTrackingOutcome
from repro.core.mapping import ContributionAwareMapper, AdaptiveMappingOutcome
from repro.core.pipeline import AgsSlam

__all__ = [
    "AGSConfig",
    "AdaptiveMappingOutcome",
    "AdaptiveTrackingOutcome",
    "AgsSlam",
    "ContributionAwareMapper",
    "ContributionPrediction",
    "CovisibilityConfig",
    "CovisibilityMeasurement",
    "FrameCovisibilityDetector",
    "GaussianContributionTable",
    "MovementAdaptiveTracker",
    "covisibility_level",
]
