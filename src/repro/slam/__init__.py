"""SLAM systems: the 3DGS-SLAM baseline (SplaTAM-like), a Gaussian-SLAM-like
backbone, a lightweight Droid-style coarse tracker, and a traditional
feature-based baseline (ORB-SLAM2-like), plus trajectory / mapping
evaluation metrics.

These are the substrates the AGS algorithm (:mod:`repro.core`) is built on
and compared against.
"""

from repro.slam.health import (
    HealthConfig,
    HealthReport,
    TrackedFrame,
    TrackingHealthMonitor,
)
from repro.slam.results import FrameResult, SlamResult
from repro.slam.session import (
    SessionRunner,
    SessionState,
    SlamSession,
    load_session_state,
    save_session_state,
)
from repro.slam.trajectory_eval import align_trajectories, ate_rmse, rpe_rmse
from repro.slam.tracker import GaussianPoseTracker, TrackerConfig, TrackingOutcome
from repro.slam.mapper import GaussianMapper, MapperConfig, MappingOutcome
from repro.slam.keyframes import KeyframeManager, Keyframe
from repro.slam.odometry import OdometrySession
from repro.slam.droid import DroidLiteTracker, DroidLiteConfig, DroidLiteSlam
from repro.slam.orb import OrbLiteSlam, OrbLiteConfig
from repro.slam.splatam import SplaTam, SplaTamConfig
from repro.slam.gaussian_slam import GaussianSlam, GaussianSlamConfig
from repro.slam.quality import evaluate_mapping_quality

__all__ = [
    "DroidLiteConfig",
    "DroidLiteSlam",
    "DroidLiteTracker",
    "FrameResult",
    "GaussianMapper",
    "GaussianPoseTracker",
    "GaussianSlam",
    "GaussianSlamConfig",
    "HealthConfig",
    "HealthReport",
    "Keyframe",
    "KeyframeManager",
    "MapperConfig",
    "MappingOutcome",
    "OdometrySession",
    "OrbLiteConfig",
    "OrbLiteSlam",
    "SessionRunner",
    "SessionState",
    "SlamResult",
    "SlamSession",
    "SplaTam",
    "SplaTamConfig",
    "TrackedFrame",
    "TrackerConfig",
    "TrackingHealthMonitor",
    "TrackingOutcome",
    "align_trajectories",
    "ate_rmse",
    "evaluate_mapping_quality",
    "load_session_state",
    "save_session_state",
    "rpe_rmse",
]
