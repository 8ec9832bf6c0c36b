"""Gaussian contribution-aware mapping (Section 4.3 of the paper).

Frames are designated key / non-key by their covisibility with the
previous key frame (threshold ``ThreshM``):

* **Key frames** run full mapping; the per-Gaussian alpha statistics of
  the frame are recorded into the contribution table.
* **Non-key frames** run selective mapping: Gaussians predicted as
  non-contributory by the table (non-contributory pixel count above
  ``ThreshN``) are skipped entirely.

Both run the backbone's :class:`~repro.slam.mapper.GaussianMapper`,
passed to :meth:`ContributionAwareMapper.map_frame`; this module owns
only the contribution table and the key / non-key decision.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import AGSConfig
from repro.core.contribution import GaussianContributionTable
from repro.gaussians.camera import Pose
from repro.gaussians.model import GaussianModel
from repro.slam.mapper import GaussianMapper, MappingOutcome

__all__ = ["AdaptiveMappingOutcome", "ContributionAwareMapper"]


@dataclasses.dataclass
class AdaptiveMappingOutcome:
    """Result of contribution-aware mapping for one frame."""

    is_keyframe: bool
    gaussians_skipped: int
    mapping: MappingOutcome


class ContributionAwareMapper:
    """Key / non-key frame designation with Gaussian skipping."""

    def __init__(self, config: AGSConfig | None = None) -> None:
        self.config = config or AGSConfig()
        self.contribution_table = GaussianContributionTable()

    def reset(self) -> None:
        """Forget the contribution table (new sequence)."""
        self.contribution_table.clear()

    def state_dict(self) -> dict:
        """Snapshot the contribution table (the only sequence state)."""
        return self.contribution_table.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.contribution_table.load_state_dict(state)

    # ------------------------------------------------------------------
    def designate_keyframe(self, covisibility_with_keyframe: float | None) -> bool:
        """Decide whether the frame must be a key frame (full mapping).

        A frame is a key frame when no previous key frame exists or when
        its covisibility with the previous key frame is below ``ThreshM``.
        """
        if covisibility_with_keyframe is None:
            return True
        return covisibility_with_keyframe < self.config.thresh_m

    # ------------------------------------------------------------------
    def map_frame(
        self,
        model: GaussianModel,
        frame_index: int,
        frame_color: np.ndarray,
        frame_depth: np.ndarray,
        pose: Pose,
        covisibility_with_keyframe: float | None,
        mapper: GaussianMapper,
        keyframes: list[tuple[np.ndarray, np.ndarray, Pose]] | None = None,
        collect_workload: bool = True,
    ) -> AdaptiveMappingOutcome:
        """Map one frame with ``mapper``, fully or selectively.

        Returns the mapper's outcome (``outcome.mapping.model`` is the
        updated map) together with the key-frame designation and the
        number of Gaussians skipped.
        """
        if self.designate_keyframe(covisibility_with_keyframe):
            outcome = mapper.map_frame(
                model,
                frame_color,
                frame_depth,
                pose,
                keyframes=keyframes,
                record_contributions=True,
                collect_workload=collect_workload,
            )
            self.contribution_table.record(
                frame_index, outcome.noncontrib_counts, outcome.contrib_counts
            )
            return AdaptiveMappingOutcome(is_keyframe=True, gaussians_skipped=0, mapping=outcome)

        thresh_n = self.config.thresh_n_for_resolution(
            mapper.intrinsics.width, mapper.intrinsics.height
        )
        prediction = self.contribution_table.predict_active_mask(len(model), thresh_n)
        outcome = mapper.map_frame(
            model,
            frame_color,
            frame_depth,
            pose,
            keyframes=keyframes,
            active_mask=prediction.active_mask,
            collect_workload=collect_workload,
            # Pruning would invalidate the Gaussian indices recorded in
            # the contribution table, so it only runs on key frames.
            allow_prune=False,
        )
        return AdaptiveMappingOutcome(
            is_keyframe=False, gaussians_skipped=prediction.num_skipped, mapping=outcome
        )
