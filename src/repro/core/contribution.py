"""Per-Gaussian contribution records (the GS logging / skipping tables' data).

During full mapping of a key frame, AGS records for every Gaussian the
number of pixels where its alpha stayed below ``ThreshAlpha`` (it was
non-contributory) and the number of pixels where it exceeded the threshold
(it contributed).  Non-key frames then skip Gaussians predicted to be
non-contributory.

Prediction rule.  The paper skips Gaussians whose non-contributory pixel
count exceeds ``ThreshN``.  At the reproduction's working resolution a
strong splat still produces many low-alpha fringe pixels inside its tiles,
so the rule here additionally requires that the Gaussian contributed to no
pixel of the key frame at all — which is exactly the population the
paper's motivation targets (Fig. 5: ~85 % of Gaussians have no impact on
any pixel) and keeps the false-positive rate at the few-percent level the
paper reports.  ``ThreshN`` retains its role: raising it exempts small
Gaussians (few evaluated pixels) from skipping, reproducing the
performance/quality trade-off of Fig. 21.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["ContributionPrediction", "GaussianContributionTable"]


@dataclasses.dataclass
class ContributionPrediction:
    """Prediction of which Gaussians can be skipped on a non-key frame."""

    active_mask: np.ndarray
    num_skipped: int
    num_considered: int
    keyframe_index: int | None

    @property
    def skip_fraction(self) -> float:
        """Fraction of Gaussians predicted as skippable."""
        if self.num_considered == 0:
            return 0.0
        return self.num_skipped / self.num_considered


class GaussianContributionTable:
    """Stores the contribution statistics recorded at the last key frame."""

    def __init__(self) -> None:
        self._noncontrib: np.ndarray = np.zeros(0, dtype=np.int64)
        self._contrib: np.ndarray = np.zeros(0, dtype=np.int64)
        self._keyframe_index: int | None = None

    def __len__(self) -> int:
        return len(self._noncontrib)

    @property
    def keyframe_index(self) -> int | None:
        """Frame index of the key frame that produced the current records."""
        return self._keyframe_index

    @property
    def noncontrib_counts(self) -> np.ndarray:
        """Recorded non-contributory pixel counts (read-only view)."""
        return self._noncontrib

    @property
    def contrib_counts(self) -> np.ndarray:
        """Recorded contributory pixel counts (read-only view)."""
        return self._contrib

    # ------------------------------------------------------------------
    def record(
        self, keyframe_index: int, noncontrib_counts: np.ndarray, contrib_counts: np.ndarray
    ) -> None:
        """Overwrite the table with a key frame's contribution statistics."""
        noncontrib_counts = np.asarray(noncontrib_counts, dtype=np.int64)
        contrib_counts = np.asarray(contrib_counts, dtype=np.int64)
        if noncontrib_counts.shape != contrib_counts.shape:
            raise ValueError(
                "noncontrib and contrib count arrays must have the same length: "
                f"{noncontrib_counts.shape} vs {contrib_counts.shape}"
            )
        self._noncontrib = noncontrib_counts.copy()
        self._contrib = contrib_counts.copy()
        self._keyframe_index = keyframe_index

    def clear(self) -> None:
        """Forget all recorded statistics."""
        self._noncontrib = np.zeros(0, dtype=np.int64)
        self._contrib = np.zeros(0, dtype=np.int64)
        self._keyframe_index = None

    def state_dict(self) -> dict:
        """Snapshot the recorded statistics (checkpointing)."""
        return {
            "noncontrib": self._noncontrib.copy(),
            "contrib": self._contrib.copy(),
            "keyframe_index": self._keyframe_index,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._noncontrib = np.asarray(state["noncontrib"], dtype=np.int64).copy()
        self._contrib = np.asarray(state["contrib"], dtype=np.int64).copy()
        index = state["keyframe_index"]
        self._keyframe_index = None if index is None else int(index)

    # ------------------------------------------------------------------
    def predict_active_mask(self, num_gaussians: int, thresh_n: int) -> ContributionPrediction:
        """Predict which of ``num_gaussians`` Gaussians must stay active.

        Gaussians beyond the recorded range (added since the key frame) are
        always active.  A recorded Gaussian is skipped when it contributed
        to no pixel of the key frame and its non-contributory pixel count
        exceeds ``thresh_n``.
        """
        active = np.ones(num_gaussians, dtype=bool)
        if len(self._noncontrib) == 0:
            return ContributionPrediction(
                active_mask=active, num_skipped=0, num_considered=num_gaussians,
                keyframe_index=self._keyframe_index,
            )
        known = min(len(self._noncontrib), num_gaussians)
        skip = (self._noncontrib[:known] > thresh_n) & (self._contrib[:known] == 0)
        active[:known] = ~skip
        return ContributionPrediction(
            active_mask=active,
            num_skipped=int(skip.sum()),
            num_considered=num_gaussians,
            keyframe_index=self._keyframe_index,
        )
