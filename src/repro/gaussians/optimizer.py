"""Adam optimizer operating on named NumPy parameter dictionaries.

3DGS training (step 5 of the pipeline) updates every Gaussian attribute
with Adam using per-attribute learning rates; SplaTAM uses the same
optimizer for the camera pose parameters during tracking.  This module
provides a small, dependency-free Adam that mirrors that usage.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam", "DEFAULT_LEARNING_RATES"]

# Per-attribute learning rates in the spirit of the SplaTAM configuration.
DEFAULT_LEARNING_RATES: dict[str, float] = {
    "means": 1e-3,
    "log_scales": 5e-3,
    "quats": 1e-3,
    "opacities": 5e-2,
    "colors": 2.5e-2,
}


class Adam:
    """Adam optimizer over a dict of named parameter arrays.

    Args:
        learning_rates: per-parameter learning rates; parameters missing
            from the dict fall back to ``default_lr``.
        default_lr: learning rate for unnamed parameters.
        beta1, beta2: Adam moment decay rates.
        eps: Adam epsilon.
    """

    def __init__(
        self,
        learning_rates: dict[str, float] | None = None,
        default_lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.learning_rates = dict(learning_rates or {})
        self.default_lr = default_lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._first_moments: dict[str, np.ndarray] = {}
        self._second_moments: dict[str, np.ndarray] = {}
        self._step_counts: dict[str, int] = {}

    def learning_rate_for(self, name: str) -> float:
        """Return the learning rate used for parameter ``name``."""
        return self.learning_rates.get(name, self.default_lr)

    def reset(self) -> None:
        """Clear all optimizer state (moments and step counts)."""
        self._first_moments.clear()
        self._second_moments.clear()
        self._step_counts.clear()

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Apply one Adam update and return the new parameter dict.

        Parameters without a matching gradient are returned unchanged.
        """
        updated: dict[str, np.ndarray] = {}
        for name, value in params.items():
            grad = grads.get(name)
            if grad is None:
                updated[name] = value
                continue
            value = np.asarray(value, dtype=np.float64)
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != value.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match parameter "
                    f"'{name}' shape {value.shape}"
                )
            m = self._first_moments.get(name)
            v = self._second_moments.get(name)
            if m is None or m.shape != value.shape:
                m = np.zeros_like(value)
                v = np.zeros_like(value)
                self._step_counts[name] = 0
            step = self._step_counts[name] + 1
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad**2
            m_hat = m / (1.0 - self.beta1**step)
            v_hat = v / (1.0 - self.beta2**step)
            lr = self.learning_rate_for(name)
            updated[name] = value - lr * m_hat / (np.sqrt(v_hat) + self.eps)
            self._first_moments[name] = m
            self._second_moments[name] = v
            self._step_counts[name] = step
        return updated

    def state_dict(self) -> dict:
        """Snapshot the moment estimates and step counts (checkpointing)."""
        return {
            "first_moments": {name: m.copy() for name, m in self._first_moments.items()},
            "second_moments": {name: v.copy() for name, v in self._second_moments.items()},
            "step_counts": dict(self._step_counts),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._first_moments = {
            name: np.asarray(m, dtype=np.float64).copy()
            for name, m in state["first_moments"].items()
        }
        self._second_moments = {
            name: np.asarray(v, dtype=np.float64).copy()
            for name, v in state["second_moments"].items()
        }
        self._step_counts = {name: int(count) for name, count in state["step_counts"].items()}

    def resize_state(self, name: str, keep_indices: np.ndarray, new_count: int) -> None:
        """Shrink/grow the optimizer state after densification or pruning.

        Args:
            name: parameter name.
            keep_indices: indices of surviving entries in the old state.
            new_count: total number of entries after the resize; new rows
                beyond the kept ones are zero-initialized.
        """
        for store in (self._first_moments, self._second_moments):
            state = store.get(name)
            if state is None:
                continue
            kept = state[keep_indices]
            if kept.ndim == 1:
                fresh = np.zeros(new_count)
            else:
                fresh = np.zeros((new_count,) + kept.shape[1:])
            fresh[: len(kept)] = kept
            store[name] = fresh
