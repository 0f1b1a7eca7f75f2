"""Common regressor interface for the Stage-3 prediction models."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_1d, check_2d, check_finite, check_same_length

__all__ = ["Regressor", "validate_xy"]


def validate_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_2d(x, "X")
    check_1d(y, "y")
    check_same_length(x, y, "X", "y")
    check_finite(x, "X")
    check_finite(y, "y")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on an empty training set")
    return x, y


class Regressor:
    """fit/predict interface; all models are usable interchangeably."""

    name: str = "base"

    def fit(self, x, y) -> "Regressor":
        raise NotImplementedError  # pragma: no cover

    def predict(self, x) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover

    def get_state(self) -> dict:
        """Snapshot of the fitted model: hyperparameters + learned state.

        The returned dict holds only JSON-able scalars, ``None``, nested
        dicts/lists, and ``np.ndarray`` leaves, so the serving artifact
        layer can split it into JSON metadata and raw array bytes.
        ``set_state(get_state())`` on a fresh instance must reproduce
        ``predict`` bit-for-bit.
        """
        raise NotImplementedError  # pragma: no cover

    def set_state(self, state: dict) -> "Regressor":
        """Restore from :meth:`get_state`; returns ``self``."""
        raise NotImplementedError  # pragma: no cover

    def fit_predict(self, x, y, x_new) -> np.ndarray:
        return self.fit(x, y).predict(x_new)

    def _check_predict_input(self, x, n_features: int) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        check_2d(x, "X")
        if x.shape[1] != n_features:
            raise ValueError(
                f"X has {x.shape[1]} features, model was fit with {n_features}")
        return x
