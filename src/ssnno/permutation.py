"""State-order permutations that preserve the input-output map.

A permutation keeps every state in a new order.
:func:`core_model.select_states` edits the parameters that touch the state
coordinates, so the permuted network reproduces the original outputs and
carries permuted states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import SsnnModel, VarianceStats, select_states


@dataclass(frozen=True)
class PermutationIndex:
    """A permutation of 0..d-1; entry i names the source state of new state i."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=int)
        if z.ndim != 1 or not np.array_equal(np.sort(z), np.arange(z.shape[0])):
            raise ValueError(f"not a permutation of 0..{z.shape[0] - 1}: {z}")
        object.__setattr__(self, "z", z)

    @property
    def dim(self) -> int:
        return self.z.shape[0]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.z, np.arange(self.dim)))

    def inverse(self) -> "PermutationIndex":
        return PermutationIndex(np.argsort(self.z))

    def matrix(self) -> np.ndarray:
        """Rows of the identity rearranged by z, so (matrix @ x)[i] = x[z[i]]."""
        return np.eye(self.dim)[self.z, :]


def variance_sort_index(stats: VarianceStats) -> PermutationIndex:
    """Index that sorts state variances in non-increasing order; ties keep original order."""
    z = np.argsort(-stats.variances, kind="stable")
    return PermutationIndex(z=z)


def permute_model(model: SsnnModel, index: PermutationIndex) -> SsnnModel:
    """Equivalent model with states reordered as ``x_new[i] = x_old[z[i]]``."""
    if index.dim != model.state_dim:
        raise ValueError(f"permutation has dimension {index.dim}, model has {model.state_dim} states")
    return select_states(model, index.z)


def permuted_loss_check(model: SsnnModel, data, weights, index: PermutationIndex):
    """Loss breakdowns of a model and of its permuted twin.

    For the variance-sort index the prediction and parameter terms agree up
    to roundoff while the variance term of the permuted model is no larger.
    """
    from .training import loss

    original = loss(model, data, weights)
    permuted = loss(permute_model(model, index), data, weights)
    return original, permuted
