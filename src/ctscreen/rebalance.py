"""Per-class loss weights for imbalanced training sets.

Three modes:
  paper_formula      W_n = N_n / N       (majority class weighted up)
  inverse_frequency  W_n = N / (K * N_n) (minority class weighted up)
  uniform            W_n = 1

paper_formula is kept because it is the published relation, but it pushes
the loss toward the overrepresented class, which is the opposite of what a
rebalancing term is for. inverse_frequency is therefore the default; it
satisfies sum_n W_n * N_n = N, so the weighted loss keeps the scale of the
unweighted one.
"""

from dataclasses import dataclass

import numpy as np

MODES = ("paper_formula", "inverse_frequency", "uniform")
DEFAULT_MODE = "inverse_frequency"


class ZeroClassCount(ValueError):
    """A class with zero samples cannot be weighted."""


@dataclass
class ClassWeights:
    weights: np.ndarray  # float64, one positive weight per class
    mode: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or np.any(self.weights <= 0):
            raise ValueError("weights must be a 1D positive vector")


def class_weights(counts, mode: str = DEFAULT_MODE) -> ClassWeights:
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError("counts must be a non-empty 1D vector")
    if np.any(counts < 1):
        raise ZeroClassCount(f"every class needs at least one sample, got {counts.tolist()}")
    n = counts.sum()
    k = counts.size
    if mode == "paper_formula":
        w = counts / n
    elif mode == "inverse_frequency":
        w = n / (k * counts)
    elif mode == "uniform":
        w = np.ones(k)
    else:
        raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")
    return ClassWeights(w, mode)
