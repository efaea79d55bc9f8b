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

import numpy as np

MODES = ("paper_formula", "inverse_frequency", "uniform")
DEFAULT_MODE = "inverse_frequency"


def class_weights(counts, mode: str = DEFAULT_MODE) -> np.ndarray:
    """One positive float64 weight per class, from per-class sample counts."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError("counts must be a non-empty 1D vector")
    if np.any(counts < 1):
        raise ValueError(f"every class needs at least one sample, got {counts.tolist()}")
    n = counts.sum()
    k = counts.size
    if mode == "paper_formula":
        return counts / n
    if mode == "inverse_frequency":
        return n / (k * counts)
    if mode == "uniform":
        return np.ones(k)
    raise ValueError(f"unknown mode {mode!r}; pick one of {MODES}")
