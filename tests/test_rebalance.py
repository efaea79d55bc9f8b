"""Class-weight formula checks, including the published binary split."""

import numpy as np
import pytest

from ctscreen import rebalance as rb


def test_paper_formula_binary_split():
    w = rb.class_weights([254, 856], "paper_formula")
    assert abs(w[0] - 254 / 1110) < 1e-4
    assert abs(w[1] - 856 / 1110) < 1e-4
    assert round(w[0], 4) == 0.2288 and round(w[1], 4) == 0.7712


def test_paper_formula_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        counts = rng.integers(1, 5000, size=rng.integers(2, 7))
        w = rb.class_weights(counts, "paper_formula")
        assert abs(w.sum() - 1.0) < 1e-12


def test_inverse_frequency_binary_split():
    w = rb.class_weights([254, 856], "inverse_frequency")
    assert abs(w[0] - 1110 / (2 * 254)) < 1e-12
    assert abs(w[1] - 1110 / (2 * 856)) < 1e-12
    assert round(w[0], 4) == 2.1850 and round(w[1], 4) == 0.6484


def test_inverse_frequency_weighted_count_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        counts = rng.integers(1, 9000, size=rng.integers(2, 6))
        w = rb.class_weights(counts, "inverse_frequency")
        total = float((w * counts).sum())
        assert abs(total - counts.sum()) <= 1e-9 * counts.sum()


def test_equal_counts_give_equal_weights_every_mode():
    for mode in rb.MODES:
        w = rb.class_weights([500, 500, 500], mode)
        assert np.allclose(w, w[0])


def test_uniform_mode_all_ones():
    w = rb.class_weights([3, 999], "uniform")
    assert np.array_equal(w, [1.0, 1.0])


def test_default_mode_is_inverse_frequency():
    assert np.array_equal(rb.class_weights([10, 20]),
                          rb.class_weights([10, 20], "inverse_frequency"))


def test_zero_count_rejected():
    with pytest.raises(ValueError, match="every class needs at least one sample"):
        rb.class_weights([0, 10], "uniform")


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        rb.class_weights([1, 2], "sqrt")
