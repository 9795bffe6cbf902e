import numpy as np
import pytest

from faemb.core import (
    DescriptorSet,
    l1_dist_cubed,
    l1_dist_cubed_batch,
    stack_descriptors,
    tri_length,
)


def test_tri_length_values():
    assert tri_length(1) == 1
    assert tri_length(2) == 3
    assert tri_length(45) == 1035
    assert tri_length(16) == 136


def test_l1_dist_cubed_matches_loops():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    C = rng.standard_normal((5, 4))
    expected = [sum(abs(x[i] - C[i, j]) for i in range(5)) ** 3 for j in range(4)]
    np.testing.assert_allclose(l1_dist_cubed(x, C), expected)


def test_l1_dist_cubed_batch_matches_scalar():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 9))
    C = rng.standard_normal((6, 3))
    batch = l1_dist_cubed_batch(X, C)
    for i in range(9):
        np.testing.assert_allclose(batch[:, i], l1_dist_cubed(X[:, i], C))


class TestDescriptorSet:
    def test_basic(self):
        ds = DescriptorSet(image_id="a", descriptors=np.ones((3, 4), dtype=np.float32))
        assert ds.count == 3
        assert ds.dim == 4
        assert ds.descriptors.dtype == np.float64

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DescriptorSet(image_id="a", descriptors=np.empty((0, 4)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            DescriptorSet(image_id="a", descriptors=np.ones(4))

    def test_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            DescriptorSet(image_id="a", descriptors=bad)


def test_stack_descriptors():
    a = DescriptorSet(image_id="a", descriptors=np.ones((2, 3)))
    b = DescriptorSet(image_id="b", descriptors=2 * np.ones((4, 3)))
    stacked = stack_descriptors([a, b])
    assert stacked.shape == (6, 3)
    np.testing.assert_array_equal(stacked[:2], 1.0)
    np.testing.assert_array_equal(stacked[2:], 2.0)


def test_stack_descriptors_rejects_mixed_dims():
    a = DescriptorSet(image_id="a", descriptors=np.ones((2, 3)))
    b = DescriptorSet(image_id="b", descriptors=np.ones((2, 4)))
    with pytest.raises(ValueError):
        stack_descriptors([a, b])


def test_stack_descriptors_rejects_empty_list():
    with pytest.raises(ValueError):
        stack_descriptors([])
