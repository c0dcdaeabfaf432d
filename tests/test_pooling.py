import numpy as np
import pytest

from cpe import tensor as T
from cpe.pooling import pool_max, pool_mean


def _embs(rows):
    return T.constant(np.array(rows, dtype=np.float32))


class TestMeanPool:
    def test_arithmetic(self):
        out = pool_mean(_embs([[1, 3], [3, 1]]), [True, True])
        np.testing.assert_allclose(out.data, [2, 2])

    def test_single_chunk_identity(self):
        out = pool_mean(_embs([[1, 3], [9, 9]]), [True, False])
        np.testing.assert_allclose(out.data, [1, 3])

    def test_permutation_invariance(self):
        a = pool_mean(_embs([[1, 2], [3, 4], [5, 6]]), [True, True, True]).data
        b = pool_mean(_embs([[5, 6], [1, 2], [3, 4]]), [True, True, True]).data
        np.testing.assert_allclose(a, b)

    def test_masked_slots_ignored(self):
        a = pool_mean(_embs([[1, 2], [100, 100]]), [True, False]).data
        b = pool_mean(_embs([[1, 2], [-5, 7]]), [True, False]).data
        np.testing.assert_allclose(a, b)

    def test_zero_unmasked_errors(self):
        with pytest.raises(ValueError, match="zero unmasked"):
            pool_mean(_embs([[1, 2]]), [False])


class TestMaxPool:
    def test_elementwise_max(self):
        out = pool_max(_embs([[1, 3], [3, 1]]), [True, True])
        np.testing.assert_allclose(out.data, [3, 3])

    def test_single_chunk_identity(self):
        out = pool_max(_embs([[4, -2]]), [True])
        np.testing.assert_allclose(out.data, [4, -2])

    def test_max_absorption(self):
        base = pool_max(_embs([[5, 5], [1, 2]]), [True, True]).data
        more = pool_max(_embs([[5, 5], [1, 2], [0, 3]]), [True, True, True]).data
        np.testing.assert_allclose(base, more)

    def test_zero_unmasked_errors(self):
        with pytest.raises(ValueError, match="zero unmasked"):
            pool_max(_embs([[1, 2]]), [False])

