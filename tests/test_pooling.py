import numpy as np
import pytest

from cpe import tensor as T
from cpe.pooling import pool_max, pool_mean


def _embs(rows):
    return T.constant(np.array(rows, dtype=np.float32))


class TestMeanPool:
    def test_arithmetic(self):
        out = pool_mean(_embs([[1, 3], [3, 1]]), [[True, True]])
        np.testing.assert_allclose(out.data, [[2, 2]])

    def test_single_chunk_identity(self):
        out = pool_mean(_embs([[1, 3]]), [[True, False]])
        np.testing.assert_allclose(out.data, [[1, 3]])

    def test_permutation_invariance(self):
        a = pool_mean(_embs([[1, 2], [3, 4], [5, 6]]), [[True, True, True]]).data
        b = pool_mean(_embs([[5, 6], [1, 2], [3, 4]]), [[True, True, True]]).data
        np.testing.assert_allclose(a, b)

    def test_masked_slots_ignored(self):
        rows = _embs([[1, 2], [4, 8]])
        a = pool_mean(rows, [[True, False, True]]).data
        b = pool_mean(rows, [[True, True]]).data
        np.testing.assert_allclose(a, b)
        np.testing.assert_allclose(a, [[2.5, 5]])

    def test_zero_unmasked_errors(self):
        with pytest.raises(ValueError, match="zero unmasked"):
            pool_mean(_embs([[1, 2]]), [[True], [False]])

    def test_keeps_float32(self):
        # the count is cast to the rows' dtype, so nothing is promoted
        rows = T.parameter(np.ones((3, 2), dtype=np.float32))
        out = pool_mean(rows, [[True, True], [True, False]])
        T.backward(T.sum_(out))
        assert out.data.dtype == np.float32 and rows.grad.dtype == np.float32
        np.testing.assert_array_equal(rows.grad, [[0.5, 0.5], [0.5, 0.5], [1, 1]])


class TestMaxPool:
    def test_elementwise_max(self):
        out = pool_max(_embs([[1, 3], [3, 1]]), [[True, True]])
        np.testing.assert_allclose(out.data, [[3, 3]])

    def test_single_chunk_identity(self):
        out = pool_max(_embs([[4, -2]]), [[True]])
        np.testing.assert_allclose(out.data, [[4, -2]])

    def test_max_absorption(self):
        base = pool_max(_embs([[5, 5], [1, 2]]), [[True, True]]).data
        more = pool_max(_embs([[5, 5], [1, 2], [0, 3]]), [[True, True, True]]).data
        np.testing.assert_allclose(base, more)

    def test_masked_slots_ignored(self):
        # a padding slot reads -inf, so a negative row still wins
        rows = _embs([[-1, -2], [-4, -8]])
        np.testing.assert_allclose(pool_max(rows, [[True, False, True]]).data, [[-1, -2]])

    def test_zero_unmasked_errors(self):
        with pytest.raises(ValueError, match="zero unmasked"):
            pool_max(_embs([[1, 2]]), [[True], [False]])


@pytest.mark.parametrize("pool", [pool_mean, pool_max])
def test_rows_fill_true_slots_in_document_order(pool):
    rows = _embs([[1, 1], [2, 2], [3, 3]])
    out = pool(rows, [[True, False, False], [False, True, True]]).data
    np.testing.assert_allclose(out[0], [1, 1])
    assert out[1].tolist() == ([2.5, 2.5] if pool is pool_mean else [3, 3])


@pytest.mark.parametrize("pool", [pool_mean, pool_max])
@pytest.mark.parametrize("n_rows", [2, 4])
def test_row_count_other_than_true_slots_rejected(pool, n_rows):
    with pytest.raises(T.ShapeError, match="3 true slots"):
        pool(_embs(np.ones((n_rows, 2))), [[True, False, True], [True, False, False]])
