"""The truncated-normal initializer as it was before `encoder._trunc_normal`
redrew only the positions still out of range, for the tests only: every
round tests the whole array. `test_encoder.py` asserts that the encoder's
initializer returns the same bits.
"""

import numpy as np


def trunc_normal(rng, shape, std=0.02):
    x = rng.standard_normal(shape)
    for _ in range(8):
        bad = np.abs(x) > 2.0
        if not bad.any():
            break
        x[bad] = rng.standard_normal(bad.sum())
    np.clip(x, -2.0, 2.0, out=x)
    return (x * std).astype(np.float32)
