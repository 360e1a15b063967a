import numpy as np
import pytest

from dbicc import GroupedSample, PayloadKind


def rand_corr(rng, p, df=None):
    """Random correlation matrix, independent of the library's generator."""
    df = df or 3 * p
    a = rng.standard_normal((p, df))
    w = a @ a.T
    d = np.sqrt(np.diag(w))
    r = w / np.outer(d, d)
    np.fill_diagonal(r, 1.0)
    return r


def vector_sample(rng, sizes, dim):
    """Random vector-payload sample with the given replicate counts."""
    values = np.array([rng.standard_normal(dim) for k in sizes for _ in range(k)])
    return GroupedSample(
        values=values,
        group_sizes=sizes,
        labels=tuple(f"x{i}" for i in range(len(sizes))),
        payload_kind=PayloadKind.VECTOR,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
