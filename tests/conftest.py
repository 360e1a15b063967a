import os

import numpy as np
import pytest
from hypothesis import settings

from dbicc import GroupedSample, PayloadKind
from dbicc.bootstrap import _draw_indices

# HYPOTHESIS_PROFILE=ci: a failing property test also prints the blob that
# reproduces it (@reproduce_failure); everything else is the default profile.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def bootstrap_draw(n_individuals, n_boot, seed):
    """The bootstrap's ``(n_boot, n_individuals)`` draw, its blocks stacked."""
    return np.concatenate(list(_draw_indices(n_individuals, n_boot, seed)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
