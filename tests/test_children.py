import multiprocessing
import os

import numpy as np
import pytest

from dbicc._children import run_in_children

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forks its children",
)


def _result(k):
    """An array, a value or an error, by item, and the process that made it.

    Item 6's array is a strided view of another, not C-contiguous.
    """
    if k % 5 == 4:
        raise ValueError(f"item {k}")
    if k % 2:
        return {"item": k, "pid": os.getpid()}
    if k == 6:
        return np.arange(k * 6, dtype=np.int32)[::2].reshape(k, 3)
    return np.arange(k * 3, dtype=np.int32 if k % 4 else float).reshape(k, 3)


@needs_fork
def test_results_come_back_in_item_order_from_the_children():
    items = [1, 3, 5, 0, 2, 6, 7]  # each child computes a dict
    got = list(run_in_children(_result, items, 3, "fork"))
    assert len(got) == len(items)
    for k, value in zip(items, got):
        if k % 2:
            assert value["item"] == k
            assert value["pid"] != os.getpid()
        else:
            expected = _result(k)
            assert value.dtype == expected.dtype
            assert value.shape == expected.shape
            np.testing.assert_array_equal(value, expected)
    assert len({v["pid"] for v in got if isinstance(v, dict)}) == 3
    assert multiprocessing.active_children() == []


@needs_fork
def test_the_first_error_in_item_order_is_raised():
    # child 0 computes items 1 and 4, child 1 items 3 and 9; 4 is listed first
    got = []
    with pytest.raises(ValueError, match="^item 4$"):
        for value in run_in_children(_result, [1, 3, 4, 9], 2, "fork"):
            got.append(value["item"])
    assert got == [1, 3]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, items", [(1, [1, 3]), (4, [3]), (3, [])])
def test_below_two_children_this_process_computes(workers, items):
    got = list(run_in_children(_result, items, workers, "fork"))
    assert [v["pid"] for v in got] == [os.getpid()] * len(items)


def test_spawned_children_give_the_same_results():
    items = [1, 2, 3, 6]
    spawned = list(run_in_children(_result, items, 2, "spawn"))
    assert [v["item"] for v in spawned[::2]] == [1, 3]
    np.testing.assert_array_equal(spawned[1], _result(2))
    np.testing.assert_array_equal(spawned[3], _result(6))
    assert multiprocessing.active_children() == []
