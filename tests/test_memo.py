"""The one bounded memo: budget, first insert wins, read-only values."""

import sys
import threading

import numpy as np
import pytest

from harnack import kernel
from harnack.lattice import make_ball


def test_a_value_past_the_budget_is_returned_not_stored(monkeypatch):
    monkeypatch.setattr(kernel, "MEMO_BYTES", kernel.Memo.held + 100)
    memo = kernel.Memo()
    calls = []

    def compute():
        calls.append(1)
        return np.zeros(100)  # 800 bytes, past the 100 left

    first = memo.get("big", compute)
    assert first.shape == (100,) and not first.flags.writeable
    assert "big" not in memo
    second = memo.get("big", compute)
    assert len(calls) == 2 and second is not first
    held = kernel.Memo.held
    small = memo.get("small", lambda: np.zeros(4))  # 32 bytes fit
    assert "small" in memo and memo.get("small", compute) is small
    assert kernel.Memo.held == held + 32 and len(calls) == 2


def test_a_value_of_key_none_is_sealed_but_not_stored():
    memo = kernel.Memo()
    value = memo.get(None, lambda: np.ones(3))
    assert not value.flags.writeable
    assert None not in memo and memo.get(None, lambda: np.ones(3)) is not value


def test_threads_building_one_factor_all_get_the_first_stored(monkeypatch):
    threads = 8
    barrier = threading.Barrier(threads, timeout=30)
    splu = kernel.spla.splu
    built = []
    used = {}  # thread -> the factor its solve read from the memo

    def racing_splu(*args, **kwargs):
        barrier.wait()  # every thread has missed the memo before any inserts
        factor = splu(*args, **kwargs)
        built.append(factor)
        return factor

    class Watched(kernel.Memo):
        def get(self, key, compute):
            value = super().get(key, compute)
            used[threading.get_ident()] = value
            return value

    monkeypatch.setattr(kernel.spla, "splu", racing_splu)
    monkeypatch.setattr(kernel, "_LU", Watched())
    center, R = (17, -5), 5
    B = make_ball(center, R)
    kernel.killed_matrix(B)  # the factor's P, stored before the count
    held = kernel.Memo.held
    rhs = np.ones(len(B))

    def ask():
        kernel.killed_solve(make_ball(center, R), rhs)

    workers = [threading.Thread(target=ask) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(built) == threads and len(used) == threads
    answers = list(used.values())
    stored = kernel._LU.get(B.key(), lambda: None)
    assert stored in built
    assert all(factor is stored for factor in answers)
    assert kernel.Memo.held == held + 12 * stored.nnz  # counted once


@pytest.mark.parametrize("d, R", [(1, 5), (2, 4), (3, 3)])
def test_every_memoized_array_is_read_only(d, R):
    B = make_ball((0,) * d, R)
    P = kernel.killed_matrix(B)
    arrays = [P.data, P.indices, P.indptr] + [field for _, field in kernel.iter_free_fields(d, 3)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0
