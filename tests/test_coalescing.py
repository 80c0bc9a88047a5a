"""Coalescing and bank-conflict model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import TESLA_C1060, TESLA_C2070
from repro.gpusim.coalescing import (global_transactions,
                                     global_transactions_batch,
                                     shared_conflict_factor,
                                     shared_conflict_factors_batch)

FULL = np.ones(32, dtype=bool)


def seq_addrs(base=0, stride=4):
    return (base + np.arange(32, dtype=np.int64) * stride).astype(np.uint64)


class TestGlobalCoalescing:
    def test_sequential_cc20_one_line(self):
        assert global_transactions(seq_addrs(), FULL, 4, TESLA_C2070) == 1

    def test_sequential_cc13_two_halfwarps(self):
        # Aligned 128B of 4B accesses: one 64B segment per half-warp
        # after segment-size reduction -> 2 transactions.
        assert global_transactions(seq_addrs(), FULL, 4, TESLA_C1060) == 2

    def test_misaligned_cc20_two_lines(self):
        assert global_transactions(seq_addrs(base=64), FULL, 4,
                                   TESLA_C2070) == 2

    def test_strided_worst_case(self):
        addrs = seq_addrs(stride=128)
        assert global_transactions(addrs, FULL, 4, TESLA_C2070) == 32
        assert global_transactions(addrs, FULL, 4, TESLA_C1060) == 32

    def test_same_address_broadcast(self):
        addrs = np.zeros(32, dtype=np.uint64)
        assert global_transactions(addrs, FULL, 4, TESLA_C2070) == 1

    def test_inactive_lanes_ignored(self):
        addrs = seq_addrs(stride=128)
        mask = np.zeros(32, dtype=bool)
        mask[0] = True
        assert global_transactions(addrs, mask, 4, TESLA_C2070) == 1

    def test_no_active_lanes(self):
        assert global_transactions(seq_addrs(), np.zeros(32, bool), 4,
                                   TESLA_C2070) == 0

    @settings(max_examples=100)
    @given(stride=st.integers(1, 64), base=st.integers(0, 256))
    def test_monotone_vs_perfect(self, stride, base):
        """Any access pattern costs at least the sequential pattern."""
        addrs = seq_addrs(base=base * 4, stride=stride * 4)
        for dev in (TESLA_C1060, TESLA_C2070):
            txn = global_transactions(addrs, FULL, 4, dev)
            perfect = global_transactions(seq_addrs(), FULL, 4, dev)
            assert txn >= perfect

    def test_float8_double_counts_straddle(self):
        addrs = seq_addrs(stride=8)  # 256 bytes of doubles
        assert global_transactions(addrs, FULL, 8, TESLA_C2070) == 2


class TestBatchedGlobalCoalescing:
    """global_transactions_batch rows ≡ the scalar oracle, per member."""

    @pytest.mark.parametrize("itemsize", [1, 2, 4, 8])
    @pytest.mark.parametrize("device", [TESLA_C1060, TESLA_C2070],
                             ids=["cc13", "cc20"])
    def test_random_rows_match_oracle(self, itemsize, device):
        rng = np.random.default_rng(1000 + itemsize)
        M = 64
        addrs = (rng.integers(0, 4096, (M, 32)) * rng.integers(
            1, 5, (M, 32))).astype(np.uint64)
        mask = rng.random((M, 32)) < 0.8
        mask[0] = False          # fully inactive member
        mask[1] = True           # fully active member
        mask[2, 16:] = False     # one idle half-warp
        batch = global_transactions_batch(addrs, mask, itemsize, device)
        for i in range(M):
            assert batch[i] == global_transactions(addrs[i], mask[i],
                                                   itemsize, device), i

    @pytest.mark.parametrize("device", [TESLA_C1060, TESLA_C2070],
                             ids=["cc13", "cc20"])
    def test_structured_rows_match_oracle(self, device):
        # One member per classic regime, stacked into a single gang.
        lanes = np.arange(32, dtype=np.int64)
        rng = np.random.default_rng(7)
        rows = [lanes * 4,                     # aligned
                rng.permutation(32) * 4,       # permuted in-segment
                lanes * 4 + 4,                 # misaligned
                lanes * 8,                     # stride 2
                lanes * 16,                    # stride 4
                lanes * 128,                   # stride 32
                rng.integers(0, 1 << 20, 32),  # scattered
                np.zeros(32, np.int64)]        # broadcast
        addrs = np.stack(rows).astype(np.uint64)
        mask = np.ones(addrs.shape, bool)
        batch = global_transactions_batch(addrs, mask, 4, device)
        for i in range(len(rows)):
            assert batch[i] == global_transactions(addrs[i], mask[i],
                                                   4, device), i


class TestSharedBanks:
    def test_sequential_no_conflict(self):
        addrs = seq_addrs()
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C1060) == 1
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C2070) == 1

    def test_stride_16_conflicts_on_16_banks(self):
        addrs = seq_addrs(stride=64)  # word stride 16
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C1060) == 16
        # 32 banks: the 32 lanes hit 2 banks with 16 distinct words each.
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C2070) == 16

    def test_stride_2_conflict_differs_by_generation(self):
        addrs = seq_addrs(stride=8)  # word stride 2: even banks only
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C1060) == 2
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C2070) == 2

    def test_stride_32_worst_on_fermi(self):
        addrs = seq_addrs(stride=128)  # word stride 32
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C2070) == 32

    def test_broadcast_same_word(self):
        addrs = np.full(32, 64, dtype=np.uint64)
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C1060) == 1
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C2070) == 1

    def test_odd_stride_conflict_free(self):
        """Classic trick: padding to an odd stride removes conflicts."""
        addrs = seq_addrs(stride=68)  # word stride 17
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C1060) == 1
        assert shared_conflict_factor(addrs, FULL, 4, TESLA_C2070) == 1

    @settings(max_examples=100)
    @given(words=st.lists(st.integers(0, 1023), min_size=1, max_size=32))
    def test_factor_bounds(self, words):
        addrs = np.zeros(32, dtype=np.uint64)
        mask = np.zeros(32, dtype=bool)
        for i, w in enumerate(words):
            addrs[i] = w * 4
            mask[i] = True
        for dev in (TESLA_C1060, TESLA_C2070):
            f = shared_conflict_factor(addrs, mask, 4, dev)
            assert 1 <= f <= len(words)


class TestBatchedSharedBanks:
    """shared_conflict_factors_batch rows ≡ the scalar oracle, per member."""

    @pytest.mark.parametrize("itemsize", [1, 4, 8])
    @pytest.mark.parametrize("device", [TESLA_C1060, TESLA_C2070],
                             ids=["cc13", "cc20"])
    def test_random_rows_match_oracle(self, itemsize, device):
        rng = np.random.default_rng(2000 + itemsize)
        M = 64
        addrs = (rng.integers(0, 1024, (M, 32)) * rng.integers(
            1, 5, (M, 32)) * itemsize).astype(np.uint64)
        mask = rng.random((M, 32)) < 0.8
        mask[0] = False          # fully inactive member
        mask[1] = True           # fully active member
        mask[2, 16:] = False     # one idle half-warp
        mask[3, :16] = False     # the other idle half-warp
        batch = shared_conflict_factors_batch(addrs, mask, itemsize,
                                              device)
        for i in range(M):
            assert batch[i] == shared_conflict_factor(
                addrs[i], mask[i], itemsize, device), i

    @pytest.mark.parametrize("device", [TESLA_C1060, TESLA_C2070],
                             ids=["cc13", "cc20"])
    def test_structured_rows_match_oracle(self, device):
        # One member per classic regime, stacked into a single gang.
        lanes = np.arange(32, dtype=np.int64)
        rng = np.random.default_rng(8)
        rows = [lanes * 4,                     # stride 1 (words)
                lanes * 8,                     # stride 2
                lanes * 64,                    # stride 16
                lanes * 68,                    # stride 17 (padded)
                lanes * 128,                   # stride 32
                np.full(32, 64, np.int64),     # broadcast
                rng.permutation(32) * 4,       # permuted, no conflict
                lanes * 64,                    # stride 16, half idle
                lanes * 128]                   # stride 32, all idle
        addrs = np.stack(rows).astype(np.uint64)
        mask = np.ones(addrs.shape, bool)
        mask[7, 16:] = False
        mask[8] = False
        batch = shared_conflict_factors_batch(addrs, mask, 4, device)
        assert batch[8] == 1
        for i in range(len(rows)):
            assert batch[i] == shared_conflict_factor(addrs[i], mask[i],
                                                      4, device), i
