import tracemalloc

import numpy as np
import pytest

from cswin_seg.errors import ContractError, DataError
from cswin_seg.metrics import boundary_points, dsc, evaluate_masks, hausdorff, se_sp_acc

from oracles import confusion_counts, hausdorff_bruteforce


def random_mask(rng, shape, p=0.3):
    return (rng.uniform(size=shape) < p).astype(np.uint8)


class TestDsc:
    def test_identical(self):
        m = np.array([[1, 0], [1, 1]])
        assert dsc(m, m, 1) == 1.0

    def test_disjoint(self):
        a = np.array([[1, 1], [0, 0]])
        b = np.array([[0, 0], [1, 1]])
        assert dsc(a, b, 1) == 0.0

    def test_shifted_square(self):
        a = np.zeros((6, 6), dtype=int)
        b = np.zeros((6, 6), dtype=int)
        a[1:3, 1:3] = 1  # 4 pixels
        b[1:3, 2:4] = 1  # shifted right by 1, overlap 2
        assert dsc(a, b, 1) == pytest.approx(2 * 2 / (4 + 4))

    def test_both_empty(self):
        z = np.zeros((4, 4), dtype=int)
        assert dsc(z, z, 1) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            dsc(np.zeros((2, 2)), np.zeros((3, 3)), 1)


class TestHausdorff:
    def test_identical(self):
        rng = np.random.default_rng(0)
        m = random_mask(rng, (8, 8))
        assert hausdorff(m, m, 1) == (0.0, 0.0)

    def test_three_four_five(self):
        a = np.zeros((8, 8), dtype=int)
        b = np.zeros((8, 8), dtype=int)
        a[0, 0] = 1
        b[3, 4] = 1
        assert hausdorff(a, b, 1) == (5.0, 5.0)

    def test_one_empty_gives_diagonal(self):
        a = np.zeros((9, 13), dtype=int)
        b = np.zeros((9, 13), dtype=int)
        b[2, 2] = 1
        hd, hd95 = hausdorff(a, b, 1)
        assert hd == hd95 == pytest.approx(np.hypot(8, 12))

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            h = int(rng.integers(4, 33))
            w = int(rng.integers(4, 33))
            a = random_mask(rng, (h, w), p=float(rng.uniform(0.1, 0.6)))
            b = random_mask(rng, (h, w), p=float(rng.uniform(0.1, 0.6)))
            got = hausdorff(a, b, 1)
            want = hausdorff_bruteforce(a.astype(bool), b.astype(bool))
            assert got == want

    def test_matches_bruteforce_on_empty_and_one_sided_masks(self):
        # the class missing from one or both masks, and boundaries of about
        # 600 points each, whose pairs fill more than one chunk
        rng = np.random.default_rng(3)
        for p_a, p_b in ((0.0, 0.0), (0.0, 0.4), (0.4, 0.0), (0.5, 0.02), (0.02, 0.5), (0.5, 0.5)):
            a = random_mask(rng, (32, 40), p_a)
            b = random_mask(rng, (32, 40), p_b)
            assert hausdorff(a, b, 1) == hausdorff_bruteforce(a.astype(bool), b.astype(bool))

    def test_memory_bounded_for_large_boundaries(self):
        # a noisy 224 px prediction (23,506 boundary pixels) against a disk
        # (336): each chunk pairs at most 2**18 points in either direction
        rng = np.random.default_rng(4)
        pred = random_mask(rng, (224, 224), p=0.5)
        yy, xx = np.mgrid[:224, :224]
        true = ((yy - 112) ** 2 + (xx - 112) ** 2 <= 60**2).astype(np.uint8)
        tracemalloc.start()
        try:
            hausdorff(pred, true, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_hd95_never_exceeds_hd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_mask(rng, (16, 16))
            b = random_mask(rng, (16, 16))
            hd, hd95 = hausdorff(a, b, 1)
            assert hd95 <= hd + 1e-12

    def test_boundary_definition(self):
        m = np.zeros((5, 5), dtype=bool)
        m[1:4, 1:4] = True
        pts = {tuple(p) for p in boundary_points(m)}
        assert (2, 2) not in pts  # interior
        assert {(1, 1), (1, 2), (3, 3)} <= pts
        full = np.ones((3, 3), dtype=bool)
        # image border counts as outside, so all but the center pixel
        assert len(boundary_points(full)) == 8


class TestSeSpAcc:
    def test_perfect(self):
        rng = np.random.default_rng(3)
        m = random_mask(rng, (8, 8))
        assert se_sp_acc(m, m) == (1.0, 1.0, 1.0)

    def test_all_background_on_half_foreground(self):
        truth = np.zeros((4, 4), dtype=np.uint8)
        truth[:2] = 1
        pred = np.zeros((4, 4), dtype=np.uint8)
        se, sp, acc = se_sp_acc(pred, truth)
        assert (se, sp, acc) == (0.0, 1.0, 0.5)

    def test_matches_confusion_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pred = random_mask(rng, (8, 8))
            true = random_mask(rng, (8, 8))
            tp, fp, tn, fn = confusion_counts(pred, true)
            se, sp, acc = se_sp_acc(pred, true)
            assert se == (tp / (tp + fn) if tp + fn else 1.0)
            assert sp == (tn / (tn + fp) if tn + fp else 1.0)
            assert acc == (tp + tn) / 64

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            se_sp_acc(np.array([[0, 2]]), np.array([[0, 1]]))


class TestEvaluateMasks:
    def test_bounds_and_fields(self):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(4):
            pred = rng.integers(0, 3, (16, 16))
            true = rng.integers(0, 3, (16, 16))
            pairs.append((pred, true))
        rep = evaluate_masks(pairs, 3)
        assert rep.samples == 4
        assert set(rep.per_class_dsc) == {1, 2}
        assert 0.0 <= rep.mean_dsc <= 1.0
        assert 0.0 <= rep.se <= 1.0 and 0.0 <= rep.sp <= 1.0 and 0.0 <= rep.acc <= 1.0
        assert rep.mean_hd95 <= rep.mean_hd + 1e-12
        assert "mean" in rep.table()

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            evaluate_masks([], 2)
