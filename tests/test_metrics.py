"""Chamfer families, skinning agreement, deformation error, report dict."""

from functools import partial

import numpy as np
import pytest

from rigkit import (
    InvalidValueError,
    Mesh,
    Skeleton,
    SkinWeights,
    chamfer_b2b,
    chamfer_j2b,
    chamfer_j2j,
    deformation_error,
    metrics_report,
    normalize_skeleton,
    sample_augmented_pose,
    skinning_l1,
    skinning_precision_recall,
)
from rigkit import quat
from rigkit.core import bone_segments
from rigkit.deform import _BlendBasis, pose_clip

from helpers import brute_chamfer_j2j, random_simplex_weights, random_tree, tube_mesh


def jittered(rng, s: Skeleton, scale=0.1) -> Skeleton:
    return Skeleton(s.joints + scale * rng.standard_normal(s.joints.shape), s.parents)


class TestChamferJ2J:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_tree(rng, int(rng.integers(2, 25)))
            b = random_tree(rng, int(rng.integers(2, 25)))
            got = chamfer_j2j(a, b)
            want = brute_chamfer_j2j(a.joints, b.joints)
            assert got == pytest.approx(want, rel=1e-12)

    def test_zero_for_identical(self):
        s = random_tree(np.random.default_rng(1), 10)
        assert chamfer_j2j(s, s) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = random_tree(rng, 8)
        b = random_tree(rng, 13)
        assert chamfer_j2j(a, b) == chamfer_j2j(b, a)

    def test_hand_value(self):
        a = Skeleton(np.array([[0.0, 0, 0]]), np.array([-1]))
        b = Skeleton(np.array([[3.0, 4.0, 0]]), np.array([-1]))
        assert chamfer_j2j(a, b) == pytest.approx(5.0)


class TestChamferJ2B:
    def test_dense_sampling_converges_to_exact(self):
        # Replacing exact point-to-segment distance with a dense sampling of
        # the segments must approach the closed form.
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_tree(rng, int(rng.integers(2, 12)))
            b = random_tree(rng, int(rng.integers(2, 12)))
            exact = chamfer_j2b(a, b)

            def sampled(joints, other, n=4001):
                starts, ends, _ = bone_segments(other)
                t = np.linspace(0.0, 1.0, n)
                pts = (
                    starts[:, None, :]
                    + t[None, :, None] * (ends - starts)[:, None, :]
                ).reshape(-1, 3)
                d2 = np.sum((joints[:, None, :] - pts[None, :, :]) ** 2, axis=2)
                return float(np.mean(np.sqrt(d2.min(axis=1))))

            approx = 0.5 * (sampled(a.joints, b) + sampled(b.joints, a))
            assert abs(approx - exact) < 1e-3

    def test_joint_on_segment_is_zero(self):
        a = Skeleton(
            np.array([[0.5, 0.0, 0.0], [0.25, 0.0, 0.0]]), np.array([-1, 0])
        )
        b = Skeleton(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([-1, 0]))
        assert chamfer_j2b(a, b) == pytest.approx(
            0.5 * (0.0 + np.mean([0.5, 0.25])), abs=1e-12
        )

    def test_requires_bones(self):
        point = Skeleton(np.zeros((1, 3)), np.array([-1]))
        chain = Skeleton(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([-1, 0]))
        with pytest.raises(ValueError):
            chamfer_j2b(point, chain)
        with pytest.raises(ValueError):
            chamfer_b2b(point, chain)


class TestChamferB2B:
    def test_density_doubling_settles(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            a = random_tree(rng, int(rng.integers(2, 10)))
            b = random_tree(rng, int(rng.integers(2, 10)))
            coarse = chamfer_b2b(a, b, bone_samples=64)
            fine = chamfer_b2b(a, b, bone_samples=128)
            finer = chamfer_b2b(a, b, bone_samples=256)
            assert abs(fine - coarse) < 1e-3
            assert abs(finer - fine) < 1e-3

    def test_zero_for_identical(self):
        s = random_tree(np.random.default_rng(5), 7)
        assert chamfer_b2b(s, s) == 0.0

    def test_endpoints_included(self):
        # Two parallel unit bones at distance 1: every sample is 1 away.
        a = Skeleton(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([-1, 0]))
        b = Skeleton(np.array([[0.0, 1, 0], [1.0, 1, 0]]), np.array([-1, 0]))
        assert chamfer_b2b(a, b) == pytest.approx(1.0)


class TestNormalize:
    def test_unit_box(self):
        rng = np.random.default_rng(6)
        s = random_tree(rng, 15)
        s = Skeleton(s.joints * 7.0 + 3.0, s.parents)
        n = normalize_skeleton(s)
        lo = n.joints.min(axis=0)
        hi = n.joints.max(axis=0)
        assert np.all(lo >= -0.5 - 1e-12)
        assert np.all(hi <= 0.5 + 1e-12)
        assert np.max(hi - lo) == pytest.approx(1.0)

    def test_mesh_box_preferred(self):
        s = Skeleton(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([-1, 0]))
        box = np.array([[-2.0, -2, -2], [2.0, 2, 2]])
        n = normalize_skeleton(s, box)
        assert np.allclose(n.joints, s.joints / 4.0)

    def test_degenerate_translates_only(self):
        s = Skeleton(np.array([[5.0, 5, 5]]), np.array([-1]))
        n = normalize_skeleton(s)
        assert np.allclose(n.joints, np.zeros((1, 3)))


class TestPrecisionRecall:
    def test_hand_case(self):
        pred = SkinWeights(np.array([[0.6, 0.4, 0.0], [1.0, 0.0, 0.0]]))
        gt = SkinWeights(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
        p, r = skinning_precision_recall(pred, gt)
        # pred significant: (0,0),(0,1),(1,0); gt: (0,0),(1,0),(1,1)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)

    def test_perfect(self):
        w = SkinWeights(np.array([[0.5, 0.5]]))
        assert skinning_precision_recall(w, w) == (1.0, 1.0)

    def test_empty_denominators(self):
        # Below-threshold rows do not exist on the simplex, so drive the
        # empty-set branch through the raw threshold semantics instead.
        w = SkinWeights(np.array([[0.5, 0.5]]))
        p, r = skinning_precision_recall(w, w, threshold=0.9)
        assert (p, r) == (1.0, 1.0)

    def test_threshold_separates(self):
        pred = SkinWeights(np.array([[0.9995, 0.0005]]))
        gt = SkinWeights(np.array([[1.0, 0.0]]))
        p, _ = skinning_precision_recall(pred, gt)
        assert p == 0.5
        p, _ = skinning_precision_recall(pred, gt, threshold=1e-3)
        assert p == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            skinning_precision_recall(
                SkinWeights(np.ones((2, 1))), SkinWeights(np.ones((3, 1)))
            )
        with pytest.raises(ValueError):
            skinning_l1(SkinWeights(np.ones((2, 1))), SkinWeights(np.ones((3, 1))))


class TestSkinningL1:
    def test_zero_identical(self):
        w = SkinWeights(random_simplex_weights(np.random.default_rng(7), 20, 5))
        assert skinning_l1(w, w) == 0.0

    def test_max_is_two(self):
        pred = SkinWeights(np.array([[1.0, 0.0], [1.0, 0.0]]))
        gt = SkinWeights(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert skinning_l1(pred, gt) == pytest.approx(2.0)

    def test_mean_over_vertices(self):
        pred = SkinWeights(np.array([[1.0, 0.0], [0.5, 0.5]]))
        gt = SkinWeights(np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert skinning_l1(pred, gt) == pytest.approx(1.0)


class TestDeformationError:
    def _scene(self, seed=8):
        rng = np.random.default_rng(seed)
        s = Skeleton(
            np.array([[0.0, 0, 0], [0.7, 0, 0], [1.4, 0, 0]]),
            np.array([-1, 0, 1]),
        )
        mesh = tube_mesh(length=1.4, rings=6, sides=6)
        gt = SkinWeights(random_simplex_weights(rng, mesh.vertex_count, 3))
        return rng, s, mesh, gt

    def test_zero_for_identical(self):
        _, s, mesh, gt = self._scene()
        assert deformation_error(mesh, s, gt, gt) == 0.0

    def test_positive_for_different(self):
        rng, s, mesh, gt = self._scene()
        other = SkinWeights(random_simplex_weights(rng, mesh.vertex_count, 3))
        assert deformation_error(mesh, s, other, gt) > 0.0

    def test_deterministic_by_seed(self):
        rng, s, mesh, gt = self._scene()
        other = SkinWeights(random_simplex_weights(rng, mesh.vertex_count, 3))
        a = deformation_error(mesh, s, other, gt, seed=3)
        b = deformation_error(mesh, s, other, gt, seed=3)
        assert a == b

    def test_equals_pose_by_pose_loop(self):
        # All poses' mean displacements come from one batched norm and mean,
        # bit for bit what posing and averaging one pose at a time gives.
        rng = np.random.default_rng(12)
        for _ in range(20):
            j, v = int(rng.integers(2, 20)), int(rng.integers(1, 3000))
            poses = int(rng.integers(1, 12))
            s = random_tree(rng, j)
            mesh = Mesh(rng.uniform(-0.5, 0.5, (v, 3)), np.zeros((0, 3), dtype=np.int64))
            pred, gt = (SkinWeights(random_simplex_weights(rng, v, j)) for _ in range(2))
            basis = _BlendBasis(mesh.vertices, pred.matrix - gt.matrix)
            pose_rng = np.random.default_rng(5)
            want = 0.0
            for _ in range(poses):
                jq = sample_augmented_pose(s, pose_rng)
                _, moved = pose_clip(s, basis, quat.IDENTITY, np.zeros(3), jq)
                want += float(np.mean(np.linalg.norm(moved, axis=1)))
            assert deformation_error(mesh, s, pred, gt, seed=5, pose_count=poses) == want / poses


class TestReport:
    def test_scaling_and_nones(self):
        rng = np.random.default_rng(9)
        gt = random_tree(rng, 6)
        pred = jittered(rng, gt)
        report = metrics_report(pred, gt)
        n_pred = normalize_skeleton(pred)
        n_gt = normalize_skeleton(gt)
        assert report["cd_j2j"] == pytest.approx(100.0 * chamfer_j2j(n_pred, n_gt))
        assert report["cd_j2b"] == pytest.approx(100.0 * chamfer_j2b(n_pred, n_gt))
        assert report["precision"] is None
        assert report["recall"] is None
        assert report["skinning_l1"] is None
        assert report["deformation_error"] is None

    def test_with_weights_and_mesh(self):
        rng = np.random.default_rng(10)
        s = Skeleton(
            np.array([[0.0, 0, 0], [0.7, 0, 0], [1.4, 0, 0]]),
            np.array([-1, 0, 1]),
        )
        mesh = tube_mesh(length=1.4, rings=6, sides=6)
        gt_w = SkinWeights(random_simplex_weights(rng, mesh.vertex_count, 3))
        pred_w = SkinWeights(random_simplex_weights(rng, mesh.vertex_count, 3))
        report = metrics_report(
            s, s, pred_weights=pred_w, gt_weights=gt_w, mesh=mesh
        )
        assert report["cd_j2j"] == 0.0
        assert 0.0 <= report["precision"] <= 100.0
        assert 0.0 <= report["recall"] <= 100.0
        assert report["skinning_l1"] == pytest.approx(skinning_l1(pred_w, gt_w))
        assert report["deformation_error"] > 0.0

    def test_normalize_flag(self):
        rng = np.random.default_rng(11)
        gt = random_tree(rng, 5)
        big = Skeleton(gt.joints * 10.0, gt.parents)
        raw = metrics_report(big, gt, normalize=False)
        normed = metrics_report(big, gt)
        assert raw["cd_j2j"] > normed["cd_j2j"]


class TestMetricCounts:
    def test_rejections(self):
        s = random_tree(np.random.default_rng(13), 3)
        mesh = Mesh(np.zeros((1, 3)), np.zeros((0, 3), dtype=np.int64))
        w = SkinWeights(np.full((1, 3), 1.0 / 3.0))
        b2b = partial(chamfer_b2b, s, s)
        deform = partial(deformation_error, mesh, s, w, w)
        with pytest.raises(InvalidValueError, match="^bone_samples must be at least 2$"):
            b2b(bone_samples=1)
        with pytest.raises(InvalidValueError, match="^pose_count must be at least 1$"):
            deform(pose_count=0)
        # Counts are refused, not cast or left to fail in numpy or range.
        for call, what, bad in ((deform, "pose_count", 1.5), (deform, "pose_count", True),
                                (b2b, "bone_samples", 2.5), (b2b, "bone_samples", "32")):
            with pytest.raises(ValueError, match=f"^{what} must be an integer$"):
                call(**{what: bad})
