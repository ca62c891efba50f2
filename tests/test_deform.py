"""Forward kinematics, skinning, pose sampling, heuristic weights."""

import numpy as np
import pytest

from rigkit import (
    Skeleton,
    graph_distance_matrix,
    heuristic_skin_weights,
    load_animation,
    sample_augmented_pose,
    save_animation,
)
from rigkit import core, quat
from rigkit.deform import _BlendBasis, fk_backward, fk_forward, pose_clip
from rigkit.gradcheck import central_difference, max_relative_error

from helpers import (
    bfs_graph_distances,
    icosphere,
    naive_lbs,
    path_product_fk,
    permute_joints,
    posed_joints,
    random_chain,
    random_simplex_weights,
    random_tree,
    random_unit_quats,
    rotation_matrix,
    tube_mesh,
)


def fk(s, jq, trans):
    return fk_forward(s, quat.IDENTITY, trans, jq)


def identity_quats(j: int) -> np.ndarray:
    return np.tile(quat.IDENTITY, (j, 1))


class TestRotationTable:
    """quat.to_matrix and its VJP against the expanded formula, finite
    differences and their own unstacked calls."""

    def test_matches_expanded_oracle(self):
        rng = np.random.default_rng(30)
        for shape in [(), (7,), (5, 6)]:
            q = 3.0 * rng.standard_normal(shape + (4,))
            got = quat.to_matrix(q)
            assert got.shape == shape + (3, 3)
            assert np.max(np.abs(got - rotation_matrix(q))) <= 1e-15

    def test_identity_is_exact(self):
        for q in [quat.IDENTITY, np.tile([2.5, 0.0, 0.0, 0.0], (3, 4, 1))]:
            r = quat.to_matrix(q)
            assert np.array_equal(r, np.broadcast_to(np.eye(3), r.shape))
            assert not np.any(np.signbit(r))

    def test_vjp_matches_central_difference(self):
        rng = np.random.default_rng(31)
        for shape in [(), (6,), (2, 3)]:
            q = 2.0 * rng.standard_normal(shape + (4,))
            d = rng.standard_normal(shape + (3, 3))
            axes = tuple(range(1, len(shape) + 3))
            numeric = central_difference(
                lambda st: np.sum(quat.to_matrix(st) * d, axis=axes), q
            )
            analytic = quat.to_matrix_vjp(q, d)
            assert max_relative_error(analytic, numeric) < 1e-6
            assert np.max(np.abs(np.sum(analytic * q, axis=-1))) <= 1e-14

    def test_stacked_rows_equal_single_calls(self):
        # Through a BLAS matmul a row's last bit depends on what it is
        # stacked with; fk_forward over frames relies on it not doing so.
        rng = np.random.default_rng(32)
        for shape in [(1,), (9,), (4, 3), (29, 11), (60, 30)]:
            q = rng.standard_normal(shape + (4,))
            d = rng.standard_normal(shape + (3, 3))
            r, g = quat.to_matrix(q), quat.to_matrix_vjp(q, d)
            for idx in np.ndindex(shape):
                assert np.array_equal(quat.to_matrix(q[idx]), r[idx])
                assert np.array_equal(quat.to_matrix_vjp(q[idx], d[idx]), g[idx])


class TestForwardKinematics:
    def test_identity_pose_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = random_tree(rng, int(rng.integers(1, 25)))
            cache = fk(s, identity_quats(s.joint_count), np.zeros(3))
            assert np.array_equal(cache.globals_, np.tile(np.eye(4)[:3], (s.joint_count, 1, 1)))
            assert np.array_equal(posed_joints(cache.globals_, s.joints), s.joints)

    def test_rotation_acts_about_rest_position(self):
        s = Skeleton(
            joints=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            parents=np.array([-1, 0]),
        )
        q = np.zeros((2, 4))
        q[:, 0] = 1.0
        q[0] = quat.from_euler_xyz(np.array([0.0, 0.0, np.pi / 2]))
        p = posed_joints(fk(s, q, np.zeros(3)).globals_, s.joints)
        assert p[0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
        assert p[1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_matches_path_product_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = random_tree(rng, int(rng.integers(2, 30)))
            jq = random_unit_quats(rng, (s.joint_count,))
            trans = rng.standard_normal(3)
            want = path_product_fk(s, jq, None, trans)
            assert np.allclose(fk(s, jq, trans).globals_, want[:, :3], atol=1e-12)

    def test_raw_core_with_root_motion_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            s = random_tree(rng, int(rng.integers(2, 20)))
            jq = random_unit_quats(rng, (s.joint_count,))
            root_q = random_unit_quats(rng, ())
            trans = rng.standard_normal(3)
            cache = fk_forward(s, root_q, trans, jq)
            want = path_product_fk(s, jq, root_q, trans)
            assert np.allclose(cache.globals_, want[:, :3], atol=1e-12)

    def test_raw_core_frame_batched_matches_oracles(self):
        # Several frames in one call, checked frame by frame against the
        # path-product FK and per-vertex LBS oracles.
        rng = np.random.default_rng(15)
        for _ in range(15):
            s = random_tree(rng, int(rng.integers(2, 20)))
            frames, v = int(rng.integers(2, 6)), 9
            jq = rng.standard_normal((frames, s.joint_count, 4))
            root_q = rng.standard_normal((frames, 4))
            trans = rng.standard_normal((frames, 3))
            verts = rng.uniform(-1.0, 1.0, (v, 3))
            w = rng.random((v, s.joint_count))
            w /= w.sum(axis=1, keepdims=True)
            cache, deformed = pose_clip(s, _BlendBasis(verts, w), root_q, trans, jq)
            for i in range(frames):
                want = path_product_fk(s, jq[i], root_q[i], trans[i])
                assert np.max(np.abs(cache.globals_[i] - want[:, :3])) <= 1e-9
                assert np.max(np.abs(deformed[i] - naive_lbs(verts, w, want))) <= 1e-9

    def test_raw_core_frame_batched_backward_matches_fd(self):
        # Branching trees, so siblings accumulate into a shared parent.
        rng = np.random.default_rng(16)
        for _ in range(5):
            s = random_tree(rng, 8)
            frames = 3
            jq = rng.standard_normal((frames, 8, 4))
            root_q = rng.standard_normal((frames, 4))
            trans = rng.standard_normal((frames, 3))
            probe = rng.standard_normal((frames, 8, 3, 4))

            def scalar(rq_, t_, jq_):
                cache = fk_forward(s, rq_, t_, jq_)
                return float(np.sum(cache.globals_ * probe))

            grads = fk_backward(fk_forward(s, root_q, trans, jq), probe)
            fd = [
                central_difference(lambda st: [scalar(a, trans, jq) for a in st], root_q),
                central_difference(lambda st: [scalar(root_q, a, jq) for a in st], trans),
                central_difference(lambda st: [scalar(root_q, trans, a) for a in st], jq),
            ]
            for analytic, numeric in zip(grads, fd):
                assert max_relative_error(analytic, numeric) < 1e-6

    def test_root_translation_shifts_everything(self):
        rng = np.random.default_rng(6)
        s = random_tree(rng, 9)
        base = posed_joints(fk(s, identity_quats(9), np.zeros(3)).globals_, s.joints)
        shift = np.array([0.3, -0.1, 0.7])
        moved = posed_joints(fk(s, identity_quats(9), shift).globals_, s.joints)
        assert np.allclose(moved, base + shift)


def _schedule_trees() -> dict[str, Skeleton]:
    rng = np.random.default_rng(40)
    return {
        "chain": random_chain(rng, 6),
        # depth-sorted, so every level is contiguous, but siblings share a parent
        "siblings": Skeleton(rng.uniform(-0.4, 0.4, (6, 3)), [-1, 0, 0, 0, 1, 1]),
        # levels {2, 4} and {3, 7} are not contiguous; 2 and 4 share parent 1
        "random": random_tree(np.random.default_rng(0), 9),
    }


class TestFkSchedule:
    """The per-skeleton schedule FK composes through: built once, and the
    same kinematics whether a level indexes by slice or by array."""

    def test_built_once_per_skeleton(self, monkeypatch):
        calls = []
        climb = core._climb
        monkeypatch.setattr(core, "_climb", lambda p: calls.append(p) or climb(p))
        rng = np.random.default_rng(41)
        s = random_tree(rng, 7)
        basis = _BlendBasis(rng.standard_normal((5, 3)), random_simplex_weights(rng, 5, 7))
        jq = rng.standard_normal((3, 7, 4))
        probe = np.zeros((3, 7, 3, 4))
        for _ in range(3):
            fk_backward(fk_forward(s, quat.IDENTITY, np.zeros(3), jq), probe)
            pose_clip(s, basis, quat.IDENTITY, np.zeros(3), jq)
        assert len(calls) == 1

    def test_levels_index_by_slice_where_contiguous(self):
        trees = _schedule_trees()
        chain = trees["chain"]._fk_schedule.levels
        assert chain == tuple((slice(k, k + 1), slice(k - 1, k) if k else slice(6, 7), True)
                              for k in range(6))
        (root, first, second) = trees["siblings"]._fk_schedule.levels
        assert root == (slice(0, 1), slice(6, 7), True)
        assert first[:1] == (slice(1, 4),) and np.array_equal(first[1], [0, 0, 0])
        assert second[:1] == (slice(4, 6),) and np.array_equal(second[1], [1, 1])
        assert not first[2] and not second[2]
        schedule = trees["random"]._fk_schedule
        arrays = [lvl for lvl in schedule.levels if isinstance(lvl[0], np.ndarray)]
        assert [lvl[2] for lvl in arrays] == [False, True]
        for a in (schedule.centres, *(i for lvl in arrays for i in lvl[:2])):
            assert not a.flags.writeable

    @pytest.mark.parametrize("tree", ["chain", "siblings", "random"])
    def test_stack_matches_frames_and_fd(self, tree):
        # (..., j, 3, 4) probes on the rows: a stack's gradients are bitwise
        # each frame's, and match central differences.
        s = _schedule_trees()[tree]
        rng = np.random.default_rng(42)
        j = s.joint_count
        for lead in ((5,), (), (2, 3)):
            root_q = rng.standard_normal(lead + (4,))
            trans = rng.standard_normal(lead + (3,))
            jq = rng.standard_normal(lead + (j, 4))
            probe = rng.standard_normal(lead + (j, 3, 4))
            cache = fk_forward(s, root_q, trans, jq)
            grads = fk_backward(cache, probe)
            for i in np.ndindex(lead):
                one = fk_forward(s, root_q[i], trans[i], jq[i])
                assert np.array_equal(one.transforms, cache.transforms[i])
                for g, g_one in zip(grads, fk_backward(one, probe[i])):
                    assert np.array_equal(g[i], g_one)

            def scalar(rq_, t_, jq_):
                return float(np.sum(fk_forward(s, rq_, t_, jq_).globals_ * probe))

            fd = [
                central_difference(lambda st: [scalar(a, trans, jq) for a in st], root_q),
                central_difference(lambda st: [scalar(root_q, a, jq) for a in st], trans),
                central_difference(lambda st: [scalar(root_q, trans, a) for a in st], jq),
            ]
            for analytic, numeric in zip(grads, fd):
                assert max_relative_error(analytic, numeric) < 1e-6

    def test_ancestors_walk_the_parents(self):
        # ancestors[b, k] holds when walking b's parents reaches k, and the
        # root motion j lies above every joint.
        rng = np.random.default_rng(43)
        trees = [*_schedule_trees().values(), Skeleton(np.zeros((1, 3)), [-1])]
        for _ in range(200):
            s = random_tree(rng, int(rng.integers(1, 40)))
            trees.append(permute_joints(s, rng.permutation(s.joint_count)))
        for s in trees:
            j = s.joint_count
            anc = s._fk_schedule.ancestors
            assert anc.dtype == bool and not anc.flags.writeable
            assert anc[:, j].all()
            want = np.eye(j + 1, dtype=bool)
            want[:, j] = True
            for b in range(j):
                k = b
                while k != -1:
                    want[b, k] = True
                    k = int(s.parents[k])
            assert np.array_equal(anc, want)
            assert np.array_equal(graph_distance_matrix(s), bfs_graph_distances(s))


class TestLinearBlendSkinning:
    def _scene(self, rng, v=40, j=6):
        s = random_tree(rng, j)
        verts = rng.uniform(-1, 1, (v, 3))
        w = rng.random((v, j)) + 0.01
        return s, verts, w / w.sum(axis=1, keepdims=True)

    @staticmethod
    def blend(verts, w, rows):
        """Points (..., v, 3) blended from (..., j, 3, 4) transform rows."""
        return np.swapaxes(_BlendBasis(verts, w).apply(rows), -1, -2)

    def test_identity_is_exact(self):
        rng = np.random.default_rng(9)
        s, verts, w = self._scene(rng)
        _, posed = pose_clip(
            s, _BlendBasis(verts, w), quat.IDENTITY, np.zeros(3), identity_quats(s.joint_count)
        )
        assert np.allclose(posed, verts, atol=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            s, verts, w = self._scene(rng, v=25, j=5)
            jq = random_unit_quats(rng, (5,))
            cache, posed = pose_clip(
                s, _BlendBasis(verts, w), quat.IDENTITY, rng.standard_normal(3), jq
            )
            assert np.allclose(posed, naive_lbs(verts, w, cache.transforms[:-1]), atol=1e-12)

    def test_one_hot_weights_are_rigid(self):
        rng = np.random.default_rng(11)
        s = random_tree(rng, 4)
        verts = rng.uniform(-1, 1, (12, 3))
        w = np.zeros((12, 4))
        w[:, 2] = 1.0
        jq = random_unit_quats(rng, (4,))
        cache, posed = pose_clip(s, _BlendBasis(verts, w), quat.IDENTITY, np.zeros(3), jq)
        g = cache.globals_
        want = verts @ g[2, :3, :3].T + g[2, :3, 3]
        assert np.allclose(posed, want, atol=1e-13)

    def test_raw_kernel_partition_free(self):
        # Splitting the vertex set and concatenating must be identical.
        rng = np.random.default_rng(13)
        verts = rng.uniform(-1, 1, (30, 3))
        w = rng.random((30, 5))
        w /= w.sum(axis=1, keepdims=True)
        g = path_product_fk(
            random_tree(rng, 5), random_unit_quats(rng, (5,)), None, np.zeros(3)
        )[:, :3]
        full = self.blend(verts, w, g)
        split = np.vstack([self.blend(verts[:11], w[:11], g), self.blend(verts[11:], w[11:], g)])
        assert np.array_equal(full, split)

    def test_random_splits_are_bitwise(self):
        # Any cut of the vertex set, and any single frame of a stack, poses
        # bit for bit as the whole call does.
        rng = np.random.default_rng(16)
        for _ in range(200):
            v, j, f = int(rng.integers(2, 401)), int(rng.integers(1, 21)), int(rng.integers(1, 5))
            verts = rng.uniform(-1, 1, (v, 3))
            w = random_simplex_weights(rng, v, j)
            s = random_tree(rng, j)
            jq, rq, rt = (
                random_unit_quats(rng, (f, j)), random_unit_quats(rng, (f,)),
                rng.standard_normal((f, 3)),
            )
            cut = int(rng.integers(1, v))
            basis = _BlendBasis(verts, w)
            cache, full = pose_clip(s, basis, rq, rt, jq)
            split = np.concatenate(
                [self.blend(verts[:cut], w[:cut], cache.globals_),
                 self.blend(verts[cut:], w[cut:], cache.globals_)],
                axis=-2,
            )
            assert np.array_equal(full, split)
            k = int(rng.integers(f))
            assert np.array_equal(full[k], pose_clip(s, basis, rq[k], rt[k], jq[k])[1])

    def test_weight_rows_need_not_sum_to_one(self):
        # The blend is linear in the weight rows, so a basis of rows A - B
        # poses to pose_clip(A) - pose_clip(B); deformation_error poses
        # the difference of two skinnings this way.
        rng = np.random.default_rng(18)
        for lead in ((), (3,), (2, 3)):
            for _ in range(5):
                s, verts, a = self._scene(rng, v=30, j=int(rng.integers(1, 9)))
                b = random_simplex_weights(rng, 30, s.joint_count)
                clip = (
                    random_unit_quats(rng, lead), rng.standard_normal(lead + (3,)),
                    random_unit_quats(rng, lead + (s.joint_count,)),
                )
                _, diff = pose_clip(s, _BlendBasis(verts, a - b), *clip)
                _, posed_a = pose_clip(s, _BlendBasis(verts, a), *clip)
                _, posed_b = pose_clip(s, _BlendBasis(verts, b), *clip)
                assert diff.shape == lead + (30, 3)
                assert np.max(np.abs(diff - (posed_a - posed_b))) <= 1e-12
                _, none = pose_clip(s, _BlendBasis(verts, a - a), *clip)
                assert np.all(none == 0.0)

    def test_vjp_matches_central_difference(self):
        rng = np.random.default_rng(17)
        for lead in ((), (3,)):
            s, verts, w = self._scene(rng, v=9, j=4)
            g = fk(s, random_unit_quats(rng, lead + (4,)), np.zeros(3)).globals_
            probe = rng.standard_normal(lead + (9, 3))
            basis = _BlendBasis(verts, w)

            def sums(stack):
                posed = np.swapaxes(basis.apply(stack), -1, -2)
                return (posed * probe).reshape(len(stack), -1).sum(axis=1)

            d = basis.vjp(*np.moveaxis(probe, -1, 0))
            numeric = central_difference(sums, g)
            assert max_relative_error(d, numeric) < 1e-7


class TestSampleAugmentedPose:
    def test_deterministic_by_seed(self):
        s = random_chain(np.random.default_rng(14), 8)
        a = sample_augmented_pose(s, 123)
        b = sample_augmented_pose(s, 123)
        assert np.array_equal(a, b)

    def test_unit_quaternions(self):
        s = random_chain(np.random.default_rng(16), 20)
        rng = np.random.default_rng(17)
        for _ in range(20):
            pose = sample_augmented_pose(s, rng)
            assert np.allclose(np.linalg.norm(pose, axis=1), 1.0)

    def test_rotation_probability(self):
        s = random_chain(np.random.default_rng(18), 50)
        rng = np.random.default_rng(19)
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        rotated = 0
        draws = 0
        for _ in range(2000):
            pose = sample_augmented_pose(s, rng)
            rotated += int(np.sum(~np.all(pose == identity, axis=1)))
            draws += 50
        assert abs(rotated / draws - 0.3) < 0.01

    def test_angles_respect_bound(self):
        # Recover each joint's intrinsic X-Y-Z angles from R = Rx Ry Rz;
        # |y| <= 60 deg keeps cos(y) > 0, so the split is unique.
        s = random_chain(np.random.default_rng(22), 40)
        rng = np.random.default_rng(23)
        largest = 0.0
        for _ in range(50):
            r = quat.to_matrix(sample_augmented_pose(s, rng))
            angles = np.degrees(np.stack([
                np.arctan2(-r[:, 1, 2], r[:, 2, 2]),
                np.arcsin(np.clip(r[:, 0, 2], -1.0, 1.0)),
                np.arctan2(-r[:, 0, 1], r[:, 0, 0]),
            ]))
            assert np.all(np.abs(angles) <= 60.0 + 1e-9)
            largest = max(largest, float(np.max(np.abs(angles))))
        assert largest > 55.0


class TestHeuristicWeights:
    def _chain_scene(self):
        # Chain spanning the (origin-centered) tube end to end.
        s = Skeleton(
            joints=np.array([[-1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]]),
            parents=np.array([-1, 0, 1]),
        )
        mesh = tube_mesh(length=2.0, rings=12, sides=8)
        return s, mesh

    def test_rows_on_simplex(self):
        s, mesh = self._chain_scene()
        w = heuristic_skin_weights(mesh, s)
        assert np.all(w.matrix >= 0)
        assert np.allclose(w.matrix.sum(axis=1), 1.0)

    def test_leaf_carries_no_weight(self):
        s, mesh = self._chain_scene()
        w = heuristic_skin_weights(mesh, s)
        assert np.all(w.matrix[:, 2] == 0.0)

    def test_weight_lands_on_proximal_joint(self):
        s, mesh = self._chain_scene()
        w = heuristic_skin_weights(mesh, s, falloff=0.05)
        near_start = mesh.vertices[:, 0] < -0.6
        near_end = mesh.vertices[:, 0] > 0.6
        assert np.any(near_start) and np.any(near_end)
        assert np.all(w.matrix[near_start, 0] > 0.95)
        assert np.all(w.matrix[near_end, 1] > 0.95)

    def test_starved_vertices_fall_back_to_rigid(self):
        s, mesh = self._chain_scene()
        w = heuristic_skin_weights(mesh, s, falloff=1e-8)
        assert np.allclose(w.matrix.sum(axis=1), 1.0)
        assert np.all(np.max(w.matrix, axis=1) == 1.0)

    def test_k_larger_than_bone_count(self):
        s, mesh = self._chain_scene()
        w = heuristic_skin_weights(mesh, s, k_nearest=10)
        assert np.allclose(w.matrix.sum(axis=1), 1.0)

    def test_rejections(self):
        single = Skeleton(joints=np.zeros((1, 3)), parents=np.array([-1]))
        sphere = icosphere(0)
        with pytest.raises(ValueError):
            heuristic_skin_weights(sphere, single)
        coincident = Skeleton(
            joints=np.zeros((2, 3)), parents=np.array([-1, 0])
        )
        with pytest.raises(ValueError):
            heuristic_skin_weights(sphere, coincident)
        s, mesh = self._chain_scene()
        # A count is refused, not cast: 2.5 would blend 2 bones, True 1.
        for k in (0, 2.5, True):
            with pytest.raises(ValueError, match="k_nearest"):
                heuristic_skin_weights(mesh, s, k_nearest=k)
        with pytest.raises(ValueError):
            heuristic_skin_weights(mesh, s, falloff=0.0)


class TestAnimationJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(24)
        rq = random_unit_quats(rng, (6,))
        rt = rng.standard_normal((6, 3))
        jq = random_unit_quats(rng, (6, 4))
        path = tmp_path / "anim.json"
        save_animation(path, rq, rt, jq)
        back_rq, back_rt, back_jq = load_animation(path)
        assert np.array_equal(back_rq, rq)
        assert np.array_equal(back_rt, rt)
        assert np.array_equal(back_jq, jq)

    def test_frame_count_mismatch(self):
        from rigkit.deform import animation_to_dict

        with pytest.raises(ValueError):
            animation_to_dict(np.zeros((2, 4)), np.zeros((3, 3)), np.zeros((2, 1, 4)))

    def test_malformed_frames(self):
        from rigkit.deform import animation_from_dict

        with pytest.raises(ValueError):
            animation_from_dict({"frames": []})
        with pytest.raises(ValueError):
            animation_from_dict({"frames": [{"root_quat": [1, 0, 0, 0]}]})
        with pytest.raises(ValueError):
            animation_from_dict(
                {
                    "frames": [
                        {
                            "root_quat": [1, 0, 0],
                            "root_trans": [0, 0, 0],
                            "joint_quats": [[1, 0, 0, 0]],
                        }
                    ]
                }
            )
