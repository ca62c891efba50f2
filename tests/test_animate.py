"""Clip parameters, visibility, track synthesis, losses, optimizer."""

import json
from dataclasses import replace

import numpy as np
import pytest

from rigkit import (
    AnimParams,
    Camera,
    DivergenceError,
    NonFiniteError,
    OptimizeConfig,
    Skeleton,
    SkinWeights,
    TrackSet,
    heuristic_skin_weights,
    joint_visibility,
    load_tracks,
    optimize,
    save_tracks,
    smoothness_regularizer,
    synthesize_tracks,
    tracking_loss,
    vertex_visibility,
)
from rigkit import quat
from rigkit.animate import params_from_animation, params_to_animation
from rigkit.deform import fk_forward, lbs_apply, posed_joint_positions
from rigkit.geometry import project

from helpers import (
    icosphere,
    random_unit_quats,
    star_mesh,
    subdivided_cube,
    tube_mesh,
    unweld,
)


def chain3() -> Skeleton:
    # Spans the origin-centered tube meshes used below.
    return Skeleton(
        joints=np.array([[-0.7, 0, 0], [0.0, 0, 0], [0.7, 0, 0]]),
        parents=np.array([-1, 0, 1]),
    )


def front_camera(distance=3.0) -> Camera:
    # Slightly off the tube's symmetry planes so no ray grazes a ridge.
    return Camera.look_at(eye=(0.04, 0.09, distance), target=(0.0, 0.0, 0.0))


def wiggle_params(frames: int, joints: int, scale_deg: float = 8.0) -> AnimParams:
    """Small deterministic clip: middle joints sway about z, root fixed."""
    m = frames - 1
    rq = np.zeros((m, 4))
    rq[:, 0] = 1.0
    jq = np.zeros((m, joints, 4))
    jq[:, :, 0] = 1.0
    for i in range(m):
        angle = np.deg2rad(scale_deg) * (i + 1) / m
        for k in range(joints - 1):
            jq[i, k] = quat.from_euler_xyz(np.array([0.0, 0.0, angle]))
    return AnimParams(rq, np.zeros((m, 3)), jq)


class TestAnimParams:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        params = AnimParams(
            random_unit_quats(rng, (5,)),
            rng.standard_normal((5, 3)),
            random_unit_quats(rng, (5, 7)),
        )
        back = AnimParams.from_flat(params.flatten(), 6, 7)
        assert np.array_equal(back.root_quats, params.root_quats)
        assert np.array_equal(back.root_trans, params.root_trans)
        assert np.array_equal(back.joint_quats, params.joint_quats)

    def test_identity_factory(self):
        params = AnimParams.identity(4, 3)
        assert params.frame_count == 4
        assert params.joint_count == 3
        assert np.all(params.root_quats[:, 0] == 1.0)
        assert np.all(params.root_trans == 0.0)
        with pytest.raises(ValueError):
            AnimParams.identity(0, 3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AnimParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):
            AnimParams(np.zeros((2, 4)), np.zeros((3, 3)), np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):
            AnimParams(np.zeros((2, 4)), np.zeros((2, 3)), np.zeros((2, 1, 3)))

    def test_copies_caller_arrays(self):
        rq = np.tile(quat.IDENTITY, (2, 1))
        params = AnimParams(rq, np.zeros((2, 3)), np.zeros((2, 1, 4)))
        rq[0, 0] = 5.0
        vec = params.flatten()
        back = AnimParams.from_flat(vec, 3, 1)
        vec[0] = 5.0
        assert params.root_quats[0, 0] == 1.0
        assert back.root_quats[0, 0] == 1.0

    def test_flat_length_validation(self):
        with pytest.raises(ValueError):
            AnimParams.from_flat(np.zeros(10), 2, 1)

    def test_normalized(self):
        rng = np.random.default_rng(2)
        params = AnimParams(
            3.0 * random_unit_quats(rng, (3,)),
            rng.standard_normal((3, 3)),
            0.25 * random_unit_quats(rng, (3, 2)),
        )
        unit = params.normalized()
        assert np.allclose(np.linalg.norm(unit.root_quats, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(unit.joint_quats, axis=2), 1.0)
        assert np.array_equal(unit.root_trans, params.root_trans)


class TestParamsAnimation:
    def test_expand_pins_frame_zero(self):
        params = wiggle_params(4, 3)
        rq, rt, jq = params_to_animation(params)
        assert np.array_equal(rq[0], [1.0, 0.0, 0.0, 0.0])
        assert np.all(rt[0] == 0.0)
        assert np.all(jq[0, :, 0] == 1.0)
        assert np.array_equal(jq[1:], params.joint_quats)

    def test_round_trip(self):
        params = wiggle_params(5, 2)
        back = params_from_animation(*params_to_animation(params))
        assert np.array_equal(back.joint_quats, params.joint_quats)

    def test_rejects_posed_frame_zero(self):
        rq, rt, jq = params_to_animation(wiggle_params(3, 2))
        rt = rt.copy()
        rt[0] = [0.1, 0.0, 0.0]
        with pytest.raises(ValueError):
            params_from_animation(rq, rt, jq)


class TestJointVisibility:
    def test_sphere_cases(self):
        welded = icosphere(2)
        cam = Camera.look_at(eye=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0))
        front_vertex = welded.vertices[int(np.argmax(welded.vertices[:, 2]))]
        joints = np.array(
            [
                [0.0, 0.0, 0.0],     # center: one crossing on the way in
                [0.0, 0.0, -1.5],    # past the back wall: two crossings
                [0.0, 0.0, 2.0],     # floating in front: zero crossings
                front_vertex,        # on the surface: its own crossing counts
            ]
        )
        s = Skeleton(joints, np.array([-1, 0, 0, 0]))
        # A triangle soup must see the same: seam hits count once.
        for mesh in (welded, unweld(welded)):
            vis = joint_visibility(mesh, s, cam)
            assert vis.tolist() == [True, False, False, True]

    def test_cube_cases(self):
        mesh = subdivided_cube(4)
        cam = Camera.look_at(eye=(0.1, 0.07, 4.0), target=(0.1, 0.07, 0.0))
        joints = np.array(
            [
                [0.1, 0.07, 0.0],    # inside
                [0.1, 0.07, 2.0],    # in front of the front face
                [0.1, 0.07, -2.0],   # behind the cube
            ]
        )
        s = Skeleton(joints, np.array([-1, 0, 0]))
        assert joint_visibility(mesh, s, cam).tolist() == [True, False, False]

    def test_camera_inside_rejected(self):
        mesh = icosphere(1, radius=5.0)
        cam = Camera.look_at(eye=(0.0, 0.0, 1.0), target=(0.0, 0.0, 0.0))
        s = Skeleton(np.zeros((1, 3)), np.array([-1]))
        with pytest.raises(ValueError):
            joint_visibility(mesh, s, cam)


class TestVertexVisibility:
    def test_front_back_split(self):
        mesh = icosphere(2)
        cam = Camera.look_at(eye=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0))
        vis = vertex_visibility(mesh, cam)
        z = mesh.vertices[:, 2]
        assert vis[int(np.argmax(z))]
        assert not vis[int(np.argmin(z))]
        # The front cap must be visible, the back cap hidden.
        assert np.all(vis[z > 0.5])
        assert not np.any(vis[z < -0.5])

    def test_subset(self):
        mesh = icosphere(1)
        cam = Camera.look_at(eye=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0))
        z = mesh.vertices[:, 2]
        subset = np.array([int(np.argmax(z)), int(np.argmin(z))])
        assert vertex_visibility(mesh, cam, subset).tolist() == [True, False]

    def test_subset_matches_full_mask(self):
        # A vertex's answer does not depend on which others share the query.
        mesh = star_mesh(np.random.default_rng(40), subdivisions=3)
        cam = Camera.look_at(eye=(0.1, 0.12, 3.0), target=(0.0, 0.0, 0.0))
        full = vertex_visibility(mesh, cam)
        assert 0 < full.sum() < mesh.vertex_count
        rng = np.random.default_rng(41)
        for size in (1, 7, 100, 400, mesh.vertex_count):
            subset = rng.choice(mesh.vertex_count, size=size, replace=False)
            assert np.array_equal(vertex_visibility(mesh, cam, subset), full[subset])


class TestTrackSet:
    def _tracks(self):
        mesh = tube_mesh(length=1.4, rings=8, sides=8)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        return synthesize_tracks(
            mesh, s, weights, wiggle_params(4, 3), front_camera(), vertex_count=30
        )

    def test_save_load_round_trip(self, tmp_path):
        tracks = self._tracks()
        path = tmp_path / "tracks.json"
        save_tracks(path, tracks)
        back = load_tracks(path)
        assert np.array_equal(back.joint_tracks, tracks.joint_tracks)
        assert np.array_equal(back.vertex_tracks, tracks.vertex_tracks)
        assert np.array_equal(back.vertex_subset, tracks.vertex_subset)
        assert np.array_equal(back.joint_visibility, tracks.joint_visibility)
        assert np.array_equal(back.vertex_visibility, tracks.vertex_visibility)
        # Older track files also carry the camera's size as "image_size".
        data = json.loads(path.read_text())
        assert "image_size" not in data
        data["image_size"] = [tracks.camera.width, tracks.camera.height]
        path.write_text(json.dumps(data))
        older = load_tracks(path)
        assert np.array_equal(older.joint_tracks, tracks.joint_tracks)
        assert np.array_equal(older.vertex_subset, tracks.vertex_subset)

    def test_shape_validation(self):
        cam = front_camera()
        with pytest.raises(ValueError):
            TrackSet(
                camera=cam,
                joint_tracks=np.zeros((2, 3, 2)),
                vertex_tracks=np.zeros((3, 4, 2)),  # frame mismatch
                vertex_subset=np.arange(4),
                joint_visibility=np.ones(3, dtype=bool),
                vertex_visibility=np.ones(4, dtype=bool),
            )
        with pytest.raises(ValueError):
            TrackSet(
                camera=cam,
                joint_tracks=np.zeros((2, 3, 2)),
                vertex_tracks=np.zeros((2, 4, 2)),
                vertex_subset=np.arange(5),  # subset mismatch
                joint_visibility=np.ones(3, dtype=bool),
                vertex_visibility=np.ones(4, dtype=bool),
            )

    def test_rejects_non_finite(self):
        tracks = self._tracks()
        jt = np.array(tracks.joint_tracks)
        jt[2, 1, 0] = np.inf
        vt = np.array(tracks.vertex_tracks)
        vt[1, 0, 1] = np.nan
        for bad in ({"joint_tracks": jt}, {"vertex_tracks": vt}):
            with pytest.raises(NonFiniteError):
                replace(tracks, **bad)

    def test_missing_field(self):
        from rigkit.animate import track_set_from_dict

        with pytest.raises(ValueError):
            track_set_from_dict({"camera": front_camera().to_dict()})


class TestSynthesizeTracks:
    def _scene(self):
        mesh = tube_mesh(length=1.4, rings=10, sides=8)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        return mesh, s, weights

    def test_subset_sorted_and_visible(self):
        mesh, s, weights = self._scene()
        cam = front_camera()
        tracks = synthesize_tracks(
            mesh, s, weights, wiggle_params(3, 3), cam, vertex_count=25
        )
        assert np.array_equal(tracks.vertex_subset, np.sort(tracks.vertex_subset))
        vis_all = vertex_visibility(mesh, cam)
        assert np.all(vis_all[tracks.vertex_subset])
        assert np.all(tracks.vertex_visibility)

    def test_count_capped_by_candidates(self):
        mesh, s, weights = self._scene()
        cam = front_camera()
        n_vis = int(np.sum(vertex_visibility(mesh, cam)))
        tracks = synthesize_tracks(
            mesh, s, weights, wiggle_params(3, 3), cam, vertex_count=10_000
        )
        assert tracks.vertex_subset.size == n_vis

    def test_deterministic(self):
        mesh, s, weights = self._scene()
        params = wiggle_params(3, 3)
        a = synthesize_tracks(mesh, s, weights, params, front_camera(), seed=7)
        b = synthesize_tracks(mesh, s, weights, params, front_camera(), seed=7)
        assert np.array_equal(a.vertex_subset, b.vertex_subset)
        assert np.array_equal(a.joint_tracks, b.joint_tracks)
        assert np.array_equal(a.vertex_tracks, b.vertex_tracks)

    def test_frame_zero_exact_under_noise(self):
        mesh, s, weights = self._scene()
        params = wiggle_params(4, 3)
        clean = synthesize_tracks(
            mesh, s, weights, params, front_camera(), seed=3, vertex_count=40
        )
        noisy = synthesize_tracks(
            mesh, s, weights, params, front_camera(), seed=3,
            vertex_count=40, noise_px=2.0,
        )
        assert np.array_equal(noisy.joint_tracks[0], clean.joint_tracks[0])
        assert np.array_equal(noisy.vertex_tracks[0], clean.vertex_tracks[0])
        assert not np.array_equal(noisy.vertex_tracks[1:], clean.vertex_tracks[1:])

    def test_noise_magnitude(self):
        # Gaussian per-axis noise of scale s has mean offset s * sqrt(pi/2).
        mesh, s, weights = self._scene()
        params = AnimParams.identity(40, 3)
        clean = synthesize_tracks(
            mesh, s, weights, params, front_camera(), seed=5, vertex_count=80
        )
        noisy = synthesize_tracks(
            mesh, s, weights, params, front_camera(), seed=5,
            vertex_count=80, noise_px=2.0,
        )
        offsets = np.linalg.norm(
            noisy.vertex_tracks[1:] - clean.vertex_tracks[1:], axis=2
        )
        assert np.mean(offsets) == pytest.approx(2.0 * np.sqrt(np.pi / 2), rel=0.05)

    def test_matches_per_frame_loop(self):
        # All frames are posed and projected in one batched pass; each
        # frame's tracks equal posing that frame alone, bit for bit.
        mesh, s, weights = self._scene()
        rng = np.random.default_rng(9)
        m = 5
        params = AnimParams(
            random_unit_quats(rng, (m,)),
            rng.normal(0.0, 0.05, (m, 3)),
            random_unit_quats(rng, (m, 3)),
        )
        cam = front_camera()
        tracks = synthesize_tracks(mesh, s, weights, params, cam, vertex_count=30)
        sub = tracks.vertex_subset
        rq, rt, jq = params_to_animation(params)
        for i in range(params.frame_count):
            cache = fk_forward(s.joints, s.parents, jq[i], rq[i], rt[i])
            verts = lbs_apply(mesh.vertices[sub], weights.matrix[sub], cache.globals_)
            joints_uv, _, _ = project(cam, posed_joint_positions(cache))
            verts_uv, _, _ = project(cam, verts)
            assert np.array_equal(tracks.joint_tracks[i], joints_uv)
            assert np.array_equal(tracks.vertex_tracks[i], verts_uv)

    def test_rejections(self):
        mesh, s, weights = self._scene()
        with pytest.raises(ValueError):
            synthesize_tracks(
                mesh, s, weights, wiggle_params(3, 5), front_camera()
            )
        with pytest.raises(ValueError):
            synthesize_tracks(
                mesh, s, weights, wiggle_params(3, 3), front_camera(), noise_px=-1.0
            )


class TestTrackingLoss:
    def _scene(self, frames=4):
        mesh = tube_mesh(length=1.4, rings=10, sides=8)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        params = wiggle_params(frames, 3)
        tracks = synthesize_tracks(
            mesh, s, weights, params, front_camera(), vertex_count=40
        )
        return mesh, s, weights, params, tracks

    def test_zero_at_ground_truth(self):
        mesh, s, weights, params, tracks = self._scene()
        result = tracking_loss(params, mesh, s, weights, tracks)
        assert result.value == 0.0
        assert result.dropped_terms == 0
        assert np.all(result.grads.joint_quats == 0.0)
        assert np.all(result.grads.root_trans == 0.0)

    def test_positive_off_truth(self):
        mesh, s, weights, params, tracks = self._scene()
        off = AnimParams.identity(params.frame_count, params.joint_count)
        result = tracking_loss(off, mesh, s, weights, tracks)
        assert result.value > 1.0

    def test_with_grad_flag(self):
        mesh, s, weights, params, tracks = self._scene()
        result = tracking_loss(params, mesh, s, weights, tracks, with_grad=False)
        assert result.grads is None

    def test_behind_camera_drops_terms(self):
        mesh, s, weights, params, tracks = self._scene(frames=2)
        behind = AnimParams(
            params.root_quats,
            np.array([[0.0, 0.0, 50.0]]),  # past the camera at z=3
            params.joint_quats,
        )
        result = tracking_loss(behind, mesh, s, weights, tracks)
        expected = int(np.sum(tracks.joint_visibility)) + int(
            np.sum(tracks.vertex_visibility)
        )
        assert result.dropped_terms == expected
        assert np.isfinite(result.value)

    def test_scene_validation(self):
        mesh, s, weights, params, tracks = self._scene()
        with pytest.raises(ValueError):
            tracking_loss(
                AnimParams.identity(params.frame_count, 5), mesh, s, weights, tracks
            )
        with pytest.raises(ValueError):
            tracking_loss(
                AnimParams.identity(params.frame_count + 1, 3),
                mesh, s, weights, tracks,
            )
        bad_w = SkinWeights(np.ones((3, 1)))
        with pytest.raises(ValueError):
            tracking_loss(params, mesh, s, bad_w, tracks)

    def test_grad_check_passes_where_plain_fd_truncates(self):
        # Instance 18 of seed 1186735208: the gradient is correct, but the
        # plain central difference is 2.1e-4 off from truncation error.
        from rigkit.gradcheck import REL_TOL, _check_tracking_loss

        rng = np.random.default_rng(1186735208)
        errs = [_check_tracking_loss(rng) for _ in range(19)]
        assert max(errs) < REL_TOL


class TestSmoothness:
    def test_zero_at_identity(self):
        result = smoothness_regularizer(AnimParams.identity(6, 4))
        assert result.value == 0.0
        assert np.allclose(result.grads.joint_quats, 0.0, atol=1e-12)
        assert np.all(result.grads.root_trans == 0.0)

    def test_single_pair_value(self):
        theta = 0.3
        jq = np.array([[[np.cos(theta / 2), np.sin(theta / 2), 0.0, 0.0]]])
        params = AnimParams(np.array([[1.0, 0, 0, 0]]), np.zeros((1, 3)), jq)
        result = smoothness_regularizer(params, with_grad=False)
        assert result.value == pytest.approx(theta**2, rel=1e-10)

    def test_translation_weight(self):
        params = AnimParams(
            np.array([[1.0, 0, 0, 0]]),
            np.array([[2.0, 0.0, 0.0]]),
            np.array([[[1.0, 0, 0, 0]]]),
        )
        assert smoothness_regularizer(params).value == pytest.approx(4.0)

    def test_anchored_to_identity_frame(self):
        # A constant non-identity clip still pays for the step from frame 0.
        theta = 0.5
        q = np.array([np.cos(theta / 2), 0.0, np.sin(theta / 2), 0.0])
        jq = np.tile(q, (3, 1, 1))
        params = AnimParams(
            np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros((3, 3)), jq
        )
        result = smoothness_regularizer(params, with_grad=False)
        assert result.value == pytest.approx(theta**2, rel=1e-10)

    def test_single_frame_clip(self):
        params = AnimParams.identity(1, 3)
        result = smoothness_regularizer(params)
        assert result.value == 0.0
        assert result.grads.joint_quats.shape == (0, 3, 4)


class TestOptimize:
    def _scene(self, frames=4, noise=0.0):
        mesh = tube_mesh(length=1.4, rings=10, sides=8)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        params = wiggle_params(frames, 3)
        tracks = synthesize_tracks(
            mesh, s, weights, params, front_camera(),
            vertex_count=50, noise_px=noise,
        )
        return mesh, s, weights, params, tracks

    def test_reduces_loss_and_trace_monotone(self):
        mesh, s, weights, params, tracks = self._scene()
        config = OptimizeConfig(iterations=300, learning_rate=0.02)
        result = optimize(mesh, s, weights, tracks, config)
        initial = tracking_loss(
            AnimParams.identity(params.frame_count, 3),
            mesh, s, weights, tracks, with_grad=False,
        ).value
        final = tracking_loss(
            result.params, mesh, s, weights, tracks, with_grad=False
        ).value
        assert final < initial / 100.0
        assert np.all(np.diff(result.trace) <= 0.0)
        assert result.trace.shape[0] == result.iterations

    def test_quaternions_stay_unit(self):
        mesh, s, weights, _, tracks = self._scene()
        result = optimize(
            mesh, s, weights, tracks, OptimizeConfig(iterations=50)
        )
        assert np.allclose(np.linalg.norm(result.params.root_quats, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(result.params.joint_quats, axis=2), 1.0)

    def test_plateau_stops_early(self):
        mesh, s, weights, params, tracks = self._scene()
        # Optimizing the exact ground-truth tracks from identity plateaus
        # long before the iteration cap on an easy 2-frame problem.
        config = OptimizeConfig(
            iterations=5000, learning_rate=0.05, plateau_window=30,
            plateau_rtol=1e-4,
        )
        result = optimize(mesh, s, weights, tracks, config)
        assert result.converged
        assert result.iterations < config.iterations

    def test_divergence_raises(self):
        mesh, s, weights, _, tracks = self._scene()
        config = OptimizeConfig(
            iterations=200, learning_rate=2.0, divergence_factor=10.0,
            divergence_warmup=5, plateau_window=1000,
        )
        with pytest.raises(DivergenceError):
            optimize(mesh, s, weights, tracks, config)

    def test_non_finite_objective_raises(self):
        # Finite tracks whose squared residuals overflow: the objective is
        # inf from the first step, which no ratio guard can catch.
        mesh, s, weights, _, tracks = self._scene()
        huge = replace(tracks, vertex_tracks=tracks.vertex_tracks * 1e200)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            optimize(mesh, s, weights, huge, OptimizeConfig(iterations=5))

    def test_single_frame_returns_identity(self):
        mesh = tube_mesh(length=1.4, rings=6, sides=6)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        tracks = synthesize_tracks(
            mesh, s, weights, AnimParams.identity(1, 3), front_camera(),
            vertex_count=10,
        )
        result = optimize(mesh, s, weights, tracks)
        assert result.converged
        assert result.iterations == 0
        assert result.params.frame_count == 1

    def test_lr_floor_decay(self):
        mesh, s, weights, _, tracks = self._scene(frames=2)
        config = OptimizeConfig(
            iterations=40, learning_rate=0.02, lr_floor=0.001
        )
        result = optimize(mesh, s, weights, tracks, config)
        assert np.all(np.isfinite(result.trace))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizeConfig(iterations=0)
        for bad in ({"reg_weight": -0.1}, {"reg_weight": np.nan},
                    {"learning_rate": 0.0}, {"learning_rate": -1.0},
                    {"learning_rate": np.nan}, {"learning_rate": np.inf}):
            with pytest.raises(ValueError):
                OptimizeConfig(**bad)
