"""Clip parameters, visibility, track synthesis, losses, optimizer."""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from rigkit import (
    AnimParams,
    Camera,
    DivergenceError,
    Mesh,
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
    synthesize_tracks,
    vertex_visibility,
)
from rigkit import gradcheck, quat
from rigkit.animate import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    _Fit,
    _pose_in_camera,
    _render_tracks,
    _smoothness,
    _tracked_points,
    params_from_animation,
    params_to_animation,
)
from rigkit.deform import _BlendBasis, pose_clip
from rigkit.geometry import _pinhole, project

from helpers import (
    icosphere,
    posed_joints,
    random_simplex_weights,
    random_tree,
    random_unit_quats,
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


def clip(params: AnimParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw arrays (root quats, root trans, joint quats) the clip terms take."""
    return params.root_quats, params.root_trans, params.joint_quats


class TestAnimParams:
    def test_identity_factory(self):
        params = AnimParams.identity(4, 3)
        assert params.frame_count == 4
        assert params.joint_count == 3
        assert np.all(params.root_quats[:, 0] == 1.0)
        assert np.all(params.root_trans == 0.0)
        for frames in (0, 2.5, True):
            with pytest.raises(ValueError, match="frame_count"):
                AnimParams.identity(frames, 3)
        for joints in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="joint_count"):
                AnimParams.identity(3, joints)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AnimParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):
            AnimParams(np.zeros((2, 4)), np.zeros((3, 3)), np.zeros((2, 1, 4)))
        with pytest.raises(ValueError):
            AnimParams(np.zeros((2, 4)), np.zeros((2, 3)), np.zeros((2, 1, 3)))

    FIELDS = ("root_quats", "root_trans", "joint_quats")

    @pytest.mark.parametrize("field", FIELDS)
    def test_rejects_non_finite(self, field):
        good = AnimParams.identity(3, 2)
        for bad in (np.nan, np.inf, -np.inf):
            arrays = {k: getattr(good, k).copy() for k in self.FIELDS}
            arrays[field].flat[-1] = bad
            with pytest.raises(NonFiniteError):
                AnimParams(**arrays)

    def test_copies_caller_arrays(self):
        rq = np.tile(quat.IDENTITY, (2, 1))
        params = AnimParams(rq, np.zeros((2, 3)), np.zeros((2, 1, 4)))
        rq[0, 0] = 5.0
        # (2, 2, 7) rows of root quat and translation; AnimParams gets views.
        stack = np.stack([np.concatenate(clip(params)[:2], axis=-1)] * 2)
        back = AnimParams(stack[0, :, :4], stack[1, :, 4:], stack[0, :, None, :4])
        stack[...] = 5.0
        assert params.root_quats[0, 0] == 1.0
        assert back.root_quats[0, 0] == 1.0
        assert back.root_trans[0, 0] == 0.0
        assert back.joint_quats[0, 0, 0] == 1.0


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
        # A non-finite frame 0 is refused as a non-finite later frame is,
        # not compared against the identity and dropped.
        for frame in (0, 2):
            for x in (np.nan, np.inf):
                bad = [a.copy() for a in params_to_animation(wiggle_params(4, 2))]
                bad[0][frame, 1] = x
                with pytest.raises(NonFiniteError, match="contain NaN or Inf"):
                    params_from_animation(*bad)


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
        assert vertex_visibility(mesh, cam)[subset].tolist() == [True, False]

    def test_icosphere_5_scale(self):
        # 10242 rays x 20480 triangles; testing every pair takes about 6 s,
        # the binned engine about 0.15 s.
        mesh = icosphere(5, radius=0.45)
        cam = Camera.look_at((0.1, 0.3, 2.5), (0.0, 0.0, 0.0))
        start = time.perf_counter()
        full = vertex_visibility(mesh, cam)
        assert time.perf_counter() - start < 2.0
        assert 0 < full.sum() < mesh.vertex_count


class TestPoseClip:
    def test_joints_are_one_hot_points(self):
        # A joint is the LBS point at its rest position whose weight row is
        # all on its own joint, so the first j posed points are G_k rest_k.
        rng = np.random.default_rng(43)
        for lead in ((), (3,), (2, 3)):
            for _ in range(5):
                s = random_tree(rng, int(rng.integers(1, 12)))
                j = s.joint_count
                mesh = Mesh(rng.uniform(-0.5, 0.5, (9, 3)), np.zeros((0, 3)))
                weights = SkinWeights(random_simplex_weights(rng, 9, j))
                points, rows = _tracked_points(s, mesh, weights, np.array([2, 5, 7]))
                assert points.shape == (j + 3, 3) and rows.shape == (j + 3, j)
                rq = rng.standard_normal(lead + (4,))
                rt = rng.standard_normal(lead + (3,))
                jq = rng.standard_normal(lead + (j, 4))
                basis = _BlendBasis(points, rows)
                cache, posed = pose_clip(s, basis, rq, rt, jq)
                assert posed.shape == lead + (j + 3, 3)
                want = posed_joints(cache.globals_, s.joints)
                assert np.allclose(posed[..., :j, :], want, rtol=0.0, atol=1e-12)

                identity = np.zeros(lead + (j, 4))
                identity[..., 0] = 1.0
                _, rest = pose_clip(
                    s, basis, identity[..., 0, :], np.zeros(lead + (3,)), identity
                )
                joints = rest[..., :j, :]
                assert np.array_equal(joints, np.broadcast_to(s.joints, joints.shape))


class TestCameraSpaceMap:
    """The fit poses its tracked points straight into camera space; their
    pixels agree with posing in world space and then projecting."""

    @staticmethod
    def assert_matches_world_path(s, points, rows, camera, rq, rt, jq):
        """Pixels agree within 1e-9 px, masks exactly; returns how many
        points land behind the camera.  A point closer than 0.1 to the
        camera plane lands up to millions of pixels out, where rounding
        in its depth grows as 1/z^2, so its pixels agree to 1e-9 relative."""
        basis = _BlendBasis(points, rows)
        _, cam = _pose_in_camera(s, basis, camera, rq, rt, jq)
        u, v, valid, _ = _pinhole(camera, *np.moveaxis(cam, -2, 0))
        _, posed = pose_clip(s, basis, rq, rt, jq)
        uv, depth, want_valid = project(camera, posed)
        assert np.array_equal(valid, want_valid)
        for got, want in ((u, uv[..., 0]), (v, uv[..., 1])):
            scale = np.where(depth < 0.1, np.abs(want), 1.0)
            assert np.all((np.abs(got - want) <= 1e-9 * scale)[valid])
        return int(np.sum(~valid))

    @staticmethod
    def push_behind(rng, rt, frames):
        """Root translations with ``frames`` random frames moved 1-6 units
        along +z, which carries some or all of their points past a camera
        on the +z side of the scene."""
        rt = rt.copy()
        picked = rng.choice(rt.shape[0], size=frames, replace=False)
        rt[picked, 2] += rng.uniform(1.0, 6.0, frames)
        return rt

    def test_pose_recovery_scene(self):
        from test_acceptance import _recovery_scene

        mesh, s, weights, params, tracks = _recovery_scene(noise_px=0.0)
        points, rows = _tracked_points(s, mesh, weights, tracks.vertex_subset)
        rq, rt, jq = params_to_animation(params)
        rt = self.push_behind(np.random.default_rng(20), rt, 10)
        behind = self.assert_matches_world_path(s, points, rows, tracks.camera, rq, rt, jq)
        assert behind > 0

    def test_grad_check_scenes(self):
        behind = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mesh, s, weights, tracks, params = gradcheck._random_scene(rng)
            points, rows = _tracked_points(s, mesh, weights, tracks.vertex_subset)
            rq, rt, jq = params_to_animation(params)
            rt = self.push_behind(rng, rt, 2)
            behind += self.assert_matches_world_path(
                s, points, rows, tracks.camera, rq, rt, jq
            )
        assert behind > 0


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

    def test_camera_round_trips_or_is_refused(self, tmp_path):
        # A principal point the camera accepts is written as a JSON number
        # and read back to the same bytes, an int as a float; a bool or a
        # string is refused when the camera is built, so no file is written
        # that loading would refuse.
        tracks = self._tracks()
        path, again = tmp_path / "tracks.json", tmp_path / "again.json"
        for c in (2.5, -3, np.float64(7.25)):
            camera = replace(tracks.camera, fx=640, cx=c, cy=c)
            save_tracks(path, replace(tracks, camera=camera))
            save_tracks(again, load_tracks(path))
            assert again.read_bytes() == path.read_bytes()
        for bad in (True, "2"):
            for field in ("cx", "cy"):
                with pytest.raises(ValueError, match=f"^camera {field} must be a real number$"):
                    replace(tracks.camera, **{field: bad})

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
        # frame's tracks equal posing that frame alone through the same
        # camera-space map, bit for bit.
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
        rq, rt, jq = params_to_animation(params)
        for i in range(params.frame_count):
            joint_uv, vertex_uv = _render_tracks(
                mesh, s, weights, tracks.vertex_subset, cam, rq[i], rt[i], jq[i]
            )
            assert np.array_equal(tracks.joint_tracks[i], joint_uv)
            assert np.array_equal(tracks.vertex_tracks[i], vertex_uv)

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
        # Infinite noise would fail later as non-finite tracks.
        with pytest.raises(ValueError, match="noise_px must be finite and non-negative"):
            synthesize_tracks(
                mesh, s, weights, wiggle_params(3, 3), front_camera(), noise_px=np.inf
            )
        # A count is refused, not cast: 2.7 would track 2 vertices, True 1.
        for count in (0, 2.7, True, "3"):
            with pytest.raises(ValueError, match="vertex_count"):
                synthesize_tracks(
                    mesh, s, weights, wiggle_params(3, 3), front_camera(),
                    vertex_count=count,
                )
        # Without triangles no vertex is seen, so there is nothing to track.
        bare = Mesh(mesh.vertices, np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="no visible vertices"):
            synthesize_tracks(bare, s, weights, wiggle_params(3, 3), front_camera())


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
        value, dropped, (_, g_rt, g_jq) = _Fit(mesh, s, weights, tracks).evaluate(
            *clip(params), True
        )
        assert value == 0.0
        assert dropped == 0
        assert np.all(g_jq == 0.0)
        assert np.all(g_rt == 0.0)

    def test_positive_off_truth(self):
        mesh, s, weights, params, tracks = self._scene()
        off = AnimParams.identity(params.frame_count, params.joint_count)
        value, _, _ = _Fit(mesh, s, weights, tracks).evaluate(*clip(off), True)
        assert value > 1.0

    def test_with_grad_flag(self):
        mesh, s, weights, params, tracks = self._scene()
        _, _, grads = _Fit(mesh, s, weights, tracks).evaluate(*clip(params), False)
        assert grads is None

    def test_behind_camera_drops_terms(self):
        mesh, s, weights, params, tracks = self._scene(frames=2)
        behind = AnimParams(
            params.root_quats,
            np.array([[0.0, 0.0, 50.0]]),  # past the camera at z=3
            params.joint_quats,
        )
        value, dropped, grads = _Fit(mesh, s, weights, tracks).evaluate(
            *clip(behind), True
        )
        expected = int(np.sum(tracks.joint_visibility)) + int(
            np.sum(tracks.vertex_visibility)
        )
        assert dropped == expected
        assert np.isfinite(value)
        # Every tracked point is behind the camera, so every term is masked
        # out and no gradient reaches the parameters.
        for grad in grads:
            assert np.all(grad == 0.0)

    def test_scene_validation(self):
        mesh, s, weights, params, tracks = self._scene()
        fit = _Fit(mesh, s, weights, tracks)
        with pytest.raises(ValueError, match="joint count"):
            fit.evaluate(*clip(AnimParams.identity(params.frame_count, 5)), True)
        with pytest.raises(ValueError, match="same frames"):
            fit.evaluate(*clip(AnimParams.identity(params.frame_count + 1, 3)), True)
        bad_w = SkinWeights(np.ones((3, 1)))
        with pytest.raises(ValueError, match="weights are"):
            _Fit(mesh, s, bad_w, tracks)
        past = replace(
            tracks,
            vertex_subset=np.append(tracks.vertex_subset[:-1], mesh.vertex_count),
        )
        with pytest.raises(ValueError, match="vertex subset indices"):
            _Fit(mesh, s, weights, past)

    def test_grad_check_passes_where_plain_fd_truncates(self):
        # Instance 18 of seed 1186735208: the gradient is correct, but the
        # plain central difference is 2.1e-4 off from truncation error.
        from rigkit.gradcheck import REL_TOL, _check_tracking_loss

        rng = np.random.default_rng(1186735208)
        errs = [_check_tracking_loss(rng) for _ in range(19)]
        assert max(errs) < REL_TOL


class TestStackedTrackingLoss:
    """A stack of clips through one ``_Fit.evaluate`` gives each clip's loss
    bitwise as the same call gives it alone; no BLAS guarantee keeps a
    row's bits when ``_BlendBasis.apply`` multiplies the whole stack at
    once, so this is pinned per scene."""

    @staticmethod
    def perturbed_rows(rng, params, rows):
        """A stack of perturbed clips, one per clip array; every third pushes
        one frame's root toward and past the camera, so some or all of that
        frame's terms drop out."""
        stack = [a + 0.05 * rng.standard_normal((rows,) + a.shape) for a in clip(params)]
        for r in range(0, rows, 3):
            stack[1][r, rng.integers(params.frame_count - 1), 2] += rng.uniform(1.0, 6.0)
        return stack

    @staticmethod
    def assert_rows_match(fit, stack):
        values, dropped, grads = fit.evaluate(*stack, True)
        assert values.shape == dropped.shape == (len(stack[0]),)
        for r in range(len(stack[0])):
            value, count, want = fit.evaluate(*(a[r] for a in stack), True)
            assert values[r] == value
            assert dropped[r] == count
            for got, alone in zip(grads, want):
                assert np.allclose(got[r], alone, rtol=1e-12, atol=1e-9)
        return int(np.sum(dropped > 0))

    def test_grad_check_scenes(self):
        rows_dropping = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mesh, s, weights, tracks, params = gradcheck._random_scene(rng)
            fit = _Fit(mesh, s, weights, tracks)
            stack = self.perturbed_rows(rng, params, 60)
            rows_dropping += self.assert_rows_match(fit, stack)
        assert rows_dropping >= 20 * 10

    def test_pose_recovery_scene(self):
        from test_acceptance import _recovery_scene

        mesh, s, weights, params, tracks = _recovery_scene(noise_px=1.0)
        fit = _Fit(mesh, s, weights, tracks)
        stack = self.perturbed_rows(np.random.default_rng(10), params, 50)
        rows_dropping = 0
        for lo in range(0, 50, 10):  # (10, 29, 310, 3) posed points per call
            rows_dropping += self.assert_rows_match(fit, [a[lo : lo + 10] for a in stack])
        assert rows_dropping >= 10

    def test_wrong_counts_raise(self):
        mesh, s, weights, tracks, params = gradcheck._random_scene(
            np.random.default_rng(0)
        )
        fit = _Fit(mesh, s, weights, tracks)
        rq, rt, jq = (np.stack([a] * 3) for a in clip(params))
        with pytest.raises(ValueError, match="joint count"):
            fit.evaluate(rq, rt, np.concatenate([jq, jq[..., :1, :]], axis=-2), False)
        with pytest.raises(ValueError, match="same frames"):
            fit.evaluate(rq[:, 1:], rt[:, 1:], jq[:, 1:], False)
        with pytest.raises(ValueError, match="root motion"):
            fit.evaluate(rq[:2], rt, jq, False)
        with pytest.raises(ValueError, match="root motion"):
            fit.evaluate(rq, rt[..., :2], jq, False)


class TestSmoothness:
    def test_stacked_matches_single_clips(self):
        rng = np.random.default_rng(19)
        for frames in range(1, 8):
            for joints in (1, 3, 5):
                rows = 12
                rq = rng.standard_normal((rows, frames - 1, 4))
                rt = rng.standard_normal((rows, frames - 1, 3))
                jq = rng.standard_normal((rows, frames - 1, joints, 4))
                values, grads = _smoothness(rq, rt, jq, True)
                assert values.shape == (rows,)
                for r in range(rows):
                    value, want = _smoothness(rq[r], rt[r], jq[r], True)
                    assert values[r] == value
                    for got, alone in zip(grads, want):
                        assert np.array_equal(got[r], alone)

    def test_stacked_inconsistent_frames_raise(self):
        rq, rt, jq = np.ones((2, 3, 4)), np.zeros((2, 3, 3)), np.ones((2, 4, 2, 4))
        with pytest.raises(ValueError):
            _smoothness(rq, rt, jq, False)

    def test_zero_at_identity(self):
        value, (_, g_rt, g_jq) = _smoothness(*clip(AnimParams.identity(6, 4)), True)
        assert value == 0.0
        assert np.allclose(g_jq, 0.0, atol=1e-12)
        assert np.all(g_rt == 0.0)

    def test_single_pair_value(self):
        # One pair on the root motion (phi) and one on joint 1 (theta), joint
        # 0 at rest: the value sums both, and the root's pair gets the
        # gradient the same pair gets on a joint, so a mis-sliced root column
        # shows in the value or the gradients.
        theta, phi = 0.3, 0.2
        rq = np.array([[np.cos(phi / 2), 0.0, np.sin(phi / 2), 0.0]])
        jq = np.array([[[1.0, 0, 0, 0], [np.cos(theta / 2), np.sin(theta / 2), 0.0, 0.0]]])
        params = AnimParams(rq, np.zeros((1, 3)), jq)
        value, (g_rq, _, g_jq) = _smoothness(*clip(params), True)
        assert value == pytest.approx(theta**2 + phi**2, rel=1e-10)
        on_joint = AnimParams(np.array([[1.0, 0, 0, 0]]), np.zeros((1, 3)), rq[:, None])
        _, (_, _, g_on_joint) = _smoothness(*clip(on_joint), True)
        assert np.array_equal(g_rq, g_on_joint[:, 0])
        assert np.allclose(g_jq[:, 0], 0.0, atol=1e-12)
        assert np.any(g_jq[:, 1] != 0.0)

    def test_translation_weight(self):
        params = AnimParams(
            np.array([[1.0, 0, 0, 0]]),
            np.array([[2.0, 0.0, 0.0]]),
            np.array([[[1.0, 0, 0, 0]]]),
        )
        assert _smoothness(*clip(params), True)[0] == pytest.approx(4.0)

    def test_anchored_to_identity_frame(self):
        # A constant non-identity clip still pays for the step from frame 0.
        theta = 0.5
        q = np.array([np.cos(theta / 2), 0.0, np.sin(theta / 2), 0.0])
        jq = np.tile(q, (3, 1, 1))
        params = AnimParams(
            np.tile([1.0, 0, 0, 0], (3, 1)), np.zeros((3, 3)), jq
        )
        value, _ = _smoothness(*clip(params), False)
        assert value == pytest.approx(theta**2, rel=1e-10)

    def test_single_frame_clip(self):
        value, (_, _, g_jq) = _smoothness(*clip(AnimParams.identity(1, 3)), True)
        assert value == 0.0
        assert g_jq.shape == (0, 3, 4)


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
        fit = _Fit(mesh, s, weights, tracks)
        initial, _, _ = fit.evaluate(*clip(AnimParams.identity(params.frame_count, 3)), False)
        final, _, _ = fit.evaluate(*clip(result.params), False)
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

    def test_single_frame_inputs_validated(self):
        # The one-frame shortcut returns no fit, but the inputs still have
        # to describe one.
        mesh = tube_mesh(length=1.4, rings=6, sides=6)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        tracks = synthesize_tracks(
            mesh, s, weights, AnimParams.identity(1, 3), front_camera(),
            vertex_count=10,
        )
        with pytest.raises(ValueError, match="weights are"):
            optimize(mesh, s, SkinWeights(np.ones((3, 1))), tracks)
        rootless = Skeleton(s.joints, np.array([1, 2, 0]))
        with pytest.raises(ValueError, match="no-root"):
            optimize(mesh, rootless, weights, tracks)
        four = Skeleton(np.vstack([s.joints, [[1.4, 0.0, 0.0]]]), np.array([-1, 0, 1, 2]))
        with pytest.raises(ValueError, match="joint tracks do not match skeleton"):
            optimize(mesh, four, heuristic_skin_weights(mesh, four), tracks)

    def test_skeleton_validated_once_per_fit(self, monkeypatch):
        # The validation work runs once per Skeleton value: its issues are
        # kept with the value, so a second fit of it checks nothing again.
        from rigkit import core

        mesh, scene_s, weights, _, tracks = self._scene()
        calls = []
        issues = core._skeleton_issues
        monkeypatch.setattr(
            core, "_skeleton_issues", lambda *a: calls.append(1) or issues(*a)
        )
        s = Skeleton(scene_s.joints, scene_s.parents)  # not yet validated
        for _ in range(2):
            result = optimize(
                mesh, s, weights, tracks,
                OptimizeConfig(iterations=20, plateau_window=100),
            )
            assert result.iterations == 20
        assert len(calls) == 1

    def test_steps_match_plain_adam_on_copies(self):
        # optimize steps Adam on its three clip arrays in place; plain Adam
        # on one flat vector of the ravelled arrays over the same clip terms,
        # evaluated on copies of the arrays split back out, gives the same
        # trace and fit, bit for bit.
        mesh, s, weights, params, tracks = self._scene(frames=5, noise=0.5)
        config = OptimizeConfig(
            iterations=25, learning_rate=0.02, reg_weight=1e-2, plateau_window=100
        )
        result = optimize(mesh, s, weights, tracks, config)

        fit = _Fit(mesh, s, weights, tracks)
        shapes = [a.shape for a in clip(params)]
        ends = np.cumsum([np.prod(shape) for shape in shapes])[:-1]

        def flatten(*arrays):
            return np.concatenate([a.ravel() for a in arrays])

        def unflatten(x):
            return [a.reshape(shape) for a, shape in zip(np.split(x, ends), shapes)]

        def normalized(x):
            rq, rt, jq = unflatten(x)
            return flatten(quat.normalize(rq), rt, quat.normalize(jq))

        x = flatten(*clip(AnimParams.identity(params.frame_count, params.joint_count)))
        m1 = np.zeros_like(x)
        m2 = np.zeros_like(x)
        trace, best, best_x = [], np.inf, x
        for it in range(config.iterations):
            frames = [a.copy() for a in unflatten(x)]
            track, _, track_grads = fit.evaluate(*frames, True)
            reg, reg_grads = _smoothness(*frames, True)
            value = float(track) + config.reg_weight * float(reg)
            grad = flatten(*track_grads) + config.reg_weight * flatten(*reg_grads)
            if value < best:
                best, best_x = value, x
            trace.append(best)
            m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * grad
            m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * grad * grad
            hat1 = m1 / (1.0 - ADAM_BETA1 ** (it + 1))
            hat2 = m2 / (1.0 - ADAM_BETA2 ** (it + 1))
            x = normalized(x - config.learning_rate * hat1 / (np.sqrt(hat2) + ADAM_EPS))
        assert np.array_equal(result.trace, trace)
        assert np.array_equal(flatten(*clip(result.params)), normalized(best_x))

    def test_dropped_terms_sum_over_evaluations(self):
        # A camera between the joints, looking down +x: the tracked points
        # with x below its plane lie behind it at every step of a small
        # learning rate, and only the masked-in ones are counted.
        mesh = tube_mesh(length=1.4, rings=10, sides=8)
        s = chain3()
        weights = heuristic_skin_weights(mesh, s)
        camera = Camera.look_at(eye=(0.35, 0.02, 0.03), target=(2.0, 0.0, 0.0))
        x = mesh.vertices[:, 0]
        subset = np.flatnonzero((x < 0.2) | (x > 0.5))
        points = np.concatenate([s.joints, mesh.vertices[subset]])
        uv, _, valid = project(camera, points)
        mask = np.random.default_rng(3).random(len(points)) < 0.7
        mask[:2] = [True, False]  # joint 0 behind and masked in, joint 1 out
        frames = 4
        behind = int(np.sum(mask & ~valid))
        assert 0 < behind < np.sum(mask) and np.sum(~mask & ~valid) > 0
        observed = np.tile(uv + 3.0, (frames, 1, 1))
        tracks = TrackSet(
            camera=camera,
            joint_tracks=observed[:, : s.joint_count],
            vertex_tracks=observed[:, s.joint_count :],
            vertex_subset=subset,
            joint_visibility=mask[: s.joint_count],
            vertex_visibility=mask[s.joint_count :],
        )
        config = OptimizeConfig(iterations=20, learning_rate=1e-4, plateau_window=100)
        result = optimize(mesh, s, weights, tracks, config)
        assert result.iterations == 20
        k = behind * (frames - 1)  # terms per evaluation: points x free frames
        assert result.dropped_terms == result.iterations * k

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
                    {"learning_rate": np.nan}, {"learning_rate": np.inf},
                    {"iterations": 2.5}, {"iterations": True},
                    {"plateau_window": -1}, {"plateau_window": 0},
                    {"plateau_window": 1.0}, {"plateau_window": True},
                    {"divergence_warmup": -1}, {"divergence_warmup": 2.0},
                    {"divergence_warmup": False},
                    {"plateau_rtol": np.nan}, {"plateau_rtol": np.inf},
                    {"plateau_rtol": -1e-6},
                    {"divergence_factor": -1.0}, {"divergence_factor": 1.0},
                    {"divergence_factor": np.nan}, {"divergence_factor": np.inf},
                    {"lr_floor": -1.0}, {"lr_floor": np.nan}, {"lr_floor": np.inf}):
            with pytest.raises(ValueError):
                OptimizeConfig(**bad)
        # The edges of each rule are accepted.
        OptimizeConfig(iterations=np.int64(1), plateau_window=1, divergence_warmup=0,
                       plateau_rtol=0.0, divergence_factor=1.5, lr_floor=0.0)
