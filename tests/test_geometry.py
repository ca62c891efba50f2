"""OBJ I/O, distance queries, ray casting, cameras."""

import numpy as np
import pytest

from rigkit import (
    Camera,
    InvalidValueError,
    Mesh,
    NonFiniteError,
    ObjParseError,
    load_obj,
    parse_obj,
    point_inside_mesh,
    point_segment_distance,
    project,
    save_obj,
    write_obj,
)
from rigkit import geometry
from rigkit.geometry import crossing_counts, first_hit_distances, project_vjp

from helpers import (
    icosphere,
    scalar_ray_hits,
    star_mesh,
    subdivided_cube,
    unweld,
)


class TestObjParse:
    def test_basic(self):
        m = parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert m.vertex_count == 3
        assert m.triangles.tolist() == [[0, 1, 2]]

    def test_comments_and_blanks(self):
        text = "# header\n\nv 0 0 0  # trailing\nv 1 0 0\nv 0 1 0\n\nf 1 2 3\n"
        assert parse_obj(text).triangle_count == 1

    def test_fan_triangulation(self):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        m = parse_obj(text)
        assert m.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
        penta = "v 0 0 0\nv 1 0 0\nv 2 1 0\nv 1 2 0\nv 0 1 0\nf 1 2 3 4 5\n"
        assert parse_obj(penta).triangle_count == 3

    def test_negative_indices(self):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
        assert parse_obj(text).triangles.tolist() == [[0, 1, 2]]

    def test_slash_fields(self):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
        assert parse_obj(text).triangles.tolist() == [[0, 1, 2]]

    def test_normals_kept_when_aligned(self):
        text = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vn 0 0 1\nvn 0 0 1\nvn 0 0 1\nf 1 2 3\n"
        )
        m = parse_obj(text)
        assert m.normals is not None
        text_mismatch = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1 2 3\n"
        assert parse_obj(text_mismatch).normals is None

    def test_bad_coordinate_location(self):
        with pytest.raises(ObjParseError) as e:
            parse_obj("v 0 0 0\nv 1 zap 0\n")
        assert e.value.line == 2
        assert e.value.col == 5

    def test_index_zero_rejected(self):
        with pytest.raises(ObjParseError):
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")

    def test_out_of_range_index(self):
        with pytest.raises(ObjParseError) as e:
            parse_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        assert e.value.line == 4

    def test_face_too_short(self):
        with pytest.raises(ObjParseError):
            parse_obj("v 0 0 0\nv 1 0 0\nf 1 2\n")

    def test_no_vertices(self):
        with pytest.raises(ObjParseError):
            parse_obj("# nothing\n")

    def test_write_round_trip(self, tmp_path):
        m = star_mesh(np.random.default_rng(0))
        path = tmp_path / "m.obj"
        save_obj(path, m)
        back = load_obj(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)
        # Round-trip precision implies byte-identical rewrite.
        assert write_obj(back) == write_obj(m)


class TestSegmentDistance:
    def test_hand_cases(self):
        starts = np.array([[0.0, 0, 0]])
        ends = np.array([[1.0, 0, 0]])
        pts = np.array([
            [0.5, 1.0, 0.0],   # above the middle
            [2.0, 0.0, 0.0],   # beyond the far end
            [-3.0, 4.0, 0.0],  # beyond the near end
        ])
        d = point_segment_distance(pts, starts, ends)
        assert d[:, 0] == pytest.approx([1.0, 1.0, 5.0])

    def test_zero_length_segment(self):
        d = point_segment_distance(
            np.array([[3.0, 4.0, 0.0]]),
            np.array([[0.0, 0, 0]]),
            np.array([[0.0, 0, 0]]),
        )
        assert d[0, 0] == pytest.approx(5.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((20, 3))
        starts = rng.standard_normal((7, 3))
        ends = rng.standard_normal((7, 3))
        d = point_segment_distance(pts, starts, ends)
        for i in range(20):
            for j in range(7):
                seg = ends[j] - starts[j]
                t = float(np.dot(pts[i] - starts[j], seg) / np.dot(seg, seg))
                t = min(max(t, 0.0), 1.0)
                want = np.linalg.norm(pts[i] - (starts[j] + t * seg))
                assert d[i, j] == pytest.approx(want, abs=1e-12)


def _one_ray(m, origin, direction):
    """(crossings up to inf, first hit t) of a single ray."""
    d = np.asarray(direction, dtype=np.float64)[None, :]
    return (
        int(crossing_counts(m, origin, d, np.inf)[0]),
        float(first_hit_distances(m, origin, d)[0]),
    )


def _aimed_rays(m, origin):
    """Rays from origin at every vertex and every edge midpoint of m."""
    edges = np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                            m.triangles[:, [2, 0]]])
    mids = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
    targets = np.concatenate([m.vertices, mids])
    return targets - origin


_TRIANGLE = Mesh(
    np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]])
)


class TestRayCasting:
    def test_single_triangle(self):
        assert _one_ray(_TRIANGLE, np.array([0.2, 0.2, -1.0]), [0.0, 0, 1.0]) == (1, 1.0)

    def test_t_in_direction_units(self):
        origin = np.array([0.2, 0.2, -1.0])
        assert _one_ray(_TRIANGLE, origin, [0.0, 0, 2.0]) == (1, 0.5)
        # The count limit is in direction units too: the hit sits at t = 0.5.
        d = np.array([[0.0, 0, 2.0]])
        assert crossing_counts(_TRIANGLE, origin, d, 0.5).tolist() == [1]
        assert crossing_counts(_TRIANGLE, origin, d, 0.4999).tolist() == [0]

    def test_miss(self):
        assert _one_ray(_TRIANGLE, np.array([5.0, 5.0, -1.0]), [0.0, 0, 1.0]) == (0, np.inf)

    def test_shared_edge_counts_once(self):
        # Quad split into two triangles; the ray passes through the diagonal,
        # welded or with the diagonal's vertices duplicated.
        corners = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
        welded = Mesh(corners, np.array([[0, 1, 2], [0, 2, 3]]))
        split = Mesh(
            np.vstack([corners, corners[[0, 2]]]), np.array([[0, 1, 2], [4, 5, 3]])
        )
        for m in (welded, split):
            assert _one_ray(m, np.array([0.5, 0.5, -1.0]), [0.0, 0, 1.0]) == (1, 1.0)

    def test_shared_vertex_fan_counts_once(self):
        # Icosphere apex: the ray hits the exact shared vertex of a fan.
        m = icosphere(0)
        apex = m.vertices[np.argmax(m.vertices[:, 1])]
        origin = apex + np.array([0.0, 2.0, 0.0])
        count, first = _one_ray(m, origin, [0.0, -1.0, 0.0])
        # One hit at the apex and one leaving through the bottom.
        assert count == 2
        assert first == pytest.approx(2.0, abs=1e-12)

    def test_closed_mesh_parity(self):
        m = star_mesh(np.random.default_rng(5))
        rng = np.random.default_rng(6)
        directions = []
        for _ in range(40):
            direction = rng.standard_normal(3)
            directions.append(direction)
            outside = 5.0 * direction / np.linalg.norm(direction)
            count, _ = _one_ray(m, outside, rng.standard_normal(3))
            assert count % 2 == 0
        # Origin inside: odd crossings on every ray, counted in one call.
        counts = crossing_counts(m, np.zeros(3), np.array(directions), np.inf)
        assert np.all(counts % 2 == 1)

    def test_t_max_limits_count(self):
        # Three parallel triangles at z = 1, 2, 3 and a ray up the z axis;
        # t_max = inf counts every hit but never the misses after them.
        tri = _TRIANGLE.vertices
        m = Mesh(
            np.concatenate([tri + [0.0, 0.0, z] for z in (1.0, 2.0, 3.0)]),
            np.arange(9).reshape(3, 3),
        )
        dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        origin = np.array([0.2, 0.2, 0.0])
        for t_max, want in ((0.5, 0), (1.0, 1), (2.5, 2), (3.0, 3), (np.inf, 3)):
            got = crossing_counts(m, origin, dirs, t_max)
            assert got.tolist() == [want, 0], t_max
            assert got.dtype == np.int64
        assert crossing_counts(m, origin, np.zeros((0, 3)), np.inf).dtype == np.int64

    def test_matches_scalar_oracle(self):
        # Random rays plus a sample of rays aimed at vertices and edge
        # midpoints (the oracle costs tens of ms per ray).
        rng = np.random.default_rng(7)
        meshes = [star_mesh(np.random.default_rng(100 + seed)) for seed in range(4)]
        meshes.append(unweld(star_mesh(np.random.default_rng(104))))
        for m in meshes:
            origin = rng.uniform(-2, 2, 3)
            aimed = _aimed_rays(m, origin)
            aimed = aimed[rng.choice(len(aimed), size=15, replace=False)]
            dirs = np.concatenate([rng.standard_normal((15, 3)), aimed])
            counts = crossing_counts(m, origin, dirs, np.inf)
            first = first_hit_distances(m, origin, dirs)
            for d, count, t in zip(dirs, counts, first):
                oracle = scalar_ray_hits(m, origin, d)
                assert count == len(oracle)
                want = oracle[0][0] if oracle else np.inf
                assert t == pytest.approx(want, abs=1e-7)

    def test_rejects_zero_direction(self):
        m = icosphere(0)
        with pytest.raises(ValueError):
            crossing_counts(m, np.zeros(3), np.zeros((1, 3)), np.inf)
        with pytest.raises(ValueError):
            first_hit_distances(m, np.zeros(3), np.zeros((1, 3)))


class TestFirstHit:
    def _cases(self):
        rng = np.random.default_rng(11)
        meshes = [star_mesh(np.random.default_rng(300 + k)) for k in range(3)]
        meshes.append(subdivided_cube(3))
        for m in meshes:
            for origin in (np.zeros(3), np.array([0.1, 0.12, 3.0]),
                           rng.uniform(-0.3, 0.3, 3)):
                dirs = np.concatenate(
                    [_aimed_rays(m, origin), rng.standard_normal((40, 3))]
                )
                yield m, origin, dirs

    def test_equals_first_scalar_hit(self):
        # Bitwise: the nearest hit of a ray is its first crossing.  A miss
        # has no crossing at all, and on a sample of hit rays, counted one
        # ray at a time, exactly one crossing lies at t <= first hit and
        # none below it.  Rays aimed exactly at vertices and edge midpoints
        # thread shared edges and fans.
        rng = np.random.default_rng(12)
        for m, origin, dirs in self._cases():
            got = first_hit_distances(m, origin, dirs)
            hit = np.isfinite(got)
            assert np.array_equal(hit, crossing_counts(m, origin, dirs, np.inf) > 0)
            sample = rng.choice(np.flatnonzero(hit), size=60, replace=False)
            for d, t in zip(dirs[sample], got[sample]):
                assert crossing_counts(m, origin, d[None], t).tolist() == [1]
                below = np.nextafter(t, 0.0)
                assert crossing_counts(m, origin, d[None], below).tolist() == [0]

    def test_miss_is_inf(self):
        m = icosphere(1)
        origin = np.array([0.0, 0.0, 3.0])
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        got = first_hit_distances(m, origin, dirs)
        assert crossing_counts(m, origin, dirs, np.inf).tolist() == [0, 0, 2]
        assert got[:2].tolist() == [np.inf, np.inf]
        assert got[2] == pytest.approx(2.0, abs=0.05)
        empty = Mesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
        assert first_hit_distances(empty, origin, dirs).tolist() == [np.inf] * 3
        assert crossing_counts(empty, origin, dirs, np.inf).tolist() == [0] * 3
        assert first_hit_distances(m, origin, np.zeros((0, 3))).shape == (0,)

    def test_independent_of_chunk_split(self, monkeypatch):
        # Both reductions: nearest hit, and crossing counts with a finite
        # and an infinite limit.
        m = star_mesh(np.random.default_rng(17))
        origin = np.array([0.1, 0.12, 3.0])
        dirs = _aimed_rays(m, origin)[:60]
        queries = (
            first_hit_distances,
            lambda m, o, d: crossing_counts(m, o, d, 1.0),
            lambda m, o, d: crossing_counts(m, o, d, np.inf),
        )
        for query in queries:
            whole = query(m, origin, dirs)
            for rays_per_chunk in range(1, dirs.shape[0] + 1):
                monkeypatch.setattr(
                    geometry, "_CHUNK_PAIRS", rays_per_chunk * m.triangle_count
                )
                got = query(m, origin, dirs)
                assert np.array_equal(got, whole), rays_per_chunk
            monkeypatch.undo()
            rng = np.random.default_rng(4)
            for _ in range(10):
                cuts = np.sort(rng.choice(np.arange(1, 60), size=4, replace=False))
                parts = [query(m, origin, d) for d in np.split(dirs, cuts)]
                assert np.array_equal(np.concatenate(parts), whole)

    def test_rejects_bad_rays(self):
        m = icosphere(0)
        for query in (first_hit_distances,
                      lambda m, o, d: crossing_counts(m, o, d, np.inf)):
            with pytest.raises(ValueError):
                query(m, np.zeros(3), np.zeros((2, 3)))
            with pytest.raises(ValueError):
                query(m, np.zeros(3), np.ones(3))
            with pytest.raises(ValueError):
                query(m, np.zeros(2), np.ones((1, 3)))


class TestContainment:
    def test_sphere(self):
        m = icosphere(2)
        assert point_inside_mesh(m, np.zeros(3))
        assert point_inside_mesh(m, np.array([0.5, 0.2, -0.3]))
        assert not point_inside_mesh(m, np.array([2.0, 0.0, 0.0]))

    def test_cube(self):
        m = subdivided_cube(3)
        assert point_inside_mesh(m, np.array([0.9, -0.9, 0.9]))
        assert not point_inside_mesh(m, np.array([1.1, 0.0, 0.0]))

    def test_random_points_sphere(self):
        # The faceted icosphere-2 lies between radii 0.98 and 1; keep clear
        # of that shell, where the analytic sphere and the mesh disagree.
        m = icosphere(2)
        rng = np.random.default_rng(21)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.concatenate([rng.uniform(0.0, 0.9, 100), rng.uniform(1.05, 3.0, 100)])
        for p, r in zip(dirs * radii[:, None], radii):
            assert point_inside_mesh(m, p) == (r < 1.0)

    def test_random_points_cube(self):
        m = subdivided_cube(3)
        rng = np.random.default_rng(22)
        pts = rng.uniform(-2.0, 2.0, (400, 3))
        box = np.max(np.abs(pts), axis=1)
        pts, box = pts[np.abs(box - 1.0) > 0.01], box[np.abs(box - 1.0) > 0.01]
        for p, b in zip(pts, box):
            assert point_inside_mesh(m, p) == (b < 1.0)

    def test_no_probe_direction_to_graze(self):
        # Outside points whose ray along the former fixed probe direction
        # only touches the cube at a corner vertex: one merged hit there
        # made crossing parity call them inside.
        probe = np.array([0.5773502691896258, 0.5773502691896257, 0.5773502691896256])
        m = subdivided_cube(3)
        for corner in ([1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0]):
            for lam in (0.25, 0.5, 1.0):
                p = np.array(corner) - lam * probe
                assert not point_inside_mesh(m, p)
        assert point_inside_mesh(m, np.array([1.0, 1.0, 1.0]) - 0.5 * probe)

    def test_either_orientation(self):
        m = icosphere(2)
        flipped = Mesh(m.vertices, m.triangles[:, ::-1])
        assert point_inside_mesh(flipped, np.array([0.1, 0.2, 0.3]))
        assert not point_inside_mesh(flipped, np.array([1.5, 0.0, 0.0]))


class TestCamera:
    def test_rejects_non_finite_and_bad_focal(self):
        good = Camera.look_at(eye=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0)).to_dict()
        rotation = np.array(good["rotation"])
        rotation[1, 2] = np.nan
        translation = np.array(good["translation"])
        translation[0] = np.inf
        for bad in (
            {"rotation": rotation.tolist()},
            {"translation": translation.tolist()},
            {"cx": np.nan},
            {"fy": np.inf},
        ):
            with pytest.raises(NonFiniteError):
                Camera.from_dict({**good, **bad})
        for bad in ({"fx": -5.0}, {"fy": 0.0}):
            with pytest.raises(InvalidValueError):
                Camera.from_dict({**good, **bad})
        view = {"eye": (0.0, 0.0, 2.0), "target": (0.0, 0.0, 0.0)}
        for bad in (
            {"eye": (np.nan, 0.0, 2.0)},
            {"target": (0.0, np.inf, 0.0)},
            {"up": (0.0, np.nan, 0.0)},
        ):
            with pytest.raises(NonFiniteError):
                Camera.look_at(**{**view, **bad})

    def test_look_at_target_hits_center(self):
        cam = Camera.look_at(eye=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0))
        uv, depth, valid = project(cam, np.zeros(3))
        assert valid
        assert uv[0] == pytest.approx(cam.cx)
        assert uv[1] == pytest.approx(cam.cy)
        assert depth == pytest.approx(2.0)

    def test_image_y_is_down(self):
        cam = Camera.look_at(eye=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0))
        up_world, _, _ = project(cam, np.array([0.0, 0.5, 0.0]))
        down_world, _, _ = project(cam, np.array([0.0, -0.5, 0.0]))
        assert up_world[1] < cam.cy < down_world[1]

    def test_right_is_positive_u(self):
        cam = Camera.look_at(eye=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0))
        uv, _, _ = project(cam, np.array([0.5, 0.0, 0.0]))
        assert uv[0] > cam.cx

    def test_behind_camera_flagged(self):
        cam = Camera.look_at(eye=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0))
        uv, depth, valid = project(cam, np.array([0.0, 0.0, 5.0]))
        assert not valid
        assert np.all(uv == 0.0)
        assert np.all(np.isfinite(uv))
        # Leading axes: (frames, n, 3) equals the flat call bitwise.
        pts = np.random.default_rng(4).uniform(-0.5, 0.5, (5, 7, 3))
        pts[1, 2] = pts[3, :3] = [0.0, 0.0, 5.0]
        uv, depth, valid = project(cam, pts)
        flat_uv, flat_depth, flat_valid = project(cam, pts.reshape(-1, 3))
        assert valid.sum() == 5 * 7 - 4
        assert np.array_equal(uv, flat_uv.reshape(5, 7, 2))
        assert np.array_equal(depth, flat_depth.reshape(5, 7))
        assert np.array_equal(valid, flat_valid.reshape(5, 7))

    def test_center_round_trip(self):
        cam = Camera.look_at(eye=(1.0, 2.0, 3.0), target=(0.0, 0.0, 0.0))
        assert cam.center == pytest.approx([1.0, 2.0, 3.0])

    def test_dict_round_trip(self):
        cam = Camera.look_at(eye=(1.0, 2.0, 3.0), target=(0.5, 0.0, 0.0), fx=640.0)
        back = Camera.from_dict(cam.to_dict())
        assert np.array_equal(back.rotation, cam.rotation)
        assert np.array_equal(back.translation, cam.translation)
        assert (back.fx, back.fy, back.cx, back.cy) == (cam.fx, cam.fy, cam.cx, cam.cy)
        assert (back.width, back.height) == (cam.width, cam.height)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Camera(
                fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2,
                rotation=np.eye(3) * 2.0, translation=np.zeros(3),
            )

    def test_look_at_degenerate(self):
        with pytest.raises(ValueError):
            Camera.look_at(eye=(0, 0, 0), target=(0, 0, 0))
        with pytest.raises(ValueError):
            Camera.look_at(eye=(0, 0, 1), target=(0, 0, 0), up=(0, 0, 1))

    def test_project_vjp_matches_fd(self):
        rng = np.random.default_rng(8)
        cam = Camera.look_at(eye=(0.3, -0.2, 2.0), target=(0.0, 0.1, 0.0))
        pts = rng.uniform(-0.5, 0.5, (6, 3))
        g = rng.standard_normal((6, 2))
        analytic = project_vjp(cam, pts, g)
        step = 1e-6
        fd = np.zeros_like(pts)
        for i in range(pts.shape[0]):
            for a in range(3):
                hi = pts.copy()
                hi[i, a] += step
                lo = pts.copy()
                lo[i, a] -= step
                f_hi = float(np.sum(project(cam, hi)[0] * g))
                f_lo = float(np.sum(project(cam, lo)[0] * g))
                fd[i, a] = (f_hi - f_lo) / (2 * step)
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_vjp_zero_for_invalid(self):
        cam = Camera.look_at(eye=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0))
        g = np.ones((1, 2))
        assert np.all(project_vjp(cam, np.array([[0.0, 0.0, 9.0]]), g) == 0.0)
        # Leading axes: (frames, n, 3) equals the flat call bitwise.
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, (5, 7, 3))
        pts[1, 2] = pts[3, :3] = [0.0, 0.0, 9.0]
        g = rng.standard_normal((5, 7, 2))
        grad = project_vjp(cam, pts, g)
        flat = project_vjp(cam, pts.reshape(-1, 3), g.reshape(-1, 2))
        assert np.array_equal(grad, flat.reshape(5, 7, 3))
        assert np.all(grad[1, 2] == 0.0) and np.all(grad[3, :3] == 0.0)
        assert np.all(grad[0] != 0.0)
