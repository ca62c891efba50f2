"""OBJ I/O, distance queries, ray casting, cameras."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rigkit.animate import _pinhole_vjp
from rigkit.geometry import _pinhole, crossing_counts, first_hit_distances

from helpers import (
    icosphere,
    scalar_ray_hits,
    star_mesh,
    subdivided_cube,
    unweld,
)


# The OBJ error contract: (text, class, message, line, col).  Errors on the
# lines go first, earliest line first, leftmost token first within a line
# (except that a v line's tokens all parse before its finiteness check);
# "no vertices defined" and "exceeds N vertices" come only after them.
# NonFiniteError names its line in the message and has no line/col.  vn
# records are skipped unread, like vt, so the vn rows raise what follows.
_TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
_BIG = "9" * 25
OBJ_ERRORS = {
    "bad coordinate": (
        "v 0 0 0\nv 1 zap 0\n", ObjParseError,
        "line 2, col 5: bad coordinate 'zap'", 2, 5),
    "bad coordinate before a comment": (
        "v 0 0 0 # a\nv 1\t0  x # b\n", ObjParseError,
        "line 2, col 8: bad coordinate 'x'", 2, 8),
    "bad normal component": (
        _TRI + "vn 0 q 1\nf 1 2 9\n", ObjParseError,
        "line 5, col 1: vertex index 9 exceeds 3 vertices", 5, 1),
    "bad index in a slash token": (
        _TRI + "f 1/2/3 2//2 3x/3\n", ObjParseError,
        "line 4, col 14: bad vertex index '3x/3'", 4, 14),
    "empty first field": (
        _TRI + "f 1 2 /3\n", ObjParseError,
        "line 4, col 7: bad vertex index '/3'", 4, 7),
    "index 0": (
        _TRI + "f 1 0 2\n", ObjParseError,
        "line 4, col 5: vertex index 0 is not allowed", 4, 5),
    "index 0 in a slash token": (
        _TRI + "f 1//1 0//2 2//3\n", ObjParseError,
        "line 4, col 8: vertex index 0 is not allowed", 4, 8),
    "negative index before the first vertex": (
        _TRI + "f -1 -2 -4\n", ObjParseError,
        "line 4, col 9: negative index '-4' reaches before first vertex", 4, 9),
    "negative index counts only the vertices so far": (
        "v 0 0 0\nf -1 -2/1 -1\nv 1 0 0\nv 0 1 0\n", ObjParseError,
        "line 2, col 6: negative index '-2/1' reaches before first vertex", 2, 6),
    "huge negative index": (
        _TRI + f"f 1 2 -{_BIG}\n", ObjParseError,
        f"line 4, col 7: negative index '-{_BIG}' reaches before first vertex", 4, 7),
    "out of range on a polygon": (
        _TRI + "f 1 2 3\nf 1 2 3 7 9\n", ObjParseError,
        "line 5, col 1: vertex index 7 exceeds 3 vertices", 5, 1),
    "huge positive index": (
        _TRI + f"f 1 {_BIG} 2\n", ObjParseError,
        f"line 4, col 1: vertex index {_BIG} exceeds 3 vertices", 4, 1),
    "short vertex": (
        "v 0 0 0\nv 1 2\n", ObjParseError,
        "line 2, col 1: vertex needs 3 coordinates", 2, 1),
    "short normal": (
        "vn 0 1\nv 0 0 0\nv 1 2\n", ObjParseError,
        "line 3, col 1: vertex needs 3 coordinates", 3, 1),
    "short face": (
        _TRI + "f 1 2 # 3\n", ObjParseError,
        "line 4, col 1: face needs at least 3 vertices, got 2", 4, 1),
    "no vertices": ("# nothing\nvt 0 0\n", ObjParseError,
                    "line 1, col 1: no vertices defined", 1, 1),
    "no vertices after faces": ("f 1 2 3\n", ObjParseError,
                                "line 1, col 1: no vertices defined", 1, 1),
    "NaN then a bad token later": (
        "v nan 0 0\nv 1 0 0\nv 0 1 0\nv x 0 0\n", NonFiniteError,
        "line 1: vertex coordinates must be finite", None, None),
    "NaN then a short record later": (
        "v 0 0 0\nv 0 inf 0\nf 1 2\n", NonFiniteError,
        "line 2: vertex coordinates must be finite", None, None),
    "short record then NaN later": (
        "v 0 0\nv nan 0 0\n", ObjParseError,
        "line 1, col 1: vertex needs 3 coordinates", 1, 1),
    "index 0 then a bad token later": (
        _TRI + "# gap\nf 1 2 3\nf 0 1 2\n# gap\nf 1 2 3\nf 1 2 x\n",
        ObjParseError, "line 6, col 3: vertex index 0 is not allowed", 6, 3),
    "bad normal then index 0 later": (
        _TRI + "vn 0 0 one\nf 0 1 2\n", ObjParseError,
        "line 5, col 3: vertex index 0 is not allowed", 5, 3),
    "bad token then a bad normal later": (
        _TRI + "f 1 2 a\nvn 0 0 one\n", ObjParseError,
        "line 4, col 7: bad vertex index 'a'", 4, 7),
    "two defects on one f line": (
        _TRI + "f 1 0 x\n", ObjParseError,
        "line 4, col 5: vertex index 0 is not allowed", 4, 5),
    "two defects on one f line, parse first": (
        _TRI + "f 1 x -9\n", ObjParseError,
        "line 4, col 5: bad vertex index 'x'", 4, 5),
    "two bad coordinates on one line": (
        "v 0 y x\n", ObjParseError, "line 1, col 5: bad coordinate 'y'", 1, 5),
    "NaN left of a bad coordinate": (
        "v nan x 0\n", ObjParseError, "line 1, col 7: bad coordinate 'x'", 1, 7),
    "out of range before a later bad coordinate": (
        _TRI + "f 1 2 9\nv 1 x 0\n", ObjParseError,
        "line 5, col 5: bad coordinate 'x'", 5, 5),
    "out of range before a later short face": (
        _TRI + "f 1 2 9\nf 1 2\n", ObjParseError,
        "line 5, col 1: face needs at least 3 vertices, got 2", 5, 1),
    # A v record's tokens past the third follow the coordinate rule, and an
    # f token's fields after the first are empty or integers, at most three.
    "bad token after the coordinates": (
        "v 0 0 0 zap\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", ObjParseError,
        "line 1, col 9: bad coordinate 'zap'", 1, 9),
    "bad vertex colour": (
        "v 0 0 0\nv 1 0 0 0.5 q 0.5\n", ObjParseError,
        "line 2, col 13: bad coordinate 'q'", 2, 13),
    "NaN after the coordinates": (
        "v 0 0 0 nan\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", NonFiniteError,
        "line 1: vertex coordinates must be finite", None, None),
    "underscore after the coordinates": (
        "v 0 0 0 1_0\n", ObjParseError, "line 1, col 9: bad coordinate '1_0'", 1, 9),
    "bad texture index": (
        _TRI + "f 1/zap 2 3\n", ObjParseError,
        "line 4, col 3: bad texture or normal index '1/zap'", 4, 3),
    "bad normal index": (
        _TRI + "f 1//1 2//2 3//x\n", ObjParseError,
        "line 4, col 13: bad texture or normal index '3//x'", 4, 13),
    "four fields in a face token": (
        _TRI + "f 1 2/1/1/1 3\n", ObjParseError,
        "line 4, col 5: bad texture or normal index '2/1/1/1'", 4, 5),
    "non-ASCII texture index": (
        _TRI + "f 1 2 3/\u0661\n", ObjParseError,
        "line 4, col 7: bad texture or normal index '3/\u0661'", 4, 7),
    "bad index with no vertices": (
        "f 1 2 3\nf 1 2 q\n", ObjParseError,
        "line 2, col 7: bad vertex index 'q'", 2, 7),
    # Python's float and int read these; OBJ numbers have neither.
    "underscore and non-ASCII digits": (
        "v 1_0 0 0\nv \u0661 0 0\nv 0 1 0\nf \u0661 2 3\n", ObjParseError,
        "line 1, col 3: bad coordinate '1_0'", 1, 3),
    "non-ASCII digit in a coordinate": (
        "v 0 0 0 # \u00fc\nv 1 \u0661 0\n", ObjParseError,
        "line 2, col 5: bad coordinate '\u0661'", 2, 5),
    "fullwidth digit in a coordinate": (
        "o part_1\nv 0 0 \uff11\n", ObjParseError,
        "line 2, col 7: bad coordinate '\uff11'", 2, 7),
    "non-ASCII digit index": (
        _TRI + "f \u0661 2 3\n", ObjParseError,
        "line 4, col 3: bad vertex index '\u0661'", 4, 3),
    "underscore index in a slash token": (
        _TRI + "g my_group\nf 1 2_0/1 3\n", ObjParseError,
        "line 5, col 5: bad vertex index '2_0/1'", 5, 5),
}

# Finite floats plus the ones a repr round trip could plausibly lose.
_OBJ_FLOAT = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
     1.7976931348623157e308, 0.1]
)


@st.composite
def obj_meshes(draw):
    n = draw(st.integers(1, 6))
    rows = st.lists(st.tuples(_OBJ_FLOAT, _OBJ_FLOAT, _OBJ_FLOAT), min_size=n, max_size=n)
    corner = st.integers(0, n - 1)
    triangles = draw(st.lists(st.tuples(corner, corner, corner), max_size=6))
    return Mesh(np.array(draw(rows)), np.array(triangles, dtype=np.int64).reshape(-1, 3))


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

    @pytest.mark.parametrize("case", OBJ_ERRORS, ids=list(OBJ_ERRORS))
    def test_error_contract(self, case):
        text, cls, message, line, col = OBJ_ERRORS[case]
        with pytest.raises(ValueError) as e:
            parse_obj(text)
        assert type(e.value) is cls
        assert str(e.value) == message
        assert getattr(e.value, "line", None) == line
        assert getattr(e.value, "col", None) == col

    def test_names_and_non_ascii_comments(self):
        # Underscores and non-ASCII text outside v/f numbers stay accepted.
        text = ("# \u00fc\no my_part\nusemtl m\u00e4t_1\nv 0 0 0 # x_\u00fc\n"
                "v 1 0 0\nvt 0_5 \u0661\nv 0 1 0\nf 1 2 3\n")
        m = parse_obj(text)
        assert m.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert m.triangles.tolist() == [[0, 1, 2]]

    def test_extra_vertex_tokens_and_face_fields(self):
        # w, vertex colours and texture/normal indices are read for their
        # syntax and dropped.
        text = ("v 0 0 0 1\nv 1 0 0 0.5 0.25 1\nv 0 1 0 1 0 0 1\n"
                "f 1/2/3 2//3 3/1\nf 1/ 3/-1/+2 2\n")
        m = parse_obj(text)
        assert m.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        assert m.triangles.tolist() == [[0, 1, 2], [0, 2, 1]]

    def test_face_before_its_vertices(self):
        # Positive indices are checked against every vertex after the pass.
        m = parse_obj("f 1 2/5 3//1\nv 0 0 0\nv 1 0 0\nv 0 1 0\n")
        assert m.triangles.tolist() == [[0, 1, 2]]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(mesh=obj_meshes())
    def test_write_parse_round_trip_property(self, mesh):
        rows = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
        rows += [f"f {a} {b} {c}" for a, b, c in (mesh.triangles + 1).tolist()]
        text = write_obj(mesh)
        assert text == "\n".join(rows) + "\n"
        back = parse_obj(text)
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert back.triangles.tolist() == mesh.triangles.tolist()

    def test_write_round_trip(self, tmp_path):
        m = star_mesh(np.random.default_rng(0))
        path = tmp_path / "m.obj"
        save_obj(path, m)
        back = load_obj(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)
        # Round-trip precision implies byte-identical rewrite.
        assert write_obj(back) == write_obj(m)

    def test_write_refuses_mesh_without_vertices(self, tmp_path):
        # parse_obj refuses an OBJ without vertices, so none is written.
        empty = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        path = tmp_path / "empty.obj"
        with pytest.raises(ValueError, match="no vertices"):
            save_obj(path, empty)
        assert not path.exists()


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
            # Non-finite rays are rejected before the zero-length check.
            for origin, bad in ((0, [np.nan, 0.0, 1.0]), (0, [np.inf, 0.0, 1.0]),
                                (np.nan, [0.0, 0.0, 1.0])):
                dirs = np.concatenate([np.ones((20, 3)), [bad]])
                with pytest.raises(NonFiniteError):
                    query(m, np.array([origin, 0.0, 3.0]), dirs)
        # A NaN limit would count no crossing at all; inf is allowed.
        with pytest.raises(NonFiniteError):
            crossing_counts(m, np.array([0.0, 0.0, 3.0]), -np.ones((1, 3)), np.nan)


def _all_pairs(m, origin, dirs):
    """(nearest hit t, distinct-t count up to inf) of every ray, testing
    every ray against every triangle."""
    t = geometry._hit_t(geometry._hit_terms(m, np.asarray(origin, dtype=np.float64)),
                        np.asarray(dirs, dtype=np.float64))
    first = np.min(t, axis=1, initial=np.inf)
    t.sort(axis=1)
    t[~np.isfinite(t)] = np.nan
    close = np.diff(t, axis=1) < geometry.RAY_MERGE_EPS
    return first, np.count_nonzero(np.isfinite(t), axis=1) - np.count_nonzero(close, axis=1)


def _assert_all_pairs(m, origin, dirs, binned=True):
    """Both reductions equal the all-pairs reference bitwise; ``binned``
    says whether the query must spread its rays over more than one cell."""
    want_first, want_count = _all_pairs(m, origin, dirs)
    assert np.array_equal(first_hit_distances(m, origin, dirs), want_first)
    count = crossing_counts(m, origin, dirs, np.inf)
    assert count.dtype == np.int64
    assert np.array_equal(count, want_count)
    d = np.asarray(dirs, dtype=np.float64)
    unit = d / np.linalg.norm(d, axis=1)[:, None]
    terms = geometry._hit_terms(m, np.asarray(origin, dtype=np.float64))
    grid = geometry._grid(m, np.asarray(origin, dtype=np.float64), unit, terms[3])
    cells = 0 if grid is None else np.count_nonzero(np.diff(grid[1]))
    assert (cells > 1) == binned


def _soup(rng, count, spread=1.0, size=0.3):
    """Random triangles: centres in a cube of half-width spread."""
    centres = rng.uniform(-spread, spread, (count, 1, 3))
    verts = (centres + rng.normal(0.0, size, (count, 3, 3))).reshape(-1, 3)
    return Mesh(verts, np.arange(3 * count).reshape(-1, 3))


class TestBinnedEngine:
    """The binned engine against every ray x triangle pair, bitwise."""

    def test_aimed_rays(self):
        # Rays through vertices and edge midpoints thread shared edges and
        # fans, on welded star meshes and on triangle soups, whose every
        # edge is a seam.
        meshes = [star_mesh(np.random.default_rng(500 + k)) for k in range(3)]
        meshes += [unweld(star_mesh(np.random.default_rng(500))), unweld(icosphere(3))]
        meshes.append(star_mesh(np.random.default_rng(503), subdivisions=3))
        for m in meshes:
            for origin in (np.array([0.1, 0.12, 3.0]), np.array([-2.0, 0.7, -1.1])):
                _assert_all_pairs(m, origin, _aimed_rays(m, origin))

    def test_origin_inside(self):
        # At the centre the mean direction nearly cancels and every pair
        # is tested; off-centre, the rays span more than a hemisphere and
        # the triangles behind the origin are tested against every ray.
        m = star_mesh(np.random.default_rng(510), subdivisions=3)
        _assert_all_pairs(m, np.zeros(3), m.vertices, binned=False)
        for origin in (np.array([0.3, -0.2, 0.25]), np.array([0.0, 0.0, 0.6])):
            assert point_inside_mesh(m, origin)
            _assert_all_pairs(m, origin, _aimed_rays(m, origin))

    def test_single_and_identical_rays(self):
        m = star_mesh(np.random.default_rng(511))
        origin = np.array([0.1, 0.12, 3.0])
        aimed = _aimed_rays(m, origin)
        _assert_all_pairs(m, origin, aimed[:1], binned=False)
        _assert_all_pairs(m, origin, np.repeat(aimed[:1], 16, axis=0), binned=False)
        # 300 copies of one ray: a zero-span grid, one cell.
        for d in (aimed[0], aimed[-1], -origin):
            _assert_all_pairs(m, origin, np.repeat(d[None], 300, axis=0), binned=False)
        # Two bundles of identical rays: zero span along one axis.
        two = np.repeat(aimed[[0, 7]], 200, axis=0)
        _assert_all_pairs(m, origin, two)

    def test_rays_beyond_a_hemisphere(self):
        # Random directions biased toward the mesh: most rays are binned,
        # the rest point back past the plane through the origin.
        m = star_mesh(np.random.default_rng(512), subdivisions=3)
        origin = np.array([0.2, -0.1, 2.2])
        rng = np.random.default_rng(513)
        dirs = rng.standard_normal((800, 3)) - 0.8 * origin / np.linalg.norm(origin)
        assert np.any(dirs @ origin > 0) and np.any(dirs @ origin < 0)
        _assert_all_pairs(m, origin, dirs)

    def test_triangles_straddling_the_origin_plane(self):
        # Big triangles around the origin reach behind it; rays aim at the
        # sphere in front and at the big triangles' corners and edges.
        rng = np.random.default_rng(514)
        sphere = icosphere(3, radius=0.8)
        big = _soup(rng, 40, spread=1.5, size=1.2)
        origin = np.array([0.3, 0.2, 1.4])
        m = Mesh(
            np.concatenate([sphere.vertices, big.vertices + origin]),
            np.concatenate([sphere.triangles, big.triangles + sphere.vertex_count]),
        )
        depth = (m.vertices[m.triangles] - origin) @ (-origin / np.linalg.norm(origin))
        assert np.any((depth.min(axis=1) < 0) & (depth.max(axis=1) > 0))
        dirs = np.concatenate([_aimed_rays(sphere, origin), _aimed_rays(big, np.zeros(3))])
        _assert_all_pairs(m, origin, dirs)

    def test_degenerate_triangles(self):
        # Zero-area triangles (a repeated corner, collinear corners) among
        # real ones; rays aim at their corners.
        base = star_mesh(np.random.default_rng(515))
        v = base.vertices
        extra = np.array([[0, 0, 1], [2, 3, 2], [4, 4, 4]]) + base.vertex_count
        line = np.array([[0.0, 0.0, 0.9], [0.1, 0.1, 0.9], [0.2, 0.2, 0.9]])
        m = Mesh(
            np.concatenate([v, v[[0, 5]], line, v[[9]]]),
            np.concatenate([base.triangles, [[0, 0, 5]], extra]),
        )
        origin = np.array([0.1, 0.12, 3.0])
        dirs = np.concatenate([_aimed_rays(m, origin), line - origin])
        _assert_all_pairs(m, origin, dirs)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["soup", "sphere"]),
        st.sampled_from(["outside", "inside", "near"]),
        st.integers(17, 400),
        st.floats(0.0, 3.0),
    )
    def test_random_meshes(self, seed, kind, where, rays, bias):
        rng = np.random.default_rng(seed)
        if kind == "soup":
            m = _soup(rng, int(rng.integers(1, 120)))
        else:
            base = icosphere(int(rng.integers(0, 3)))
            m = Mesh(base.vertices + rng.normal(0.0, 0.03, base.vertices.shape),
                     base.triangles)
        if where == "inside":
            origin = rng.uniform(-0.3, 0.3, 3)
        else:
            direction = rng.standard_normal(3)
            distance = 3.0 if where == "outside" else 1.05
            origin = distance * direction / np.linalg.norm(direction)
        aimed = _aimed_rays(m, origin)
        aimed = aimed[np.linalg.norm(aimed, axis=1) > 0]
        toward = -origin / max(np.linalg.norm(origin), 1e-9)
        dirs = np.concatenate([
            aimed[rng.choice(len(aimed), size=min(rays, len(aimed)), replace=False)],
            rng.standard_normal((rays, 3)) + bias * toward,
        ])
        want_first, want_count = _all_pairs(m, origin, dirs)
        assert np.array_equal(first_hit_distances(m, origin, dirs), want_first)
        assert np.array_equal(crossing_counts(m, origin, dirs, np.inf), want_count)


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

    def test_look_at_focal_lengths_are_never_cast(self):
        # look_at hands fx and fy to Camera as given: a string is not
        # parsed, a bool is not read as 1 and a 0-d array is not unwrapped.
        view = {"eye": (0.0, 0.0, 2.0), "target": (0.0, 0.0, 0.0)}
        for name in ("fx", "fy"):
            for bad in ("800", True, np.array(800.0)):
                with pytest.raises(ValueError, match=f"^camera {name} must be a real number$"):
                    Camera.look_at(**view, **{name: bad})
        cam = Camera.look_at(**view, fx=np.float64(640.0), fy=320)
        assert (cam.fx, cam.fy) == (640.0, 320.0)
        assert {type(cam.fx), type(cam.fy)} == {float}

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

    def test_image_size_is_an_int_never_cast(self):
        # look_at checks the size before it halves it for the principal point.
        view = {"eye": (1.0, 2.0, 3.0), "target": (0.0, 0.0, 0.0)}
        good = Camera.look_at(**view).to_dict()
        sized = Camera.from_dict(
            {**good, "width": np.int64(640), "height": np.int32(480)})
        assert (type(sized.width), type(sized.height)) == (int, int)
        assert Camera.from_dict(sized.to_dict()).to_dict() == sized.to_dict()
        for bad in (512.9, 512.0, "512", True, np.bool_(True), [512], [], None):
            for name in ("width", "height"):
                with pytest.raises(ValueError):
                    Camera.from_dict({**good, name: bad})
                with pytest.raises(ValueError, match=f"^camera {name} must be an integer$"):
                    Camera.look_at(**view, **{name: bad})

    def test_image_size_below_one_is_refused(self):
        good = Camera.look_at(eye=(1.0, 2.0, 3.0), target=(0.0, 0.0, 0.0)).to_dict()
        view = {"eye": (0.0, 0.0, 3.0), "target": (0.0, 0.0, 0.0)}
        for bad in (0, -5):
            for name in ("width", "height"):
                with pytest.raises(InvalidValueError):
                    Camera.from_dict({**good, name: bad})
                with pytest.raises(InvalidValueError):
                    Camera.look_at(**view, **{name: bad})
        assert Camera.from_dict({**good, "width": 1, "height": 1}).width == 1

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

    def test_pinhole_vjp_matches_fd(self):
        # project is world_to_camera then the pinhole, so its gradient wrt
        # world points is the pinhole's VJP pulled back through R.
        rng = np.random.default_rng(8)
        cam = Camera.look_at(eye=(0.3, -0.2, 2.0), target=(0.0, 0.1, 0.0))
        pts = rng.uniform(-0.5, 0.5, (6, 3))
        g = rng.standard_normal((6, 2))

        def camera_vjp(points, grad_uv):
            x, y, z = np.moveaxis(cam.world_to_camera(points), -1, 0)
            _, _, valid, safe_z = _pinhole(cam, x, y, z)
            assert np.all(valid)
            d_cam = _pinhole_vjp(cam, x, y, safe_z, grad_uv[..., 0], grad_uv[..., 1])
            return np.stack(d_cam, axis=-1)

        d_cam = camera_vjp(pts, g)
        analytic = d_cam @ cam.rotation
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
        # Leading axes: (2, 3) points give the flat call's gradients bitwise.
        stacked = camera_vjp(pts.reshape(2, 3, 3), g.reshape(2, 3, 2))
        assert np.array_equal(stacked, d_cam.reshape(2, 3, 3))
