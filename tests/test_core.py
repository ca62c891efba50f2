"""Data model, structure validation, joint orders, and rig JSON."""

import ast
import importlib
import inspect
import json
import types
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigkit
from rigkit import (
    MAX_JOINTS,
    NO_INDICATOR,
    ROOT_PARENT,
    AnimParams,
    Camera,
    InvalidSkeletonError,
    InvalidValueError,
    Mesh,
    NonFiniteError,
    OptimizeConfig,
    Rig,
    Skeleton,
    SkinWeights,
    TokenSequence,
    TrackSet,
    bone_segments,
    canonical_json,
    deformation_error,
    gradcheck,
    graph_distance_matrix,
    heuristic_skin_weights,
    hierarchical_order,
    joint_depths,
    load_rig,
    metrics_report,
    permutation_probability,
    randomize_groups,
    sample_augmented_pose,
    save_rig,
    skinning_precision_recall,
    spatial_order,
    synthesize_tracks,
    tokenize_joint_based,
    validate_skeleton,
)
from rigkit.animate import track_set_to_dict
from rigkit.core import require_valid, rig_to_dict
from rigkit.deform import animation_to_dict

from helpers import (
    bfs_graph_distances,
    icosphere,
    permute_joints,
    random_chain,
    random_tree,
    walk_validation_report,
)


def chain(*points):
    pts = np.array(points, dtype=np.float64)
    parents = np.arange(-1, len(pts) - 1)
    return Skeleton(pts, parents)


class TestSkeleton:
    def test_shapes_enforced(self):
        with pytest.raises(ValueError):
            Skeleton(np.zeros((3, 2)), np.array([-1, 0, 1]))
        with pytest.raises(ValueError):
            Skeleton(np.zeros((3, 3)), np.array([-1, 0]))

    def test_arrays_read_only(self):
        s = chain([0, 0, 0], [1, 0, 0])
        with pytest.raises(ValueError):
            s.joints[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.parents[0] = 0

    def test_counts(self):
        s = chain([0, 0, 0], [1, 0, 0], [2, 0, 0])
        assert s.joint_count == 3
        assert s.bone_count == 2

    def test_structural_problems_allowed_at_construction(self):
        # Construction checks shapes only; the validator owns structure.
        s = Skeleton(np.zeros((2, 3)), np.array([-1, 99]))
        assert validate_skeleton(s) != ()


_camera = partial(Camera, 100.0, 100.0, 2.0, 2.0, 4, 4)

# Each value type: a constructor taking its array fields by name, and those
# fields at their frozen dtypes.
VALUE_TYPES = {
    "Skeleton": (Skeleton, {
        "joints": np.array([[0.0, 0, 0], [1, 0, 0]]), "parents": np.array([-1, 0])}),
    "Mesh": (Mesh, {
        "vertices": np.eye(3), "triangles": np.array([[0, 1, 2]])}),
    "SkinWeights": (SkinWeights, {"matrix": np.array([[1.0, 0.0], [0.0, 1.0]])}),
    "Camera": (_camera, {"rotation": np.eye(3), "translation": np.array([0.0, 0, 3])}),
    "AnimParams": (AnimParams, {
        "root_quats": np.tile([1.0, 0, 0, 0], (2, 1)), "root_trans": np.ones((2, 3)),
        "joint_quats": np.tile([1.0, 0, 0, 0], (2, 2, 1))}),
    "TrackSet": (partial(TrackSet, _camera(rotation=np.eye(3), translation=np.ones(3))), {
        "joint_tracks": np.ones((2, 2, 2)), "vertex_tracks": np.zeros((2, 3, 2)),
        "vertex_subset": np.array([0, 4, 7]),
        "joint_visibility": np.array([True, False]),
        "vertex_visibility": np.array([False, True, True])}),
    "TokenSequence": (partial(TokenSequence, scheme="joint_based"), {
        "tokens": np.array([128, 5, 9, 129]), "indicators": np.array([-1, 0, 0, -1])}),
}
# The caller's arrays: as frozen (same dtype, C order), as a strided view of a
# larger buffer, and at another dtype that must be cast.
_CAST = {np.dtype(np.float64): np.float32, np.dtype(np.int64): np.int32,
         np.dtype(bool): np.uint8}
CALLER_LAYOUTS = {
    "same": lambda a: a.copy(),
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
    "cast": lambda a: a.astype(_CAST[a.dtype]),
}


@pytest.mark.parametrize("layout", CALLER_LAYOUTS)
@pytest.mark.parametrize("kind", VALUE_TYPES)
def test_value_types_freeze_copies(kind, layout):
    # Every array field is a read-only C-contiguous copy at its dtype, so a
    # later write to the caller's array leaves the value as it was built.
    build, fields = VALUE_TYPES[kind]
    given = {name: CALLER_LAYOUTS[layout](a) for name, a in fields.items()}
    value = build(**given)
    for name, want in fields.items():
        got = getattr(value, name)
        assert got.dtype == want.dtype, name
        assert got.flags.c_contiguous and not got.flags.writeable, name
        # Neither the field nor any array it is a view of can be unlocked.
        base = got
        while isinstance(base, np.ndarray):
            with pytest.raises(ValueError):
                base.setflags(write=True)
            base = base.base
        assert not np.shares_memory(got, given[name]), name
        caller = given[name]
        caller[...] = ~caller if caller.dtype == bool else caller + 1
        assert np.array_equal(got, want), name


# Every integer field and every mask of the seven value types.
FIELDS_BY_DTYPE = {
    kind: [(name, t) for name, (_, fields) in VALUE_TYPES.items()
           for t, a in fields.items() if a.dtype == kind]
    for kind in (np.dtype(np.int64), np.dtype(bool), np.dtype(np.float64))
}


def _with_last(build, fields, name, x):
    """``build`` given ``fields`` with the last entry of ``name`` set to ``x``."""
    a = fields[name].astype(np.float64)
    a.flat[-1] = x
    return build(**{**fields, name: a})


@pytest.mark.parametrize("kind, name", FIELDS_BY_DTYPE[np.dtype(np.int64)])
def test_integer_fields_are_never_cast(kind, name):
    # A fraction, a NaN and an integral float past int64 are refused, not
    # truncated or wrapped; integral floats freeze to the ints' bits.
    build, fields = VALUE_TYPES[kind]
    with pytest.raises(ValueError, match=f"^{name} must hold integers$"):
        _with_last(build, fields, name, 0.5)
    with pytest.raises(NonFiniteError, match=f"^{name} contains NaN or Inf$"):
        _with_last(build, fields, name, np.nan)
    for huge in (1e30, -1e30, 2.0**63):
        with pytest.raises(ValueError, match=f"^{name} must hold integers within int64$"):
            _with_last(build, fields, name, huge)
    # Digits in strings are not parsed, an imaginary part is not dropped,
    # and a bool is not read as 0 or 1.
    for other in (str, complex, bool):
        with pytest.raises(ValueError, match=f"^{name} must hold integers$"):
            build(**{**fields, name: fields[name].astype(other)})
    got = getattr(build(**{**fields, name: fields[name].astype(np.float64)}), name)
    assert got.dtype == np.int64 and got.tobytes() == fields[name].tobytes()


@pytest.mark.parametrize("kind, name", FIELDS_BY_DTYPE[np.dtype(bool)])
def test_masks_are_never_cast(kind, name):
    # A mask entry other than 0 or 1 is refused, never read by its
    # truthiness; 0/1 numbers of any dtype freeze to the bools' bits.
    build, fields = VALUE_TYPES[kind]
    for x in (0.3, 2.0, -1.0):
        with pytest.raises(ValueError, match=f"^{name} must hold only 0 and 1$"):
            _with_last(build, fields, name, x)
    with pytest.raises(NonFiniteError, match=f"^{name} contains NaN or Inf$"):
        _with_last(build, fields, name, np.inf)
    for other in (str, complex):
        with pytest.raises(ValueError, match=f"^{name} must hold only 0 and 1$"):
            build(**{**fields, name: fields[name].astype(other)})
    for dtype in (np.float64, np.int64, np.uint8):
        got = getattr(build(**{**fields, name: fields[name].astype(dtype)}), name)
        assert got.dtype == bool and got.tobytes() == fields[name].tobytes()


@pytest.mark.parametrize("kind, name", FIELDS_BY_DTYPE[np.dtype(np.float64)])
def test_float_fields_are_never_cast(kind, name):
    # Digits in strings are not parsed, an imaginary part is not dropped,
    # and neither an object nor a bool is read as a number; ints and
    # float32 freeze to the float64 bits of a plain conversion.
    build, fields = VALUE_TYPES[kind]
    for other in (str, complex, object, bool):
        with pytest.raises(ValueError, match=f"^{name} must hold real numbers$"):
            build(**{**fields, name: fields[name].astype(other)})
    for dtype in (np.int64, np.float32):
        given = fields[name].astype(dtype)
        got = getattr(build(**{**fields, name: given}), name)
        assert got.dtype == np.float64
        assert got.tobytes() == given.astype(np.float64).tobytes()


def _tracks_scene():
    mesh = icosphere(1, radius=0.3)
    s = Skeleton(np.array([[0.0, -0.2, 0.0], [0.0, 0.2, 0.0]]), np.array([-1, 0]))
    return mesh, s, heuristic_skin_weights(mesh, s)


def _synthesize(noise_px, seed=0):
    camera = Camera.look_at(eye=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0))
    return synthesize_tracks(*_tracks_scene(), AnimParams.identity(2, 2), camera,
                             noise_px=noise_px, seed=seed, vertex_count=4)


_ONE_HOT = SkinWeights(np.eye(2))
# Every site of core._require_real: a call passing x there, and the name,
# lower bound (None: finite only) and strictness it reports.
REAL_SITES = {
    "learning_rate": (lambda x: OptimizeConfig(learning_rate=x), 0, True),
    "reg_weight": (lambda x: OptimizeConfig(reg_weight=x), 0, False),
    "plateau_rtol": (lambda x: OptimizeConfig(plateau_rtol=x), 0, False),
    "divergence_factor": (lambda x: OptimizeConfig(divergence_factor=x), 1, True),
    "lr_floor": (lambda x: OptimizeConfig(lr_floor=x), 0, False),
    "noise_px": (_synthesize, 0, False),
    "falloff": (lambda x: heuristic_skin_weights(*_tracks_scene()[:2], falloff=x), 0, True),
    "camera fx": (lambda x: Camera(x, 100.0, 2.0, 2.0, 4, 4, np.eye(3), np.ones(3)), 0, True),
    "camera fy": (lambda x: Camera(100.0, x, 2.0, 2.0, 4, 4, np.eye(3), np.ones(3)), 0, True),
    "camera cx": (lambda x: Camera(100.0, 100.0, x, 2.0, 4, 4, np.eye(3), np.ones(3)), None, False),
    "camera cy": (lambda x: Camera(100.0, 100.0, 2.0, x, 4, 4, np.eye(3), np.ones(3)), None, False),
    "epoch": (lambda x: permutation_probability(x, 10), 0, False),
    "total_epochs": (lambda x: permutation_probability(0, x), 0, True),
    "threshold": (lambda x: skinning_precision_recall(_ONE_HOT, _ONE_HOT, threshold=x), 0, False),
}


@pytest.mark.parametrize("what", REAL_SITES)
def test_real_scalars_are_never_cast(what):
    # A bool is not read as 1, a string is not parsed and None is not a
    # number; NaN/Inf and a value past the bound keep their own classes.
    call, low, strict = REAL_SITES[what]
    # lr_floor=None is its default: no floor.
    for x in (True, "0.1") + ((None,) if what != "lr_floor" else ()):
        with pytest.raises(ValueError, match=f"^{what} must be a real number$") as e:
            call(x)
        assert type(e.value) is ValueError
    bound = (f"^{what} must be finite$" if low is None
             else f"^{what} must be finite and (positive|non-negative|above 1)$")
    for x in (np.nan, np.inf):
        with pytest.raises(NonFiniteError, match=bound):
            call(x)
    if low is not None:
        with pytest.raises(InvalidValueError, match=bound) as e:
            call(low if strict else low - 1)
        assert type(e.value) is InvalidValueError
    start = -3 if low is None else low  # an unbounded site takes negatives
    for x in (start + 1, start + 1.5, np.float64(start + 1.5)):
        call(x)


_TREE = random_tree(np.random.default_rng(5), 12)
# Every seed a library call takes: a call passing x there and returning
# what the seed draws.
SEED_SITES = {
    "randomize_groups": lambda x: randomize_groups(tokenize_joint_based(_TREE), x, 1.0).tokens,
    "synthesize_tracks": lambda x: _synthesize(0.5, seed=x).vertex_tracks,
    "deformation_error": lambda x: deformation_error(
        *_tracks_scene(), SkinWeights(np.tile([0.5, 0.5], (42, 1))), seed=x),
    "run_all": lambda x: [r.max_rel_error for r in gradcheck.run_all(seed=x, instances=1)],
    "sample_augmented_pose": lambda x: sample_augmented_pose(_TREE, x),
    # Without a mesh the report draws nothing, so this site returns None.
    "metrics_report": lambda x: metrics_report(_TREE, _TREE, seed=x)["deformation_error"],
}


@pytest.mark.parametrize("site", SEED_SITES)
def test_seeds_are_counts(site):
    # A seed is a non-negative integer: a bool is not read as 1, a fraction
    # or a string is not handed to numpy, and a numpy integer draws the
    # stream of the same Python int.
    call = SEED_SITES[site]
    for x in (True, 1.5, "3"):
        with pytest.raises(ValueError, match="^seed must be an integer$") as e:
            call(x)
        assert type(e.value) is ValueError
    with pytest.raises(InvalidValueError, match="^seed must be at least 0$"):
        call(-1)
    drawn = call(3)
    assert np.array_equal(call(np.int64(3)), drawn)
    if drawn is not None:
        assert not np.array_equal(call(0), drawn)


def test_token_sequence_default_indicators_read_only():
    t = TokenSequence(np.array([128, 129]), None, "joint_based")
    assert t.indicators.tolist() == [NO_INDICATOR, NO_INDICATOR]
    assert t.indicators.dtype == np.int64 and not t.indicators.flags.writeable


class TestValidation:
    def test_valid_tree(self):
        assert validate_skeleton(random_tree(np.random.default_rng(0), 30)) == ()

    def test_empty(self):
        s = Skeleton(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        assert [i.code for i in validate_skeleton(s)] == ["empty"]

    def test_joint_cap(self):
        rng = np.random.default_rng(1)
        assert validate_skeleton(random_tree(rng, MAX_JOINTS)) == ()
        issues = validate_skeleton(random_tree(rng, MAX_JOINTS + 1))
        assert "joint-cap" in [i.code for i in issues]

    def test_non_finite(self):
        s = Skeleton(np.array([[0, 0, 0], [np.nan, 0, 0]]), np.array([-1, 0]))
        assert "non-finite" in [i.code for i in validate_skeleton(s)]

    def test_no_root(self):
        s = Skeleton(np.zeros((2, 3)), np.array([1, 0]))
        codes = [i.code for i in validate_skeleton(s)]
        assert "no-root" in codes
        assert "cycle" in codes

    def test_multiple_roots(self):
        s = Skeleton(np.zeros((3, 3)), np.array([-1, -1, 0]))
        assert "multiple-roots" in [i.code for i in validate_skeleton(s)]

    def test_dangling_parent(self):
        s = Skeleton(np.zeros((3, 3)), np.array([-1, 7, 0]))
        assert "dangling-parent" in [i.code for i in validate_skeleton(s)]

    def test_cycle(self):
        s = Skeleton(np.zeros((4, 3)), np.array([-1, 2, 3, 1]))
        assert "cycle" in [i.code for i in validate_skeleton(s)]

    def test_self_parent_is_cycle(self):
        s = Skeleton(np.zeros((2, 3)), np.array([-1, 1]))
        assert "cycle" in [i.code for i in validate_skeleton(s)]

    def test_report_matches_per_joint_walk(self):
        # Random parent arrays: cycles with tails, self-parents, dangling
        # links, several roots and more joints than the cap.
        rng = np.random.default_rng(17)
        for _ in range(3000):
            j = int(rng.choice([1, 2, 3, 5, 9, 30, MAX_JOINTS + 1, MAX_JOINTS + 9]))
            parents = rng.integers(-1, j, size=j)
            if rng.random() < 0.5:
                parents = np.concatenate([[-1], rng.integers(0, np.arange(1, j))])
                bad = rng.integers(0, j, size=int(rng.integers(0, 4)))
                parents[bad] = rng.integers(-3, j + 3, size=bad.size)
            if rng.random() < 0.2:
                parents[rng.integers(0, j)] = j + int(rng.integers(0, 5))
            joints = rng.standard_normal((j, 3))
            if rng.random() < 0.05:
                joints[0, 0] = np.nan
            s = Skeleton(joints, parents)
            lines = [f"{i.code}: {i.message}" for i in validate_skeleton(s)]
            assert ("\n".join(lines) or "valid") == walk_validation_report(s)

    def test_kept_issues_follow_each_value(self):
        # Skeletons built and dropped in turn, so a new one may take the
        # memory (and the id) of the last: each reports its own issues, and
        # an invalid one raises the same text on every call.
        rng = np.random.default_rng(40)
        kinds = ("valid", "cycle", "dangling", "no-root", "multiple-roots",
                 "non-finite", "over-cap")
        for n in range(350):
            kind = kinds[n % len(kinds)]
            j = int(rng.integers(MAX_JOINTS + 1, MAX_JOINTS + 10)
                    if kind == "over-cap" else rng.integers(3, 12))
            joints = rng.uniform(-0.4, 0.4, (j, 3))
            parents = np.concatenate([[-1], rng.integers(0, np.arange(1, j))])
            a, b = rng.choice(np.arange(1, j), 2, replace=False)
            if kind == "cycle":
                parents[a], parents[b] = b, a
            elif kind == "dangling":
                parents[a] = rng.choice([-2 - a, j + a])
            elif kind == "no-root":
                parents[0] = a
            elif kind == "multiple-roots":
                parents[a] = -1
            elif kind == "non-finite":
                joints[a, 1] = rng.choice([np.nan, np.inf])
            s = Skeleton(joints, parents)
            want = walk_validation_report(s)
            lines = [f"{i.code}: {i.message}" for i in validate_skeleton(s)]
            assert ("\n".join(lines) or "valid") == want, (n, kind)
            assert (want == "valid") == (kind == "valid"), (n, kind)
            for _ in range(3 if kind != "valid" else 0):
                with pytest.raises(InvalidSkeletonError) as raised:
                    require_valid(s)
                assert str(raised.value) == want, (n, kind)
            del s

    def test_operations_reject_invalid(self):
        s = Skeleton(np.zeros((2, 3)), np.array([-1, 5]))
        with pytest.raises(InvalidSkeletonError):
            graph_distance_matrix(s)
        with pytest.raises(InvalidSkeletonError):
            hierarchical_order(s)


class TestMesh:
    def test_index_range(self):
        with pytest.raises(ValueError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))
        with pytest.raises(ValueError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, -1]]))
        # A NaN vertex would drop its triangles from every ray query.
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError):
                Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, bad]]), np.array([[0, 1, 2]]))

    def test_copies_caller_arrays(self):
        v = np.zeros((3, 3))
        column = v[:, 0]
        m = Mesh(v, np.array([[0, 1, 2]]))
        v[0, 0] = 1.0
        column[1] = 2.0
        assert np.array_equal(m.vertices, np.zeros((3, 3)))


class TestSkinWeights:
    def test_rows_must_be_simplex(self):
        with pytest.raises(ValueError):
            SkinWeights(np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError):
            SkinWeights(np.array([[1.2, -0.2]]))
        w = SkinWeights(np.array([[0.25, 0.75], [1.0, 0.0]]))
        assert w.vertex_count == 2 and w.joint_count == 2

    def test_tolerance(self):
        SkinWeights(np.array([[0.5, 0.5 + 5e-7]]))
        with pytest.raises(ValueError):
            SkinWeights(np.array([[0.5, 0.5 + 5e-6]]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError):
                SkinWeights(np.array([[0.5, 0.5], [bad, 1.0]]))


class TestGraphDistances:
    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = random_tree(rng, int(rng.integers(2, 40)))
            assert np.array_equal(graph_distance_matrix(s), bfs_graph_distances(s))

    def test_chain_distances(self):
        s = chain([0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0])
        d = graph_distance_matrix(s)
        assert d[0, 3] == 3
        assert d[1, 2] == 1
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(4, dtype=np.int64))


class TestOrders:
    def test_joint_depths(self):
        s = Skeleton(np.zeros((5, 3)), np.array([-1, 0, 0, 1, 3]))
        assert joint_depths(s.parents).tolist() == [0, 1, 1, 2, 3]
        # Random trees and chains, shuffled so children may precede parents.
        rng = np.random.default_rng(40)
        for _ in range(60):
            j = int(rng.integers(1, MAX_JOINTS + 1))
            s = random_chain(rng, j) if rng.random() < 0.3 else random_tree(rng, j)
            s = permute_joints(s, rng.permutation(j))
            root = int(np.flatnonzero(s.parents == ROOT_PARENT)[0])
            assert np.array_equal(joint_depths(s.parents), bfs_graph_distances(s)[root])
        # Links outside [-1, j) and chains that never reach a root.
        for parents, match in (([-1, 5], r"^joints \[1\] link outside \[-1, 2\)$"),
                               ([-3, 0], r"^joints \[0\] link outside"),
                               ([1, 0], r"^joints \[0, 1\] never reach a root$"),
                               ([-1, 1], r"^joints \[1\] never reach a root$"),
                               ([-1, 2, 3, 2], r"^joints \[1, 2, 3\] never reach a root$")):
            with pytest.raises(InvalidSkeletonError, match=match):
                joint_depths(np.array(parents))

    def test_spatial_order_sorts_zyx(self):
        joints = np.array([
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        s = Skeleton(joints, np.array([-1, 0, 1, 2]))
        # ascending z, then y, then x
        assert spatial_order(s).tolist() == [2, 1, 3, 0]

    def test_spatial_tie_break_is_original_index(self):
        joints = np.zeros((3, 3))
        s = Skeleton(joints, np.array([-1, 0, 0]))
        assert spatial_order(s).tolist() == [0, 1, 2]

    def test_hierarchical_levels_then_zyx(self):
        joints = np.array([
            [0.0, 0.0, 0.0],    # root
            [0.0, 0.0, 2.0],    # depth 1, z=2
            [0.0, 0.0, 1.0],    # depth 1, z=1 -> first within level
            [0.0, 0.0, -1.0],   # depth 2
        ])
        s = Skeleton(joints, np.array([-1, 0, 0, 1]))
        assert hierarchical_order(s).tolist() == [0, 2, 1, 3]

    def test_hierarchical_is_causal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_tree(rng, int(rng.integers(2, 60)))
            order = hierarchical_order(s)
            position = np.empty(s.joint_count, dtype=np.int64)
            position[order] = np.arange(s.joint_count)
            for k in range(s.joint_count):
                p = s.parents[k]
                if p != ROOT_PARENT:
                    assert position[p] < position[k]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
    def test_hierarchical_causal_property(self, joints, seed):
        s = random_tree(np.random.default_rng(seed), joints)
        order = hierarchical_order(s)
        position = np.empty(joints, dtype=np.int64)
        position[order] = np.arange(joints)
        parents = s.parents
        mask = parents != ROOT_PARENT
        assert np.all(position[parents[mask]] < position[np.flatnonzero(mask)])

    def test_permute_joints_round_trip(self):
        rng = np.random.default_rng(3)
        s = random_tree(rng, 20)
        order = hierarchical_order(s)
        t = permute_joints(s, order)
        assert validate_skeleton(t) == ()
        # Same geometry, same topology as graphs.
        assert np.allclose(np.sort(t.joints, axis=0), np.sort(s.joints, axis=0))
        da = graph_distance_matrix(s)
        db = graph_distance_matrix(t)
        inv = np.empty(20, dtype=np.int64)
        inv[order] = np.arange(20)
        assert np.array_equal(db, da[np.ix_(order, order)])


class TestBones:
    def test_bone_segments(self):
        s = chain([0, 0, 0], [1, 0, 0], [1, 1, 0])
        starts, ends, child = bone_segments(s)
        assert starts.shape == (2, 3) and ends.shape == (2, 3)
        assert child.tolist() == [1, 2]
        assert np.array_equal(starts[0], [0, 0, 0])
        assert np.array_equal(ends[0], [1, 0, 0])


# Numbers json writes, with its edge cases: NaN, the infinities, -0.0, the
# least subnormal, a float past 2**53, ints past int64, np.float64 scalars.
_JSON_NUMBERS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, np.inf, -np.inf, np.nan]),
    st.integers(-2**70, 2**70), st.floats().map(np.float64))
# Non-ASCII, control and surrogate characters too.
_JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)
# Numeric rows, ragged, empty and one-item, with bools and None among the
# numbers; lists of them; and three-deep nests, the track layout.
_JSON_ROW = st.lists(_JSON_NUMBERS | st.booleans() | st.none(), max_size=4)
_JSON_ROWS = st.lists(_JSON_ROW | _JSON_ROW.map(tuple), max_size=5)
_JSON_LEAVES = st.one_of(_JSON_NUMBERS, st.booleans(), st.none(), _JSON_TEXT,
                         _JSON_ROW, _JSON_ROWS, st.lists(_JSON_ROWS, max_size=3))
# Dict keys of one kind, which json's sort orders, or of mixed kinds, which
# it may refuse.
_JSON_KEYS = st.sampled_from([
    _JSON_TEXT, st.integers(-2**70, 2**70) | st.floats() | st.booleans(), st.none(),
    st.one_of(_JSON_TEXT, st.integers(), st.floats(), st.none())])
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    _JSON_KEYS.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4))),
    max_leaves=20)


def _json_oracle(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _json_outcome(dump, data):
    """What ``dump(data)`` returns, or the type of what it raises."""
    try:
        return dump(data)
    except Exception as e:  # the type is what must agree
        return type(e)


class TestRigJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        s = random_tree(rng, 12)
        w = SkinWeights(np.full((4, 12), 1.0 / 12.0))
        path = tmp_path / "rig.json"
        save_rig(path, Rig(s, w))
        back = load_rig(path)
        assert np.array_equal(back.skeleton.joints, s.joints)
        assert np.array_equal(back.skeleton.parents, s.parents)
        assert np.array_equal(back.weights.matrix, w.matrix)

    def test_names_preserved(self, tmp_path):
        s = Skeleton(np.zeros((2, 3)), np.array([-1, 0]), names=("hip", "knee"))
        path = tmp_path / "rig.json"
        save_rig(path, Rig(s))
        assert load_rig(path).skeleton.names == ("hip", "knee")

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"joints": [[0, 0, 0]]}))
        with pytest.raises(ValueError):
            load_rig(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_JSON_VALUES)
    def test_canonical_json_stable(self, data):
        # Byte for byte what json.dumps writes with sorted keys, so no dict's
        # insertion order shows; a value it refuses raises its exception type.
        assert _json_outcome(canonical_json, data) == _json_outcome(_json_oracle, data)

    @pytest.mark.parametrize("data", [
        {1, 2}, object(), np.int64(3), [1.5, {2}], [[1.0], [object()]],
        {"a": frozenset()}, {(1, 2): 0}, {1: 0, "a": 1}, {b"k": 0}])
    def test_canonical_json_refuses_what_json_refuses(self, data):
        refused = _json_outcome(_json_oracle, data)
        assert isinstance(refused, type)
        assert _json_outcome(canonical_json, data) is refused

    def test_canonical_json_of_rig_files(self):
        rng = np.random.default_rng(8)
        s = Skeleton(rng.normal(size=(5, 3)), np.array([-1, 0, 1, 1, 3]),
                     names=("hip", "spine", "l\u00e9g", "arm\t", "hand"))
        w = rng.random((7, 5))
        clip = [rng.normal(size=(3, 4)), rng.normal(size=(3, 3)), rng.normal(size=(3, 5, 4))]
        for data in (rig_to_dict(Rig(s, SkinWeights(w / w.sum(axis=1, keepdims=True)))),
                     rig_to_dict(Rig(s)), track_set_to_dict(_synthesize(0.5)),
                     animation_to_dict(*clip)):
            assert canonical_json(data) == _json_oracle(data)


def test_all_lists_every_public_name_once():
    public = {
        name for name, value in vars(rigkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(rigkit.__all__) == len(set(rigkit.__all__))
    assert set(rigkit.__all__) == public | {"__version__"}


def test_no_unused_module_imports():
    # No linter ships with the package, so this is the unused-import check.
    package = Path(rigkit.__file__).parent
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in files:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{imported[n]} {n}" for n in sorted(imported.keys() - read)]
    assert unused == []


def test_no_uncalled_private_helpers():
    # Every private module-level function and class in the package is read
    # somewhere in the package outside its own definition: a helper that
    # nothing calls is dead code left behind by a rewrite.  A name read in
    # a module is that module's own, or the one it imports from a sibling.
    package = Path(rigkit.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    defined = {
        (mod, node.name): node
        for mod, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    read = set()
    for mod, tree in trees.items():
        names, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        names[alias.asname or alias.name] = (node.module, alias.name)
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in tree.body:
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    ref = names.get(n.id, (mod, n.id))
                elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                        and n.value.id in modules:
                    ref = (modules[n.value.id], n.attr)
                else:
                    continue
                if defined.get(ref) is not node:
                    read.add(ref)
    assert sorted(f"{mod}.py {name}" for mod, name in defined.keys() - read) == []


def test_no_unused_private_names():
    # A module-level _name (function, class or constant) that its own module
    # never reads, and that no sibling imports, is dead code left behind by
    # a rewrite.  A sibling reads what it imports (the unused-import check),
    # so a core rule that only other modules call is not dead.
    package = Path(rigkit.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    imported = {
        (node.module, alias.name) for tree in trees.values() for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names
    }
    unused = []
    for path, tree in trees.items():
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in ast.walk(ast.Tuple(elts=targets)):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
        read = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line} {name}" for name, line in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__") and name not in read
            and (path.stem, name) not in imported
        ]
    assert unused == []


def test_input_rules_live_in_core():
    # Each kind of input rule (counts, integer arrays, 0/1 masks, bounded
    # reals, finiteness, broadcasting) has one definition, in core.
    package = Path(rigkit.__file__).parent
    outside = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(package.glob("*.py")) if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_require_")
    ]
    assert outside == []


def test_gradcheck_calls_every_kernel_gradient():
    # Every public analytic gradient in rigkit.kernels is called by the
    # grad-check, so none of them can lose its finite-difference check.
    package = Path(rigkit.__file__).parent
    gradients = {
        node.name for node in ast.parse((package / "kernels.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name.endswith(("_vjp", "_grad"))
    }
    called = {
        n.func.attr for n in ast.walk(ast.parse((package / "gradcheck.py").read_text()))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "kernels"
    }
    assert len(gradients) == 4
    assert sorted(gradients - called) == []


def test_clip_arrays_in_one_order():
    # A clip's frames are three arrays, (root_quats, root_trans, joint_quats):
    # every function and method that takes them takes them consecutively and
    # in that order, and none takes a single root_quat.
    layout = ["root_quats", "root_trans", "joint_quats"]
    package = Path(rigkit.__file__).parent
    taking, wrong = set(), []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"rigkit.{path.stem}")
        routines = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                routines += [getattr(obj, name) for name in vars(obj)]
            else:
                routines.append(obj)
        for f in routines:
            if not (inspect.isfunction(f) or inspect.ismethod(f)):
                continue
            names = list(inspect.signature(f).parameters)
            if "root_quat" in names:
                wrong.append(f.__qualname__)
            if set(layout) & set(names):
                taking.add(f.__qualname__)
                at = names.index(layout[0]) if layout[0] in names else 0
                if names[at : at + 3] != layout:
                    wrong.append(f.__qualname__)
    assert wrong == []
    assert taking >= {
        "fk_forward", "pose_clip", "_pose_in_camera", "_render_tracks",
        "_Fit.evaluate", "_smoothness", "_with_rest_frame",
        "params_from_animation", "animation_to_dict", "save_animation",
        "AnimParams.__init__",
    }


def test_one_freeze_and_one_finiteness_refusal():
    # Value types freeze their arrays through core._frozen, and NaN/Inf is
    # refused through core._require_finite.  Only the sites named here write
    # a frozen field or build a NonFiniteError themselves.
    allowed = sorted([
        ("core", "_frozen", "object.__setattr__"),
        ("core", "_require_finite", "NonFiniteError"),
        ("geometry", "Camera.__post_init__", "object.__setattr__"),  # int size, float intrinsics
        ("codec", "TokenSequence.__post_init__", "object.__setattr__"),  # indicator default
        ("geometry", "crossing_counts", "NonFiniteError"),  # t_max may be inf, not NaN
        ("geometry", "_line_error", "NonFiniteError"),  # the error it returns
    ])
    package = Path(rigkit.__file__).parent
    found = []

    def visit(node, mod, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, mod, scope + [child.name])
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            f = child.func if isinstance(child, ast.Call) else exc
            if isinstance(f, ast.Attribute) and f.attr == "__setattr__" \
                    and isinstance(f.value, ast.Name) and f.value.id == "object":
                found.append((mod, ".".join(scope), "object.__setattr__"))
            elif getattr(f, "id", getattr(f, "attr", None)) == "NonFiniteError":
                found.append((mod, ".".join(scope), "NonFiniteError"))
            visit(child, mod, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, [])
    assert sorted(found) == allowed
