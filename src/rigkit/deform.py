"""Forward kinematics, linear blend skinning, pose sampling, weight baking.

Conventions: a joint's local rotation acts about its own rest position, so
the identity pose maps every joint and vertex onto itself exactly and each
global transform is directly the rest-to-posed map its vertices blend.
The root motion (quaternion + translation) is joint j of a j-joint
skeleton, a virtual parent of the root whose rotation also acts about the
root's rest position, so FK and its VJP treat it like any other joint.

Kinematics is one raw differentiable core (`fk_forward` / `fk_backward`)
over any number of frames; a single pose has no leading axes.  A clip is
three arrays, (root_quats, root_trans, joint_quats) in that order, which
every function here takes and `fk_backward` returns gradients for.  FK
hands out the joints' global transforms as the (..., j, 3, 4) rows a
blend takes (`FkCache.globals_`), and `fk_backward` takes its gradients
in that shape.  Both follow the skeleton's FK schedule, built on first
use, kept on the frozen `Skeleton` and carried by `FkCache.schedule`:
the rotation centres and the tree's depth levels, each level's joints
and parents indexed by slice where they run contiguous, so composing
goes through views, and a flag for whether the parents are distinct, so
`fk_backward` scatters with `+=` and needs `np.add.at` only where
siblings share a parent.  Skinning is one formula: the points' blend
basis (`_BlendBasis`), which every caller builds once for the points it
poses, then blends any number of frames through.  `pose_clip` is the
world-space posing path, one `fk_forward` and one blend.  The core
treats quaternions as free 4-vectors, normalizing them inside the
computation so gradients stay exact under finite-difference probing, and
checks nothing: its callers validate the skeleton, weights and animation
they load before they pose anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import quat
from .core import (
    Mesh,
    Skeleton,
    SkinWeights,
    _FkSchedule,
    _require_finite,
    _require_int,
    _require_json_floats,
    _require_real,
    bone_segments,
    canonical_json,
    require_valid,
)
from .geometry import point_segment_distance

ROTATE_PROBABILITY = 0.3
MAX_EULER_DEG = 60.0


# ---------------------------------------------------------------------------
# Differentiable core
# ---------------------------------------------------------------------------
#
# Every function below takes any leading frame axes in front of the joint
# axis: root_quats (..., 4), root_trans (..., 3), joint_quats (..., j, 4),
# transform rows (..., j, 3, 4), points (..., n, 3).  A single pose has none.
#
# The root motion is joint j, a virtual parent of the root: like every
# joint it rotates about a centre (the root's rest position), and its
# local transform also carries root_trans.


@dataclass
class FkCache:
    schedule: _FkSchedule  # the skeleton's: centres, depth levels, ancestors
    quats: np.ndarray  # (..., j + 1, 4): joint quats, then the root quat
    locals_: np.ndarray  # (..., j + 1, 4, 4)
    transforms: np.ndarray  # (..., j + 1, 4, 4)

    @property
    def globals_(self) -> np.ndarray:
        """The joints' global transforms as the (..., j, 3, 4) rows a blend
        takes, a view without joint j."""
        return self.transforms[..., :-1, :3, :]


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def fk_forward(
    s: Skeleton,
    root_quats: np.ndarray,
    root_trans: np.ndarray,
    joint_quats: np.ndarray,
) -> FkCache:
    """Raw forward kinematics of ``s``; quaternions may be unnormalized, and
    the root motion broadcasts over the joint quats' leading axes.

    Parent transforms are composed one depth level at a time, for all
    frames together, following the skeleton's schedule.
    """
    schedule = s._fk_schedule
    j = s.joint_count
    joint_quats = np.asarray(joint_quats, dtype=np.float64)
    root_quats = np.broadcast_to(root_quats, joint_quats.shape[:-2] + (4,))
    quats = np.concatenate([joint_quats, root_quats[..., None, :]], axis=-2)

    rots = quat.to_matrix(quats)  # (..., j + 1, 3, 3)
    locals_ = np.zeros(rots.shape[:-2] + (4, 4))
    locals_[..., :3, :3] = rots
    locals_[..., :3, 3] = schedule.centres - (rots @ schedule.centres[:, :, None])[..., 0]
    locals_[..., j, :3, 3] += np.asarray(root_trans, dtype=np.float64)
    locals_[..., 3, 3] = 1.0

    # Joint j's global is its local; the levels start at the root.
    transforms = locals_.copy()
    for idx, par, _ in schedule.levels:
        transforms[..., idx, :, :] = (
            transforms[..., par, :, :] @ locals_[..., idx, :, :]
        )
    return FkCache(schedule, quats, locals_, transforms)


def fk_backward(
    cache: FkCache, grad_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pull gradients on the joints' global rows back to the raw parameters.

    ``grad_rows`` (..., j, 3, 4) is shaped like ``cache.globals_``, as
    :meth:`_BlendBasis.vjp` returns it.  Returns (grad root_quats (..., 4),
    grad root_trans (..., 3), grad joint_quats (..., j, 4)).
    """
    g, loc = cache.transforms, cache.locals_
    d_mats = np.zeros(loc.shape[:-2] + (3, 4))
    d_mats[..., :-1, :, :] = grad_rows
    # Children before parents.  Once a level has passed its gradient up,
    # its slot turns from d global into d local (joint j's global is its
    # local already).
    for idx, par, distinct in reversed(cache.schedule.levels):
        d = d_mats[..., idx, :, :]
        d_parent = d @ _transpose(loc[..., idx, :, :])
        if distinct:
            d_mats[..., par, :, :] += d_parent
        else:  # siblings share a parent, which += would count once
            np.add.at(d_mats, (..., par, slice(None), slice(None)), d_parent)
        d_mats[..., idx, :, :] = _transpose(g[..., par, :3, :3]) @ d

    # local = rotation about the joint's centre
    d_rots = d_mats[..., :3] - d_mats[..., 3, None] * cache.schedule.centres[:, None, :]
    grad_quats = quat.to_matrix_vjp(cache.quats, d_rots)
    return grad_quats[..., -1, :], d_mats[..., -1, :, 3].copy(), grad_quats[..., :-1, :]


# A blend basis is zero-padded to a multiple of this many points, so that
# a point's blended position does not depend on how many points share the
# call: OpenBLAS runs a tail of fewer output columns through other
# kernels, whose last bits differ.  With OpenBLAS 0.3.31 (Haswell
# kernels), about 2 in 3 random vertex splits differed unpadded; padded,
# none of 600 random splits of up to 2,500 vertices and 40 joints did,
# nor 7 of up to 20,000 vertices and 70 joints.
_BASIS_ROW_BLOCK = 16


class _BlendBasis:
    """The blend basis B = w (x) [x, 1] of fixed points and weight rows.

    Row i of B (p, 4 j) holds w[i, k] (x_i, 1) in columns 4k .. 4k + 3, so
    blending (..., j, 3, 4) transforms, sum_k w[i, k] T_k [x_i, 1], is one
    matmul per frame, rows(T) @ B^T, and its VJP is grad @ B.  B^T is
    kept contiguous and points come out coordinate-major, (..., 3, p).
    """

    def __init__(self, points: np.ndarray, weight_rows: np.ndarray):
        p, j = weight_rows.shape
        padded = -(-p // _BASIS_ROW_BLOCK) * _BASIS_ROW_BLOCK
        homogeneous = np.ones((4, p))
        homogeneous[:3] = points.T
        columns = np.zeros((j, 4, padded))
        np.multiply(weight_rows.T[:, None, :], homogeneous, out=columns[..., :p])
        self.count = p
        self.columns = columns.reshape(4 * j, padded)

    def apply(self, transforms: np.ndarray) -> np.ndarray:
        """Blended points (..., 3, p) of (..., j, 3, 4) transforms."""
        lead, j = transforms.shape[:-3], transforms.shape[-3]
        rows = np.swapaxes(transforms, -3, -2).reshape(lead + (3, 4 * j))
        return (rows @ self.columns)[..., : self.count]

    def vjp(self, grad_x: np.ndarray, grad_y: np.ndarray, grad_z: np.ndarray) -> np.ndarray:
        """Gradient wrt the (..., j, 3, 4) transforms for the gradients
        (..., p) on the blended points' three coordinates."""
        basis = self.columns[:, : self.count].T
        d = np.stack([g @ basis for g in (grad_x, grad_y, grad_z)], axis=-2)
        return np.swapaxes(d.reshape(d.shape[:-1] + (-1, 4)), -3, -2)


def pose_clip(
    s: Skeleton,
    basis: _BlendBasis,
    root_quats: np.ndarray,
    root_trans: np.ndarray,
    joint_quats: np.ndarray,
) -> tuple[FkCache, np.ndarray]:
    """Posed points of every frame of a clip in world space, in one pass.

    The mesh path: ``rigkit deform``, ``animate --export-obj`` and
    :func:`rigkit.metrics.deformation_error` pose whole meshes through it,
    each with a basis of its points built once.  Takes the raw core's
    arrays with any leading frame axes (quaternions may be unnormalized);
    returns the FK cache and the posed points (..., p, 3).

    The blend is linear in the weight rows, which need not sum to 1: a
    basis of rows A - B poses, up to rounding, to the points posed with
    A minus those posed with B.
    """
    cache = fk_forward(s, root_quats, root_trans, joint_quats)
    return cache, _transpose(basis.apply(cache.globals_))


# ---------------------------------------------------------------------------
# Augmented poses and heuristic weights
# ---------------------------------------------------------------------------


def sample_augmented_pose(s: Skeleton, rng: int | np.random.Generator) -> np.ndarray:
    """Random training pose as (j, 4) joint quaternions: each joint
    independently rotates with probability 0.3, Euler components uniform in
    [-60, 60] degrees, axes local to the joint; the root does not move.
    Deterministic per seed."""
    require_valid(s)
    if not isinstance(rng, np.random.Generator):
        _require_int(rng, "seed", 0)
        rng = np.random.default_rng(rng)
    bound = np.deg2rad(MAX_EULER_DEG)
    quats = np.zeros((s.joint_count, 4))
    quats[:, 0] = 1.0
    for k in range(s.joint_count):
        if rng.random() < ROTATE_PROBABILITY:
            quats[k] = quat.from_euler_xyz(rng.uniform(-bound, bound, 3))
    return quats


def heuristic_skin_weights(
    mesh: Mesh,
    s: Skeleton,
    *,
    k_nearest: int = 4,
    falloff: float = 0.1,
) -> SkinWeights:
    """Distance-based weights: Gaussian falloff over each vertex's k nearest
    bone segments, renormalized onto the simplex.

    A bone's mass lands on its proximal joint (the parent end), the joint
    whose rotation actually swings that segment; leaf joints therefore
    carry no weight.  Rejects skeletons without bones or with all joints
    coincident.
    """
    require_valid(s)
    if s.bone_count == 0:
        raise ValueError("heuristic weights need at least one bone")
    if np.ptp(s.joints, axis=0).max() == 0:
        raise ValueError("degenerate skeleton: all joints coincident")
    _require_int(k_nearest, "k_nearest", 1)
    _require_real(falloff, "falloff", 0, True)

    starts, ends, child = bone_segments(s)
    proximal = s.parents[child]
    dist = point_segment_distance(mesh.vertices, starts, ends)
    v, b = dist.shape
    k = min(k_nearest, b)
    if k < b:
        sel = np.argpartition(dist, k - 1, axis=1)[:, :k]
    else:
        sel = np.tile(np.arange(b), (v, 1))
    d_sel = np.take_along_axis(dist, sel, axis=1)
    scores = np.exp(-((d_sel / falloff) ** 2))
    sums = scores.sum(axis=1)
    starved = sums <= 0.0
    if np.any(starved):
        # Falloff underflow: park the vertex rigidly on its nearest bone.
        nearest = np.argmin(d_sel[starved], axis=1)
        scores[starved] = 0.0
        scores[np.flatnonzero(starved), nearest] = 1.0
        sums = scores.sum(axis=1)
    scores /= sums[:, None]

    weights = np.zeros((v, s.joint_count))
    rows = np.repeat(np.arange(v), k)
    cols = proximal[sel.ravel()]
    np.add.at(weights, (rows, cols.ravel()), scores.ravel())
    return SkinWeights(weights)


# ---------------------------------------------------------------------------
# Animation JSON
# ---------------------------------------------------------------------------


def animation_to_dict(
    root_quats: np.ndarray, root_trans: np.ndarray, joint_quats: np.ndarray
) -> dict:
    """Frames as {root_quat, root_trans, joint_quats}; w-first quaternions."""
    n = root_quats.shape[0]
    if root_trans.shape[0] != n or joint_quats.shape[0] != n:
        raise ValueError("frame counts must agree")
    frames = [
        {"root_quat": q, "root_trans": t, "joint_quats": jq}
        for q, t, jq in zip(root_quats.tolist(), root_trans.tolist(), joint_quats.tolist())
    ]
    return {"frames": frames}


def animation_from_dict(data: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not isinstance(data, dict) or "frames" not in data or not data["frames"]:
        raise ValueError("animation JSON requires a non-empty 'frames' list")
    rq, rt, jq = [], [], []
    for i, frame in enumerate(data["frames"]):
        try:
            rq.append(_require_json_floats(frame["root_quat"], "root_quat"))
            rt.append(_require_json_floats(frame["root_trans"], "root_trans"))
            jq.append(_require_json_floats(frame["joint_quats"], "joint_quats"))
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"frame {i} malformed: {e}") from None
    root_quats = np.stack(rq)
    root_trans = np.stack(rt)
    joint_quats = np.stack(jq)
    if root_quats.shape[1:] != (4,) or root_trans.shape[1:] != (3,):
        raise ValueError("root_quat must be length 4 and root_trans length 3")
    if joint_quats.ndim != 3 or joint_quats.shape[2] != 4:
        raise ValueError("joint_quats must be (joints, 4) per frame")
    _require_finite("animation contains NaN or Inf", root_quats, root_trans, joint_quats)
    return root_quats, root_trans, joint_quats


def save_animation(path: str | Path, root_quats, root_trans, joint_quats) -> None:
    Path(path).write_text(
        canonical_json(animation_to_dict(root_quats, root_trans, joint_quats))
    )


def load_animation(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return animation_from_dict(json.loads(Path(path).read_text()))
