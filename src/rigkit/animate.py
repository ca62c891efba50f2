"""Track-guided animation: visibility, losses, and the pose optimizer.

A clip of n frames is parameterized by frames 1 .. n-1 only; frame 0 is
pinned to the identity (rest) pose and never enters the parameter vector,
so it stays bitwise fixed through optimization.  Each frame carries a root
motion (quaternion + translation) and one local quaternion per joint.

Visibility is decided once, on frame-0 geometry, and the resulting masks
gate the tracking loss for the whole clip: a joint is visible when the
camera-to-joint segment crosses the mesh exactly once (the crossing may be
at the joint itself, within a small band); a vertex is visible when the
first surface hit toward it lies within EPS_GEO of the vertex's own
distance.  The exactly-once rule deliberately counts a joint resting just
under the front surface as visible.

All losses return exact analytic gradients; finite-difference agreement
is enforced by the test-suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import quat
from .core import (
    Mesh,
    NonFiniteError,
    Skeleton,
    SkinWeights,
    _frozen,
    canonical_json,
    require_valid,
)
from .deform import (
    FkCache,
    fk_backward,
    fk_forward,
    lbs_apply,
    lbs_vjp,
    posed_joint_positions,
    posed_joint_positions_vjp,
)
from .geometry import (
    Camera,
    crossing_counts,
    first_hit_distances,
    point_inside_mesh,
    project,
    project_vjp,
)

EPS_BAND = 1e-6
EPS_GEO = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Optimization loss blew past the divergence guard."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnimParams:
    """Per-frame pose parameters for frames 1 .. n-1 of an n-frame clip.

    Arrays: root_quats (n-1, 4), root_trans (n-1, 3),
    joint_quats (n-1, j, 4); quaternions w-first.  Frame 0 is implicit
    identity.
    """

    root_quats: np.ndarray
    root_trans: np.ndarray
    joint_quats: np.ndarray

    def __post_init__(self):
        rq = _frozen(self.root_quats, np.float64)
        rt = _frozen(self.root_trans, np.float64)
        jq = _frozen(self.joint_quats, np.float64)
        if rq.ndim != 2 or rq.shape[1] != 4:
            raise ValueError("root_quats must be (frames-1, 4)")
        n = rq.shape[0]
        if rt.shape != (n, 3):
            raise ValueError("root_trans must be (frames-1, 3)")
        if jq.ndim != 3 or jq.shape[0] != n or jq.shape[2] != 4:
            raise ValueError("joint_quats must be (frames-1, joints, 4)")
        object.__setattr__(self, "root_quats", rq)
        object.__setattr__(self, "root_trans", rt)
        object.__setattr__(self, "joint_quats", jq)

    @property
    def frame_count(self) -> int:
        return self.root_quats.shape[0] + 1

    @property
    def joint_count(self) -> int:
        return self.joint_quats.shape[1]

    @classmethod
    def identity(cls, frame_count: int, joint_count: int) -> "AnimParams":
        if frame_count < 1:
            raise ValueError("clips need at least one frame")
        m = frame_count - 1
        rq = np.zeros((m, 4))
        rq[:, 0] = 1.0
        jq = np.zeros((m, joint_count, 4))
        jq[:, :, 0] = 1.0
        return cls(rq, np.zeros((m, 3)), jq)

    def flatten(self) -> np.ndarray:
        """Per frame: root quat, root translation, then the joint quats."""
        jq = self.joint_quats.reshape(self.frame_count - 1, 4 * self.joint_count)
        return np.concatenate([self.root_quats, self.root_trans, jq], axis=1).ravel()

    @classmethod
    def from_flat(cls, vec: np.ndarray, frame_count: int, joint_count: int) -> "AnimParams":
        m = frame_count - 1
        per = 7 + 4 * joint_count
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (m * per,):
            raise ValueError(f"flat vector must have length {m * per}")
        rows = vec.reshape(m, per)
        return cls(rows[:, :4], rows[:, 4:7], rows[:, 7:].reshape(m, joint_count, 4))

    def normalized(self) -> "AnimParams":
        return AnimParams(
            quat.normalize(self.root_quats),
            self.root_trans,
            quat.normalize(self.joint_quats),
        )


def params_to_animation(params: AnimParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand to explicit per-frame arrays including the identity frame 0."""
    n = params.frame_count
    j = params.joint_count
    rq = np.zeros((n, 4))
    rq[:, 0] = 1.0
    rt = np.zeros((n, 3))
    jq = np.zeros((n, j, 4))
    jq[:, :, 0] = 1.0
    rq[1:] = params.root_quats
    rt[1:] = params.root_trans
    jq[1:] = params.joint_quats
    return rq, rt, jq


def params_from_animation(
    root_quats: np.ndarray, root_trans: np.ndarray, joint_quats: np.ndarray
) -> AnimParams:
    """Build params from explicit frames; frame 0 must be the identity pose."""
    rq = np.asarray(root_quats, dtype=np.float64)
    rt = np.asarray(root_trans, dtype=np.float64)
    jq = np.asarray(joint_quats, dtype=np.float64)
    ident_q = np.zeros_like(jq[0])
    ident_q[:, 0] = 1.0
    if (
        np.max(np.abs(rq[0] - quat.IDENTITY)) > 1e-6
        or np.max(np.abs(rt[0])) > 1e-6
        or np.max(np.abs(jq[0] - ident_q)) > 1e-6
    ):
        raise ValueError("frame 0 must be the identity pose")
    return AnimParams(rq[1:], rt[1:], jq[1:])


# ---------------------------------------------------------------------------
# Visibility
# ---------------------------------------------------------------------------


def joint_visibility(mesh: Mesh, s: Skeleton, camera: Camera) -> np.ndarray:
    """Mask of joints whose camera segment crosses the mesh exactly once.

    Hits are counted for ray parameters t in (0, 1 + EPS_BAND] with t = 1
    at the joint, so a joint lying on the surface counts its own surface
    crossing.  0 crossings (joint floating in front of the mesh) and 2+
    crossings (occluded) are both invisible under this rule.  All joints
    go in one crossing count; a joint at the camera centre is invisible.
    """
    require_valid(s)
    origin = camera.center
    if point_inside_mesh(mesh, origin):
        raise ValueError("camera center lies inside the mesh")
    directions = s.joints - origin
    cast = np.linalg.norm(directions, axis=1) > 0
    visible = np.zeros(s.joint_count, dtype=bool)
    counts = crossing_counts(mesh, origin, directions[cast], 1.0 + EPS_BAND)
    visible[cast] = counts == 1
    return visible


def vertex_visibility(
    mesh: Mesh, camera: Camera, subset: np.ndarray | None = None
) -> np.ndarray:
    """Mask of vertices whose first camera hit lies within EPS_GEO of them.

    One unit-length ray per vertex from the camera centre; a vertex at the
    centre itself is invisible.  Each vertex's answer is independent of
    which others are queried alongside it.
    """
    origin = camera.center
    targets = mesh.vertices
    if subset is not None:
        targets = targets[np.asarray(subset, dtype=np.int64)]
    directions = targets - origin
    dist = np.linalg.norm(directions, axis=1)
    cast = dist > 0
    visible = np.zeros(targets.shape[0], dtype=bool)
    t = first_hit_distances(mesh, origin, directions[cast] / dist[cast, None])
    visible[cast] = np.abs(t - dist[cast]) <= EPS_GEO
    return visible


# ---------------------------------------------------------------------------
# Posing
# ---------------------------------------------------------------------------


def pose_clip(
    s: Skeleton,
    vertices: np.ndarray,
    weight_rows: np.ndarray,
    root_quats: np.ndarray,
    root_trans: np.ndarray,
    joint_quats: np.ndarray,
) -> tuple[FkCache, np.ndarray]:
    """Posed joints and vertices of every frame of a clip, in one pass.

    Takes the raw core's arrays with any leading frame axes (quaternions
    may be unnormalized) and the rows of the weight matrix that belong to
    ``vertices``.  Returns the FK cache and the posed joints followed by
    the posed vertices, shape (..., j + v, 3).
    """
    cache = fk_forward(s.joints, s.parents, joint_quats, root_quats, root_trans)
    points = np.concatenate(
        [posed_joint_positions(cache), lbs_apply(vertices, weight_rows, cache.globals_)],
        axis=-2,
    )
    return cache, points


# ---------------------------------------------------------------------------
# Tracks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackSet:
    """Per-frame 2-d observations plus the frame-0 visibility masks."""

    camera: Camera
    joint_tracks: np.ndarray  # (n, j, 2)
    vertex_tracks: np.ndarray  # (n, v_s, 2)
    vertex_subset: np.ndarray  # (v_s,) mesh vertex indices
    joint_visibility: np.ndarray  # (j,) bool
    vertex_visibility: np.ndarray  # (v_s,) bool

    def __post_init__(self):
        jt = _frozen(self.joint_tracks, np.float64)
        vt = _frozen(self.vertex_tracks, np.float64)
        vs = _frozen(self.vertex_subset, np.int64)
        jv = _frozen(self.joint_visibility, bool)
        vv = _frozen(self.vertex_visibility, bool)
        if jt.ndim != 3 or jt.shape[2] != 2:
            raise ValueError("joint_tracks must be (frames, joints, 2)")
        if vt.ndim != 3 or vt.shape[2] != 2 or vt.shape[0] != jt.shape[0]:
            raise ValueError("vertex_tracks must be (frames, subset, 2)")
        if vs.shape != (vt.shape[1],):
            raise ValueError("vertex_subset must align with vertex_tracks")
        if jv.shape != (jt.shape[1],) or vv.shape != (vt.shape[1],):
            raise ValueError("visibility masks must align with tracks")
        if not (np.all(np.isfinite(jt)) and np.all(np.isfinite(vt))):
            raise NonFiniteError("tracks contain NaN or Inf")
        object.__setattr__(self, "joint_tracks", jt)
        object.__setattr__(self, "vertex_tracks", vt)
        object.__setattr__(self, "vertex_subset", vs)
        object.__setattr__(self, "joint_visibility", jv)
        object.__setattr__(self, "vertex_visibility", vv)

    @property
    def frame_count(self) -> int:
        return self.joint_tracks.shape[0]


def track_set_to_dict(tracks: TrackSet) -> dict:
    return {
        "camera": tracks.camera.to_dict(),
        "joint_tracks": tracks.joint_tracks.tolist(),
        "vertex_tracks": tracks.vertex_tracks.tolist(),
        "vertex_subset": tracks.vertex_subset.tolist(),
        "joint_visibility": [bool(b) for b in tracks.joint_visibility],
        "vertex_visibility": [bool(b) for b in tracks.vertex_visibility],
    }


def track_set_from_dict(data: dict) -> TrackSet:
    try:
        return TrackSet(
            camera=Camera.from_dict(data["camera"]),
            joint_tracks=np.asarray(data["joint_tracks"], dtype=np.float64),
            vertex_tracks=np.asarray(data["vertex_tracks"], dtype=np.float64),
            vertex_subset=np.asarray(data["vertex_subset"], dtype=np.int64),
            joint_visibility=np.asarray(data["joint_visibility"], dtype=bool),
            vertex_visibility=np.asarray(data["vertex_visibility"], dtype=bool),
        )
    except KeyError as e:
        raise ValueError(f"track JSON missing field {e}") from None


def save_tracks(path: str | Path, tracks: TrackSet) -> None:
    Path(path).write_text(canonical_json(track_set_to_dict(tracks)))


def load_tracks(path: str | Path) -> TrackSet:
    return track_set_from_dict(json.loads(Path(path).read_text()))


def synthesize_tracks(
    mesh: Mesh,
    s: Skeleton,
    weights: SkinWeights,
    params: AnimParams,
    camera: Camera,
    *,
    noise_px: float = 0.0,
    seed: int = 0,
    vertex_count: int = 100,
) -> TrackSet:
    """Render ground-truth 2-d tracks for a known clip.

    Joint and subset-vertex positions of all frames are posed and projected
    in one batched pass, then optionally perturbed with Gaussian pixel
    noise on frames >= 1 (frame 0 defines the keypoints, so it stays
    exact).  The tracked vertex subset is seeded and drawn from
    frame-0-visible vertices only.
    """
    require_valid(s)
    weights.require_fits(mesh, s)
    if params.joint_count != s.joint_count:
        raise ValueError("params joint count does not match skeleton")
    if not noise_px >= 0:
        raise ValueError("noise_px must be non-negative")
    if not vertex_count >= 1:
        raise ValueError("vertex_count must be at least 1")
    jvis = joint_visibility(mesh, s, camera)
    vvis_all = vertex_visibility(mesh, camera)
    candidates = np.flatnonzero(vvis_all)
    if candidates.size == 0:
        raise ValueError("no visible vertices to track")
    rng = np.random.default_rng(seed)
    count = min(int(vertex_count), candidates.size)
    subset = np.sort(rng.choice(candidates, size=count, replace=False))

    _, points = pose_clip(
        s, mesh.vertices[subset], weights.matrix[subset], *params_to_animation(params)
    )
    uv, _, _ = project(camera, points)
    joint_tracks, vertex_tracks = uv[:, : s.joint_count], uv[:, s.joint_count :]
    if noise_px > 0:
        joint_tracks[1:] += rng.normal(0.0, noise_px, joint_tracks[1:].shape)
        vertex_tracks[1:] += rng.normal(0.0, noise_px, vertex_tracks[1:].shape)
    return TrackSet(
        camera=camera,
        joint_tracks=joint_tracks,
        vertex_tracks=vertex_tracks,
        vertex_subset=subset,
        joint_visibility=jvis,
        vertex_visibility=vvis_all[subset],
    )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossResult:
    value: float
    grads: AnimParams | None
    dropped_terms: int = 0


def _check_scene(params, mesh, s, weights, tracks):
    require_valid(s)
    if params.joint_count != s.joint_count:
        raise ValueError("params joint count does not match skeleton")
    if tracks.frame_count != params.frame_count:
        raise ValueError("tracks and params must cover the same frames")
    if tracks.joint_tracks.shape[1] != s.joint_count:
        raise ValueError("joint tracks do not match skeleton")
    weights.require_fits(mesh, s)
    subset = tracks.vertex_subset
    if subset.size and (subset.min() < 0 or subset.max() >= mesh.vertex_count):
        raise ValueError("vertex subset indices must lie in [0, mesh vertex count)")


def tracking_loss(
    params: AnimParams,
    mesh: Mesh,
    s: Skeleton,
    weights: SkinWeights,
    tracks: TrackSet,
    *,
    with_grad: bool = True,
) -> LossResult:
    """Masked squared-pixel tracking error over frames 1 .. n-1.

    Visible joints and visible tracked vertices of all frames are posed,
    projected, and compared with their tracks in one pass.  Points that
    land behind the camera drop out of the sum (counted in
    ``dropped_terms``) instead of producing NaN.  Frame 0 is pinned and
    contributes nothing.
    """
    _check_scene(params, mesh, s, weights, tracks)
    cam = tracks.camera
    sub_verts = mesh.vertices[tracks.vertex_subset]
    sub_w = weights.matrix[tracks.vertex_subset]
    mask = np.concatenate([tracks.joint_visibility, tracks.vertex_visibility])
    observed = np.concatenate(
        [tracks.joint_tracks[1:], tracks.vertex_tracks[1:]], axis=1
    )

    cache, points = pose_clip(
        s, sub_verts, sub_w, params.root_quats, params.root_trans, params.joint_quats
    )
    uv, _, valid = project(cam, points)
    use = mask & valid
    dropped = int(np.sum(mask & ~valid))
    res = (uv - observed) * use[..., None]
    total = float(np.sum(res**2))
    if not with_grad:
        return LossResult(total, None, dropped)

    d_points = project_vjp(cam, points, 2.0 * res)
    j = s.joint_count
    dG = posed_joint_positions_vjp(cache, d_points[:, :j])
    dG += lbs_vjp(sub_verts, sub_w, d_points[:, j:])
    g_jq, g_rq, g_rt = fk_backward(cache, dG)
    return LossResult(total, AnimParams(g_rq, g_rt, g_jq), dropped)


def _geo_sq_pair_grads(a: np.ndarray, b: np.ndarray):
    """Squared geodesic angle between quaternion stacks plus raw-space grads.

    Returns (theta^2 array, grad wrt a, grad wrt b); inputs need not be
    normalized, gradients account for the internal normalization.
    """
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    ua = a / na
    ub = b / nb
    d = np.sum(ua * ub, axis=-1)
    c = np.clip(np.abs(d), 0.0, 1.0)
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    theta = 2.0 * np.arccos(c)
    # d(theta^2)/dc = -8 * arccos(c)/sqrt(1-c^2); the ratio tends to 1 at c=1.
    ratio = np.where(s > 1e-8, np.arccos(c) / np.where(s > 1e-8, s, 1.0), 1.0)
    dc = -8.0 * ratio
    dd = dc * np.sign(d)
    g_ua = dd[..., None] * ub
    g_ub = dd[..., None] * ua
    g_a = (g_ua - ua * np.sum(ua * g_ua, axis=-1, keepdims=True)) / na
    g_b = (g_ub - ub * np.sum(ub * g_ub, axis=-1, keepdims=True)) / nb
    return theta * theta, g_a, g_b


def smoothness_regularizer(params: AnimParams, *, with_grad: bool = True) -> LossResult:
    """Frame-to-frame smoothness penalty over the whole clip.

    Sums squared geodesic angles between consecutive quaternions (per
    joint and for the root motion) plus squared root-translation steps;
    the identity frame 0 anchors the first pair.
    """
    rq, rt, jq = params_to_animation(params)
    n = params.frame_count
    jt_sq, g_ja, g_jb = _geo_sq_pair_grads(jq[:-1], jq[1:])
    rt_sq, g_ra, g_rb = _geo_sq_pair_grads(rq[:-1], rq[1:])
    t_diff = rt[1:] - rt[:-1]
    value = float(np.sum(jt_sq) + np.sum(rt_sq) + np.sum(t_diff**2))
    if not with_grad:
        return LossResult(value, None, 0)

    m = n - 1
    g_jq = np.zeros((m, params.joint_count, 4))
    g_rq = np.zeros((m, 4))
    g_rt = np.zeros((m, 3))
    # Pair i joins frames (i, i+1); frame f >= 1 owns parameter slot f-1.
    g_jq += g_jb  # each frame 1..n-1 as the 'b' of pair i=f-1
    g_rq += g_rb
    g_jq[: m - 1] += g_ja[1:]  # frames 1..n-2 also appear as the 'a' of pair f
    g_rq[: m - 1] += g_ra[1:]
    g_rt += 2.0 * t_diff
    g_rt[: m - 1] -= 2.0 * t_diff[1:]
    return LossResult(value, AnimParams(g_rq, g_rt, g_jq), 0)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizeConfig:
    """Adam-style optimization settings.

    ``reg_weight`` scales the smoothness regularizer against the tracking
    loss (the tracking term dominates by design).  ``lr_floor`` enables
    cosine decay of the learning rate down to that floor when set.
    """

    learning_rate: float = 0.01
    iterations: int = 1000
    reg_weight: float = 1e-3
    plateau_window: int = 50
    plateau_rtol: float = 1e-6
    divergence_factor: float = 1e3
    divergence_warmup: int = 10
    lr_floor: float | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not (np.isfinite(self.reg_weight) and self.reg_weight >= 0):
            raise ValueError("reg_weight must be finite and non-negative")


@dataclass(frozen=True)
class OptimizeResult:
    params: AnimParams
    trace: np.ndarray  # best-so-far objective per iteration (non-increasing)
    iterations: int
    converged: bool
    dropped_terms: int


def _objective(params, mesh, s, weights, tracks, config):
    track = tracking_loss(params, mesh, s, weights, tracks, with_grad=True)
    reg = smoothness_regularizer(params, with_grad=True)
    value = track.value + config.reg_weight * reg.value
    grad = track.grads.flatten() + config.reg_weight * reg.grads.flatten()
    return value, grad, track.dropped_terms


def optimize(
    mesh: Mesh,
    s: Skeleton,
    weights: SkinWeights,
    tracks: TrackSet,
    config: OptimizeConfig = OptimizeConfig(),
) -> OptimizeResult:
    """Recover per-frame pose parameters from 2-d tracks.

    Deterministic Adam from the identity clip: quaternions are
    re-normalized after every step, the returned trace is the best-so-far
    envelope (non-increasing), a plateau in that envelope stops early, and
    a non-finite loss, or one exceeding ``divergence_factor`` times the
    initial loss, raises :class:`DivergenceError`.
    """
    n = tracks.frame_count
    j = s.joint_count
    params = AnimParams.identity(n, j)
    if n < 2:
        return OptimizeResult(params, np.zeros(0), 0, True, 0)

    x = params.flatten()
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    best_value = np.inf
    best_x = x.copy()
    trace: list[float] = []
    initial = None
    dropped_total = 0
    converged = False
    it = 0

    for it in range(config.iterations):
        value, grad, dropped = _objective(
            AnimParams.from_flat(x, n, j), mesh, s, weights, tracks, config
        )
        dropped_total += dropped
        if initial is None:
            initial = value
        if value < best_value:
            best_value = value
            best_x = x.copy()
        trace.append(best_value)

        if not np.isfinite(value):
            raise DivergenceError(f"objective is {value} at iteration {it}")
        if (
            it >= config.divergence_warmup
            and value > config.divergence_factor * max(initial, 1e-12)
        ):
            raise DivergenceError(
                f"objective {value:.6g} exceeded {config.divergence_factor:g} x "
                f"initial {initial:.6g} at iteration {it}"
            )
        w = config.plateau_window
        if it >= w:
            then = trace[it - w]
            if then - trace[it] < config.plateau_rtol * max(abs(then), 1e-30):
                converged = True
                break

        lr = config.learning_rate
        if config.lr_floor is not None and config.iterations > 1:
            span = config.learning_rate - config.lr_floor
            lr = config.lr_floor + 0.5 * span * (
                1.0 + np.cos(np.pi * it / (config.iterations - 1))
            )
        m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * grad
        m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * grad * grad
        hat1 = m1 / (1.0 - ADAM_BETA1 ** (it + 1))
        hat2 = m2 / (1.0 - ADAM_BETA2 ** (it + 1))
        x = x - lr * hat1 / (np.sqrt(hat2) + ADAM_EPS)
        # Project every quaternion back onto the unit sphere, in place
        # through views of the per-frame rows.
        rows = x.reshape(n - 1, 7 + 4 * j)
        for q in (rows[:, :4], rows[:, 7:].reshape(n - 1, j, 4)):
            q /= np.linalg.norm(q, axis=-1, keepdims=True)

    return OptimizeResult(
        params=AnimParams.from_flat(best_x, n, j).normalized(),
        trace=np.asarray(trace),
        iterations=it + 1,
        converged=converged,
        dropped_terms=dropped_total,
    )
