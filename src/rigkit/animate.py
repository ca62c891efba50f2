"""Track-guided animation: visibility, losses, and the pose optimizer.

A clip of n frames is parameterized by frames 1 .. n-1 only; frame 0 is
pinned to the identity (rest) pose and never enters the parameters, so it
stays bitwise fixed through optimization.  Each frame carries a root
motion (quaternion + translation) and one local quaternion per joint, and
every clip function takes them as three arrays in the order (root_quats,
root_trans, joint_quats), which ``optimize`` steps directly.

A fit poses its tracked points (the joints, then a vertex subset) straight
into camera space: one `fk_forward`, the camera rotation folded into the
joint transforms, one blend through a basis w (x) [x, 1] that the fit
builds once, then the camera translation.  The pinhole, the residuals and
their VJP work on the three coordinate arrays directly, and the backward
runs the blend's VJP, the rotation's transpose and `fk_backward`.  Track
synthesis renders through the same map, so a fit at the ground truth
reads exactly zero.  World-space posing of whole meshes is
`deform.pose_clip`, through the same blend.

Visibility is decided once, on frame-0 geometry, and the resulting masks
gate the tracking loss for the whole clip: a joint is visible when the
camera-to-joint segment crosses the mesh exactly once (the crossing may be
at the joint itself, within a small band); a vertex is visible when the
first surface hit toward it lies within EPS_GEO of the vertex's own
distance.  The exactly-once rule deliberately counts a joint resting just
under the front surface as visible.

The clip terms, ``_Fit.evaluate`` and ``_smoothness``, return exact analytic
gradients; finite-difference agreement is enforced by the test-suite.
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
    _frozen,
    _require_finite,
    _require_int,
    _require_json_floats,
    _require_json_type,
    _require_real,
    canonical_json,
    require_valid,
)
from .deform import FkCache, _BlendBasis, fk_backward, fk_forward
from .geometry import (
    Camera,
    _pinhole,
    crossing_counts,
    first_hit_distances,
    point_inside_mesh,
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
    joint_quats (n-1, j, 4); quaternions w-first, every entry finite.
    Frame 0 is implicit identity.
    """

    root_quats: np.ndarray
    root_trans: np.ndarray
    joint_quats: np.ndarray

    def __post_init__(self):
        rq, rt, jq = _frozen(
            self, root_quats=np.float64, root_trans=np.float64, joint_quats=np.float64
        )
        if rq.ndim != 2 or rq.shape[1] != 4:
            raise ValueError("root_quats must be (frames-1, 4)")
        n = rq.shape[0]
        if rt.shape != (n, 3):
            raise ValueError("root_trans must be (frames-1, 3)")
        if jq.ndim != 3 or jq.shape[0] != n or jq.shape[2] != 4:
            raise ValueError("joint_quats must be (frames-1, joints, 4)")
        _require_finite("animation parameters contain NaN or Inf", rq, rt, jq)

    @property
    def frame_count(self) -> int:
        return self.root_quats.shape[0] + 1

    @property
    def joint_count(self) -> int:
        return self.joint_quats.shape[1]

    @classmethod
    def identity(cls, frame_count: int, joint_count: int) -> "AnimParams":
        _require_int(frame_count, "frame_count", 1)
        _require_int(joint_count, "joint_count", 1)
        # frame_count - 1 clips without free frames, each given its frame 0.
        empty = (np.zeros((frame_count - 1, 0) + s) for s in ((4,), (3,), (joint_count, 4)))
        return cls(*(a[:, 0] for a in _with_rest_frame(*empty)))


def _with_rest_frame(
    root_quats: np.ndarray, root_trans: np.ndarray, joint_quats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames 1 .. n-1 with any leading axes, preceded by the identity frame 0;
    the one place that writes that frame."""
    lead, (m, j) = joint_quats.shape[:-3], joint_quats.shape[-3:-1]
    rq = np.zeros(lead + (m + 1, 4))
    rt = np.zeros(lead + (m + 1, 3))
    jq = np.zeros(lead + (m + 1, j, 4))
    rq[..., 0] = jq[..., 0] = 1.0
    rq[..., 1:, :] = root_quats
    rt[..., 1:, :] = root_trans
    jq[..., 1:, :, :] = joint_quats
    return rq, rt, jq


def params_to_animation(params: AnimParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand to explicit per-frame arrays including the identity frame 0."""
    return _with_rest_frame(params.root_quats, params.root_trans, params.joint_quats)


def params_from_animation(
    root_quats: np.ndarray, root_trans: np.ndarray, joint_quats: np.ndarray
) -> AnimParams:
    """Build params from explicit frames; frame 0 must be the identity pose."""
    clip = [np.asarray(a, dtype=np.float64) for a in (root_quats, root_trans, joint_quats)]
    _require_finite("animation parameters contain NaN or Inf", *(a[0] for a in clip))
    rest = _with_rest_frame(*(a[:0] for a in clip))
    if any(np.max(np.abs(a[0] - r[0])) > 1e-6 for a, r in zip(clip, rest)):
        raise ValueError("frame 0 must be the identity pose")
    return AnimParams(*(a[1:] for a in clip))


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


def vertex_visibility(mesh: Mesh, camera: Camera) -> np.ndarray:
    """Mask of vertices whose first camera hit lies within EPS_GEO of them.

    One unit-length ray per vertex from the camera centre; a vertex at the
    centre itself is invisible.
    """
    origin = camera.center
    directions = mesh.vertices - origin
    dist = np.linalg.norm(directions, axis=1)
    cast = dist > 0
    visible = np.zeros(mesh.vertex_count, dtype=bool)
    t = first_hit_distances(mesh, origin, directions[cast] / dist[cast, None])
    visible[cast] = np.abs(t - dist[cast]) <= EPS_GEO
    return visible


# ---------------------------------------------------------------------------
# Posing
# ---------------------------------------------------------------------------


def _tracked_points(
    s: Skeleton, mesh: Mesh, weights: SkinWeights, subset: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rest positions and weight rows of a clip's tracked points.

    The joints come first, each an LBS point whose weight row is all on
    its own joint, so G_k maps it to its posed position; the ``subset``
    vertices follow with their rows of the weight matrix.
    """
    points = np.concatenate([s.joints, mesh.vertices[subset]])
    rows = np.concatenate([np.eye(s.joint_count), weights.matrix[subset]])
    return points, rows


def _pose_in_camera(
    s: Skeleton,
    basis: _BlendBasis,
    camera: Camera,
    root_quats: np.ndarray,
    root_trans: np.ndarray,
    joint_quats: np.ndarray,
) -> tuple[FkCache, np.ndarray]:
    """Posed tracked points of every frame, straight in camera space.

    The camera rotation R is folded into the joint transforms, so the
    basis blends R G_k and the camera translation is added once:
    sum_k w_k R G_k [x, 1] + t.  Only the rotation is folded, so weight
    rows need not sum to 1.  Takes the raw arrays as
    :func:`rigkit.deform.pose_clip` does; returns the FK cache and the
    points coordinate-major, (..., 3, p).
    """
    cache = fk_forward(s, root_quats, root_trans, joint_quats)
    cam = basis.apply(camera.rotation @ cache.globals_)
    cam += camera.translation[:, None]
    return cache, cam


def _pinhole_vjp(
    camera: Camera, x: np.ndarray, y: np.ndarray, safe_z: np.ndarray,
    grad_u: np.ndarray, grad_v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients wrt x, y and z of :func:`rigkit.geometry._pinhole`'s u
    and v; ``grad_u`` and ``grad_v`` must be zero where a point is invalid."""
    d_x = camera.fx * grad_u / safe_z
    d_y = camera.fy * grad_v / safe_z
    d_z = -(camera.fx * x * grad_u + camera.fy * y * grad_v) / (safe_z * safe_z)
    return d_x, d_y, d_z


def _render_tracks(
    mesh: Mesh,
    s: Skeleton,
    weights: SkinWeights,
    subset: np.ndarray,
    camera: Camera,
    root_quats: np.ndarray,
    root_trans: np.ndarray,
    joint_quats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel tracks of a clip's tracked points posed as a fit poses them:
    the joints' (..., j, 2), then the ``subset`` vertices' (..., v_s, 2).
    A point behind the camera gets (0, 0)."""
    basis = _BlendBasis(*_tracked_points(s, mesh, weights, subset))
    _, cam = _pose_in_camera(s, basis, camera, root_quats, root_trans, joint_quats)
    u, v, valid, _ = _pinhole(camera, *np.moveaxis(cam, -2, 0))
    uv = np.stack([u, v], axis=-1)
    uv[~valid] = 0.0
    return uv[..., : s.joint_count, :], uv[..., s.joint_count :, :]


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
        jt, vt, vs, jv, vv = _frozen(
            self, joint_tracks=np.float64, vertex_tracks=np.float64,
            vertex_subset=np.int64, joint_visibility=bool, vertex_visibility=bool,
        )
        if jt.ndim != 3 or jt.shape[2] != 2:
            raise ValueError("joint_tracks must be (frames, joints, 2)")
        if vt.ndim != 3 or vt.shape[2] != 2 or vt.shape[0] != jt.shape[0]:
            raise ValueError("vertex_tracks must be (frames, subset, 2)")
        if vs.shape != (vt.shape[1],):
            raise ValueError("vertex_subset must align with vertex_tracks")
        if jv.shape != (jt.shape[1],) or vv.shape != (vt.shape[1],):
            raise ValueError("visibility masks must align with tracks")
        _require_finite("tracks contain NaN or Inf", jt, vt)

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
    """The tracks a parsed track JSON holds; the subset and masks must be JSON lists."""
    try:
        return TrackSet(
            camera=Camera.from_dict(data["camera"]),
            joint_tracks=_require_json_floats(data["joint_tracks"], "joint_tracks"),
            vertex_tracks=_require_json_floats(data["vertex_tracks"], "vertex_tracks"),
            vertex_subset=_require_json_type(data["vertex_subset"], int, "vertex_subset"),
            joint_visibility=_require_json_type(
                data["joint_visibility"], bool, "joint_visibility"
            ),
            vertex_visibility=_require_json_type(
                data["vertex_visibility"], bool, "vertex_visibility"
            ),
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
    _require_real(noise_px, "noise_px", 0, False)
    _require_int(vertex_count, "vertex_count", 1)
    _require_int(seed, "seed", 0)
    jvis = joint_visibility(mesh, s, camera)
    vvis_all = vertex_visibility(mesh, camera)
    candidates = np.flatnonzero(vvis_all)
    if candidates.size == 0:
        raise ValueError("no visible vertices to track")
    rng = np.random.default_rng(seed)
    count = min(vertex_count, candidates.size)
    subset = np.sort(rng.choice(candidates, size=count, replace=False))

    joint_tracks, vertex_tracks = _render_tracks(
        mesh, s, weights, subset, camera, *params_to_animation(params)
    )
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


class _Fit:
    """A track fit's fixed inputs, validated and gathered once for every evaluation."""

    def __init__(self, mesh: Mesh, s: Skeleton, weights: SkinWeights, tracks: TrackSet):
        require_valid(s)
        if tracks.joint_tracks.shape[1] != s.joint_count:
            raise ValueError("joint tracks do not match skeleton")
        weights.require_fits(mesh, s)
        subset = tracks.vertex_subset
        if subset.size and (subset.min() < 0 or subset.max() >= mesh.vertex_count):
            raise ValueError("vertex subset indices must lie in [0, mesh vertex count)")
        self.s = s
        self.camera = tracks.camera
        self.frame_count = tracks.frame_count
        self.basis = _BlendBasis(*_tracked_points(s, mesh, weights, subset))
        self.mask = np.concatenate([tracks.joint_visibility, tracks.vertex_visibility])
        observed = np.concatenate(
            [tracks.joint_tracks[1:], tracks.vertex_tracks[1:]], axis=1
        )
        self.observed_u, self.observed_v = np.moveaxis(observed, -1, 0).copy()

    def evaluate(
        self,
        root_quats: np.ndarray,
        root_trans: np.ndarray,
        joint_quats: np.ndarray,
        with_grad: bool,
    ) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """Masked squared-pixel tracking loss of clips given as raw arrays.

        The arrays hold frames 1 .. n-1 as :class:`AnimParams` does (frame 0
        is pinned), with any leading axes in front; quaternions may be
        unnormalized.  Returns the values (...), the counts (...) of terms
        dropped because their point lies behind the camera (never NaN) and,
        with ``with_grad``, the gradients (root quats, root trans, joint
        quats) shaped like the inputs, else None."""
        shape = joint_quats.shape
        if len(shape) < 3 or shape[-2:] != (self.s.joint_count, 4):
            raise ValueError("params joint count does not match skeleton")
        if shape[-3] != self.frame_count - 1:
            raise ValueError("tracks and params must cover the same frames")
        if root_quats.shape != shape[:-2] + (4,) or root_trans.shape != shape[:-2] + (3,):
            raise ValueError("root motion must match the joint quats' frames")
        cache, cam = _pose_in_camera(
            self.s, self.basis, self.camera, root_quats, root_trans, joint_quats
        )
        x, y, z = np.moveaxis(cam, -2, 0)
        u, v, valid, safe_z = _pinhole(self.camera, x, y, z)
        use = self.mask & valid
        dropped = np.sum(self.mask & ~valid, axis=(-2, -1))
        # In place, to spare temporaries: the pixels become the residuals
        # (zero for unused terms), then the gradients 2 r of the values.
        for r, observed in ((u, self.observed_u), (v, self.observed_v)):
            r -= observed
            r *= use
        values = np.sum(u * u + v * v, axis=(-2, -1))
        if not with_grad:
            return values, dropped, None

        u *= 2.0
        v *= 2.0
        d_cam = _pinhole_vjp(self.camera, x, y, safe_z, u, v)
        d_rows = self.camera.rotation.T @ self.basis.vjp(*d_cam)
        return values, dropped, fk_backward(cache, d_rows)


def _geo_sq_pairs(a: np.ndarray, b: np.ndarray, with_grad: bool):
    """Squared geodesic angle between quaternion stacks plus raw-space grads.

    Returns (theta^2 array, grad wrt a, grad wrt b), the grads None without
    ``with_grad``; inputs need not be normalized, gradients account for the
    internal normalization.
    """
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    ua = a / na
    ub = b / nb
    d = np.sum(ua * ub, axis=-1)
    c = np.clip(np.abs(d), 0.0, 1.0)
    theta = 2.0 * np.arccos(c)
    if not with_grad:
        return theta * theta, None, None
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    # d(theta^2)/dc = -8 * arccos(c)/sqrt(1-c^2); the ratio tends to 1 at c=1.
    ratio = np.where(s > 1e-8, np.arccos(c) / np.where(s > 1e-8, s, 1.0), 1.0)
    dc = -8.0 * ratio
    dd = dc * np.sign(d)
    g_ua = dd[..., None] * ub
    g_ub = dd[..., None] * ua
    g_a = (g_ua - ua * np.sum(ua * g_ua, axis=-1, keepdims=True)) / na
    g_b = (g_ub - ub * np.sum(ub * g_ub, axis=-1, keepdims=True)) / nb
    return theta * theta, g_a, g_b


def _smoothness(
    root_quats: np.ndarray,
    root_trans: np.ndarray,
    joint_quats: np.ndarray,
    with_grad: bool,
) -> tuple[np.ndarray, tuple | None]:
    """Squared geodesic angles between consecutive joint and root quaternions
    plus squared root-translation steps, frame 0 anchoring the first pair, of
    clips as :meth:`_Fit.evaluate` takes them: values (...) and, with
    ``with_grad``, the gradients shaped like the inputs, else None.

    The root motion is quaternion column j, as in ``fk_forward``, so one
    pass gives every pair; the joints' sum comes first, then the root's."""
    rq, rt, jq = _with_rest_frame(root_quats, root_trans, joint_quats)
    q = np.concatenate([jq, rq[..., None, :]], axis=-2)
    sq, g_a, g_b = _geo_sq_pairs(q[..., :-1, :, :], q[..., 1:, :, :], with_grad)
    t_diff = rt[..., 1:, :] - rt[..., :-1, :]
    values = (
        np.sum(sq[..., :-1], axis=(-2, -1)) + np.sum(sq[..., -1], axis=-1)
        + np.sum(t_diff**2, axis=(-2, -1))
    )
    if not with_grad:
        return values, None

    # Pair i joins frames (i, i+1); the pinned frame 0's row is dropped.
    g_q = np.zeros_like(q)
    g_rt = np.zeros_like(rt)
    g_q[..., 1:, :, :] += g_b
    g_q[..., :-1, :, :] += g_a
    g_rt[..., 1:, :] += 2.0 * t_diff
    g_rt[..., :-1, :] -= 2.0 * t_diff
    return values, (g_q[..., 1:, -1, :], g_rt[..., 1:, :], g_q[..., 1:, :-1, :])


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
        _require_int(self.iterations, "iterations", 1)
        _require_int(self.plateau_window, "plateau_window", 1)
        _require_int(self.divergence_warmup, "divergence_warmup", 0)
        _require_real(self.learning_rate, "learning_rate", 0, True)
        _require_real(self.reg_weight, "reg_weight", 0, False)
        _require_real(self.plateau_rtol, "plateau_rtol", 0, False)
        _require_real(self.divergence_factor, "divergence_factor", 1, True)
        if self.lr_floor is not None:
            _require_real(self.lr_floor, "lr_floor", 0, False)


@dataclass(frozen=True)
class OptimizeResult:
    params: AnimParams
    trace: np.ndarray  # best-so-far objective per iteration (non-increasing)
    iterations: int
    converged: bool
    dropped_terms: int
    """Masked-in tracking terms whose point lay at or behind the camera plane
    (z <= CAMERA_Z_EPS), summed over all ``iterations`` evaluations."""


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
    fit = _Fit(mesh, s, weights, tracks)
    params = AnimParams.identity(tracks.frame_count, s.joint_count)
    if tracks.frame_count < 2:
        return OptimizeResult(params, np.zeros(0), 0, True, 0)

    # The clip's three arrays and Adam's moments of each, stepped in place.
    clip = [np.array(a) for a in (params.root_quats, params.root_trans, params.joint_quats)]
    m1 = [np.zeros_like(a) for a in clip]
    m2 = [np.zeros_like(a) for a in clip]
    best_value = np.inf
    best = clip
    trace: list[float] = []
    initial = None
    dropped_total = 0
    converged = False
    it = 0

    for it in range(config.iterations):
        track, dropped, track_grads = fit.evaluate(*clip, True)
        reg, reg_grads = _smoothness(*clip, True)
        value = float(track) + config.reg_weight * float(reg)
        dropped_total += int(dropped)
        if initial is None:
            initial = value
        if value < best_value:
            best_value = value
            best = [a.copy() for a in clip]
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
        for a, first, second, g_track, g_reg in zip(clip, m1, m2, track_grads, reg_grads):
            grad = g_track + config.reg_weight * g_reg
            first[...] = ADAM_BETA1 * first + (1.0 - ADAM_BETA1) * grad
            second[...] = ADAM_BETA2 * second + (1.0 - ADAM_BETA2) * grad * grad
            hat1 = first / (1.0 - ADAM_BETA1 ** (it + 1))
            hat2 = second / (1.0 - ADAM_BETA2 ** (it + 1))
            a -= lr * hat1 / (np.sqrt(hat2) + ADAM_EPS)
        # Project every quaternion back onto the unit sphere.
        for q in (clip[0], clip[2]):
            q /= np.linalg.norm(q, axis=-1, keepdims=True)

    return OptimizeResult(
        params=AnimParams(quat.normalize(best[0]), best[1], quat.normalize(best[2])),
        trace=np.asarray(trace),
        iterations=it + 1,
        converged=converged,
        dropped_terms=dropped_total,
    )
