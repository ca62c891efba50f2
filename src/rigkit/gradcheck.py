"""Central-difference verification of every analytic gradient in the library.

Each check builds a random instance, reduces the kernel output to a scalar
through a fixed random weighting, and compares the analytic gradient of
that scalar against central finite differences at double precision,
Richardson-extrapolated where the plain difference misses the tolerance.
The CLI exposes the same battery as ``rigkit grad-check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import animate, kernels
from .codec import VOCAB_SIZE
from .core import Mesh, Skeleton, SkinWeights, graph_distance_matrix
from .geometry import Camera, project
from .quat import normalize as quat_normalize

FD_STEP = 1e-5
REL_TOL = 1e-4


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray,
                       step: float = FD_STEP) -> np.ndarray:
    """Two-sided finite differences of a scalar function, element by element."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x)
        xf[i] = orig - step
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def fd_relative_error(analytic: np.ndarray, f: Callable[[np.ndarray], float],
                      x: np.ndarray, tolerance: float = REL_TOL) -> float:
    """Max relative error of an analytic gradient of f at x against FD.

    A central difference at step h is off by O(h^2) truncation error, which
    on a steep instance can exceed the tolerance with a correct gradient.
    Where the plain estimate misses the tolerance, a second pass at h/2
    gives the Richardson estimate (4 D(h/2) - D(h)) / 3, off by O(h^4), and
    its error is reported instead.  Passing instances pay nothing extra.
    """
    coarse = central_difference(f, x)
    err = max_relative_error(analytic, coarse)
    if err < tolerance:
        return err
    fine = central_difference(f, x, FD_STEP / 2.0)
    return max_relative_error(analytic, (4.0 * fine - coarse) / 3.0)


@dataclass(frozen=True)
class GradCheckResult:
    kernel: str
    instances: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _check_attention(rng: np.random.Generator, tol: float = REL_TOL) -> float:
    h, n, d = 2, 5, 4
    q = rng.standard_normal((h, n, d))
    k = rng.standard_normal((h, n, d))
    v = rng.standard_normal((h, n, d))
    # The paper's bias: hop counts on a random n-joint tree, reaching past
    # max_level so that clamped levels are exercised too.
    table = kernels.DistanceEmbeddingTable.random(rng, heads=h, max_level=2)
    parents = np.concatenate([[-1], rng.integers(0, np.arange(1, n))])
    dist = graph_distance_matrix(Skeleton(np.zeros((n, 3)), parents))
    lam = float(rng.uniform(0.2, 1.5))
    probe = rng.standard_normal((h, n, d))

    def scalar(q_, k_, v_, tab_, lam_):
        bias = kernels.distance_embedding(dist, kernels.DistanceEmbeddingTable(tab_))
        out, _ = kernels.topology_aware_attention(q_, k_, v_, bias, lam_)
        return float(np.sum(out * probe))

    bias = kernels.distance_embedding(dist, table)
    gq, gk, gv, gbias, glam = kernels.topology_aware_attention_vjp(
        q, k, v, bias, lam, probe
    )
    gtab = kernels.distance_embedding_vjp(dist, table, gbias)

    errs = [
        fd_relative_error(gq, lambda a: scalar(a, k, v, table.values, lam), q.copy(), tol),
        fd_relative_error(gk, lambda a: scalar(q, a, v, table.values, lam), k.copy(), tol),
        fd_relative_error(gv, lambda a: scalar(q, k, a, table.values, lam), v.copy(), tol),
        fd_relative_error(gtab, lambda a: scalar(q, k, v, a, lam), table.values.copy(), tol),
        fd_relative_error(
            np.array([glam]),
            lambda a: scalar(q, k, v, table.values, float(a[0])), np.array([lam]), tol,
        ),
    ]
    return max(errs)


def _check_skinning_head(rng: np.random.Generator, tol: float = REL_TOL) -> float:
    n, j, d = 7, 4, 5
    p = rng.standard_normal((n, d))
    b = rng.standard_normal((j, d))
    alpha = float(rng.uniform(0.5, 3.0))
    probe = rng.standard_normal((n, j))

    def scalar(p_, b_, a_):
        return float(np.sum(kernels.skinning_head(p_, b_, a_) * probe))

    gp, gb, ga = kernels.skinning_head_vjp(p, b, alpha, probe)
    errs = [
        fd_relative_error(gp, lambda a: scalar(a, b, alpha), p.copy(), tol),
        fd_relative_error(gb, lambda a: scalar(p, a, alpha), b.copy(), tol),
        fd_relative_error(
            np.array([ga]), lambda a: scalar(p, b, float(a[0])), np.array([alpha]), tol,
        ),
    ]
    return max(errs)


def _check_cross_entropy(rng: np.random.Generator, tol: float = REL_TOL) -> float:
    length = 9
    logits = rng.standard_normal((length, VOCAB_SIZE))
    targets = rng.integers(0, VOCAB_SIZE, size=length)
    mask = rng.random(length) < 0.7
    if not mask.any():
        mask[0] = True

    g = kernels.next_token_cross_entropy_grad(logits, targets, mask)
    return fd_relative_error(
        g, lambda a: kernels.next_token_cross_entropy(a, targets, mask), logits.copy(), tol
    )


def _random_scene(rng: np.random.Generator):
    """Small chain rig, random vertices, camera, tracks at pixel-scale error.

    Weights are dense random simplex rows, so every quaternion influences
    some tracked point; tracks come from projecting a nearby ground-truth
    clip, keeping the loss (and with it finite-difference round-off) small
    enough that no gradient component drowns in noise.
    """
    j = 5
    joints = np.zeros((j, 3))
    joints[:, 0] = np.linspace(-0.3, 0.3, j)
    joints[:, 1] = rng.uniform(-0.05, 0.05, j)
    parents = np.arange(-1, j - 1)
    s = Skeleton(joints, parents)

    v = 16
    verts = rng.uniform(-0.35, 0.35, (v, 3))
    tris = np.array([[0, 1, 2]])
    mesh = Mesh(verts, tris)
    w = rng.random((v, j)) + 0.05
    weights = SkinWeights(w / w.sum(axis=1, keepdims=True))

    cam = Camera.look_at(eye=(0.1, 0.2, 1.4), target=(0.0, 0.0, 0.0), fx=800.0)
    n = 4
    params = animate.AnimParams(
        root_quats=_near_identity_quats(rng, (n - 1,)),
        root_trans=0.05 * rng.standard_normal((n - 1, 3)),
        joint_quats=_near_identity_quats(rng, (n - 1, j)),
    )
    truth = animate.AnimParams(
        root_quats=quat_normalize(params.root_quats + 0.01 * rng.standard_normal((n - 1, 4))),
        root_trans=params.root_trans + 0.002 * rng.standard_normal((n - 1, 3)),
        joint_quats=quat_normalize(params.joint_quats + 0.01 * rng.standard_normal((n - 1, j, 4))),
    )
    jt, vt = _render_uv(mesh, s, weights, truth, cam)
    jt = jt + 0.5 * rng.standard_normal(jt.shape)
    vt = vt + 0.5 * rng.standard_normal(vt.shape)

    jvis = rng.random(j) < 0.8
    vvis = rng.random(v) < 0.8
    if not jvis.any():
        jvis[0] = True
    if not vvis.any():
        vvis[0] = True
    tracks = animate.TrackSet(
        camera=cam,
        joint_tracks=jt,
        vertex_tracks=vt,
        vertex_subset=np.arange(v),
        joint_visibility=jvis,
        vertex_visibility=vvis,
    )
    return mesh, s, weights, tracks, params


def _render_uv(mesh, s, weights, params, camera):
    _, points = animate.pose_clip(
        s, mesh.vertices, weights.matrix, *animate.params_to_animation(params)
    )
    uv, _, _ = project(camera, points)
    return uv[:, : s.joint_count], uv[:, s.joint_count :]


def _near_identity_quats(rng: np.random.Generator, shape) -> np.ndarray:
    q = 0.3 * rng.standard_normal(tuple(shape) + (4,))
    q[..., 0] += 1.0
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _check_tracking_loss(rng: np.random.Generator, tol: float = REL_TOL) -> float:
    mesh, s, weights, tracks, params = _random_scene(rng)
    n, j = params.frame_count, params.joint_count

    res = animate.tracking_loss(params, mesh, s, weights, tracks, with_grad=True)
    return fd_relative_error(
        res.grads.flatten(),
        lambda vec: animate.tracking_loss(
            animate.AnimParams.from_flat(vec, n, j),
            mesh, s, weights, tracks, with_grad=False,
        ).value,
        params.flatten(),
        tol,
    )


def _check_smoothness(rng: np.random.Generator, tol: float = REL_TOL) -> float:
    j, n = 4, 5
    params = animate.AnimParams(
        root_quats=_near_identity_quats(rng, (n - 1,)),
        root_trans=0.2 * rng.standard_normal((n - 1, 3)),
        joint_quats=_near_identity_quats(rng, (n - 1, j)),
    )
    res = animate.smoothness_regularizer(params, with_grad=True)
    return fd_relative_error(
        res.grads.flatten(),
        lambda vec: animate.smoothness_regularizer(
            animate.AnimParams.from_flat(vec, n, j), with_grad=False
        ).value,
        params.flatten(),
        tol,
    )


_CHECKS: dict[str, Callable[[np.random.Generator, float], float]] = {
    "topology_aware_attention": _check_attention,
    "skinning_head": _check_skinning_head,
    "next_token_cross_entropy": _check_cross_entropy,
    "tracking_loss": _check_tracking_loss,
    "smoothness_regularizer": _check_smoothness,
}


def run_all(
    seed: int = 0,
    instances: int = 20,
    tolerance: float = REL_TOL,
) -> list[GradCheckResult]:
    """Run every gradient check ``instances`` times; worst error per kernel."""
    if instances < 1:
        raise ValueError("instances must be >= 1")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be finite and positive")
    results = []
    for name, check in _CHECKS.items():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, check(rng, tolerance))
        results.append(GradCheckResult(name, instances, worst, tolerance))
    return results
