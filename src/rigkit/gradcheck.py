"""Central-difference verification of every analytic gradient in the library.

Each check builds a random instance, reduces the kernel output to a scalar
through a fixed random weighting, and compares the analytic gradient of
that scalar against central finite differences at double precision,
Richardson-extrapolated where the plain difference misses ``REL_TOL``.
The CLI exposes the same battery as ``rigkit grad-check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import animate, kernels
from .codec import VOCAB_SIZE
from .core import Mesh, Skeleton, SkinWeights, _require_int, graph_distance_matrix
from .geometry import Camera
from .quat import normalize as quat_normalize

FD_STEP = 1e-5
REL_TOL = 1e-4
# Magnitude below which an error counts as absolute rather than relative.
REL_FLOOR = 1e-6
# Floats in one stack of perturbed inputs handed to the function under test,
# large enough to amortize its per-call cost: 35 pairs, 70-row stacks, on the
# cross-entropy check's 9 x 203 logits, so 53 calls per instance; every other
# check's whole pass fits in one stack.  Measured on a 2-vCPU Xeon (glibc
# malloc, RIGKIT_THREADS=1): the stack buffer and the kernel's one
# stack-sized temporary (about 1.0 and 0.7 MB) are freed mmapped chunks, which
# raise glibc's mmap threshold above the tracking check's blend temporaries,
# so those stop being mapped afresh on every call (5,600-5,900 minor faults
# per warm 20 instances at 1 << 15, none here).
FD_CHUNK_FLOATS = 1 << 17


def central_difference(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       step: float = FD_STEP) -> np.ndarray:
    """Two-sided finite differences of a scalar function of ``x``.

    ``f`` maps a stack (m, *x.shape) to its m values.  Each element's +step
    and -step copies of ``x`` are rows of one stack, evaluated in chunks of
    at most ``FD_CHUNK_FLOATS`` floats (one pair of rows where that is
    larger).  One buffer of copies of ``x`` serves the whole pass: each chunk
    writes its perturbations, hands ``f`` a read-only view of its leading
    rows and restores them, so an ``f`` that writes its input raises; ``x``
    itself is never written.  Where ``f`` evaluates each row as it would
    evaluate that row alone, the result is bitwise the element-by-element
    loop's.
    """
    x = np.asarray(x, dtype=np.float64)
    xf = x.ravel()
    grad = np.empty(xf.size)
    pairs = max(1, min(xf.size, FD_CHUNK_FLOATS // max(2 * xf.size, 1)))
    buf = np.empty((2 * pairs, xf.size))
    buf[...] = xf
    frozen = buf.view()
    frozen.flags.writeable = False
    for lo in range(0, xf.size, pairs):
        idx = np.arange(lo, min(lo + pairs, xf.size))
        rows = np.arange(idx.size)
        # Every row of buf is x between chunks, so the leading 2 * idx.size
        # rows are this chunk's stack whatever its size.
        stack = buf[: 2 * idx.size].reshape(2, idx.size, xf.size)
        stack[0, rows, idx] = xf[idx] + step
        stack[1, rows, idx] = xf[idx] - step
        values = np.asarray(f(frozen[: 2 * idx.size].reshape((-1,) + x.shape)),
                            dtype=np.float64)
        grad[idx] = (values[: idx.size] - values[idx.size :]) / (2.0 * step)
        stack[:, rows, idx] = xf[idx]
    return grad.reshape(x.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / scale))


def fd_relative_error(analytic: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
                      x: np.ndarray) -> float:
    """Max relative error of an analytic gradient of f at x against FD.

    A central difference at step h is off by O(h^2) truncation error, which
    on a steep instance can exceed ``REL_TOL`` with a correct gradient.
    Where the plain estimate misses ``REL_TOL``, a second pass at h/2
    gives the Richardson estimate (4 D(h/2) - D(h)) / 3, off by O(h^4), and
    its error is reported instead.  Passing instances pay nothing extra.
    """
    coarse = central_difference(f, x)
    err = max_relative_error(analytic, coarse)
    if err < REL_TOL:
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


def _probe_sums(out: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """sum(out * probe) for each row of a stack of kernel outputs."""
    return (out * probe).reshape(-1, probe.size).sum(axis=1)


def _check(f: Callable[..., np.ndarray], args, grads) -> float:
    """One FD pass of ``f`` at ``args`` against its analytic ``grads``.

    The inputs and the gradients are each concatenated into one vector, so
    every element of every input is perturbed in the same pass.  ``f``
    takes one stack per argument, leading axis first, and returns one
    value per row.
    """
    args = [np.asarray(a, dtype=np.float64) for a in args]
    ends = np.cumsum([a.size for a in args]).tolist()
    parts = [(lo, hi, (-1,) + a.shape) for a, lo, hi in zip(args, [0] + ends, ends)]
    return fd_relative_error(
        np.concatenate([np.ravel(g) for g in grads]),
        lambda stack: f(*[stack[:, lo:hi].reshape(shape) for lo, hi, shape in parts]),
        np.concatenate([a.ravel() for a in args]),
    )


def _check_attention(rng: np.random.Generator) -> float:
    h, n, d = 2, 5, 4
    q = rng.standard_normal((h, n, d))
    k = rng.standard_normal((h, n, d))
    v = rng.standard_normal((h, n, d))
    # The paper's bias: hop counts on a random n-joint tree, reaching past
    # the table's last level (2) so that clamped levels are exercised too.
    table = 0.1 * rng.standard_normal((3, h))
    parents = np.concatenate([[-1], rng.integers(0, np.arange(1, n))])
    dist = graph_distance_matrix(Skeleton(np.zeros((n, 3)), parents))
    lam = float(rng.uniform(0.2, 1.5))
    probe = rng.standard_normal((h, n, d))

    def sums(q_, k_, v_, tab_, lam_):
        bias = kernels.distance_embedding(dist, tab_)
        out, _ = kernels.topology_aware_attention(q_, k_, v_, bias, lam_)
        return _probe_sums(out, probe)

    bias = kernels.distance_embedding(dist, table)
    gq, gk, gv, gbias, glam = kernels.topology_aware_attention_vjp(
        q, k, v, bias, lam, probe
    )
    gtab = kernels.distance_embedding_vjp(dist, table, gbias)
    return _check(sums, [q, k, v, table, lam], [gq, gk, gv, gtab, glam])


def _check_skinning_head(rng: np.random.Generator) -> float:
    n, j, d = 7, 4, 5
    p = rng.standard_normal((n, d))
    b = rng.standard_normal((j, d))
    alpha = float(rng.uniform(0.5, 3.0))
    probe = rng.standard_normal((n, j))

    def sums(p_, b_, a_):
        return _probe_sums(kernels.skinning_head(p_, b_, a_), probe)

    return _check(sums, [p, b, alpha], kernels.skinning_head_vjp(p, b, alpha, probe))


def _check_cross_entropy(rng: np.random.Generator) -> float:
    length = 9
    logits = rng.standard_normal((length, VOCAB_SIZE))
    targets = rng.integers(0, VOCAB_SIZE, size=length)
    mask = rng.random(length) < 0.7
    if not mask.any():
        mask[0] = True

    # The public gradient validates the instance once; its FD stacks go to the core.
    g = kernels.next_token_cross_entropy_grad(logits, targets, mask)
    return _check(lambda a: kernels._ce_core(a, targets, mask), [logits], [g])


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
    jt, vt = animate._render_tracks(
        mesh, s, weights, np.arange(v), cam, *animate.params_to_animation(truth)
    )
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


def _near_identity_quats(rng: np.random.Generator, shape) -> np.ndarray:
    q = 0.3 * rng.standard_normal(tuple(shape) + (4,))
    q[..., 0] += 1.0
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def _check_clip(evaluate: Callable, params: animate.AnimParams) -> float:
    """FD check at ``params`` of a clip term called as ``_Fit.evaluate`` and
    ``_smoothness`` are, returning its values first and its gradients last."""
    clip = (params.root_quats, params.root_trans, params.joint_quats)
    return _check(lambda *stacks: evaluate(*stacks, False)[0], clip, evaluate(*clip, True)[-1])


def _check_tracking_loss(rng: np.random.Generator) -> float:
    mesh, s, weights, tracks, params = _random_scene(rng)
    return _check_clip(animate._Fit(mesh, s, weights, tracks).evaluate, params)


def _check_smoothness(rng: np.random.Generator) -> float:
    j, n = 4, 5
    params = animate.AnimParams(
        root_quats=_near_identity_quats(rng, (n - 1,)),
        root_trans=0.2 * rng.standard_normal((n - 1, 3)),
        joint_quats=_near_identity_quats(rng, (n - 1, j)),
    )
    return _check_clip(animate._smoothness, params)


_CHECKS: dict[str, Callable[[np.random.Generator], float]] = {
    "topology_aware_attention": _check_attention,
    "skinning_head": _check_skinning_head,
    "next_token_cross_entropy": _check_cross_entropy,
    "tracking_loss": _check_tracking_loss,
    "smoothness_regularizer": _check_smoothness,
}


def run_all(seed: int = 0, instances: int = 20) -> list[GradCheckResult]:
    """Run every gradient check ``instances`` times; worst error per kernel."""
    _require_int(instances, "instances", 1)
    _require_int(seed, "seed", 0)
    results = []
    for name, check in _CHECKS.items():
        rng = np.random.default_rng(seed)
        # np.max keeps a NaN error, where max() would drop it.
        worst = float(np.max([check(rng) for _ in range(instances)]))
        results.append(GradCheckResult(name, instances, worst, REL_TOL))
    return results
