"""Rig comparison metrics: chamfer families, skinning accuracy, deformation.

The chamfer metrics treat skeletons as bare geometry (joint point sets and
bone segments) and symmetrize both directions by averaging.  They assume
callers have already brought both rigs into a common normalized frame;
:func:`normalize_skeleton` implements the standard convention (bounding
box into [-0.5, 0.5]^3, the accompanying mesh box when one exists, the
skeleton's own box otherwise).  Values are plain distances in that frame;
report-level scaling (x100) happens at the CLI boundary.
"""

from __future__ import annotations

import numpy as np

from . import quat
from .core import (Mesh, Skeleton, SkinWeights, _require_int, _require_real, bone_segments,
                   require_valid)
from .deform import _BlendBasis, pose_clip, sample_augmented_pose
from .geometry import point_segment_distance

SIGNIFICANT_WEIGHT = 1e-4


def normalize_skeleton(s: Skeleton, box_points: np.ndarray | None = None) -> Skeleton:
    """Center and uniformly scale so the reference box fits [-0.5, 0.5]^3.

    ``box_points`` supplies the reference geometry (typically mesh
    vertices); default is the skeleton's own joints.  Degenerate boxes
    (single point) only translate.
    """
    pts = s.joints if box_points is None else np.asarray(box_points, dtype=np.float64)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = 0.5 * (lo + hi)
    extent = float(np.max(hi - lo))
    scale = 1.0 / extent if extent > 0 else 1.0
    return Skeleton((s.joints - center) * scale, s.parents, s.names)


def _directed_j2j(src: np.ndarray, dst: np.ndarray) -> float:
    d2 = np.sum((src[:, None, :] - dst[None, :, :]) ** 2, axis=2)
    return float(np.mean(np.sqrt(np.min(d2, axis=1))))


def chamfer_j2j(a: Skeleton, b: Skeleton) -> float:
    """Symmetric mean nearest-joint distance between two joint sets."""
    require_valid(a)
    require_valid(b)
    fwd = _directed_j2j(a.joints, b.joints)
    back = _directed_j2j(b.joints, a.joints)
    return 0.5 * (fwd + back)


def _directed_j2b(joints: np.ndarray, other: Skeleton) -> float:
    starts, ends, _ = bone_segments(other)
    d = point_segment_distance(joints, starts, ends)
    return float(np.mean(np.min(d, axis=1)))


def chamfer_j2b(a: Skeleton, b: Skeleton) -> float:
    """Joints of each skeleton against nearest bone segments of the other,
    exact point-to-segment distances, directions averaged."""
    require_valid(a)
    require_valid(b)
    if a.bone_count == 0 or b.bone_count == 0:
        raise ValueError("chamfer_j2b requires at least one bone on each side")
    fwd = _directed_j2b(a.joints, b)
    back = _directed_j2b(b.joints, a)
    return 0.5 * (fwd + back)


def _bone_samples(s: Skeleton, count: int) -> np.ndarray:
    starts, ends, _ = bone_segments(s)
    t = np.linspace(0.0, 1.0, count)
    pts = starts[:, None, :] + t[None, :, None] * (ends - starts)[:, None, :]
    return pts.reshape(-1, 3)


def chamfer_b2b(a: Skeleton, b: Skeleton, bone_samples: int = 32) -> float:
    """Chamfer between bone samplings of ``bone_samples`` evenly spaced
    points per bone (endpoints included)."""
    _require_int(bone_samples, "bone_samples", 2)  # both endpoints
    require_valid(a)
    require_valid(b)
    if a.bone_count == 0 or b.bone_count == 0:
        raise ValueError("chamfer_b2b requires at least one bone on each side")
    pa = _bone_samples(a, bone_samples)
    pb = _bone_samples(b, bone_samples)
    return 0.5 * (_directed_j2j(pa, pb) + _directed_j2j(pb, pa))


def skinning_precision_recall(
    pred: SkinWeights,
    gt: SkinWeights,
    threshold: float = SIGNIFICANT_WEIGHT,
) -> tuple[float, float]:
    """Set agreement of significant (vertex, joint) entries.

    Empty-set conventions: an empty denominator counts as a perfect 1.0,
    so two all-insignificant weight maps agree completely.
    """
    if pred.matrix.shape != gt.matrix.shape:
        raise ValueError("weight shapes must match")
    _require_real(threshold, "threshold", 0, False)
    p = pred.matrix > threshold
    g = gt.matrix > threshold
    inter = float(np.sum(p & g))
    n_pred = float(np.sum(p))
    n_gt = float(np.sum(g))
    precision = inter / n_pred if n_pred > 0 else 1.0
    recall = inter / n_gt if n_gt > 0 else 1.0
    return precision, recall


def skinning_l1(pred: SkinWeights, gt: SkinWeights) -> float:
    """Mean over vertices of the L1 distance between weight rows (max 2)."""
    if pred.matrix.shape != gt.matrix.shape:
        raise ValueError("weight shapes must match")
    return float(np.mean(np.sum(np.abs(pred.matrix - gt.matrix), axis=1)))


def deformation_error(
    mesh: Mesh,
    s: Skeleton,
    pred: SkinWeights,
    gt: SkinWeights,
    seed: int = 0,
    pose_count: int = 10,
) -> float:
    """Mean vertex displacement between the two skinnings over sampled poses.

    Draws ``pose_count`` augmented poses from one seeded stream and
    averages the per-vertex distance across poses.  The blend is linear in
    the weights, so each pose's displacement is one blend of the rows
    ``pred - gt``, all poses in one batched pass.
    """
    _require_int(pose_count, "pose_count", 1)
    _require_int(seed, "seed", 0)
    require_valid(s)
    pred.require_fits(mesh, s)
    gt.require_fits(mesh, s)
    rng = np.random.default_rng(seed)
    joint_quats = np.stack([sample_augmented_pose(s, rng) for _ in range(pose_count)])
    basis = _BlendBasis(mesh.vertices, pred.matrix - gt.matrix)
    _, moved = pose_clip(s, basis, quat.IDENTITY, np.zeros(3), joint_quats)
    total = 0.0
    for mean in np.mean(np.linalg.norm(moved, axis=-1), axis=-1).tolist():
        total += mean
    return total / pose_count


def metrics_report(
    pred: Skeleton,
    gt: Skeleton,
    *,
    pred_weights: SkinWeights | None = None,
    gt_weights: SkinWeights | None = None,
    mesh: Mesh | None = None,
    seed: int = 0,
    normalize: bool = True,
) -> dict:
    """All metrics as a flat dict, chamfer values and precision/recall in
    reporting units (x100); entries needing absent inputs are None.  With
    ``normalize`` both skeletons are first put through
    :func:`normalize_skeleton` (the mesh box when a mesh is given)."""
    _require_int(seed, "seed", 0)  # before the branches that read it
    a, b = pred, gt
    if normalize:
        box = mesh.vertices if mesh is not None else None
        a = normalize_skeleton(a, box)
        b = normalize_skeleton(b, box)
    report: dict = {
        "cd_j2j": 100.0 * chamfer_j2j(a, b),
        "cd_j2b": 100.0 * chamfer_j2b(a, b) if min(a.bone_count, b.bone_count) else None,
        "cd_b2b": 100.0 * chamfer_b2b(a, b) if min(a.bone_count, b.bone_count) else None,
        "precision": None,
        "recall": None,
        "skinning_l1": None,
        "deformation_error": None,
    }
    if pred_weights is not None and gt_weights is not None:
        precision, recall = skinning_precision_recall(pred_weights, gt_weights)
        report["precision"] = 100.0 * precision
        report["recall"] = 100.0 * recall
        report["skinning_l1"] = skinning_l1(pred_weights, gt_weights)
        if mesh is not None:
            report["deformation_error"] = deformation_error(
                mesh, gt, pred_weights, gt_weights, seed=seed
            )
    return report
