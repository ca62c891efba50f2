"""Rigging toolkit: skeleton codecs, skinning, deformation, and track fitting.

The package is organized around a small frozen data model (`Skeleton`,
`Mesh`, `SkinWeights`, `Rig`) with pure functions layered on top:

- `codec`: quantized token sequences for skeletons, group shuffling.
- `kernels`: attention with topology bias, skinning head, cross entropy,
  all with hand-derived gradients.
- `geometry`: OBJ I/O, ray casting, pinhole cameras.
- `deform`: forward kinematics, linear blend skinning, heuristic weights.
- `metrics`: chamfer-style skeleton metrics and skinning quality scores.
- `animate`: visibility-aware 2D track synthesis and pose optimization.
- `gradcheck`: finite-difference verification of every analytic gradient.

Set ``RIGKIT_THREADS`` to cap BLAS parallelism; it must be in the
environment before this package (and therefore numpy) is imported.
"""

import os as _os

_threads = _os.environ.get("RIGKIT_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .core import (
    MAX_JOINTS,
    ROOT_PARENT,
    InvalidSkeletonError,
    InvalidValueError,
    NonFiniteError,
    Mesh,
    Rig,
    Skeleton,
    SkinWeights,
    ValidationIssue,
    ValidationReport,
    bone_segments,
    canonical_json,
    graph_distance_matrix,
    hierarchical_order,
    joint_depths,
    load_rig,
    permute_joints,
    save_rig,
    spatial_order,
    validate_skeleton,
)
from .codec import (
    BOS,
    COORD_BINS,
    EOS,
    NO_INDICATOR,
    PAD,
    PARENT_BASE,
    SHAPE_PLACEHOLDER,
    VOCAB_SIZE,
    TokenSequence,
    dequantize_coords,
    detokenize_bone_based,
    detokenize_joint_based,
    format_token_text,
    permutation_probability,
    quantize_coords,
    randomize_groups,
    read_token_file,
    tokenize_bone_based,
    tokenize_joint_based,
    unshuffle_groups,
    write_token_file,
)
from .kernels import (
    DistanceEmbeddingTable,
    distance_embedding,
    next_token_cross_entropy,
    reference_attention,
    skinning_head,
    topology_aware_attention,
)
from .geometry import (
    Camera,
    ObjParseError,
    crossing_counts,
    first_hit_distances,
    load_obj,
    parse_obj,
    point_inside_mesh,
    point_segment_distance,
    project,
    save_obj,
    write_obj,
)
from .deform import (
    FkCache,
    heuristic_skin_weights,
    load_animation,
    sample_augmented_pose,
    save_animation,
)
from .metrics import (
    MetricConfig,
    chamfer_b2b,
    chamfer_j2b,
    chamfer_j2j,
    deformation_error,
    metrics_report,
    normalize_skeleton,
    skinning_l1,
    skinning_precision_recall,
)
from .animate import (
    AnimParams,
    DivergenceError,
    OptimizeConfig,
    OptimizeResult,
    TrackSet,
    joint_visibility,
    load_tracks,
    optimize,
    save_tracks,
    smoothness_regularizer,
    synthesize_tracks,
    tracking_loss,
    vertex_visibility,
)
from .gradcheck import GradCheckResult, run_all as run_gradient_checks

__version__ = "0.1.0"

__all__ = [
    "MAX_JOINTS",
    "ROOT_PARENT",
    "InvalidSkeletonError",
    "InvalidValueError",
    "NonFiniteError",
    "Mesh",
    "Rig",
    "Skeleton",
    "SkinWeights",
    "ValidationIssue",
    "ValidationReport",
    "bone_segments",
    "canonical_json",
    "graph_distance_matrix",
    "hierarchical_order",
    "joint_depths",
    "load_rig",
    "permute_joints",
    "save_rig",
    "spatial_order",
    "validate_skeleton",
    "BOS",
    "COORD_BINS",
    "EOS",
    "NO_INDICATOR",
    "PAD",
    "PARENT_BASE",
    "SHAPE_PLACEHOLDER",
    "VOCAB_SIZE",
    "TokenSequence",
    "dequantize_coords",
    "detokenize_bone_based",
    "detokenize_joint_based",
    "format_token_text",
    "permutation_probability",
    "quantize_coords",
    "randomize_groups",
    "read_token_file",
    "tokenize_bone_based",
    "tokenize_joint_based",
    "unshuffle_groups",
    "write_token_file",
    "DistanceEmbeddingTable",
    "distance_embedding",
    "next_token_cross_entropy",
    "reference_attention",
    "skinning_head",
    "topology_aware_attention",
    "Camera",
    "ObjParseError",
    "crossing_counts",
    "first_hit_distances",
    "load_obj",
    "parse_obj",
    "point_inside_mesh",
    "point_segment_distance",
    "project",
    "save_obj",
    "write_obj",
    "FkCache",
    "heuristic_skin_weights",
    "load_animation",
    "sample_augmented_pose",
    "save_animation",
    "MetricConfig",
    "chamfer_b2b",
    "chamfer_j2b",
    "chamfer_j2j",
    "deformation_error",
    "metrics_report",
    "normalize_skeleton",
    "skinning_l1",
    "skinning_precision_recall",
    "AnimParams",
    "DivergenceError",
    "OptimizeConfig",
    "OptimizeResult",
    "TrackSet",
    "joint_visibility",
    "load_tracks",
    "optimize",
    "save_tracks",
    "smoothness_regularizer",
    "synthesize_tracks",
    "tracking_loss",
    "vertex_visibility",
    "GradCheckResult",
    "run_gradient_checks",
    "__version__",
]
