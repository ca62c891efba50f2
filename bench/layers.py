"""Per-layer metrics: function groups, counting hooks, and the metric table.

Each metric is computed per set-up plus one task of the workload (see
:meth:`spans.Tracer.per_task`).  Suffixes: ``.calls`` counts calls;
``.self_us`` is mean self time per call in microseconds; ``.self_ms`` is
self time in milliseconds; ``.s`` is inclusive seconds.  A layer the
workload does not run reports 0.  Counts marked "computed" are derived from
array shapes at the call boundary rather than observed inside the program.
"""

from __future__ import annotations

import numpy as np

from spans import GROUP_SUFFIX

GROUPS = {
    "geometry.obj_io": ("geometry.parse_obj", "geometry.load_obj",
                        "geometry.write_obj", "geometry.save_obj"),
    "core.json_io": ("core.load_rig", "core.save_rig", "core.rig_to_dict",
                     "core.rig_from_dict", "core.canonical_json"),
    "codec.tokenize": ("codec.tokenize_joint_based", "codec.tokenize_bone_based"),
    "codec.detokenize": ("codec.detokenize_joint_based",
                         "codec.detokenize_bone_based"),
    "codec.shuffle": ("codec.randomize_groups", "codec.unshuffle_groups"),
    "codec.token_file_io": ("codec.write_token_file", "codec.read_token_file"),
    "kernels.attention": ("kernels.reference_attention",
                          "kernels.topology_aware_attention",
                          "kernels.topology_aware_attention_vjp",
                          "kernels.distance_embedding",
                          "kernels.distance_embedding_vjp"),
    "kernels.skinning_head": ("kernels.skinning_head", "kernels.skinning_head_vjp"),
    "kernels.cross_entropy": ("kernels.next_token_cross_entropy",
                              "kernels.next_token_cross_entropy_grad"),
    "metrics.chamfer": ("metrics.chamfer_j2j", "metrics.chamfer_j2b",
                        "metrics.chamfer_b2b"),
}

GRADCHECK_KERNELS = (
    "topology_aware_attention", "skinning_head", "next_token_cross_entropy",
    "tracking_loss", "smoothness_regularizer",
)
CLI_COMMANDS = ("skin-heuristic", "synth-tracks", "metrics", "deform", "animate")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_steps(tracer, args, kwargs):
    return args, kwargs, lambda result: tracer.count("adam_steps", result.iterations)


def _count_ray(tracer, args, kwargs):
    tracer.count("ray_tri_tests", _arg(args, kwargs, 0, "mesh").triangle_count)
    if tracer.parent_name() == "animate.vertex_visibility":
        tracer.count("vertex_rays")
    return args, kwargs, None


def _count_visible(tracer, args, kwargs):
    return args, kwargs, lambda result: tracer.count("visible_vertices", int(np.sum(result)))


def _count_lbs_apply(tracer, args, kwargs):
    verts = _arg(args, kwargs, 0, "vertices")
    w = _arg(args, kwargs, 1, "weight_matrix")
    g = _arg(args, kwargs, 2, "globals_")
    # inputs read plus the (v, 3) result written, float64
    tracer.count("lbs_bytes", verts.nbytes + w.nbytes + g.nbytes + verts.nbytes)
    return args, kwargs, None


def _count_lbs_vjp(tracer, args, kwargs):
    verts = _arg(args, kwargs, 0, "vertices")
    w = _arg(args, kwargs, 1, "weight_matrix")
    grad = _arg(args, kwargs, 2, "grad_deformed")
    # inputs read plus the (j, 4, 4) result written, float64
    tracer.count("lbs_bytes", verts.nbytes + w.nbytes + grad.nbytes + w.shape[1] * 128)
    return args, kwargs, None


def _count_tokens(tracer, args, kwargs):
    return args, kwargs, lambda result: tracer.count("tokens", len(result))


def _count_fd_evals(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        tracer.count("fd_evals")
        return f(x)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs, None


HOOKS = {
    "animate.optimize": _count_steps,
    "geometry.ray_mesh_intersections": _count_ray,
    "animate.vertex_visibility": _count_visible,
    "deform.lbs_apply": _count_lbs_apply,
    "deform.lbs_vjp": _count_lbs_vjp,
    "codec.tokenize_joint_based": _count_tokens,
    "codec.tokenize_bone_based": _count_tokens,
    "gradcheck.central_difference": _count_fd_evals,
}


def _calls(name):
    return lambda st, c: st[name].calls


def _self_us(name):
    return lambda st, c: 1e6 * st[name].self_s / st[name].calls if st[name].calls else 0.0


def _self_ms(name):
    return lambda st, c: 1e3 * st[name].self_s


def _incl_s(name):
    return lambda st, c: st[name].incl


def _ratio(num, den):
    return lambda st, c: c[num] / c[den] if c[den] else 0.0


def _group(name):
    return name + GROUP_SUFFIX


# (metric name, unit, better, value from (stats, counts))
LAYER_METRICS = [
    ("animate.tracking_loss.calls", "count", "lower", _calls("animate.tracking_loss")),
    ("animate.tracking_loss.self_ms", "ms", "lower", _self_ms("animate.tracking_loss")),
    ("animate.smoothness_regularizer.self_ms", "ms", "lower",
     _self_ms("animate.smoothness_regularizer")),
    ("animate.optimize.steps", "count", "lower", lambda st, c: c["adam_steps"]),
    ("animate.optimize.self_ms_per_step", "ms", "lower",
     lambda st, c: 1e3 * st["animate.optimize"].self_s / c["adam_steps"]
     if c["adam_steps"] else 0.0),
    ("animate.vertex_visibility.s", "s", "lower", _incl_s("animate.vertex_visibility")),
    ("animate.joint_visibility.s", "s", "lower", _incl_s("animate.joint_visibility")),
    ("animate.visible_vertex_ratio", "ratio", "higher",
     _ratio("visible_vertices", "vertex_rays")),
    ("deform.fk_forward.calls", "count", "lower", _calls("deform.fk_forward")),
    ("deform.fk_forward.self_us", "us", "lower", _self_us("deform.fk_forward")),
    ("deform.fk_backward.self_us", "us", "lower", _self_us("deform.fk_backward")),
    ("deform.topological_order.calls", "count", "lower", _calls("deform.topological_order")),
    ("deform.lbs_apply.self_us", "us", "lower", _self_us("deform.lbs_apply")),
    ("deform.lbs_vjp.self_us", "us", "lower", _self_us("deform.lbs_vjp")),
    ("deform.lbs.bytes_computed", "B", "lower", lambda st, c: c["lbs_bytes"]),
    ("deform.heuristic_skin_weights.s", "s", "lower",
     _incl_s("deform.heuristic_skin_weights")),
    ("geometry.ray_mesh_intersections.calls", "count", "lower",
     _calls("geometry.ray_mesh_intersections")),
    ("geometry.ray_mesh_intersections.self_us", "us", "lower",
     _self_us("geometry.ray_mesh_intersections")),
    ("geometry.ray_tri_tests", "count.computed", "lower", lambda st, c: c["ray_tri_tests"]),
    ("geometry.point_inside_mesh.calls", "count", "lower", _calls("geometry.point_inside_mesh")),
    ("geometry.project.self_us", "us", "lower", _self_us("geometry.project")),
    ("geometry.project_vjp.self_us", "us", "lower", _self_us("geometry.project_vjp")),
    ("geometry.obj_io.s", "s", "lower", _incl_s(_group("geometry.obj_io"))),
    ("core.require_valid.calls", "count", "lower", _calls("core.require_valid")),
    ("core.json_io.s", "s", "lower", _incl_s(_group("core.json_io"))),
    ("codec.tokenize.self_us", "us", "lower", _self_us(_group("codec.tokenize"))),
    ("codec.detokenize.self_us", "us", "lower", _self_us(_group("codec.detokenize"))),
    ("codec.shuffle.self_us", "us", "lower", _self_us(_group("codec.shuffle"))),
    ("codec.token_file_io.s", "s", "lower", _incl_s(_group("codec.token_file_io"))),
    ("codec.tokens", "count", "lower", lambda st, c: c["tokens"]),
    ("kernels.attention.self_us", "us", "lower", _self_us(_group("kernels.attention"))),
    ("kernels.skinning_head.self_us", "us", "lower",
     _self_us(_group("kernels.skinning_head"))),
    ("kernels.cross_entropy.self_us", "us", "lower",
     _self_us(_group("kernels.cross_entropy"))),
    ("gradcheck.fd_evals", "count", "lower", lambda st, c: c["fd_evals"]),
    *[
        (f"gradcheck.{k}.s", "s", "lower", _incl_s(f"gradcheck.check.{k}"))
        for k in GRADCHECK_KERNELS
    ],
    ("metrics.deformation_error.s", "s", "lower", _incl_s("metrics.deformation_error")),
    ("metrics.chamfer.s", "s", "lower", _incl_s(_group("metrics.chamfer"))),
    *[(f"cli.{cmd}.s", "s", "lower", _incl_s(f"cli.{cmd}")) for cmd in CLI_COMMANDS],
]
