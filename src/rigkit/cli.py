"""Command-line front end: file-in/file-out wiring over the library.

Exit codes: 0 success, 1 usage or an unwritable output, 2 unreadable or
unparseable input, 3 semantic validation failure, 4 optimizer divergence.
Every subcommand is a pure function of its inputs, flags, and seed;
running one twice writes byte-identical files and stdout.  JSON output
always goes through :func:`rigkit.core.canonical_json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import animate, codec, gradcheck
from .core import (
    InvalidValueError,
    Mesh,
    Rig,
    _require_int,
    _require_json_floats,
    canonical_json,
    hierarchical_order,
    load_rig,
    require_valid,
    save_rig,
    spatial_order,
    validate_skeleton,
)
from .deform import (
    _BlendBasis,
    heuristic_skin_weights,
    load_animation,
    pose_clip,
    save_animation,
)
from .geometry import Camera, ObjParseError, _obj_faces, _obj_vertices, load_obj, save_obj
from .metrics import metrics_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGED = 4


class InputError(Exception):
    """Input file unreadable or not in its declared format (exit 2)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for unparseable
    # input files, so usage errors are remapped to 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str | Path, loader, kind: str):
    try:
        return loader(path)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except IsADirectoryError:
        raise InputError(f"{path}: is a directory") from None
    except OSError as e:
        raise InputError(f"{path}: cannot read: {e.strerror or e}") from None
    except ObjParseError as e:
        raise InputError(f"{path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(
            f"{path}: line {e.lineno}, col {e.colno}: invalid JSON: {e.msg}"
        ) from None
    except InvalidValueError:
        raise  # the file parsed; its values fail validation (exit 3)
    except (ValueError, KeyError, TypeError, OverflowError, EOFError) as e:
        raise InputError(f"{path}: not a valid {kind} file: {e}") from None


def _load_camera(path: str | Path) -> Camera:
    def loader(p):
        data = json.loads(Path(p).read_text())
        if "rotation" in data:
            return Camera.from_dict(data)
        # Only the keys the file gives, so look_at owns the defaults; the
        # focal lengths become floats, as in Camera.from_dict, and the image
        # size goes through raw, so a float is refused, not cast.
        return Camera.look_at(
            _require_json_floats(data["eye"], "eye"),
            _require_json_floats(data["target"], "target"),
            **{k: _require_json_floats(data[k], k) for k in ("up",) if k in data},
            **{k: float(_require_json_floats(data[k], k)) for k in ("fx", "fy") if k in data},
            **{k: data[k] for k in ("width", "height") if k in data},
        )

    return _load(path, loader, "camera")


def _given(args, *names) -> dict:
    """The flags among ``names`` that the user gave, as keyword arguments."""
    return {name: getattr(args, name) for name in names if name in args}


def _weights_of(rig: Rig, path: str):
    if rig.weights is None:
        raise ValueError(
            f"{path} has no skin weights; run skin-heuristic first or add a"
            " 'weights' entry"
        )
    return rig.weights


def _cmd_validate(args) -> int:
    rig = _load(args.rig, load_rig, "rig")
    issues = validate_skeleton(rig.skeleton)
    out = {
        "ok": not issues,
        "issues": [{"code": i.code, "message": i.message} for i in issues],
        "joint_count": rig.skeleton.joint_count,
        "bone_count": rig.skeleton.bone_count,
    }
    sys.stdout.write(canonical_json(out))
    return EXIT_VALIDATION if issues else EXIT_OK


_ORDERS = {"hier": hierarchical_order, "spatial": spatial_order}


def _cmd_tokenize(args) -> int:
    rig = _load(args.rig, load_rig, "rig")
    s = rig.skeleton
    order = _ORDERS[args.order](s)
    shape = _given(args, "shape_tokens")
    _require_int(args.shuffle_seed, "--shuffle-seed", 0)  # read only when shuffling
    if not 0.0 <= args.permute_prob <= 1.0:
        raise ValueError("--permute-prob must lie in [0, 1]")
    if args.scheme == "joint":
        t = codec.tokenize_joint_based(
            s, order, require_causal=not args.allow_non_causal, **shape
        )
        if args.permute_prob > 0.0:
            t = codec.randomize_groups(t, args.shuffle_seed, args.permute_prob)
    else:
        if args.permute_prob > 0.0:
            raise ValueError("group shuffling applies to the joint scheme only")
        t = codec.tokenize_bone_based(s, order, **shape)
    codec.write_token_file(args.output, t)
    if args.text:
        sys.stdout.write(codec.format_token_text(t))
    return EXIT_OK


def _cmd_detokenize(args) -> int:
    t = _load(args.tokens, codec.read_token_file, "token")
    if t.scheme == codec.SCHEME_JOINT:
        s, diagnostics = codec.detokenize_joint_based(t)
    else:
        s, diagnostics = codec.detokenize_bone_based(t)
    save_rig(args.output, Rig(s))
    sys.stdout.write(
        canonical_json(
            {
                "joint_count": s.joint_count,
                "scheme": t.scheme,
                "diagnostics": list(diagnostics),
            }
        )
    )
    return EXIT_OK


def _cmd_metrics(args) -> int:
    pred = _load(args.pred, load_rig, "rig")
    gt = _load(args.gt, load_rig, "rig")
    mesh = _load(args.mesh, load_obj, "OBJ") if args.mesh else None
    report = metrics_report(
        pred.skeleton, gt.skeleton, pred_weights=pred.weights, gt_weights=gt.weights,
        mesh=mesh, normalize=not args.no_normalize,
        **_given(args, "seed"),
    )
    sys.stdout.write(canonical_json(report))
    return EXIT_OK


def _cmd_deform(args) -> int:
    rig = _load(args.rig, load_rig, "rig")
    mesh = _load(args.mesh, load_obj, "OBJ")
    root_quats, root_trans, joint_quats = _load(
        args.animation, load_animation, "animation"
    )
    weights = _weights_of(rig, args.rig)
    s = rig.skeleton
    require_valid(s)
    n, f = root_quats.shape[0], args.frame
    if not -n <= f < n:
        raise ValueError(f"frame {f} outside clip of {n} frames")
    if joint_quats.shape[1] != s.joint_count:
        raise ValueError("animation joint count does not match rig")
    weights.require_fits(mesh, s)
    basis = _BlendBasis(mesh.vertices, weights.matrix)
    _, posed = pose_clip(s, basis, root_quats[f], root_trans[f], joint_quats[f])
    save_obj(args.output, Mesh(posed, mesh.triangles))
    return EXIT_OK


def _cmd_skin_heuristic(args) -> int:
    rig = _load(args.rig, load_rig, "rig")
    mesh = _load(args.mesh, load_obj, "OBJ")
    weights = heuristic_skin_weights(
        mesh, rig.skeleton, **_given(args, "k_nearest", "falloff")
    )
    save_rig(args.output, Rig(rig.skeleton, weights))
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    results = gradcheck.run_all(**_given(args, "seed", "instances"))
    width = max(len(r.kernel) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.kernel:<{width}}  instances={r.instances}"
            f"  max_rel_err={r.max_rel_error:.3e}  tol={r.tolerance:.0e}  {status}"
        )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def _cmd_synth_tracks(args) -> int:
    rig = _load(args.rig, load_rig, "rig")
    mesh = _load(args.mesh, load_obj, "OBJ")
    anim = _load(args.animation, load_animation, "animation")
    camera = _load_camera(args.camera)
    weights = _weights_of(rig, args.rig)
    params = animate.params_from_animation(*anim)
    tracks = animate.synthesize_tracks(
        mesh, rig.skeleton, weights, params, camera,
        **_given(args, "noise_px", "seed", "vertex_count"),
    )
    animate.save_tracks(args.output, tracks)
    sys.stdout.write(
        canonical_json(
            {
                "frames": tracks.frame_count,
                "joints": int(tracks.joint_tracks.shape[1]),
                "tracked_vertices": int(tracks.vertex_subset.shape[0]),
                "visible_joints": int(tracks.joint_visibility.sum()),
            }
        )
    )
    return EXIT_OK


def _cmd_animate(args) -> int:
    rig = _load(args.rig, load_rig, "rig")
    mesh = _load(args.mesh, load_obj, "OBJ")
    tracks = _load(args.tracks, animate.load_tracks, "track")
    weights = _weights_of(rig, args.rig)
    s = rig.skeleton
    config = animate.OptimizeConfig(
        **_given(args, "learning_rate", "iterations", "reg_weight")
    )
    result = animate.optimize(mesh, s, weights, tracks, config)
    root_quats, root_trans, joint_quats = animate.params_to_animation(result.params)
    save_animation(args.output, root_quats, root_trans, joint_quats)
    if args.export_obj:
        out_dir = Path(args.export_obj)
        out_dir.mkdir(parents=True, exist_ok=True)
        # One basis and one face block for the clip, then one frame at a
        # time, which keeps memory at one posed mesh.  Each file is the text
        # write_obj gives the frame's Mesh, so it equals `rigkit deform`'s.
        basis = _BlendBasis(mesh.vertices, weights.matrix)
        faces = _obj_faces(mesh.triangles)
        for i, frame in enumerate(zip(root_quats, root_trans, joint_quats)):
            _, posed = pose_clip(s, basis, *frame)
            posed = Mesh(posed, mesh.triangles).vertices
            (out_dir / f"frame_{i:04d}.obj").write_text(_obj_vertices(posed) + faces)
    sys.stdout.write(
        canonical_json(
            {
                "iterations": result.iterations,
                "converged": result.converged,
                "final_loss": result.trace[-1] if result.trace.size else 0.0,
                "dropped_terms": result.dropped_terms,
            }
        )
    )
    return EXIT_OK


def _cmd_anneal(args) -> int:
    _require_int(args.epochs, "--epochs", 1)
    lines = []
    for epoch in range(args.epochs + 1):
        r = codec.permutation_probability(epoch, args.epochs)
        lines.append(f"{epoch} {r!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # A flag that feeds a library parameter has no default of its own
    # (argparse.SUPPRESS), so the library's default is the CLI's.
    parser = _Parser(prog="rigkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a rig JSON's skeleton structure")
    p.add_argument("rig")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tokenize", help="serialize a rig into a token file")
    p.add_argument("rig")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scheme", choices=("joint", "bone"), default="joint")
    p.add_argument("--order", choices=("hier", "spatial"), default="hier")
    p.add_argument("--shape-tokens", type=int, default=argparse.SUPPRESS)
    p.add_argument("--shuffle-seed", type=int, default=0)
    p.add_argument("--permute-prob", type=float, default=0.0)
    p.add_argument(
        "--allow-non-causal",
        action="store_true",
        help="serialize orders that put children before parents",
    )
    p.add_argument("--text", action="store_true", help="dump tokens to stdout")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="decode a token file back into a rig")
    p.add_argument("tokens")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("metrics", help="compare two rigs (optionally with a mesh)")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--mesh")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument(
        "--no-normalize",
        action="store_true",
        help="compare raw coordinates without rescaling into the unit box",
    )
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("deform", help="pose a mesh at one animation frame")
    p.add_argument("rig")
    p.add_argument("mesh")
    p.add_argument("animation")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--frame", type=int, default=-1)
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser(
        "skin-heuristic", help="attach distance-based weights to a rig"
    )
    p.add_argument("rig")
    p.add_argument("mesh")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k-nearest", type=int, default=argparse.SUPPRESS)
    p.add_argument("--falloff", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_skin_heuristic)

    p = sub.add_parser("grad-check", help="finite-difference gradient table")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--instances", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser(
        "synth-tracks", help="render 2-d tracks for a known animation"
    )
    p.add_argument("rig")
    p.add_argument("mesh")
    p.add_argument("animation")
    p.add_argument("--camera", required=True, help="camera JSON path")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--noise-px", type=float, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--vertex-count", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_synth_tracks)

    p = sub.add_parser("animate", help="fit an animation to 2-d tracks")
    p.add_argument("rig")
    p.add_argument("mesh")
    p.add_argument("tracks")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--iterations", type=int, default=argparse.SUPPRESS)
    p.add_argument("--learning-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--reg-weight", type=float, default=argparse.SUPPRESS)
    p.add_argument("--export-obj", help="directory for per-frame OBJ dumps")
    p.set_defaults(func=_cmd_animate)

    p = sub.add_parser("anneal", help="print the group-shuffle schedule")
    p.add_argument("--epochs", type=int, required=True)
    p.set_defaults(func=_cmd_anneal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # --help exits 0, usage errors exit 1
        return int(e.code or 0)
    try:
        return args.func(args)
    except InputError as e:
        print(f"rigkit {args.command}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:  # _load maps read failures, so this is an output
        print(f"rigkit {args.command}: cannot write: {e}", file=sys.stderr)
        return EXIT_USAGE
    except animate.DivergenceError as e:
        print(f"rigkit {args.command}: diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except ValueError as e:
        print(f"rigkit {args.command}: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
