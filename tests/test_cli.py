"""End-to-end CLI behavior: exit codes, outputs, determinism."""

import argparse
import json

import numpy as np
import pytest

from rigkit import (BOS, EOS, Mesh, Rig, Skeleton, SkinWeights, TokenSequence, gradcheck,
                    load_rig, read_token_file, save_rig, validate_skeleton, write_token_file)
from rigkit.cli import _load_camera, build_parser, main
from rigkit.core import InvalidSkeletonError, require_valid
from rigkit.deform import save_animation
from rigkit.geometry import Camera, load_obj, write_obj
from rigkit.gradcheck import run_all

from helpers import tube_mesh
from rigkit import quat


@pytest.fixture
def scene(tmp_path):
    """Chain rig + tube mesh + small wiggle clip + front camera, on disk.

    The tube is centered on the origin; the camera sits slightly off the
    tube's symmetry planes so no ray grazes a ridge edge exactly.
    """
    s = Skeleton(
        joints=np.array([[-0.45, 0.0, 0.0], [0.0, 0.0, 0.0], [0.45, 0.0, 0.0]]),
        parents=np.array([-1, 0, 1]),
    )
    rig_path = tmp_path / "rig.json"
    save_rig(rig_path, Rig(s))

    mesh = tube_mesh(length=0.9, radius=0.1, rings=10, sides=8)
    mesh_path = tmp_path / "mesh.obj"
    mesh_path.write_text(write_obj(mesh))

    frames = 4
    rq = np.tile([1.0, 0.0, 0.0, 0.0], (frames, 1))
    rt = np.zeros((frames, 3))
    jq = np.zeros((frames, 3, 4))
    jq[:, :, 0] = 1.0
    for i in range(1, frames):
        angle = np.deg2rad(10.0) * i / (frames - 1)
        jq[i, 0] = quat.from_euler_xyz(np.array([0.0, 0.0, angle]))
        jq[i, 1] = quat.from_euler_xyz(np.array([0.0, angle, 0.0]))
    anim_path = tmp_path / "clip.json"
    save_animation(anim_path, rq, rt, jq)

    cam_path = tmp_path / "camera.json"
    cam_path.write_text(json.dumps({
        "eye": [0.03, 0.11, 3.0],
        "target": [0.0, 0.0, 0.0],
        "fx": 800.0,
        "width": 1024,
        "height": 1024,
    }))
    return tmp_path, rig_path, mesh_path, anim_path, cam_path


def run(capsys, *argv) -> tuple[int, str]:
    capsys.readouterr()  # drop output from any setup commands
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["anneal", "--epochs", "10", "--bogus"]) == 1
        # The battery runs at its one tolerance, REL_TOL.
        assert main(["grad-check", "--tolerance", "1e-3"]) == 1

    def test_missing_required_output(self, scene, capsys):
        _, rig_path, *_ = scene
        assert main(["tokenize", str(rig_path)]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# Flags that feed a library parameter with a default of its own.
_LIBRARY_OWNED = {
    "shape_tokens", "seed", "k_nearest", "falloff", "instances", "noise_px",
    "vertex_count", "iterations", "learning_rate", "reg_weight",
}


def test_library_owns_flag_defaults():
    # Each subcommand parsed with only its required arguments: a flag the
    # user did not give is absent, so the library's default applies.
    required = {
        "validate": ["r"],
        "tokenize": ["r", "-o", "t"],
        "detokenize": ["t", "-o", "r"],
        "metrics": ["a", "b"],
        "deform": ["r", "m", "a", "-o", "o"],
        "skin-heuristic": ["r", "m", "-o", "o"],
        "grad-check": [],
        "synth-tracks": ["r", "m", "a", "--camera", "c", "-o", "o"],
        "animate": ["r", "m", "t", "-o", "o"],
        "anneal": ["--epochs", "1"],
    }
    parser = build_parser()
    (commands,) = [
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands) == set(required)
    for command, argv in required.items():
        given = vars(parser.parse_args([command, *argv]))
        assert not _LIBRARY_OWNED & set(given), command


class TestValidate:
    def test_ok_rig(self, scene, capsys):
        _, rig_path, *_ = scene
        code, out = run(capsys, "validate", rig_path)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["joint_count"] == 3
        assert report["bone_count"] == 2

    def test_cyclic_rig(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "joints": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
            "parents": [1, 0],
        }))
        code, out = run(capsys, "validate", bad)
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert report["issues"]

    def test_issues_keep_their_order(self, tmp_path, capsys):
        # No root and a dangling parent: both are listed, no-root first, by
        # the CLI and in require_valid's message.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "joints": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
            "parents": [1, 9],
        }))
        code, out = run(capsys, "validate", bad)
        assert code == 3
        report = json.loads(out)
        assert report["ok"] is False
        assert [i["code"] for i in report["issues"]] == ["no-root", "dangling-parent"]
        with pytest.raises(InvalidSkeletonError) as e:
            require_valid(load_rig(bad).skeleton)
        assert str(e.value).splitlines() == [
            f"{i['code']}: {i['message']}" for i in report["issues"]]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_garbage_json(self, tmp_path, capsys):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2
        # Weight columns that do not match the joints do not parse either.
        p.write_text(json.dumps({
            "joints": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
            "parents": [-1, 0],
            "weights": [[0.5, 0.25, 0.25]],
        }))
        assert main(["validate", str(p)]) == 2

    def test_directory_input(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2

    def test_unreadable_input(self, scene, capsys):
        # A path through a regular file fails with NotADirectoryError.
        _, rig_path, *_ = scene
        assert main(["validate", str(rig_path / "rig.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestTokenizePipeline:
    def test_round_trip(self, scene, capsys):
        tmp_path, rig_path, *_ = scene
        tok = tmp_path / "rig.tok"
        out_rig = tmp_path / "decoded.json"
        assert main(["tokenize", str(rig_path), "-o", str(tok)]) == 0
        code, out = run(capsys, "detokenize", tok, "-o", out_rig)
        assert code == 0
        report = json.loads(out)
        assert report["joint_count"] == 3
        assert report["scheme"] == "joint_based"
        assert report["diagnostics"] == []
        back = load_rig(out_rig)
        orig = load_rig(rig_path)
        assert np.max(np.abs(back.skeleton.joints - orig.skeleton.joints)) <= 1 / 256

    def test_bone_scheme(self, scene, capsys):
        tmp_path, rig_path, *_ = scene
        tok = tmp_path / "rig_bone.tok"
        assert main(["tokenize", str(rig_path), "-o", str(tok), "--scheme", "bone"]) == 0
        code, out = run(capsys, "detokenize", tok, "-o", tmp_path / "bone_out.json")
        assert code == 0
        assert json.loads(out)["scheme"] == "bone_based"

    def test_text_dump(self, scene, capsys):
        tmp_path, rig_path, *_ = scene
        code, out = run(
            capsys, "tokenize", rig_path, "-o", tmp_path / "t.tok", "--text"
        )
        assert code == 0
        assert out.splitlines()[0] == "128 -1"

    def test_shuffled_stream_decodes(self, scene, capsys):
        # The indicator stream restores the emission order, so a shuffled
        # stream decodes to the tree its unshuffled stream decodes to.
        tmp_path, rig_path, *_ = scene
        orig = load_rig(rig_path)
        for shape in ([], ["--shape-tokens", "3"]):
            decoded = {}
            for name, shuffle in (("plain", []), ("shuf", ["--permute-prob", "1.0",
                                                           "--shuffle-seed", "3"])):
                tok = tmp_path / f"{name}.tok"
                assert main(["tokenize", str(rig_path), "-o", str(tok), *shape, *shuffle]) == 0
                code, out = run(capsys, "detokenize", tok, "-o", tmp_path / f"{name}.json")
                assert code == 0
                decoded[name] = (load_rig(tmp_path / f"{name}.json").skeleton, json.loads(out))
            (back, report), (want, _) = decoded["shuf"], decoded["plain"]
            assert np.array_equal(back.parents, want.parents)
            assert np.array_equal(back.joints, want.joints)
            assert report["diagnostics"] == []
            assert validate_skeleton(back) == ()
            got = {tuple(np.round(p, 6)) for p in back.joints}
            want_err = [
                min(np.linalg.norm(np.array(g) - j) for g in got)
                for j in orig.skeleton.joints
            ]
            assert max(want_err) <= np.sqrt(3) / 256 + 1e-9

    def test_damaged_indicator_stream_refused(self, scene, capsys):
        tmp_path, rig_path, *_ = scene
        tok = tmp_path / "shuf.tok"
        assert main([
            "tokenize", str(rig_path), "-o", str(tok),
            "--permute-prob", "1.0", "--shuffle-seed", "3",
        ]) == 0
        t = read_token_file(tok)
        indicators = t.indicators.copy()
        indicators[indicators == 1] = 0  # two groups announce group 0
        write_token_file(tok, TokenSequence(t.tokens, indicators, t.scheme))
        code, out = run(capsys, "detokenize", tok, "-o", tmp_path / "back.json")
        assert code == 3
        assert out == ""
        assert not (tmp_path / "back.json").exists()

    def test_shuffle_rejected_for_bones(self, scene, capsys):
        tmp_path, rig_path, *_ = scene
        assert main([
            "tokenize", str(rig_path), "-o", str(tmp_path / "x.tok"),
            "--scheme", "bone", "--permute-prob", "0.5",
        ]) == 3

    @pytest.mark.parametrize("prob", ["-0.5", "nan"])
    @pytest.mark.parametrize("scheme", ["joint", "bone"])
    def test_permute_prob_outside_unit_interval_rejected(self, scene, capsys, scheme, prob):
        tmp_path, rig_path, *_ = scene
        tok = tmp_path / "p.tok"
        code, out = run(capsys, "tokenize", rig_path, "-o", tok,
                        "--scheme", scheme, "--permute-prob", prob)
        assert code == 3
        assert out == ""
        assert not tok.exists()

    @pytest.mark.parametrize("scheme", ["joint", "bone"])
    def test_negative_shape_tokens_rejected(self, scene, capsys, scheme):
        tmp_path, rig_path, *_ = scene
        tok = tmp_path / "neg.tok"
        code, out = run(capsys, "tokenize", rig_path, "-o", tok,
                        "--scheme", scheme, "--shape-tokens", "-3")
        assert code == 3
        assert out == ""
        assert not tok.exists()

    @pytest.mark.parametrize("scheme", ["joint", "bone"])
    def test_joint_outside_token_box_rejected(self, tmp_path, capsys, scheme):
        # The codec would clamp x = 0.9 onto the box's edge bin; the CLI
        # refuses the rig and names the first joint outside, not the last.
        rig = tmp_path / "wide.json"
        joints = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.5], [0.9, 0.0, 0.0],
                           [0.0, -0.7, 0.0]])
        save_rig(rig, Rig(Skeleton(joints=joints, parents=np.array([-1, 0, 1, 2]))))
        tok = tmp_path / "wide.tok"
        assert main(["tokenize", str(rig), "-o", str(tok), "--scheme", scheme]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("rigkit tokenize: joint 2 at [0.9, 0.0, 0.0] lies "
                                "outside the token box [-0.5, 0.5]\n")
        assert not tok.exists()

    def test_spatial_hazard(self, tmp_path, capsys):
        # Spatial ordering puts the low-z child before its parent.
        rig = tmp_path / "hazard.json"
        save_rig(rig, Rig(Skeleton(
            joints=np.array([[0.0, 0.0, 0.4], [0.0, 0.0, -0.4]]),
            parents=np.array([-1, 0]),
        )))
        tok = tmp_path / "hazard.tok"
        assert main(["tokenize", str(rig), "-o", str(tok), "--order", "spatial"]) == 3
        assert main([
            "tokenize", str(rig), "-o", str(tok),
            "--order", "spatial", "--allow-non-causal",
        ]) == 0
        code, out = run(capsys, "detokenize", tok, "-o", tmp_path / "hz.json")
        assert code == 0
        diags = json.loads(out)["diagnostics"]
        assert diags
        assert any("not yet emitted" in d for d in diags)

    @pytest.mark.parametrize("scheme, unit", [("joint_based", "joint"), ("bone_based", "bone")])
    def test_payload_shorter_than_one_group_rejected(self, tmp_path, capsys, scheme, unit):
        # Three coordinate tokens hold neither a joint group nor a bone.
        tok = tmp_path / "short.tok"
        write_token_file(tok, TokenSequence(np.array([BOS, 1, 2, 3, EOS]), None, scheme))
        rig = tmp_path / "short.json"
        assert main(["detokenize", str(tok), "-o", str(rig)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rigkit detokenize: token stream has no {unit} payload\n"
        assert not rig.exists()

    def test_bad_token_file(self, tmp_path, capsys):
        p = tmp_path / "junk.tok"
        p.write_bytes(b"JUNKJUNKJUNK")
        assert main(["detokenize", str(p), "-o", str(tmp_path / "o.json")]) == 2


class TestMetricsCommand:
    def test_identity_zeros(self, scene, capsys):
        _, rig_path, *_ = scene
        code, out = run(capsys, "metrics", rig_path, rig_path)
        assert code == 0
        report = json.loads(out)
        assert report["cd_j2j"] == 0.0
        assert report["cd_j2b"] == 0.0
        assert report["cd_b2b"] == 0.0
        assert report["precision"] is None

    def test_rerun_byte_identical(self, scene, capsys):
        _, rig_path, *_ = scene
        _, first = run(capsys, "metrics", rig_path, rig_path)
        _, second = run(capsys, "metrics", rig_path, rig_path)
        assert first == second

    def test_no_normalize(self, scene, capsys):
        tmp_path, rig_path, *_ = scene
        big = tmp_path / "big.json"
        orig = load_rig(rig_path)
        save_rig(big, Rig(Skeleton(orig.skeleton.joints * 3.0, orig.skeleton.parents)))
        _, normed = run(capsys, "metrics", big, rig_path)
        _, raw = run(capsys, "metrics", big, rig_path, "--no-normalize")
        assert json.loads(raw)["cd_j2j"] > json.loads(normed)["cd_j2j"]

    def test_one_row_weights_rejected_with_mesh(self, scene, capsys):
        # 1-row weights would broadcast over the 8-vertex mesh if nothing
        # checked them against it.
        tmp_path, rig_path, *_ = scene
        one_row = tmp_path / "one_row.json"
        save_rig(one_row, Rig(load_rig(rig_path).skeleton,
                              SkinWeights(np.array([[1.0, 0.0, 0.0]]))))
        corners = np.array([[x, y, z] for x in (-0.5, 0.5)
                            for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
        cube = tmp_path / "cube.obj"
        cube.write_text(write_obj(Mesh(corners, np.zeros((0, 3), dtype=np.int64))))
        code, out = run(capsys, "metrics", one_row, one_row, "--mesh", cube)
        assert code == 3
        assert out == ""


def test_negative_seed_rejected_where_nothing_reads_it(scene, capsys):
    # Neither a mesh-free report nor an unshuffled token stream draws from
    # its seed, and a negative one is still refused.
    tmp_path, rig_path, *_ = scene
    tok = tmp_path / "seed.tok"
    for argv in (["metrics", rig_path, rig_path, "--seed", "-1"],
                 ["tokenize", rig_path, "-o", tok, "--shuffle-seed", "-1"],
                 ["tokenize", rig_path, "-o", tok, "--shuffle-seed", "-1",
                  "--scheme", "bone"]):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "seed must be at least 0" in err
    assert not tok.exists()


def test_stdout_reports_are_json_dumps(scene, capsys):
    # Each JSON report on stdout is json.dumps(sort_keys=True, indent=1) of
    # what it holds, byte for byte.
    tmp_path, rig_path, mesh_path, anim_path, cam_path = scene
    tok, gt, pred, tracks = (tmp_path / n for n in ("r.tok", "gt.json", "pred.json", "t.json"))
    for report, argv in (
            (True, ["validate", rig_path]),
            (False, ["tokenize", rig_path, "-o", tok]),
            (True, ["detokenize", tok, "-o", tmp_path / "back.json"]),
            (False, ["skin-heuristic", rig_path, mesh_path, "-o", gt]),
            (False, ["skin-heuristic", rig_path, mesh_path, "-o", pred, "--falloff", "0.2"]),
            (True, ["metrics", pred, gt, "--mesh", mesh_path]),
            (True, ["synth-tracks", gt, mesh_path, anim_path, "--camera", cam_path,
                    "-o", tracks, "--noise-px", "0.5"]),
            (True, ["animate", gt, mesh_path, tracks, "-o", tmp_path / "fit.json",
                    "--iterations", "3"])):
        code, out = run(capsys, *argv)
        assert code == 0
        assert bool(out) == report
        if report:
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n"


class TestSkinAndDeform:
    def test_infinite_falloff_rejected(self, scene, capsys):
        # An infinite falloff would give every nearby bone the same weight.
        tmp_path, rig_path, mesh_path, _, _ = scene
        skinned = tmp_path / "skinned.json"
        capsys.readouterr()
        code = main(["skin-heuristic", str(rig_path), str(mesh_path),
                     "-o", str(skinned), "--falloff", "inf"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "rigkit skin-heuristic: falloff must be finite and positive\n"
        assert not skinned.exists()

    def test_skin_then_deform(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        assert main(["skin-heuristic", str(rig_path), str(mesh_path),
                     "-o", str(skinned)]) == 0
        assert load_rig(skinned).weights is not None
        posed = tmp_path / "posed.obj"
        assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                     "-o", str(posed)]) == 0
        out_mesh = load_obj(posed)
        in_mesh = load_obj(mesh_path)
        assert out_mesh.vertex_count == in_mesh.vertex_count
        assert not np.array_equal(out_mesh.vertices, in_mesh.vertices)

    def test_unwritable_output(self, scene, capsys):
        tmp_path, rig_path, mesh_path, _, _ = scene
        assert main(["skin-heuristic", str(rig_path), str(mesh_path),
                     "-o", str(tmp_path / "nodir" / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rigkit skin-heuristic: cannot write:")
        assert err.count("\n") == 1

    def test_deform_identity_frame_is_unmoved(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        posed = tmp_path / "frame0.obj"
        assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                     "-o", str(posed), "--frame", "0"]) == 0
        out_mesh = load_obj(posed)
        in_mesh = load_obj(mesh_path)
        assert np.allclose(out_mesh.vertices, in_mesh.vertices, atol=1e-12)
        assert np.array_equal(out_mesh.triangles, in_mesh.triangles)

    def test_deform_frame_out_of_range(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                     "-o", str(tmp_path / "x.obj"), "--frame", "9"]) == 3

    def test_deform_needs_weights(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        assert main(["deform", str(rig_path), str(mesh_path), str(anim_path),
                     "-o", str(tmp_path / "x.obj")]) == 3

    def test_deform_rig_without_root(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        rig = load_rig(skinned)
        rootless = tmp_path / "rootless.json"
        save_rig(rootless, Rig(Skeleton(rig.skeleton.joints, np.array([1, 2, 0])),
                               rig.weights))
        posed = tmp_path / "x.obj"
        assert main(["deform", str(rootless), str(mesh_path), str(anim_path),
                     "-o", str(posed)]) == 3
        assert "no-root" in capsys.readouterr().err
        assert not posed.exists()

    def test_deform_nan_vertex_rejected(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        lines = mesh_path.read_text().splitlines()
        lines[0] = "v nan 0.0 0.0"
        mesh_path.write_text("\n".join(lines) + "\n")
        posed = tmp_path / "x.obj"
        assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                     "-o", str(posed)]) == 3
        assert not posed.exists()

    def test_deform_nan_quaternion_rejected(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        original = json.loads(anim_path.read_text())

        def nan(frames):
            frames[2]["joint_quats"][1][0] = float("nan")

        def zero(frames):
            frames[2]["joint_quats"][1] = [0.0, 0.0, 0.0, 0.0]

        def two_joints(frames):
            for f in frames:
                f["joint_quats"].pop()

        def three_wide(frames):
            for f in frames:
                f["joint_quats"] = [q[:3] for q in f["joint_quats"]]

        # A NaN, a zero quaternion or a clip for another skeleton parses but
        # is invalid (3); quaternions that are not (j, 4) do not parse (2).
        for edit, code in ((nan, 3), (zero, 3), (two_joints, 3), (three_wide, 2)):
            data = json.loads(json.dumps(original))
            edit(data["frames"])
            anim_path.write_text(json.dumps(data))
            posed = tmp_path / "x.obj"
            assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                         "-o", str(posed), "--frame", "2"]) == code, edit.__name__
            assert not posed.exists()

    def test_deform_nan_weight_rejected(self, scene, capsys):
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        data = json.loads(skinned.read_text())
        data["weights"][4][0] = float("nan")
        skinned.write_text(json.dumps(data))
        posed = tmp_path / "x.obj"
        assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                     "-o", str(posed)]) == 3
        assert not posed.exists()

    def test_deform_out_of_range_weight_rejected(self, scene, capsys):
        # The file parses; a weight above 1 breaks a value rule (exit 3).
        tmp_path, rig_path, mesh_path, anim_path, _ = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        data = json.loads(skinned.read_text())
        data["weights"][0] = [1.5, 0.0, 0.0]
        skinned.write_text(json.dumps(data))
        posed = tmp_path / "x.obj"
        assert main(["deform", str(skinned), str(mesh_path), str(anim_path),
                     "-o", str(posed)]) == 3
        assert not posed.exists()

    def test_bad_obj_is_parse_error(self, scene, capsys):
        tmp_path, rig_path, _, anim_path, _ = scene
        bad = tmp_path / "bad.obj"
        bad.write_text("v 1 2\n")
        assert main(["skin-heuristic", str(rig_path), str(bad),
                     "-o", str(tmp_path / "x.json")]) == 2


class TestTrackPipeline:
    def _skinned(self, scene):
        tmp_path, rig_path, mesh_path, anim_path, cam_path = scene
        skinned = tmp_path / "skinned.json"
        main(["skin-heuristic", str(rig_path), str(mesh_path), "-o", str(skinned)])
        return tmp_path, skinned, mesh_path, anim_path, cam_path

    def test_synth_tracks(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        code, out = run(
            capsys, "synth-tracks", skinned, mesh_path, anim_path,
            "--camera", cam_path, "-o", tracks, "--vertex-count", "30",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["frames"] == 4
        assert summary["joints"] == 3
        assert summary["tracked_vertices"] == 30
        assert summary["visible_joints"] == 3

    def test_synth_tracks_rerun_identical(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        args = ["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
                "--camera", str(cam_path), "-o", str(tracks),
                "--noise-px", "0.5", "--seed", "11"]
        main(args)
        first = tracks.read_bytes()
        main(args)
        assert tracks.read_bytes() == first

    @pytest.mark.parametrize("rows", [10, 164])
    def test_synth_tracks_weight_rows_must_match_mesh(self, scene, capsys, rows):
        # The tube has 82 vertices: with 10 rows the tracked subset indexes
        # past the matrix, with 164 the first 82 rows would pass as the mesh's.
        tmp_path, rig_path, mesh_path, anim_path, cam_path = scene
        w = np.zeros((rows, 3))
        w[:, 0] = 1.0
        bad = tmp_path / "bad_rows.json"
        save_rig(bad, Rig(load_rig(rig_path).skeleton, SkinWeights(w)))
        tracks = tmp_path / "tracks.json"
        code, out = run(capsys, "synth-tracks", bad, mesh_path, anim_path,
                        "--camera", cam_path, "-o", tracks)
        assert code == 3
        assert out == ""
        assert not tracks.exists()

    def test_synth_tracks_nan_noise_rejected(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        code, out = run(capsys, "synth-tracks", skinned, mesh_path, anim_path,
                        "--camera", cam_path, "-o", tracks, "--noise-px", "nan")
        assert code == 3
        assert out == ""
        assert not tracks.exists()

    def test_synth_tracks_inf_noise_rejected(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        capsys.readouterr()
        code = main(["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
                     "--camera", str(cam_path), "-o", str(tracks), "--noise-px", "inf"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err == "rigkit synth-tracks: noise_px must be finite and non-negative\n"
        assert not tracks.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_synth_tracks_vertex_count_below_one_rejected(self, scene, capsys, count):
        # An empty subset would write a track file that animate rejects.
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        code, out = run(capsys, "synth-tracks", skinned, mesh_path, anim_path,
                        "--camera", cam_path, "-o", tracks, "--vertex-count", count)
        assert code == 3
        assert out == ""
        assert not tracks.exists()

    @pytest.mark.parametrize("camera", [
        {"eye": [0.0, 0.0, 3.0], "target": [0.0, 0.0, 3.0]},
        {"eye": [0.0, 0.0, 3.0], "target": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 2.0]},
    ], ids=["eye-at-target", "up-along-view"])
    def test_degenerate_look_at_rejected(self, scene, capsys, camera):
        tmp_path, skinned, mesh_path, anim_path, _ = self._skinned(scene)
        cam_path = tmp_path / "degenerate.json"
        cam_path.write_text(json.dumps(camera))
        tracks = tmp_path / "tracks.json"
        code, out = run(capsys, "synth-tracks", skinned, mesh_path, anim_path,
                        "--camera", cam_path, "-o", tracks)
        assert code == 3
        assert out == ""
        assert not tracks.exists()

    def test_look_at_owns_camera_defaults(self, tmp_path, monkeypatch):
        look_at = Camera.look_at.__func__
        monkeypatch.setattr(look_at, "__defaults__", ((1.0, 0.0, 0.0),))
        monkeypatch.setattr(look_at, "__kwdefaults__",
                            {"fx": 321.0, "fy": None, "width": 64, "height": 48})
        cam_path = tmp_path / "cam.json"
        cam_path.write_text(json.dumps({"eye": [0.0, 0.0, 3.0], "target": [0.0, 0.0, 0.0]}))
        cam = _load_camera(cam_path)
        assert (cam.fx, cam.fy, cam.width, cam.height) == (321.0, 321.0, 64, 48)
        assert cam.to_dict() == Camera.look_at((0.0, 0.0, 3.0), (0.0, 0.0, 0.0)).to_dict()

    def test_full_camera_dict(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, _ = self._skinned(scene)
        cam = Camera.look_at(eye=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0))
        cam_path = tmp_path / "cam_full.json"
        cam_path.write_text(json.dumps(cam.to_dict()))
        assert main(["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
                     "--camera", str(cam_path),
                     "-o", str(tmp_path / "t2.json")]) == 0

    def test_animate_smoke(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        main(["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
              "--camera", str(cam_path), "-o", str(tracks), "--vertex-count", "40"])
        fitted = tmp_path / "fit.json"
        frames_dir = tmp_path / "frames"
        code, out = run(
            capsys, "animate", skinned, mesh_path, tracks, "-o", fitted,
            "--iterations", "60", "--learning-rate", "0.03",
            "--export-obj", frames_dir,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["iterations"] <= 60
        assert summary["final_loss"] >= 0.0
        from rigkit.deform import load_animation

        rq, rt, jq = load_animation(fitted)
        assert rq.shape[0] == 4
        assert sorted(p.name for p in frames_dir.iterdir()) == [
            f"frame_{i:04d}.obj" for i in range(4)
        ]

    def test_deform_matches_export(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        main(["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
              "--camera", str(cam_path), "-o", str(tracks), "--noise-px", "0.5"])
        fitted = tmp_path / "fit.json"
        frames_dir = tmp_path / "frames"
        assert main(["animate", str(skinned), str(mesh_path), str(tracks),
                     "-o", str(fitted), "--iterations", "40",
                     "--learning-rate", "0.03", "--export-obj", str(frames_dir)]) == 0
        for i in range(4):
            # A negative --frame counts from the clip's end.
            for frame in (i, i - 4):
                posed = tmp_path / f"deform_{frame}.obj"
                assert main(["deform", str(skinned), str(mesh_path), str(fitted),
                             "-o", str(posed), "--frame", str(frame)]) == 0
                assert posed.read_bytes() == (
                    frames_dir / f"frame_{i:04d}.obj").read_bytes()

    def test_polygon_obj_export_matches_deform(self, scene, capsys):
        # A pentagonal prism read from quads and two pentagon caps (one by
        # negative indices), which parse_obj fan-triangulates: each exported
        # frame is still the file `rigkit deform --frame i` writes.
        tmp_path, rig_path, _, anim_path, cam_path = scene
        rings, sides = 6, 5
        ang = 2.0 * np.pi * np.arange(sides) / sides
        lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in np.column_stack((
            np.repeat(np.linspace(-0.5, 0.5, rings), sides),
            np.tile(0.1 * np.cos(ang), rings), np.tile(0.1 * np.sin(ang), rings))).tolist()]
        for i in range(rings - 1):
            for k in range(sides):
                a, b = i * sides + k + 1, i * sides + (k + 1) % sides + 1
                lines.append(f"f {a} {b} {b + sides} {a + sides}")
        lines.append("f " + " ".join(str(k) for k in range(sides, 0, -1)))
        lines.append("f " + " ".join(str(-k) for k in range(sides, 0, -1)))
        mesh_path = tmp_path / "prism.obj"
        mesh_path.write_text("\n".join(lines) + "\n")
        triangles = (rings - 1) * sides * 2 + 2 * (sides - 2)
        assert load_obj(mesh_path).triangle_count == triangles

        skinned, tracks = tmp_path / "prism_rig.json", tmp_path / "prism_tracks.json"
        fitted, frames_dir = tmp_path / "prism_fit.json", tmp_path / "prism_frames"
        for argv in (["skin-heuristic", rig_path, mesh_path, "-o", skinned],
                     ["synth-tracks", skinned, mesh_path, anim_path,
                      "--camera", cam_path, "-o", tracks],
                     ["animate", skinned, mesh_path, tracks, "-o", fitted,
                      "--iterations", "5", "--export-obj", frames_dir]):
            assert main([str(a) for a in argv]) == 0
        for i in range(4):
            posed = tmp_path / f"prism_{i}.obj"
            assert main(["deform", str(skinned), str(mesh_path), str(fitted),
                         "-o", str(posed), "--frame", str(i)]) == 0
            exported = (frames_dir / f"frame_{i:04d}.obj").read_bytes()
            assert exported == posed.read_bytes()
            assert exported.count(b"\nf ") == triangles

    def _still_tracks(self, scene):
        """Tracks of a one-frame clip, which animate fits without optimizing."""
        tmp_path, skinned, mesh_path, _, cam_path = self._skinned(scene)
        still = tmp_path / "still.json"
        save_animation(still, np.array([[1.0, 0, 0, 0]]), np.zeros((1, 3)),
                       np.tile([1.0, 0, 0, 0], (1, 3, 1)))
        tracks = tmp_path / "tracks.json"
        assert main(["synth-tracks", str(skinned), str(mesh_path), str(still),
                     "--camera", str(cam_path), "-o", str(tracks)]) == 0
        return tmp_path, skinned, mesh_path, tracks

    def test_animate_export_rig_without_root(self, scene, capsys):
        # A one-frame clip skips optimization, so the export is the first
        # place the rig's root is needed.
        tmp_path, skinned, mesh_path, tracks = self._still_tracks(scene)
        rig = load_rig(skinned)
        rootless = tmp_path / "rootless.json"
        save_rig(rootless, Rig(Skeleton(rig.skeleton.joints, np.array([1, 2, 0])),
                               rig.weights))
        capsys.readouterr()
        fitted = tmp_path / "fit.json"
        assert main(["animate", str(rootless), str(mesh_path), str(tracks),
                     "-o", str(fitted), "--export-obj", str(tmp_path / "frames")]) == 3
        assert "no-root" in capsys.readouterr().err
        assert not fitted.exists()

    def test_animate_export_onto_a_file(self, scene, capsys):
        tmp_path, skinned, mesh_path, tracks = self._still_tracks(scene)
        capsys.readouterr()
        assert main(["animate", str(skinned), str(mesh_path), str(tracks),
                     "-o", str(tmp_path / "fit.json"), "--export-obj", str(mesh_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rigkit animate: cannot write:")
        assert err.count("\n") == 1

    def _tracks_with(self, scene, edit):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        main(["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
              "--camera", str(cam_path), "-o", str(tracks), "--vertex-count", "20"])
        data = json.loads(tracks.read_text())
        edit(data)
        tracks.write_text(json.dumps(data))
        return tmp_path, skinned, mesh_path, tracks

    def test_animate_nan_track_rejected(self, scene, capsys):
        def poison(data):
            data["vertex_tracks"][2][5][0] = float("nan")

        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, poison)
        assert "NaN" in tracks.read_text()
        fitted = tmp_path / "fit.json"
        code, out = run(capsys, "animate", skinned, mesh_path, tracks,
                        "-o", fitted, "--iterations", "5")
        assert code == 3
        assert out == ""
        assert not fitted.exists()

    def test_animate_nan_camera_rejected(self, scene, capsys):
        def poison(data):
            data["camera"]["rotation"][1][2] = float("nan")

        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, poison)
        fitted = tmp_path / "fit.json"
        code, out = run(capsys, "animate", skinned, mesh_path, tracks,
                        "-o", fitted, "--iterations", "5")
        assert code == 3
        assert out == ""
        assert not fitted.exists()

    def test_animate_negative_focal_rejected(self, scene, capsys):
        def poison(data):
            data["camera"]["fx"] = -5.0

        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, poison)
        fitted = tmp_path / "fit.json"
        code, out = run(capsys, "animate", skinned, mesh_path, tracks,
                        "-o", fitted, "--iterations", "5")
        assert code == 3
        assert out == ""
        assert not fitted.exists()

    def test_animate_negative_vertex_index_rejected(self, scene, capsys):
        def wrap(data):
            data["vertex_subset"][0] = -1

        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, wrap)
        fitted = tmp_path / "fit.json"
        code, out = run(capsys, "animate", skinned, mesh_path, tracks,
                        "-o", fitted, "--iterations", "5")
        assert code == 3
        assert out == ""
        assert not fitted.exists()

    def test_animate_one_frame_vertex_index_past_mesh_rejected(self, scene, capsys):
        # One frame skips optimization; the inputs are still checked.
        def cut(data):
            data["joint_tracks"] = data["joint_tracks"][:1]
            data["vertex_tracks"] = data["vertex_tracks"][:1]
            data["vertex_subset"][-1] = 82  # the tube's vertex count

        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, cut)
        fitted = tmp_path / "fit.json"
        code, out = run(capsys, "animate", skinned, mesh_path, tracks, "-o", fitted)
        assert code == 3
        assert out == ""
        assert not fitted.exists()

    @pytest.mark.parametrize("flag", [
        ("--learning-rate", "0"),
        ("--learning-rate", "-1"),
        ("--learning-rate", "nan"),
        ("--reg-weight", "nan"),
    ])
    def test_animate_bad_optimizer_settings_rejected(self, scene, capsys, flag):
        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, lambda data: None)
        fitted = tmp_path / "fit.json"
        code, out = run(capsys, "animate", skinned, mesh_path, tracks,
                        "-o", fitted, "--iterations", "5", *flag)
        assert code == 3
        assert out == ""
        assert not fitted.exists()

    def test_animate_overflowing_objective_diverges(self, scene, capsys):
        # Finite tracks far off-screen: the squared residuals overflow.
        def scale(data):
            data["vertex_tracks"] = (np.array(data["vertex_tracks"]) * 1e200).tolist()

        tmp_path, skinned, mesh_path, tracks = self._tracks_with(scene, scale)
        fitted = tmp_path / "fit.json"
        with np.errstate(over="ignore"):
            code, out = run(capsys, "animate", skinned, mesh_path, tracks,
                            "-o", fitted, "--iterations", "5")
        assert code == 4
        assert out == ""
        assert not fitted.exists()

    def test_animate_rerun_identical(self, scene, capsys):
        tmp_path, skinned, mesh_path, anim_path, cam_path = self._skinned(scene)
        tracks = tmp_path / "tracks.json"
        main(["synth-tracks", str(skinned), str(mesh_path), str(anim_path),
              "--camera", str(cam_path), "-o", str(tracks)])
        fitted = tmp_path / "fit.json"
        args = ["animate", str(skinned), str(mesh_path), str(tracks),
                "-o", str(fitted), "--iterations", "25"]
        main(args)
        first = fitted.read_bytes()
        main(args)
        assert fitted.read_bytes() == first


class TestAnneal:
    def test_schedule_table(self, capsys):
        code, out = run(capsys, "anneal", "--epochs", "100")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 101
        table = dict(line.split(" ", 1) for line in lines)
        assert table["0"] == "1.0"
        assert table["50"] == "1.0"
        assert table["62"] == "0.52"
        assert table["75"] == "0.0"
        assert table["100"] == "0.0"

    def test_rerun_identical(self, capsys):
        _, first = run(capsys, "anneal", "--epochs", "64")
        _, second = run(capsys, "anneal", "--epochs", "64")
        assert first == second

    def test_bad_epochs(self, capsys):
        for epochs in ("-5", "0"):
            assert main(["anneal", "--epochs", epochs]) == 3
            assert "--epochs must be at least 1" in capsys.readouterr().err


class TestGradCheckCommand:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "grad-check", "--instances", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("PASS") for line in lines)
        assert all("instances=2" in line for line in lines)

    def test_row_labels_in_printed_order(self, capsys):
        # Reports are keyed by these labels, so renaming a check must show here.
        labels = ["topology_aware_attention", "skinning_head",
                  "next_token_cross_entropy", "tracking_loss", "smoothness_regularizer"]
        assert [r.kernel for r in run_all(seed=0, instances=1)] == labels
        _, out = run(capsys, "grad-check", "--instances", "1")
        assert [line.split()[0] for line in out.splitlines()] == labels

    def test_nan_error_fails(self, capsys, monkeypatch):
        # A NaN gradient in the middle instance of three fails its kernel and
        # the command; a running max() drops it, and the finite error of the
        # instance after it must not hide it.
        vjp = gradcheck.kernels.skinning_head_vjp
        calls = []

        def poisoned(*args):
            grads = vjp(*args)
            calls.append(1)
            if len(calls) % 3 == 2:
                grads[0][0, 0] = np.nan
            return grads

        monkeypatch.setattr(gradcheck.kernels, "skinning_head_vjp", poisoned)
        results = {r.kernel: r for r in run_all(seed=0, instances=3)}
        assert np.isnan(results["skinning_head"].max_rel_error)
        assert [k for k, r in results.items() if not r.passed] == ["skinning_head"]
        code, out = run(capsys, "grad-check", "--instances", "3")
        assert code == 3
        assert [line.split()[-1] for line in out.splitlines()] == [
            "PASS", "FAIL", "PASS", "PASS", "PASS"]

    def test_zero_instances_rejected(self, capsys):
        code, out = run(capsys, "grad-check", "--instances", "0")
        assert code == 3
        assert out == ""
        # The library refuses a count it would otherwise hand to range.
        for instances in (0, 1.5, True, "2"):
            with pytest.raises(ValueError, match="instances"):
                run_all(seed=0, instances=instances)
