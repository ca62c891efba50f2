"""The four benchmark workloads.

Each workload has a ``setup()`` that builds its inputs from the seed and
prepares what every task reuses, and a ``task(k)`` that runs one unit of
work through rigkit's public API.  ``task`` returns a ``verify`` callable;
the runner times ``task`` alone and then calls ``verify``, which checks every
output and returns (operations attempted, operations failed).  An operation
fails when any of its checks fails or when it raises.  Reference answers
come from the benchmark's own code in :mod:`scenes`, and ``verify`` calls
no rigkit function, so checking adds nothing to the timings or the traces.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import rigkit
from rigkit import animate, cli, codec

import scenes


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # Workload-specific results for the report (fit accuracy, ...).
        self.extras: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def task(self, k: int):
        raise NotImplementedError

    def fail(self, what: str) -> None:
        print(f"[{self.name}] check failed: {what}", file=sys.stderr)


def _attempt(workload: Workload, label: str, fn):
    """Run one program operation; an exception is reported and returned."""
    try:
        return fn()
    except Exception as e:  # one failed operation must not end the run
        workload.fail(f"{label} raised\n{traceback.format_exc()}")
        return e


# ---------------------------------------------------------------------------
# fit: the acceptance-10 recovery scene, fixed Adam budget
# ---------------------------------------------------------------------------


class Fit(Workload):
    """10-joint chain in a 62x32 tube (1986 vertices, 3968 triangles), 30
    frames, 300 tracked vertices at 1 px noise, fitted with a fixed Adam
    budget and the plateau stop off.

    The ground-truth clip is the acceptance-10 ramp (drawn from its own
    fixed stream); the seed draws the track noise and the tracked subset.
    """

    name = "fit"
    JOINTS, FRAMES, TRACKED, NOISE_PX = 10, 30, 300, 1.0
    BUDGET = 100
    # Gates on the accuracy reached within the budget, with margin over what
    # the seed commit reaches on every seed tried (10.0-10.6 deg, 2.0-2.3 px).
    ROT_GATE_DEG = 13.0
    REPROJ_GATE_PX = 3.0

    def setup(self) -> None:
        rest, parents = scenes.chain_along_x(self.JOINTS, 0.9)
        verts, tris = scenes.tube_mesh(1.8, 0.12, rings=62, sides=32)
        targets = scenes.random_targets(
            np.random.default_rng(1010), self.JOINTS, 15.0, 45.0,
            range(1, self.JOINTS - 1),
        )
        self.clip = scenes.ramp_clip(targets, self.FRAMES)
        self.camera_dict = scenes.look_at((0.15, 0.2, 3.2), (0.0, 0.0, 0.0), 1000.0)

        self.skeleton = rigkit.Skeleton(rest, parents)
        self.mesh = rigkit.Mesh(verts, tris)
        self.weights = rigkit.heuristic_skin_weights(
            self.mesh, self.skeleton, k_nearest=3, falloff=0.1
        )
        self.tracks = rigkit.synthesize_tracks(
            self.mesh, self.skeleton, self.weights,
            animate.params_from_animation(*self.clip),
            rigkit.Camera.from_dict(self.camera_dict),
            noise_px=self.NOISE_PX, seed=self.seed, vertex_count=self.TRACKED,
        )
        self.config = rigkit.OptimizeConfig(
            iterations=self.BUDGET, learning_rate=0.03, reg_weight=1e-2,
            plateau_window=self.BUDGET + 1,
        )
        self._truth_uv = None

    def _render(self, clip):
        return scenes.render_clip(
            self.skeleton.joints, self.skeleton.parents, self.weights.matrix,
            self.mesh.vertices, self.camera_dict, *clip,
        )

    def task(self, k: int):
        result = _attempt(self, f"fit {k}", lambda: rigkit.optimize(
            self.mesh, self.skeleton, self.weights, self.tracks, self.config))
        return lambda: (1, 0 if self._check(k, result) else 1)

    def _check(self, k: int, result) -> bool:
        if isinstance(result, Exception):
            return False
        jq = np.concatenate([np.tile(scenes.IDENTITY_QUAT, (1, self.JOINTS, 1)),
                             result.params.joint_quats])
        rq = np.vstack([scenes.IDENTITY_QUAT, result.params.root_quats])
        rt = np.vstack([np.zeros(3), result.params.root_trans])
        if not all(np.all(np.isfinite(a)) for a in (jq, rq, rt)):
            self.fail(f"fit {k}: fitted clip is not finite")
            return False
        if self._truth_uv is None:
            self._truth_uv = self._render(self.clip)
        juv, vuv = self._truth_uv
        fit_juv, fit_vuv = self._render((rq, rt, jq))
        sub = self.tracks.vertex_subset
        d_j = np.linalg.norm(fit_juv[1:] - juv[1:], axis=2)[
            :, self.tracks.joint_visibility]
        d_v = np.linalg.norm(fit_vuv[1:, sub] - vuv[1:, sub], axis=2)[
            :, self.tracks.vertex_visibility]
        reproj = float(np.mean(np.concatenate([d_j.ravel(), d_v.ravel()])))
        g_rq, _, g_jq = self.clip
        rot = float(np.mean(np.concatenate([
            scenes.geodesic_deg(jq[1:], g_jq[1:]).ravel(),
            scenes.geodesic_deg(rq[1:], g_rq[1:]).ravel(),
        ])))
        self.extras["fit_reproj_px"] = reproj
        self.extras["fit_rot_err_deg"] = rot
        ok = True
        if result.iterations != self.BUDGET:
            self.fail(f"fit {k}: ran {result.iterations} steps, budget {self.BUDGET}")
            ok = False
        if not rot < self.ROT_GATE_DEG:
            self.fail(f"fit {k}: rotation error {rot:.3f} deg >= {self.ROT_GATE_DEG}")
            ok = False
        if not reproj < self.REPROJ_GATE_PX:
            self.fail(f"fit {k}: reprojection {reproj:.3f} px >= {self.REPROJ_GATE_PX}")
            ok = False
        return ok


# ---------------------------------------------------------------------------
# synth: the CLI file pipeline on two meshes
# ---------------------------------------------------------------------------


def _write_obj(path: Path, verts: np.ndarray, tris: np.ndarray) -> None:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in verts.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in tris.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _obj_shape(path: Path) -> tuple[int, int]:
    """(vertex count, face count) of an OBJ file; every v line must parse."""
    v = f = 0
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            if not np.all(np.isfinite([float(x) for x in line.split()[1:4]])):
                return -1, -1
            v += 1
        elif line.startswith("f "):
            f += 1
    return v, f


class Synth(Workload):
    """skin-heuristic -> synth-tracks -> metrics --mesh -> deform -> a short
    animate --export-obj, in-process through ``rigkit.cli.main``, on the
    62x32 tube (1986 vertices) and a closed icosphere-4 (2562 vertices).

    The seed draws each scene's clip, the predicted rig's joint jitter and
    the track noise; meshes, skeletons and cameras are fixed so the ray
    casting work is the same for every seed.
    """

    name = "synth"
    FRAMES = 8
    TRACKED = 100
    ANIMATE_ITERS = 5

    def _scene(self, label, verts, tris, rest, parents, eye, rng):
        d = self.workdir / "inputs" / label
        d.mkdir(parents=True, exist_ok=True)
        _write_obj(d / "mesh.obj", verts, tris)
        (d / "rig.json").write_text(json.dumps(
            {"joints": rest.tolist(), "parents": parents.tolist()}))
        pred = rest + rng.normal(0.0, 0.02, rest.shape)
        (d / "pred.json").write_text(json.dumps(
            {"joints": pred.tolist(), "parents": parents.tolist()}))
        j = rest.shape[0]
        targets = scenes.random_targets(rng, j, 5.0, 30.0, range(j))
        rq, rt, jq = scenes.ramp_clip(targets, self.FRAMES)
        frames = [
            {"root_quat": rq[i].tolist(), "root_trans": rt[i].tolist(),
             "joint_quats": jq[i].tolist()}
            for i in range(self.FRAMES)
        ]
        (d / "clip.json").write_text(json.dumps({"frames": frames}))
        (d / "camera.json").write_text(json.dumps(
            {"eye": list(eye), "target": [0.0, 0.0, 0.0], "fx": 1000.0,
             "width": 1024, "height": 1024}))
        return d, verts.shape[0], tris.shape[0], j

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.workdir / "inputs", ignore_errors=True)
        tube = scenes.tube_mesh(1.8, 0.12, rings=62, sides=32)
        sphere = scenes.icosphere(4, radius=0.45)
        self.scenes = [
            self._scene("tube", *tube, *scenes.chain_along_x(10, 0.9),
                        (0.15, 0.2, 3.2), rng),
            self._scene("icosphere", *sphere, *scenes.chain_along_x(5, 0.3),
                        (0.1, 0.3, 2.5), rng),
        ]
        self.reference: dict[str, bytes] | None = None

    def _invocations(self, d: Path, out: Path) -> list[list[str]]:
        mesh, clip = str(d / "mesh.obj"), str(d / "clip.json")
        gt, pred, tracks = str(out / "gt.json"), str(out / "pred.json"), str(out / "tracks.json")
        return [
            ["skin-heuristic", str(d / "rig.json"), mesh, "-o", gt],
            ["skin-heuristic", str(d / "pred.json"), mesh, "-o", pred,
             "--falloff", "0.15"],
            ["synth-tracks", gt, mesh, clip, "--camera", str(d / "camera.json"),
             "-o", tracks, "--noise-px", "0.5", "--seed", str(self.seed),
             "--vertex-count", str(self.TRACKED)],
            ["metrics", pred, gt, "--mesh", mesh, "--seed", str(self.seed)],
            ["deform", gt, mesh, clip, "-o", str(out / "posed.obj")],
            ["animate", gt, mesh, tracks, "-o", str(out / "fit.json"),
             "--iterations", str(self.ANIMATE_ITERS), "--export-obj",
             str(out / "frames")],
        ]

    def task(self, k: int):
        run_dir = self.workdir / f"pass{k}"
        codes: list[tuple[str, str, object]] = []
        stdouts: dict[str, bytes] = {}
        for d, *_ in self.scenes:
            out = run_dir / d.name
            out.mkdir(parents=True, exist_ok=True)
            for i, argv in enumerate(self._invocations(d, out)):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = _attempt(self, f"{d.name}: rigkit {argv[0]}",
                                    lambda: cli.main(argv))
                codes.append((d.name, argv[0], code))
                stdouts[f"{d.name}/{i}-{argv[0]}.stdout"] = stdout.getvalue().encode()
        return lambda: self._check(k, run_dir, codes, stdouts)

    def _parses(self, out: Path, n_verts: int, n_tris: int, n_joints: int) -> bool:
        for name in ("gt.json", "pred.json"):
            w = np.asarray(json.loads((out / name).read_text())["weights"])
            if w.shape != (n_verts, n_joints) or not np.allclose(w.sum(axis=1), 1.0):
                return False
        tracks = json.loads((out / "tracks.json").read_text())
        if np.asarray(tracks["joint_tracks"]).shape != (self.FRAMES, n_joints, 2):
            return False
        if np.asarray(tracks["vertex_tracks"]).shape != (self.FRAMES, self.TRACKED, 2):
            return False
        fit = json.loads((out / "fit.json").read_text())
        if len(fit["frames"]) != self.FRAMES:
            return False
        objs = [out / "posed.obj"] + sorted((out / "frames").glob("*.obj"))
        if len(objs) != self.FRAMES + 1:
            return False
        return all(_obj_shape(p) == (n_verts, n_tris) for p in objs)

    def _check(self, k, run_dir, codes, stdouts) -> tuple[int, int]:
        attempted = len(codes)
        failed = 0
        for mesh, command, code in codes:
            if code != 0:
                failed += 1
                self.fail(f"pass {k}, {mesh}: rigkit {command} returned {code!r}")
        for d, n_verts, n_tris, n_joints in self.scenes:
            attempted += 1
            try:
                ok = self._parses(run_dir / d.name, n_verts, n_tris, n_joints)
            except (OSError, ValueError, KeyError) as e:
                ok = False
                self.fail(f"pass {k}, {d.name}: outputs do not parse: {e}")
            if not ok:
                failed += 1
                self.fail(f"pass {k}, {d.name}: outputs malformed")
        # Every pass reruns the same inputs, so its stdout and files must be
        # byte-identical to the first pass's.
        outputs = dict(stdouts)
        for p in sorted(run_dir.rglob("*")):
            if p.is_file():
                outputs[str(p.relative_to(run_dir))] = p.read_bytes()
        attempted += 1
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            failed += 1
            differ = sorted(
                n for n in set(outputs) | set(self.reference)
                if outputs.get(n) != self.reference.get(n)
            )
            self.fail(f"pass {k} differs from the first pass in {differ[:5]}")
        shutil.rmtree(run_dir, ignore_errors=True)
        return attempted, failed


# ---------------------------------------------------------------------------
# gradcheck: the grad-check battery
# ---------------------------------------------------------------------------


class GradCheck(Workload):
    """``rigkit grad-check`` at 20 instances: every analytic gradient against
    central differences.  Task k runs the battery under a seed drawn from
    (seed, k)."""

    name = "gradcheck"
    INSTANCES = 20
    KERNELS = 5

    def setup(self) -> None:
        # A single-instance battery lets first-call costs land in set-up.
        rigkit.run_gradient_checks(seed=self.seed, instances=1)

    def task(self, k: int):
        battery_seed = int(np.random.default_rng([self.seed, k]).integers(2**31))
        results = _attempt(self, f"battery {k}", lambda: rigkit.run_gradient_checks(
            seed=battery_seed, instances=self.INSTANCES))
        return lambda: self._check(battery_seed, results)

    def _check(self, battery_seed, results) -> tuple[int, int]:
        if isinstance(results, Exception):
            return self.KERNELS, self.KERNELS
        failed = 0
        for r in results:
            if not (r.passed and r.instances == self.INSTANCES):
                failed += 1
                self.fail(f"{r.kernel}: max rel err {r.max_rel_error:.3e}"
                          f" >= {r.tolerance:.0e} (seed {battery_seed})")
        missing = self.KERNELS - len(results)
        if missing:
            self.fail(f"battery ran {len(results)} kernels, expected {self.KERNELS}")
        return max(len(results), self.KERNELS), failed + max(missing, 0)


# ---------------------------------------------------------------------------
# tokens: codec round trips over random trees
# ---------------------------------------------------------------------------


def _cells(coords: np.ndarray) -> np.ndarray:
    """The codec's 128-bin quantization cell of each coordinate."""
    return np.clip(np.floor((coords + 0.5) * 128), 0, 127).astype(np.int64)


class Tokens(Workload):
    """Round trips of 980 random trees of 1-70 joints (the acceptance-1
    sizes): joint scheme in hierarchical and in spatial order, bone scheme,
    group shuffle/unshuffle, and token file write/read.

    The trees come in 14 batches of 70, each holding one tree of every size
    from 1 to 70, so every task (one batch) does the same amount of work
    whatever the seed.  Trees whose joints share a quantization cell are
    redrawn: the bone scheme keys joints by cell, so such a tree cannot
    round-trip by design.
    """

    name = "tokens"
    BATCHES = 14
    SIZES = range(1, 71)
    TOL = 1.0 / 256.0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        batches = []
        for _ in range(self.BATCHES):
            batch = []
            for j in rng.permutation(np.array(self.SIZES)):
                while True:
                    joints, parents = scenes.random_tree(rng, int(j))
                    cells = {tuple(c) for c in _cells(joints).tolist()}
                    if len(cells) == j:
                        break
                batch.append(rigkit.Skeleton(joints, parents))
            batches.append(batch)
        self.batches = batches
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.token_path = self.workdir / "tree.tok"

    def _round_trips(self, s, i: int) -> dict:
        """All program calls for one tree; checked later by ``_check_tree``."""
        out = {"hier": rigkit.hierarchical_order(s)}
        t = codec.tokenize_joint_based(s, out["hier"])
        out["joint"] = codec.detokenize_joint_based(t)
        out["spatial"] = rigkit.spatial_order(s)
        out["joint_spatial"] = codec.detokenize_joint_based(
            codec.tokenize_joint_based(s, out["spatial"], require_causal=False))
        if s.joint_count >= 2:  # a lone root has no bone to emit
            out["bone"] = codec.detokenize_bone_based(
                codec.tokenize_bone_based(s, out["hier"]))
        shuffled = codec.randomize_groups(t, self.seed * 7919 + i, 1.0)
        codec.write_token_file(self.token_path, shuffled)
        read = codec.read_token_file(self.token_path)
        out["shuffle"] = (t.tokens, shuffled, read, codec.unshuffle_groups(read))
        return out

    def task(self, k: int):
        batch = self.batches[k % self.BATCHES]
        results = [
            _attempt(self, f"tree {i} ({s.joint_count} joints)",
                     lambda: self._round_trips(s, i))
            for i, s in enumerate(batch)
        ]
        return lambda: self._check(batch, results)

    def _check(self, batch, results) -> tuple[int, int]:
        attempted = failed = 0
        for i, (s, out) in enumerate(zip(batch, results)):
            checks = 4 if s.joint_count >= 2 else 3
            attempted += checks
            if isinstance(out, Exception):
                failed += checks
                continue
            for label, ok in self._check_tree(s, out):
                if not ok:
                    failed += 1
                    self.fail(f"tree {i} ({s.joint_count} joints): {label}")
        return attempted, failed

    def _check_tree(self, s, out):
        j = s.joint_count
        hier = np.asarray(out["hier"])
        depth = np.zeros(j, dtype=np.int64)
        for k in range(j):
            c = k
            while s.parents[c] >= 0:
                c = int(s.parents[c])
                depth[k] += 1
        # hierarchical order: a permutation, parents first, depth-sorted
        pos = np.empty(j, dtype=np.int64)
        ok_order = sorted(hier.tolist()) == list(range(j))
        if ok_order:
            pos[hier] = np.arange(j)
            ok_order = bool(np.all(np.diff(depth[hier]) >= 0))
        yield "hierarchical order", ok_order
        if ok_order:
            yield "joint scheme, hierarchical", self._joint_ok(s, hier, out["joint"])
            yield "joint scheme, spatial", self._joint_ok(
                s, np.asarray(out["spatial"]), out["joint_spatial"])
            if "bone" in out:
                yield "bone scheme", self._bone_ok(s, hier, out["bone"])
        tokens, shuffled, read, restored = out["shuffle"]
        yield "shuffle + token file", (
            np.array_equal(read.tokens, shuffled.tokens)
            and np.array_equal(read.indicators, shuffled.indicators)
            and np.array_equal(restored.tokens, tokens)
        )

    def _joint_ok(self, s, order, decoded) -> bool:
        """Exact topology (forward references decode as flagged extra
        roots) and every coordinate within 1/256 of the source."""
        back, diags = decoded
        j = s.joint_count
        if sorted(order.tolist()) != list(range(j)) or back.joint_count != j:
            return False
        position = np.empty(j, dtype=np.int64)
        position[order] = np.arange(j)
        want = np.full(j, -1, dtype=np.int64)
        forward = 0
        for m, orig in enumerate(order):
            p = int(s.parents[orig])
            if p < 0:
                continue
            if position[p] < m:
                want[m] = position[p]
            else:
                forward += 1
        return (
            len(diags) == forward
            and np.array_equal(back.parents, want)
            and float(np.max(np.abs(back.joints - s.joints[order]))) <= self.TOL
        )

    def _bone_ok(self, s, order, decoded) -> bool:
        """Same edge set between quantization cells, the root first, and
        every coordinate within 1/256 of the source joint in its cell."""
        back, diags = decoded
        if diags or back.joint_count != s.joint_count:
            return False
        keys = [tuple(c) for c in _cells(s.joints).tolist()]
        back_keys = [tuple(c) for c in _cells(back.joints).tolist()]
        index = {key: i for i, key in enumerate(keys)}
        if set(back_keys) != set(keys):
            return False
        want = {(keys[int(s.parents[k])], keys[k])
                for k in range(s.joint_count) if s.parents[k] >= 0}
        got = {(back_keys[int(back.parents[k])], back_keys[k])
               for k in range(back.joint_count) if back.parents[k] >= 0}
        err = max(
            float(np.max(np.abs(back.joints[i] - s.joints[index[key]])))
            for i, key in enumerate(back_keys)
        )
        return got == want and back_keys[0] == keys[int(order[0])] and err <= self.TOL


WORKLOADS = {w.name: w for w in (Fit, Synth, GradCheck, Tokens)}
