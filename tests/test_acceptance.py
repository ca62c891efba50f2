"""Acceptance suite: one test per shipped guarantee.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
These are deliberately coarse-grained; the per-module test files hold the
fine-grained cases.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from rigkit import (
    AnimParams,
    Camera,
    Mesh,
    OptimizeConfig,
    Skeleton,
    SkinWeights,
    Rig,
    bone_segments,
    chamfer_b2b,
    chamfer_j2b,
    chamfer_j2j,
    deformation_error,
    heuristic_skin_weights,
    joint_visibility,
    hierarchical_order,
    optimize,
    permutation_probability,
    sample_augmented_pose,
    save_rig,
    skinning_head,
    skinning_l1,
    skinning_precision_recall,
    spatial_order,
    synthesize_tracks,
    vertex_visibility,
)
from rigkit import codec, gradcheck, quat
from rigkit.animate import _tracked_points
from rigkit.cli import main as cli_main
from rigkit.deform import _BlendBasis, pose_clip, save_animation
from rigkit.geometry import project, write_obj
from rigkit.kernels import reference_attention, topology_aware_attention

from helpers import (
    brute_chamfer_j2j,
    geodesic_angle,
    icosphere,
    naive_lbs,
    path_product_fk,
    permute_joints,
    random_chain,
    random_simplex_weights,
    random_tree,
    random_unit_quats,
    slerp,
    star_mesh,
    subdivided_cube,
    tube_mesh,
    zbuffer_visibility,
)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Joint-token round trip over 1000 skeletons
# ---------------------------------------------------------------------------


def test_01_token_round_trip_1000_trees():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        j = int(rng.integers(1, 71))
        s = random_tree(rng, j)
        order = hierarchical_order(s)
        tok = codec.tokenize_joint_based(s, order)
        back, diags = codec.detokenize_joint_based(tok)
        assert diags == []
        want = permute_joints(s, order)
        assert np.array_equal(back.parents, want.parents)
        worst = max(worst, float(np.max(np.abs(back.joints - want.joints))))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0 and worst <= 1.0 / 256.0
    report(
        1,
        "1000-skeleton token round trip (topology exact, coords <= 1/256)",
        ok,
        f"{elapsed:.2f}s, worst axis error {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# 2. Scheme compactness across joint counts
# ---------------------------------------------------------------------------


def test_02_scheme_compactness():
    rng = np.random.default_rng(1002)
    ok = True
    for j in range(2, 71):
        s = random_chain(rng, j)
        order = hierarchical_order(s)
        nj = len(codec.tokenize_joint_based(s, order))
        nb = len(codec.tokenize_bone_based(s, order))
        if j == 2:
            ok = ok and nj > nb
        elif j == 3:
            ok = ok and nj == nb
        else:
            ok = ok and nj < nb
    report(
        2,
        "joint scheme shorter than bone scheme for j > 3, equal at 3",
        ok,
        "j in [2, 70]",
    )


# ---------------------------------------------------------------------------
# 3. Traversal-order hazard
# ---------------------------------------------------------------------------


def test_03_traversal_order_hazard():
    s = Skeleton(
        joints=np.array([[0.0, 0.0, 0.4], [0.0, 0.0, -0.4]]),
        parents=np.array([-1, 0]),
    )
    rejected = False
    try:
        codec.tokenize_joint_based(s, spatial_order(s))
    except ValueError:
        rejected = True

    tok = codec.tokenize_joint_based(s, spatial_order(s), require_causal=False)
    _, diags = codec.detokenize_joint_based(tok)
    flagged = bool(diags) and any("not yet emitted" in d for d in diags)

    clean = True
    rng = np.random.default_rng(1003)
    for _ in range(25):
        t = random_tree(rng, int(rng.integers(2, 30)))
        order = hierarchical_order(t)
        back, d = codec.detokenize_joint_based(codec.tokenize_joint_based(t, order))
        clean = clean and d == [] and np.array_equal(
            back.parents, permute_joints(t, order).parents
        )
    report(
        3,
        "spatial-order forward references rejected then flagged; "
        "hierarchical order always clean",
        rejected and flagged and clean,
    )


# ---------------------------------------------------------------------------
# 4. Shuffle annealing schedule
# ---------------------------------------------------------------------------


def test_04_anneal_schedule():
    ok = True
    worst = 0.0
    for total in (16, 32, 160, 1600):
        expected = {
            0: 1.0,
            total // 4: 1.0,
            total // 2: 1.0,
            9 * total // 16: 0.75,
            5 * total // 8: 0.5,
            3 * total // 4: 0.0,
            total: 0.0,
        }
        for epoch, want in expected.items():
            got = permutation_probability(epoch, total)
            worst = max(worst, abs(got - want))
            ok = ok and abs(got - want) <= 1e-15
    report(
        4,
        "shuffle schedule hits 1.0 / 0.75 / 0.5 / 0.0 at the pivot epochs",
        ok,
        f"worst deviation {worst:.1e}",
    )


# ---------------------------------------------------------------------------
# 5. Finite-difference gradient suite
# ---------------------------------------------------------------------------


def test_05_gradient_suite():
    t0 = time.perf_counter()
    results = gradcheck.run_all(seed=0, instances=20)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in results)
    ok = len(results) == 5 and all(r.passed for r in results) and elapsed < 60.0
    report(
        5,
        "all five kernels pass finite-difference checks (20 instances each)",
        ok,
        f"{elapsed:.1f}s, worst rel err {worst:.2e}, tol 1e-04",
    )


# ---------------------------------------------------------------------------
# 6. Neutral bias weight is bitwise-neutral
# ---------------------------------------------------------------------------


def test_06_attention_neutral_bias_bitwise():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        h = int(rng.integers(1, 5))
        n = int(rng.integers(2, 24))
        d = int(rng.integers(2, 17))
        q = rng.standard_normal((h, n, d))
        k = rng.standard_normal((h, n, d))
        v = rng.standard_normal((h, n, d))
        bias = rng.standard_normal((n, n, h)) * 10.0
        out, attn = topology_aware_attention(q, k, v, bias, lam=0.0)
        ref_out, ref_attn = reference_attention(q, k, v)
        ok = ok and np.array_equal(out, ref_out) and np.array_equal(attn, ref_attn)
    report(
        6,
        "biased attention at weight 0 is bitwise identical to plain attention",
        ok,
        "100 random instances",
    )


# ---------------------------------------------------------------------------
# 7. Skinning head rows stay on the simplex at scale
# ---------------------------------------------------------------------------


def test_07_skinning_head_simplex():
    rng = np.random.default_rng(1007)
    n, j, d = 100_000, 23, 16
    p = rng.standard_normal((n, d))
    p[::97] = 0.0  # zero feature rows must not produce NaN
    b = rng.standard_normal((j, d))
    b[5] = 0.0
    w = skinning_head(p, b, alpha=8.0)
    sums = w.sum(axis=1)
    ok = (
        w.shape == (n, j)
        and bool(np.all(np.isfinite(w)))
        and bool(np.all(w >= 0.0))
        and float(np.max(np.abs(sums - 1.0))) <= 1e-6
        and np.allclose(w[0], 1.0 / j)  # zero row -> uniform
    )
    report(
        7,
        "100k skinning rows are finite, non-negative, and sum to 1 within 1e-6",
        ok,
        f"worst row-sum deviation {float(np.max(np.abs(sums - 1.0))):.2e}",
    )


# ---------------------------------------------------------------------------
# 8. Kinematics and skinning against independent oracles
# ---------------------------------------------------------------------------


def test_08_fk_lbs_oracles_500_rigs():
    rng = np.random.default_rng(1008)
    worst_fk = 0.0
    worst_lbs = 0.0
    identity_exact = True
    for _ in range(500):
        j = int(rng.integers(2, 16))
        s = random_tree(rng, j)
        jq = random_unit_quats(rng, (j,))
        trans = rng.standard_normal(3)
        want = path_product_fk(s, jq, None, trans)
        verts = rng.uniform(-1.0, 1.0, (8, 3))
        w = random_simplex_weights(rng, 8, j)
        cache, got = pose_clip(s, _BlendBasis(verts, w), quat.IDENTITY, trans, jq)
        g = cache.transforms[..., :-1, :, :]
        worst_fk = max(worst_fk, float(np.max(np.abs(g - want))))
        want_v = naive_lbs(verts, w, g)
        worst_lbs = max(worst_lbs, float(np.max(np.abs(got - want_v))))

        onehot = np.zeros((8, j))
        onehot[:, 0] = 1.0
        cache, rest = pose_clip(
            s, _BlendBasis(verts, onehot), quat.IDENTITY, np.zeros(3),
            np.tile(quat.IDENTITY, (j, 1)),
        )
        gi = cache.transforms[..., :-1, :, :]
        identity_exact = identity_exact and np.array_equal(gi, np.tile(np.eye(4), (j, 1, 1)))
        identity_exact = identity_exact and np.array_equal(rest, verts)
    ok = worst_fk <= 1e-9 and worst_lbs <= 1e-9 and identity_exact
    report(
        8,
        "500 rigs: FK/LBS match path-product and per-vertex oracles within 1e-9, "
        "identity bitwise",
        ok,
        f"worst FK {worst_fk:.2e}, worst LBS {worst_lbs:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. Metric implementations against independent oracles
# ---------------------------------------------------------------------------


def _sampled_j2b(a: Skeleton, b: Skeleton, n: int = 4001) -> float:
    def directed(joints, other):
        starts, ends, _ = bone_segments(other)
        t = np.linspace(0.0, 1.0, n)
        pts = (
            starts[:, None, :] + t[None, :, None] * (ends - starts)[:, None, :]
        ).reshape(-1, 3)
        d2 = np.sum((joints[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        return float(np.mean(np.sqrt(d2.min(axis=1))))

    return 0.5 * (directed(a.joints, b) + directed(b.joints, a))


def test_09_metric_oracles():
    rng = np.random.default_rng(1009)

    j2j_ok = True
    for _ in range(100):
        a = random_tree(rng, int(rng.integers(2, 20)))
        b = random_tree(rng, int(rng.integers(2, 20)))
        j2j_ok = j2j_ok and chamfer_j2j(a, b) == pytest.approx(
            brute_chamfer_j2j(a.joints, b.joints), rel=1e-12
        )

    j2b_ok = True
    b2b_ok = True
    for _ in range(30):
        a = random_tree(rng, int(rng.integers(2, 10)))
        b = random_tree(rng, int(rng.integers(2, 10)))
        j2b_ok = j2b_ok and abs(chamfer_j2b(a, b) - _sampled_j2b(a, b)) < 1e-3
        coarse = chamfer_b2b(a, b, bone_samples=128)
        fine = chamfer_b2b(a, b, bone_samples=256)
        b2b_ok = b2b_ok and abs(fine - coarse) < 1e-3

    skin_ok = True
    for _ in range(100):
        v, j = int(rng.integers(4, 20)), int(rng.integers(2, 6))
        pred = SkinWeights(random_simplex_weights(rng, v, j))
        gt = SkinWeights(random_simplex_weights(rng, v, j))
        thresh = 0.2
        p_set = {(r, c) for r in range(v) for c in range(j) if pred.matrix[r, c] > thresh}
        g_set = {(r, c) for r in range(v) for c in range(j) if gt.matrix[r, c] > thresh}
        inter = len(p_set & g_set)
        want_p = inter / len(p_set) if p_set else 1.0
        want_r = inter / len(g_set) if g_set else 1.0
        got_p, got_r = skinning_precision_recall(pred, gt, threshold=thresh)
        skin_ok = skin_ok and got_p == pytest.approx(want_p) and got_r == pytest.approx(want_r)

        want_l1 = np.mean(
            [sum(abs(pred.matrix[r, c] - gt.matrix[r, c]) for c in range(j)) for r in range(v)]
        )
        skin_ok = skin_ok and skinning_l1(pred, gt) == pytest.approx(float(want_l1))

        s = random_tree(rng, j)
        mesh = Mesh(rng.uniform(-0.5, 0.5, (v, 3)), np.zeros((0, 3), dtype=np.int64))
        pose_count = 2
        got_d = deformation_error(mesh, s, pred, gt, seed=3, pose_count=pose_count)
        pose_rng = np.random.default_rng(3)
        total = 0.0
        for _k in range(pose_count):
            g = path_product_fk(s, sample_augmented_pose(s, pose_rng), None, np.zeros(3))
            dp = naive_lbs(mesh.vertices, pred.matrix, g)
            dg = naive_lbs(mesh.vertices, gt.matrix, g)
            total += float(np.mean(np.linalg.norm(dp - dg, axis=1)))
        skin_ok = skin_ok and got_d == pytest.approx(total / pose_count, abs=1e-12)

    ok = j2j_ok and j2b_ok and b2b_ok and skin_ok
    report(
        9,
        "chamfer, precision/recall, L1, and deformation metrics match "
        "independent oracles",
        ok,
        "j2j exact, j2b/b2b within 1e-3, 100 skinning cases",
    )


# ---------------------------------------------------------------------------
# 10. Track-guided pose recovery
# ---------------------------------------------------------------------------


def _recovery_scene(noise_px: float):
    """10-joint chain in a ~2000-vertex tube, 30-frame ramp to <= 45 degrees.

    Only joints 1..8 move: the root's extra motion and the leaf rotation are
    weakly observable from a single view, so the ground truth keeps them at
    identity and the test measures what the tracks can actually pin down.
    """
    j, frames = 10, 30
    xs = np.linspace(-0.9, 0.9, j)
    s = Skeleton(
        joints=np.column_stack([xs, np.zeros(j), np.zeros(j)]),
        parents=np.arange(-1, j - 1),
    )
    mesh = tube_mesh(length=1.8, radius=0.12, rings=62, sides=32)
    weights = heuristic_skin_weights(mesh, s, k_nearest=3, falloff=0.1)

    rng = np.random.default_rng(1010)
    targets = np.tile(quat.IDENTITY, (j, 1))
    for k in range(1, j - 1):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = np.deg2rad(rng.uniform(15.0, 45.0))
        targets[k] = quat.axis_angle(axis, angle)

    m = frames - 1
    rq = np.tile(quat.IDENTITY, (m, 1))
    rt = np.zeros((m, 3))
    jq = np.zeros((m, j, 4))
    for i in range(m):
        f = (i + 1) / m
        for k in range(j):
            jq[i, k] = slerp(quat.IDENTITY, targets[k], f)
    params_gt = AnimParams(rq, rt, jq)

    camera = Camera.look_at(
        eye=(0.15, 0.2, 3.2), target=(0.0, 0.0, 0.0), fx=1000.0
    )
    tracks = synthesize_tracks(
        mesh, s, weights, params_gt, camera,
        noise_px=noise_px, seed=5, vertex_count=300,
    )
    return mesh, s, weights, params_gt, tracks


def _mean_geodesic_deg(rec: AnimParams, gt: AnimParams) -> float:
    angles = [
        geodesic_angle(rec.joint_quats, gt.joint_quats).ravel(),
        geodesic_angle(rec.root_quats, gt.root_quats).ravel(),
    ]
    return float(np.degrees(np.mean(np.concatenate(angles))))


def _mean_reprojection_px(params, mesh, s, weights, clean_tracks) -> float:
    basis = _BlendBasis(*_tracked_points(s, mesh, weights, clean_tracks.vertex_subset))
    _, posed = pose_clip(
        s, basis, params.root_quats, params.root_trans, params.joint_quats
    )
    uv, _, valid = project(clean_tracks.camera, posed)
    observed = np.concatenate(
        [clean_tracks.joint_tracks[1:], clean_tracks.vertex_tracks[1:]], axis=1
    )
    mask = np.concatenate(
        [clean_tracks.joint_visibility, clean_tracks.vertex_visibility]
    )
    return float(np.mean(np.linalg.norm(uv - observed, axis=-1)[mask & valid]))


def _fit(mesh, s, weights, tracks):
    # The root quat and the root joint's local quat rotate about the same
    # fixed point, so their split is pure gauge; the smoothness term is the
    # only force that resolves it, hence the strong reg_weight.
    config = OptimizeConfig(
        iterations=5000,
        learning_rate=0.01,
        reg_weight=1e-2,
        plateau_window=600,
        plateau_rtol=1e-7,
        lr_floor=1e-3,
    )
    return optimize(mesh, s, weights, tracks, config)


def test_10_pose_recovery():
    t0 = time.perf_counter()
    mesh, s, weights, params_gt, clean = _recovery_scene(noise_px=0.0)
    result = _fit(mesh, s, weights, clean)
    geo_clean = _mean_geodesic_deg(result.params, params_gt)
    px_clean = _mean_reprojection_px(result.params, mesh, s, weights, clean)

    _, _, _, _, noisy = _recovery_scene(noise_px=1.0)
    result_n = _fit(mesh, s, weights, noisy)
    geo_noisy = _mean_geodesic_deg(result_n.params, params_gt)
    px_noisy = _mean_reprojection_px(result_n.params, mesh, s, weights, clean)
    elapsed = time.perf_counter() - t0

    ok = (
        geo_clean < 2.0
        and px_clean < 0.5
        and geo_noisy < 5.0
        and px_noisy < 2.0
        and elapsed < 300.0
    )
    report(
        10,
        "30-frame pose recovery (10 joints, ~2000 vertices)",
        ok,
        f"clean {geo_clean:.2f} deg / {px_clean:.3f}px, "
        f"1px noise {geo_noisy:.2f} deg / {px_noisy:.3f}px, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 11. Smoothness weight monotonically steadies the recovered motion
# ---------------------------------------------------------------------------


def test_11_regularizer_monotone():
    """Jittery tracks: static ground truth observed through a weak, noisy
    camera, so every bit of frame-to-frame variance in the fit is noise
    chasing.  Fixed iteration counts keep the three runs comparable; only
    the smoothness weight differs."""
    j, frames = 6, 15
    xs = np.linspace(-0.75, 0.75, j)
    s = Skeleton(
        joints=np.column_stack([xs, np.zeros(j), np.zeros(j)]),
        parents=np.arange(-1, j - 1),
    )
    mesh = tube_mesh(length=1.5, radius=0.12, rings=30, sides=12)
    weights = heuristic_skin_weights(mesh, s, k_nearest=3, falloff=0.1)
    m = frames - 1
    params_gt = AnimParams.identity(frames, j)
    camera = Camera.look_at(
        eye=(0.1, 0.15, 3.0), target=(0.0, 0.0, 0.0),
        fx=100.0, width=256, height=256,
    )
    tracks = synthesize_tracks(
        mesh, s, weights, params_gt, camera,
        noise_px=4.0, seed=7, vertex_count=25,
    )

    variances = []
    for reg in (1e-4, 1e-3, 1e-2):
        config = OptimizeConfig(
            iterations=1000, learning_rate=0.02, reg_weight=reg,
            plateau_window=5000, plateau_rtol=1e-12, lr_floor=1e-3,
        )
        result = optimize(mesh, s, weights, tracks, config)
        p = result.params
        per_frame = np.hstack(
            [p.root_quats, p.root_trans, p.joint_quats.reshape(m, -1)]
        )
        variances.append(float(np.var(per_frame, axis=0).sum()))
    ok = variances[0] >= variances[1] >= variances[2]
    report(
        11,
        "raising the smoothness weight never increases frame-to-frame "
        "parameter variance",
        ok,
        "var(1e-4)={:.4e} var(1e-3)={:.4e} var(1e-2)={:.4e}".format(*variances),
    )


# ---------------------------------------------------------------------------
# 12. Visibility: analytic truth and a z-buffer cross-check
# ---------------------------------------------------------------------------


def test_12_visibility():
    # Sphere: joints at the center, past the back wall, floating in front,
    # and on a front vertex. The exactly-once rule keeps interior joints
    # visible and everything else out.
    sphere = icosphere(4)
    cam = Camera.look_at(eye=(0.11, 0.07, 3.0), target=(0.0, 0.0, 0.0))
    front_vertex = sphere.vertices[int(np.argmax(sphere.vertices[:, 2]))]
    s = Skeleton(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.6], [0.0, 0.0, 2.0], front_vertex]),
        np.array([-1, 0, 0, 0]),
    )
    sphere_ok = joint_visibility(sphere, s, cam).tolist() == [True, False, False, True]

    # Sphere vertices: compare against the convex-surface normal rule.  The
    # faceted silhouette reaches slightly past the smooth horizon (chord sag
    # ~ edge_arc^2 / 8), so skip a band wide enough to absorb that shift.
    vis = vertex_visibility(sphere, cam)
    toward_cam = cam.center[None, :] - sphere.vertices
    toward_cam /= np.linalg.norm(toward_cam, axis=1, keepdims=True)
    normals = sphere.vertices / np.linalg.norm(sphere.vertices, axis=1, keepdims=True)
    facing = np.einsum("vd,vd->v", normals, toward_cam)
    sphere_v_ok = bool(np.all(vis[facing > 0.05])) and not np.any(vis[facing < -0.05])

    # Cube: interior front-face vertices visible, back face hidden.
    cube = subdivided_cube(6)
    cam_c = Camera.look_at(eye=(0.09, 0.06, 4.0), target=(0.0, 0.0, 0.0))
    vis_c = vertex_visibility(cube, cam_c)
    interior = np.all(np.abs(cube.vertices[:, :2]) < 0.99, axis=1)
    front = interior & (cube.vertices[:, 2] == 1.0)
    back = interior & (cube.vertices[:, 2] == -1.0)
    cube_ok = bool(np.all(vis_c[front])) and not np.any(vis_c[back])

    jc = Skeleton(
        np.array([[0.05, 0.02, 0.0], [0.05, 0.02, 2.5], [0.05, 0.02, -2.5]]),
        np.array([-1, 0, 0]),
    )
    cube_j_ok = joint_visibility(cube, jc, cam_c).tolist() == [True, False, False]

    # Cross-check the ray-counting rule against a z-buffer rasterizer.  The
    # buffer needs enough resolution that silhouette pixels, where the two
    # algorithms legitimately blur, stay a sub-1% minority.
    agreements = []
    for seed in range(20):
        m = star_mesh(np.random.default_rng(2000 + seed), subdivisions=3)
        cam_s = Camera.look_at(eye=(0.1, 0.12, 3.0), target=(0.0, 0.0, 0.0), fx=900.0)
        ray_vis = vertex_visibility(m, cam_s)
        zb_vis = zbuffer_visibility(m, cam_s, m.vertices, resolution=3072, depth_tol=4e-3)
        agreements.append(float(np.mean(ray_vis == zb_vis)))
    zb_ok = min(agreements) >= 0.99

    ok = sphere_ok and sphere_v_ok and cube_ok and cube_j_ok and zb_ok
    report(
        12,
        "visibility matches analytic truth on sphere/cube and a z-buffer "
        "on 20 random meshes",
        ok,
        f"min z-buffer agreement {min(agreements):.4f}",
    )


# ---------------------------------------------------------------------------
# 13. CLI determinism
# ---------------------------------------------------------------------------


def _build_cli_scene(root: Path) -> dict:
    s = Skeleton(
        joints=np.array([[-0.45, 0.0, 0.0], [0.0, 0.0, 0.0], [0.45, 0.0, 0.0]]),
        parents=np.array([-1, 0, 1]),
    )
    rig = root / "rig.json"
    save_rig(rig, Rig(s))
    mesh = tube_mesh(length=0.9, radius=0.1, rings=10, sides=8)
    mesh_path = root / "mesh.obj"
    mesh_path.write_text(write_obj(mesh))
    frames = 3
    rq = np.tile([1.0, 0.0, 0.0, 0.0], (frames, 1))
    rt = np.zeros((frames, 3))
    jq = np.zeros((frames, 3, 4))
    jq[:, :, 0] = 1.0
    for i in range(1, frames):
        jq[i, 0] = quat.from_euler_xyz(np.array([0.0, 0.0, 0.1 * i]))
    anim = root / "clip.json"
    save_animation(anim, rq, rt, jq)
    cam = root / "camera.json"
    cam.write_text(json.dumps({
        "eye": [0.03, 0.11, 3.0], "target": [0.0, 0.0, 0.0],
        "fx": 800.0, "width": 1024, "height": 1024,
    }))
    return {"rig": rig, "mesh": mesh_path, "anim": anim, "cam": cam}


def test_13_cli_determinism(tmp_path, capsys):
    files = _build_cli_scene(tmp_path)
    skinned = tmp_path / "skinned.json"
    assert cli_main([
        "skin-heuristic", str(files["rig"]), str(files["mesh"]), "-o", str(skinned)
    ]) == 0
    tok = tmp_path / "rig.tok"
    assert cli_main(["tokenize", str(files["rig"]), "-o", str(tok)]) == 0
    tracks = tmp_path / "tracks.json"
    assert cli_main([
        "synth-tracks", str(skinned), str(files["mesh"]), str(files["anim"]),
        "--camera", str(files["cam"]), "-o", str(tracks), "--vertex-count", "25",
    ]) == 0

    def invocations(out: Path) -> list[list[str]]:
        return [
            ["validate", str(files["rig"])],
            ["tokenize", str(files["rig"]), "-o", str(out / "rig.tok"),
             "--permute-prob", "1.0", "--shuffle-seed", "9", "--text"],
            ["detokenize", str(tok), "-o", str(out / "decoded.json")],
            ["metrics", str(skinned), str(skinned), "--mesh", str(files["mesh"])],
            ["deform", str(skinned), str(files["mesh"]), str(files["anim"]),
             "-o", str(out / "posed.obj")],
            ["skin-heuristic", str(files["rig"]), str(files["mesh"]),
             "-o", str(out / "skinned.json")],
            ["grad-check", "--instances", "2"],
            ["synth-tracks", str(skinned), str(files["mesh"]), str(files["anim"]),
             "--camera", str(files["cam"]), "-o", str(out / "tracks.json"),
             "--noise-px", "0.5", "--seed", "11"],
            ["animate", str(skinned), str(files["mesh"]), str(tracks),
             "-o", str(out / "fit.json"), "--iterations", "20",
             "--export-obj", str(out / "frames")],
            ["anneal", "--epochs", "64"],
        ]

    def run_all(out: Path) -> list[str]:
        out.mkdir()
        captured = []
        for argv in invocations(out):
            capsys.readouterr()
            code = cli_main(argv)
            captured.append(capsys.readouterr().out)
            assert code == 0, f"{argv[0]} exited {code}"
        return captured

    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    stdout_a = run_all(out_a)
    stdout_b = run_all(out_b)

    stdout_ok = stdout_a == stdout_b
    files_ok = True
    names_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    files_ok = names_a == names_b
    for rel in names_a:
        if not files_ok:
            break
        files_ok = (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    report(
        13,
        "every CLI subcommand is byte-identical across reruns "
        "(stdout and output files)",
        stdout_ok and files_ok,
        f"{len(names_a)} files compared",
    )
