"""Shared scene builders and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library:
graph distances by BFS instead of LCA chains, rotation matrices by the
expanded quaternion formula instead of a contraction table, FK by explicit
root-to-node path products, LBS by per-vertex loops, chamfer by O(n^2)
scans, ray hits by a scalar-arithmetic intersector, and visibility by a
z-buffer rasterizer.  Agreement between two routes is the point; do not
"simplify" one into the other.
"""

from __future__ import annotations

import numpy as np

from rigkit import MAX_JOINTS, Mesh, Skeleton
from rigkit.quat import normalize


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def random_tree(rng: np.random.Generator, joint_count: int,
                spread: float = 0.45) -> Skeleton:
    """Random connected tree with joints inside [-spread, spread]^3."""
    joints = rng.uniform(-spread, spread, (joint_count, 3))
    parents = np.full(joint_count, -1, dtype=np.int64)
    for k in range(1, joint_count):
        parents[k] = rng.integers(0, k)
    return Skeleton(joints, parents)


def random_chain(rng: np.random.Generator, joint_count: int) -> Skeleton:
    joints = np.cumsum(rng.uniform(-0.08, 0.08, (joint_count, 3)), axis=0)
    parents = np.arange(-1, joint_count - 1)
    return Skeleton(joints, parents)


def random_unit_quats(rng: np.random.Generator, shape) -> np.ndarray:
    q = rng.standard_normal(tuple(np.atleast_1d(shape)) + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def random_simplex_weights(rng: np.random.Generator, vertices: int,
                           joints: int) -> np.ndarray:
    w = rng.random((vertices, joints)) + 1e-3
    return w / w.sum(axis=1, keepdims=True)


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Spherical interpolation between two quaternions, along the shorter arc."""
    a = normalize(a)
    b = normalize(b)
    d = float(np.dot(a, b))
    if d < 0.0:
        b, d = -b, -d
    if d > 1.0 - 1e-10:
        return normalize(a + t * (b - a))
    theta = np.arccos(np.clip(d, -1.0, 1.0))
    sa = np.sin((1.0 - t) * theta) / np.sin(theta)
    sb = np.sin(t * theta) / np.sin(theta)
    return sa * a + sb * b


def geodesic_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation angle between two quaternions, sign-of-cover invariant."""
    d = np.abs(np.sum(normalize(a) * normalize(b), axis=-1))
    return 2.0 * np.arccos(np.clip(d, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------


def icosphere(subdivisions: int = 2, radius: float = 1.0,
              center=(0.0, 0.0, 0.0)) -> Mesh:
    """Closed sphere mesh from a subdivided icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    index = {v: i for i, v in enumerate(verts)}

    def midpoint(a, b):
        m = np.array(verts[a]) + np.array(verts[b])
        m /= np.linalg.norm(m)
        key = tuple(m)
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    for _ in range(subdivisions):
        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt

    v = np.array(verts) * radius + np.asarray(center, dtype=np.float64)
    return Mesh(v, np.array(faces, dtype=np.int64))


def subdivided_cube(per_edge: int = 4, half: float = 1.0,
                    center=(0.0, 0.0, 0.0)) -> Mesh:
    """Axis-aligned cube with each face split into a per_edge^2 quad grid."""
    grid = np.linspace(-half, half, per_edge + 1)
    verts: list[tuple] = []
    index: dict[tuple, int] = {}

    def vid(p):
        key = tuple(np.round(p, 12))
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    tris = []
    # One face per axis/sign; orientation chosen so normals point outward.
    for axis in range(3):
        for sign in (-1.0, 1.0):
            u_axis, v_axis = (axis + 1) % 3, (axis + 2) % 3
            for i in range(per_edge):
                for k in range(per_edge):
                    corners = []
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        p = np.zeros(3)
                        p[axis] = sign * half
                        p[u_axis] = grid[i + du]
                        p[v_axis] = grid[k + dv]
                        corners.append(vid(p))
                    a, b, c, d = corners
                    if sign > 0:
                        tris += [(a, b, c), (a, c, d)]
                    else:
                        tris += [(a, c, b), (a, d, c)]
    v = np.array(verts) + np.asarray(center, dtype=np.float64)
    return Mesh(v, np.array(tris, dtype=np.int64))


def tube_mesh(length: float = 1.0, radius: float = 0.1, rings: int = 20,
              sides: int = 12, axis_pad: float = 0.05) -> Mesh:
    """Closed tube along +x, centered at the origin, capped with fans."""
    half = length / 2.0 + axis_pad
    xs = np.linspace(-half, half, rings)
    ang = 2.0 * np.pi * np.arange(sides) / sides
    verts = []
    for x in xs:
        for a in ang:
            verts.append([x, radius * np.cos(a), radius * np.sin(a)])
    cap0 = len(verts)
    verts.append([-half, 0.0, 0.0])
    cap1 = len(verts)
    verts.append([half, 0.0, 0.0])
    tris = []
    for i in range(rings - 1):
        for k in range(sides):
            a = i * sides + k
            b = i * sides + (k + 1) % sides
            c = (i + 1) * sides + k
            d = (i + 1) * sides + (k + 1) % sides
            tris += [(a, b, c), (b, d, c)]
    for k in range(sides):
        tris.append((cap0, (k + 1) % sides, k))
        tris.append((cap1, (rings - 1) * sides + k,
                     (rings - 1) * sides + (k + 1) % sides))
    return Mesh(np.array(verts), np.array(tris, dtype=np.int64))


def star_mesh(rng: np.random.Generator, subdivisions: int = 2) -> Mesh:
    """Random star-shaped closed mesh: icosphere with radial perturbation.

    Star-shaped about the origin, so inside/outside and first-hit queries
    have unambiguous ground truth.
    """
    base = icosphere(subdivisions)
    dirs = base.vertices / np.linalg.norm(base.vertices, axis=1, keepdims=True)
    radii = 0.7 + 0.3 * rng.random(base.vertex_count)
    # Smooth the radii a little over the triangulation so faces stay sane.
    for _ in range(2):
        acc = radii.copy()
        cnt = np.ones_like(radii)
        for a, b, c in base.triangles:
            for u, w in ((a, b), (b, c), (c, a)):
                acc[u] += radii[w]
                cnt[u] += 1
                acc[w] += radii[u]
                cnt[w] += 1
        radii = acc / cnt
    return Mesh(dirs * radii[:, None], base.triangles)


def unweld(mesh: Mesh) -> Mesh:
    """The same surface as a triangle soup: three own vertices per triangle."""
    verts = mesh.vertices[mesh.triangles].reshape(-1, 3)
    tris = np.arange(verts.shape[0], dtype=np.int64).reshape(-1, 3)
    return Mesh(verts, tris)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def bfs_graph_distances(s: Skeleton) -> np.ndarray:
    """Per-source breadth-first search over the undirected bone graph."""
    j = s.joint_count
    adj: list[list[int]] = [[] for _ in range(j)]
    for k in range(j):
        p = int(s.parents[k])
        if p >= 0:
            adj[k].append(p)
            adj[p].append(k)
    d = np.full((j, j), -1, dtype=np.int64)
    for src in range(j):
        d[src, src] = 0
        queue = [src]
        while queue:
            nxt = []
            for node in queue:
                for nb in adj[node]:
                    if d[src, nb] < 0:
                        d[src, nb] = d[src, node] + 1
                        nxt.append(nb)
            queue = nxt
    return d


def permute_joints(s: Skeleton, order) -> Skeleton:
    """Reindex joints so new joint i is old joint order[i], remapping each
    parent through the inverse permutation one joint at a time."""
    order = np.asarray(order, dtype=np.int64)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.arange(len(order))
    parents = np.array(
        [-1 if s.parents[o] == -1 else inverse[s.parents[o]] for o in order],
        dtype=np.int64,
    )
    names = tuple(s.names[o] for o in order) if s.names is not None else None
    return Skeleton(s.joints[order], parents, names)


def walk_validation_report(s: Skeleton) -> str:
    """``validate_skeleton(s)``'s issues as ``code: message`` lines, or
    "valid" when there are none, by per-joint scans: a list comprehension
    for dangling links and a parent-chain walk from every joint for cycles."""
    lines = []
    j = s.joint_count
    if j == 0:
        return "empty: skeleton has no joints"
    if j > MAX_JOINTS:
        lines.append(f"joint-cap: {j} joints exceeds cap of {MAX_JOINTS}")
    if not np.all(np.isfinite(s.joints)):
        lines.append("non-finite: joint coordinates contain NaN or Inf")
    roots = [k for k in range(j) if s.parents[k] == -1]
    if not roots:
        lines.append("no-root: no joint has the root sentinel")
    elif len(roots) > 1:
        lines.append(f"multiple-roots: joints {roots} all claim to be root; "
                     "connected single-tree skeletons are required")
    dangling = [k for k in range(j) if s.parents[k] != -1 and not 0 <= s.parents[k] < j]
    if dangling:
        lines.append(f"dangling-parent: joints {dangling} reference parents "
                     f"outside [0, {j})")
    # A walk that exceeds j steps without reaching a root (or a dangling
    # link) is trapped in a cycle.
    in_cycle: set[int] = set()
    for start in range(j):
        seen = []
        k = start
        while len(seen) <= j:
            seen.append(k)
            p = int(s.parents[k])
            if p == -1 or not 0 <= p < j:
                break
            k = p
        else:
            in_cycle.update(seen)
    if in_cycle:
        lines.append(f"cycle: parent links of joints {sorted(in_cycle)} form a cycle")
    return "\n".join(lines) if lines else "valid"


def rotation_matrix(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of quaternions (..., 4), w first,
    normalized here, written out entry by entry."""
    q = np.asarray(q, dtype=np.float64)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def path_product_fk(s: Skeleton, joint_quats: np.ndarray,
                    root_quat, root_trans) -> np.ndarray:
    """Global transforms by multiplying explicit root-to-joint paths."""

    def local(k):
        r = rotation_matrix(joint_quats[k])
        m = np.eye(4)
        m[:3, :3] = r
        m[:3, 3] = s.joints[k] - r @ s.joints[k]
        return m

    root = int(np.flatnonzero(s.parents == -1)[0])
    motion = np.eye(4)
    if root_quat is not None:
        rm = rotation_matrix(root_quat)
        motion[:3, :3] = rm
        motion[:3, 3] = s.joints[root] - rm @ s.joints[root]
    motion[:3, 3] += np.asarray(root_trans, dtype=np.float64)

    out = np.empty((s.joint_count, 4, 4))
    for k in range(s.joint_count):
        path = [k]
        while s.parents[path[-1]] != -1:
            path.append(int(s.parents[path[-1]]))
        m = motion.copy()
        for node in reversed(path):
            m = m @ local(node)
        out[k] = m
    return out


def posed_joints(g: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The (..., j, 3, 4) rows G_k applied to rest_k for every joint, over
    any leading frame axes."""
    x, y, z = rest[:, 0, None], rest[:, 1, None], rest[:, 2, None]
    return g[..., 0] * x + g[..., 1] * y + g[..., 2] * z + g[..., 3]


def naive_lbs(vertices: np.ndarray, weights: np.ndarray,
              transforms: np.ndarray) -> np.ndarray:
    """Per-vertex, per-joint python loops; no einsum anywhere."""
    v = len(vertices)
    out = np.zeros((v, 3))
    for i in range(v):
        blended = np.zeros((4, 4))
        for k in range(weights.shape[1]):
            if weights[i, k] != 0.0:
                blended += weights[i, k] * transforms[k]
        h = blended @ np.array([*vertices[i], 1.0])
        out[i] = h[:3]
    return out


def brute_chamfer_j2j(a: np.ndarray, b: np.ndarray) -> float:
    def directed(src, dst):
        total = 0.0
        for p in src:
            best = min(float(np.linalg.norm(p - q)) for q in dst)
            total += best
        return total / len(src)

    return 0.5 * (directed(a, b) + directed(b, a))


def scalar_ray_hits(mesh: Mesh, origin: np.ndarray, direction: np.ndarray,
                    eps: float = 1e-9) -> list[tuple[float, int]]:
    """All (t, triangle) hits by per-triangle scalar arithmetic.

    Solves the plane equation then tests barycentrics from signed areas,
    a different formulation than the library's vectorized intersector.
    Duplicate hits where the ray threads a shared edge or vertex are
    collapsed to the lowest (t, triangle).
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    hits: list[tuple[float, int]] = []
    for idx, (ia, ib, ic) in enumerate(mesh.triangles):
        a, b, c = mesh.vertices[ia], mesh.vertices[ib], mesh.vertices[ic]
        n = np.cross(b - a, c - a)
        denom = float(n @ direction)
        if abs(denom) < 1e-300:
            continue
        t = float(n @ (a - origin)) / denom
        if t <= eps:
            continue
        p = origin + t * direction
        # Signed-area barycentrics against the dominant normal axis.
        area2 = float(n @ n)
        if area2 == 0.0:
            continue
        u = float(n @ np.cross(c - b, p - b)) / area2
        v = float(n @ np.cross(a - c, p - c)) / area2
        w = 1.0 - u - v
        if u >= -1e-9 and v >= -1e-9 and w >= -1e-9:
            hits.append((t, idx))
    hits.sort()
    merged: list[tuple[float, int]] = []
    for t, idx in hits:
        if merged and abs(t - merged[-1][0]) < 1e-7:
            continue
        merged.append((t, idx))
    return merged


def zbuffer_visibility(mesh: Mesh, camera, points: np.ndarray,
                       resolution: int = 1024,
                       depth_tol: float = 1e-3) -> np.ndarray:
    """Rasterize the mesh into a z-buffer and test each point against it.

    Perspective-correct interpolation of 1/z per pixel; a point is visible
    when its depth is within depth_tol of the buffer at its pixel.  This is
    a wholly different visibility algorithm than ray counting.
    """
    cam_pts = mesh.vertices @ camera.rotation.T + camera.translation
    z = cam_pts[:, 2]
    scale = resolution / camera.width
    u = (camera.fx * cam_pts[:, 0] / z + camera.cx) * scale
    v = (camera.fy * cam_pts[:, 1] / z + camera.cy) * (resolution / camera.height)
    inv_z = 1.0 / z
    buf = np.full((resolution, resolution), 0.0)

    for ia, ib, ic in mesh.triangles:
        us = np.array([u[ia], u[ib], u[ic]])
        vs = np.array([v[ia], v[ib], v[ic]])
        ws = np.array([inv_z[ia], inv_z[ib], inv_z[ic]])
        if np.any(z[[ia, ib, ic]] <= 0):
            continue
        x0 = max(int(np.floor(us.min())), 0)
        x1 = min(int(np.ceil(us.max())), resolution - 1)
        y0 = max(int(np.floor(vs.min())), 0)
        y1 = min(int(np.ceil(vs.max())), resolution - 1)
        if x1 < x0 or y1 < y0:
            continue
        px, py = np.meshgrid(np.arange(x0, x1 + 1) + 0.5,
                             np.arange(y0, y1 + 1) + 0.5)
        d = (vs[1] - vs[2]) * (us[0] - us[2]) + (us[2] - us[1]) * (vs[0] - vs[2])
        if abs(d) < 1e-12:
            continue
        l0 = ((vs[1] - vs[2]) * (px - us[2]) + (us[2] - us[1]) * (py - vs[2])) / d
        l1 = ((vs[2] - vs[0]) * (px - us[2]) + (us[0] - us[2]) * (py - vs[2])) / d
        l2 = 1.0 - l0 - l1
        inside = (l0 >= -1e-9) & (l1 >= -1e-9) & (l2 >= -1e-9)
        wpix = l0 * ws[0] + l1 * ws[1] + l2 * ws[2]
        patch = buf[y0:y1 + 1, x0:x1 + 1]
        np.maximum(patch, np.where(inside, wpix, 0.0), out=patch)

    pts_cam = np.asarray(points, dtype=np.float64) @ camera.rotation.T
    pts_cam = pts_cam + camera.translation
    pz = pts_cam[:, 2]
    pu = (camera.fx * pts_cam[:, 0] / pz + camera.cx) * scale
    pv = (camera.fy * pts_cam[:, 1] / pz + camera.cy) * (resolution / camera.height)
    visible = np.zeros(len(points), dtype=bool)
    for i in range(len(points)):
        if pz[i] <= 0:
            continue
        xi, yi = int(pu[i]), int(pv[i])
        if not (0 <= xi < resolution and 0 <= yi < resolution):
            continue
        front_inv_z = buf[yi, xi]
        visible[i] = front_inv_z <= 1.0 / pz[i] + depth_tol
    return visible
