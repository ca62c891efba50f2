"""Input generators and the ground-truth renderer the benchmark checks against.

Everything here is plain numpy and imports nothing from rigkit, so a change
to the package or to its test helpers cannot shift the benchmark's inputs
or its reference answers.  Quaternions are w-first, like rigkit's.
"""

from __future__ import annotations

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------


def tube_mesh(length: float, radius: float, rings: int, sides: int,
              axis_pad: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Closed tube along +x centred at the origin, capped with fans.

    Returns (vertices (rings * sides + 2, 3), triangles (2 sides rings, 3)).
    """
    half = length / 2.0 + axis_pad
    xs = np.linspace(-half, half, rings)
    ang = 2.0 * np.pi * np.arange(sides) / sides
    ring = np.column_stack([np.cos(ang), np.sin(ang)]) * radius
    side_verts = np.concatenate(
        [np.column_stack([np.full(sides, x), ring]) for x in xs]
    )
    verts = np.vstack([side_verts, [[-half, 0.0, 0.0], [half, 0.0, 0.0]]])
    cap0, cap1 = rings * sides, rings * sides + 1
    i, k = np.meshgrid(np.arange(rings - 1), np.arange(sides), indexing="ij")
    a = i * sides + k
    b = i * sides + (k + 1) % sides
    c = a + sides
    d = b + sides
    side_tris = np.stack(
        [np.stack([a, b, c], -1), np.stack([b, d, c], -1)], axis=2
    ).reshape(-1, 3)
    k = np.arange(sides)
    last = (rings - 1) * sides
    caps = np.stack(
        [
            np.column_stack([np.full(sides, cap0), (k + 1) % sides, k]),
            np.column_stack([np.full(sides, cap1), last + k, last + (k + 1) % sides]),
        ],
        axis=1,
    ).reshape(-1, 3)
    return verts, np.vstack([side_tris, caps]).astype(np.int64)


def icosphere(subdivisions: int, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Closed sphere from a subdivided icosahedron: 10 * 4**s + 2 vertices."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        np.array(v, dtype=np.float64)
        for v in (
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        )
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoints: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                m = verts[a] + verts[b]
                midpoints[key] = len(verts)
                verts.append(m / np.linalg.norm(m))
            return midpoints[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt
    return np.array(verts) * radius, np.array(faces, dtype=np.int64)


# ---------------------------------------------------------------------------
# Skeletons and clips
# ---------------------------------------------------------------------------


def chain_along_x(joint_count: int, half_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Straight chain of joints on the x axis; joint k's parent is k - 1."""
    xs = np.linspace(-half_length, half_length, joint_count)
    joints = np.column_stack([xs, np.zeros(joint_count), np.zeros(joint_count)])
    return joints, np.arange(-1, joint_count - 1)


def random_tree(rng: np.random.Generator, joint_count: int,
                spread: float = 0.45) -> tuple[np.ndarray, np.ndarray]:
    """Random connected tree: each joint's parent is drawn among earlier ones."""
    joints = rng.uniform(-spread, spread, (joint_count, 3))
    parents = np.full(joint_count, -1, dtype=np.int64)
    for k in range(1, joint_count):
        parents[k] = rng.integers(0, k)
    return joints, parents


def axis_angle_quat(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def slerp_from_identity(target: np.ndarray, t: float) -> np.ndarray:
    """Rotation by fraction t of the (shortest) rotation ``target``."""
    q = target if target[0] >= 0 else -target
    theta = 2.0 * np.arccos(np.clip(q[0], -1.0, 1.0))
    if theta < 1e-12:
        return IDENTITY_QUAT.copy()
    axis = q[1:] / np.sin(theta / 2.0)
    return axis_angle_quat(axis, t * theta)


def ramp_clip(targets: np.ndarray, frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip whose joint k turns linearly (in angle) from rest to targets[k].

    Returns explicit per-frame arrays including the identity frame 0:
    root_quats (n, 4), root_trans (n, 3), joint_quats (n, j, 4).
    """
    j = targets.shape[0]
    jq = np.zeros((frames, j, 4))
    for i in range(frames):
        f = i / (frames - 1)
        for k in range(j):
            jq[i, k] = slerp_from_identity(targets[k], f)
    rq = np.tile(IDENTITY_QUAT, (frames, 1))
    return rq, np.zeros((frames, 3)), jq


def random_targets(rng: np.random.Generator, joint_count: int, lo_deg: float,
                   hi_deg: float, moving: range) -> np.ndarray:
    """Per-joint target rotations: random axis, angle uniform in [lo, hi]."""
    targets = np.tile(IDENTITY_QUAT, (joint_count, 1))
    for k in moving:
        axis = rng.standard_normal(3)
        targets[k] = axis_angle_quat(axis, np.deg2rad(rng.uniform(lo_deg, hi_deg)))
    return targets


def look_at(eye, target, fx: float, width: int = 1024, height: int = 1024) -> dict:
    """Pinhole camera as rigkit's camera JSON: +z forward, y down, up = +y."""
    eye = np.asarray(eye, dtype=np.float64)
    z = np.asarray(target, dtype=np.float64) - eye
    z /= np.linalg.norm(z)
    x = np.cross(z, [0.0, 1.0, 0.0])
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.stack([x, y, z])
    return {
        "fx": float(fx), "fy": float(fx),
        "cx": width / 2.0, "cy": height / 2.0,
        "width": width, "height": height,
        "rotation": rot.tolist(), "translation": (-rot @ eye).tolist(),
    }


# ---------------------------------------------------------------------------
# Ground-truth renderer (independent of rigkit's FK/LBS/projection code)
# ---------------------------------------------------------------------------


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
        ],
        -2,
    )


def _rigid(rot: np.ndarray, center: np.ndarray, shift=(0.0, 0.0, 0.0)) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = center - rot @ center + np.asarray(shift)
    return m


def render_clip(rest, parents, weights, verts, camera: dict, root_quats,
                root_trans, joint_quats):
    """Pixel positions of every joint and vertex in every frame.

    Each joint's global transform is the explicit product along its path
    from the root: root motion, then each ancestor's rotation about its own
    rest position.  Returns (joint uv (n, j, 2), vertex uv (n, v, 2)).
    """
    n, j = joint_quats.shape[:2]
    rots = quat_to_matrix(joint_quats)
    root_rots = quat_to_matrix(root_quats)
    root = int(np.flatnonzero(parents == -1)[0])
    paths = []
    for k in range(j):
        path = [k]
        while parents[path[-1]] != -1:
            path.append(int(parents[path[-1]]))
        paths.append(path[::-1])
    rot_r, trans = np.asarray(camera["rotation"]), np.asarray(camera["translation"])

    def pixels(points):
        cam = points @ rot_r.T + trans
        u = camera["fx"] * cam[:, 0] / cam[:, 2] + camera["cx"]
        v = camera["fy"] * cam[:, 1] / cam[:, 2] + camera["cy"]
        return np.column_stack([u, v])

    juv = np.zeros((n, j, 2))
    vuv = np.zeros((n, verts.shape[0], 2))
    for i in range(n):
        motion = _rigid(root_rots[i], rest[root], root_trans[i])
        globals_ = np.empty((j, 4, 4))
        for k, path in enumerate(paths):
            g = motion
            for a in path:
                g = g @ _rigid(rots[i, a], rest[a])
            globals_[k] = g
        posed_joints = np.einsum("kab,kb->ka", globals_[:, :3, :3], rest) + globals_[:, :3, 3]
        per_joint = np.einsum("kab,vb->vka", globals_[:, :3, :3], verts) + globals_[:, :3, 3]
        posed_verts = np.einsum("vk,vka->va", weights, per_joint)
        juv[i] = pixels(posed_joints)
        vuv[i] = pixels(posed_verts)
    return juv, vuv


def geodesic_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between rotations a and b in degrees, sign-of-cover invariant."""
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    d = np.clip(np.abs(np.sum(a * b, axis=-1)), 0.0, 1.0)
    return np.degrees(2.0 * np.arccos(d))
