"""Quaternion helpers, w-first convention, batched over leading axes."""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    v = aw * bv + bw * av + np.cross(av, bv)
    return np.concatenate([w, v], axis=-1)


def axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * float(angle)
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def from_euler_xyz(angles: np.ndarray) -> np.ndarray:
    """Intrinsic X-Y-Z rotation from per-axis angles in radians."""
    ax, ay, az = np.asarray(angles, dtype=np.float64)
    qx = axis_angle(np.array([1.0, 0.0, 0.0]), ax)
    qy = axis_angle(np.array([0.0, 1.0, 0.0]), ay)
    qz = axis_angle(np.array([0.0, 0.0, 1.0]), az)
    return multiply(multiply(qx, qy), qz)


def geodesic_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation angle between two quaternions, sign-of-cover invariant."""
    d = np.abs(np.sum(normalize(a) * normalize(b), axis=-1))
    return 2.0 * np.arccos(np.clip(d, -1.0, 1.0))


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
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


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3); input normalized defensively."""
    q = normalize(q)
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


def to_matrix_vjp(q: np.ndarray, grad_matrix: np.ndarray) -> np.ndarray:
    """Pull a gradient wrt to_matrix(q) back to the raw (unnormalized) q.

    The normalization inside to_matrix is part of the differentiated map,
    so the returned gradient is orthogonal to q.
    """
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    u = q / n
    w, x, y, z = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    d = grad_matrix

    gw = 2.0 * (
        -z * d[..., 0, 1] + y * d[..., 0, 2]
        + z * d[..., 1, 0] - x * d[..., 1, 2]
        - y * d[..., 2, 0] + x * d[..., 2, 1]
    )
    gx = 2.0 * (
        y * d[..., 0, 1] + z * d[..., 0, 2]
        + y * d[..., 1, 0] - 2.0 * x * d[..., 1, 1] - w * d[..., 1, 2]
        + z * d[..., 2, 0] + w * d[..., 2, 1] - 2.0 * x * d[..., 2, 2]
    )
    gy = 2.0 * (
        -2.0 * y * d[..., 0, 0] + x * d[..., 0, 1] + w * d[..., 0, 2]
        + x * d[..., 1, 0] + z * d[..., 1, 2]
        - w * d[..., 2, 0] + z * d[..., 2, 1] - 2.0 * y * d[..., 2, 2]
    )
    gz = 2.0 * (
        -2.0 * z * d[..., 0, 0] - w * d[..., 0, 1] + x * d[..., 0, 2]
        + w * d[..., 1, 0] - 2.0 * z * d[..., 1, 1] + y * d[..., 1, 2]
        + x * d[..., 2, 0] + y * d[..., 2, 1]
    )
    gu = np.stack([gw, gx, gy, gz], axis=-1)
    # Through u = q / |q|:  g_q = (g_u - u (u . g_u)) / |q|
    return (gu - u * np.sum(u * gu, axis=-1, keepdims=True)) / n
