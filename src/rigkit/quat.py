"""Quaternion helpers, w-first convention, batched over leading axes."""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _unit(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit quaternions of ``q`` and the norms (..., 1) they were divided by."""
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero quaternion")
    return q / n, n


def normalize(q: np.ndarray) -> np.ndarray:
    return _unit(q)[0]


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


# R(u) p is the vector part of u (0, p) u*, which is bilinear in the two u
# factors, so R(u)[i, k] = sum_cd T[3 i + k, 4 c + d] u_c u_d for one
# constant table T whose column (c, d) holds the vector part of
# e_c (0, e_k) conj(e_d) for basis quaternions e, built here by multiply.
# Every entry is -1, 0 or 1; "+ 0.0" clears the sign of zero, so the
# identity maps to exactly I.  The contractions run in einsum, not BLAS, so
# a row's sums are the same whether it is stacked or called alone.  The
# outer products u (x) u and u (x) D do too, one product per entry; einsum
# writes a zero product as +0, which no sum it feeds can tell from -0.
_E = np.eye(4)
_T = multiply(
    multiply(_E[:, None, None], _E[None, None, 1:]), _E[None, :, None] * [1, -1, -1, -1]
)[..., 1:].transpose(3, 2, 0, 1).reshape(9, 4, 4) + 0.0
_ROTATION = _T.reshape(9, 16)
# d/du_c of sum_m D_m R_m is sum_dm (T[m, c, d] + T[m, d, c]) u_d D_m.
_ROTATION_ADJOINT = (_T + _T.transpose(0, 2, 1)).transpose(1, 2, 0).reshape(4, 36)


def _rotation(u: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of unit quaternions."""
    lead = u.shape[:-1]
    uu = np.einsum("...a,...b->...ab", u, u).reshape(lead + (16,))
    return np.einsum("...a,ma->...m", uu, _ROTATION).reshape(lead + (3, 3))


def _rotation_vjp(u: np.ndarray, n: np.ndarray, grad_matrix: np.ndarray) -> np.ndarray:
    """Pull a gradient wrt _rotation(u) back to the raw q = n u."""
    lead = u.shape[:-1]
    ud = np.einsum("...a,...m->...am", u, grad_matrix.reshape(lead + (9,)))
    gu = np.einsum("...a,ca->...c", ud.reshape(lead + (36,)), _ROTATION_ADJOINT)
    # Through u = q / |q|:  g_q = (g_u - u (u . g_u)) / |q|
    return (gu - u * np.sum(u * gu, axis=-1, keepdims=True)) / n


def to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3); input normalized defensively."""
    return _rotation(normalize(q))


def to_matrix_vjp(q: np.ndarray, grad_matrix: np.ndarray) -> np.ndarray:
    """Pull a gradient wrt to_matrix(q) back to the raw (unnormalized) q.

    The normalization inside to_matrix is part of the differentiated map,
    so the returned gradient is orthogonal to q.
    """
    return _rotation_vjp(*_unit(q), grad_matrix)
