"""Mesh geometry: OBJ I/O, ray casting, containment, pinhole cameras.

Everything here is plain numpy at float64.  Ray queries share one engine:
rays from a shared origin are tested against every triangle with one
Moller-Trumbore test whose per-triangle terms are computed once per call,
in fixed-size chunks of rays x triangles, and each chunk's rows go
through one of two reductions.  :func:`first_hit_distances` keeps the
nearest hit; :func:`crossing_counts` counts the distinct t up to a limit,
counting each run of nearly equal t once, so a ray through an edge or
vertex is one crossing whether or not the mesh is welded there.  An
acceleration structure (say, binning rays and triangles by direction
from the origin) would replace the all-pairs chunk in ``_cast`` and
leave both reductions as they are.  Containment is the generalized
winding number, so it depends on no probe direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import InvalidValueError, Mesh, NonFiniteError, _frozen

RAY_T_EPS = 1e-9
RAY_MERGE_EPS = 1e-9
_BARY_EPS = 1e-12
_DET_EPS = 1e-14
CAMERA_Z_EPS = 1e-9
# Ray x triangle pairs per chunk of a ray query: 128 KiB per float64
# temporary, small enough to stay in cache and to keep peak memory flat.
_CHUNK_PAIRS = 1 << 14


class ObjParseError(ValueError):
    """OBJ syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Wavefront OBJ
# ---------------------------------------------------------------------------


def _token_col(line: str, index: int) -> int:
    col = 1
    count = 0
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        if count == index:
            return i + 1
        while i < len(line) and not line[i].isspace():
            i += 1
        count += 1
    return col


def parse_obj(text: str | bytes) -> Mesh:
    """Parse v/vn/f records; polygons are fan-triangulated.

    Indices are 1-based; negative indices count back from the vertices
    defined so far.  Errors carry the offending line and column; a NaN or
    Inf vertex coordinate raises :class:`NonFiniteError` instead.  Normals
    are kept only when they pair 1:1 with vertices.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    vertices: list[list[float]] = []
    normals: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    face_locs: list[tuple[int, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        rec, args = parts[0], parts[1:]
        if rec == "v":
            if len(args) < 3:
                raise ObjParseError("vertex needs 3 coordinates", lineno, 1)
            coords = []
            for i, a in enumerate(args[:3]):
                try:
                    coords.append(float(a))
                except ValueError:
                    raise ObjParseError(
                        f"bad coordinate {a!r}", lineno, _token_col(raw, i + 1)
                    ) from None
            if not all(map(math.isfinite, coords)):
                raise NonFiniteError(f"line {lineno}: vertex coordinates must be finite")
            vertices.append(coords)
        elif rec == "vn":
            if len(args) < 3:
                raise ObjParseError("normal needs 3 components", lineno, 1)
            try:
                normals.append([float(a) for a in args[:3]])
            except ValueError as e:
                raise ObjParseError(str(e), lineno, 1) from None
        elif rec == "f":
            if len(args) < 3:
                raise ObjParseError(
                    f"face needs at least 3 vertices, got {len(args)}", lineno, 1
                )
            idx = []
            for i, a in enumerate(args):
                field = a.split("/")[0]
                try:
                    value = int(field)
                except ValueError:
                    raise ObjParseError(
                        f"bad vertex index {a!r}", lineno, _token_col(raw, i + 1)
                    ) from None
                if value == 0:
                    raise ObjParseError(
                        "vertex index 0 is not allowed", lineno, _token_col(raw, i + 1)
                    )
                if value < 0:
                    value = len(vertices) + value
                    if value < 0:
                        raise ObjParseError(
                            f"negative index {a!r} reaches before first vertex",
                            lineno,
                            _token_col(raw, i + 1),
                        )
                    idx.append(value)
                else:
                    idx.append(value - 1)
            for i in range(1, len(idx) - 1):
                faces.append((idx[0], idx[i], idx[i + 1]))
                face_locs.append((lineno, 1))
        # other record types (vt, o, g, s, usemtl, ...) are ignored

    if not vertices:
        raise ObjParseError("no vertices defined", 1, 1)
    for (a, b, c), (lineno, col) in zip(faces, face_locs):
        for value in (a, b, c):
            if value >= len(vertices):
                raise ObjParseError(
                    f"vertex index {value + 1} exceeds {len(vertices)} vertices",
                    lineno,
                    col,
                )
    mesh_normals = None
    if normals and len(normals) == len(vertices):
        mesh_normals = np.asarray(normals)
    return Mesh(
        np.asarray(vertices),
        np.asarray(faces, dtype=np.int64).reshape(-1, 3),
        mesh_normals,
    )


def load_obj(path: str | Path) -> Mesh:
    return parse_obj(Path(path).read_text())


def write_obj(mesh: Mesh) -> str:
    """Emit v/vn/f records with full round-trip float precision."""
    def row(tag, p):
        # repr of the Python float, not the numpy scalar
        return f"{tag} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"

    lines = [row("v", v) for v in mesh.vertices]
    if mesh.normals is not None:
        lines.extend(row("vn", n) for n in mesh.normals)
    lines.extend(
        f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}" for t in mesh.triangles
    )
    return "\n".join(lines) + "\n"


def save_obj(path: str | Path, mesh: Mesh) -> None:
    Path(path).write_text(write_obj(mesh))


def point_segment_distance(
    points: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Exact distances (n_points, n_segments); zero-length segments act as
    points."""
    points = np.asarray(points, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    d = ends - starts  # (s, 3)
    len2 = np.sum(d * d, axis=1)  # (s,)
    rel = points[:, None, :] - starts[None, :, :]  # (p, s, 3)
    t = np.einsum("psk,sk->ps", rel, d) / np.where(len2 > 0, len2, 1.0)
    t = np.clip(np.where(len2[None, :] > 0, t, 0.0), 0.0, 1.0)
    closest = starts[None, :, :] + t[..., None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - closest, axis=2)


# ---------------------------------------------------------------------------
# Ray casting
# ---------------------------------------------------------------------------


def _hit_terms(mesh: Mesh, origin: np.ndarray):
    """Moller-Trumbore terms fixed by the triangles and a shared ray origin.

    With s = o - a and q = s x e1, a ray d has det = d.n, u*det = d.m and
    v*det = d.q for n = e2 x e1 and m = e2 x s, while t*det = e2.q does not
    depend on d at all.
    """
    a = mesh.vertices[mesh.triangles[:, 0]]
    e1 = mesh.vertices[mesh.triangles[:, 1]] - a
    e2 = mesh.vertices[mesh.triangles[:, 2]] - a
    s = origin - a
    q = np.cross(s, e1)
    return np.cross(e2, e1), np.cross(e2, s), q, np.sum(e2 * q, axis=1)


def _hit_t(terms, d: np.ndarray) -> np.ndarray:
    """Hit t of rays d (k, 3) against every triangle, (k, tris); inf on a miss.

    Each dot product is an explicit three-term sum rather than a BLAS
    product, so a ray's row is bitwise the same whatever rays share the
    call.  Updates run in place to keep few (k, tris) arrays alive.
    """
    n, m, q, t_det = terms

    def dots(w):
        return d[:, 0:1] * w[:, 0] + d[:, 1:2] * w[:, 1] + d[:, 2:3] * w[:, 2]

    det = dots(n)
    hit = np.abs(det) > _DET_EPS
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=hit)
    del det
    u = dots(m)
    u *= inv
    hit &= u >= -_BARY_EPS
    v = dots(q)
    v *= inv
    hit &= v >= -_BARY_EPS
    u += v
    hit &= u <= 1.0 + _BARY_EPS
    del u, v
    t = inv
    t *= t_det
    hit &= t > RAY_T_EPS
    t[~hit] = np.inf
    return t


def _cast(mesh: Mesh, origin, directions, reduce, dtype) -> np.ndarray:
    """Reduce each ray's row of hit t from a shared origin to one value.

    Rays go through :func:`_hit_t` in chunks of about _CHUNK_PAIRS
    ray x triangle pairs, with the per-triangle terms computed once per
    call; ``reduce`` maps a chunk's (rays, triangles) rows, which it may
    overwrite, to one ``dtype`` value per ray.
    """
    origin = np.asarray(origin, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origin.shape != (3,) or directions.ndim != 2 or directions.shape[1] != 3:
        raise ValueError("origin must be (3,) and directions (r, 3)")
    if not np.all(np.linalg.norm(directions, axis=1) > 0):
        raise ValueError("ray directions must be non-zero")

    terms = _hit_terms(mesh, origin)
    out = np.empty(directions.shape[0], dtype=dtype)
    step = max(1, _CHUNK_PAIRS // max(mesh.triangle_count, 1))
    for lo in range(0, directions.shape[0], step):
        out[lo : lo + step] = reduce(_hit_t(terms, directions[lo : lo + step]))
    return out


def first_hit_distances(
    mesh: Mesh, origin: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """Nearest hit of each ray from a shared origin: t per ray, inf on a miss.

    t is in units of each row of ``directions``, and a ray's answer does
    not depend on the other rays.
    """
    return _cast(
        mesh, origin, directions,
        lambda t: np.min(t, axis=1, initial=np.inf), np.float64,
    )


def crossing_counts(
    mesh: Mesh, origin: np.ndarray, directions: np.ndarray, t_max: float
) -> np.ndarray:
    """Crossings with t <= t_max of each ray from a shared origin, as ints.

    t is in units of each row of ``directions``.  A ray's hits are sorted
    by t and a hit within RAY_MERGE_EPS of the previous one is dropped, so
    each run of nearly equal t counts as one crossing: a ray through an
    edge or vertex counts once whether or not the mesh is welded there.
    ``t_max`` may be inf; misses never count.
    """

    def count(t):
        t.sort(axis=1)
        kept = np.isfinite(t) & (t <= t_max)
        # A finite t is preceded only by finite ones, so no inf - inf.
        gap = np.subtract(
            t[:, 1:], t[:, :-1], out=np.full_like(t[:, 1:], np.inf), where=kept[:, 1:]
        )
        kept[:, 1:] &= gap >= RAY_MERGE_EPS
        return np.count_nonzero(kept, axis=1)

    return _cast(mesh, origin, directions, count, np.int64)


def point_inside_mesh(mesh: Mesh, point: np.ndarray) -> bool:
    """Generalized-winding-number containment test for closed meshes.

    Sums the signed solid angle every triangle subtends at the point (Van
    Oosterom & Strackee 1983) over 4 pi: about +-1 inside a closed,
    consistently oriented mesh and about 0 outside (Jacobson, Kavan &
    Sorkine-Hornung 2013), so no probe ray can graze an edge or vertex.
    The sign only tells the winding direction, so either orientation works.
    """
    p = np.asarray(point, dtype=np.float64)
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] - p for k in range(3))
    la, lb, lc = (np.linalg.norm(x, axis=1) for x in (a, b, c))
    det = np.sum(a * np.cross(b, c), axis=1)
    den = (
        la * lb * lc
        + np.sum(a * b, axis=1) * lc
        + np.sum(b * c, axis=1) * la
        + np.sum(c * a, axis=1) * lb
    )
    winding = np.sum(np.arctan2(det, den)) / (2.0 * np.pi)
    return bool(abs(winding) > 0.5)


# ---------------------------------------------------------------------------
# Pinhole camera
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics plus a world-to-camera rigid transform.

    Camera space looks along +z; x is image right, y is image down, so
    pixel coordinates are u = fx x/z + cx, v = fy y/z + cy.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _frozen(self.rotation, np.float64)
        t = _frozen(self.translation, np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be (3, 3) and translation (3,)")
        values = np.concatenate([r.ravel(), t, [self.fx, self.fy, self.cx, self.cy]])
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("camera contains NaN or Inf")
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidValueError("focal lengths fx and fy must be positive")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6 or np.linalg.det(r) < 0:
            raise InvalidValueError("rotation must be orthonormal with det +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def center(self) -> np.ndarray:
        """Camera origin in world coordinates."""
        return -self.rotation.T @ self.translation

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    @classmethod
    def look_at(
        cls,
        eye,
        target,
        up=(0.0, 1.0, 0.0),
        *,
        fx: float = 1000.0,
        fy: float | None = None,
        width: int = 1024,
        height: int = 1024,
    ) -> "Camera":
        eye = np.asarray(eye, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        up = np.asarray(up, dtype=np.float64)
        if not all(np.all(np.isfinite(a)) for a in (eye, target, up)):
            raise NonFiniteError("camera contains NaN or Inf")
        z = target - eye
        nz = np.linalg.norm(z)
        if not nz > 0:
            raise ValueError("eye and target coincide")
        z = z / nz
        x = np.cross(z, up)
        nx = np.linalg.norm(x)
        if not nx > 1e-12:
            raise ValueError("up vector is parallel to the view direction")
        x = x / nx
        y = np.cross(z, x)
        rotation = np.stack([x, y, z])
        return cls(
            fx=float(fx),
            fy=float(fx if fy is None else fy),
            cx=width / 2.0,
            cy=height / 2.0,
            width=int(width),
            height=int(height),
            rotation=rotation,
            translation=-rotation @ eye,
        )

    def to_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
            "rotation": self.rotation.tolist(),
            "translation": self.translation.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Camera":
        return cls(
            fx=float(data["fx"]),
            fy=float(data["fy"]),
            cx=float(data["cx"]),
            cy=float(data["cy"]),
            width=int(data["width"]),
            height=int(data["height"]),
            rotation=np.asarray(data["rotation"], dtype=np.float64),
            translation=np.asarray(data["translation"], dtype=np.float64),
        )


def project(
    camera: Camera, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points (..., 3): returns (pixels (..., 2), depth (...),
    valid (...)), over any leading axes.

    Points at or behind the camera plane (z <= CAMERA_Z_EPS) are flagged
    invalid; their pixel entries are zero, never NaN.
    """
    cam = camera.world_to_camera(points)
    z = cam[..., 2]
    valid = z > CAMERA_Z_EPS
    safe_z = np.where(valid, z, 1.0)
    u = camera.fx * cam[..., 0] / safe_z + camera.cx
    v = camera.fy * cam[..., 1] / safe_z + camera.cy
    uv = np.stack([u, v], axis=-1)
    uv[~valid] = 0.0
    return uv, z, valid


def project_vjp(camera: Camera, points: np.ndarray, grad_uv: np.ndarray) -> np.ndarray:
    """Exact gradient of :func:`project` pixels wrt world points (..., 3).

    Invalid (behind-camera) points contribute zero gradient, mirroring the
    forward clamp.
    """
    grad_uv = np.asarray(grad_uv, dtype=np.float64)
    cam = camera.world_to_camera(points)
    z = cam[..., 2]
    valid = z > CAMERA_Z_EPS
    safe_z = np.where(valid, z, 1.0)
    gu = np.where(valid, grad_uv[..., 0], 0.0)
    gv = np.where(valid, grad_uv[..., 1], 0.0)
    d_cam = np.zeros_like(cam)
    d_cam[..., 0] = camera.fx * gu / safe_z
    d_cam[..., 1] = camera.fy * gv / safe_z
    d_cam[..., 2] = -(
        camera.fx * cam[..., 0] * gu + camera.fy * cam[..., 1] * gv
    ) / (safe_z * safe_z)
    d_cam[~valid] = 0.0
    return d_cam @ camera.rotation
