"""Mesh geometry: OBJ I/O, ray casting, containment, pinhole cameras.

Everything here is plain numpy at float64.  Ray queries share one engine:
rays from a shared origin go through one Moller-Trumbore test whose
per-triangle terms are computed once per call, as one table whose last
column, all zero, is a sentinel that is never hit.  The engine bins the
rays by direction (a gnomonic grid about their mean direction).  A binned
ray's row holds the ids of the triangles whose padded footprint reaches
its cell and of every triangle the grid cannot bin, padded with the
sentinel; rows go to the hit test a few blocks at a time, each block one
gather of the table.  A ray the grid cannot bin meets every triangle,
through the table as it is.  A non-finite origin or direction raises
:class:`NonFiniteError`.  Each block of hit t goes through one of two
reductions, which both ignore the padding's inf.
:func:`first_hit_distances` keeps the nearest hit;
:func:`crossing_counts` counts the distinct t up to a limit, counting
each run of nearly equal t once, so a ray through an edge or vertex is
one crossing whether or not the mesh is welded there.  A pair's t does
not depend on what else is tested with it, so binning changes no result
bit.  t is in units of each ray's direction, but ``RAY_T_EPS`` (the bound a
hit's t must exceed) and ``RAY_MERGE_EPS`` are absolute in t, so the
length of a direction is not only a unit: a hit at distance s along a
direction of length L has t = s / L and is dropped once s / L <= 1e-9
(from (0, 0, 3), a direction of length 1e10 misses a unit icosphere).
Vertex visibility casts unit directions and joint visibility casts joint
offsets, so neither comes near that limit.  Containment is the
generalized winding number, so it depends on no probe direction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .core import (
    InvalidValueError,
    Mesh,
    NonFiniteError,
    _frozen,
    _require_finite,
    _require_int,
    _require_json_floats,
    _require_real,
)

RAY_T_EPS = 1e-9
RAY_MERGE_EPS = 1e-9
_BARY_EPS = 1e-12
_DET_EPS = 1e-14
CAMERA_Z_EPS = 1e-9
# Ray x triangle pairs per block of a ray query: 128 KiB per float64
# temporary, small enough to stay in cache and to keep peak memory flat.  A
# block of gathered rows (see _blocks) takes a quarter as many pairs, as each
# of its pairs also holds ten gathered terms and an id.
_CHUNK_PAIRS = 1 << 14
# Ray binning (see _cast): front rays per grid cell on average, the fewest
# rays a query bins, the least cosine of a binned ray to the mean direction,
# and the least length of the mean unit direction.  The grid's set-up and an
# unbinned ray both cost time in proportion to the triangle count, so the
# fewest rays worth binning does not depend on the mesh (64 on the bench's
# 3968-triangle tube and 5120-triangle icosphere).
_BIN_RAYS = 2
_BIN_MIN_RAYS = 64
_BIN_RAY_COS = 0.05
_BIN_MEAN = 1e-3
_MACHINE_EPS = np.finfo(np.float64).eps
# OBJ indices beyond int64 are clamped to this before the bulk range checks.
_HUGE = 1 << 62


class ObjParseError(ValueError):
    """OBJ syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Wavefront OBJ
# ---------------------------------------------------------------------------


# The error for a v or f record with fewer than three arguments.
_SHORT_RECORD = {
    "v": "vertex needs 3 coordinates",
    "f": "face needs at least 3 vertices, got {}",
}


def parse_obj(text: str) -> Mesh:
    """Parse v/f records; polygons are fan-triangulated.

    Indices are 1-based; negative indices count back from the vertices
    defined so far.  Errors carry the offending line and column; a NaN or
    Inf vertex coordinate raises :class:`NonFiniteError` instead.  A
    coordinate or index with an underscore or a non-ASCII digit is a bad
    token.  A v record's tokens after the third (w, vertex colours) follow
    the coordinate rule and are then dropped; an f token is ``i``,
    ``i/t``, ``i/t/n`` or ``i//n``, each t or n an index that is checked
    for its syntax only.  Every other record (vn, vt, o, g, ...) is
    skipped unread.

    One pass splits the lines and collects each record kind's tokens; each
    kind is then converted and checked in bulk.  If a check fails, the
    lines are read again in order and the earliest bad line's error is
    raised, at its leftmost bad token (a v line is checked for finiteness
    only once all its tokens parse).  No vertices, or an index past the
    last vertex, is reported only when no line has an error.
    """
    comments = "#" in text
    # Three tokens per v record, and any after them; per f record its
    # first-field tokens, line number, token count and the number of v
    # tokens before it, and the fields after each token's first '/'.
    v_tok: list[str] = []
    v_more: list[str] = []
    f_tok: list[str] = []
    f_rest: list[list[str]] = []
    f_line: list[int] = []
    f_count: list[int] = []
    f_seen: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if comments else raw).split()
        if not parts:
            continue
        rec = parts[0]
        if len(parts) < 4 and rec in _SHORT_RECORD:
            raise _line_error(text)
        if rec == "v":
            v_tok += parts[1:4]
            if len(parts) > 4:
                v_more += parts[4:]
        elif rec == "f":
            if "/" in raw:
                fields = [a.split("/") for a in parts[1:]]
                f_tok += [a[0] for a in fields]
                f_rest += [a[1:] for a in fields]
            else:
                f_tok += parts[1:]
            f_line.append(lineno)
            f_count.append(len(parts) - 1)
            f_seen.append(len(v_tok))
        # other record types (vn, vt, o, g, s, usemtl, ...) are ignored

    # Python's float and int also read underscores and non-ASCII digits,
    # which OBJ numbers do not have; plain ASCII text skips the token scan.
    rest = list(chain.from_iterable(f_rest))
    if not text.isascii() or "_" in text:
        read = "".join(chain(v_tok, v_more, f_tok, rest))
        if not read.isascii() or "_" in read:
            raise _line_error(text)
    try:
        coords = list(map(float, v_tok))
        vertices = np.array(coords, dtype=np.float64).reshape(-1, 3)
        # The token lists are the largest temporaries; drop each once converted.
        del v_tok, coords
        ints = list(map(int, f_tok))
        more = list(map(float, v_more))
        list(map(int, filter(None, rest)))  # their syntax only; t and n are unused
    except ValueError:
        raise _line_error(text) from None
    if any(len(a) > 2 for a in f_rest) or not all(map(math.isfinite, more)):
        raise _line_error(text)
    del f_tok
    try:
        given = np.array(ints, dtype=np.int64)
    except OverflowError:
        # Past int64 an index is out of range either way; the message
        # quotes the Python int, not this array.
        given = np.array([min(max(i, -_HUGE), _HUGE) for i in ints], dtype=np.int64)
    counts = np.array(f_count, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    seen = np.repeat(np.array(f_seen, dtype=np.int64) // 3, counts)
    index = np.where(given < 0, seen + given, given - 1)
    if not np.isfinite(vertices).all() or ((given == 0) | (index < 0)).any():
        raise _line_error(text)

    if not len(vertices):
        raise ObjParseError("no vertices defined", 1, 1)
    over = index >= len(vertices)
    if over.any():
        k = int(np.argmax(over))
        lineno = f_line[int(np.searchsorted(starts, k, side="right")) - 1]
        raise ObjParseError(
            f"vertex index {ints[k]} exceeds {len(vertices)} vertices", lineno, 1)

    # Fan each polygon (a0, a1, a2, ...) into (a0, ai, ai+1).
    inner = np.ones(index.size, dtype=bool)
    inner[starts] = False
    inner[starts + counts - 1] = False
    mid = np.flatnonzero(inner)
    triangles = np.column_stack(
        (np.repeat(index[starts], counts - 2), index[mid], index[mid + 1]))
    return Mesh(vertices, triangles)


def _line_error(text: str) -> Exception:
    """The error :func:`parse_obj` raises for ``text``'s earliest bad line,
    found by reading the lines in order, each token with its column."""
    seen = 0  # v lines so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m[0], m.start() + 1) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not tokens or tokens[0][0] not in _SHORT_RECORD:
            continue
        rec, args = tokens[0][0], tokens[1:]
        if len(args) < 3:
            return ObjParseError(_SHORT_RECORD[rec].format(len(args)), lineno, 1)
        if rec == "v":
            for token, col in args:
                try:
                    _obj_number(float, token)
                except ValueError:
                    return ObjParseError(f"bad coordinate {token!r}", lineno, col)
            if not all(math.isfinite(float(token)) for token, _ in args):
                return NonFiniteError(f"line {lineno}: vertex coordinates must be finite")
            seen += 1
            continue
        for token, col in args:
            first, *rest = token.split("/")
            try:
                i = _obj_number(int, first)
            except ValueError:
                return ObjParseError(f"bad vertex index {token!r}", lineno, col)
            try:
                if len(rest) > 2:
                    raise ValueError(token)
                for field in filter(None, rest):
                    _obj_number(int, field)
            except ValueError:
                return ObjParseError(f"bad texture or normal index {token!r}", lineno, col)
            if i == 0:
                return ObjParseError("vertex index 0 is not allowed", lineno, col)
            if seen + i < 0:
                return ObjParseError(
                    f"negative index {token!r} reaches before first vertex", lineno, col)
    raise AssertionError("no line of the text has an error")


def _obj_number(kind: type, token: str):
    """``kind(token)`` for ``kind`` float or int, refusing with ValueError the
    underscores and non-ASCII digits that Python reads but OBJ does not have."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return kind(token)


def load_obj(path: str | Path) -> Mesh:
    return parse_obj(Path(path).read_text())


def write_obj(mesh: Mesh) -> str:
    """Emit v/f records with full round-trip float precision.

    Every float is written as ``repr`` of the Python float, so the text is
    byte-stable and parses back to the same bits.  A mesh with no vertices
    raises ValueError, since :func:`parse_obj` refuses the text it would give.
    """
    return _obj_vertices(mesh.vertices) + _obj_faces(mesh.triangles)


def _obj_vertices(vertices: np.ndarray) -> str:
    """The v records of :func:`write_obj`, one per (3,) row of ``vertices``."""
    if not len(vertices):
        raise ValueError("cannot write a mesh with no vertices as OBJ")
    return _records("v %r %r %r\n", vertices.tolist())


def _obj_faces(triangles: np.ndarray) -> str:
    """The f records of :func:`write_obj`, one per 0-based index triple."""
    return _records("f %d %d %d\n", (triangles + 1).tolist())


def _records(fmt: str, rows: list[list]) -> str:
    """``fmt`` applied to each row, in one formatting call."""
    return (fmt * len(rows)) % tuple(chain.from_iterable(rows))


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


def _hit_table(mesh: Mesh, origin: np.ndarray) -> np.ndarray:
    """Moller-Trumbore terms fixed by the triangles and a shared ray origin,
    as one (10, tris + 1) table: rows n, m and q (three each), then t_det.

    With s = o - a and q = s x e1, a ray d has det = d.n, u*det = d.m and
    v*det = d.q for n = e2 x e1 and m = e2 x s, while t_det = t*det = e2.q
    does not depend on d at all.  The products are written out in the
    order ``np.cross`` and ``np.sum`` take, so each term has their bits (a
    zero t_det may differ in sign, which nothing reads).  The last column
    is the sentinel, all zero: its det is 0, so it is never a hit.
    """
    v = mesh.vertices.T
    a = v[:, mesh.triangles[:, 0]]
    e1 = v[:, mesh.triangles[:, 1]] - a
    e2 = v[:, mesh.triangles[:, 2]] - a
    s = origin[:, None] - a
    table = np.zeros((10, mesh.triangle_count + 1))
    n, m, q, t_det = table[0:3, :-1], table[3:6, :-1], table[6:9, :-1], table[9, :-1]
    for out, x, y in ((n, e2, e1), (m, e2, s), (q, s, e1)):
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            np.multiply(x[i], y[j], out=out[k])
            out[k] -= x[j] * y[i]
    np.multiply(e2[0], q[0], out=t_det)
    t_det += e2[1] * q[1]
    t_det += e2[2] * q[2]
    return table


def _hit_t(table: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Hit t of rays d (k, 3) against a block of triangle terms; inf on a
    miss.

    ``table`` holds rows of :func:`_hit_table`: its columns (tris,), one
    set of triangles for every ray, or gathered per ray as (k, width).
    Either way the result has the broadcast shape of the ray and the
    triangle axes.  Each dot product is an explicit three-term sum rather
    than a BLAS product, so a pair's t is bitwise the same whatever rays
    and triangles share the call.  Updates run in place to keep few
    block-sized arrays alive.
    """

    def dots(k):
        out = d[:, 0:1] * table[k]
        out += d[:, 1:2] * table[k + 1]
        out += d[:, 2:3] * table[k + 2]
        return out

    det = dots(0)
    hit = np.abs(det) > _DET_EPS
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=hit)
    del det
    u = dots(3)
    u *= inv
    hit &= u >= -_BARY_EPS
    v = dots(6)
    v *= inv
    hit &= v >= -_BARY_EPS
    u += v
    hit &= u <= 1.0 + _BARY_EPS
    del u, v
    t = inv
    t *= table[9]
    hit &= t > RAY_T_EPS
    t[~hit] = np.inf
    return t


def _footprints(mesh: Mesh, origin: np.ndarray, frame: np.ndarray, t_det: np.ndarray):
    """The triangles :func:`_cast` can bin, as (ids, box_lo, box_hi): their
    padded footprint boxes in the gnomonic plane of ``frame``'s last column,
    each (len(ids), 2).  Every other triangle is wide."""
    rel = mesh.vertices - origin
    dist = np.linalg.norm(rel, axis=1)
    tri = mesh.triangles
    edge = np.maximum(np.linalg.norm(rel[tri[:, 1]] - rel[tri[:, 0]], axis=1),
                      np.linalg.norm(rel[tri[:, 2]] - rel[tri[:, 0]], axis=1))
    reach = _over_corners(np.maximum, dist[tri])
    graze = 32.0 * _MACHINE_EPS * edge * np.maximum(dist[tri[:, 0]], edge) * reach
    ids = np.flatnonzero(8.0 * graze < np.abs(t_det))
    eta = 2.0 * _BARY_EPS + graze[ids] / np.abs(t_det[ids])
    r = 4.0 * eta * edge[ids]
    r += 8.0 * _MACHINE_EPS * (np.linalg.norm(origin) + reach[ids])
    local = rel @ frame
    z = _over_corners(np.minimum, local[tri[ids], 2])
    near = r < z / 2
    ids, r, z = ids[near], r[near], z[near]
    # Corners of the binned triangles lie in front, so only their
    # projections are read.
    proj = np.divide(local[:, :2], local[:, 2:], out=np.zeros((len(local), 2)),
                     where=local[:, 2:] > 0)[tri[ids]]
    box_lo, box_hi = _over_corners(np.minimum, proj), _over_corners(np.maximum, proj)
    pad = 4.0 * r * (z + 3.0 * reach[ids]) / z**2
    far = np.maximum(-box_lo, box_hi)
    pad += 1e-12 * (1.0 + np.maximum(far[:, 0], far[:, 1]))
    return ids, box_lo - pad[:, None], box_hi + pad[:, None]


def _over_corners(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` (np.minimum or np.maximum) over axis 1 of ``a``, a triangle's
    three corners: elementwise, as numpy reduces a length-3 axis slowly."""
    return ufunc(ufunc(a[:, 0], a[:, 1]), a[:, 2])


def _by_cell(items: np.ndarray, first: np.ndarray, last: np.ndarray, g: int):
    """List each item in every cell of its box of (row, column) cells from
    ``first`` to ``last`` on a g x g grid, grouped by cell: returns the
    listing and the (g * g + 1,) starts, cell c's items being
    listing[start[c] : start[c + 1]]."""
    width = last - first + 1
    n = width[:, 0] * width[:, 1]
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    w = np.repeat(width[:, 1], n)
    cell = np.repeat(first[:, 0] * g + first[:, 1], n) + k // w * g + k % w
    start = np.zeros(g * g + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=g * g), out=start[1:])
    # numpy's stable sort of 16-bit keys is a radix sort, several times faster.
    key = cell.astype(np.uint16) if g * g <= 1 << 16 else cell
    return np.repeat(items, n)[np.argsort(key, kind="stable")], start


def _grid(mesh: Mesh, origin: np.ndarray, unit: np.ndarray, t_det: np.ndarray):
    """The gnomonic ray grid of :func:`_cast`, or None for a query that does
    not bin.

    Returns (rays, ray_start, listed, listed_start, wide): the front rays
    and the listed triangles, each sorted by cell, with cell i's entries
    at [start[i], start[i + 1]), and the wide triangles.
    """
    if unit.shape[0] < _BIN_MIN_RAYS:
        return None
    mean = unit.mean(axis=0)
    length = np.linalg.norm(mean)
    if length < _BIN_MEAN:
        return None
    c = mean / length
    a = np.cross(c, np.eye(3)[np.argmin(np.abs(c))])
    a /= np.linalg.norm(a)
    frame = np.stack([a, np.cross(c, a), c], axis=1)
    ray = unit @ frame
    front = np.flatnonzero(ray[:, 2] > _BIN_RAY_COS)
    g = math.ceil(math.sqrt(front.size / _BIN_RAYS))
    if g <= 1:
        return None
    p = ray[front, :2] / ray[front, 2:]
    lo, hi = p.min(axis=0), p.max(axis=0)
    size = np.where(hi - lo > 1e-9, (hi - lo) / g, 1.0)  # unit cells at zero span

    def cell(x):
        return np.clip(np.floor((x - lo) / size), 0, g - 1).astype(np.int64)

    ids, box_lo, box_hi = _footprints(mesh, origin, frame, t_det)
    seen = (box_hi >= lo) & (box_lo <= hi)
    seen = seen[:, 0] & seen[:, 1]
    first, last = cell(box_lo[seen]), cell(box_hi[seen])
    listed, listed_start = _by_cell(ids[seen], first, last, g)
    ij = cell(p)
    rays, ray_start = _by_cell(front, ij, ij, g)
    # A binned triangle outside every cell meets no front ray at all.
    wide = np.ones(mesh.triangle_count, dtype=bool)
    wide[ids] = False
    return rays, ray_start, listed, listed_start, np.flatnonzero(wide)


def _blocks(mesh: Mesh, origin: np.ndarray, unit: np.ndarray, t_det: np.ndarray):
    """The blocks of :func:`_cast`: yields (rays, ids), the indices of some
    rays and the (len(rays), width) triangle ids of their rows, padded with
    the sentinel id (the triangle count), or None for rays that meet every
    triangle.  Each ray is in exactly one block, and a block holds at least
    one row and at most _CHUNK_PAIRS // 4 gathered or _CHUNK_PAIRS
    all-pairs pairs.
    """
    tris = mesh.triangle_count
    rest = np.ones(unit.shape[0], dtype=bool)
    grid = _grid(mesh, origin, unit, t_det)
    if grid is not None:
        rays, ray_start, listed, listed_start, wide = grid
        cell = np.repeat(np.arange(ray_start.size - 1), np.diff(ray_start))
        start, stop = listed_start[cell], listed_start[cell + 1]
        order = np.argsort(start - stop, kind="stable")
        rays, start, stop = rays[order], start[order], stop[order]
        listed = np.append(listed, tris)  # listed[-1] is the sentinel
        lo = 0
        while lo < rays.size:
            count = int(stop[lo] - start[lo])
            hi = lo + max(1, _CHUNK_PAIRS // 4 // max(wide.size + count, 1))
            pos = start[lo:hi, None] + np.arange(count)
            ids = np.empty((len(pos), wide.size + count), dtype=np.int64)
            ids[:, : wide.size] = wide
            ids[:, wide.size :] = listed[np.where(pos < stop[lo:hi, None], pos, -1)]
            yield rays[lo:hi], ids
            lo = hi
        rest[rays] = False
    rest = np.flatnonzero(rest)
    step = max(1, _CHUNK_PAIRS // max(tris, 1))
    for lo in range(0, rest.size, step):
        yield rest[lo : lo + step], None


def _cast(mesh: Mesh, origin, directions, reduce, dtype) -> np.ndarray:
    """Reduce each ray's row of hit t from a shared origin to one value.

    ``reduce`` maps a block of (rays, triangles) hit t from :func:`_hit_t`,
    which it may overwrite, to one ``dtype`` value per ray; a row may end
    in the sentinel's inf.  The per-triangle terms are computed once per
    call, and nothing is kept between calls.

    Binning.  Let c be the normalized mean of the unit ray directions and
    a, b an orthonormal pair across it.  A front ray (unit d with
    d.c > _BIN_RAY_COS) maps to the gnomonic point p = (d.a, d.b) / d.c.
    Great circles map to lines, so a triangle whose corners V (relative to
    the origin) all lie in front, V.c > 0, is hit only by rays whose p
    lies in the triangle of its projected corners.  The front rays
    are binned into a g x g grid over their bounding box, g = ceil(sqrt(
    front rays / _BIN_RAYS)), and each triangle in front that meets the
    bounds below is listed in every cell its padded footprint box covers.
    A front ray's row is every triangle that is not listed anywhere
    ("wide"), then its cell's listed ones; back rays are tested against all
    triangles.  A query with fewer than _BIN_MIN_RAYS rays, with g = 1, or
    whose mean unit direction is shorter than _BIN_MEAN (say, an origin
    inside a closed mesh), runs all pairs.

    Blocks.  The rows go widest first, and each block of them is padded
    with the sentinel to its first row's width, so a block may hold the
    rays of many cells or part of one cell's, and its padding is small.  A
    block is one gather of the term table by its (rays, width) ids and one
    :func:`_hit_t`; the rays that meet all pairs take the table as it is,
    broadcast over them.  See :func:`_blocks` for their sizes.

    Why this is exact.  A pair's t comes from elementwise three-term dots,
    so it is bitwise the same whatever rays or triangles share the block,
    and the sentinel is never a hit; the min or distinct-t count over a
    candidate set therefore equals the all-pairs one as long as the set
    holds every triangle that :func:`_hit_t` can report, _BARY_EPS grazes
    included.  Let s = o - a, e the longer edge from a, R the largest |V|,
    z the least V.c, eps the machine epsilon and
    kappa = |e| max(|s|, |e|) R / |t_det|.  Each dot
    is off by less than 8 eps times the lengths of its two vectors, so
    when 256 eps kappa < 1 a reported hit point has exact barycentrics
    above -eta = -(2 _BARY_EPS + 32 eps kappa) and lies within
    r = 4 eta |e| + 8 eps (|o| + R) of the triangle, the last term for
    rounding the corners.  The gnomonic map moves a point by at most
    (1 + |p|) / (z - r) per unit step, so the footprint box is padded by
    twice that bound, 4 r (z + 3 R) / z^2, plus 1e-12 (1 + max |p|) for
    rounding the projected corners and rays.  A triangle outside these
    bounds (256 eps kappa >= 1 or r >= z / 2: behind or across the plane
    through the origin, degenerate, a sliver, or edge-on to the origin)
    is wide.
    """
    origin = np.asarray(origin, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origin.shape != (3,) or directions.ndim != 2 or directions.shape[1] != 3:
        raise ValueError("origin must be (3,) and directions (r, 3)")
    _require_finite("ray origin and directions must be finite", origin, directions)
    norms = np.linalg.norm(directions, axis=1)
    if not np.all(norms > 0):
        raise ValueError("ray directions must be non-zero")

    table = _hit_table(mesh, origin)
    out = np.empty(directions.shape[0], dtype=dtype)
    for rays, ids in _blocks(mesh, origin, directions / norms[:, None], table[9, :-1]):
        block = table[:, :-1] if ids is None else np.take(table, ids, axis=1)
        out[rays] = reduce(_hit_t(block, directions[rays]))
    return out


def first_hit_distances(
    mesh: Mesh, origin: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """Nearest hit of each ray from a shared origin: t per ray, inf on a miss.

    t is in units of each row of ``directions``, and a ray's answer does
    not depend on the other rays.  A hit with t <= ``RAY_T_EPS`` is not a
    hit, and that bound is absolute in t, so a direction so long that a
    hit's t falls to 1e-9 or below misses it (see the module docstring).
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
    ``t_max`` may be inf but not NaN; misses never count.  ``RAY_T_EPS`` and
    ``RAY_MERGE_EPS`` are absolute in t, so scaling a direction up also
    drops hits within 1e-9 of the origin in t and merges crossings closer
    than 1e-9 in t (see the module docstring).
    """
    if math.isnan(t_max):
        raise NonFiniteError("t_max must not be NaN")

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
        # The image size is kept as Python ints and the intrinsics as Python
        # floats, each after its rule, so to_dict writes the same JSON for
        # an int and a float focal length; a string, bool or list is refused,
        # not cast, and so is a float image size.
        for name in ("width", "height"):
            _require_int(getattr(self, name), f"camera {name}", 1)
        r, t = _frozen(self, rotation=np.float64, translation=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be (3, 3) and translation (3,)")
        for name, low in (("fx", 0), ("fy", 0), ("cx", None), ("cy", None)):
            _require_real(getattr(self, name), f"camera {name}", low, low is not None)
        for name in ("width", "height", "fx", "fy", "cx", "cy"):
            kind = int if name in ("width", "height") else float
            object.__setattr__(self, name, kind(getattr(self, name)))
        _require_finite("camera contains NaN or Inf", r, t)
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6 or np.linalg.det(r) < 0:
            raise InvalidValueError("rotation must be orthonormal with det +1")

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
        _require_int(width, "camera width", 1)  # before cx = width / 2
        _require_int(height, "camera height", 1)
        eye = np.asarray(eye, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        up = np.asarray(up, dtype=np.float64)
        _require_finite("camera contains NaN or Inf", eye, target, up)
        z = target - eye
        nz = np.linalg.norm(z)
        if not nz > 0:
            raise InvalidValueError("eye and target coincide")
        z = z / nz
        x = np.cross(z, up)
        nx = np.linalg.norm(x)
        if not nx > 1e-12:
            raise InvalidValueError("up vector is parallel to the view direction")
        x = x / nx
        y = np.cross(z, x)
        rotation = np.stack([x, y, z])
        return cls(
            fx=fx,
            fy=fx if fy is None else fy,
            cx=width / 2.0,
            cy=height / 2.0,
            width=width,
            height=height,
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
            **{k: float(_require_json_floats(data[k], k)) for k in ("fx", "fy", "cx", "cy")},
            width=data["width"],
            height=data["height"],
            rotation=_require_json_floats(data["rotation"], "rotation"),
            translation=_require_json_floats(data["translation"], "translation"),
        )


def _pinhole(
    camera: Camera, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pixels of camera-space points given by their coordinate arrays:
    u, v, valid and safe z, each shaped like ``x``.

    A point at or behind the camera plane (z <= CAMERA_Z_EPS) is invalid;
    its safe z is 1, so its u and v are finite but mean nothing.
    """
    valid = z > CAMERA_Z_EPS
    safe_z = np.where(valid, z, 1.0)
    u = camera.fx * x / safe_z + camera.cx
    v = camera.fy * y / safe_z + camera.cy
    return u, v, valid, safe_z


def project(
    camera: Camera, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points (..., 3): returns (pixels (..., 2), depth (...),
    valid (...)), over any leading axes.

    Points at or behind the camera plane (z <= CAMERA_Z_EPS) are flagged
    invalid; their pixel entries are zero, never NaN.
    """
    x, y, z = np.moveaxis(camera.world_to_camera(points), -1, 0)
    u, v, valid, _ = _pinhole(camera, x, y, z)
    uv = np.stack([u, v], axis=-1)
    uv[~valid] = 0.0
    return uv, z, valid
