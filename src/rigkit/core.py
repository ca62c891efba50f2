"""Rig data model: skeletons, meshes, skinning weights.

Coordinates live in normalized object units; a well-formed asset fits in the
[-0.5, 0.5]^3 cube.  Parent links use ``ROOT_PARENT`` (-1) as the root
sentinel everywhere in the library; the +1 offset used by the token format
is confined to the codec module.

All value types are immutable after construction (each keeps a read-only
copy of the arrays it is given), so they can be shared freely across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT_PARENT = -1
# Hard cap shared by the token vocabulary and the validator.
MAX_JOINTS = 70


class InvalidSkeletonError(ValueError):
    """Raised when an operation requires a structurally valid skeleton."""


class InvalidValueError(ValueError):
    """Raised when well-formed input breaks a value rule (the CLI exits 3)."""


class NonFiniteError(InvalidValueError):
    """Raised when an input holds NaN or Inf where finite values are required."""


def _frozen(obj, **dtypes) -> tuple[np.ndarray, ...]:
    """Set each named field of the frozen dataclass ``obj`` to a read-only
    C-contiguous copy at its dtype, so the caller's arrays stay theirs;
    returns the copies in the order named.  Each copy lies in an immutable
    bytes object, so ``setflags(write=True)`` raises ValueError and what a
    value derives from its arrays and keeps (a skeleton's FK schedule and
    validation issues) cannot go stale.  No field is cast blindly: an int64
    one goes through :func:`_require_integers` (an integral float past
    int64 is refused too), a bool one through :func:`_require_bools`, and a
    float64 one given as strings, complex, objects or bools raises ValueError."""
    copies = []
    for name, dtype in dtypes.items():
        a = getattr(obj, name)
        if dtype is np.int64 and getattr(a, "dtype", None) != dtype:
            a = _require_integers(name, a)
            if a.dtype.kind != "i" and not np.all((-2.0**63 <= a) & (a < 2.0**63)):
                raise ValueError(f"{name} must hold integers within int64")
        a = np.asarray(a)
        if a.dtype != dtype:
            if dtype is bool:
                a = _require_bools(name, a)
            elif a.dtype.kind not in "iuf":
                raise ValueError(f"{name} must hold real numbers")
            a = a.astype(dtype, copy=False)
        a = np.ndarray(a.shape, dtype, a.tobytes())
        object.__setattr__(obj, name, a)
        copies.append(a)
    return tuple(copies)


def _require_finite(message: str, *arrays) -> None:
    """Raise NonFiniteError(message) unless every entry of every array is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteError(message)


def _require_integers(name: str, a) -> np.ndarray:
    """``a`` as an array, refused unless every entry is a finite integer:
    a NaN or Inf raises NonFiniteError, and a fraction or a non-number
    (a string, a complex, an object, a bool) ValueError.  An integer-valued
    float passes, returned as float64; nothing is cast.  A list or tuple is
    read for bools before numpy would promote them among its numbers."""
    if isinstance(a, (list, tuple)) and _holds_bool(a):
        raise ValueError(f"{name} must hold integers")
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        if a.dtype.kind != "f":
            raise ValueError(f"{name} must hold integers")
        a = a.astype(np.float64)
        _require_finite(f"{name} contains NaN or Inf", a)
        if np.any(a != np.trunc(a)):
            raise ValueError(f"{name} must hold integers")
    return a


def _holds_bool(items) -> bool:
    """Whether a list or tuple, nested or not, holds a bool or a bool array."""
    for x in items:
        if isinstance(x, (list, tuple)):
            if _holds_bool(x):
                return True
        elif isinstance(x, (bool, np.bool_)) or getattr(x, "dtype", None) == bool:
            return True
    return False


def _require_bools(name: str, a) -> np.ndarray:
    """``a`` as a bool array, refused unless every entry is 0 or 1: a NaN
    or Inf raises NonFiniteError and any other value (a string, a complex,
    an object) ValueError, so no entry is read by its truthiness."""
    a = np.asarray(a)
    if a.dtype != bool:
        if a.dtype.kind not in "iuf":
            raise ValueError(f"{name} must hold only 0 and 1")
        values = a.astype(np.float64)
        _require_finite(f"{name} contains NaN or Inf", values)
        if np.any((values != 0.0) & (values != 1.0)):
            raise ValueError(f"{name} must hold only 0 and 1")
        a = values == 1.0
    return a


def _require_int(value, what: str, minimum: int) -> None:
    """Refuse a count that is not an integer of at least ``minimum``.

    A float (2.7), a bool, a string or a list raises ValueError instead of
    being cast; an integer below ``minimum`` raises InvalidValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer")
    if value < minimum:
        raise InvalidValueError(f"{what} must be at least {minimum}")


def _require_real(value, what: str, low=None, strict: bool = False) -> None:
    """Refuse a real number that is not finite and above ``low`` (``strict``)
    or at least ``low``, e.g. "falloff must be finite and positive", or, with
    no ``low``, that is not finite ("camera cx must be finite"): a bool or a
    non-number (a string, None, a list) raises ValueError, NaN or Inf
    NonFiniteError and a value past the bound InvalidValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number")
    bound = "" if low is None else f" and {'above' if strict else 'at least'} {low}"
    if low == 0:
        bound = " and positive" if strict else " and non-negative"
    message = f"{what} must be finite{bound}"
    if not isinstance(value, int):  # a Python int is finite and may pass int64
        _require_finite(message, value)
    if low is not None and not (value > low if strict else value >= low):
        raise InvalidValueError(message)


def _require_broadcast(leading: dict[str, tuple]) -> None:
    """Refuse operands whose leading axes do not broadcast, naming them."""

    def clash(s, t):
        return any(a != b and 1 not in (a, b) for a, b in zip(s[::-1], t[::-1]))

    bad = [f"{n} {s}" for n, s in leading.items() if any(clash(s, t) for t in leading.values())]
    if bad:
        raise ValueError(f"leading axes do not broadcast: {', '.join(bad)}")


@dataclass(frozen=True)
class Skeleton:
    """A joint tree: positions (j, 3) plus a parent index per joint.

    Construction only enforces shapes; structural soundness (single root,
    acyclic, within the joint cap) is checked by :func:`validate_skeleton`,
    and operations that need a sound tree raise ``InvalidSkeletonError``.
    Its issues and its FK schedule are computed on first use and kept with
    the value, whose arrays are read-only.
    """

    joints: np.ndarray
    parents: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        joints, parents = _frozen(self, joints=np.float64, parents=np.int64)
        if joints.ndim != 2 or joints.shape[1] != 3:
            raise ValueError(f"joints must be (j, 3), got {joints.shape}")
        if parents.shape != (joints.shape[0],):
            raise ValueError(
                f"parents must be ({joints.shape[0]},), got {parents.shape}"
            )
        if self.names is not None and len(self.names) != joints.shape[0]:
            raise ValueError("names length must match joint count")

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]

    @property
    def bone_count(self) -> int:
        return int(np.sum(self.parents != ROOT_PARENT))

    @cached_property
    def _fk_schedule(self) -> _FkSchedule:
        # Built on first use and kept: the arrays it derives from are read-only.
        return _build_fk_schedule(self.joints, self.parents)

    @cached_property
    def _issues(self) -> tuple[ValidationIssue, ...]:
        # Computed on first use and kept, as the FK schedule is.
        return _skeleton_issues(self.joints, self.parents)


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh: finite vertex positions and vertex-index triples."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        vertices, triangles = _frozen(self, vertices=np.float64, triangles=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (v, 3), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(f"triangles must be (f, 3), got {triangles.shape}")
        _require_finite("mesh vertices contain NaN or Inf", vertices)
        if triangles.size and (
            triangles.min() < 0 or triangles.max() >= vertices.shape[0]
        ):
            raise ValueError("triangle indices out of vertex range")

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]


@dataclass(frozen=True)
class SkinWeights:
    """Per-vertex weights over joints; every row is a point on the simplex."""

    matrix: np.ndarray

    ROW_SUM_TOL = 1e-6

    def __post_init__(self):
        (m,) = _frozen(self, matrix=np.float64)
        if m.ndim != 2:
            raise ValueError(f"weights must be 2-d, got shape {m.shape}")
        _require_finite("weights contain NaN or Inf", m)
        if m.size:
            if m.min() < -self.ROW_SUM_TOL or m.max() > 1.0 + self.ROW_SUM_TOL:
                raise InvalidValueError("weights must lie in [0, 1]")
            sums = m.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > self.ROW_SUM_TOL:
                raise InvalidValueError("weight rows must sum to 1 within 1e-6")

    @property
    def vertex_count(self) -> int:
        return self.matrix.shape[0]

    @property
    def joint_count(self) -> int:
        return self.matrix.shape[1]

    def require_fits(self, mesh: Mesh, s: Skeleton) -> None:
        """Raise ValueError unless rows are mesh vertices and columns joints."""
        want = (mesh.vertex_count, s.joint_count)
        if self.matrix.shape != want:
            raise ValueError(
                f"weights are {self.matrix.shape}, not (mesh vertices, joints) = {want}"
            )


@dataclass(frozen=True)
class Rig:
    """A skeleton bundled with optional skinning weights (rig JSON contents)."""

    skeleton: Skeleton
    weights: SkinWeights | None = None


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


def validate_skeleton(s: Skeleton) -> tuple[ValidationIssue, ...]:
    """Check structural invariants; return every violation found, in order.

    An empty tuple means: exactly one root, all parent indices in range,
    no self-parenting, no cycles, finite coordinates, and at most
    ``MAX_JOINTS`` joints.  The issues are computed on first use and kept
    with the value, so checking one skeleton again costs nothing.
    """
    return s._issues


def require_valid(s: Skeleton) -> None:
    """Raise InvalidSkeletonError, one ``code: message`` line per issue;
    reads the issues :func:`validate_skeleton` keeps with the value."""
    if s._issues:
        raise InvalidSkeletonError("\n".join(f"{i.code}: {i.message}" for i in s._issues))


def _skeleton_issues(joints: np.ndarray, parents: np.ndarray) -> tuple[ValidationIssue, ...]:
    """The work behind :func:`validate_skeleton`, once per skeleton."""
    issues: list[ValidationIssue] = []
    j = parents.shape[0]
    if j == 0:
        return (ValidationIssue("empty", "skeleton has no joints"),)
    if j > MAX_JOINTS:
        issues.append(
            ValidationIssue("joint-cap", f"{j} joints exceeds cap of {MAX_JOINTS}")
        )
    if not np.all(np.isfinite(joints)):
        issues.append(
            ValidationIssue("non-finite", "joint coordinates contain NaN or Inf")
        )

    roots = np.flatnonzero(parents == ROOT_PARENT)
    if roots.size == 0:
        issues.append(ValidationIssue("no-root", "no joint has the root sentinel"))
    elif roots.size > 1:
        issues.append(
            ValidationIssue(
                "multiple-roots",
                f"joints {roots.tolist()} all claim to be root; "
                "connected single-tree skeletons are required",
            )
        )

    linked = (parents >= 0) & (parents < j)
    dangling = np.flatnonzero(~linked & (parents != ROOT_PARENT))
    if dangling.size:
        issues.append(
            ValidationIssue(
                "dangling-parent",
                f"joints {dangling.tolist()} reference parents outside [0, {j})",
            )
        )

    # Every joint whose parent chain ends reaches the sink; the rest are
    # trapped in a cycle or on a chain that leads into one.
    hop, _ = _climb(parents)
    in_cycle = np.flatnonzero(hop[:j] != j)
    if in_cycle.size:
        issues.append(
            ValidationIssue(
                "cycle", f"parent links of joints {in_cycle.tolist()} form a cycle"
            )
        )
    return tuple(issues)


def _climb(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling up the parent links: (hop, dist), length j + 1.

    A link to the root sentinel or out of range goes to a sink at index j
    and counts 0 hops, any other link 1.  After 2^r >= j rounds, hop[k] is
    the sink for every joint k whose parent chain ends, and dist[k] is its
    hop count to the root.
    """
    j = parents.shape[0]
    linked = (parents >= 0) & (parents < j)
    hop = np.append(np.where(linked, parents, j), j)
    dist = np.append(linked, False).astype(np.int64)
    reach = 1
    while reach < j:
        dist += dist[hop]
        hop = hop[hop]
        reach *= 2
    return hop, dist


def joint_depths(parents: np.ndarray) -> np.ndarray:
    """Hops from the root for every joint.

    Raises InvalidSkeletonError for a link outside [-1, j) and for a joint
    whose parent chain never reaches a root (a cycle, or a chain into one).
    """
    j = parents.shape[0]
    outside = (parents < ROOT_PARENT) | (parents >= j)
    if outside.any():
        raise InvalidSkeletonError(
            f"joints {np.flatnonzero(outside).tolist()} link outside [-1, {j})")
    hop, dist = _climb(parents)
    trapped = hop[:j] != j
    if trapped.any():
        raise InvalidSkeletonError(
            f"joints {np.flatnonzero(trapped).tolist()} never reach a root")
    return dist[:-1]


class _FkSchedule(NamedTuple):
    """What forward kinematics needs of a skeleton's tree, all read-only.

    The root motion is joint j, parent of the root, so ``parents`` gives
    the root's parent as j.  ``levels`` lists the joints below j by depth,
    root first, as (joints, their parents, whether those parents are
    distinct); an index that runs contiguous and ascending is a slice, so
    FK composes through views, otherwise an int64 array.
    ``ancestors[b, k]`` holds when k is b or lies above it, so column j is
    all True and ``ancestors[:j].T`` is the subtree matrix.
    """

    centres: np.ndarray  # (j + 1, 3): rest joints, then the root's rest position
    parents: np.ndarray  # (j,) int64
    levels: tuple[tuple[slice | np.ndarray, slice | np.ndarray, bool], ...]
    ancestors: np.ndarray  # (j + 1, j + 1) bool


def _as_slice(idx: np.ndarray) -> slice | np.ndarray:
    """``idx`` as a slice if it runs contiguous and ascending, else read-only."""
    if np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    idx.setflags(write=False)
    return idx


def _build_fk_schedule(joints: np.ndarray, parents: np.ndarray) -> _FkSchedule:
    """Depth levels of the tree with the root motion added; assumes a tree."""
    j = parents.shape[0]
    root = int(np.flatnonzero(parents == ROOT_PARENT)[0])
    centres = np.concatenate([joints, joints[root, None]])
    centres.setflags(write=False)
    depths = joint_depths(parents)
    parents = np.where(parents == ROOT_PARENT, j, parents)
    parents.setflags(write=False)
    levels = []
    for d in range(int(depths.max()) + 1):
        idx = np.flatnonzero(depths == d)
        par = parents[idx]
        distinct = len(set(par.tolist())) == par.size
        levels.append((_as_slice(idx), _as_slice(par), distinct))
    ancestors = np.eye(j + 1, dtype=bool)
    for idx, par, _ in levels:  # parents before children
        ancestors[idx] |= ancestors[par]
    ancestors.setflags(write=False)
    return _FkSchedule(centres, parents, tuple(levels), ancestors)


def graph_distance_matrix(s: Skeleton) -> np.ndarray:
    """Pairwise hop counts (bone counts) along the joint tree, int64.

    With anc[a, c] = 1 when c is a or one of its ancestors (the FK
    schedule's table), a row sums to depth(a) + 1 and anc @ anc.T counts
    the common ancestors of a and b, depth(lca(a, b)) + 1, so d(a, b) =
    depth(a) + depth(b) - 2 * depth(lca(a, b)).
    """
    require_valid(s)
    anc = s._fk_schedule.ancestors[:-1, :-1].astype(np.int64)
    depths = anc.sum(axis=1) - 1
    return depths[:, None] + depths[None, :] - 2 * (anc @ anc.T - 1)


def spatial_order(s: Skeleton) -> np.ndarray:
    """Global joint order ascending by (z, y, x), ties kept in original order.

    The order ignores the tree, so a child can precede its parent; token
    streams produced under it are generally not causally decodable.
    """
    z, y, x = s.joints[:, 2], s.joints[:, 1], s.joints[:, 0]
    return np.lexsort((np.arange(s.joint_count), x, y, z))


def hierarchical_order(s: Skeleton) -> np.ndarray:
    """Breadth-first joint order, spatially sorted within each depth level.

    Root first; every joint appears after its parent; among joints at the
    same depth the order is ascending by (z, y, x) with original index as
    the final tie-break.
    """
    require_valid(s)
    depths = joint_depths(s.parents)
    z, y, x = s.joints[:, 2], s.joints[:, 1], s.joints[:, 0]
    return np.lexsort((np.arange(s.joint_count), x, y, z, depths))


def _require_json_type(value, kind: type, what: str) -> list:
    """``value`` unchanged if it is a list of ``kind`` (int, bool or str).

    JSON parses to exact Python types, so a 0.9, a "1" or a true read where
    an integer belongs, a 0.3 where a boolean belongs, a 1 where a string
    belongs, or a scalar (a string too) where a list belongs, raises
    ValueError instead of being cast.  An empty list passes.
    """
    if not (isinstance(value, list) and all(type(x) is kind for x in value)):
        noun = {int: "integers", bool: "booleans", str: "strings"}[kind]
        raise ValueError(f"{what} must be a list of JSON {noun}")
    return value


def _require_json_floats(value, what: str) -> np.ndarray:
    """``value`` as a float64 array if it is a JSON number or nested lists of
    them; a "0.5", true or null raises ValueError instead of being cast.
    Each nesting level is checked in one pass over its items."""
    level = [value]
    while True:
        kinds = set(map(type, level))
        if kinds == {list}:
            level = list(chain.from_iterable(level))
        elif kinds <= {int, float}:
            return np.asarray(value, dtype=np.float64)
        else:
            raise ValueError(f"{what} must be a JSON number or nested lists of numbers")


def bone_segments(s: Skeleton) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bone endpoint arrays (starts, ends) plus the child joint index per bone.

    A bone is the segment from a non-root joint's parent to the joint itself.
    """
    child = np.flatnonzero(s.parents != ROOT_PARENT)
    starts = s.joints[s.parents[child]]
    ends = s.joints[child]
    return starts, ends, child


# ---------------------------------------------------------------------------
# Rig JSON
# ---------------------------------------------------------------------------


def rig_to_dict(rig: Rig) -> dict:
    data: dict = {
        "joints": rig.skeleton.joints.tolist(),
        "parents": rig.skeleton.parents.tolist(),
    }
    if rig.skeleton.names is not None:
        data["names"] = list(rig.skeleton.names)
    if rig.weights is not None:
        data["weights"] = rig.weights.matrix.tolist()
    return data


def rig_from_dict(data: dict) -> Rig:
    """The rig a parsed rig JSON holds; ``parents`` must be a JSON list."""
    if not isinstance(data, dict) or "joints" not in data or "parents" not in data:
        raise ValueError("rig JSON requires 'joints' and 'parents'")
    names = None
    if "names" in data:
        names = tuple(_require_json_type(data["names"], str, "names"))
    skeleton = Skeleton(_require_json_floats(data["joints"], "joints"),
                        _require_json_type(data["parents"], int, "parents"),
                        names)
    weights = None
    if "weights" in data and data["weights"] is not None:
        matrix = _require_json_floats(data["weights"], "weights")
        if matrix.ndim != 2 or matrix.shape[1] != skeleton.joint_count:
            raise ValueError("weights must be (vertices, joints)")
        weights = SkinWeights(matrix)
    return Rig(skeleton, weights)


def save_rig(path: str | Path, rig: Rig) -> None:
    Path(path).write_text(canonical_json(rig_to_dict(rig)))


def load_rig(path: str | Path) -> Rig:
    return rig_from_dict(json.loads(Path(path).read_text()))


def canonical_json(data) -> str:
    """Serialize with sorted keys and round-trip float formatting so equal
    inputs always produce byte-identical files.

    The text is ``json.dumps(data, sort_keys=True, indent=1) + "\\n"`` byte
    for byte, and a value that call refuses raises its exception type.  With
    an indent that call formats every number in json's pure-Python encoder
    (on Python 3.11), so here json's C encoder renders every list of
    scalars, and every list of such rows, in one call, and only the
    brackets, the indents and the dict keys are laid out in Python.
    """
    return _layout(data, "\n") + "\n"


_SCALARS = frozenset({str, int, float, bool, type(None)})
# json's C encoder; it writes a list of scalars as "[a\nb\n...]".
_encode = json.JSONEncoder(separators=("\n", ":")).encode


def _texts(scalars) -> list[str]:
    """Each of ``scalars`` as json writes it, from one call of json's C
    encoder; JSON text never holds a raw newline, so the split is exact."""
    return _encode(scalars)[1:-1].split("\n")


def _layout(value, nl: str) -> str:
    """``value`` as :func:`canonical_json` writes it, where ``nl`` is a
    newline and the indent of the line ``value`` starts on."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + " "
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            items = _texts(value)
        elif kinds <= {list, tuple} and _SCALARS.issuperset(
                map(type, flat := list(chain.from_iterable(value)))):
            items = _rows(value, _texts(flat), inner)
        else:
            items = [_layout(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = nl + " "
        items = [_key(k) + ": " + _layout(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(value)


def _rows(rows, texts: list[str], nl: str) -> list[str]:
    """Each of ``rows`` laid out from ``texts``, its scalars' texts in order,
    where ``nl`` is a newline and the indent of the lines the rows start on."""
    inner = nl + " "
    out, start = [], 0
    for row in rows:
        stop = start + len(row)
        out.append("[" + inner + ("," + inner).join(texts[start:stop]) + nl + "]"
                   if row else "[]")
        start = stop
    return out


def _key(key) -> str:
    """A dict key as json writes it: a number, bool or None as its JSON text,
    then every key as a JSON string."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)
