"""Skeleton token codec: quantization, serialization schemes, group shuffling.

Vocabulary layout (203 entries total):

====================  =========  ==========================================
range                 meaning    notes
====================  =========  ==========================================
0 .. 127              coordinate 128-bin quantized axis value
128                   BOS        start of skeleton payload
129                   EOS        end of skeleton payload
130                   PAD        batch padding, never inside a payload
131                   SHAPE      opaque shape-conditioning placeholder
132 .. 202            parent     parent slot p encodes offset index p - 132
====================  =========  ==========================================

Parent tokens store the parent's position in the emission order offset by
+1, with 0 reserved for "this joint is the root"; detokenization subtracts
the offset again.  With the 70-joint cap, offsets occupy [0, 70].

The joint-based scheme spends 4 tokens per joint (three quantized
coordinates plus one parent token, 4j total); the bone-based scheme spends
6 per bone (both quantized endpoints, 6b total).  A tree satisfies
j = b + 1, so the joint-based payload is strictly shorter whenever j > 3.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    InvalidValueError,
    MAX_JOINTS,
    ROOT_PARENT,
    Skeleton,
    _frozen,
    _require_finite,
    _require_int,
    _require_integers,
    _require_real,
    hierarchical_order,
    require_valid,
)

COORD_BINS = 128
BOS = 128
EOS = 129
PAD = 130
SHAPE_PLACEHOLDER = 131
PARENT_BASE = 132
PARENT_SLOTS = MAX_JOINTS + 1
VOCAB_SIZE = PARENT_BASE + PARENT_SLOTS  # 203

NO_INDICATOR = -1
_I16_MAX = np.iinfo(np.int16).max

SCHEME_JOINT = "joint_based"
SCHEME_BONE = "bone_based"
_SCHEME_IDS = {SCHEME_JOINT: 0, SCHEME_BONE: 1}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_IDS.items()}

_MAGIC = b"PTKN"
_VERSION = 1


@dataclass(frozen=True)
class TokenSequence:
    """Token ids plus an aligned stream of positional-indicator ids.

    ``indicators[i]`` names the joint group (by original hierarchical
    index) announced at position i, or ``NO_INDICATOR``.  Fresh output from
    the tokenizers carries no indicators; :func:`randomize_groups` assigns
    them.
    """

    tokens: np.ndarray
    indicators: np.ndarray
    scheme: str

    def __post_init__(self):
        if self.indicators is None:
            object.__setattr__(self, "indicators", np.full(np.shape(self.tokens), NO_INDICATOR))
        tokens, indicators = _frozen(self, tokens=np.int64, indicators=np.int64)
        if tokens.ndim != 1:
            raise ValueError("tokens must be 1-d")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= VOCAB_SIZE):
            raise ValueError(f"token ids must lie in [0, {VOCAB_SIZE})")
        if indicators.shape != tokens.shape:
            raise ValueError("indicators must align 1:1 with tokens")
        # Token files store indicators as int16.
        if indicators.size and (indicators.min() < NO_INDICATOR or indicators.max() > _I16_MAX):
            raise ValueError(f"indicators must lie in [{NO_INDICATOR}, {_I16_MAX}]")
        if self.scheme not in _SCHEME_IDS:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def __len__(self) -> int:
        return self.tokens.shape[0]


def quantize_coords(coords: np.ndarray) -> np.ndarray:
    """Map coordinates in [-0.5, 0.5] onto 128 bins; out-of-range clamps."""
    coords = np.asarray(coords, dtype=np.float64)
    _require_finite("coordinates must be finite", coords)
    bins = np.floor((coords + 0.5) * COORD_BINS)
    return np.clip(bins, 0, COORD_BINS - 1).astype(np.int64)


def dequantize_coords(bins: np.ndarray) -> np.ndarray:
    """Bin centers: the round-trip error is at most 1/256 per axis."""
    bins = _require_integers("bins", bins)
    if bins.size and (np.min(bins) < 0 or np.max(bins) >= COORD_BINS):
        raise ValueError(f"bins must lie in [0, {COORD_BINS})")
    return (bins.astype(np.float64) + 0.5) / COORD_BINS - 0.5


def _check_order(s: Skeleton, order) -> np.ndarray:
    if order is None:
        return hierarchical_order(s)
    order = _require_integers("order", order)
    if sorted(order.tolist()) != list(range(s.joint_count)):
        raise ValueError("order must be a permutation of all joint indices")
    return order.astype(np.int64, copy=False)


def _framed(payload: np.ndarray, shape_tokens: int) -> np.ndarray:
    """BOS, ``shape_tokens`` shape placeholders, the raveled payload, EOS."""
    _require_int(shape_tokens, "shape_tokens", 0)
    return np.concatenate(
        ([BOS], np.full(shape_tokens, SHAPE_PLACEHOLDER), payload.ravel(), [EOS])
    )


def tokenize_joint_based(
    s: Skeleton,
    order: np.ndarray | None = None,
    *,
    shape_tokens: int = 0,
    require_causal: bool = True,
) -> TokenSequence:
    """Serialize joints as [BOS, shape..., (x, y, z, parent) per joint, EOS].

    The payload is the (j, 4) group array: row m holds the quantized
    coordinates of joint ``order[m]`` and its parent token.  The parent
    token stores the parent's position in the emission order (offset by
    +1; 0 means root).  With ``require_causal`` the order must put every
    parent before its children, the property that makes the stream
    decodable one group at a time; pass False to serialize non-causal
    orders (e.g. a pure spatial sort) anyway and let the detokenizer report
    the damage.
    """
    require_valid(s)
    order = _check_order(s, order)
    parent = s.parents[order]
    offset = np.where(parent == ROOT_PARENT, 0, np.argsort(order)[parent] + 1)
    groups = np.column_stack((quantize_coords(s.joints[order]), PARENT_BASE + offset))
    tokens = _framed(groups, shape_tokens)
    # Group m is causal when its parent's position, offset - 1, is below m.
    late = offset > np.arange(s.joint_count)
    if require_causal and late.any():
        m = int(np.argmax(late))
        raise ValueError(
            f"order places joint {order[m]} before its parent {parent[m]}; "
            "not causally decodable"
        )
    return TokenSequence(tokens, None, SCHEME_JOINT)


def tokenize_bone_based(
    s: Skeleton, order: np.ndarray | None = None, *, shape_tokens: int = 0
) -> TokenSequence:
    """Serialize bones as 6 coordinate tokens each (parent end, child end).

    Bones follow the given joint order restricted to non-root joints.
    Connectivity is implicit in shared endpoints, which is what makes this
    form 6b tokens long against 4j = 4(b+1) for the joint-based scheme.
    """
    require_valid(s)
    order = _check_order(s, order)
    child = order[s.parents[order] != ROOT_PARENT]
    ends = np.stack((s.joints[s.parents[child]], s.joints[child]), axis=1)
    return TokenSequence(_framed(quantize_coords(ends), shape_tokens), None, SCHEME_BONE)


def _split_payload(t: TokenSequence) -> tuple[int, np.ndarray, list[str]]:
    """Return (payload start, payload tokens, diagnostics); skips BOS and
    shape placeholders, stops at EOS."""
    diagnostics: list[str] = []
    toks = t.tokens
    if toks.size == 0:
        raise ValueError("empty token stream")
    if toks[0] != BOS:
        raise ValueError("token stream must start with BOS")
    i = 1
    while i < toks.size and toks[i] == SHAPE_PLACEHOLDER:
        i += 1
    end = toks.size
    eos_hits = np.flatnonzero(toks == EOS)
    if eos_hits.size == 0:
        diagnostics.append("missing EOS")
    else:
        end = int(eos_hits[0])
        if np.any(toks[end + 1:] != PAD):
            diagnostics.append("trailing tokens after EOS")
    payload = toks[i:end]
    if np.any(payload == PAD):
        diagnostics.append("padding token inside payload")
        payload = payload[payload != PAD]
    return i, payload, diagnostics


def detokenize_joint_based(t: TokenSequence) -> tuple[Skeleton, list[str]]:
    """Decode a joint-based stream back into a skeleton.

    Returns the skeleton (joints in emission order) and a diagnostic list.
    Recoverable damage is flagged rather than raised: a payload that is not
    a multiple of 4, parent references to positions not yet emitted
    (decoded as extra roots, leaving the skeleton disconnected), and a
    missing EOS.  The caller decides whether diagnostics are fatal.
    """
    if t.scheme != SCHEME_JOINT:
        raise ValueError(f"expected {SCHEME_JOINT} stream, got {t.scheme}")
    _, payload, diagnostics = _split_payload(t)
    if payload.size < 4:
        raise ValueError("token stream has no joint payload")
    n_groups = payload.size // 4
    if payload.size % 4 != 0:
        diagnostics.append(
            f"payload length {payload.size} is not a multiple of 4; "
            f"trailing {payload.size % 4} token(s) dropped"
        )
    groups = payload[: 4 * n_groups].reshape(n_groups, 4)
    offset = groups[:, 3] - PARENT_BASE
    bad_coord = np.any(groups[:, :3] >= COORD_BINS, axis=1)
    bad_slot = (offset < 0) | (offset >= PARENT_SLOTS)
    late = offset > np.arange(n_groups)
    for m in np.flatnonzero(bad_coord | bad_slot | late):
        if bad_coord[m]:
            diagnostics.append(f"group {m}: non-coordinate token in coordinate slot")
        if bad_slot[m]:
            diagnostics.append(f"group {m}: parent slot holds token {groups[m, 3]}")
        elif late[m]:
            diagnostics.append(
                f"group {m}: parent reference {offset[m] - 1} not yet emitted; "
                "joint left disconnected"
            )
    joints = dequantize_coords(np.minimum(groups[:, :3], COORD_BINS - 1))
    # A root's offset 0 decodes to position -1, which is ROOT_PARENT.
    parents = np.where(bad_slot | late, ROOT_PARENT, offset - 1)
    return Skeleton(joints, parents), diagnostics


def detokenize_bone_based(t: TokenSequence) -> tuple[Skeleton, list[str]]:
    """Decode a bone-based stream by stitching shared quantized endpoints.

    Joints are keyed by their quantized coordinates; the first endpoint of
    the first bone becomes the root.  Bones whose parent endpoint has not
    appeared before are flagged and attached as extra roots.
    """
    if t.scheme != SCHEME_BONE:
        raise ValueError(f"expected {SCHEME_BONE} stream, got {t.scheme}")
    _, payload, diagnostics = _split_payload(t)
    if payload.size < 6:
        raise ValueError("token stream has no bone payload")
    if payload.size % 6 != 0:
        diagnostics.append(
            f"payload length {payload.size} is not a multiple of 6; "
            f"trailing {payload.size % 6} token(s) dropped"
        )
    if np.any(payload >= COORD_BINS):
        raise ValueError("bone-based payload must contain only coordinate tokens")
    n_bones = payload.size // 6
    # Joint id by quantized endpoint, in first-seen order.
    index: dict[tuple[int, int, int], int] = {}
    parents: list[int] = []

    def joint_id(key: tuple[int, int, int], parent: int) -> int:
        if key not in index:
            index[key] = len(parents)
            parents.append(parent)
        return index[key]

    bones = payload[: 6 * n_bones].reshape(n_bones, 2, 3).tolist()
    for m, (head, tail) in enumerate(bones):
        head, tail = tuple(head), tuple(tail)
        if m > 0 and head not in index:
            diagnostics.append(
                f"bone {m}: parent endpoint unseen; attached as extra root"
            )
        h = joint_id(head, ROOT_PARENT)
        if joint_id(tail, h) == h:
            diagnostics.append(f"bone {m}: zero-length bone collapsed")
    joints = dequantize_coords(np.array(list(index)))
    return Skeleton(joints, np.array(parents, dtype=np.int64)), diagnostics


# ---------------------------------------------------------------------------
# Randomized group order
# ---------------------------------------------------------------------------


def _payload_groups(t: TokenSequence) -> tuple[int, np.ndarray]:
    """Locate the joint groups: returns (payload start, (n, 4) group array)."""
    if t.scheme != SCHEME_JOINT:
        raise ValueError("group shuffling applies to joint-based streams")
    start, payload, diagnostics = _split_payload(t)
    if diagnostics:
        raise ValueError(f"stream not shuffle-safe: {diagnostics}")
    if payload.size == 0 or payload.size % 4 != 0:
        raise ValueError("payload must be a whole number of 4-token groups")
    return start, payload.reshape(-1, 4)


def _remap_parents(groups: np.ndarray, new_position: np.ndarray) -> np.ndarray:
    """Rewrite ``groups``' parent tokens in place for a new emission order,
    in which the group emitted at position p moves to ``new_position[p]``."""
    offset = groups[:, 3] - PARENT_BASE
    if np.any(offset < 0):
        raise ValueError("malformed parent token in joint group")
    if np.any(offset > len(groups)):
        raise ValueError("parent token points past the last joint group")
    nonroot = offset > 0
    groups[nonroot, 3] = PARENT_BASE + new_position[offset[nonroot] - 1] + 1
    return groups


def randomize_groups(t: TokenSequence, seed: int, r: float) -> TokenSequence:
    """With probability ``r``, shuffle whole joint groups; assign indicators.

    Every token before the first group (BOS plus any shape placeholders)
    carries the indicator of the first emitted group; each group except the
    last carries the indicator of the group emitted after it; the last
    group and EOS carry the none sentinel.  Indicator values are original
    hierarchical group indices, so r = 0 yields the sequential ladder
    1, 2, ..., and de-shuffling by indicators is always the identity on
    the payload.

    Shuffling permutes the rows of the (j, 4) group array.  Parent tokens
    are rewritten against the new emission positions, so a shuffled
    payload may refer forward to a parent emitted later.
    """
    _require_real(r, "r")
    if not 0.0 <= r <= 1.0:
        raise InvalidValueError("r must lie in [0, 1]")
    _require_int(seed, "seed", 0)
    start, groups = _payload_groups(t)
    end = start + groups.size

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(groups)) if rng.random() < r else np.arange(len(groups))

    tokens = t.tokens.copy()
    tokens[start:end] = _remap_parents(groups[perm], np.argsort(perm)).ravel()
    indicators = np.full(tokens.shape, NO_INDICATOR, dtype=np.int64)
    indicators[:start] = perm[0]
    indicators[start:end - 4] = np.repeat(perm[1:], 4)
    return TokenSequence(tokens, indicators, t.scheme)


def unshuffle_groups(t: TokenSequence) -> TokenSequence:
    """Invert :func:`randomize_groups` using the indicator stream."""
    start, groups = _payload_groups(t)
    end = start + groups.size

    perm = np.concatenate((t.indicators[:1], t.indicators[start:end - 4:4]))
    if sorted(perm.tolist()) != list(range(len(groups))):
        raise ValueError("indicator stream does not spell a permutation")

    tokens = t.tokens.copy()
    tokens[start:end] = _remap_parents(groups[np.argsort(perm)], perm).ravel()
    return TokenSequence(tokens, None, t.scheme)


def permutation_probability(epoch: float, total_epochs: float) -> float:
    """Shuffle-probability schedule over a training run of ``total_epochs``.

    Constant 1 for the first half, linear decay to 0 across the third
    quarter, constant 0 for the final quarter.  Both arguments must be finite.
    """
    _require_real(epoch, "epoch", 0, False)
    _require_real(total_epochs, "total_epochs", 0, True)
    if epoch > total_epochs:
        raise ValueError(f"epoch must lie in [0, {total_epochs}]")
    if epoch <= total_epochs / 2:
        return 1.0
    if epoch <= 3 * total_epochs / 4:
        return 1.0 - (epoch - total_epochs / 2) / (total_epochs / 4)
    return 0.0


# ---------------------------------------------------------------------------
# Token files
# ---------------------------------------------------------------------------


def write_token_file(path: str | Path, t: TokenSequence) -> None:
    """Binary layout: magic 'PTKN', version u16, scheme u8, count u32,
    tokens u16[count], indicators i16[count]; little-endian throughout."""
    count = len(t)
    header = struct.pack("<4sHBI", _MAGIC, _VERSION, _SCHEME_IDS[t.scheme], count)
    body = t.tokens.astype("<u2").tobytes() + t.indicators.astype("<i2").tobytes()
    Path(path).write_bytes(header + body)


def read_token_file(path: str | Path) -> TokenSequence:
    raw = Path(path).read_bytes()
    head = struct.calcsize("<4sHBI")
    if len(raw) < head:
        raise ValueError("token file truncated")
    magic, version, scheme_id, count = struct.unpack("<4sHBI", raw[:head])
    if magic != _MAGIC:
        raise ValueError("not a token file (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported token file version {version}")
    if scheme_id not in _SCHEME_NAMES:
        raise ValueError(f"unknown scheme id {scheme_id}")
    expected = head + count * 2 * 2
    if len(raw) != expected:
        raise ValueError(
            f"token file length {len(raw)} does not match count {count}"
        )
    tokens = np.frombuffer(raw, dtype="<u2", count=count, offset=head)
    indicators = np.frombuffer(raw, dtype="<i2", count=count, offset=head + 2 * count)
    return TokenSequence(tokens, indicators, _SCHEME_NAMES[scheme_id])


def format_token_text(t: TokenSequence) -> str:
    """Plain-text dump, one 'token indicator' pair per line."""
    lines = [f"{int(tok)} {int(ind)}" for tok, ind in zip(t.tokens, t.indicators)]
    return "\n".join(lines) + "\n"
