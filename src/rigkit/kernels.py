"""Attention and skinning kernels with exact hand-derived gradients.

Shape conventions: attention operands are batched per head as (h, n, d);
the skeleton-distance bias table is (levels, h) and expands to an (n, n, h)
bias; point/bone feature matrices are (n, d) and (j, d).

Leading batch axes: every float operand of a forward kernel may carry
them.  ``topology_aware_attention`` and ``reference_attention`` take q, k,
v as (..., h, n, d), the bias as (..., n, n, h) and lam as (...);
``distance_embedding`` expands a (..., levels, h) table to (..., n, n, h);
``skinning_head`` takes (..., n, d), (..., j, d) and alpha as (...); the
cross-entropy pair takes (..., length, vocab) logits.  The leading axes
broadcast (a ``ValueError`` names the operands whose axes do not), while
the distance matrix, targets and mask are shared.  A stack is validated
once, with the unbatched checks and messages, and each of its rows is
bitwise the unbatched call on that row.  The ``*_vjp`` routines take
unbatched operands only: they run their forward kernel's checks, then
refuse a leading axis on any operand and an upstream gradient whose shape
is not the forward output's.

The integer operands, hop counts and targets, and the 0/1 mask are never
cast: they go through core's integer and 0/1 rules, so a NaN or Inf raises
``NonFiniteError`` and a fraction (or a mask entry other than 0 or 1)
``ValueError``, while integer-valued floats pass.

These kernels are the numeric core of a skinning predictor whose wiring
is: bone tokens attend over themselves with the graph-distance bias, pick
up global context from a shape encoding by cross-attention, exchange
features with surface points in both directions, and a cosine-similarity
head finally converts point and bone features into per-vertex skinning
distributions.  Only the kernels live here; stacking them into trained
blocks is out of scope.

Every kernel has a companion ``*_vjp`` / ``*_grad`` routine returning
exact gradients; the test-suite checks them against central finite
differences at double precision.  The cross-entropy check validates its
instance once, through ``next_token_cross_entropy_grad``, and then
differentiates the unchecked ``_ce_core`` over stacks of that instance.
The core reads only the rows the mask keeps: it gathers them before any
arithmetic, so masked-out rows cost nothing and their values never matter.
"""

from __future__ import annotations

import numpy as np

from .codec import VOCAB_SIZE
from .core import _require_bools, _require_broadcast, _require_finite, _require_integers

COSINE_NORM_EPS = 1e-12


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _softmax_vjp(p: np.ndarray, grad_p: np.ndarray) -> np.ndarray:
    # For p = softmax(z):  g_z = p * (g_p - sum(g_p * p))
    inner = np.sum(grad_p * p, axis=-1, keepdims=True)
    return p * (grad_p - inner)


# ---------------------------------------------------------------------------
# Graph-distance bias
# ---------------------------------------------------------------------------


def _check_distances(distances, values):
    """The (n, n) hop counts clamped to the table's last level, and the table."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 2 or values.shape[-2] < 1:
        raise ValueError("table values must be (levels, heads)")
    _require_finite("distance table contains NaN or Inf", values)
    d = np.asarray(distances)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    d = _require_integers("distance matrix", d)
    if d.size and d.min() < 0:
        raise ValueError("graph distances must be non-negative")
    return np.minimum(d, values.shape[-2] - 1).astype(np.int64), values


def distance_embedding(distances: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Expand a (n, n) hop-count matrix into an (..., n, n, heads) bias.

    values[..., l, h] is the bias for token pairs l bones apart on the
    skeleton; pairs farther apart share the last level's entry.
    """
    levels, values = _check_distances(distances, values)
    return values[..., levels, :]


def distance_embedding_vjp(
    distances: np.ndarray, values: np.ndarray, grad_bias: np.ndarray
) -> np.ndarray:
    """Gradient of the table values: scatter-add over clamped levels."""
    levels, values = _check_distances(distances, values)
    if values.ndim != 2:
        raise ValueError("table values must be (levels, heads) with no leading axes")
    heads = values.shape[-1]
    grad_bias = np.asarray(grad_bias, dtype=np.float64)
    if grad_bias.shape != levels.shape + (heads,):
        raise ValueError("grad_bias shape must be (n, n, heads)")
    grad_values = np.zeros_like(values)
    np.add.at(grad_values, levels.ravel(), grad_bias.reshape(-1, heads))
    return grad_values


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------


def _attention_core(q, k, v, bias):
    d_k = q.shape[-1]
    logits = np.einsum("...hid,...hjd->...hij", q, k) / np.sqrt(d_k)
    if bias is not None:
        logits = logits + bias
    attn = _softmax(logits)
    out = np.einsum("...hij,...hjd->...hid", attn, v)
    return out, attn


def _check_qkv(q, k, v):
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim < 3 or k.shape[-3:] != q.shape[-3:] or v.shape[-3:] != q.shape[-3:]:
        raise ValueError("q, k, v must share shape (heads, n, d)")
    for name, a in (("q", q), ("k", k), ("v", v)):
        _require_finite(f"{name} contains NaN or Inf", a)
    return q, k, v


def reference_attention(q, k, v) -> tuple[np.ndarray, np.ndarray]:
    """Plain scaled dot-product attention; returns (output, attention maps)."""
    q, k, v = _check_qkv(q, k, v)
    _require_broadcast({"q": q.shape[:-3], "k": k.shape[:-3], "v": v.shape[:-3]})
    return _attention_core(q, k, v, None)


def topology_aware_attention(
    q, k, v, bias: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Attention with an additive skeleton-distance bias on the logits.

    softmax(q k^T / sqrt(d) + lam * bias) v, per head.  ``bias`` is the
    (..., n, n, heads) output of :func:`distance_embedding`.  With lam = 0
    the result is bitwise identical to :func:`reference_attention`.
    """
    q, k, v = _check_qkv(q, k, v)
    bias = np.asarray(bias, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    h, n, _ = q.shape[-3:]
    if bias.shape[-3:] != (n, n, h):
        raise ValueError(f"bias must be (n, n, heads)=({n},{n},{h})")
    _require_broadcast({"q": q.shape[:-3], "k": k.shape[:-3], "v": v.shape[:-3],
                        "bias": bias.shape[:-3], "lam": lam.shape})
    _require_finite("bias contains NaN or Inf", bias)
    _require_finite("lam must be finite", lam)
    return _attention_core(q, k, v, lam[..., None, None, None] * np.moveaxis(bias, -1, -3))


def topology_aware_attention_vjp(
    q, k, v, bias: np.ndarray, lam: float, grad_out: np.ndarray
):
    """Gradients of the attention output wrt (q, k, v, bias, lam)."""
    if any(np.ndim(a) != 3 for a in (q, k, v)):
        raise ValueError("q, k, v must share shape (heads, n, d)")
    if np.ndim(bias) != 3:
        raise ValueError("bias must be (n, n, heads) with no leading axes")
    if np.ndim(lam) != 0:
        raise ValueError("lam must be a scalar")
    _, attn = topology_aware_attention(q, k, v, bias, lam)
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != q.shape:
        raise ValueError(f"grad_out must be (heads, n, d)={q.shape}")
    scale = 1.0 / np.sqrt(q.shape[-1])

    grad_v = np.einsum("hij,hid->hjd", attn, grad_out)
    grad_attn = np.einsum("hid,hjd->hij", grad_out, v)
    grad_logits = _softmax_vjp(attn, grad_attn)
    grad_q = np.einsum("hij,hjd->hid", grad_logits, k) * scale
    grad_k = np.einsum("hij,hid->hjd", grad_logits, q) * scale
    grad_bias = float(lam) * np.transpose(grad_logits, (1, 2, 0))
    grad_lam = float(np.sum(grad_logits * np.transpose(bias, (2, 0, 1))))
    return grad_q, grad_k, grad_v, grad_bias, grad_lam


# ---------------------------------------------------------------------------
# Skinning head
# ---------------------------------------------------------------------------


def _check_skinning(point_features, bone_features, alpha):
    p = np.asarray(point_features, dtype=np.float64)
    b = np.asarray(bone_features, dtype=np.float64)
    if p.ndim < 2 or b.ndim < 2 or p.shape[-1] != b.shape[-1]:
        raise ValueError("features must be (n, d) and (j, d) with shared d")
    alpha = np.asarray(alpha, dtype=np.float64)
    _require_broadcast({"point features": p.shape[:-2], "bone features": b.shape[:-2],
                        "alpha": alpha.shape})
    _require_finite("point features contains NaN or Inf", p)
    _require_finite("bone features contains NaN or Inf", b)
    _require_finite("alpha must be finite", alpha)
    return p, b, alpha


def _skinning_core(p, b, alpha):
    """Weights, cosines and the two guarded norms of :func:`skinning_head`."""
    np_g = np.linalg.norm(p, axis=-1) + COSINE_NORM_EPS
    nb_g = np.linalg.norm(b, axis=-1) + COSINE_NORM_EPS
    cos = (p @ np.swapaxes(b, -1, -2)) / (np_g[..., :, None] * nb_g[..., None, :])
    return _softmax(alpha[..., None, None] * cos), cos, np_g, nb_g


def skinning_head(
    point_features: np.ndarray, bone_features: np.ndarray, alpha: float
) -> np.ndarray:
    """Per-vertex skinning distribution from feature cosine similarity.

    W[v] = softmax over joints of alpha * cos(point v, bone j).  Norms are
    guarded with a 1e-12 epsilon so all-zero feature rows yield a uniform
    row instead of NaN.  Every output row sums to 1.
    """
    return _skinning_core(*_check_skinning(point_features, bone_features, alpha))[0]


def skinning_head_vjp(
    point_features: np.ndarray,
    bone_features: np.ndarray,
    alpha: float,
    grad_w: np.ndarray,
):
    """Gradients of the skinning distribution wrt both feature sets and alpha."""
    p, b, alpha = _check_skinning(point_features, bone_features, alpha)
    if p.ndim != 2:
        raise ValueError("point features must be (n, d) with no leading axes")
    if b.ndim != 2:
        raise ValueError("bone features must be (j, d) with no leading axes")
    if alpha.ndim != 0:
        raise ValueError("alpha must be a scalar")
    grad_w = np.asarray(grad_w, dtype=np.float64)
    if grad_w.shape != (len(p), len(b)):
        raise ValueError(f"grad_w must be (n, j)=({len(p)},{len(b)})")
    w, cos, np_g, nb_g = _skinning_core(p, b, alpha)

    grad_z = _softmax_vjp(w, grad_w)
    grad_alpha = float(np.sum(grad_z * cos))
    grad_cos = float(alpha) * grad_z

    grad_scores = grad_cos * (1.0 / np.outer(np_g, nb_g))
    grad_np = -np.sum(grad_cos * cos, axis=1) / np_g
    grad_nb = -np.sum(grad_cos * cos, axis=0) / nb_g
    # d|x| / dx is x/|x|, with |x| the guarded norm less its epsilon; zero-norm
    # rows get zero direction (their cosine is constant under the guard anyway).
    np_t, nb_t = np_g - COSINE_NORM_EPS, nb_g - COSINE_NORM_EPS
    unit_p = np.where(np_t[:, None] > 0.0, p / np.where(np_t == 0, 1, np_t)[:, None], 0.0)
    unit_b = np.where(nb_t[:, None] > 0.0, b / np.where(nb_t == 0, 1, nb_t)[:, None], 0.0)
    grad_p = grad_scores @ b + grad_np[:, None] * unit_p
    grad_b = grad_scores.T @ p + grad_nb[:, None] * unit_b
    return grad_p, grad_b, grad_alpha


# ---------------------------------------------------------------------------
# Cross entropy
# ---------------------------------------------------------------------------


def _check_ce(logits, targets, mask):
    logits = np.asarray(logits, dtype=np.float64)
    targets = _require_integers("targets", targets)
    if logits.ndim < 2 or logits.shape[-1] != VOCAB_SIZE:
        raise ValueError(f"logits must be (length, {VOCAB_SIZE})")
    length = logits.shape[-2]
    if targets.shape != (length,):
        raise ValueError("targets must align with logits rows")
    if targets.size and (targets.min() < 0 or targets.max() >= VOCAB_SIZE):
        raise ValueError("targets out of vocabulary range")
    targets = targets.astype(np.int64)
    _require_finite("logits contains NaN or Inf", logits)
    if mask is None:
        mask = np.ones(length, dtype=bool)
    else:
        mask = _require_bools("mask", mask)
        if mask.shape != (length,):
            raise ValueError("mask must align with logits rows")
    if not mask.any():
        raise ValueError("mask excludes every position")
    return logits, targets, mask


def _ce_core(logits, targets, mask):
    """Per-row losses of checked operands: int64 targets and a bool mask."""
    # Only the unmasked rows are read: they are gathered into the one
    # stack-sized temporary, which is shifted and exponentiated in place.
    rows = np.flatnonzero(mask)
    shifted = np.take(logits, rows, axis=-2)
    shifted -= np.max(shifted, axis=-1, keepdims=True)
    # The target logits are gathered before exp overwrites them.
    picked = shifted[..., np.arange(rows.size), targets[rows]]
    lse = np.log(np.sum(np.exp(shifted, out=shifted), axis=-1))
    # Contiguous rows, so each mean sums in the order of the 1-d case.
    return np.mean(np.ascontiguousarray(lse - picked), axis=-1)


def next_token_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, mask: np.ndarray | None = None
) -> float | np.ndarray:
    """Mean negative log-softmax of the target token over unmasked rows.

    Computed through a shifted log-sum-exp, so large logits do not
    overflow.  Uniform logits give log(vocab) = log(203) ~ 5.313.  A
    (length, vocab) input gives a float; leading axes give an array of them.
    """
    loss = _ce_core(*_check_ce(logits, targets, mask))
    return float(loss) if loss.ndim == 0 else loss


def next_token_cross_entropy_grad(
    logits: np.ndarray, targets: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient wrt logits: (softmax - onehot) / count on unmasked rows."""
    logits, targets, mask = _check_ce(logits, targets, mask)
    grad = _softmax(logits)
    grad[..., np.arange(targets.size), targets] -= 1.0
    grad[..., ~mask, :] = 0.0
    return grad / float(mask.sum())
