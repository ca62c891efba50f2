"""Attention, distance bias, skinning head, and cross-entropy kernels."""

import numpy as np
import pytest

from rigkit import animate, gradcheck, kernels
from rigkit import (
    NonFiniteError,
    VOCAB_SIZE,
    distance_embedding,
    graph_distance_matrix,
    next_token_cross_entropy,
    reference_attention,
    skinning_head,
    topology_aware_attention,
)
from rigkit.kernels import (
    distance_embedding_vjp,
    next_token_cross_entropy_grad,
    skinning_head_vjp,
    topology_aware_attention_vjp,
)

from helpers import random_tree


def rand_qkv(rng, h=2, n=6, d=4):
    return (
        rng.standard_normal((h, n, d)),
        rng.standard_normal((h, n, d)),
        rng.standard_normal((h, n, d)),
    )


class TestDistanceEmbedding:
    def test_lookup(self):
        dist = np.array([[0, 2], [2, 0]])
        bias = distance_embedding(dist, np.arange(8.0).reshape(4, 2))
        assert bias.shape == (2, 2, 2)
        assert np.array_equal(bias[0, 0], [0.0, 1.0])
        assert np.array_equal(bias[0, 1], [4.0, 5.0])

    def test_clamps_beyond_last_level(self):
        values = np.arange(6.0).reshape(3, 2)
        dist = np.array([[0, 50], [50, 0]])
        bias = distance_embedding(dist, values)
        assert np.array_equal(bias[0, 1], values[2])

    def test_real_skeleton_distances_index_cleanly(self):
        rng = np.random.default_rng(1)
        s = random_tree(rng, 30)
        d = graph_distance_matrix(s)
        bias = distance_embedding(d, 0.1 * rng.standard_normal((5, 2)))
        assert bias.shape == (30, 30, 2)

    def test_rejects_bad_inputs(self):
        values = np.zeros((3, 2))
        with pytest.raises(ValueError, match="distance matrix must be square"):
            distance_embedding(np.zeros((2, 3), dtype=int), values)
        with pytest.raises(ValueError, match="graph distances must be non-negative"):
            distance_embedding(np.array([[0, -1], [1, 0]]), values)
        for bad in (np.zeros(3), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="table values must be"):
                distance_embedding(np.zeros((2, 2), dtype=int), bad)

    def test_hop_counts_are_not_cast(self):
        # A fractional or non-finite hop count is refused, never truncated.
        values = np.arange(6.0).reshape(3, 2)
        for f in (lambda d: distance_embedding(d, values),
                  lambda d: distance_embedding_vjp(d, values, np.ones((2, 2, 2)))):
            with pytest.raises(ValueError, match="distance matrix must hold integers"):
                f(np.array([[0.0, 1.7], [1.0, 0.0]]))
            for x in (np.nan, np.inf):
                with pytest.raises(NonFiniteError, match="distance matrix contains NaN or Inf"):
                    f(np.array([[0.0, x], [1.0, 0.0]]))
            # Integer-valued floats, however large, index as their integers do.
            for floats, ints in (([[0.0, 1.0], [2.0, 0.0]], [[0, 1], [2, 0]]),
                                 ([[0.0, 1e300], [1.0, 0.0]], [[0, 2], [1, 0]])):
                assert np.array_equal(f(np.array(floats)), f(np.array(ints)))

    def test_vjp_scatter(self):
        dist = np.array([[0, 1], [1, 0]])
        g = np.ones((2, 2, 1))
        gv = distance_embedding_vjp(dist, np.zeros((3, 1)), g)
        assert gv[0, 0] == 2.0  # two diagonal entries at level 0
        assert gv[1, 0] == 2.0
        assert gv[2, 0] == 0.0


class TestAttention:
    def test_shapes_and_rows(self):
        rng = np.random.default_rng(2)
        q, k, v = rand_qkv(rng)
        out, attn = reference_attention(q, k, v)
        assert out.shape == q.shape
        assert attn.shape == (2, 6, 6)
        assert np.allclose(attn.sum(axis=-1), 1.0)

    def test_lambda_zero_bitwise_equals_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h, n, d = (
                int(rng.integers(1, 4)),
                int(rng.integers(2, 9)),
                int(rng.integers(2, 8)),
            )
            q = rng.standard_normal((h, n, d))
            k = rng.standard_normal((h, n, d))
            v = rng.standard_normal((h, n, d))
            bias = rng.standard_normal((n, n, h))
            ref, ref_attn = reference_attention(q, k, v)
            out, attn = topology_aware_attention(q, k, v, bias, 0.0)
            assert np.array_equal(out, ref)
            assert np.array_equal(attn, ref_attn)

    def test_bias_shifts_attention(self):
        rng = np.random.default_rng(4)
        q, k, v = rand_qkv(rng, h=1, n=4)
        bias = np.zeros((4, 4, 1))
        bias[:, 2, 0] = 50.0  # force all mass onto key 2
        _, attn = topology_aware_attention(q, k, v, bias, 1.0)
        assert np.all(attn[0, :, 2] > 0.999)

    def test_uniform_when_everything_zero(self):
        q = np.zeros((1, 5, 3))
        k = np.zeros((1, 5, 3))
        v = np.zeros((1, 5, 3))
        _, attn = reference_attention(q, k, v)
        assert np.allclose(attn, 0.2)

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(5)
        q, k, v = rand_qkv(rng)
        with pytest.raises(ValueError):
            topology_aware_attention(q, k, v, np.zeros((3, 3, 2)), 1.0)
        with pytest.raises(ValueError):
            reference_attention(q, k, v[:, :, :2])

    def test_vjp_matches_fd_smoke(self, monkeypatch):
        # The full 20-instance battery lives in the acceptance suite.
        from rigkit import gradcheck

        assert gradcheck._check_attention(np.random.default_rng(6)) < 1e-4
        # Tolerance 0 sends every operand through the h/2 Richardson pass.
        monkeypatch.setattr(gradcheck, "REL_TOL", 0.0)
        assert np.isfinite(gradcheck._check_attention(np.random.default_rng(0)))


class TestSkinningHead:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(7)
        w = skinning_head(
            rng.standard_normal((40, 8)), rng.standard_normal((5, 8)), 2.0
        )
        assert w.shape == (40, 5)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w >= 0)

    def test_zero_rows_give_uniform(self):
        p = np.zeros((3, 4))
        b = np.zeros((2, 4))
        w = skinning_head(p, b, 5.0)
        assert np.all(np.isfinite(w))
        assert np.allclose(w, 0.5)

    def test_alpha_sharpens(self):
        rng = np.random.default_rng(8)
        p = rng.standard_normal((10, 6))
        b = rng.standard_normal((4, 6))
        soft = skinning_head(p, b, 1.0)
        sharp = skinning_head(p, b, 50.0)
        assert sharp.max(axis=1).mean() > soft.max(axis=1).mean()

    def test_mass_simplex_sweep(self):
        # 1e5 rows in one shot, adversarial zeros included.
        rng = np.random.default_rng(9)
        p = rng.standard_normal((100_000, 5))
        p[::97] = 0.0
        b = rng.standard_normal((7, 5))
        b[3] = 0.0
        w = skinning_head(p, b, 3.0)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-6

    def test_vjp_matches_fd_smoke(self):
        from rigkit.gradcheck import _check_skinning_head

        assert _check_skinning_head(np.random.default_rng(10)) < 1e-4

    def test_vjp_zero_rows_finite(self):
        p = np.zeros((2, 3))
        b = np.ones((2, 3))
        gp, gb, ga = skinning_head_vjp(p, b, 2.0, np.ones((2, 2)))
        assert np.all(np.isfinite(gp)) and np.all(np.isfinite(gb))


class TestCrossEntropy:
    def test_uniform_logits_log_vocab(self):
        logits = np.zeros((10, VOCAB_SIZE))
        targets = np.arange(10)
        loss = next_token_cross_entropy(logits, targets)
        assert loss == pytest.approx(np.log(VOCAB_SIZE), rel=1e-12)
        assert loss == pytest.approx(5.313, abs=5e-4)

    def test_confident_correct_is_small(self):
        logits = np.full((4, VOCAB_SIZE), -20.0)
        targets = np.array([5, 6, 7, 8])
        logits[np.arange(4), targets] = 20.0
        assert next_token_cross_entropy(logits, targets) < 1e-12

    def test_mask_selects_rows(self):
        logits = np.zeros((4, VOCAB_SIZE))
        logits[0, 0] = 100.0
        targets = np.zeros(4, dtype=int)
        mask = np.array([True, False, False, False])
        assert next_token_cross_entropy(logits, targets, mask) < 1e-12

    def test_large_logits_stable(self):
        logits = np.zeros((2, VOCAB_SIZE))
        logits[:, 0] = 1e4
        loss = next_token_cross_entropy(logits, np.array([0, 0]))
        assert np.isfinite(loss) and loss >= 0.0

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((6, VOCAB_SIZE))
        targets = rng.integers(0, VOCAB_SIZE, 6)
        mask = np.array([True, True, False, True, False, True])
        g = next_token_cross_entropy_grad(logits, targets, mask)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)
        assert np.all(g[~mask] == 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            next_token_cross_entropy(np.zeros((2, 10)), np.array([0, 1]))
        with pytest.raises(ValueError):
            next_token_cross_entropy(
                np.zeros((2, VOCAB_SIZE)), np.array([0, VOCAB_SIZE])
            )
        with pytest.raises(ValueError):
            next_token_cross_entropy(
                np.zeros((2, VOCAB_SIZE)), np.array([0, 1]),
                np.array([False, False]),
            )

    def test_targets_are_not_cast(self):
        # A fractional or non-finite target is refused, never truncated;
        # integer-valued floats select as their integers do.
        logits = np.random.default_rng(20).standard_normal((2, VOCAB_SIZE))
        for f in (next_token_cross_entropy, next_token_cross_entropy_grad):
            with pytest.raises(ValueError, match="targets must hold integers"):
                f(logits, np.array([0.0, 1.5]))
            for x in (np.nan, -np.inf):
                with pytest.raises(NonFiniteError, match="targets contains NaN or Inf"):
                    f(logits, np.array([0.0, x]))
            with pytest.raises(ValueError, match="targets out of vocabulary range"):
                f(logits, np.array([0.0, 1e300]))
            assert np.array_equal(f(logits, np.array([3.0, 1.0])), f(logits, np.array([3, 1])))

    def test_mask_is_not_cast(self):
        # A mask entry other than 0 or 1 is refused, never read as truthiness;
        # 0/1 masks of any dtype select as their bools do.
        logits = np.random.default_rng(21).standard_normal((3, VOCAB_SIZE))
        targets = np.array([0, 1, 2])
        for f in (next_token_cross_entropy, next_token_cross_entropy_grad):
            for x in (np.nan, np.inf):
                with pytest.raises(NonFiniteError, match="mask contains NaN or Inf"):
                    f(logits, targets, np.array([0.5, x, 0.0]))
            for bad in ([0.5, 1.0, 0.0], [2, 0, 0], [1, -1, 0]):
                with pytest.raises(ValueError, match="mask must hold only 0 and 1"):
                    f(logits, targets, np.array(bad))
            want = f(logits, targets, np.array([True, True, False]))
            for ok in ([1.0, 1.0, 0.0], [1, 1, 0], np.array([1, 1, 0], dtype=np.uint8)):
                assert np.array_equal(f(logits, targets, np.asarray(ok)), want)

    def test_grad_matches_fd_smoke(self):
        from rigkit.gradcheck import _check_cross_entropy

        assert _check_cross_entropy(np.random.default_rng(12)) < 1e-4

    def test_leaves_read_only_logits_untouched(self):
        rng = np.random.default_rng(22)
        logits = rng.standard_normal((4, 3, VOCAB_SIZE))
        before = logits.copy()
        logits.setflags(write=False)
        targets = rng.integers(0, VOCAB_SIZE, 3)
        loss = next_token_cross_entropy(logits, targets, np.array([True, False, True]))
        assert loss.shape == (4,) and np.all(np.isfinite(loss))
        assert np.array_equal(logits, before)

    def test_core_reads_only_masked_rows(self):
        # Masked-out rows may hold any finite values: the loss keeps its bits,
        # and values whose shift would overflow raise nothing, because no
        # arithmetic reads those rows.
        rng = np.random.default_rng(23)
        targets = rng.integers(0, VOCAB_SIZE, 9)
        mask = np.array([True, False, True, True, False, True, True, False, True])
        for lead in ((), (70,)):
            logits = rng.standard_normal(lead + (9, VOCAB_SIZE))
            want = kernels._ce_core(logits, targets, mask)
            masked_out = logits[..., ~mask, :].shape
            logits[..., ~mask, :] = rng.choice([-1e308, 1e308], masked_out)
            with np.errstate(all="raise"):
                assert np.array_equal(kernels._ce_core(logits, targets, mask), want)

    def test_check_catches_a_wrong_gradient(self, monkeypatch):
        # The check differentiates the loss's core, so it must still see a
        # public gradient that is off by 0.1 %.
        grad = gradcheck.kernels.next_token_cross_entropy_grad
        monkeypatch.setattr(gradcheck.kernels, "next_token_cross_entropy_grad",
                            lambda *args: 1.001 * grad(*args))
        assert gradcheck._check_cross_entropy(np.random.default_rng(12)) >= gradcheck.REL_TOL


class TestAttentionVjpInternals:
    def test_grad_bias_zero_when_lambda_zero(self):
        rng = np.random.default_rng(13)
        q, k, v = rand_qkv(rng, h=1, n=3, d=2)
        bias = rng.standard_normal((3, 3, 1))
        _, _, _, g_bias, g_lam = topology_aware_attention_vjp(
            q, k, v, bias, 0.0, np.ones((1, 3, 2))
        )
        # d(out)/d(bias) carries the lam factor; at lam = 0 it vanishes
        # while d(out)/d(lam) generally does not.
        assert np.all(g_bias == 0.0)
        assert g_lam != 0.0


class TestVjpInputChecks:
    def test_vjps_reject_what_the_forward_kernels_reject(self):
        rng = np.random.default_rng(18)
        q, k, v = rand_qkv(rng, h=2, n=3, d=2)
        bias = rng.standard_normal((3, 3, 2))
        bias[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="bias contains NaN or Inf"):
            topology_aware_attention_vjp(q, k, v, bias, 0.5, np.ones((2, 3, 2)))
        with pytest.raises(NonFiniteError, match="lam must be finite"):
            topology_aware_attention_vjp(q, k, v, np.zeros((3, 3, 2)), np.nan, np.ones((2, 3, 2)))
        p = rng.standard_normal((4, 3))
        b = rng.standard_normal((2, 3))
        with pytest.raises(NonFiniteError, match="alpha must be finite"):
            skinning_head_vjp(p, b, np.inf, np.ones((4, 2)))
        p[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="point features contains NaN or Inf"):
            skinning_head_vjp(p, b, 2.0, np.ones((4, 2)))
        dist = np.array([[0, 1], [1, 0]])
        with pytest.raises(NonFiniteError, match="distance table contains NaN or Inf"):
            distance_embedding(dist, np.full((3, 2), np.inf))
        with pytest.raises(NonFiniteError, match="distance table contains NaN or Inf"):
            distance_embedding_vjp(dist, np.full((3, 2), np.nan), np.ones((2, 2, 2)))

    def test_vjps_take_unbatched_operands(self):
        # A leading axis on any operand, or an upstream gradient that is not
        # the forward output's shape, is refused by name.
        rng = np.random.default_rng(19)
        q, k, v = rand_qkv(rng, h=2, n=3, d=2)
        bias = rng.standard_normal((3, 3, 2))
        g = rng.standard_normal((2, 3, 2))
        for args, match in (
            ((np.stack([q, q]), k, v, bias, 0.5, g), "q, k, v must share shape"),
            ((q, k, np.stack([v, v]), bias, 0.5, g), "q, k, v must share shape"),
            ((q, k, v, np.stack([bias, bias]), 0.5, g), "bias must be"),
            ((q, k, v, bias, np.array([0.5, 0.6]), g), "lam must be a scalar"),
            ((q, k, v, bias, 0.5, np.ones((2, 3, 5))), "grad_out must be"),
            ((q, k, v, bias, 0.5, np.stack([g, g])), "grad_out must be"),
        ):
            with pytest.raises(ValueError, match=match):
                topology_aware_attention_vjp(*args)
        p = rng.standard_normal((7, 5))
        b = rng.standard_normal((4, 5))
        gw = rng.standard_normal((7, 4))
        for args, match in (
            ((np.stack([p, p]), b, 2.0, gw), "point features must be"),
            ((p, np.stack([b, b]), 2.0, gw), "bone features must be"),
            ((p, b, np.array([1.0, 2.0]), gw), "alpha must be a scalar"),
            ((p, b, 2.0, np.ones((7, 3))), "grad_w must be"),
        ):
            with pytest.raises(ValueError, match=match):
                skinning_head_vjp(*args)
        dist = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="no leading axes"):
            distance_embedding_vjp(dist, np.zeros((2, 3, 2)), np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="grad_bias shape"):
            distance_embedding_vjp(dist, np.zeros((3, 2)), np.ones((2, 2, 3)))


class TestLeadingBatchAxes:
    """A stack of inputs gives, row for row, the bits of unbatched calls."""

    STACKS = (1, 2, 6, 64)

    def test_cross_entropy_rows(self):
        rng = np.random.default_rng(14)
        length = 9
        for unmasked in range(1, length + 1):
            mask = np.zeros(length, dtype=bool)
            mask[rng.choice(length, unmasked, replace=False)] = True
            targets = rng.integers(0, VOCAB_SIZE, length)
            for m in self.STACKS:
                logits = rng.standard_normal((m, length, VOCAB_SIZE))
                stacked = next_token_cross_entropy(logits, targets, mask)
                single = [next_token_cross_entropy(row, targets, mask) for row in logits]
                assert all(type(x) is float for x in single)
                assert stacked.shape == (m,)
                assert np.array_equal(stacked, single)
                grads = next_token_cross_entropy_grad(logits, targets, mask)
                for row, g in zip(logits, grads):
                    assert np.array_equal(g, next_token_cross_entropy_grad(row, targets, mask))
        logits = rng.standard_normal((2, 3, 4, VOCAB_SIZE))
        stacked = next_token_cross_entropy(logits, np.arange(4))
        assert stacked.shape == (2, 3)
        assert stacked[1, 2] == next_token_cross_entropy(logits[1, 2], np.arange(4))

    def test_attention_rows(self):
        rng = np.random.default_rng(15)
        q, k, v = rand_qkv(rng, h=2, n=5, d=4)
        bias = rng.standard_normal((5, 5, 2))
        shared = [q, k, v, bias, 0.7]
        # q, k, v and bias alone, lam alone, then every operand at once.
        for m in self.STACKS:
            for stacked in ({0}, {1}, {2}, {3}, {4}, {0, 1, 2, 3, 4}):
                args = [rng.standard_normal((m,) + np.shape(a)) if i in stacked else a
                        for i, a in enumerate(shared)]
                out, attn = topology_aware_attention(*args)
                assert out.shape == (m,) + q.shape
                # attention maps carry the axes of q, k, bias and lam, not v's
                attn = np.broadcast_to(attn, (m, 2, 5, 5))
                for i in range(m):
                    row = [a[i] if j in stacked else a for j, a in enumerate(args)]
                    want_out, want_attn = topology_aware_attention(*row)
                    assert np.array_equal(out[i], want_out)
                    assert np.array_equal(attn[i], want_attn)
        dist = graph_distance_matrix(random_tree(rng, 5))
        for m in self.STACKS:
            tables = rng.standard_normal((m, 3, 2))
            biases = distance_embedding(dist, tables)
            assert biases.shape == (m, 5, 5, 2)
            for table, row in zip(tables, biases):
                assert np.array_equal(row, distance_embedding(dist, table))

    def test_skinning_head_rows(self):
        rng = np.random.default_rng(16)
        p = rng.standard_normal((7, 5))
        b = rng.standard_normal((4, 5))
        for m in self.STACKS:
            ps = rng.standard_normal((m, 7, 5))
            bs = rng.standard_normal((m, 4, 5))
            alphas = rng.uniform(0.5, 3.0, m)
            ps[0, 2] = 0.0
            for w, rows in ((skinning_head(ps, b, 1.3), [skinning_head(x, b, 1.3) for x in ps]),
                            (skinning_head(p, bs, 1.3), [skinning_head(p, x, 1.3) for x in bs]),
                            (skinning_head(p, b, alphas), [skinning_head(p, b, a) for a in alphas]),
                            (skinning_head(ps, bs, alphas),
                             [skinning_head(*row) for row in zip(ps, bs, alphas)])):
                assert w.shape == (m, 7, 4)
                assert np.array_equal(w, np.stack(rows))

    def test_leading_axes_must_broadcast(self):
        # Operands whose leading axes clash are named; others broadcast.
        rng = np.random.default_rng(21)
        q = rng.standard_normal((2, 2, 3, 4))
        k, v = rng.standard_normal((2, 2, 3, 4))
        for args, match in (
            ((q, k, v, np.zeros((3, 3, 3, 2)), 0.5), r"q \(2,\), bias \(3,\)$"),
            ((q, k, v, np.zeros((3, 3, 2)), np.ones(3)), r"q \(2,\), lam \(3,\)$"),
            ((q, np.stack([k, k, k]), v, np.zeros((3, 3, 2)), 0.5), r"q \(2,\), k \(3,\)$"),
        ):
            with pytest.raises(ValueError, match="leading axes do not broadcast: " + match):
                topology_aware_attention(*args)
        with pytest.raises(ValueError, match=r"broadcast: q \(2,\), v \(3,\)$"):
            reference_attention(q, k, rng.standard_normal((3, 2, 3, 4)))
        out, _ = topology_aware_attention(q[:, None], k, v, np.zeros((3, 3, 3, 2)), 0.5)
        assert out.shape == (2, 3, 2, 3, 4)
        p = rng.standard_normal((2, 7, 5))
        b = rng.standard_normal((3, 4, 5))
        for args, match in (
            ((p, b, 1.0), r"point features \(2,\), bone features \(3,\)$"),
            ((p, b[0], np.ones(4)), r"point features \(2,\), alpha \(4,\)$"),
        ):
            with pytest.raises(ValueError, match="leading axes do not broadcast: " + match):
                skinning_head(*args)
        assert skinning_head(p[:, None], b, np.ones(3)).shape == (2, 3, 7, 4)

    def test_stack_validated_as_a_whole(self):
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((3, 2, VOCAB_SIZE))
        logits[2, 1, 5] = np.nan
        with pytest.raises(NonFiniteError, match="logits contains NaN or Inf"):
            next_token_cross_entropy(logits, np.array([0, 1]))
        with pytest.raises(ValueError, match="targets must align with logits rows"):
            next_token_cross_entropy(np.zeros((3, 2, VOCAB_SIZE)), np.arange(3))
        q, k, v = rand_qkv(rng)
        q = np.stack([q, q])
        q[1, 0, 0, 0] = np.inf
        with pytest.raises(NonFiniteError, match="q contains NaN or Inf"):
            topology_aware_attention(q, k, v, np.zeros((6, 6, 2)), 1.0)
        with pytest.raises(ValueError, match="share shape"):
            topology_aware_attention(q, k[:, :3], v, np.zeros((6, 6, 2)), 1.0)
        with pytest.raises(ValueError, match="share shape"):
            topology_aware_attention_vjp(np.stack([k, k]), k, v, np.zeros((6, 6, 2)), 1.0, v)
        p = np.ones((2, 3, 4))
        p[1, 1, 1] = np.nan
        with pytest.raises(NonFiniteError, match="point features contains NaN or Inf"):
            skinning_head(p, np.ones((2, 4)), 1.0)
        with pytest.raises(NonFiniteError, match="alpha must be finite"):
            skinning_head(np.ones((3, 4)), np.ones((2, 4)), np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError, match="lam must be finite"):
            topology_aware_attention(k, k, v, np.zeros((6, 6, 2)), np.array([0.5, np.inf]))


class TestCentralDifference:
    @staticmethod
    def element_loop(f, x, step=gradcheck.FD_STEP):
        """One call of a scalar function per perturbed element."""
        x = np.array(x, dtype=np.float64)
        grad = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            orig = x[i]
            x[i] = orig + step
            hi = f(x)
            x[i] = orig - step
            lo = f(x)
            x[i] = orig
            grad[i] = (hi - lo) / (2.0 * step)
        return grad

    def cases(self):
        rng = np.random.default_rng(18)
        logits = rng.standard_normal((3, VOCAB_SIZE))
        targets = rng.integers(0, VOCAB_SIZE, 3)
        mask = np.array([True, False, True])
        q, k, v = rand_qkv(rng, h=2, n=3, d=2)
        bias = rng.standard_normal((3, 3, 2))
        probe = rng.standard_normal(q.shape)
        b = rng.standard_normal((3, 4))
        w_probe = rng.standard_normal((5, 3))

        def attention_sum(q_):
            out, _ = topology_aware_attention(q_, k, v, bias, 0.9)
            return (out * probe).reshape(-1, probe.size).sum(axis=1)

        def skinning_sum(p_):
            return (skinning_head(p_, b, 2.0) * w_probe).reshape(-1, w_probe.size).sum(axis=1)

        # The grad-check's stacked clip terms on one of its scenes: each clip
        # array in turn is the stack, and the other two are tiled to match.
        mesh, s, weights, tracks, params = gradcheck._random_scene(rng)
        fit = animate._Fit(mesh, s, weights, tracks)
        clip = (params.root_quats, params.root_trans, params.joint_quats)

        def clip_case(evaluate, i):
            def stacked(a):
                arrays = [np.tile(c, (len(a),) + (1,) * c.ndim) for c in clip]
                arrays[i] = a
                return evaluate(*arrays, False)[0]

            def alone(a):
                """One clip's value, evaluated on copies of its arrays."""
                arrays = [c.copy() for c in clip]
                arrays[i] = a.copy()
                return float(evaluate(*arrays, False)[0])

            return stacked, clip[i].copy(), alone

        return [
            *(clip_case(evaluate, i)
              for evaluate in (fit.evaluate, animate._smoothness) for i in range(3)),
            (lambda a: next_token_cross_entropy(a, targets, mask), logits,
             lambda a: next_token_cross_entropy(a, targets, mask)),
            (attention_sum, q, lambda a: float(np.sum(
                topology_aware_attention(a, k, v, bias, 0.9)[0] * probe))),
            (skinning_sum, rng.standard_normal((5, 4)),
             lambda a: float(np.sum(skinning_head(a, b, 2.0) * w_probe))),
        ]

    def test_bitwise_element_loop_at_any_chunk_budget(self, monkeypatch):
        for stacked, x, scalar in self.cases():
            want = {step: self.element_loop(scalar, x, step)
                    for step in (gradcheck.FD_STEP, 1e-3)}
            x.setflags(write=False)  # the engine never writes its input
            for budget in (1, 7, 2 * x.size, 1000, gradcheck.FD_CHUNK_FLOATS, 1 << 22):
                monkeypatch.setattr(gradcheck, "FD_CHUNK_FLOATS", budget)
                for step, grad in want.items():
                    assert np.array_equal(gradcheck.central_difference(stacked, x, step), grad)

    def test_cross_entropy_check_at_any_chunk_budget(self, monkeypatch):
        # The real check on the real core: its error keeps its bits whether a
        # call gets 16-row stacks (1 << 15 floats), the default's, or one pair
        # of rows.
        n = 9 * VOCAB_SIZE
        errors = set()
        for budget in (1 << 15, gradcheck.FD_CHUNK_FLOATS, 2 * n):
            monkeypatch.setattr(gradcheck, "FD_CHUNK_FLOATS", budget)
            errors.add(gradcheck._check_cross_entropy(np.random.default_rng(24)).hex())
        assert len(errors) == 1

    def test_one_fd_pass_per_check(self, monkeypatch):
        calls = []
        fd = gradcheck.fd_relative_error
        monkeypatch.setattr(gradcheck, "fd_relative_error",
                            lambda *args: calls.append(1) or fd(*args))
        for name, check in gradcheck._CHECKS.items():
            calls.clear()
            check(np.random.default_rng(0))
            assert (name, len(calls)) == (name, 1)

    def test_f_cannot_write_its_input(self, monkeypatch):
        # The stack buffer is reused across chunks, so a write would leak
        # into later chunks; f gets a read-only view and the write raises.
        def scribble(stack):
            stack[..., 0] = 0.0
            return stack.sum(axis=(1, 2))

        x = np.arange(40.0).reshape(5, 8)
        for budget in (1, 2 * x.size, gradcheck.FD_CHUNK_FLOATS):
            monkeypatch.setattr(gradcheck, "FD_CHUNK_FLOATS", budget)
            with pytest.raises(ValueError, match="read-only"):
                gradcheck.central_difference(scribble, x)

    def test_chunks_bounded_by_budget(self):
        sizes = []

        def f(stack):
            sizes.append(stack.size)
            return stack.sum(axis=(1, 2))

        x = np.arange(40.0).reshape(5, 8)
        assert np.allclose(gradcheck.central_difference(f, x), 1.0)
        assert max(sizes) <= max(gradcheck.FD_CHUNK_FLOATS, 2 * x.size)
        assert sum(sizes) == 2 * x.size * x.size
        assert gradcheck.central_difference(f, np.zeros((0, 8))).shape == (0, 8)
