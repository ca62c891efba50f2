"""Token vocabulary, tokenizers, group shuffling, schedule, token files."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigkit import (
    BOS,
    COORD_BINS,
    EOS,
    NO_INDICATOR,
    PAD,
    InvalidValueError,
    NonFiniteError,
    SHAPE_PLACEHOLDER,
    VOCAB_SIZE,
    Skeleton,
    TokenSequence,
    dequantize_coords,
    detokenize_bone_based,
    detokenize_joint_based,
    format_token_text,
    hierarchical_order,
    permutation_probability,
    quantize_coords,
    randomize_groups,
    read_token_file,
    tokenize_bone_based,
    tokenize_joint_based,
    unshuffle_groups,
    write_token_file,
)
from rigkit.codec import PARENT_BASE, PARENT_SLOTS

from helpers import permute_joints, random_tree


def distinct_tree(rng, joint_count):
    """Random tree whose joints all quantize to distinct bins (so the
    bone-based codec's endpoint stitching is collision-free)."""
    for _ in range(100):
        s = random_tree(rng, joint_count)
        bins = quantize_coords(s.joints)
        if len({tuple(b) for b in bins}) == joint_count:
            return s
    raise AssertionError("could not build a collision-free tree")


class TestVocabulary:
    def test_frozen_layout(self):
        assert COORD_BINS == 128
        assert BOS == 128
        assert EOS == 129
        assert PAD == 130
        assert SHAPE_PLACEHOLDER == 131
        assert PARENT_BASE == 132
        assert PARENT_SLOTS == 71
        assert VOCAB_SIZE == 203

    def test_token_range_enforced(self):
        with pytest.raises(ValueError):
            TokenSequence(np.array([VOCAB_SIZE]), None, "joint_based")
        with pytest.raises(ValueError):
            TokenSequence(np.array([-1]), None, "joint_based")

    @pytest.mark.parametrize("indicator", [NO_INDICATOR - 1, 32768, 40000])
    def test_indicator_range_enforced(self, indicator):
        # Token files store indicators as int16: 40000 would read back as -25536.
        with pytest.raises(ValueError, match="indicators must lie in"):
            TokenSequence(np.array([64, EOS]), np.array([indicator, 0]), "joint_based")


class TestQuantization:
    def test_bin_formula(self):
        assert quantize_coords(np.array([-0.5])).tolist() == [0]
        assert quantize_coords(np.array([0.5])).tolist() == [127]
        assert quantize_coords(np.array([0.0])).tolist() == [64]
        # clamping out-of-range inputs
        assert quantize_coords(np.array([-0.7, 0.7])).tolist() == [0, 127]

    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 10000)
        back = dequantize_coords(quantize_coords(x))
        assert np.max(np.abs(back - x)) <= 1.0 / 256.0

    def test_dequantize_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            dequantize_coords(np.array([128]))
        with pytest.raises(ValueError):
            dequantize_coords(np.array([-1]))

    def test_dequantize_never_casts_bins(self):
        # A fractional or non-finite bin is refused, not truncated; integral
        # floats give their integers' centres.
        with pytest.raises(ValueError, match="bins must hold integers"):
            dequantize_coords(np.array([1.5]))
        with pytest.raises(NonFiniteError, match="bins contains NaN or Inf"):
            dequantize_coords(np.array([np.nan]))
        with pytest.raises(ValueError, match="bins must hold integers"):
            dequantize_coords([True])
        assert np.array_equal(dequantize_coords([3.0, 0.0]), dequantize_coords([3, 0]))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="coordinates must be finite"):
                quantize_coords(np.array([0.0, bad]))


class TestJointTokenizer:
    def test_layout(self):
        s = Skeleton(np.zeros((1, 3)), np.array([-1]))
        t = tokenize_joint_based(s)
        # BOS, x, y, z, parent(root), EOS
        assert t.tokens.tolist() == [BOS, 64, 64, 64, PARENT_BASE, EOS]
        assert len(t) == 6

    def test_shape_tokens_prefix(self):
        s = Skeleton(np.zeros((1, 3)), np.array([-1]))
        t = tokenize_joint_based(s, shape_tokens=5)
        assert t.tokens[1:6].tolist() == [SHAPE_PLACEHOLDER] * 5
        assert len(t) == 11

    def test_parent_tokens_are_emission_positions(self):
        joints = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        s = Skeleton(joints, np.array([-1, 0, 1]))
        t = tokenize_joint_based(s)
        parent_toks = t.tokens[4::4][:3]
        assert parent_toks.tolist() == [PARENT_BASE, PARENT_BASE + 1, PARENT_BASE + 2]

    def test_round_trip_exact_topology(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            s = random_tree(rng, int(rng.integers(2, 70)))
            order = hierarchical_order(s)
            decoded, diags = detokenize_joint_based(tokenize_joint_based(s, order))
            assert diags == []
            reference = permute_joints(s, order)
            assert np.array_equal(decoded.parents, reference.parents)
            assert np.max(np.abs(decoded.joints - reference.joints)) <= 1.0 / 256.0

    def test_rejects_non_causal_order_by_default(self):
        joints = np.array([[0.0, 0, 0], [0.1, 0, 0]])
        s = Skeleton(joints, np.array([-1, 0]))
        with pytest.raises(ValueError):
            tokenize_joint_based(s, np.array([1, 0]))

    def test_non_causal_order_flagged_at_decode(self):
        # Child placed below its parent in z, so the spatial sort emits it
        # first and its parent token points forward.
        joints = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        s = Skeleton(joints, np.array([-1, 0]))
        from rigkit import spatial_order

        order = spatial_order(s)
        assert order.tolist() == [1, 0]
        t = tokenize_joint_based(s, order, require_causal=False)
        decoded, diags = detokenize_joint_based(t)
        assert any("not yet emitted" in d for d in diags)
        # The damaged decode leaves two roots: a disconnected skeleton.
        assert np.sum(decoded.parents == -1) == 2

    def test_invalid_skeleton_rejected(self):
        from rigkit import InvalidSkeletonError

        s = Skeleton(np.zeros((2, 3)), np.array([-1, 5]))
        with pytest.raises(InvalidSkeletonError):
            tokenize_joint_based(s)


class TestBoneTokenizer:
    def test_layout(self):
        joints = np.array([[0.0, 0, 0], [0.25, 0, 0]])
        s = Skeleton(joints, np.array([-1, 0]))
        t = tokenize_bone_based(s)
        assert len(t) == 2 + 6  # BOS, 6 coords, EOS
        assert t.tokens[0] == BOS and t.tokens[-1] == EOS
        assert np.all(t.tokens[1:-1] < COORD_BINS)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = distinct_tree(rng, int(rng.integers(2, 40)))
            order = hierarchical_order(s)
            decoded, diags = detokenize_bone_based(tokenize_bone_based(s, order))
            assert diags == []
            assert decoded.joint_count == s.joint_count
            assert decoded.bone_count == s.bone_count
            # Same joint set after quantization.
            got = {tuple(b) for b in quantize_coords(decoded.joints)}
            want = {tuple(b) for b in quantize_coords(s.joints)}
            assert got == want

    def test_compactness_law(self):
        # Payload: 4j joint-based vs 6(j-1) bone-based.  Shorter for j > 3,
        # equal at 3, longer at 2.
        rng = np.random.default_rng(3)
        for j in range(2, 71):
            s = distinct_tree(rng, j)
            order = hierarchical_order(s)
            jl = len(tokenize_joint_based(s, order)) - 2
            bl = len(tokenize_bone_based(s, order)) - 2
            assert jl == 4 * j
            assert bl == 6 * (j - 1)
            if j > 3:
                assert jl < bl
            elif j == 3:
                assert jl == bl
            else:
                assert jl > bl


class TestDetokenizerDiagnostics:
    def test_missing_eos(self):
        s = Skeleton(np.zeros((1, 3)), np.array([-1]))
        t = tokenize_joint_based(s)
        clipped = TokenSequence(t.tokens[:-1], None, t.scheme)
        _, diags = detokenize_joint_based(clipped)
        assert any("EOS" in d for d in diags)

    def test_ragged_payload(self):
        s = Skeleton(np.zeros((1, 3)), np.array([-1]))
        t = tokenize_joint_based(s)
        ragged = TokenSequence(
            np.concatenate([t.tokens[:-1], [64, EOS]]), None, t.scheme
        )
        _, diags = detokenize_joint_based(ragged)
        assert any("multiple of 4" in d for d in diags)

    def test_pad_inside_payload(self):
        s = Skeleton(np.zeros((2, 3)), np.array([-1, 0]))
        t = tokenize_joint_based(s)
        toks = t.tokens.copy()
        toks = np.insert(toks, 5, PAD)
        _, diags = detokenize_joint_based(TokenSequence(toks, None, t.scheme))
        assert any("padding" in d for d in diags)

    def test_requires_bos(self):
        with pytest.raises(ValueError):
            detokenize_joint_based(
                TokenSequence(np.array([64, EOS]), None, "joint_based")
            )

    def test_scheme_mismatch(self):
        s = Skeleton(np.zeros((2, 3)), np.array([-1, 0]))
        t = tokenize_joint_based(s)
        with pytest.raises(ValueError):
            detokenize_bone_based(t)


def _stream(*payload, scheme="joint_based", shape=0, tail=(EOS,), indicators=None):
    """BOS, ``shape`` placeholders, ``payload`` and ``tail`` as one stream."""
    tokens = [BOS] + [SHAPE_PLACEHOLDER] * shape + list(payload) + list(tail)
    return TokenSequence(np.array(tokens), indicators, scheme)


_P = PARENT_BASE
_CHAIN = Skeleton(np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]]), np.array([-1, 0, 1]))
_SHUFFLED = randomize_groups(tokenize_joint_based(_CHAIN), seed=0, r=1.0)
_BAD_LADDER = _SHUFFLED.indicators.copy()
_BAD_LADDER[5] = _BAD_LADDER[0]

# The codec contract: (function, arguments, expected), where expected is
# the diagnostics list a decoder returns or the (class, message) a call
# raises.  Multi-defect rows pin the order of the diagnostics: stream-level
# findings first, then the ragged-payload note, then group by group (or
# bone by bone), coordinates before the parent slot within a group.
CODEC_CONTRACT = {
    "joint: damaged groups in order": (
        detokenize_joint_based,
        (_stream(64, 64, 64, _P,
                 64, _P + 5, 64, _P + 1,
                 1, 2, PAD, 3, 64,
                 5, 5, 5, _P + 9,
                 150, 0, 0, 0,
                 7, 7, 7, _P + 2,
                 9, 9, tail=(EOS, 64, PAD)),),
        ["trailing tokens after EOS",
         "padding token inside payload",
         "payload length 26 is not a multiple of 4; trailing 2 token(s) dropped",
         "group 1: non-coordinate token in coordinate slot",
         "group 2: parent slot holds token 64",
         "group 3: parent reference 8 not yet emitted; joint left disconnected",
         "group 4: non-coordinate token in coordinate slot",
         "group 4: parent slot holds token 0"]),
    "joint: missing EOS with shape tokens": (
        detokenize_joint_based,
        (_stream(64, 64, 64, _P, 0, 0, 0, _P + 1, shape=2, tail=()),),
        ["missing EOS"]),
    "joint: PAD after EOS is not trailing": (
        detokenize_joint_based, (_stream(64, 64, 64, _P, tail=(EOS, PAD, PAD)),), []),
    "joint: no payload": (
        detokenize_joint_based, (_stream(shape=3),),
        (ValueError, "token stream has no joint payload")),
    "joint: payload shorter than one group": (
        detokenize_joint_based, (_stream(1, 2, 3),),
        (ValueError, "token stream has no joint payload")),
    "joint: empty stream": (
        detokenize_joint_based, (TokenSequence(np.array([], dtype=np.int64), None,
                                               "joint_based"),),
        (ValueError, "empty token stream")),
    "joint: no BOS": (
        detokenize_joint_based, (TokenSequence(np.array([64, EOS]), None, "joint_based"),),
        (ValueError, "token stream must start with BOS")),
    "joint: bone stream": (
        detokenize_joint_based, (_stream(0, 0, 0, 1, 1, 1, scheme="bone_based"),),
        (ValueError, "expected joint_based stream, got bone_based")),
    "tokenize: non-causal order": (
        tokenize_joint_based, (_CHAIN, [0, 2, 1]),
        (ValueError, "order places joint 2 before its parent 1; not causally decodable")),
    "tokenize: not a permutation": (
        tokenize_bone_based, (_CHAIN, [0, 1, 1]),
        (ValueError, "order must be a permutation of all joint indices")),
    # An order is refused, not cast: [0.2, 1.4, 2.0] would read as [0, 1, 2].
    "tokenize: fractional order": (
        tokenize_joint_based, (_CHAIN, [0.2, 1.4, 2.0]),
        (ValueError, "order must hold integers")),
    "tokenize: string order": (
        tokenize_bone_based, (_CHAIN, ["0", "1", "2"]),
        (ValueError, "order must hold integers")),
    # A bool is not an index: [False, True] would read as the order [0, 1].
    "tokenize: boolean order": (
        tokenize_joint_based, (Skeleton(_CHAIN.joints[:2], np.array([-1, 0])), [False, True]),
        (ValueError, "order must hold integers")),
    "tokenize: NaN in order": (
        tokenize_joint_based, (_CHAIN, [0, np.nan, 2]),
        (NonFiniteError, "order contains NaN or Inf")),
    "tokenize: negative shape tokens": (
        partial(tokenize_bone_based, shape_tokens=-1), (_CHAIN,),
        (InvalidValueError, "shape_tokens must be at least 0")),
    # A count is refused, not cast: 2.7 would give 2 placeholders, True 1.
    "tokenize: fractional shape tokens": (
        partial(tokenize_joint_based, shape_tokens=2.7), (_CHAIN,),
        (ValueError, "shape_tokens must be an integer")),
    "tokenize: boolean shape tokens": (
        partial(tokenize_bone_based, shape_tokens=True), (_CHAIN,),
        (ValueError, "shape_tokens must be an integer")),
    "bone: damaged bones in order": (
        detokenize_bone_based,
        (_stream(0, 0, 0, 1, 1, 1,
                 1, 1, 1, 1, 1, 1,
                 9, 9, 9, 9, 9, 9,
                 2, 2, 2, 3, 3, 3,
                 1, 1, 1, 4, 4, 4,
                 5, 5, scheme="bone_based"),),
        ["payload length 32 is not a multiple of 6; trailing 2 token(s) dropped",
         "bone 1: zero-length bone collapsed",
         "bone 2: parent endpoint unseen; attached as extra root",
         "bone 2: zero-length bone collapsed",
         "bone 3: parent endpoint unseen; attached as extra root"]),
    "bone: no payload": (
        detokenize_bone_based, (_stream(shape=1, scheme="bone_based"),),
        (ValueError, "token stream has no bone payload")),
    "bone: payload shorter than one bone": (
        detokenize_bone_based, (_stream(1, 2, 3, scheme="bone_based"),),
        (ValueError, "token stream has no bone payload")),
    "bone: non-coordinate token": (
        detokenize_bone_based, (_stream(0, 0, 0, 1, 1, _P, scheme="bone_based"),),
        (ValueError, "bone-based payload must contain only coordinate tokens")),
    "shuffle: missing EOS": (
        randomize_groups, (_stream(64, 64, 64, _P, tail=()), 0, 1.0),
        (ValueError, "stream not shuffle-safe: ['missing EOS']")),
    "shuffle: trailing tokens": (
        randomize_groups, (_stream(64, 64, 64, _P, tail=(EOS, 1)), 0, 1.0),
        (ValueError, "stream not shuffle-safe: ['trailing tokens after EOS']")),
    "shuffle: ragged payload": (
        randomize_groups, (_stream(64, 64, 64, _P, 1), 0, 1.0),
        (ValueError, "payload must be a whole number of 4-token groups")),
    "shuffle: malformed parent token": (
        randomize_groups, (_stream(64, 64, 64, _P, 1, 1, 1, 9), 0, 0.0),
        (ValueError, "malformed parent token in joint group")),
    "shuffle: parent past the last group": (
        randomize_groups, (_stream(64, 64, 64, _P, 1, 1, 1, _P + 9), 0, 0.0),
        (ValueError, "parent token points past the last joint group")),
    "shuffle: bone stream": (
        randomize_groups, (_stream(0, 0, 0, 1, 1, 1, scheme="bone_based"), 0, 1.0),
        (ValueError, "group shuffling applies to joint-based streams")),
    "shuffle: rate out of range": (
        randomize_groups, (_SHUFFLED, 0, 2.0), (InvalidValueError, "r must lie in [0, 1]")),
    # A rate is refused, not cast: True would read as 1 and shuffle.
    "shuffle: boolean rate": (
        randomize_groups, (_SHUFFLED, 0, True), (ValueError, "r must be a real number")),
    "shuffle: string rate": (
        randomize_groups, (_SHUFFLED, 0, "0.5"), (ValueError, "r must be a real number")),
    "shuffle: NaN rate": (
        randomize_groups, (_SHUFFLED, 0, np.nan),
        (NonFiniteError, "r must be finite")),
    "shuffle: negative rate": (
        randomize_groups, (_SHUFFLED, 0, -0.5),
        (InvalidValueError, "r must lie in [0, 1]")),
    "unshuffle: malformed parent token": (
        unshuffle_groups,
        (_stream(64, 64, 64, _P, 1, 1, 1, 9, indicators=[1, 0, 0, 0, 0, -1, -1, -1, -1, -1]),),
        (ValueError, "malformed parent token in joint group")),
    "unshuffle: parent past the last group": (
        unshuffle_groups,
        (_stream(64, 64, 64, _P, 1, 1, 1, _P + 9,
                 indicators=[1, 0, 0, 0, 0, -1, -1, -1, -1, -1]),),
        (ValueError, "parent token points past the last joint group")),
    "unshuffle: no indicators": (
        unshuffle_groups, (tokenize_joint_based(_CHAIN),),
        (ValueError, "indicator stream does not spell a permutation")),
    "unshuffle: repeated indicator": (
        unshuffle_groups,
        (TokenSequence(_SHUFFLED.tokens, _BAD_LADDER, "joint_based"),),
        (ValueError, "indicator stream does not spell a permutation")),
}


@pytest.mark.parametrize("case", CODEC_CONTRACT, ids=list(CODEC_CONTRACT))
def test_codec_contract(case):
    function, args, expected = CODEC_CONTRACT[case]
    if isinstance(expected, list):
        _, diagnostics = function(*args)
        assert diagnostics == expected
        return
    cls, message = expected
    with pytest.raises(Exception) as e:
        function(*args)
    assert type(e.value) is cls
    assert str(e.value) == message


class TestGroupShuffle:
    def test_r_zero_is_sequential_ladder(self):
        s = random_tree(np.random.default_rng(4), 6)
        t = tokenize_joint_based(s, hierarchical_order(s))
        shuffled = randomize_groups(t, seed=0, r=0.0)
        assert np.array_equal(shuffled.tokens, t.tokens)
        # BOS announces group 0; each group announces its successor.
        assert shuffled.indicators[0] == 0
        body = shuffled.indicators[1:-1].reshape(-1, 4)
        assert body[:, 0].tolist() == [1, 2, 3, 4, 5, NO_INDICATOR]
        assert shuffled.indicators[-1] == NO_INDICATOR

    def test_r_one_permutes(self):
        s = random_tree(np.random.default_rng(5), 12)
        t = tokenize_joint_based(s, hierarchical_order(s))
        shuffled = randomize_groups(t, seed=3, r=1.0)
        assert not np.array_equal(shuffled.tokens, t.tokens)
        # Indicators plus the BOS slot spell a permutation of all groups.
        perm = [int(shuffled.indicators[0])]
        body = shuffled.indicators[1:-1].reshape(-1, 4)[:, 0]
        perm.extend(int(x) for x in body[:-1])
        assert sorted(perm) == list(range(12))

    def test_unshuffle_restores_exactly(self):
        rng = np.random.default_rng(6)
        for joint_count in (2, 5, 17, 40):
            s = random_tree(rng, joint_count)
            t = tokenize_joint_based(s, hierarchical_order(s))
            for seed in range(5):
                shuffled = randomize_groups(t, seed=seed, r=1.0)
                restored = unshuffle_groups(shuffled)
                assert np.array_equal(restored.tokens, t.tokens)
                assert np.all(restored.indicators == NO_INDICATOR)

    def test_shape_tokens_carry_first_indicator(self):
        s = random_tree(np.random.default_rng(7), 5)
        t = tokenize_joint_based(s, hierarchical_order(s), shape_tokens=3)
        shuffled = randomize_groups(t, seed=1, r=1.0)
        first = shuffled.indicators[0]
        assert np.all(shuffled.indicators[:4] == first)
        restored = unshuffle_groups(shuffled)
        assert np.array_equal(restored.tokens, t.tokens)

    def test_emission_mode_decodes_with_forward_refs(self):
        s = random_tree(np.random.default_rng(8), 10)
        t = tokenize_joint_based(s, hierarchical_order(s))
        shuffled = randomize_groups(t, seed=2, r=1.0)
        decoded, diags = detokenize_joint_based(shuffled)
        # A shuffled stream decoded without unshuffling generally has
        # forward references; the decoder must flag, not crash.
        assert decoded.joint_count == 10

    def test_same_seed_same_shuffle(self):
        s = random_tree(np.random.default_rng(10), 9)
        t = tokenize_joint_based(s, hierarchical_order(s))
        a = randomize_groups(t, seed=11, r=1.0)
        b = randomize_groups(t, seed=11, r=1.0)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.indicators, b.indicators)

    def test_rejects_bad_rate(self):
        s = random_tree(np.random.default_rng(12), 4)
        t = tokenize_joint_based(s)
        with pytest.raises(ValueError):
            randomize_groups(t, seed=0, r=1.5)
        with pytest.raises(ValueError):
            randomize_groups(t, seed=0, r=-0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_unshuffle_inverts_property(self, joints, tree_seed, shuffle_seed):
        s = random_tree(np.random.default_rng(tree_seed), joints)
        t = tokenize_joint_based(s, hierarchical_order(s))
        shuffled = randomize_groups(t, seed=shuffle_seed, r=1.0)
        assert np.array_equal(unshuffle_groups(shuffled).tokens, t.tokens)


class TestSchedule:
    def test_piecewise_values(self):
        e = 100.0
        assert permutation_probability(0, e) == 1.0
        assert permutation_probability(25, e) == 1.0
        assert permutation_probability(50, e) == 1.0
        assert permutation_probability(9 * e / 16, e) == 0.75
        assert permutation_probability(5 * e / 8, e) == 0.5
        assert permutation_probability(62, e) == pytest.approx(0.52, abs=0)
        assert permutation_probability(75, e) == 0.0
        assert permutation_probability(100, e) == 0.0

    def test_scales_with_total(self):
        for total in (10.0, 640.0, 1.0):
            assert permutation_probability(total / 2, total) == 1.0
            assert permutation_probability(9 * total / 16, total) == pytest.approx(0.75)
            assert permutation_probability(3 * total / 4, total) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            permutation_probability(-1, 100)
        with pytest.raises(ValueError):
            permutation_probability(101, 100)
        with pytest.raises(ValueError):
            permutation_probability(0, 0)
        # NaN compared false everywhere (0.0), and an infinite run never ended (1.0).
        for epoch, total in ((np.nan, 10), (5, np.nan), (5, np.inf)):
            with pytest.raises(NonFiniteError):
                permutation_probability(epoch, total)


class TestTokenFiles:
    def test_round_trip(self, tmp_path):
        s = random_tree(np.random.default_rng(13), 14)
        t = randomize_groups(
            tokenize_joint_based(s, hierarchical_order(s)), seed=1, r=1.0
        )
        path = tmp_path / "t.bin"
        write_token_file(path, t)
        back = read_token_file(path)
        assert back.scheme == t.scheme
        assert np.array_equal(back.tokens, t.tokens)
        assert np.array_equal(back.indicators, t.indicators)

    def test_indicator_extremes_round_trip(self, tmp_path):
        t = TokenSequence(np.array([64, 65, EOS]), np.array([NO_INDICATOR, 32767, 0]),
                          "joint_based")
        path = tmp_path / "t.bin"
        write_token_file(path, t)
        assert np.array_equal(read_token_file(path).indicators, t.indicators)

    def test_bone_scheme_round_trip(self, tmp_path):
        s = random_tree(np.random.default_rng(14), 6)
        t = tokenize_bone_based(s, hierarchical_order(s))
        path = tmp_path / "b.bin"
        write_token_file(path, t)
        assert read_token_file(path).scheme == "bone_based"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK" + bytes(16))
        with pytest.raises(ValueError):
            read_token_file(path)

    def test_truncated(self, tmp_path):
        s = random_tree(np.random.default_rng(15), 4)
        t = tokenize_joint_based(s)
        path = tmp_path / "t.bin"
        write_token_file(path, t)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError):
            read_token_file(path)

    def test_text_dump(self):
        s = Skeleton(np.zeros((1, 3)), np.array([-1]))
        t = tokenize_joint_based(s)
        text = format_token_text(t)
        lines = text.strip().split("\n")
        assert lines[0] == f"{BOS} {NO_INDICATOR}"
        assert len(lines) == len(t)
