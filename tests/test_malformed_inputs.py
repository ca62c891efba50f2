"""Malformed input files end in exit 2 or 3, never in a traceback.

Each test starts from one valid scene on disk (a skinned rig, an OBJ, a
clip, a camera, tracks and a token file), breaks one file in a way that
is sure to make it invalid, and runs a subcommand that reads it through
``rigkit.cli.main``.  The CLI must answer 2 (unreadable) or 3 (parsed but
invalid); a success or an exception fails the test.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigkit import Rig, Skeleton, codec, save_rig, write_obj
from rigkit.cli import main
from rigkit.deform import save_animation
from rigkit import quat

from helpers import tube_mesh

PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)

# Keys the CLI may go without (look_at camera defaults, joint names):
# breaking them proves nothing.
_OPTIONAL_KEYS = {"fx", "fy", "up", "width", "height", "names"}
_BAD_SCALARS = [math.nan, math.inf, -math.inf, "x", None, {}, [1.0, 2.0]]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Valid input files plus the argv that reads each one."""
    d = tmp_path_factory.mktemp("malformed")
    p = {name: str(d / name) for name in (
        "rig.json", "skinned.json", "mesh.obj", "clip.json", "camera.json",
        "tracks.json", "rig.tok", "out",
    )}
    s = Skeleton(
        joints=np.array([[-0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]),
        parents=np.array([-1, 0, 1]),
    )
    save_rig(p["rig.json"], Rig(s))
    (d / "mesh.obj").write_text(
        write_obj(tube_mesh(length=0.6, radius=0.1, rings=4, sides=5)))
    frames = 3
    jq = np.zeros((frames, 3, 4))
    jq[:, :, 0] = 1.0
    jq[2, 0] = quat.from_euler_xyz(np.array([0.0, 0.0, 0.2]))
    save_animation(p["clip.json"], np.tile([1.0, 0, 0, 0], (frames, 1)),
                   np.zeros((frames, 3)), jq)
    (d / "camera.json").write_text(json.dumps(
        {"eye": [0.03, 0.11, 2.0], "target": [0.0, 0.0, 0.0],
         "fx": 600.0, "width": 512, "height": 512}))
    setup = [
        ["skin-heuristic", p["rig.json"], p["mesh.obj"], "-o", p["skinned.json"]],
        ["synth-tracks", p["skinned.json"], p["mesh.obj"], p["clip.json"],
         "--camera", p["camera.json"], "-o", p["tracks.json"],
         "--vertex-count", "6"],
        ["tokenize", p["rig.json"], "-o", p["rig.tok"]],
    ]
    for argv in setup:
        assert main(argv) == 0
    deform = ["deform", p["skinned.json"], p["mesh.obj"], p["clip.json"],
              "-o", p["out"]]
    readers = {
        "skinned.json": deform,
        "mesh.obj": deform,
        "clip.json": deform,
        "camera.json": ["synth-tracks", p["skinned.json"], p["mesh.obj"],
                        p["clip.json"], "--camera", p["camera.json"],
                        "-o", p["out"]],
        "tracks.json": ["animate", p["skinned.json"], p["mesh.obj"],
                        p["tracks.json"], "-o", p["out"], "--iterations", "2"],
        "rig.tok": ["detokenize", p["rig.tok"], "-o", p["out"]],
    }
    originals = {name: (d / name).read_bytes() for name in readers}
    for name, argv in readers.items():
        assert main(argv) == 0, name
    return d, readers, originals


def _assert_rejected(scene, name: str, data: bytes) -> None:
    d, readers, originals = scene
    (d / name).write_bytes(data)
    try:
        code = main(readers[name])
    finally:
        (d / name).write_bytes(originals[name])
    assert code in (2, 3), f"{name} exited {code} on {data[:200]!r}"


def _nodes(tree, path=()):
    """(path, node) for every node of a JSON tree."""
    yield path, tree
    if isinstance(tree, dict):
        children = list(tree.items())
    elif isinstance(tree, list):
        children = list(enumerate(tree))
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _parent(tree, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@st.composite
def broken_json(draw, text: bytes, top_keys=None):
    """A sure-invalid edit of a JSON file, optionally under some top keys."""
    tree = json.loads(text)
    nodes = [
        (path, node) for path, node in _nodes(tree)
        if path and (top_keys is None or path[0] in top_keys)
    ]
    kind = draw(st.sampled_from(
        ["scalar", "shorten", "delete", "truncate", "non_utf8"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 2))]
    if kind == "non_utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    if kind == "scalar":
        # Every number the CLI reads must be finite and of the right type.
        paths = [path for path, node in nodes if _is_number(node)]
        path = draw(st.sampled_from(paths))
        _parent(tree, path)[path[-1]] = draw(st.sampled_from(_BAD_SCALARS))
    elif kind == "shorten":
        # Innermost lists have a fixed length or must align with another.
        paths = [
            path for path, node in nodes
            if isinstance(node, list) and len(node) > 1
            and not any(isinstance(x, (list, dict)) for x in node)
        ]
        path = draw(st.sampled_from(paths))
        _parent(tree, path)[path[-1]].pop()
    else:
        paths = [
            path for path, node in nodes
            if isinstance(path[-1], str) and path[-1] not in _OPTIONAL_KEYS
        ]
        path = draw(st.sampled_from(paths))
        del _parent(tree, path)[path[-1]]
    return json.dumps(tree).encode()


@st.composite
def broken_obj(draw, text: bytes):
    lines = text.decode().splitlines()
    v_rows = [i for i, line in enumerate(lines) if line.startswith("v ")]
    f_rows = [i for i, line in enumerate(lines) if line.startswith("f ")]
    kind = draw(st.sampled_from(
        ["coordinate", "index", "drop_token", "drop_vertex", "non_utf8", "extra_token"]))
    if kind == "non_utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    if kind == "drop_vertex":
        del lines[draw(st.sampled_from(v_rows))]
    elif kind == "extra_token":
        # A bad token after a v line's coordinates or a bad field after an
        # f token's vertex index.
        row = draw(st.sampled_from(v_rows + f_rows))
        if row in v_rows:
            lines[row] += " " + draw(st.sampled_from(["nan", "inf", "x", "1_0", "0x1"]))
        else:
            parts = lines[row].split()
            at = draw(st.integers(1, len(parts) - 1))
            parts[at] += draw(st.sampled_from(["/x", "//1.5", "/1/2/3", "/\u0661"]))
            lines[row] = " ".join(parts)
    else:
        rows = v_rows if kind == "coordinate" else f_rows
        if kind == "drop_token":
            rows = v_rows + f_rows
        row = draw(st.sampled_from(rows))
        parts = lines[row].split()
        if kind == "drop_token":
            parts.pop()
        else:
            n = len(v_rows)
            bad = (["nan", "inf", "-inf", "1e999", "x", "0x1"]
                   if kind == "coordinate"
                   else ["0", str(n + 1), str(-(n + 1)), "x", "1.5"])
            parts[draw(st.integers(1, 3))] = draw(st.sampled_from(bad))
        lines[row] = " ".join(parts)
    return ("\n".join(lines) + "\n").encode()


_HEADER = struct.calcsize("<4sHBI")


@st.composite
def broken_tokens(draw, raw: bytes):
    kind = draw(st.sampled_from(
        ["truncate", "append", "magic", "version", "scheme", "count", "token"]))
    magic, version, scheme, count = struct.unpack("<4sHBI", raw[:_HEADER])
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + draw(st.binary(min_size=1, max_size=8))
    if kind == "token":
        at = _HEADER + 2 * draw(st.integers(0, count - 1))
        value = draw(st.integers(codec.VOCAB_SIZE, 0xFFFF))
        return raw[:at] + struct.pack("<H", value) + raw[at + 2:]
    if kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != magic))
    elif kind == "version":
        version = draw(st.integers(0, 0xFFFF).filter(lambda v: v != version))
    elif kind == "scheme":
        scheme = draw(st.integers(2, 0xFF))
    else:
        count = draw(st.integers(0, 0xFFFFFFFF).filter(lambda c: c != count))
    return struct.pack("<4sHBI", magic, version, scheme, count) + raw[_HEADER:]


def _run_with_field(scene, name, keys, head) -> int:
    """Exit code of the file's reader with the field at ``keys`` set to
    ``head``; a list ``head`` replaces the front of the field's list, and
    a field the file lacks is added."""
    d, readers, _ = scene
    path = d / name
    original = path.read_bytes()
    data = json.loads(original)
    *outer, key = keys
    parent = data
    for k in outer:
        parent = parent[k]
    field = parent.get(key) if isinstance(parent, dict) else parent[key]
    if isinstance(head, list) and isinstance(field, list):
        head = head + parent[key][len(head):]
    parent[key] = head
    path.write_text(json.dumps(data))
    try:
        return main(readers.get(name, ["validate", str(path)]))
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("name, keys, head", [
    ("rig.json", ("parents",), [-1, 0.9, 1.2]),
    ("rig.json", ("parents",), ["-1"]),
    ("rig.json", ("parents",), [-1, True]),
    ("rig.json", ("parents",), 0),
    ("tracks.json", ("vertex_subset",), [1.5, "2"]),
    ("tracks.json", ("joint_visibility",), [0.3]),
    ("tracks.json", ("camera", "width"), 512.9),
    ("tracks.json", ("camera", "height"), [512]),
    ("camera.json", ("width",), 512.9),
    ("camera.json", ("height",), [512]),
    ("camera.json", ("width",), True),
    ("camera.json", ("width",), "4"),
    ("rig.json", ("joints", 1), ["0"]),
    ("skinned.json", ("weights", 0), [True, False, False]),
    ("camera.json", ("fx",), "600"),
    ("tracks.json", ("camera", "fy"), True),
    ("clip.json", ("frames", 1, "root_quat"), [True]),
    ("tracks.json", ("joint_tracks", 1, 0), ["0"]),
    ("rig.json", ("names",), "abc"),
    ("rig.json", ("names",), [1, 2, 3]),
], ids=["float-parents", "string-parents", "bool-parents", "scalar-parents",
        "float-and-string-subset", "float-visibility", "tracks-float-width",
        "tracks-list-height", "float-width", "list-height", "bool-width", "string-width",
        "string-joint", "bool-weights", "string-fx", "tracks-bool-fy",
        "bool-root-quat", "string-joint-track", "string-names", "integer-names"])
def test_json_types_are_not_cast(scene, name, keys, head):
    # Integer and boolean fields take JSON integers and booleans only, and
    # float fields JSON numbers only, and joint names JSON strings only: a
    # float, string, boolean or list stand-in for an integer, a string or
    # boolean stand-in for a number, an integer stand-in for a name (each of
    # them here one that a cast would turn into a valid value), or a scalar
    # where a list belongs, is unparseable (exit 2), not cast.
    assert _run_with_field(scene, name, keys, head) == 2


@pytest.mark.parametrize("name, keys, size", [
    ("tracks.json", ("camera", "width"), 0),
    ("camera.json", ("height",), -5),
], ids=["tracks-zero-width", "negative-height"])
def test_camera_size_below_one_is_invalid(scene, name, keys, size):
    # A JSON integer image size parses; below 1 it fails validation.
    assert _run_with_field(scene, name, keys, size) == 3


@PROPERTY
@given(st.data())
def test_malformed_rig(scene, data):
    text = scene[2]["skinned.json"]
    _assert_rejected(scene, "skinned.json",
                     data.draw(broken_json(text, top_keys={"joints", "parents"})))


@PROPERTY
@given(st.data())
def test_malformed_weights(scene, data):
    text = scene[2]["skinned.json"]
    _assert_rejected(scene, "skinned.json",
                     data.draw(broken_json(text, top_keys={"weights"})))


@PROPERTY
@given(st.data())
def test_malformed_camera(scene, data):
    text = scene[2]["camera.json"]
    _assert_rejected(scene, "camera.json", data.draw(broken_json(text)))


@PROPERTY
@given(st.data())
def test_malformed_animation(scene, data):
    text = scene[2]["clip.json"]
    _assert_rejected(scene, "clip.json", data.draw(broken_json(text)))


@PROPERTY
@given(st.data())
def test_malformed_tracks(scene, data):
    text = scene[2]["tracks.json"]
    _assert_rejected(scene, "tracks.json", data.draw(broken_json(text)))


@PROPERTY
@given(st.data())
def test_malformed_tokens(scene, data):
    raw = scene[2]["rig.tok"]
    _assert_rejected(scene, "rig.tok", data.draw(broken_tokens(raw)))


@PROPERTY
@given(st.data())
def test_malformed_obj(scene, data):
    text = scene[2]["mesh.obj"]
    _assert_rejected(scene, "mesh.obj", data.draw(broken_obj(text)))
