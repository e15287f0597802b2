import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qichan import catalog, serialize
from qichan.catalog import dephasing_channel, sic_tetrahedron
from qichan.channels import Channel, DiscreteObservable, validate_channel
from qichan.cli import main
from qichan.correction import CodeSubspace
from qichan.errors import NotTracePreserving, SchemaError, ValidationError
from qichan.rand import generator, random_channel


def _reference_array(a: np.ndarray):
    """The lists an array is written as: a complex matrix as its row-major
    [re, im] pairs, one such list per matrix of a stack; a float array as
    its nested lists.  Other arrays are left for the TypeError."""
    if np.iscomplexobj(a):
        return [[z.real, z.imag] for z in a.ravel()] if a.ndim == 2 else [_reference_array(m) for m in a]
    return a.tolist() if a.dtype.kind == "f" else a


def _reference_dumps(obj, indent: int = 0) -> str:
    """The writer as it was before flat lists were formatted in one pass:
    a recursive call per value, scalars included, and arrays converted to
    lists first."""
    pad = " " * indent
    if isinstance(obj, np.ndarray):
        obj = _reference_array(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": ' + _reference_dumps(obj[key], indent + 2).lstrip())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(_reference_dumps(v) for v in seq) + "]"
        items = [pad + "  " + _reference_dumps(v, indent + 2) for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("non-finite number in output")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _reference_pairs_to_matrix(pairs, rows, cols):
    """One complex(re, im) per entry."""
    out = np.empty(rows * cols, dtype=np.complex128)
    for idx, (re, im) in enumerate(pairs):
        out[idx] = complex(re, im)
    return out.reshape(rows, cols)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _complex(*shape: int) -> np.ndarray:
    rng = generator(sum(shape))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCanonicalJson:
    @pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
    def test_example_report_matches_reference(self, name):
        results = catalog.analyze_example(name)
        report = {"command": "example", "inputs": {}, "seed": 0, "results": {**results, "example": name}}
        assert serialize.dumps_canonical(report) == _reference_dumps(report)

    def test_file_dicts_match_reference(self):
        objs = [
            serialize.channel_to_dict(random_channel(generator(1), 3, 2, 4)),
            serialize.observable_to_dict(sic_tetrahedron()),
            serialize.code_to_dict(catalog.repetition_code()),
        ]
        for obj in objs:
            assert serialize.dumps_canonical(obj) == _reference_dumps(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2.5, True, None, 'say "hi"', -0.0, 1e-300, 10**30, False, "", 0],
            {"a": [0.1, 7, None], "b": [[1, 2.0], ["x", True]], "c": ("t", 1.5)},
            [[1, 2], 3.0, [None, [False, "é"]]],
            [np.float64(0.1), np.float32(0.5), np.int64(-3), np.int8(4)],
            [np.float64(1 / 3), np.float64(2.0)],
            [1.5, np.int64(2)],
            {"x": np.float64(np.pi), "n": np.int32(12), "s": np.float16(0.25)},
            np.float64(1e-7),
            np.int64(2**40),
            [],
            {},
            (),
            [[], {}, ()],
            {"empty": [], "nested": {"none": {}}},
            [[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308], [0.1, -5e-324]],
            [[0.1, 0.2], [0.3], [0.4, 0.5, 0.6], []],
            [[1, 0.5, True], [None, "s", 2.5], [0.25, 2, False]],
            [[0.5, 1], [0.25, 2]],
            [[np.float64(0.1), 0.2], [0.3, np.float64(-1e-300)]],
            [(0.1, 0.2), (0.3, 0.4)],
            [[], []],
            [{}, {}],
            [[0.5, np.float32(0.25)], [0.125, 1.0]],
            {"a%sb": ["%", "%s", "%%", "%(x)s", 0.5], "%(x)s": "100%", "%%": {"%d": [[1.5, 2.5]]}},
            {"stack": _complex(3, 2, 2), "n": 3},
            _complex(2, 3),
            {"empty": np.zeros((0, 2, 2), dtype=complex), "after": [0.5]},
            {"outer": {"transposed": _complex(3, 2).T}},
            {"points": generator(3).standard_normal((5, 3)), "grid": 2},
            [generator(4).standard_normal(4), np.zeros(0)],
        ],
        ids=[
            "mixed-flat", "mixed-dict", "nested-lists", "numpy-scalar-list", "numpy-float-list", "numpy-int-list",
            "numpy-scalar-dict", "numpy-float", "numpy-int", "empty-list", "empty-dict",
            "empty-tuple", "empty-inside-list", "empty-inside-dict",
            "pairs-extreme-floats", "ragged-rows", "mixed-type-rows", "int-float-rows", "numpy-float-rows",
            "tuple-rows", "empty-rows", "empty-dict-rows", "float32-in-rows", "percent-strings-and-keys",
            "complex-stack", "complex-matrix", "empty-complex-stack", "transposed-complex-matrix",
            "float-rows-array", "flat-float-arrays",
        ],
    )
    def test_matches_reference(self, obj):
        assert serialize.dumps_canonical(obj) == _reference_dumps(obj)

    def test_random_doubles_match_reference(self):
        rng = generator(5)
        mantissas = rng.standard_normal(4000)
        values = (mantissas * 10.0 ** rng.integers(-320, 308, mantissas.size)).tolist()
        values += [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.0**-1022, 0.1, 1 / 3]
        obj = {"flat": values, "pairs": np.reshape(values[: len(values) // 2 * 2], (-1, 2)).tolist()}
        assert serialize.dumps_canonical(obj) == _reference_dumps(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [1.0, float("nan")], {"x": [float("-inf")]}, np.float64("inf"), [np.float64("nan")],
            *([[0.5 * k, -0.25 * k] for k in range(500)] + [[0.0, bad]] for bad in _NON_FINITE),
            {"m": np.array([[1.0, complex(0.5, float("nan"))]])},
            [np.array([[0.5, 1.0], [float("inf"), 2.0]])],
        ],
        ids=["nan-in-list", "inf-in-dict", "numpy-inf", "numpy-nan-in-list",
             "nan-last-pair", "inf-last-pair", "minus-inf-last-pair",
             "nan-imaginary-part", "inf-in-float-array"],
    )
    def test_rejects_non_finite_like_reference(self, obj):
        with pytest.raises(ValueError):
            _reference_dumps(obj)
        with pytest.raises(ValueError):
            serialize.dumps_canonical(obj)

    @pytest.mark.parametrize(
        "obj", [np.bool_(True), [np.bool_(False)], {"a": object()}, np.zeros(2, dtype=int), np.zeros(2, dtype=bool)]
    )
    def test_rejects_unknown_types_like_reference(self, obj):
        with pytest.raises(TypeError):
            _reference_dumps(obj)
        with pytest.raises(TypeError):
            serialize.dumps_canonical(obj)

    def test_floats_survive_round_trip(self):
        values = [0.1, 1 / 3, np.pi, 1e-300, -0.0, 123456.789]
        text = serialize.dumps_canonical(values)
        back = json.loads(text)
        for a, b in zip(values, back):
            assert float(a) == float(b)

    def test_sorted_keys_deterministic(self):
        obj = {"b": 1, "a": [1.5, {"z": 2.0, "y": None}]}
        assert serialize.dumps_canonical(obj) == serialize.dumps_canonical(dict(reversed(obj.items())))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.dumps_canonical(float("nan"))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.1, 2, 1 / 3], [np.float64(1e-300), -4, 2.0]],
            [[0.5, True, 1.5], [0.25, False, -0.0]],
            [[np.float64(0.1), np.float64(2.0), 0.5], [0.5, np.float64(-0.0), 5e-324]],
            [[1.7976931348623157e308, 0.1, 1 / 3], [-5e-324, 2.5, 1e22]],
            [[None, "%s", 1], [0.5, "100%", 2]],
            [],
        ],
        ids=["mixed-int-float", "bool-column", "numpy-float", "all-float", "null-and-percent-strings", "no-rows"],
    )
    def test_csv_shares_the_json_number_formatter(self, rows):
        text = serialize.dumps_csv(["a", "b%s", "c"], rows)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0] == "a,b%s,c"
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            assert "[" + line.replace(",", ", ") + "]" == _reference_dumps(row)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("first", [0.5, 1], ids=["float-rows", "int-float-rows"])
    def test_csv_rejects_non_finite_in_last_row(self, bad, first):
        rows = [[first, 0.25 * k] for k in range(50)] + [[first, bad]]
        with pytest.raises(ValueError):
            serialize.dumps_csv(["a", "b"], rows)

    @pytest.mark.parametrize("shape", [(6, 3), (0, 3)], ids=["rows", "no-rows"])
    def test_csv_of_a_float_array_is_csv_of_its_lists(self, shape):
        rows = generator(6).standard_normal(shape) * 10.0 ** np.arange(-150, 150, 100)
        assert serialize.dumps_csv(["x", "z", "t"], rows) == serialize.dumps_csv(["x", "z", "t"], rows.tolist())

    def test_pair_lists_take_the_bulk_path(self, monkeypatch):
        formatted, dumped = [], []
        format_scalar, dump = serialize.format_scalar, serialize._dump
        monkeypatch.setattr(serialize, "format_scalar", lambda v: formatted.append(v) or format_scalar(v))
        monkeypatch.setattr(serialize, "_dump", lambda obj, *a: dumped.append(obj) or dump(obj, *a))
        obj = serialize.channel_to_dict(random_channel(generator(1), 8, 8, 4))
        assert serialize.dumps_canonical(obj) == _reference_dumps(obj)
        assert formatted == [8, 8]  # dim_in and dim_out; no pair entry is formatted one by one
        assert len(dumped) == 4  # the document and its three values: no call per matrix or pair

    def test_non_finite_channel_writes_no_file(self, tmp_path):
        elements = np.eye(2, dtype=np.complex128)[None].copy()
        elements[0, 1, 1] = complex(1.0, float("nan"))
        path = tmp_path / "c.json"
        with pytest.raises(ValueError):
            serialize.write_channel_file(path, Channel.from_elements(elements))
        assert not path.exists()


class TestPairsToMatrix:
    def test_matches_per_entry_reference(self):
        rng = generator(2)
        pairs = [
            [1, 0], [0.5, -2], [-0.0, 3], [2**53 + 1, -(2**63) - 5],
            [10**300, 1e-320], [-7, 0.1], *rng.standard_normal((6, 2)).tolist(),
        ]
        got = serialize.pairs_to_matrix(pairs, 3, 4, "m")
        want = _reference_pairs_to_matrix(pairs, 3, 4)
        assert got.dtype == np.complex128 and got.shape == (3, 4)
        assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[1, 0], [1, 0, 0]], "entry 1 is not an [re, im] pair"),
            ([[1, 0], 3], "entry 1 is not an [re, im] pair"),
            ([[1, 0], (1, 0)], "entry 1 is not an [re, im] pair"),
            ([[1, "0"], [1, 0]], "entry 0 has non-numeric parts"),
            ([[1, 0], [None, 0]], "entry 1 has non-numeric parts"),
            ([[1, 0], [True, 0]], "entry 1 has non-numeric parts"),
            ([[1, [0]], [1, 0]], "entry 0 has non-numeric parts"),
            ([[1, 0], [10**400, 0]], "entries must be finite"),
            ([[1, 0], [1e400, 0]], "entries must be finite"),
            ([[1, 0]], "expected 2 [re, im] pairs"),
        ],
        ids=[
            "long-pair", "number", "tuple", "string", "null", "bool", "nested",
            "huge-int", "inf", "count",
        ],
    )
    def test_names_the_bad_entry(self, pairs, message):
        with pytest.raises(SchemaError) as err:
            serialize.pairs_to_matrix(pairs, 1, 2, "m")
        assert message in str(err.value)


class TestElementLists:
    """A file's element or effect list is read as one stack; a malformed
    list or entry still raises the error that names its index."""

    @staticmethod
    def _document(kind: str) -> dict:
        if kind == "channel":
            return json.loads(serialize.dumps_canonical(serialize.channel_to_dict(dephasing_channel(2))))
        return json.loads(serialize.dumps_canonical(serialize.observable_to_dict(catalog.basis_observable(2))))

    @staticmethod
    def _parse(kind: str, data: dict):
        if kind == "channel":
            return serialize.channel_from_dict(data, "f")
        return serialize.observable_from_dict(data, "f")

    @pytest.mark.parametrize("kind", ["channel", "observable"])
    def test_well_formed_lists_take_one_pass(self, kind, monkeypatch):
        data = self._document(kind)
        field = "elements" if kind == "channel" else "effects"
        data[field][1][3] = [1, 2**53 + 1]  # integer parts read as pairs_to_matrix reads them
        want = np.array([_reference_pairs_to_matrix(pairs, 2, 2) for pairs in data[field]])
        monkeypatch.setattr(serialize, "pairs_to_matrix", None)
        got = self._parse(kind, data)
        stack = got.elements if kind == "channel" else got.effects
        assert stack.view(np.float64).tobytes() == want.view(np.float64).tobytes()

    @pytest.mark.parametrize("kind", ["channel", "observable"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda pairs: pairs[:3], "expected 4 [re, im] pairs"),
            (lambda pairs: 7, "expected 4 [re, im] pairs"),
            (lambda pairs: [*pairs[:2], [1, 0, 0], pairs[3]], "entry 2 is not an [re, im] pair"),
            (lambda pairs: [*pairs[:2], 3, pairs[3]], "entry 2 is not an [re, im] pair"),
            (lambda pairs: [*pairs[:2], {"re": 1, "im": 0}, pairs[3]], "entry 2 is not an [re, im] pair"),
            (lambda pairs: [*pairs[:2], "10", pairs[3]], "entry 2 is not an [re, im] pair"),
            (lambda pairs: [*pairs[:2], [1, "0"], pairs[3]], "entry 2 has non-numeric parts"),
            (lambda pairs: [*pairs[:2], [None, 0], pairs[3]], "entry 2 has non-numeric parts"),
            (lambda pairs: [*pairs[:2], [True, 0], pairs[3]], "entry 2 has non-numeric parts"),
            (lambda pairs: [*pairs[:2], [1, [0]], pairs[3]], "entry 2 has non-numeric parts"),
            (lambda pairs: [*pairs[:2], [10**400, 0], pairs[3]], "entries must be finite"),
            (lambda pairs: [*pairs[:2], [1e400, 0], pairs[3]], "entries must be finite"),
        ],
        ids=[
            "count", "not-a-list", "long-pair", "number", "object", "string-pair", "string",
            "null", "bool", "nested", "huge-int", "inf",
        ],
    )
    def test_names_the_bad_list_and_entry(self, kind, bad, message):
        data = self._document(kind)
        field = "elements" if kind == "channel" else "effects"
        data[field][1] = bad(data[field][1])
        with pytest.raises(SchemaError) as err:
            self._parse(kind, data)
        assert str(err.value) == f"f: {field}[1]: {message}"


class TestChannelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        c = random_channel(generator(0), 3, 2, 4)
        path = tmp_path / "c.json"
        serialize.write_channel_file(path, c)
        back = serialize.parse_channel_file(path)
        assert back.dim_in == c.dim_in and back.dim_out == c.dim_out
        for e1, e2 in zip(c.elements, back.elements):
            assert np.array_equal(e1, e2)
        # re-emitting produces identical bytes
        path2 = tmp_path / "c2.json"
        serialize.write_channel_file(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_observable_round_trip(self, tmp_path):
        x = sic_tetrahedron()
        path = tmp_path / "x.json"
        serialize.write_observable_file(path, x)
        back = serialize.parse_observable_file(path)
        for e1, e2 in zip(x.effects, back.effects):
            assert np.array_equal(e1, e2)

    def test_non_trace_preserving_rejected(self, tmp_path):
        bad = Channel.from_elements([2 * np.eye(2, dtype=complex)])
        path = tmp_path / "bad.json"
        serialize.write_channel_file(path, bad)
        with pytest.raises(NotTracePreserving) as err:
            serialize.parse_channel_file(path)
        assert "E^dag E" in str(err.value)
        assert err.value.residual > 1

    def test_schema_errors_name_the_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim_in": 2, "elements": [[[1, 0]]]}')
        with pytest.raises(SchemaError) as err:
            serialize.parse_channel_file(path)
        assert "dim_out" in str(err.value)
        path.write_text('{"dim_in": 2, "dim_out": 2, "elements": [[[1, 0]]]}')
        with pytest.raises(SchemaError):
            serialize.parse_channel_file(path)

    def test_detect_kind(self, tmp_path):
        cpath = tmp_path / "c.json"
        serialize.write_channel_file(cpath, dephasing_channel(2))
        xpath = tmp_path / "x.json"
        serialize.write_observable_file(xpath, sic_tetrahedron())
        assert serialize.detect_kind(cpath) == ("channel", json.loads(cpath.read_text()))
        assert serialize.detect_kind(xpath) == ("observable", json.loads(xpath.read_text()))

    def test_code_round_trip(self, tmp_path):
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = v[7, 1] = 1.0
        code = CodeSubspace.from_isometry(v)
        path = tmp_path / "code.json"
        serialize.write_code_file(path, code)
        back = serialize.parse_code_file(path)
        assert np.array_equal(back.v, code.v)


def _strip_timestamp(text):
    data = json.loads(text)
    data.pop("generated_at", None)
    return json.dumps(data, sort_keys=True)


# the files a report case writes before it runs
_CASE_FILES = ("channel", "bitflip", "joint", "code", "x", "gamma")

# one case per command and form: argv with file placeholders, and the file
# arguments its report names (argument -> placeholder)
_REPORT_CASES = {
    "validate": (["validate", "{channel}"], {"input": "channel"}),
    "preserved": (["preserved", "{channel}"], {"input": "channel"}),
    "correct": (["correct", "{channel}"], {"input": "channel"}),
    "correct-code": (["correct", "{bitflip}", "--code", "{code}"], {"input": "bitflip", "code": "code"}),
    "pointer": (["pointer", "{channel}"], {"input": "channel"}),
    "kl": (["kl", "{bitflip}", "--code", "{code}"], {"input": "bitflip", "code": "code"}),
    "oqec": (["oqec", "{bitflip}", "--code", "{code}", "--split", "2,1"], {"input": "bitflip", "code": "code"}),
    "classical-observable": (["classical", "{x}", "--gamma", "{gamma}"], {"input": "x", "gamma": "gamma"}),
    "classical-channel": (
        ["classical", "{channel}", "--gamma", "{gamma}", "--samples", "4"],
        {"input": "channel", "gamma": "gamma"},
    ),
    "broadcast": (["broadcast", "{joint}", "--dims", "3,3"], {"input": "joint"}),
    "sweep": (["sweep", "--steps", "3", "--env-size", "2"], {}),
    "region": (["region", "{channel}", "--grid", "4"], {"input": "channel"}),
    "capacity": (["capacity", "{x}", "--restarts", "2"], {"input": "x"}),
    "example": (["example", "dephasing"], {}),
}


def _off_by_2e7(tmp_path, exact_channels=False):
    """The report cases' files 2e-7 from valid: the bitflip3 and antisym
    joint channels and the repetition code scaled by sqrt(1 + 2e-7), and
    effects diag(1 + 1e-7, 0.5), diag(-1e-7, 0.5).  With
    ``exact_channels`` only the code is off."""
    from qichan.catalog import antisym_joint_channel, bitflip3_channel, repetition_code

    scale = 1.0 if exact_channels else np.sqrt(1 + 2e-7)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("bitflip", "code", "joint", "x")}
    bitflip = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
    serialize.write_channel_file(paths["bitflip"], Channel.from_elements(scale * bitflip.elements))
    joint = antisym_joint_channel()
    serialize.write_channel_file(paths["joint"], Channel.from_elements(scale * joint.elements))
    serialize.write_code_file(paths["code"], CodeSubspace(v=np.sqrt(1 + 2e-7) * repetition_code().v))
    effects = np.array([np.diag([1 + 1e-7, 0.5]), np.diag([-1e-7, 0.5])], dtype=complex)
    serialize.write_observable_file(paths["x"], DiscreteObservable.from_effects(effects))
    return paths


def _h4_kron_i2():
    """The 8 x 8 unitary H4 (x) 1_2 / 2 with entries 0 and +-1/2: its
    channel is trace preserving without rounding, while the eigenvalues of
    its rank-one Choi matrix come out down to about -2e-15."""
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    return Channel.from_elements([np.kron(np.kron(h2, h2) / 2, np.eye(2)).astype(complex)])


# input files that a command must refuse (exit 1, no report): the files to
# write (name -> JSON text), the argv and the start of the error message
_REJECTIONS = {
    "dims-not-positive": (
        {"c": '{"dim_in": 0, "dim_out": 1, "elements": [[[1, 0]]]}'},
        ["validate", "{c}"], "error: {c}: 'dim_in'/'dim_out' must be positive integers",
    ),
    "dim-not-integer": (
        {"x": '{"dim": 1.0, "effects": [[[1, 0]]]}'},
        ["capacity", "{x}"], "error: {x}: 'dim' must be a positive integer",
    ),
    "elements-empty": (
        {"c": '{"dim_in": 1, "dim_out": 1, "elements": []}'},
        ["preserved", "{c}"], "error: {c}: 'elements' must be a non-empty list",
    ),
    "effects-empty": (
        {"x": '{"dim": 1, "effects": []}'},
        ["capacity", "{x}"], "error: {x}: 'effects' must be a non-empty list",
    ),
    "observable-field-missing": (
        {"x": '{"effects": [[[1, 0]]]}'},
        ["capacity", "{x}"], "error: {x}: missing field 'dim'",
    ),
    "code-field-missing": (
        {"c": '{"dim_in": 1, "dim_out": 1, "elements": [[[1, 0]]]}', "k": '{"dim": 1, "dim_code": 1}'},
        ["kl", "{c}", "--code", "{k}"], "error: {k}: missing field 'isometry'",
    ),
    "code-dim-below-dim-code": (
        {"c": '{"dim_in": 1, "dim_out": 1, "elements": [[[1, 0]]]}',
         "k": '{"dim": 1, "dim_code": 2, "isometry": [[1, 0], [0, 0]]}'},
        ["kl", "{c}", "--code", "{k}"], "error: {k}: 'dim' >= 'dim_code' >= 1 required",
    ),
    "top-level-not-object": (
        {"c": "[1, 2]"}, ["validate", "{c}"], "error: {c}: top level must be an object",
    ),
    "neither-channel-nor-observable": (
        {"c": '{"dim": 1}'}, ["validate", "{c}"], "error: {c}: neither a channel",
    ),
    "out-under-a-file": (
        {"c": '{"dim_in": 1, "dim_out": 1, "elements": [[[1, 0]]]}'},
        ["validate", "{c}", "--out", "{c}/report.json"], "io error: ",
    ),
}


class TestCli:
    def _channel_file(self, tmp_path):
        path = tmp_path / "deph.json"
        serialize.write_channel_file(path, dephasing_channel(2))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", self._channel_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["results"]["valid"] is True
        assert report["results"]["kind"] == "channel"

    def test_validate_bad_channel_exits_two(self, tmp_path, capsys):
        bad = Channel.from_elements([2 * np.eye(2, dtype=complex)])
        path = tmp_path / "bad.json"
        serialize.write_channel_file(path, bad)
        rc = main(["validate", str(path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["results"]["valid"] is False

    @pytest.mark.parametrize(
        "chan, argv",
        [
            # rounding puts the Choi eigenvalues of these channels at about
            # -2e-15 and -1.15e-15: every element list is CP, so no cut sees it
            (_h4_kron_i2, ["validate", "--tol", "1e-16"]),
            (lambda: random_channel(generator(0), 7, 6, 3), ["validate", "--tol", "1e-15"]),
        ],
        ids=["h4-kron-i2", "random-seed0"],
    )
    def test_validate_below_rounding_is_valid(self, tmp_path, capsys, chan, argv):
        path = tmp_path / "c.json"
        serialize.write_channel_file(path, chan())
        assert main(argv[:1] + [str(path)] + argv[1:]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["valid"] is True
        assert set(results) == {"kind", "trace_preserving", "tp_residual", "valid"}

    def test_correct_on_an_ill_conditioned_channel(self, tmp_path, capsys, rotated_amplitude_damping):
        # E(1) has eigenvalues 2 - 1e-8 and 1e-8; the correction's trace
        # preservation does not depend on that conditioning
        path = tmp_path / "c.json"
        serialize.write_channel_file(path, rotated_amplitude_damping(1e-8, 1))
        assert main(["correct", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        r = serialize.channel_from_dict(results["correction_channel"])
        assert validate_channel(r).trace_preserving
        assert results["residuals"]["fixed_point"] <= 1e-8

    @pytest.mark.parametrize("name", ["diamonds-3", "diamonds-inf"])
    def test_validate_pointer_below_rounding(self, tmp_path, capsys, name):
        # completeness 1.34e-16 and 1.80e-16: rounding of the m d^2 entries
        path = tmp_path / "x.json"
        serialize.write_observable_file(path, catalog.example_catalog(name).observables["pointer"])
        assert main(["validate", str(path), "--tol", "1e-16"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["valid"] is True

    def test_preserved_below_rounding_on_an_exact_unitary(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        serialize.write_channel_file(path, _h4_kron_i2())
        assert main(["preserved", str(path), "--tol", "1e-16", "--rank-rel", "1e-16"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["preserved_algebra"]["block_dims"] == [[8, 1]]

    @pytest.mark.parametrize(
        "invariant, effects",
        [
            # each breaks its invariant by 10 tol at the default tol = 1e-9
            ("hermiticity", [[[0.5, 1e-8], [0, 0.5]], [[0.5, -1e-8], [0, 0.5]]]),
            ("min_eigenvalue", [[[-1e-8, 0], [0, 0]], [[0.5 + 1e-8, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]]),
            ("max_eigenvalue", [[[1 + 1e-8, 0], [0, 1]]]),
            ("completeness", [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5 + 1e-8]]]),
        ],
    )
    def test_observable_invariants_share_one_rule(self, tmp_path, capsys, invariant, effects):
        # validate says "no" (2); commands that need a valid observable
        # refuse the input (1, ValidationError)
        x = DiscreteObservable.from_effects([np.array(e, dtype=complex) for e in effects])
        path = tmp_path / "x.json"
        serialize.write_observable_file(path, x)
        assert main(["validate", str(path)]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["valid"] is False
        excess = {
            "hermiticity": results["hermiticity"],
            "min_eigenvalue": -results["min_eigenvalue"],
            "max_eigenvalue": results["max_eigenvalue"] - 1,
            "completeness": results["completeness"],
        }[invariant]
        assert excess > 5e-9
        assert main(["capacity", str(path), "--restarts", "1"]) == 1
        assert "invariant violated" in capsys.readouterr().err
        with pytest.raises(ValidationError):
            serialize.parse_observable_file(path)

    @pytest.mark.parametrize("case", list(_REJECTIONS))
    def test_rejected_input_writes_no_report(self, tmp_path, capsys, case):
        files, argv, message = _REJECTIONS[case]
        paths = {name: str(tmp_path / f"{name}.json") for name in files}
        for name, content in files.items():
            Path(paths[name]).write_text(content)
        argv = [a.format(**paths) for a in argv]
        report = tmp_path / "out" / "report.json"
        if "--out" not in argv:
            argv += ["--out", str(report)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message.format(**paths)) and "Traceback" not in err
        assert not report.parent.exists()

    @pytest.mark.parametrize("case", ["correct-code", "kl", "oqec", "broadcast", "capacity"])
    def test_the_callers_tol_decides_every_check(self, tmp_path, capsys, case):
        paths = _off_by_2e7(tmp_path)
        argv = [a.format(**paths) for a in _REPORT_CASES[case][0]]
        assert main(["validate", argv[1], "--tol", "1e-6"]) == 0
        capsys.readouterr()
        assert main(argv + ["--tol", "1e-6"]) == 0
        capsys.readouterr()
        # at the default tolerance the input's own check still refuses it
        assert main(argv) == 1
        out, err = capsys.readouterr()
        violated = (
            "invariant violated: effect spectrum >= 0 (residual 1.000e-07)" if case == "capacity"
            else "not trace preserving: ||sum E^dag E - 1|| = 2.000e-07 > 1.000e-09"
        )
        assert out == "" and err == f"error: {violated}\n"

    @pytest.mark.parametrize("case", ["correct-code", "kl", "oqec"])
    def test_code_isometry_is_checked_at_the_callers_tol(self, tmp_path, capsys, case):
        paths = _off_by_2e7(tmp_path, exact_channels=True)
        argv = [a.format(**paths) for a in _REPORT_CASES[case][0]]
        assert main(argv + ["--tol", "1e-6"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: columns are not isometric (residual 2.000e-07)\n"

    def test_missing_file_exits_one(self, capsys):
        rc = main(["validate", "/nonexistent/x.json"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[NaN, 0]]]}',
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[1, -Infinity]]]}',
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[1e400, 0]]]}',
            '{"dim_in": 1, "dim_out": 1, "elements": [[[1, 0]]], "note": "\u00e9"}'.encode("latin-1"),
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[1' + b"0" * 400 + b', 0]]]}',
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[true, false]]]}',
        ],
        ids=["nan", "infinity", "overflow", "not-utf8", "huge-int", "bool"],
    )
    def test_malformed_file_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_preserved_report(self, tmp_path, capsys):
        rc = main(["preserved", self._channel_file(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        blocks = report["results"]["preserved_algebra"]["block_dims"]
        assert blocks == [[1, 1], [1, 1]]

    def test_preserved_counts_a_weak_interaction(self, tmp_path, capsys):
        # E = {sqrt(1 - p) 1, sqrt(p) X}: the products span {1, X} however
        # small p is, and the preserved algebra is the one X generates
        p = 1e-15
        path = tmp_path / "weak.json"
        c = Channel.from_elements([np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * catalog.PAULI_X])
        serialize.write_channel_file(path, c)
        assert main(["preserved", str(path)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["interaction_span_dimension"] == 2
        assert results["preserved_algebra"]["block_dims"] == [[1, 1], [1, 1]]

    def test_preserved_decomposes_below_rounding_tolerance(self, tmp_path, capsys):
        # at 1e-15 the identity lies 1.3e-15 from the blocks channel's
        # preserved span, rounding that norm_cut's n eps floor keeps in it
        assert main(["example", "blocks", "--out", str(tmp_path)]) == 0
        path = str(tmp_path / "blocks.channel.channel.json")
        capsys.readouterr()
        assert main(["preserved", path, "--tol", "1e-15", "--rank-rel", "1e-15"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["preserved_algebra"]["block_dims"] == [[3, 1], [2, 1], [1, 1]]

    def test_kl_pass_and_fail_exit_codes(self, tmp_path, capsys):
        from qichan.catalog import bitflip3_channel, repetition_code

        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        assert main(["kl", str(cpath), "--code", str(kpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["passes"] is True

        from qichan.catalog import PAULI_Z, pauli_on

        zpath = tmp_path / "z.json"
        z = Channel.from_elements(
            [np.sqrt(0.5) * np.eye(8, dtype=complex), np.sqrt(0.5) * pauli_on(3, 0, PAULI_Z)]
        )
        serialize.write_channel_file(zpath, z)
        assert main(["kl", str(zpath), "--code", str(kpath)]) == 2

    def test_classical_feasible_and_not(self, tmp_path, capsys):
        gamma = tmp_path / "gamma.json"
        serialize.write_observable_file(gamma, sic_tetrahedron())
        x = tmp_path / "x.json"
        from qichan.catalog import shrinking_channel
        from qichan.channels import DiscreteObservable, apply_dual

        eff = apply_dual(shrinking_channel(1 / 3), np.diag([1.0, 0]).astype(complex))
        serialize.write_observable_file(
            x,
            DiscreteObservable.from_effects([eff, np.eye(2, dtype=complex) - eff]),
        )
        assert main(["classical", str(x), "--gamma", str(gamma)]) == 0
        capsys.readouterr()

        xb = tmp_path / "xb.json"
        serialize.write_observable_file(xb, DiscreteObservable.from_effects(
            [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
        ))
        gz = tmp_path / "gz.json"
        from qichan.catalog import PAULI_X

        serialize.write_observable_file(gz, DiscreteObservable.from_effects(
            [(np.eye(2, dtype=complex) + PAULI_X) / 2, (np.eye(2, dtype=complex) - PAULI_X) / 2]
        ))
        assert main(["classical", str(xb), "--gamma", str(gz)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["feasible"] is False
        assert 1e-7 < report["results"]["certified_lower_bound"] <= report["results"]["residual"]

        # the sampled check of a channel certifies its "no" the same way
        from qichan.rand import random_unitary

        upath = tmp_path / "u.json"
        serialize.write_channel_file(upath, Channel.from_elements([random_unitary(generator(4), 2)]))
        assert main(["classical", str(upath), "--gamma", str(xb), "--samples", "8"]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["feasible"] < results["samples"]
        assert 1e-7 < results["certified_lower_bound"] <= results["max_residual"]

    def test_sweep_csv_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--env-size", "4", "--total-time", "1", "--steps", "11",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,i,m,gamma"
        assert len(lines) - 1 == 11 * 4 * 4

    def test_region_csv(self, tmp_path):
        cpath = tmp_path / "c.json"
        serialize.write_channel_file(cpath, dephasing_channel(2))
        out = tmp_path / "region.csv"
        rc = main(["region", str(cpath), "--grid", "6", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,z,t"
        assert len(lines) > 10

    def test_capacity_command(self, tmp_path, capsys):
        xpath = tmp_path / "x.json"
        serialize.write_observable_file(xpath, sic_tetrahedron())
        rc = main(["capacity", str(xpath), "--restarts", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0 < report["results"]["bits"] <= 2.0
        assert len(report["results"]["ensemble"]["priors"]) >= 2

    @pytest.mark.parametrize("restarts", ["-5", "0"])
    def test_capacity_restarts_below_one_is_usage_error(self, tmp_path, capsys, restarts):
        xpath = tmp_path / "x.json"
        serialize.write_observable_file(xpath, sic_tetrahedron())
        assert main(["capacity", str(xpath), "--restarts", restarts]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err and "Traceback" not in err

    def test_capacity_bound_is_holevo_bound(self, tmp_path, capsys):
        # three outcomes on a qubit carry at most log2(2) = 1 bit
        xpath = tmp_path / "x.json"
        trivial = DiscreteObservable.from_effects([np.eye(2, dtype=complex) / 3] * 3)
        serialize.write_observable_file(xpath, trivial)
        assert main(["capacity", str(xpath), "--restarts", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["upper_bound_bits"] == 1.0

    @staticmethod
    def _report_case(tmp_path, case):
        """The argv of one report case on freshly written files, and the
        paths its report must name."""
        from qichan.catalog import antisym_joint_channel, basis_observable, bitflip3_channel, repetition_code

        paths = {name: str(tmp_path / f"{name}.json") for name in _CASE_FILES}
        serialize.write_channel_file(paths["channel"], dephasing_channel(2))
        serialize.write_channel_file(paths["bitflip"], bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        serialize.write_channel_file(paths["joint"], antisym_joint_channel())
        serialize.write_code_file(paths["code"], repetition_code())
        serialize.write_observable_file(paths["x"], basis_observable(2))
        serialize.write_observable_file(paths["gamma"], sic_tetrahedron())
        argv, inputs = _REPORT_CASES[case]
        return [a.format(**paths) for a in argv], {name: paths[f] for name, f in inputs.items()}

    @pytest.mark.parametrize("case", list(_REPORT_CASES))
    def test_report_names_the_files_read(self, tmp_path, capsys, case):
        argv, inputs = self._report_case(tmp_path, case)
        assert main(argv) in (0, 2)
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {
            name: {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
            for name, path in inputs.items()
        }

    @pytest.mark.parametrize("case", list(_REPORT_CASES))
    def test_report_determinism_modulo_timestamp(self, tmp_path, capsys, case):
        argv, _ = self._report_case(tmp_path, case)
        main(argv + ["--seed", "3"])
        first = capsys.readouterr().out
        main(argv + ["--seed", "3"])
        second = capsys.readouterr().out
        assert _strip_timestamp(first) == _strip_timestamp(second)

    @pytest.mark.parametrize("case", list(_REPORT_CASES))
    def test_out_dir_default_names(self, tmp_path, capsys, case):
        argv, _ = self._report_case(tmp_path, case)
        out = tmp_path / "out"
        out.mkdir()
        main(argv + ["--out", str(out)])
        assert capsys.readouterr().out == ""
        names = {p.name for p in out.iterdir()}
        if argv[0] == "example":  # its artifacts: test_example_out_dir_names
            assert f"{argv[1]}.report.json" in names
        else:
            assert names == {f"{argv[0]}.json"}

    @pytest.mark.parametrize("command", ["sweep", "region"])
    def test_out_dir_default_csv_name(self, tmp_path, capsys, command):
        argv, _ = self._report_case(tmp_path, command)
        out = tmp_path / "out"
        out.mkdir()
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert [p.name for p in out.iterdir()] == [f"{command}.csv"]

    @pytest.mark.parametrize(
        "name, files",
        [
            ("bitflip3", ["bitflip3.channel.channel.json", "bitflip3.code.code.json"]),
            ("diamonds-2", ["diamonds-2.channel.channel.json", "diamonds-2.pointer.observable.json",
                            "diamonds-2.region.csv"]),
            ("sweep", ["sweep.projectors.observable.json", "sweep.gamma.csv"]),
        ],
    )
    def test_example_out_dir_names(self, tmp_path, capsys, name, files):
        out = tmp_path / "out"
        assert main(["example", name, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert {p.name for p in out.iterdir()} == {f"{name}.report.json", *files}
        report = json.loads((out / f"{name}.report.json").read_text())
        assert report["command"] == "example" and report["results"]["example"] == name

    @staticmethod
    def _direct_table(name):
        """The table an example writes, from a direct call: its key, the
        region points of the channel or the rows of the sweep."""
        from qichan.decoherence import dephasing_sweep, effect_region_sample

        bundle = catalog.example_catalog(name)
        if name == "sweep":
            n_env, total_time, steps = (bundle.params[k] for k in ("N", "T", "steps"))
            projs = list(bundle.observables["projectors"].effects)
            sweep = dephasing_sweep(projs, n_env, total_time, np.linspace(0.0, total_time, steps))
            return "gamma_rows", np.array(sweep.rows(), dtype=np.float64)
        return "region_points", effect_region_sample(bundle.channels["channel"], 12)

    @pytest.mark.parametrize("name, table", [("diamonds-2", "region"), ("sweep", "gamma")])
    def test_example_table_written_once(self, tmp_path, name, table):
        key, want = self._direct_table(name)
        out = tmp_path / "out"
        assert main(["example", name, "--out", str(out)]) == 0
        results = json.loads((out / f"{name}.report.json").read_text())["results"]
        assert results[key] == f"{name}.{table}.csv"
        lines = (out / results[key]).read_text().splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # %.17g re-parses to the same doubles
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["diamonds-2", "sweep"])
    def test_example_table_on_stdout_without_out(self, capsys, name):
        key, want = self._direct_table(name)
        assert main(["example", name]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert np.array_equal(np.array(results[key], dtype=np.float64), want)

    def test_oqec_command(self, tmp_path, capsys):
        from qichan.catalog import bitflip3_channel, repetition_code

        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        rc = main(["oqec", str(cpath), "--code", str(kpath), "--split", "2,1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["passes"] is True
        assert report["results"]["split"] == [2, 1]

    def test_correct_with_code_emits_operator_system(self, tmp_path, capsys):
        from qichan.catalog import bitflip3_channel, repetition_code

        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        rc = main(["correct", str(cpath), "--code", str(kpath)])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["code_algebra"]["block_dims"] == [[2, 1]]
        assert len(results["operator_system_basis"]) == 4
        assert results["residuals"]["fixed_point"] < 1e-7
        assert results["residuals"]["block_pattern"] < 1e-7

    def test_correct_with_code_decomposes_each_algebra_once(self, tmp_path, capsys, monkeypatch):
        # the channel's algebra and the restricted channel's, one call each
        from qichan import correction
        from qichan.catalog import bitflip3_channel, repetition_code

        calls = []
        decompose = correction.structure_decompose

        def counted(*args, **kwargs):
            calls.append(args[0].dim)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(correction, "structure_decompose", counted)
        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        assert main(["correct", str(cpath), "--code", str(kpath)]) == 0
        capsys.readouterr()
        assert calls == [8, 2]

    def test_pointer_and_broadcast_commands(self, tmp_path, capsys):
        from qichan.catalog import antisym_joint_channel

        cpath = tmp_path / "deph.json"
        serialize.write_channel_file(cpath, dephasing_channel(2))
        assert main(["pointer", str(cpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["pointer_algebra"]["block_dims"] == [[1, 1], [1, 1]]

        jpath = tmp_path / "joint.json"
        serialize.write_channel_file(jpath, antisym_joint_channel())
        assert main(["broadcast", str(jpath), "--dims", "3,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["broadcast_algebra"]["block_dims"] == [[1, 3]]

    def test_seed_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QICHAN_SEED", "17")
        from qichan import cli as cli_mod

        parser = cli_mod._parser_and_seed()[0]
        args = parser.parse_args(["preserved", self._channel_file(tmp_path)])
        assert args.seed == 17

    def test_seed_env_read_at_each_call(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process; the seed default must not stick
        path = self._channel_file(tmp_path)
        seeds = []
        for value in ("23", "41"):
            monkeypatch.setenv("QICHAN_SEED", value)
            assert main(["preserved", path]) == 0
            seeds.append(json.loads(capsys.readouterr().out)["seed"])
        monkeypatch.delenv("QICHAN_SEED")
        assert main(["preserved", path]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["seed"])
        assert seeds == [23, 41, 0]

    def test_malformed_seed_env_is_usage_error(self, tmp_path, capsys, monkeypatch):
        path = self._channel_file(tmp_path)
        for value in ("abc", "-3"):
            monkeypatch.setenv("QICHAN_SEED", value)
            rc = main(["preserved", path])
            out, err = capsys.readouterr()
            assert rc == 1, value
            assert out == "" and "usage:" in err and "Traceback" not in err

    def test_tolerance_defaults_are_the_library_defaults(self):
        from qichan import cli as cli_mod
        from qichan.numlin import DEFAULT_TOL

        args = cli_mod._parser_and_seed()[0].parse_args(["preserved", "x.json"])
        assert (args.tol, args.rank_rel) == (DEFAULT_TOL.abs_eps, DEFAULT_TOL.rank_rel)

    def test_samples_where_read(self):
        from qichan import cli as cli_mod

        parser = cli_mod._parser_and_seed()[0]
        args = parser.parse_args(["classical", "x.json", "--gamma", "g.json", "--samples", "8"])
        assert args.samples == 8

    @pytest.mark.parametrize(
        "argv",
        [
            ["kl", "{channel}"],
            ["oqec", "{channel}", "--code", "{code}", "--split", "2"],
            ["broadcast", "{channel}", "--dims", "2,x"],
            ["sweep", "--times", "a"],
            ["preserved", "{channel}", "--format", "csv"],
            ["pointer", "{channel}", "--samples", "8"],
            ["sweep", "--steps", "-1"],
            ["sweep", "--total-time", "0"],
            ["sweep", "--env-size", "0"],
            ["region", "{channel}", "--grid", "0"],
            ["classical", "{channel}", "--gamma", "{channel}", "--samples", "0"],
            ["example", "sic-cloner", "--samples", "8"],
            ["preserved", "{channel}", "--tol", "0"],
            ["sweep", "--rank-rel", "nan"],
            ["classical", "{channel}", "--gamma", "{channel}", "--feas-tol", "nan"],
            ["classical", "{channel}", "--gamma", "{channel}", "--feas-tol", "inf"],
            ["classical", "{channel}", "--gamma", "{channel}", "--feas-tol", "-1"],
            ["broadcast", "{channel}", "--dims=-2,-4"],
            ["oqec", "{channel}", "--code", "{code}", "--split=-1,-2"],
            ["sweep", "--times", "0,nan"],
            ["sweep", "--times", "0,inf"],
            ["preserved", "{channel}", "--seed", "-1"],
        ],
        ids=[
            "kl-without-code", "split", "dims", "times", "format-unread", "samples-unread",
            "steps-negative", "total-time-zero", "env-size-zero", "grid-zero",
            "classical-samples-zero", "example-samples-unread", "tol-zero", "rank-rel-nan",
            "feas-tol-nan", "feas-tol-inf", "feas-tol-negative", "dims-negative",
            "split-negative", "times-nan", "times-inf", "seed-negative",
        ],
    )
    def test_usage_errors_exit_one(self, tmp_path, capsys, argv):
        code = tmp_path / "code.json"
        serialize.write_code_file(code, CodeSubspace.from_isometry(np.eye(2, dtype=complex)))
        paths = {"channel": self._channel_file(tmp_path), "code": str(code)}
        rc = main([a.format(**paths) for a in argv])
        out, err = capsys.readouterr()
        assert rc == 1
        # nothing ran, so no report was written
        assert out == "" and "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("feas_tol", ["nan", "inf"])
    def test_meaningless_feas_tol_is_no_verdict(self, tmp_path, capsys, feas_tol):
        # Z-basis observable against the SIC tetrahedron: infeasible, exit 2
        # by default; a tolerance that is no finite number > 0 must not turn
        # it into a "yes"
        x, gamma = tmp_path / "z.json", tmp_path / "sic.json"
        serialize.write_observable_file(x, catalog.basis_observable(2))
        serialize.write_observable_file(gamma, sic_tetrahedron())
        argv = ["classical", str(x), "--gamma", str(gamma)]
        assert main(argv) == 2
        capsys.readouterr()
        assert main(argv + ["--feas-tol", feas_tol]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage:" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_percent_in_input_path(self, tmp_path, capsys):
        path = tmp_path / "a%sb%%.json"
        serialize.write_channel_file(path, dephasing_channel(2))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.dumps(str(path)) in out
        assert json.loads(out)["inputs"]["input"]["path"] == str(path)

    def test_console_entry_point(self, tmp_path):
        path = self._channel_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "qichan", "validate", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["valid"] is True


@pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64(-np.inf)], ids=["nan", "inf", "numpy-inf"])
def test_refusals(value):
    with pytest.raises(ValueError):
        serialize.format_scalar(value)
