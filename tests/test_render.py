"""The JSON renderer of report.json and manifest.json against the converter
it replaced, `_json` below, whose tree json.dumps(..., indent=2) wrote:
the same bytes for every value of the types a stage produces, and a
TypeError for every other type."""

import collections
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involstab import verifier
from involstab.verifier import _UNREPORTED


def _json(value):
    """A stage result as JSON data: a dataclass becomes its fields in
    declaration order (`passed` written as `pass`), a probe row a flat list of
    [re, im] pairs, and an infinite float the string "inf", which strict JSON
    needs in place of an infinity literal."""
    if isinstance(value, np.ndarray):
        return [_json(z) for z in value.reshape(-1).tolist()]
    if dataclasses.is_dataclass(value):
        return {("pass" if f.name == "passed" else f.name): _json(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name not in _UNREPORTED}
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def outcome(write, value):
    try:
        return write(value)
    except TypeError:
        return TypeError


def oracle(value):
    return outcome(lambda v: json.dumps(_json(v), indent=2), value)


def rendered(value):
    return outcome(verifier._render, value)


@dataclasses.dataclass
class Entry:
    name: str
    passed: bool
    value: object
    per_probe: list


@dataclasses.dataclass
class Unreported:
    law: str


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-05,
                     1e16, 1e22, 0.1, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True))
STRINGS = st.one_of(st.text(), st.sampled_from(
    ["", "\x00\x1f\x7f", "é", " ", "\ud800", '"\\/', "\U0001f600", "pass"]))
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 200),
                 st.integers(max_value=-2 ** 63, min_value=-2 ** 200))
# Values json.dumps writes by itself; inside lists only these are written,
# with its own rules.
PLAIN = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=12)
COMPLEX = st.builds(complex, FLOATS, FLOATS)
ARRAYS = st.one_of(
    st.lists(COMPLEX, max_size=5).map(lambda v: np.array(v, dtype=np.complex128)),
    st.lists(COMPLEX, min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=np.complex128).reshape(2, 2)))
# Stage results: dicts and dataclasses of the exact types a stage produces,
# whose complex128 arrays, complex numbers and floats the renderer converts.
RESULTS = st.recursive(
    st.one_of(PLAIN, COMPLEX, ARRAYS, st.builds(Unreported, STRINGS)),
    lambda inner: st.one_of(
        st.dictionaries(STRINGS, inner, max_size=4),
        st.builds(Entry, STRINGS, st.booleans(), inner, st.lists(FLOATS, max_size=2))),
    max_leaves=16)

# Values json.dumps rejects too.
UNWRITABLE = [np.int64(1), np.bool_(True), {1, 2}, object(), b"x", {"x": np.float32(0.5)},
              [np.int64(1)]]
# Values json.dumps writes but no stage produces: numpy scalars, a tuple, a
# float array and a dict subclass.
UNPRODUCED = [np.float64(0.5), np.complex128(1 - 2j), (1.0, "a"), np.array([0.5, math.inf]),
              collections.OrderedDict(a=1.0)]


class TestRender:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(RESULTS)
    def test_bytes_of_json_dumps(self, value):
        want = oracle(value)
        assert want is not TypeError
        assert rendered(value) == want

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(st.one_of(PLAIN, COMPLEX, ARRAYS, st.builds(Unreported, STRINGS)),
                    min_size=1, max_size=3))
    def test_lists_as_json_dumps_writes_them(self, value):
        # A list gets no "inf" rule, and json.dumps rejects a complex number,
        # an array or a dataclass in it.
        for container in (value, {"k": value}):
            assert rendered(container) == oracle(container)

    @pytest.mark.parametrize("value", UNWRITABLE + UNPRODUCED)
    def test_other_types_are_type_errors(self, value):
        unwritable = any(value is v for v in UNWRITABLE)
        assert (oracle(value) is TypeError) == unwritable
        # The renderer's own error names the type.
        with pytest.raises(TypeError, match=None if unwritable else f"{type(value).__name__}$"):
            verifier._render(value)

    def test_inf_rule(self):
        # A float +inf or -inf is "inf", and NaN is NaN; the parts of a
        # complex number, and a list's floats, are json.dumps' literals.
        value = {"a": [math.inf, -math.inf], "b": complex(math.inf, -math.inf),
                 "c": -math.inf, "d": math.nan, "e": np.array([math.inf], dtype=np.complex128)}
        assert json.loads(verifier._render(value), parse_constant=str) == {
            "a": ["Infinity", "-Infinity"], "b": ["Infinity", "-Infinity"], "c": "inf",
            "d": "NaN", "e": [["Infinity", 0.0]]}
        assert verifier._render(value) == oracle(value)
