"""Canonical encoding: round-trip, determinism, injectivity, rejection."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import encoding
from repro.errors import DecodingError, EncodingError

# A recursive strategy over every supported wire shape.  Lists become
# tuples on decode, so the strategy generates tuples directly for exact
# round-trip comparison.
wire_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.tuples(children, children)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=25,
)


class TestRoundTrip:
    @given(wire_values)
    @settings(max_examples=300)
    def test_decode_inverts_encode(self, value):
        assert encoding.decode(encoding.encode(value)) == value

    @given(wire_values)
    def test_encoding_is_deterministic(self, value):
        assert encoding.encode(value) == encoding.encode(value)

    def test_lists_normalise_to_tuples(self):
        assert encoding.decode(encoding.encode([1, 2, 3])) == (1, 2, 3)

    def test_dict_order_does_not_matter(self):
        forward = {"a": 1, "b": 2, "c": 3}
        backward = {"c": 3, "b": 2, "a": 1}
        assert encoding.encode(forward) == encoding.encode(backward)

    @pytest.mark.parametrize(
        "value",
        [
            0,
            -1,
            1,
            2**70,
            -(2**70),
            b"",
            "",
            (),
            {},
            None,
            True,
            False,
            {"k": (None, b"\x00", -5)},
        ],
    )
    def test_edge_values_round_trip(self, value):
        assert encoding.decode(encoding.encode(value)) == value


class TestInjectivity:
    @given(wire_values, wire_values)
    @settings(max_examples=300)
    def test_distinct_values_encode_distinctly(self, a, b):
        if a != b:
            assert encoding.encode(a) != encoding.encode(b)

    def test_bool_and_int_distinguished(self):
        # bool is an int subclass in Python; the encoding must separate them
        # or signature payloads could be confused.
        assert encoding.encode(True) != encoding.encode(1)
        assert encoding.encode(False) != encoding.encode(0)

    def test_bytes_and_str_distinguished(self):
        assert encoding.encode(b"ab") != encoding.encode("ab")

    def test_empty_containers_distinguished(self):
        assert encoding.encode(()) != encoding.encode({})


class TestRejection:
    def test_unsupported_type_raises(self):
        with pytest.raises(EncodingError):
            encoding.encode(object())

    def test_float_is_not_supported(self):
        # Floats are excluded on purpose: they are not canonical across
        # platforms and no protocol payload needs them.
        with pytest.raises(EncodingError):
            encoding.encode(1.5)

    def test_trailing_garbage_rejected(self):
        data = encoding.encode(42) + b"x"
        with pytest.raises(DecodingError):
            encoding.decode(data)

    def test_truncated_input_rejected(self):
        data = encoding.encode((1, "abc", b"xyz"))
        for cut in range(1, len(data)):
            with pytest.raises(DecodingError):
                encoding.decode(data[:cut])

    def test_empty_input_rejected(self):
        with pytest.raises(DecodingError):
            encoding.decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(DecodingError):
            encoding.decode(b"Z")

    def test_unknown_object_name_rejected(self):
        # Tag 'O' + name "nope" + a None payload.
        data = b"O" + bytes([4]) + b"nope" + b"N"
        with pytest.raises(DecodingError):
            encoding.decode(data)

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_fuzzing_never_crashes_differently(self, blob):
        # Arbitrary bytes either decode to a value or raise DecodingError —
        # never any other exception (protocols feed network bytes here).
        try:
            encoding.decode(blob)
        except DecodingError:
            pass


class TestCodecRegistry:
    def test_duplicate_name_rejected(self):
        class Dummy:
            pass

        encoding.register_codec(Dummy, "test.DummyUnique", lambda d: None, lambda p: Dummy())
        class Other:
            pass

        with pytest.raises(EncodingError):
            encoding.register_codec(Other, "test.DummyUnique", lambda d: None, lambda p: Other())

    def test_reregistering_same_pair_is_idempotent(self):
        class Dummy2:
            pass

        encoding.register_codec(Dummy2, "test.Dummy2", lambda d: None, lambda p: Dummy2())
        encoding.register_codec(Dummy2, "test.Dummy2", lambda d: None, lambda p: Dummy2())

    def test_byte_size_matches_encoding_length(self):
        value = {"k": (1, 2, 3), "b": b"\x00" * 10}
        assert encoding.byte_size(value) == len(encoding.encode(value))


@dataclass(frozen=True)
class _Box:
    """A registered wire value that takes a wire stash."""

    value: Any


class _SlottedBox:
    """A registered wire value that cannot take one (no ``__dict__``)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


encoding.register_codec(_Box, "test.Box", lambda box: box.value, _Box)
encoding.register_codec(_SlottedBox, "test.SlottedBox", lambda box: box.value, _SlottedBox)


class _Tag(enum.IntEnum):
    ONE = 1


def _outcome(size_of, value):
    """A size, or the error it raised, as a comparable value."""
    try:
        return size_of(value)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


#: Every wire shape plus registered objects, huge ints, non-ASCII and
#: unpaired-surrogate strings, and unencodable leaves (floats, sets), so
#: the errors are compared too.
sized_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**2000), max_value=2**2000)
    | st.binary(max_size=300)
    | st.text(max_size=40)
    | st.text(st.characters(codec=None), max_size=4)
    | st.sampled_from([1.5, frozenset({1}), _Tag.ONE]),
    lambda children: st.tuples(children, children)
    | st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.builds(_Box, children)
    | st.builds(_SlottedBox, children),
    max_leaves=25,
)


class TestByteSize:
    @given(sized_values)
    @settings(max_examples=200)
    def test_byte_size_is_the_encoded_length(self, value):
        """Cold (no registered object stashed yet), then after an encode
        has stashed them: the same size, or the same error, as
        ``len(encode(value))``."""
        cold = _outcome(encoding.byte_size, value)
        expected = _outcome(lambda v: len(encoding.encode(v)), value)
        assert cold == expected
        assert _outcome(encoding.byte_size, value) == expected

    @pytest.mark.parametrize(
        "value",
        [
            {"k": 1.5},
            ({"a": 1}, {"b": {2}}),
            _Box({"x": 1.5}),
            "\ud800",
            ("ok", "caf\u00e9", "\ud800"),
        ],
    )
    def test_errors_are_the_encoders(self, value):
        with pytest.raises(Exception) as sized:
            encoding.byte_size(value)
        with pytest.raises(Exception) as encoded:
            encoding.encode(value)
        assert (type(sized.value), str(sized.value)) == (
            type(encoded.value), str(encoded.value),
        )

    def test_sizing_leaves_the_scalar_memo_alone(self):
        encoding._SCALAR_CACHE.clear()
        encoding.byte_size((7, "kind", b"\x00" * 8, -(2**70)))
        assert encoding._SCALAR_CACHE == {}
