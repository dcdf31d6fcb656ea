"""Canonical, deterministic byte encoding of structured wire values.

Signatures operate on byte strings, but the paper's protocols sign
*structured* values such as ``{P_i, P_j, r}`` (a challenge naming two nodes
and a nonce) and nested chain-signed messages.  This module provides the
bridge: a total, injective, deterministic mapping from a closed set of
Python value shapes to bytes, with an exact inverse.

Determinism matters twice over:

* two nodes must derive byte-identical encodings for the same logical value,
  otherwise signature verification would fail between correct nodes; and
* dictionary encodings must not depend on insertion order, so keys are
  sorted by their own encoding.

Supported shapes
----------------
``None``, ``bool``, ``int`` (arbitrary precision, signed), ``bytes``,
``str``, sequences (``list``/``tuple``, decoded as ``tuple``), ``dict`` with
sorted keys, and *registered objects*: dataclass-like types registered via
:func:`register_codec` travel as a tagged (type-name, payload) pair.

The format is a compact tag-length-value scheme with unsigned LEB128
varints for lengths.  It is a private wire format, not an interoperability
standard; its only contracts are injectivity and round-tripping, which the
property tests in ``tests/crypto/test_encoding.py`` enforce.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import DecodingError, EncodingError

# Wire tags.  One byte each.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_SEQ = b"L"
_TAG_DICT = b"D"
_TAG_OBJ = b"O"

# Registered object codecs: type -> (name, to_payload); name -> (type, from_payload).
_TO_WIRE: dict[type, tuple[str, Callable[[Any], Any]]] = {}
_FROM_WIRE: dict[str, Callable[[Any], Any]] = {}

# Instance attribute under which a registered object's full wire encoding is
# stashed after its first encode.  Wire values are immutable by library
# discipline (frozen dataclasses holding scalars/tuples), which makes the
# stash safe; `__getstate__` on the registered types strips it so pickles
# stay canonical.
WIRE_CACHE_ATTR = "_repro_wire_bytes"

# Scalar-encoding memo for the common scalar shapes (kind tags, node ids,
# nonces, signatures).  Keys carry the concrete type so bool/int (and any
# future scalar subclasses) never collide.  Bounded to one run's working set
# (PERFORMANCE.md, "Caching invariants"): cleared wholesale when full.
_SCALAR_CACHE: dict[tuple[type, Any], bytes] = {}
_SCALAR_CACHE_MAX = 1 << 12
_SCALAR_TYPES = (int, str, bytes)


def register_codec(
    cls: type,
    name: str,
    to_payload: Callable[[Any], Any],
    from_payload: Callable[[Any], Any],
    size: Callable[[Any], int] | None = None,
) -> None:
    """Register a codec so instances of ``cls`` can travel on the wire.

    :param cls: the Python type to encode.
    :param name: a stable wire name; must be unique across the process.
    :param to_payload: maps an instance to an encodable payload value.
    :param from_payload: maps a decoded payload back to an instance.
    :param size: optional ``len(encode(instance))`` computed without
        encoding, for :func:`byte_size`; without it an instance is sized
        from its wire stash, encoding it first if it has none.
    :raises EncodingError: if ``name`` or ``cls`` is already registered
        with a different codec.
    """
    if name in _FROM_WIRE and _TO_WIRE.get(cls, (None,))[0] != name:
        raise EncodingError(f"wire name {name!r} already registered")
    if cls in _TO_WIRE and _TO_WIRE[cls][0] != name:
        raise EncodingError(f"type {cls!r} already registered as {_TO_WIRE[cls][0]!r}")
    _TO_WIRE[cls] = (name, to_payload)
    _FROM_WIRE[name] = from_payload
    _ENCODERS[cls] = _enc_registered
    _SIZERS[cls] = size if size is not None else _size_registered


def _write_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint at ``pos``; return (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DecodingError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # Arbitrary-precision ints are legitimate (RSA moduli are 512+
        # bits); the bound only exists to stop a hostile peer streaming an
        # unbounded varint.  16384 bits is far above any key material.
        if shift > 16384:
            raise DecodingError("varint too long")


def _scalar_encoding(value: Any) -> bytes:
    """Canonical encoding of an int/str/bytes scalar.

    Most scalars recur within a run (kind tags and node ids in every
    body; a nonce or a signature each time a body naming it, or a chain
    nesting it, is encoded), so everything small enough is memoized;
    only long byte strings are encoded directly to keep the memo light.
    """
    if isinstance(value, int):
        key = (int, value)
    elif isinstance(value, bytes):
        if len(value) <= 64:
            key = (bytes, value)
        else:
            out = bytearray(_TAG_BYTES)
            _write_uvarint(len(value), out)
            out += value
            return bytes(out)
    else:
        key = (str, value)
    cached = _SCALAR_CACHE.get(key)
    if cached is None:
        out = bytearray()
        if isinstance(value, int):
            out += _TAG_INT
            # Zig-zag map signed -> unsigned so varints stay compact.
            zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
            _write_uvarint(zigzag, out)
        elif isinstance(value, bytes):
            out += _TAG_BYTES
            _write_uvarint(len(value), out)
            out += value
        else:
            raw = value.encode("utf-8")
            out += _TAG_STR
            _write_uvarint(len(raw), out)
            out += raw
        cached = bytes(out)
        if len(_SCALAR_CACHE) >= _SCALAR_CACHE_MAX:
            _SCALAR_CACHE.clear()
        _SCALAR_CACHE[key] = cached
    return cached


def _enc_none(value: Any, out: bytearray) -> None:
    out += _TAG_NONE


def _enc_bool(value: Any, out: bytearray) -> None:
    out += _TAG_TRUE if value else _TAG_FALSE


def _enc_scalar(value: Any, out: bytearray) -> None:
    out += _scalar_encoding(value)


def _enc_seq(value: Any, out: bytearray) -> None:
    out += _TAG_SEQ
    _write_uvarint(len(value), out)
    encoders = _ENCODERS
    for item in value:
        handler = encoders.get(type(item))
        if handler is not None:
            handler(item, out)
        else:
            _encode_slow(item, out)


def _enc_registered(value: Any, out: bytearray) -> None:
    cached = getattr(value, WIRE_CACHE_ATTR, None)
    if cached is not None:
        out += cached
        return
    name, to_payload = _TO_WIRE[type(value)]
    start = len(out)
    out += _TAG_OBJ
    raw = name.encode("utf-8")
    _write_uvarint(len(raw), out)
    out += raw
    _encode_into(to_payload(value), out)
    try:
        object.__setattr__(value, WIRE_CACHE_ATTR, bytes(out[start:]))
    except (AttributeError, TypeError):
        pass  # slotted or otherwise uncacheable instances encode fine


# Exact-type dispatch for the hot shapes; subclasses (bool-before-int
# ordering, IntEnum and friends) fall through to the isinstance chain in
# ``_encode_slow``.  Registered codecs are added by ``register_codec``.
_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_scalar,
    str: _enc_scalar,
    bytes: _enc_scalar,
    tuple: _enc_seq,
    list: _enc_seq,
}


def _encode_into(value: Any, out: bytearray) -> None:
    handler = _ENCODERS.get(type(value))
    if handler is not None:
        handler(value, out)
    else:
        _encode_slow(value, out)


def _encode_slow(value: Any, out: bytearray) -> None:
    # bool must be tested before int: bool is a subclass of int.
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, _SCALAR_TYPES):
        out += _scalar_encoding(value)
    elif isinstance(value, (list, tuple)):
        out += _TAG_SEQ
        _write_uvarint(len(value), out)
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out += _TAG_DICT
        _write_uvarint(len(value), out)
        encoded_items = []
        for key, item in value.items():
            key_buf = bytearray()
            _encode_into(key, key_buf)
            item_buf = bytearray()
            _encode_into(item, item_buf)
            encoded_items.append((bytes(key_buf), bytes(item_buf)))
        encoded_items.sort(key=lambda pair: pair[0])
        for index in range(1, len(encoded_items)):
            if encoded_items[index][0] == encoded_items[index - 1][0]:
                raise EncodingError("duplicate dict keys after canonicalisation")
        for key_bytes, item_bytes in encoded_items:
            out += key_bytes
            out += item_bytes
    elif type(value) in _TO_WIRE:
        _enc_registered(value, out)
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Encode ``value`` canonically.

    The encoding is deterministic: equal values (after tuple/list
    normalisation) produce identical bytes, regardless of dict insertion
    order or process state.

    :raises EncodingError: for unsupported types or non-canonical dicts.
    """
    # Fast paths for the most common whole-value shapes: scalars hit the
    # memo directly, registered objects their stashed wire bytes.
    if value is not True and value is not False and isinstance(value, _SCALAR_TYPES):
        return _scalar_encoding(value)
    cached = getattr(value, WIRE_CACHE_ATTR, None)
    if cached is not None and type(value) in _TO_WIRE:
        return cached
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _decode_at(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise DecodingError("truncated value")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        zigzag, pos = _read_uvarint(data, pos)
        value = (zigzag >> 1) if not zigzag & 1 else -((zigzag + 1) >> 1)
        return value, pos
    if tag == _TAG_BYTES:
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise DecodingError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag == _TAG_STR:
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise DecodingError("truncated string")
        try:
            return data[pos : pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise DecodingError("invalid utf-8 in string") from exc
    if tag == _TAG_SEQ:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_DICT:
        count, pos = _read_uvarint(data, pos)
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_at(data, pos)
            item, pos = _decode_at(data, pos)
            try:
                if key in result:
                    raise DecodingError("duplicate dict key")
            except TypeError as exc:
                raise DecodingError(f"unhashable dict key {key!r}") from exc
            result[key] = item
        return result, pos
    if tag == _TAG_OBJ:
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise DecodingError("truncated object name")
        name = data[pos : pos + length].decode("utf-8", errors="replace")
        pos += length
        if name not in _FROM_WIRE:
            raise DecodingError(f"unknown wire object type {name!r}")
        payload, pos = _decode_at(data, pos)
        try:
            return _FROM_WIRE[name](payload), pos
        except DecodingError:
            raise
        except Exception as exc:
            raise DecodingError(f"payload rejected for {name!r}: {exc}") from exc
    raise DecodingError(f"unknown tag {tag!r}")


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`.

    Sequences come back as tuples; all other shapes round-trip exactly.

    :raises DecodingError: if ``data`` is not a complete canonical encoding.
    """
    value, pos = _decode_at(data, 0)
    if pos != len(data):
        raise DecodingError(f"{len(data) - pos} trailing bytes after value")
    return value


def byte_size(value: Any) -> int:
    """The canonical encoded size of ``value`` in bytes: ``len(encode(value))``
    without building the bytes.

    Used by the simulator's metrics to account bytes-on-wire at send time
    (experiment E9), so it walks the value with the additive encoding rule
    (``tag + varint(length) + items``) and touches no scalar memo: an int
    is sized from its ``bit_length``, an ASCII string from its ``len``, a
    registered object by its codec's ``size`` hook or else from its wire
    stash.  Every other shape (dicts, non-ASCII strings, subclasses,
    stash-less registered objects without a hook) is encoded, so it
    raises exactly what :func:`encode` raises.
    """
    sizer = _SIZERS.get(type(value))
    if sizer is not None:
        return sizer(value)
    return len(encode(value))


def _size_int(value: int) -> int:
    zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
    return 1 + ((zigzag.bit_length() + 6) // 7 or 1)


# Strings, byte strings and sequences are a tag, a varint length and the
# items: the header is two bytes below 128, the common case, inlined.
def _size_str(value: str) -> int:
    if not value.isascii():
        return len(encode(value))
    length = len(value)
    return length + (2 if length < 0x80 else 1 + uvarint_size(length))


def _size_bytes(value: bytes) -> int:
    length = len(value)
    return length + (2 if length < 0x80 else 1 + uvarint_size(length))


def _size_seq(value: Any) -> int:
    length = len(value)
    total = 2 if length < 0x80 else 1 + uvarint_size(length)
    sizers = _SIZERS
    for item in value:
        sizer = sizers.get(type(item))
        total += sizer(item) if sizer is not None else len(encode(item))
    return total


def _size_registered(value: Any) -> int:
    cached = getattr(value, WIRE_CACHE_ATTR, None)
    return len(cached) if cached is not None else len(encode(value))


# Exact-type dispatch, as ``_ENCODERS``; ``register_codec`` adds
# ``_size_registered`` for each registered type.
_SIZERS: dict[type, Callable[[Any], int]] = {
    type(None): lambda value: 1,
    bool: lambda value: 1,
    int: _size_int,
    str: _size_str,
    bytes: _size_bytes,
    tuple: _size_seq,
    list: _size_seq,
}


def uvarint_size(value: int) -> int:
    """Encoded length of an unsigned LEB128 varint, in bytes.

    The encoding is additive (every container is ``tag + varint(length) +
    concatenated item encodings``), so callers holding per-item byte sums
    can derive a container's exact size without encoding it; the succinct
    EIG engine uses this to account compressed reports at their dense
    equivalent size.

    :raises EncodingError: for negative values (not encodable).
    """
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size
