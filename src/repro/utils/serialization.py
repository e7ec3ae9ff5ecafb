"""Parameter (de)serialization shared by Link and checkpoints.

State travels between Photon components in three forms:

* flat ``float32`` vectors — for arithmetic (averaging, masking,
  pseudo-gradients) and for the FSDP parameter sharding;
* the tree container (:func:`pack_tree` / :func:`unpack_tree`) — the
  only bytes ⇄ state-tree code in the repository: Link and codec
  payloads, RunState and weights checkpoints and replica snapshots are
  all this one dtype-exact, checksummed format;
* compressed byte payloads — a float32 state dict in that container
  behind zlib: what the Link actually "transmits", enabling exact
  accounting of communication volume.  Lossless per the paper ("Photon
  uses lossless compression techniques without pruning").
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

__all__ = [
    "state_to_vector",
    "vector_to_state",
    "state_bytes",
    "PayloadError",
    "pack_tree",
    "unpack_tree",
    "deflate",
    "encode_state",
    "decode_state",
    "tree_add",
    "tree_scale",
    "tree_sub",
    "tree_mean",
    "tree_zeros_like",
    "tree_norm",
]

StateDict = dict[str, np.ndarray]


def state_to_vector(state: StateDict) -> np.ndarray:
    """Flatten a state dict into one float32 vector (key-sorted)."""
    if not state:
        raise ValueError("empty state dict")
    return np.concatenate(
        [np.asarray(state[k], dtype=np.float32).reshape(-1) for k in sorted(state)]
    )


def vector_to_state(vector: np.ndarray, template: StateDict) -> StateDict:
    """Inverse of :func:`state_to_vector` given a shape template."""
    vector = np.asarray(vector, dtype=np.float32)
    expected = sum(np.asarray(v).size for v in template.values())
    if vector.size != expected:
        raise ValueError(f"vector has {vector.size} elements, template needs {expected}")
    out: StateDict = {}
    offset = 0
    for key in sorted(template):
        shape = np.asarray(template[key]).shape
        size = int(np.prod(shape)) if shape else 1
        out[key] = vector[offset : offset + size].reshape(shape).copy()
        offset += size
    return out


def state_bytes(state: StateDict, bytes_per_param: int = 4) -> int:
    """Uncompressed payload size of a state dict."""
    return bytes_per_param * sum(np.asarray(v).size for v in state.values())


class PayloadError(ValueError):
    """A serialized tree that cannot be decoded: wrong magic, checksum
    mismatch, truncation, a length that overruns the payload, an
    unknown tag or dtype, or a corrupt zlib stream."""


#: The one deflate level of every wire payload (state broadcasts, codec
#: payloads, replica snapshots).  Measured on the ledger model (README
#: "Wire and checkpoint format", *Coder*): float32 bodies barely
#: deflate at any level, and on the most compressible payload in the
#: repository (tau=1 int8 codes) level 6 costs 8x level 1's time for
#: 8 % fewer bytes.  A zlib stream records no level, so payloads
#: written at any other still decode.
ZLIB_LEVEL = 1

#: Container magic; the trailing digit versions the byte format.  Must
#: not begin with 0x78 — that is how :func:`unpack_tree` tells a bare
#: container from a zlib-deflated one.
MAGIC = b"PTC1"

_HEADER = struct.Struct("<4sII")  # magic, crc32, n (node-section bytes)
_CHECKED_FROM = 8  # the CRC32 covers every byte after itself
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_ARRAY = struct.Struct("<cBB")  # dtype kind, itemsize, ndim

#: dtype kinds the container carries (bool, signed, unsigned, float,
#: complex), always little-endian.  Object arrays would need pickle.
_KINDS = b"biufc"

_CONSTANTS = {b"N": None, b"T": True, b"F": False}

#: Decoder nesting bound: a hostile payload of nested list tags must
#: fail typed, not by exhausting the interpreter stack.
_MAX_DEPTH = 64


def _write(obj, nodes: list[bytes], data: list[np.ndarray], path: str) -> None:
    if isinstance(obj, np.ndarray):
        kind = obj.dtype.kind.encode()
        if kind not in _KINDS:
            raise TypeError(
                f"cannot pack dtype {obj.dtype} at {path or '<root>'}")
        obj = obj.astype(obj.dtype.newbyteorder("<"), copy=False)
        nodes.append(b"a" + _ARRAY.pack(kind, obj.dtype.itemsize, obj.ndim)
                     + struct.pack(f"<{obj.ndim}I", *obj.shape))
        # C-order bytes whatever the memory layout; contiguous arrays
        # are joined straight from their own buffer, uncopied.
        data.append(np.ascontiguousarray(obj).reshape(-1).view(np.uint8))
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        nodes.append(b"b" + _U32.pack(len(obj)))
        nodes.append(bytes(obj))
    elif isinstance(obj, dict):
        nodes.append(b"d" + _U32.pack(len(obj)))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"non-string dict key {key!r} at {path or '<root>'}")
            encoded = key.encode()
            nodes.append(_U16.pack(len(encoded)) + encoded)
            _write(value, nodes, data, f"{path}/{key}")
    elif isinstance(obj, (list, tuple)):
        nodes.append(b"l" + _U32.pack(len(obj)))
        for i, value in enumerate(obj):
            _write(value, nodes, data, f"{path}[{i}]")
    elif obj is None:
        nodes.append(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        nodes.append(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        obj = int(obj)
        encoded = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
        nodes.append(b"i" + _U8.pack(len(encoded)) + encoded)
    elif isinstance(obj, (float, np.floating)):
        nodes.append(b"f" + _F64.pack(obj))
    elif isinstance(obj, str):
        encoded = obj.encode()
        nodes.append(b"s" + _U32.pack(len(encoded)) + encoded)
    else:
        raise TypeError(
            f"cannot pack {type(obj).__name__} at {path or '<root>'}")


def pack_tree(tree) -> bytes:
    """Serialize a state tree into the one container every wire payload
    and checkpoint in this repository uses.

    ``tree`` nests dicts (string keys, order kept), lists/tuples (come
    back as lists), NumPy arrays (bool/int/uint/float/complex of any
    width, any shape and memory layout — dtype, shape and bits
    round-trip exactly), ``bytes``, and None/bool/int/float/str (NumPy
    scalars come back as Python scalars).  Layout::

        container := MAGIC crc32:u32 n:u32 node data
        node := "N" | "T" | "F"
              | "i" k:u8 two's-complement[k] | "f" float64
              | "s" k:u32 utf8[k]            | "b" k:u32 raw[k]
              | "l" k:u32 node*k
              | "d" k:u32 (m:u16 utf8[m] node)*k
              | "a" kind:char itemsize:u8 ndim:u8 dim:u32*ndim

    all little-endian; ``node`` is ``n`` bytes and ``data`` is every
    array's ``prod(dims) * itemsize`` bytes, C order, in node order
    (structure first, one contiguous body: adjacent array headers
    deflate better than interleaved ones, and the body is the only
    part that scales with the model).  A flat state dict therefore
    costs exactly ``17 + sum(6 + len(name) + 4 * ndim + nbytes)`` bytes.
    """
    nodes: list[bytes] = []
    data: list[np.ndarray] = []
    _write(tree, nodes, data, "")
    parts = [_U32.pack(sum(map(len, nodes))), *nodes, *data]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([MAGIC, _U32.pack(crc), *parts])


class _Cursor:
    """Bounds-checked reader over one section of a container."""

    def __init__(self, section: memoryview):
        self.section, self.pos = section, 0

    @property
    def left(self) -> int:
        return len(self.section) - self.pos

    def take(self, n: int) -> memoryview:
        if n > self.left:
            raise PayloadError(
                f"truncated container: {n} bytes wanted, {self.left} left")
        chunk = self.section[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def text(self, length: struct.Struct) -> str:
        try:
            return str(self.take(*self.unpack(length)), "utf-8")
        except UnicodeDecodeError as exc:
            raise PayloadError(f"malformed container: {exc}") from None


def _read(nodes: _Cursor, data: _Cursor, depth: int):
    if depth > _MAX_DEPTH:
        raise PayloadError(
            f"malformed container: nested deeper than {_MAX_DEPTH}")
    tag = bytes(nodes.take(1))
    if tag == b"a":
        kind, itemsize, ndim = nodes.unpack(_ARRAY)
        shape = struct.unpack(f"<{ndim}I", nodes.take(4 * ndim))
        if kind not in _KINDS:
            raise PayloadError(
                f"malformed container: unknown dtype kind {kind!r}")
        # Python ints: a hostile shape cannot overflow the product, and
        # take() refuses it before anything is allocated.
        raw = data.take(math.prod(shape) * itemsize)
        try:
            # Copied out: aligned, writable and independent of the
            # payload and of every sibling array.
            return np.frombuffer(
                raw, dtype=f"<{kind.decode()}{itemsize}").reshape(shape).copy()
        except (TypeError, ValueError) as exc:  # itemsize, ndim > 64
            raise PayloadError(f"malformed container: {exc}") from None
    if tag == b"d":
        return {nodes.text(_U16): _read(nodes, data, depth + 1)
                for _ in range(*nodes.unpack(_U32))}
    if tag == b"l":
        return [_read(nodes, data, depth + 1)
                for _ in range(*nodes.unpack(_U32))]
    if tag == b"b":
        return bytes(nodes.take(*nodes.unpack(_U32)))
    if tag == b"s":
        return nodes.text(_U32)
    if tag == b"i":
        return int.from_bytes(nodes.take(*nodes.unpack(_U8)), "little",
                              signed=True)
    if tag == b"f":
        return nodes.unpack(_F64)[0]
    if tag in _CONSTANTS:
        return _CONSTANTS[tag]
    raise PayloadError(f"malformed container: unknown tag {tag!r}")


def unpack_tree(payload) -> object:
    """Inverse of :func:`pack_tree`, for a bare or a zlib-deflated
    container.  Checks the magic, the CRC32 and every length before it
    allocates, rejects trailing bytes, and raises :class:`PayloadError`
    for anything else than a well-formed container."""
    if bytes(payload[:len(MAGIC)]) != MAGIC:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise PayloadError(
                f"neither a {MAGIC.decode()} container nor a zlib stream "
                f"of one: {exc}") from None
    whole = memoryview(payload)
    if len(whole) < _HEADER.size or whole[:len(MAGIC)] != MAGIC:
        raise PayloadError(f"not a {MAGIC.decode()} container")
    _, crc, n = _HEADER.unpack_from(whole)
    if zlib.crc32(whole[_CHECKED_FROM:]) != crc:
        raise PayloadError(
            "container checksum mismatch (truncated or corrupted payload)")
    rest = _Cursor(whole[_HEADER.size:])
    nodes, data = _Cursor(rest.take(n)), _Cursor(rest.take(rest.left))
    tree = _read(nodes, data, 0)
    if nodes.left or data.left:
        raise PayloadError(
            f"malformed container: {nodes.left} node and {data.left} data "
            "bytes left over")
    return tree


def deflate(container: bytes) -> bytes:
    """The wire's one deflate: a zlib stream at :data:`ZLIB_LEVEL`.
    Every deflated payload (state broadcasts, codec payloads, replica
    snapshots) goes through here; :func:`unpack_tree` inflates any of
    them.  Calls ``zlib.compress`` through the module attribute, so a
    profiler that rebinds it sees every call."""
    return zlib.compress(container, ZLIB_LEVEL)


def encode_state(state: StateDict, compress: bool = True) -> bytes:
    """Serialize a state dict for the Link: cast to float32 (the wire
    contract — the container itself is dtype-exact), pack, and apply
    the paper's lossless zlib unless ``compress`` is off."""
    raw = pack_tree({k: np.asarray(v, dtype=np.float32)
                     for k, v in state.items()})
    return deflate(raw) if compress else raw



def decode_state(payload: bytes) -> StateDict:
    """Inverse of :func:`encode_state`."""
    state = unpack_tree(payload)
    if not (isinstance(state, dict) and all(
            isinstance(v, np.ndarray) and v.dtype == np.float32
            for v in state.values())):
        raise PayloadError("payload is not a float32 state dict")
    return state


# ----------------------------------------------------------------------
# Tree arithmetic on state dicts (the server-side pseudo-gradient math)
# ----------------------------------------------------------------------

def tree_add(a: StateDict, b: StateDict) -> StateDict:
    _check_keys(a, b)
    return {k: a[k] + b[k] for k in a}


def tree_sub(a: StateDict, b: StateDict) -> StateDict:
    _check_keys(a, b)
    return {k: a[k] - b[k] for k in a}


def tree_scale(state: StateDict, factor: float) -> StateDict:
    return {k: v * np.float32(factor) for k, v in state.items()}


def tree_mean(states: list[StateDict], weights: list[float] | None = None) -> StateDict:
    """(Weighted) mean over state dicts — the FedAvg aggregation."""
    if not states:
        raise ValueError("tree_mean over empty list")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights and states length mismatch")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    out = tree_scale(states[0], weights[0] / total)
    for state, w in zip(states[1:], weights[1:]):
        _check_keys(out, state)
        for k in out:
            out[k] = out[k] + state[k] * np.float32(w / total)
    return out


def tree_zeros_like(state: StateDict) -> StateDict:
    return {k: np.zeros_like(v) for k, v in state.items()}


def tree_norm(state: StateDict) -> float:
    """Global L2 norm of a state dict."""
    total = 0.0
    for v in state.values():
        total += float(np.sum(np.asarray(v, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def _check_keys(a: StateDict, b: StateDict) -> None:
    if a.keys() != b.keys():
        raise KeyError(
            f"state dict key mismatch: {sorted(a.keys() ^ b.keys())}"
        )
