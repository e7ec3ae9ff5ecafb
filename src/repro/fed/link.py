"""Link: the communication gateway between Agg and LLM-C (Section 4).

Responsibilities reproduced from the paper:

* serialize model payloads with lossless compression (zlib, at the one
  level every wire payload shares:
  :data:`~repro.utils.serialization.ZLIB_LEVEL`);
* carry metadata (round instructions, metrics) alongside parameters;
* count every byte in both directions so experiments can report
  communication volume exactly;
* optional secure-aggregation masking [36]: pairwise masks derived
  from shared seeds are added to each update and cancel in the sum,
  so the server only ever sees the aggregate.

Beyond the paper's lossless default, the Link accepts pluggable lossy
codecs from :mod:`repro.compress`: ``uplink_codec`` compresses client
→ server pseudo-gradients, ``downlink_codec`` optionally compresses
the server broadcast.  Alongside the wire counters the Link tracks the
**raw** (uncompressed float32) volume of every payload, so reports can
state exactly what the codec saved.

A lossless broadcast is encoded **once per global state**, not once per
receiver: the aggregator's payload is kept while the same state object
keeps being broadcast, every receiver is metered for it and decodes its
own copy.  With a downlink codec nothing is kept — stochastic stages
draw from per-(sender, receiver) streams, so each client's payload is
its own.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..compress.codec import Codec
from ..utils.durable import COMPONENT, INT, Durable, Field
from ..utils.serialization import StateDict, decode_state, encode_state, state_bytes

__all__ = ["Message", "Link", "SecureAggregator"]


@dataclass
class Message:
    """One payload crossing the Link."""

    sender: str
    receiver: str
    payload: bytes
    metadata: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class Link(Durable):
    """Bidirectional channel with byte accounting.

    ``send_state`` / ``recv_state`` wrap serialization so callers deal
    only in state dicts; the Link tracks the wire size of what it
    actually moved (compressed payload + a small metadata envelope).
    """

    METADATA_OVERHEAD = 256  # bytes budgeted for the message envelope

    def __init__(self, compress: bool = True,
                 uplink_codec: Codec | None = None,
                 downlink_codec: Codec | None = None):
        self.compress = compress
        # Lossy transport (repro.compress): client→server uploads ride
        # the uplink codec, server broadcasts the downlink codec; None
        # is the paper's lossless path.
        self.uplink_codec = uplink_codec
        self.downlink_codec = downlink_codec
        self.bytes_sent = 0
        self.bytes_received = 0
        # Uncompressed (float32) volume of the same payloads: the
        # "what would DDP-style raw transport have moved" column.
        self.raw_bytes_sent = 0
        self.raw_bytes_received = 0
        # Direction-split meters (counted once per message, at send):
        # the legacy counters above tally every message on both the
        # send and the receive side, so uplink-only effects — a codec
        # on the pseudo-gradient path — are blended away in them.
        self.uplink_wire_bytes = 0
        self.uplink_raw_bytes = 0
        self.downlink_wire_bytes = 0
        self.downlink_raw_bytes = 0
        self.messages_sent = 0
        # The last lossless broadcast: (state object, its payload).
        # Matched by identity, never by a version number — a retried
        # round, a promoted replica and a resumed run all reuse version
        # numbers for other weights — and holding the state keeps its
        # id from being recycled.  Broadcasts go out serially.
        self._broadcast: tuple[StateDict | None, bytes] = (None, b"")
        # The engine sends serially; the lock keeps the counters exact
        # for any caller that shares a Link across threads.
        self._lock = threading.Lock()

    def _codec_for(self, sender: str) -> Codec | None:
        """Broadcasts (sender ``"agg"``) use the downlink codec,
        uploads the uplink codec."""
        return self.downlink_codec if sender == "agg" else self.uplink_codec

    def _meter(self, sender: str, wire: int, raw: int) -> None:
        """Count one sent message: ``wire`` payload bytes on the wire,
        ``raw`` bytes of what it carried uncompressed."""
        wire += self.METADATA_OVERHEAD
        raw += self.METADATA_OVERHEAD
        with self._lock:
            self.bytes_sent += wire
            self.raw_bytes_sent += raw
            if sender == "agg":
                self.downlink_wire_bytes += wire
                self.downlink_raw_bytes += raw
            else:
                self.uplink_wire_bytes += wire
                self.uplink_raw_bytes += raw
            self.messages_sent += 1

    def send_state(self, state: StateDict, sender: str, receiver: str,
                   metadata: dict | None = None) -> Message:
        """Encode and meter one message.  A lossless broadcast (sender
        ``"agg"``) is encoded the first time its state object is sent
        and the same payload handed to every later receiver of it, until
        another state is broadcast — so the caller must never write to
        a broadcast state in place (the engines' ``global_state`` arrays
        are read-only to enforce that)."""
        codec = self._codec_for(sender)
        if codec is not None:
            payload = codec.encode(state, sender=sender, receiver=receiver)
        elif sender == "agg" and self._broadcast[0] is state:
            payload = self._broadcast[1]
        else:
            payload = encode_state(state, compress=self.compress)
            if sender == "agg":
                self._broadcast = (state, payload)
        self._meter(sender, len(payload), state_bytes(state))
        return Message(sender, receiver, payload, metadata or {})

    def send_blob(self, payload: bytes, sender: str, receiver: str,
                  metadata: dict | None = None,
                  raw_nbytes: int | None = None) -> Message:
        """Ship an opaque byte payload with the usual metering.  The
        caller owns serialization; ``raw_nbytes`` is the
        pre-compression size for the raw-volume column (defaults to
        the payload size)."""
        self._meter(sender, len(payload),
                    len(payload) if raw_nbytes is None else raw_nbytes)
        return Message(sender, receiver, payload, metadata or {})

    def recv_blob(self, message: Message,
                  raw_nbytes: int | None = None) -> tuple[bytes, dict]:
        self.account(message,
                     message.nbytes if raw_nbytes is None else raw_nbytes)
        return message.payload, message.metadata

    def decode(self, sender: str, payload: bytes) -> StateDict:
        """The state a payload from ``sender`` carries (unmetered)."""
        codec = self._codec_for(sender)
        return decode_state(payload) if codec is None else codec.decode(payload)

    def account(self, message: Message, raw_nbytes: int) -> None:
        """Meter one received message that carried ``raw_nbytes``
        uncompressed.  Receiving is :meth:`decode` then this; a receiver
        that decodes a message before it is due (the async engine's
        look-ahead) accounts it when it arrives, so the bytes land in
        the arrival's window."""
        with self._lock:
            self.bytes_received += message.nbytes + self.METADATA_OVERHEAD
            self.raw_bytes_received += raw_nbytes + self.METADATA_OVERHEAD

    def recv_state(self, message: Message) -> tuple[StateDict, dict]:
        state = self.decode(message.sender, message.payload)
        self.account(message, state_bytes(state))
        return state, message.metadata

    COUNTER_FIELDS = (
        "bytes_sent", "bytes_received", "raw_bytes_sent",
        "raw_bytes_received", "uplink_wire_bytes", "uplink_raw_bytes",
        "downlink_wire_bytes", "downlink_raw_bytes", "messages_sent",
    )

    # Run state: the byte meters feed per-round deltas in RoundRecord,
    # and the codecs' stochastic stages hold per-channel RNG streams;
    # both must survive a resume for the replayed records to match the
    # uninterrupted run.
    _STATE = (*(Field(f, INT) for f in COUNTER_FIELDS),
              Field("uplink_codec", COMPONENT, omit=True),
              Field("downlink_codec", COMPONENT, omit=True))


class SecureAggregator:
    """Pairwise-mask secure aggregation (Bonawitz et al. [36]).

    Client ``i`` adds ``Σ_{j>i} m_ij − Σ_{j<i} m_ji`` to its update,
    where ``m_ij`` is a pseudorandom mask derived from the pair's
    shared seed.  Individual masked updates are statistically useless
    to the server, but the masks cancel exactly in the sum.
    """

    def __init__(self, client_ids: list[str], seed: int = 0, mask_scale: float = 1.0):
        if len(set(client_ids)) != len(client_ids):
            raise ValueError("duplicate client ids")
        if len(client_ids) < 2:
            raise ValueError("secure aggregation needs at least two clients")
        self.client_ids = sorted(client_ids)
        self.seed = seed
        self.mask_scale = mask_scale

    def _pair_rng(self, a: str, b: str) -> np.random.Generator:
        # crc32, not hash(): both ends of a pair must derive the same
        # mask in their own processes, whatever PYTHONHASHSEED each has
        # (the codec channel streams are seeded the same way).
        pair = repr((self.seed, *sorted((a, b)))).encode()
        return np.random.default_rng(zlib.crc32(pair))

    def mask(self, client_id: str, state: StateDict) -> StateDict:
        """Return ``state`` plus this client's net pairwise mask."""
        if client_id not in self.client_ids:
            raise KeyError(f"unknown client {client_id!r}")
        out = {k: np.array(v, dtype=np.float32, copy=True) for k, v in state.items()}
        for other in self.client_ids:
            if other == client_id:
                continue
            rng = self._pair_rng(client_id, other)
            sign = 1.0 if client_id < other else -1.0
            for k in out:
                mask = rng.normal(0.0, self.mask_scale, size=out[k].shape).astype(np.float32)
                out[k] += sign * mask
        return out

    @staticmethod
    def unmasked_sum(masked_states: list[StateDict]) -> StateDict:
        """Sum of masked updates — equals the sum of raw updates since
        all pairwise masks cancel (up to float32 rounding)."""
        if not masked_states:
            raise ValueError("no updates to aggregate")
        total = {k: np.array(v, copy=True) for k, v in masked_states[0].items()}
        for state in masked_states[1:]:
            for k in total:
                total[k] = total[k] + state[k]
        return total
