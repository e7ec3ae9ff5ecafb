"""The Link's broadcast path: one encode per global state, every
receiver metered, nothing else moved.

Exact encode counts (what "encoded once per client" would have failed);
a differential oracle — a reference Link defined here that encodes
every message afresh, the way the Link did before the broadcast payload
was kept; one invalidation test per way the weights change under an
old version number; and payloads deflated at the old level 6, which
must still decode.
"""

from __future__ import annotations

import copy
import functools
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.compress import make_codec
from repro.compress import codec as codec_module
from repro.config import FedConfig, ModelConfig, OptimConfig
from repro.data import CachedTokenStream, SyntheticC4
from repro.fed import FailureModel, Photon, RunStateCheckpointer
from repro.fed import link as link_module
from repro.fed.link import Link, Message
from repro.utils import pack_tree, serialization
from repro.utils.serialization import decode_state, encode_state, state_bytes

from helpers import assert_states_equal, compress_broadcast

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
K, R = 4, 3  # clients, server updates

WIRES = {
    "lossless": {},
    "int8+ef": dict(compression="int8", error_feedback=True),
    "int8+compress_broadcast": dict(compression="int8", broadcast_codec=True),
}


@functools.lru_cache(maxsize=None)
def client_streams():
    """The K client streams, sampled once; every federation below
    trains on its own deep copy (sampling is most of a build)."""
    c4 = SyntheticC4(num_shards=K, vocab=CFG.vocab_size, seed=11)
    return {f"client{i}": CachedTokenStream(
        c4.shard(i), OPTIM.batch_size, CFG.seq_len, cache_tokens=4096,
        seed=11 + i) for i in range(K)}


def make_photon(mode="sync", broadcast_codec=False, **overrides):
    fed = dict(population=K, clients_per_round=K, local_steps=2, rounds=R,
               mode=mode)
    if mode == "async":
        fed.update(buffer_size=2, staleness_alpha=0.5)
    photon_kwargs = {k: overrides.pop(k) for k in list(overrides)
                     if k in ("failure_model", "server_failure_model",
                              "initial_state", "init_seed")}
    fed.update(overrides)
    photon = Photon(CFG, FedConfig(**fed), OPTIM, val_batches=2,
                    corpus=copy.deepcopy(client_streams()), **photon_kwargs)
    return compress_broadcast(photon) if broadcast_codec else photon


class PerReceiverLink(Link):
    """The reference: ``send_state`` as it was before the broadcast
    payload was kept — every message encoded afresh for its receiver."""

    def send_state(self, state, sender, receiver, metadata=None):
        codec = self._codec_for(sender)
        payload = (encode_state(state, compress=self.compress)
                   if codec is None
                   else codec.encode(state, sender=sender, receiver=receiver))
        self._meter(sender, len(payload), state_bytes(state))
        return Message(sender, receiver, payload, metadata or {})


def record_calls(monkeypatch, owner, name):
    """Rebind ``owner.name`` to a recording wrapper; returns the list
    every later call's result is appended to."""
    original = getattr(owner, name)
    results = []

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, recorded)
    return results


def check_broadcasts_current(engine):
    """Oracle for the invalidation tests: from here on every broadcast
    must decode, bit for bit, to the engine's ``global_state`` at the
    moment it is sent.  Returns the list of checked payloads."""
    checked = []
    send_state = engine.link.send_state

    def checking(state, sender, receiver, metadata=None):
        message = send_state(state, sender, receiver, metadata)
        if sender == "agg":
            assert_states_equal(decode_state(message.payload),
                                engine.global_state)
            checked.append(message.payload)
        return message

    engine.link.send_state = checking
    return checked


# ----------------------------------------------------------------------
# Exact counts
# ----------------------------------------------------------------------

class TestEncodeCounts:
    def test_sync_lossless_encodes_one_broadcast_per_round(self, monkeypatch):
        photon = make_photon()
        encodes = record_calls(monkeypatch, link_module, "encode_state")
        sent = record_calls(monkeypatch, photon.aggregator.link, "send_state")
        photon.train(R)
        # R broadcast encodes + K*R uplink encodes (per receiver: 2*K*R).
        assert len(encodes) == R + K * R
        down = [m for m in sent if m.sender == "agg"]
        assert len(down) == K * R
        assert len({id(m.payload) for m in down}) == R
        # ... and every receiver was metered for its copy.
        link = photon.aggregator.link
        assert link.messages_sent == 2 * K * R
        assert link.downlink_wire_bytes == sum(
            m.nbytes + Link.METADATA_OVERHEAD for m in down)

    @pytest.mark.parametrize("local_plane", ["sequential", "batched"])
    def test_async_encodes_one_broadcast_per_version(self, monkeypatch,
                                                     local_plane):
        photon = make_photon("async", local_plane=local_plane)
        encodes = record_calls(monkeypatch, link_module, "encode_state")
        sent = record_calls(monkeypatch, photon.aggregator.link, "send_state")
        photon.train(R)
        down = [m for m in sent if m.sender == "agg"]
        versions = {m.metadata["version"] for m in down}
        assert len(down) > len(versions) > 1
        assert len(encodes) == len(versions) + (len(sent) - len(down))
        by_version: dict[int, set[int]] = {}
        for m in down:
            by_version.setdefault(m.metadata["version"], set()).add(
                id(m.payload))
        assert all(len(ids) == 1 for ids in by_version.values())
        # The messages still in flight hold that one object per version.
        inflight = photon.aggregator._inflight.values()
        assert inflight
        for entry in inflight:
            assert {id(entry.message.payload)} == by_version[entry.version]

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_compress_broadcast_keeps_nothing(self, monkeypatch, mode):
        photon = make_photon(mode, **WIRES["int8+compress_broadcast"])
        state_encodes = record_calls(monkeypatch, link_module, "encode_state")
        codec_encodes = record_calls(monkeypatch, codec_module.Codec, "encode")
        sent = record_calls(monkeypatch, photon.aggregator.link, "send_state")
        photon.train(R)
        # One codec encode per message, receivers included; the
        # lossless encoder (and with it the kept payload) never runs.
        assert not state_encodes
        assert len(codec_encodes) == len(sent)
        first_wave = [m.payload for m in sent if m.sender == "agg"][:K]
        assert len(set(first_wave)) == K  # per-receiver rounding streams


# ----------------------------------------------------------------------
# Differential oracle: nothing but the number of encodes moved
# ----------------------------------------------------------------------

@pytest.mark.parametrize("wire", list(WIRES))
@pytest.mark.parametrize("local_plane", ["sequential", "batched"])
@pytest.mark.parametrize("mode", ["sync", "async"])
def test_equal_to_per_receiver_link(mode, local_plane, wire):
    runs = []
    for reference in (False, True):
        photon = make_photon(mode, local_plane=local_plane, **WIRES[wire])
        engine = photon.aggregator
        if reference:
            engine.link = PerReceiverLink(
                uplink_codec=engine.link.uplink_codec,
                downlink_codec=engine.link.downlink_codec)
        photon.train(R)
        runs.append(engine)
    ours, reference = runs
    assert ([asdict(r) for r in ours.history]
            == [asdict(r) for r in reference.history])
    for counter in Link.COUNTER_FIELDS:
        assert getattr(ours.link, counter) == getattr(reference.link, counter)
    assert_states_equal(ours.global_state, reference.global_state)


# ----------------------------------------------------------------------
# Invalidation: the weights change, the version number does not
# ----------------------------------------------------------------------

class TestInvalidation:
    def test_rar_retry_rebroadcasts_the_same_bytes(self, monkeypatch):
        photon = make_photon(
            failure_model=FailureModel(scripted={(1, "client2")}))
        engine = photon.aggregator
        photon.train(1)
        encodes = record_calls(monkeypatch, link_module, "encode_state")
        checked = check_broadcasts_current(engine)
        photon.train(1)
        assert engine.history.records[-1].retries == 1
        # K - 1 survivors of the first attempt, then all K again: one
        # state, one encode, one payload object.
        assert len(checked) == 2 * K - 1
        assert len({id(p) for p in checked}) == 1
        assert len(encodes) == 1 + (2 * K - 1)

    def test_failover_promotes_an_older_snapshot(self):
        photon = make_photon(
            replicas=1, replicate_every=2,
            server_failure_model=FailureModel(scripted={(2, "root")}))
        checked = check_broadcasts_current(photon.aggregator)
        photon.train(R + 1)
        assert photon.failover.updates_lost == [1]
        assert len(checked) == K * (R + 2)  # one round replayed

    def test_load_state_dict_of_other_weights(self):
        photon, other = make_photon(), make_photon(init_seed=5)
        photon.train(2)
        other.train(1)
        engine = photon.aggregator
        engine.load_state_dict(other.aggregator.state_dict())
        checked = check_broadcasts_current(engine)
        photon.train(1)
        # Round 1 again — the round the Link last broadcast for — with
        # the other run's weights on the wire.
        assert [r.round_idx for r in engine.history] == [0, 1]
        assert len(checked) == K
        assert_states_equal(decode_state(checked[0]),
                            other.aggregator.global_state)

    def test_resume_from_runstate(self, tmp_path):
        make_photon(checkpoint_dir=str(tmp_path)).train(2)
        resumed = make_photon(checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.resumed_from_round == 2
        checked = check_broadcasts_current(resumed.aggregator)
        resumed.train(R)  # the total: one more update
        assert len(resumed.history) == R and len(checked) == K

    def test_global_state_is_read_only(self):
        photon = make_photon()
        engine = photon.aggregator
        key = next(iter(engine.global_state))

        def frozen():
            with pytest.raises(ValueError, match="read-only"):
                engine.global_state[key][...] = 0

        frozen()  # the initial model
        photon.train(1)
        frozen()  # a server update's result
        engine.load_state_dict(engine.state_dict())
        frozen()  # a restored model

    def test_initial_state_stays_the_callers(self):
        warm = make_photon(init_seed=3).aggregator.state_dict()["global_state"]
        engine = make_photon(initial_state=warm).aggregator
        for key, value in warm.items():
            assert value.flags.writeable
            assert not np.shares_memory(value, engine.global_state[key])
            value[...] = 0  # the caller's arrays are still theirs


# ----------------------------------------------------------------------
# No read-old shim: a zlib stream records no level
# ----------------------------------------------------------------------

class TestLevelSixStillDecodes:
    def test_wire_payloads(self, rng):
        state = {"w": rng.normal(size=(8, 4)).astype(np.float32),
                 "b": np.zeros(4, dtype=np.float32)}
        old = zlib.compress(pack_tree(state), 6)
        assert_states_equal(decode_state(old), state)
        assert_states_equal(decode_state(old),
                            decode_state(encode_state(state)))
        codec = make_codec("int8", seed=1)
        staged = codec.stage_payload(state, "c0", "agg")
        assert_states_equal(codec.decode(zlib.compress(staged, 6)),
                            codec.decode(zlib.compress(staged, 1)))

    def test_runstate_moment_blob(self, tmp_path, monkeypatch):
        photon = make_photon(server_opt="fedadam", server_lr=0.01)
        photon.train(1)
        trees = {}
        for level in (6, 1):
            with monkeypatch.context() as patch:
                patch.setattr(serialization, "ZLIB_LEVEL", level)
                RunStateCheckpointer(tmp_path / str(level), codec="int8").save(
                    photon.aggregator, 1)
            trees[level] = RunStateCheckpointer(
                tmp_path / str(level), codec="int8").load_tree()[1]
        sizes = {level: next((tmp_path / str(level)).iterdir()).stat().st_size
                 for level in trees}
        assert sizes[6] != sizes[1]  # the blobs really differ on disk
        old, new = trees[6]["server_opt"], trees[1]["server_opt"]
        assert old.keys() == new.keys()
        for key in ("m", "v"):
            assert_states_equal(old[key], new[key])
