"""Damaged run state fails loudly, locally and typed.

A real checkpoint of each engine shape (sync / async / two tiers, each
under FedAvg, FedMom and FedAdam, with an int8 uplink and error
feedback so codec streams and EF residuals are written) is damaged one
declared field at a time — dropped, retyped, reshaped, recast or
emptied, given a key no declaration names, or naming a client the
federation does not have — and loaded back.  Every cell must raise
:class:`~repro.utils.durable.RunStateError` naming the field, and the
failed load must leave the engine's ``state_dict()`` as it was.  A
truncated file is a ``PayloadError`` naming the file.

The fields come from the declarations themselves (``_STATE`` and the
kinds), walked beside the tree: an id-keyed map entry or a free-length
list item is not a field, and a lone optional group (FedMom's
velocity) may legally be absent — a fresh optimizer's tree — so those
are retyped and reshaped but never dropped.

Tier-1 runs the named cases that once loaded silently or crashed
untyped, plus a sampled subset of the sweep; the full sweep is
``slow`` (a named nightly leg in ``ci.yml``).
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
import pytest

from repro.config import FedConfig, WallTimeConfig
from repro.fed import FailureModel, FaultPolicy, Photon, RunStateCheckpointer
from repro.utils import PayloadError, pack_tree, unpack_tree
from repro.utils import durable as d
from repro.utils.durable import RunStateError

from test_state_layout import CFG, OPTIM

TOPOLOGIES = ("sync", "async", "tiers2")
SERVER_OPTS = ("fedavg", "fedmom", "fedadam")


def build(topology: str, server_opt: str) -> Photon:
    common = dict(local_steps=1, seed=0, compression="int8",
                  error_feedback=True, server_opt=server_opt,
                  server_lr=0.01 if server_opt == "fedadam" else 1.0)
    if topology == "async":
        return Photon(
            CFG,
            FedConfig(population=6, clients_per_round=6, buffer_size=2,
                      mode="async", jitter={"client5": 0.3}, deadline=50.0,
                      drop_policy="admit_partial", **common),
            OPTIM, num_shards=6, val_batches=1,
            failure_model=FailureModel(scripted={(0, "client3")}),
            fault_policy=FaultPolicy(mode="partial"))
    tiers = dict(tiers=2, tier_compression="int8") if topology == "tiers2" else {}
    return Photon(
        CFG,
        FedConfig(population=4, clients_per_round=2, **tiers, **common),
        OPTIM, num_shards=4, val_batches=1, uptime=0.9,
        failure_model=FailureModel(crash_prob=0.05, seed=1),
        walltime_config=WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5,
                                       model_mb=0.05),
        client_speed_spread=2.0)


@lru_cache(maxsize=None)
def checkpoint(topology: str, server_opt: str, directory: str):
    """A trained engine, the file it checkpointed, and its packed
    state (what a failed load must leave behind)."""
    engine = build(topology, server_opt).aggregator
    if topology == "async":
        # One flush leaves broadcasts in flight and arrivals queued (one
        # a crash); one is admitted by hand, as in test_state_layout.
        engine.run_round(0, 1)
        engine._buffer.append(engine._arrivals.popleft()[1])
    else:
        for round_idx in range(2):
            engine.run_round(round_idx, 1)
    path = RunStateCheckpointer(directory).save(engine, len(engine.history))
    return engine, path, pack_tree(engine.state_dict())


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damage")


def load(topology, server_opt, ckpt_dir):
    """The engine and its checkpoint tree, read back as a restore
    reads it."""
    engine, path, packed = checkpoint(topology, server_opt,
                                      str(ckpt_dir / f"{topology}-{server_opt}"))
    _, tree = RunStateCheckpointer(path.parent).load_tree()
    return engine, tree, packed


# ----------------------------------------------------------------------
# The declared fields of a tree, walked beside the declarations
# ----------------------------------------------------------------------

def _component(obj, state, path):
    group = obj._group()
    for f in obj._STATE:
        if f.key not in state:
            continue
        live = f.live(obj) if f.live else getattr(obj, f.attr or f.key)
        lone = f in group and len(group) == 1
        yield from _value(f.kind, state[f.key], live, path + (f.key,),
                          f.key, not lone)


def _value(kind, node, live, path, name, droppable):
    """``(path, field name, droppable, kind)`` for ``node`` and every
    field under it."""
    if isinstance(kind, d.Opt):
        kind = kind.kind
    yield path, name, droppable, kind
    if node is None:
        return
    if kind in (d.COMPONENT, d.PARKED) and isinstance(live, d.Durable):
        yield from _component(live, node, path)
    elif isinstance(kind, d.Map):
        for key, value in node.items():
            template = live(key) if callable(live) else (
                None if live is None else live.get(key))
            yield from _value(kind.kind, value, template, path + (key,),
                              name, False)
    elif isinstance(kind, d.List):
        for i, value in enumerate(node):
            yield from _value(kind.kind, value,
                              live[i] if kind.counted else None,
                              path + (i,), name, kind.counted)
    elif isinstance(kind, d.Row):
        for i, (sub, value) in enumerate(zip(kind.kinds, node)):
            yield from _value(sub, value, None, path + (i,), name, True)
    elif isinstance(kind, d.Either):
        (record,) = [r for r in kind.records if node.keys() == r.fields.keys()]
        yield from _value(record, node, None, path, name, False)
    elif isinstance(kind, d.Record):
        for field, sub in kind.fields.items():
            yield from _value(sub, node[field], None, path + (field,),
                              field, True)
    elif kind in (d.MODEL_TREE, d.RNG):
        for key, value in node.items():
            yield from _value(kind if isinstance(value, dict) else None,
                              value, None, path + (key,), name, True)


def _mutations(node, droppable: bool, kind) -> list[str]:
    out = ["retype"]
    if droppable:
        out.append("drop")
    if isinstance(node, np.ndarray):
        out += ["reshape", "recast"]
    elif isinstance(node, bytes):
        out.append("reshape")  # cut short
    elif node and (isinstance(kind, d.Row)
                   or isinstance(kind, d.List) and kind.counted):
        out.append("empty")  # a fixed-length list
    elif isinstance(node, dict) and kind in (d.COMPONENT, d.PARKED, d.RNG) or (
            isinstance(kind, (d.Record, d.Either))):
        out.append("extra")  # a key no declaration names
    if kind is d.MEMBER or isinstance(kind, d.Map) and (
            kind.keys is d.MEMBER and len(node)):
        out.append("stranger")  # an id of no client here
    return out


def cells(topology, server_opt, ckpt_dir):
    engine, tree, _ = load(topology, server_opt, ckpt_dir)
    out = [((), "unexpected", "extra")]
    for path, name, droppable, kind in _component(engine, tree, ()):
        node = _at(tree, path)
        out += [(path, name, m) for m in _mutations(node, droppable, kind)]
    return out


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def damage(tree, path, mutation):
    if mutation == "extra":
        _at(tree, path)["unexpected"] = 0
        return
    if mutation == "stranger" and isinstance(_at(tree, path), dict):
        entries = _at(tree, path)
        entries["stranger"] = entries.pop(next(iter(entries)))
        return
    parent, key = _at(tree, path[:-1]), path[-1]
    node = parent[key]
    if mutation == "drop":
        del parent[key]
    elif mutation == "retype":
        parent[key] = 7 if isinstance(node, str) else "damaged"
    elif mutation == "stranger":
        parent[key] = "stranger"
    elif mutation == "empty":
        parent[key] = []
    elif mutation == "recast":
        parent[key] = node.astype(np.float32 if node.dtype == np.float64
                                  else np.float64 if node.dtype.kind == "f"
                                  else np.int32)
    elif isinstance(node, bytes):  # reshape
        parent[key] = node[:len(node) // 2]
    else:  # reshape: a corner slice, or one more row of a single value
        parent[key] = (node[tuple(slice(0, 1) for _ in node.shape)]
                       if node.size > 1 else np.repeat(node[None], 2, 0))


def assert_refused(engine, tree, packed, name):
    with pytest.raises(RunStateError) as info:
        engine.load_state_dict(tree)
    assert name in str(info.value)
    assert pack_tree(engine.state_dict()) == packed


def run_cells(topology, server_opt, ckpt_dir, sample=None):
    engine, _, packed = load(topology, server_opt, ckpt_dir)
    todo = cells(topology, server_opt, ckpt_dir)
    if sample is not None:
        todo = random.Random(f"{topology}/{server_opt}").sample(todo, sample)
    for path, name, mutation in todo:
        tree = unpack_tree(packed)
        damage(tree, path, mutation)
        try:
            assert_refused(engine, tree, packed, name)
        except BaseException as exc:
            raise AssertionError(f"{mutation} {path}: {exc!r}") from exc


# ----------------------------------------------------------------------
# The cases that loaded silently or failed untyped before
# ----------------------------------------------------------------------

def _first_2d(tensors: dict, change) -> None:
    """Replace the first 2-D tensor of ``tensors`` by ``change(it)``."""
    name = next(k for k, v in tensors.items() if v.ndim == 2)
    tensors[name] = change(tensors[name])


def _first(entries: dict):
    return next(iter(entries.values()))


NAMED = {
    "scheduler dropped": ("sync", "fedavg", "scheduler",
                          lambda t: t.pop("scheduler")),
    "sampler rng dropped": ("sync", "fedavg", "rng",
                            lambda t: t["sampler"].pop("rng")),
    "int counter as text": ("sync", "fedavg", "total_steps_done",
                            lambda t: t.update(total_steps_done="12")),
    "RoundRecord field dropped": ("sync", "fedavg", "retries",
                                  lambda t: t["history"][0].pop("retries")),
    "EF residual slice": ("sync", "fedavg", "residual", lambda t: _first_2d(
        _first(t["error_feedback"]["residual"]), lambda a: a[:1, :1])),
    "FedMom velocity of one": ("sync", "fedmom", "velocity", lambda t: _first_2d(
        t["server_opt"]["velocity"], lambda a: np.zeros(1, np.float32))),
    "FedAdam scalar v": ("sync", "fedadam", "v", lambda t: _first_2d(
        t["server_opt"]["v"], lambda a: np.array(0.5, np.float32))),
    "float64 global tensor": ("sync", "fedavg", "global_state", lambda t: _first_2d(
        t["global_state"], lambda a: a.astype(np.float64))),
    "uplink codec dropped": ("sync", "fedavg", "uplink_codec",
                             lambda t: t["link"].pop("uplink_codec")),
    "client streams emptied": ("sync", "fedavg", "streams",
                               lambda t: _first(t["clients"]["touched"]).update(
                                   streams=[])),
    "async started as text": ("async", "fedavg", "started",
                              lambda t: t.update(started="no")),
    "in-flight payload retyped": ("async", "fedavg", "payload",
                                  lambda t: _first(t["inflight"])["message"].update(
                                      payload={})),
    "in-flight payload cut short": ("async", "fedavg", "payload", lambda t: (
        lambda m: m.update(payload=m["payload"][:-9]))(
            _first(t["inflight"])["message"])),
    "stranger in the idle pool": ("async", "fedavg", "idle",
                                  lambda t: t["idle"].append("client99")),
}


@pytest.mark.parametrize("case", sorted(NAMED))
def test_named_damage_is_refused(case, ckpt_dir):
    topology, server_opt, name, mutate = NAMED[case]
    engine, tree, packed = load(topology, server_opt, ckpt_dir)
    mutate(tree)
    assert_refused(engine, tree, packed, name)


def test_undamaged_tree_loads(ckpt_dir):
    """The control: the same tree, undamaged, loads and round-trips."""
    for topology in TOPOLOGIES:
        engine, tree, packed = load(topology, "fedadam", ckpt_dir)
        engine.load_state_dict(tree)
        assert pack_tree(engine.state_dict()) == packed


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_truncated_file_is_a_payload_error_naming_it(topology, ckpt_dir):
    engine, path, _ = checkpoint(topology, "fedavg",
                                 str(ckpt_dir / f"{topology}-fedavg"))
    damaged = ckpt_dir / f"truncated-{topology}" / path.name
    damaged.parent.mkdir()
    damaged.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    with pytest.raises(PayloadError, match=damaged.name):
        RunStateCheckpointer(damaged.parent).restore(engine)


@pytest.mark.parametrize("topology,server_opt", [
    ("sync", "fedadam"), ("async", "fedmom"), ("tiers2", "fedavg")])
def test_sampled_damage_sweep(topology, server_opt, ckpt_dir):
    run_cells(topology, server_opt, ckpt_dir, sample=25)


@pytest.mark.slow
@pytest.mark.parametrize("server_opt", SERVER_OPTS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_full_damage_sweep(topology, server_opt, ckpt_dir):
    run_cells(topology, server_opt, ckpt_dir)
