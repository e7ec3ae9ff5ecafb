"""RunState layout guard: the tree ``state_dict()`` writes is an on-disk
and on-wire format (``RUNSTATE_VERSION``).

The recursive key/type skeleton of a sync engine and of an async engine
caught mid-run — in-flight broadcasts, a buffered update, queued
arrivals including a crash — is compared against
``tests/data/runstate_layout_v<RUNSTATE_VERSION>.json``.  A serializer
refactor that changes a key, a nesting level or a scalar type fails
here; a deliberate layout change bumps ``RUNSTATE_VERSION`` and
re-records (``python tests/test_state_layout.py``).  Version 2 (PR 21)
holds the scheduler counters and wall-time factors as arrays indexed
by the client population and the clients as the pool's ``touched``
map, whichever ``client_plane`` wrote it; version 1 held per-client
dicts on the eager plane.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import FailureModel, FaultPolicy, Photon
from repro.fed.runstate import RUNSTATE_VERSION

LAYOUT = Path(__file__).parent / "data" / f"runstate_layout_v{RUNSTATE_VERSION}.json"
CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)


def skeleton(node):
    """Keys and leaf types of a state tree; values dropped.  A dict of
    arrays collapses to its size and dtypes, a list to the distinct
    skeletons of its elements."""
    if isinstance(node, dict):
        if node and all(isinstance(v, np.ndarray) for v in node.values()):
            dtypes = sorted({str(v.dtype) for v in node.values()})
            return f"arrays[{len(node)}]:{','.join(dtypes)}"
        return {key: skeleton(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        distinct = []
        for item in map(skeleton, node):
            if item not in distinct:
                distinct.append(item)
        return {"list": distinct}
    if isinstance(node, np.ndarray):
        return f"ndarray:{node.dtype}"
    return type(node).__name__


def sync_photon() -> Photon:
    """Every optional collaborator attached, nothing trained yet."""
    return Photon(
        CFG,
        FedConfig(population=4, clients_per_round=2, local_steps=1, seed=0,
                  compression="int8", error_feedback=True, tiers=2),
        OPTIM, num_shards=4, val_batches=1, uptime=0.9,
        failure_model=FailureModel(crash_prob=0.05, seed=1),
        walltime_config=WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5,
                                       model_mb=0.05),
        client_speed_spread=2.0)


def sync_engine():
    """Two barrier rounds with every optional collaborator attached."""
    photon = sync_photon()
    photon.train(2)
    return photon.aggregator


def sync_state() -> dict:
    return sync_engine().state_dict()


def async_photon() -> Photon:
    return Photon(
        CFG,
        FedConfig(population=6, clients_per_round=6, buffer_size=2,
                  local_steps=1, mode="async", seed=0,
                  jitter={"client5": 0.3},
                  deadline=50.0, drop_policy="admit_partial"),
        OPTIM, num_shards=6, val_batches=1,
        failure_model=FailureModel(scripted={(0, "client3")}),
        fault_policy=FaultPolicy(mode="partial"))


def async_engine():
    """One flush into a run on the unit clock: all completions but the
    jittered client's tie, two updates fill the buffer, the rest stay
    queued (one of them a crash) and fresh cycles are in flight.  One
    queued update is then admitted to the buffer by hand — between
    ``run_round`` calls the buffer is otherwise always empty."""
    engine = async_photon().aggregator
    engine.run_round(0, 1)
    engine._buffer.append(engine._arrivals.popleft()[1])
    assert engine._inflight and engine._buffer and engine._arrivals
    return engine


def async_state() -> dict:
    return async_engine().state_dict()


def layouts() -> dict:
    return {"sync": skeleton(sync_state()), "async": skeleton(async_state())}


def test_state_dict_layout_matches_recorded():
    recorded = json.loads(LAYOUT.read_text())
    current = json.loads(json.dumps(layouts()))
    assert current["sync"] == recorded["sync"]
    assert current["async"] == recorded["async"]


if __name__ == "__main__":
    LAYOUT.parent.mkdir(exist_ok=True)
    LAYOUT.write_text(json.dumps(layouts(), indent=1) + "\n")
    print(f"recorded {LAYOUT}")
