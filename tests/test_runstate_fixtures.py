"""Cross-version RunState fixtures: checkpoints written by an earlier
build still load, re-save byte for byte, and train on.

``tests/data/runstate_v2/{sync,async}/`` each hold one checkpoint of
the engines :mod:`test_state_layout` builds (every optional sync
collaborator attached; an async engine caught mid-run with in-flight
broadcasts, a buffered update and queued arrivals including a crash).
They were written before the run-state declarations existed, by this
module's ``__main__`` (``python tests/test_runstate_fixtures.py``); do
not regenerate them to make a test pass — a layout change bumps
``RUNSTATE_VERSION`` instead.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import pytest

from repro.fed import RunStateCheckpointer
from repro.fed.runstate import RUNSTATE_VERSION

import test_state_layout as layout

FIXTURES = Path(__file__).parent / "data" / f"runstate_v{RUNSTATE_VERSION}"
CASES = {
    "sync": (layout.sync_photon, layout.sync_engine),
    "async": (layout.async_photon, layout.async_engine),
}


@pytest.mark.parametrize("mode", sorted(CASES))
def test_fixture_loads_resaves_byte_identical_and_trains(mode, tmp_path):
    (source,) = sorted((FIXTURES / mode).glob("runstate_*.ckpt"))
    engine = CASES[mode][0]().aggregator
    step = RunStateCheckpointer(FIXTURES / mode).restore(engine)
    resaved = RunStateCheckpointer(tmp_path).save(engine, step)
    assert resaved.name == source.name
    assert resaved.read_bytes() == source.read_bytes()
    record = engine.run_round(len(engine.history), 1)
    assert record.round_idx == step and math.isfinite(record.train_loss)


if __name__ == "__main__":
    for mode, (_, build) in CASES.items():
        target = FIXTURES / mode
        shutil.rmtree(target, ignore_errors=True)
        engine = build()
        path = RunStateCheckpointer(target).save(engine, len(engine.history))
        print(f"wrote {path} ({path.stat().st_size} bytes)")
