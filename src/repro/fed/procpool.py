"""Persistent process pool with shared-memory broadcast buffers.

The batched plane (:mod:`repro.fed.batched`) removes python overhead
for *homogeneous* clients; this module is the complementary attack for
heterogeneous ones — true multi-core parallelism that the GIL denies
threads.  It follows the paper's multiprocessing-stack client
model (Appendix B.3):

* **one long-lived fork pool per engine** — workers inherit the client
  registry copy-on-write at fork time, so the model workspaces are
  never pickled;
* **one shared-memory segment per distinct broadcast version per
  wave** — K clients pulling the same global weights map the same
  read-only buffer (Appendix B.3's sharing factor)
  instead of receiving K pickled copies;
* **durable client state stays parent-authoritative** — stream RNG
  positions and counters ship to the worker with the job and ship
  back with the result, so results are deterministic regardless of
  which worker ran which client, and checkpoint/resume sees exactly
  the state it would under sequential training.

Workers return the raw update delta, before post-processing; the
parent then post-processes it and runs it through the ordinary
:class:`~repro.fed.link.Link`/error-feedback wire path in task order,
which keeps post-processor draws, byte metering and codec RNG streams
identical to the sequential plane.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import shared_memory
from typing import Any, Mapping

import numpy as np

from ..utils.serialization import StateDict
from .types import ClientUpdate

__all__ = ["ProcPool", "ProcJob", "check_max_workers", "share_state"]

# Client registry inherited by forked workers.  Set immediately before
# the pool forks; the children see the parent's clients (models,
# stream factories) copy-on-write without any pickling.
_FORK_CONTEXT: Any = None


def _resolve_client(client_id: str):
    registry = _FORK_CONTEXT
    if registry is None:
        raise RuntimeError("procpool worker has no inherited client registry")
    # A LazyClientPool: materializes on demand from the fork-inherited
    # factory.
    return registry[client_id]


def check_max_workers(max_workers: int, local_plane: str) -> None:
    """``max_workers`` counts procpool processes: at least one, and
    more than one only under ``local_plane="procpool"`` (every other
    plane trains in the calling process)."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers > 1 and local_plane != "procpool":
        raise ValueError(f"max_workers={max_workers} needs local_plane='procpool' "
                         f"(the only plane with workers), got {local_plane!r}")


# ----------------------------------------------------------------------
# Shared-memory state transport
# ----------------------------------------------------------------------

def share_state(state: StateDict) -> tuple[shared_memory.SharedMemory, list]:
    """Copy a state dict into a fresh shared-memory segment.

    Returns the segment and a picklable layout ``[(name, shape,
    dtype.str, offset), ...]`` that :func:`_attach_views` uses to
    rebuild zero-copy array views in a worker.  The caller owns the
    segment and must ``close()`` + ``unlink()`` it after the wave.
    """
    layout = []
    offset = 0
    for name, arr in state.items():
        arr = np.asarray(arr)
        layout.append((name, arr.shape, arr.dtype.str, offset))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (name, shape, dtype_str, off), arr in zip(layout, state.values()):
        dst = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf,
                         offset=off)
        dst[...] = arr
    return shm, layout


def _attach_views(shm: shared_memory.SharedMemory,
                  layout: list) -> dict[str, np.ndarray]:
    """Read-only ndarray views over an attached segment."""
    views: dict[str, np.ndarray] = {}
    for name, shape, dtype_str, offset in layout:
        arr = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf,
                         offset=offset)
        arr.flags.writeable = False
        views[name] = arr
    return views


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

ProcJob = tuple  # (client_id, client_state, round_info, shm_name, layout)


def _worker_train(job: ProcJob) -> tuple[ClientUpdate, dict]:
    """The raw update and the client's new durable state."""
    client_id, client_state, round_info, shm_name, layout = job
    client = _resolve_client(client_id)
    # Attaching registers the name with the resource tracker the child
    # shares with its fork parent; the tracker's cache is a set, so the
    # parent's eventual unlink() unregisters exactly once — no child-
    # side bookkeeping needed.
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        views = _attach_views(shm, layout)
        if client_state is not None:
            client.load_state_dict(client_state)
        update = client.local_update(views, round_info)
        new_state = client.state_dict()
    finally:
        views = None  # noqa: F841 — drop exported buffers before close
        try:
            shm.close()
        except BufferError:
            pass
    return update, new_state


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class ProcPool:
    """Lazy, engine-lifetime fork pool.

    Forks on first use so workers inherit the fully-built client
    registry; ``close()`` is idempotent and called from the engine's
    shutdown paths (run completion and ``state_dict()``).
    """

    def __init__(self, clients: Mapping[str, Any], max_workers: int,
                 tracer=None):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._clients = clients
        self._max_workers = max_workers
        self._pool = None
        if tracer is None:
            from ..obs.trace import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer

    def _ensure(self):
        if self._pool is None:
            if "fork" not in mp.get_all_start_methods():
                raise RuntimeError(
                    "local_plane='procpool' needs the fork start method "
                    "(unavailable on this platform)"
                )
            global _FORK_CONTEXT
            _FORK_CONTEXT = self._clients
            ctx = mp.get_context("fork")
            self._pool = ctx.Pool(processes=self._max_workers)
        return self._pool

    def train(self, jobs: list[ProcJob]) -> list[tuple]:
        """Run jobs across the pool; results come back in job order."""
        pool = self._ensure()
        if not self.tracer.enabled:
            return pool.map(_worker_train, jobs)
        workers = min(self._max_workers, len(jobs))
        with self.tracer.host_span("procpool", "wave", jobs=len(jobs),
                                   workers=workers):
            results = pool.map(_worker_train, jobs)
        meters = self.tracer.meters
        meters.counter("procpool/waves").inc()
        meters.counter("procpool/jobs").inc(len(jobs))
        # Mean jobs-per-worker this wave: >1 means the wave saturated
        # the pool, <1 means idle workers (utilization headroom).
        meters.histogram("procpool/jobs_per_worker").observe(
            len(jobs) / workers)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            global _FORK_CONTEXT
            _FORK_CONTEXT = None
