"""Checkpointing for fast recovery (Algorithm 1 L.11 and L.26).

The rotating writer under
:class:`~repro.fed.runstate.RunStateCheckpointer`, the engine's one
checkpoint path: the run state it snapshots holds the global model
and every client's durable state.  A checkpoint is one
``{state, metadata}`` tree container
(:func:`~repro.utils.serialization.pack_tree`) per step, written to a
temporary file and renamed into place, and the manager keeps a bounded
number of recent checkpoints.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from ..utils.serialization import PayloadError, pack_tree, unpack_tree

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Rotating on-disk checkpoints, one container file per step."""

    def __init__(self, directory: str | Path, keep: int = 3, prefix: str = "round"):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.prefix = prefix
        self._io_lock = threading.Lock()
        # Highest step the rotation has ever pruned: a write that lands
        # after newer saves pruned past it must not resurrect a retired
        # checkpoint (it would sit on disk outside the keep budget until
        # some future save pruned it again).
        self._retired_step = None
        #: Size of the most recent container written.
        self.last_nbytes = 0

    def _path(self, step: int) -> Path:
        return self.directory / f"{self.prefix}_{step:08d}.ckpt"

    def save(self, step: int, state, metadata: dict | None = None) -> Path:
        """Write a checkpoint and prune old ones.

        ``state`` is any tree :func:`pack_tree` accepts (a flat state
        dict, or a whole RunState); dtypes round-trip exactly.  The
        file appears under its final name only once complete.  A write
        for a step the rotation has already pruned past is skipped.
        """
        path = self._path(step)
        with self._io_lock:
            if self._retired_step is not None and step <= self._retired_step:
                return path  # stale write: already rotated out
            blob = pack_tree({
                "state": state,
                "metadata": {"step": step, **(metadata or {})},
            })
            partial = path.with_suffix(".tmp")
            partial.write_bytes(blob)
            os.replace(partial, path)
            self.last_nbytes = len(blob)
            self._prune()
        return path

    def _prune(self) -> None:
        checkpoints = self.list_checkpoints()
        for step in checkpoints[: -self.keep]:
            self._path(step).unlink(missing_ok=True)
        if len(checkpoints) > self.keep:
            retired = checkpoints[-self.keep - 1]
            if self._retired_step is None or retired > self._retired_step:
                self._retired_step = retired

    def list_checkpoints(self) -> list[int]:
        """Available checkpoint steps, oldest first."""
        steps = []
        for path in self.directory.glob(f"{self.prefix}_*.ckpt"):
            try:
                steps.append(int(path.stem.split("_")[-1]))
            except ValueError:
                continue
        if not steps and any(self.directory.glob(f"{self.prefix}_*.npz")):
            raise ValueError(
                f"{self.directory} holds only {self.prefix}_*.npz (+ .json) "
                "checkpoints, the pre-container format this build cannot "
                "read; start a fresh run or use a fresh directory")
        return sorted(steps)

    def load(self, step: int | None = None) -> tuple[int, dict, dict]:
        """Load a checkpoint (latest if ``step`` is None); returns
        ``(step, state, metadata)``."""
        available = self.list_checkpoints()
        if not available:
            raise FileNotFoundError(f"no checkpoints under {self.directory}")
        if step is None:
            step = available[-1]
        if step not in available:
            raise FileNotFoundError(f"no checkpoint for step {step}; have {available}")
        path = self._path(step)
        try:
            tree = unpack_tree(path.read_bytes())
        except PayloadError as exc:
            raise PayloadError(f"{path}: {exc}") from None
        if not (isinstance(tree, dict) and tree.keys() == {"state", "metadata"}):
            raise PayloadError(f"{path}: not a {{state, metadata}} checkpoint tree")
        return step, tree["state"], tree["metadata"]
