"""JSONL metrics sink: periodic flush lines plus an end-of-run summary.

Each :meth:`MetricsSink.write` appends one self-contained JSON line
``{"server_update": N, "host_s": t, "meters": {...}}`` and flushes, so
a crashed or killed run still leaves every completed sample on disk.
:meth:`MetricsSink.close` appends a final ``{"summary": {...}}`` line —
the :meth:`repro.obs.trace.Tracer.summary` digest.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["MetricsSink"]


class MetricsSink:
    """Append-only JSONL writer for periodic meter snapshots."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None
        self._closed = False
        self.lines = 0

    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w")
        return self._fh

    def write(self, server_update: int, host_s: float, meters: dict) -> None:
        if self._closed:
            return
        fh = self._open()
        json.dump({"server_update": server_update,
                   "host_s": host_s, "meters": meters}, fh)
        fh.write("\n")
        fh.flush()
        self.lines += 1

    def close(self, summary: dict | None = None) -> None:
        if self._closed:
            return
        self._closed = True
        fh = self._open()
        if summary is not None:
            json.dump({"summary": summary}, fh)
            fh.write("\n")
        fh.close()
        self._fh = None
