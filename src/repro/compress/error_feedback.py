"""Error feedback: the residual memory that keeps lossy codecs honest.

A biased compressor (top-k keeps the big coordinates forever, int4
rounds small signals to zero) silently discards part of every
pseudo-gradient; without correction the discarded directions never
reach the server and convergence stalls.  EF/EF21-style error feedback
(Seide et al.; Karimireddy et al.; Richtárik et al.) fixes this with
one state dict of memory per client:

* before encoding, the client adds its accumulated residual to the
  fresh delta (``sent = delta + residual``);
* after encoding, the residual becomes whatever the wire lost
  (``residual' = sent − decoded``).

The invariant — **residual conservation** — falls out of the two
assignments: ``delta + residual == decoded + residual'`` exactly, so
no pseudo-gradient mass is ever lost, only deferred.  Over rounds the
deferred part keeps being retried until it clears the compressor,
which is what restores convergence for any contractive codec.

With a lossless codec ``decoded == sent`` and the residual stays zero,
so ``error_feedback=True`` composes with ``compression="none"`` as a
bit-exact no-op (the engines additionally skip EF entirely on the
lossless path).

Staleness decay (``staleness_gamma < 1``): in the async engine a
residual banked against global version ``v`` may not be replayed until
version ``v + s`` — by then the server has moved and the deferred
direction is partly obsolete.  With ``gamma`` in (0, 1) the residual
is scaled by ``gamma**s`` before reuse, shrinking the replayed mass
geometrically in staleness.  Conservation still holds in decayed
form: ``decoded + residual' == delta + gamma**s * residual`` exactly
(the decay is applied once, before the add, and the invariant is over
the decayed residual).  ``gamma=1.0`` (default) is the legacy
bit-exact verbatim replay.

Thread safety: each client's residual is touched only by that
client's own train-and-upload exchange, which the engines never run
concurrently for one client — the per-client layout needs no lock,
matching the per-client RNG streams elsewhere in the simulation.
"""

from __future__ import annotations

import numpy as np

from ..utils.durable import INT, MODEL_TREE, Durable, Field, Map
from ..utils.serialization import StateDict, tree_add, tree_norm, tree_sub

__all__ = ["ErrorFeedback"]


class ErrorFeedback(Durable):
    """Per-client compression-residual accumulator.

    The residuals are run state: they ARE the deferred pseudo-gradient
    mass, and losing them across a crash breaks the conservation
    invariant that keeps biased codecs convergent.  They are persisted
    exactly (never quantized): a lossy round trip would inject phantom
    mass.
    """

    _STATE = (Field("residual", Map(MODEL_TREE), "_residual"),
              Field("banked_version", Map(INT), "_banked_version"))

    def __init__(self, staleness_gamma: float = 1.0):
        if not 0.0 < staleness_gamma <= 1.0:
            raise ValueError(
                f"staleness_gamma must be in (0, 1], got {staleness_gamma}"
            )
        self.staleness_gamma = staleness_gamma
        self._residual: dict[str, StateDict] = {}
        self._banked_version: dict[str, int] = {}

    # ------------------------------------------------------------------
    def apply(self, client_id: str, delta: StateDict,
              version: int | None = None) -> StateDict:
        """The state dict to *send*: fresh delta plus the client's
        accumulated residual (the delta itself on first contact).

        ``version`` is the current global version; when staleness
        decay is active the residual is scaled by
        ``gamma**(version − banked_version)`` before the add.
        """
        residual = self._residual.get(client_id)
        if residual is None:
            return delta
        if self.staleness_gamma < 1.0 and version is not None:
            banked = self._banked_version.get(client_id)
            if banked is not None:
                staleness = max(0, version - banked)
                if staleness > 0:
                    factor = np.float32(self.staleness_gamma ** staleness)
                    residual = {k: v * factor for k, v in residual.items()}
        return tree_add(delta, residual)

    def record(self, client_id: str, sent: StateDict,
               decoded: StateDict, version: int | None = None) -> None:
        """Store what the wire lost: ``residual = sent − decoded``,
        banked against ``version`` for later staleness decay."""
        self._residual[client_id] = tree_sub(sent, decoded)
        if version is not None:
            self._banked_version[client_id] = int(version)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Copy of the residual map plus banked versions.  Residual
        entries are replaced wholesale by :meth:`record` (never
        mutated in place), so sharing the underlying arrays is safe.
        The sync engine uses this to rewind residuals consumed by a
        retried round attempt whose deltas the server discarded."""
        return {"residual": dict(self._residual),
                "versions": dict(self._banked_version)}

    def restore(self, snapshot: dict) -> None:
        """Reset the residual map to a :meth:`snapshot`."""
        self._residual = dict(snapshot["residual"])
        self._banked_version = dict(snapshot["versions"])

    # ------------------------------------------------------------------
    def residual(self, client_id: str) -> StateDict | None:
        return self._residual.get(client_id)

    def residual_norm(self, client_id: str) -> float:
        """L2 norm of the client's residual (0 if none recorded)."""
        residual = self._residual.get(client_id)
        if residual is None:
            return 0.0
        return tree_norm(residual)

    def total_residual_norm(self) -> float:
        """L2 norm over every client's residual — the run-level
        "deferred mass" diagnostic surfaced in reports."""
        total = sum(self.residual_norm(cid) ** 2 for cid in self._residual)
        return float(np.sqrt(total))

    def reset(self, client_id: str | None = None) -> None:
        if client_id is None:
            self._residual.clear()
            self._banked_version.clear()
        else:
            self._residual.pop(client_id, None)
            self._banked_version.pop(client_id, None)

    def __len__(self) -> int:
        return len(self._residual)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ErrorFeedback(clients={sorted(self._residual)})"
