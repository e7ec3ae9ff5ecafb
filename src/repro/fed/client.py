"""LLM Client (LLM-C): the local training pipeline (Algorithm 1 L.13–28).

Each client owns a persistent model workspace, one or more data
streams, and an optimizer whose state is reset every round by default
— the paper's *stateless local optimization* (Appendix A), which lets
sporadic clients join/leave and keeps communication parameter-only.

The client resolves an execution plan from its hardware (single GPU /
DDP / FSDP / sub-federation; Section 4 heuristic) and runs ``τ`` local
AdamW steps with the globally synchronized LR schedule through the one
local step loop (:func:`~repro.fed.batched.run_local_steps` at K = 1,
once per node), then returns the pseudo-gradient ``θ_t − θ_k``
(:meth:`LLMClient.local_update`).  Post-processing (L.27) is its own
step, :meth:`LLMClient.finish`, which every local plane runs in the
parent process in task order; :meth:`LLMClient.train` is the two.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig, OptimConfig
from ..data.stream import BatchStream
from ..nn import DecoderLM
from ..optim import AdamW, LRSchedule
# Bound here by name: the perf ledger's tracer tests wrap ``client.clip_grad_norm``.
from ..optim import clip_grad_norm  # noqa: F401
from ..parallel import DDPEngine, ExecutionPlan, FSDPEngine, SiloSpec, select_strategy
from ..utils.durable import COMPONENT, INT, Durable, Field, List, Opt
from ..utils.serialization import StateDict, tree_mean, tree_sub
from .batched import run_local_steps
from .postprocess import Identity, PostProcessor
from .types import ClientUpdate, RoundInfo

__all__ = ["LLMClient"]


class LLMClient(Durable):
    """A federated participant.

    Parameters
    ----------
    client_id:
        Unique name within the federation.
    model_config:
        Architecture of the global model.
    streams:
        Data streams.  One stream = one training node; several streams
        enable the sub-federated path (Algorithm 1 L.19–25) where each
        node trains on its own partition and the client averages.
    optim:
        Local optimizer hyperparameters (AdamW per the paper).
    schedule:
        LR schedule shared across rounds, indexed by *global* client
        step.
    silo:
        Optional hardware description; when provided, the Section 4
        strategy heuristic decides single/DDP/FSDP execution.
    stateless:
        Reset optimizer momenta each round (Photon default).  DiLoCo
        style runs set this to False to retain local AdamW state.

    Run state: the model workspace is overwritten by every broadcast,
    so a client's durable state is its data streams' positions, its
    participation counters, and — for stateful (DiLoCo-style) clients
    that have trained — the retained AdamW momenta.  Streams without
    run state (custom corpora) are written as None.
    """

    _STATE = (
        Field("tokens_processed", INT), Field("rounds_participated", INT),
        Field("streams", List(COMPONENT, counted=True)),
        Field("optimizer", Opt(COMPONENT), "_retained_optimizer", omit=True,
              live=lambda c: None if c.stateless
              else c._optimizer or c._new_optimizer()),
    )

    def __init__(self, client_id: str, model_config: ModelConfig,
                 streams: list[BatchStream] | BatchStream,
                 optim: OptimConfig, schedule: LRSchedule,
                 silo: SiloSpec | None = None,
                 stateless: bool = True,
                 post_process: PostProcessor | None = None,
                 proximal_mu: float = 0.0,
                 seed: int = 0):
        self.client_id = client_id
        self.model_config = model_config
        self.streams: list[BatchStream] = (
            list(streams) if isinstance(streams, (list, tuple)) else [streams]
        )
        if not self.streams:
            raise ValueError("client needs at least one data stream")
        self.optim_config = optim
        self.schedule = schedule
        self.silo = silo
        self.stateless = stateless
        self.post_process = post_process or Identity()
        if proximal_mu < 0:
            raise ValueError("proximal_mu must be non-negative")
        # FedProx-style proximal term (Section 6, "reducing local model
        # divergence from the global model" [51, 52]): adds
        # mu * (theta - theta_global) to each local gradient.
        self.proximal_mu = proximal_mu
        self.seed = seed
        self._model: DecoderLM | None = None
        self._optimizer: AdamW | None = None
        self.tokens_processed = 0
        self.rounds_participated = 0

    @property
    def model(self) -> DecoderLM:
        """The persistent workspace model reused across rounds (avoids
        re-allocating parameters every round), built on first use: it
        is seeded by the client's ``seed``, so a late build is the same
        model, and a client the batched plane trains in its own stacked
        model never builds one."""
        if self._model is None:
            self._model = DecoderLM(self.model_config, seed=self.seed)
        return self._model

    # ------------------------------------------------------------------
    def execution_plan(self) -> ExecutionPlan:
        """Resolve the local strategy (Algorithm 1 L.15–23)."""
        if self.silo is None:
            return ExecutionPlan("single_gpu", 1, self.streams[0].batch_size)
        return select_strategy(self.silo, self.model_config,
                               target_batch=self.streams[0].batch_size)

    def _new_optimizer(self) -> AdamW:
        cfg = self.optim_config
        return AdamW(self.model.parameters(), lr=cfg.max_lr, betas=cfg.betas,
                     eps=cfg.eps, weight_decay=cfg.weight_decay)

    def _make_optimizer(self) -> AdamW:
        if self._optimizer is None:
            self._optimizer = self._new_optimizer()
        elif self.stateless:
            self._optimizer.reset_state()
        return self._optimizer

    @property
    def _retained_optimizer(self) -> AdamW | None:
        return None if self.stateless else self._optimizer

    @_retained_optimizer.setter
    def _retained_optimizer(self, optimizer: AdamW | None) -> None:
        # A stateless client's optimizer is a workspace, not state; a
        # stateful client loaded from a state without moments (it has
        # not trained) holds none, whatever it held before.
        if optimizer is not None or not self.stateless:
            self._optimizer = optimizer

    # ------------------------------------------------------------------
    def train(self, global_state: StateDict, round_info: RoundInfo) -> ClientUpdate:
        """Run the local pipeline and return the post-processed
        pseudo-gradient (L.13–28)."""
        return self.finish(self.local_update(global_state, round_info))

    def local_update(self, global_state: StateDict,
                     round_info: RoundInfo) -> ClientUpdate:
        """Train and return the raw pseudo-gradient ``θ_t − θ_k``
        (L.13–26), before post-processing."""
        plan = self.execution_plan()
        if plan.strategy == "sub_federation" and len(self.streams) > 1:
            local_state, metrics, tokens = self._train_sub_federated(global_state, round_info)
        else:
            local_state, metrics, tokens = self._train_node(
                global_state, round_info, self.streams[0], plan
            )
        return self._raw_update(global_state, local_state, metrics, tokens,
                                round_info)

    def _raw_update(self, global_state: StateDict, local_state: StateDict,
                    metrics: dict, tokens: int,
                    round_info: RoundInfo) -> ClientUpdate:
        """Count the round, then wrap ``θ_t − θ_k`` unprocessed."""
        self.tokens_processed += tokens
        self.rounds_participated += 1
        return ClientUpdate(
            client_id=self.client_id,
            delta=tree_sub(global_state, local_state),
            num_steps=round_info.local_steps,
            num_tokens=tokens,
            metrics=metrics,
        )

    def finish(self, update: ClientUpdate) -> ClientUpdate:
        """Post-process a raw update (L.27).  Every plane runs this in
        the parent process, once per update and in task order, so a
        post-processor that draws randomness draws the same sequence
        whichever plane trained the wave."""
        update.delta = self.post_process(update.delta)
        return update

    # ------------------------------------------------------------------
    def _train_node(self, global_state: StateDict, round_info: RoundInfo,
                    stream: BatchStream, plan: ExecutionPlan) -> tuple[StateDict, dict, int]:
        """Standard distributed training inside the client (L.16–18):
        the local step loop at K = 1 on the persistent workspace, each
        step taken by a DDP/FSDP engine when the plan has several
        workers."""
        self.model.load_state_dict(global_state)
        self.model.train()
        optimizer = self._make_optimizer()
        engine = None
        if plan.strategy in ("ddp", "fsdp") and plan.n_workers > 1:
            engine_cls = DDPEngine if plan.strategy == "ddp" else FSDPEngine
            engine = engine_cls(self.model, optimizer, plan.n_workers,
                                grad_clip=self.optim_config.grad_clip)
        (metrics,), (tokens,) = run_local_steps(
            self.model, optimizer, [self], [stream], [global_state],
            [round_info], engine)
        local_state = (
            engine.full_state() if isinstance(engine, FSDPEngine) else self.model.state_dict()
        )
        return local_state, metrics, tokens

    def _train_sub_federated(self, global_state: StateDict,
                             round_info: RoundInfo) -> tuple[StateDict, dict, int]:
        """Two-level FL for slow intra-client links (L.19–25): every
        node trains independently, then the client averages node
        models into one update."""
        node_states: list[StateDict] = []
        node_metrics: list[dict] = []
        total_tokens = 0
        single = ExecutionPlan("single_gpu", 1, self.streams[0].batch_size)
        for stream in self.streams:
            state, metrics, tokens = self._train_node(global_state, round_info, stream, single)
            node_states.append(state)
            node_metrics.append(metrics)
            total_tokens += tokens
        averaged = tree_mean(node_states)
        metrics = {
            "train_loss_mean": float(np.mean([m["train_loss_mean"] for m in node_metrics])),
            "train_loss_final": float(np.mean([m["train_loss_final"] for m in node_metrics])),
            "lr_final": node_metrics[-1]["lr_final"],
            "sub_nodes": float(len(self.streams)),
            "local_steps": float(round_info.local_steps),
        }
        return averaged, metrics, total_tokens

