"""The ledger's five workloads.

Each workload is a fixed, seeded unit of work of 1.1-1.9 s on one
core at the host's usual speed, so that nine reps about fill the 18 s
window: ``setup()`` builds what a cold start builds (timed as
``setup_s``), ``work()`` runs it and returns what the rep measured,
``check()`` compares the reps' outputs with a reference path.  All
loads are closed loops of one process: the next server update or wave
starts when the previous one ended.

Seeding: ``--seed`` fixes the *inputs* — client data streams, the
validation stream, selection/codec RNG streams, tenants' adapters and
the request trace.  Model initialisation is configuration, not input,
and stays at seed 0, so a run's perplexity depends on the data alone.

``shares`` states why the workload exists as bounds on where its
traced time goes; :func:`metrics.design_shares` asserts them.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import Photon
from repro.fed.runstate import RunStateCheckpointer
from repro.nn import (DecoderLM, InferenceEngine, apply_lora,
                      load_lora_state_dict, lora_state_dict, merge_lora)
from repro.serve import (AdapterCache, MultiAdapterEngine, Request,
                         RequestReplayer, adapters)

__all__ = ["WORKLOADS", "Rep", "Share"]

# Fixed here rather than imported from benchmarks/common.py: the
# ledger's shapes are part of its contract and must not move with
# another bench's.
MICRO = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2,
                    vocab_size=32, seq_len=16)
SMALL = ModelConfig("small", n_blocks=2, d_model=32, n_heads=2,
                    vocab_size=32, seq_len=32)
OPTIM = OptimConfig(max_lr=4e-3, warmup_steps=4, schedule_steps=2048,
                    batch_size=4, weight_decay=0.0)


@dataclass
class Rep:
    """What one rep measured besides its wall time."""

    tokens: int                # trained or generated
    outputs: object            # compared across reps and by check()
    counts: dict[str, float] = field(default_factory=dict)
    # End-to-end metrics only some workloads define (None elsewhere).
    wire_bytes_per_update: float | None = None
    final_val_ppl: float | None = None
    request_ms: list[float] | None = None  # admit to last token, each


@dataclass(frozen=True)
class Share:
    """Spans whose name starts with one of ``layers`` must take at
    least / at most ``bound`` of the traced work wall.  ``total``
    counts their children too (local training as a whole)."""

    label: str
    layers: tuple[str, ...]
    at_least: bool
    bound: float
    total: bool = False


LOCAL_TRAINING = ("fed.client.train", "fed.batched.train")
WIRE = ("compress.", "zlib.", "utils.serialization.", "fed.link.")


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` independent 31-bit seeds derived from the run seed."""
    state = np.random.SeedSequence(seed).generate_state(n)
    return [int(s) >> 1 for s in state]


class Workload:
    name: str
    why: str
    op: str  # what one op is: the unit of attempted and failed
    shares: tuple[Share, ...] = ()

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def setup(self):
        raise NotImplementedError

    def work(self, state) -> Rep:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Untimed clean-up after a rep."""

    def check(self, reps: list[Rep]) -> tuple[int, int, list[str]]:
        """``(attempted, failed, notes)`` over the reps' ops."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

class _Train(Workload):
    """A federation built by ``Photon(...)`` and run for ``updates``
    server updates."""

    op = "server update"
    model = SMALL
    updates = 2
    fed: dict = {}
    photon: dict = {}

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.fed_seed, self.data_seed = _seeds(seed, 2)

    def _photon(self, **fed_overrides) -> Photon:
        fed = FedConfig(**{**self.fed, "seed": self.fed_seed, **fed_overrides})
        return Photon(self.model, fed, OPTIM, data_seed=self.data_seed,
                      init_seed=0, **self.photon)

    def setup(self) -> Photon:
        return self._photon()

    def work(self, photon: Photon) -> Rep:
        photon.train(rounds=self.updates)
        return self._rep(photon)

    @staticmethod
    def _rep(photon: Photon) -> Rep:
        link = photon.aggregator.link
        pool = photon.clients
        history = photon.history
        wire = link.uplink_wire_bytes + link.downlink_wire_bytes
        return Rep(
            tokens=photon.result().tokens_processed,
            outputs=history.val_perplexities,
            wire_bytes_per_update=wire / len(history),
            final_val_ppl=history.val_perplexities[-1],
            counts={
                "fed.link.messages": link.messages_sent,
                "fed.link.uplink_wire_bytes": link.uplink_wire_bytes,
                "fed.link.downlink_wire_bytes": link.downlink_wire_bytes,
                "fed.link.raw_bytes": link.raw_bytes_sent,
                "fed.population.pool_materializations":
                    getattr(pool, "materializations", 0),
                "fed.population.pool_evictions": getattr(pool, "evictions", 0),
            },
        )

    def reference(self) -> list[float] | None:
        """Per-update perplexities from an independent path."""
        return None

    def check(self, reps):
        """An op is a server update; it fails when its validation
        perplexity is not finite, differs between reps, or differs
        from the reference path."""
        notes = []
        expected = self.reference()
        if expected is None:
            expected = reps[0].outputs
        failed = 0
        for i, rep in enumerate(reps):
            bad = sum(
                1 for got, want in zip(rep.outputs, expected)
                if not (math.isfinite(got) and got == want)
            ) + abs(len(rep.outputs) - len(expected))
            if bad:
                notes.append(f"rep {i}: perplexities {rep.outputs} "
                             f"!= expected {expected}")
            failed += bad
        return sum(len(rep.outputs) for rep in reps), failed, notes


class TrainDense(_Train):
    name = "train_dense"
    why = ("Algorithm 1 as published: sync FedAvg, 4 of 4 clients, tau=24, "
           "sequential plane, lossless link; tensor+nn+optim dominate, so "
           "kernel work must show here")
    fed = dict(population=4, clients_per_round=4, local_steps=24,
               local_plane="sequential")
    photon = dict(num_shards=4)
    shares = (
        Share("tensor+nn+optim", ("tensor.", "nn.", "optim."), True, 0.70),
        Share("link+serialization", WIRE, False, 0.10),
    )


class TrainBatched(TrainDense):
    name = "train_batched"
    why = ("the same federation, seed and data through the stacked decoder "
           "of fed/batched.py: a kernel change that helps one plane and "
           "costs the other shows as a split")
    fed = {**TrainDense.fed, "local_plane": "batched"}
    shares = (
        Share("tensor+fed.batched", ("tensor.", "fed.batched."), True, 0.70),
    )

    def reference(self):
        """The sequential plane's history, bit for bit."""
        photon = self._photon(local_plane="sequential")
        photon.train(rounds=self.updates)
        return photon.history.val_perplexities


class TrainComm(_Train):
    name = "train_comm"
    why = ("12 clients at tau=1 with int8+error feedback, a checkpoint "
           "after each of 5 updates, then a resumed sixth: codec, zlib, "
           "serialization and runstate outweigh compute, both directions")
    model = replace(SMALL, seq_len=16)
    updates = 6
    fed = dict(population=12, clients_per_round=12, local_steps=1,
               compression="int8", error_feedback=True)
    photon = dict(num_shards=12)
    shares = (
        Share("codec+zlib+serialization+runstate",
              ("compress.", "zlib.", "utils.serialization.", "fed.runstate."),
              True, 0.55),
        Share("local training", LOCAL_TRAINING, False, 0.30, total=True),
    )

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self._dirs = 0

    def setup(self) -> Photon:
        self._dirs += 1
        return self._photon(checkpoint_dir=str(self.tmp / f"ckpt{self._dirs}"),
                            checkpoint_every=1)

    def work(self, photon: Photon) -> Rep:
        photon.train(rounds=self.updates - 1)
        # The crash: a second process would start here with nothing
        # but the checkpoint directory.
        resumed = self._photon(checkpoint_dir=photon.fed_config.checkpoint_dir,
                               checkpoint_every=1, resume=True)
        resumed.train(rounds=self.updates)
        return self._rep(resumed)

    def teardown(self, photon: Photon) -> None:
        shutil.rmtree(photon.fed_config.checkpoint_dir, ignore_errors=True)

    def reference(self):
        """An uninterrupted, never-checkpointed run."""
        photon = self._photon()
        photon.train(rounds=self.updates)
        return photon.history.val_perplexities


class TrainFleet(_Train):
    name = "train_fleet"
    why = ("async vector plane over 12,000 lazy clients with utility "
           "selection: ranking, id resolution and stream construction "
           "dominate, local training is a sliver; tensor work must not move it")
    model = MICRO
    updates = 3
    fed = dict(population=12_000, clients_per_round=64, buffer_size=16,
               local_steps=2, mode="async", client_plane="vector",
               selection="utility", max_live_clients=32)
    photon = dict(
        corpus="pile", val_batches=2, client_speed_spread=4.0,
        walltime_config=WallTimeConfig(
            throughput=2.0, bandwidth_mbps=312.5,
            model_mb=MICRO.param_bytes / 2**20),
    )
    shares = (
        Share("scheduler+population+stream build",
              ("fed.scheduler.", "fed.population.", "data.stream_build"),
              True, 0.55),
        Share("local training", LOCAL_TRAINING, False, 0.15, total=True),
    )


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("192 requests from 24 Zipf users in waves of 8, 6 short and 2 "
           "long per wave, cache of 6: p50 sits in the short population "
           "(wave overhead, LoRA, cache), tokens/s in the long one (KV growth)")
    op = "request"
    shares = (
        Share("serve.*", ("serve.",), True, 0.90),
    )

    model = replace(SMALL, seq_len=160)
    waves = 24
    wave_size = 8
    long_per_wave = 2
    users = 24
    zipf_s = 1.1
    short = dict(prompt=(4, 8), gen=(8, 16))
    long = dict(prompt=(8, 16), gen=(96, 128))
    cache_capacity = 6
    rank = 4
    base_version = 1

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.trace_seed, self.adapter_seed = _seeds(seed, 2)
        # The base the server cold-starts from: the RunState artifact a
        # (one-update) federated run leaves, as `repro serve
        # --from-checkpoint` reads it.  Written once, untimed.
        Photon(self.model,
               FedConfig(population=2, clients_per_round=2, local_steps=1,
                         checkpoint_dir=str(tmp / "base"), checkpoint_every=1),
               OPTIM, num_shards=2).train(rounds=self.base_version)
        self.checkpoint = RunStateCheckpointer(tmp / "base")

    def _base(self) -> DecoderLM:
        _, tree = self.checkpoint.load_tree()
        model = DecoderLM(self.model, seed=0)
        model.load_state_dict(tree["global_state"])
        return model

    def _template(self) -> dict[str, np.ndarray]:
        probe = DecoderLM(self.model, seed=0)
        apply_lora(probe, rank=self.rank, seed=1)
        return lora_state_dict(probe)

    def _trace(self) -> list[Request]:
        """Every wave holds ``long_per_wave`` long requests at seeded
        positions; lengths are seeded permutations of evenly spread
        values, so the token totals do not depend on the seed while
        the order, users and prompts do."""
        rng = np.random.default_rng(self.trace_seed)
        n = self.waves * self.wave_size
        n_long = self.waves * self.long_per_wave
        weights = np.arange(1, self.users + 1, dtype=np.float64) ** -self.zipf_s
        users = rng.choice(self.users, size=n, p=weights / weights.sum())

        def lengths(count: int, lo: int, hi: int) -> list[int]:
            spread = np.linspace(lo, hi, count).round().astype(int)
            return [int(v) for v in rng.permutation(spread)]

        kinds = {
            True: (lengths(n_long, *self.long["prompt"]),
                   lengths(n_long, *self.long["gen"])),
            False: (lengths(n - n_long, *self.short["prompt"]),
                    lengths(n - n_long, *self.short["gen"])),
        }
        requests = []
        for wave in range(self.waves):
            is_long = np.zeros(self.wave_size, dtype=bool)
            is_long[rng.choice(self.wave_size, self.long_per_wave,
                               replace=False)] = True
            for flag in is_long:
                prompts, gens = kinds[bool(flag)]
                prompt = rng.integers(0, self.model.vocab_size, size=prompts.pop())
                i = len(requests)
                requests.append(Request(f"r{i}", int(users[i]), prompt, gens.pop()))
        return requests

    def _adapter(self, template, user: int):
        # Looked up on the module at call time so the traced rep's
        # wrapper around the adapter source is the one that runs.
        return adapters.synthetic_adapter(template, user, self.base_version,
                                          seed=self.adapter_seed)

    def setup(self):
        engine = MultiAdapterEngine(self._base(), base_version=self.base_version,
                                    max_streams=self.wave_size)
        template = self._template()
        replayer = RequestReplayer(
            engine, AdapterCache(self.cache_capacity),
            lambda user: self._adapter(template, user),
            batch_size=self.wave_size)
        return replayer, self._trace()

    def work(self, state) -> Rep:
        replayer, trace = state
        result = replayer.run(trace)
        cache = replayer.cache
        return Rep(
            tokens=result.tokens_out,
            outputs=result.outputs,
            request_ms=[float(v) for v in result.latencies_ms],
            counts={
                "serve.cache.hits": cache.hits,
                "serve.cache.misses": cache.misses,
                "serve.cache.evictions": cache.evictions,
                "serve.cache.hit_ratio": cache.hit_rate,
            },
        )

    def check(self, reps):
        """An op is a request; it fails when its tokens differ from
        decoding it alone on a model with its adapter merged in."""
        template = self._template()
        names = ("qkv", "proj", "up", "down")
        engines: dict[int, InferenceEngine] = {}

        def merged(user: int) -> InferenceEngine:
            if user not in engines:
                model = apply_lora(self._base(), rank=self.rank, seed=1)
                load_lora_state_dict(model, {
                    f"lora{i}.{names[i % 4]}.{part}": array
                    for i, pair in enumerate(self._adapter(template, user).pairs)
                    for part, array in zip("ab", pair)
                })
                engines[user] = InferenceEngine(merge_lora(model))
            return engines[user]

        expected = {
            r.request_id: merged(r.user_id).generate(
                r.prompt, r.max_new_tokens, temperature=0.0)
            for r in self._trace()
        }
        notes = []
        failed = 0
        for i, rep in enumerate(reps):
            wrong = [rid for rid, want in expected.items()
                     if not np.array_equal(rep.outputs.get(rid), want)]
            if wrong:
                notes.append(f"rep {i}: {len(wrong)} requests differ from "
                             f"merge_lora + InferenceEngine.generate "
                             f"(first: {wrong[0]})")
            failed += len(wrong)
        return len(expected) * len(reps), failed, notes


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TrainDense, TrainBatched, TrainComm, TrainFleet, ServeMixed)
}
