"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``     run a federated (Photon) pre-training job
``diloco``    run the DiLoCo baseline on the same plumbing
``serve``     replay multi-tenant LoRA traffic over the global model
``walltime``  evaluate the Appendix B.1 wall-time model
``topology``  analyze the Figure 2 federation topology
``info``      print the paper presets (Tables 1/4/5/6)
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    CLIENT_PLANES,
    DROP_POLICIES,
    LOCAL_PLANES,
    MODES,
    PAPER_MODELS,
    PAPER_RESOURCES,
    PAPER_THROUGHPUTS,
    SELECTION_POLICIES,
    TINY_MODELS,
    FedConfig,
    OptimConfig,
    WallTimeConfig,
    model_config,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Photon federated LLM pre-training (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a federated Photon job")
    train.add_argument("--model", default="tiny",
                       help="model preset name (see `repro info`)")
    train.add_argument("--clients", type=int, default=4)
    train.add_argument("--sampled", type=int, default=None,
                       help="clients per round (default: all)")
    train.add_argument("--local-steps", type=int, default=16)
    train.add_argument("--rounds", type=int, default=4)
    train.add_argument("--batch-size", type=int, default=4)
    train.add_argument("--max-lr", type=float, default=4e-3)
    train.add_argument("--corpus", choices=["c4", "pile"], default="c4")
    train.add_argument("--heterogeneity", type=float, default=1.0)
    train.add_argument("--server-opt", default="fedavg",
                       choices=["fedavg", "fedmom", "fedadam"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--mode", choices=MODES, default="sync",
                       help="round engine: Algorithm-1 barrier or buffered async")
    train.add_argument("--buffer-size", type=int, default=None,
                       help="async: updates per server step (default: cohort size)")
    train.add_argument("--staleness-alpha", type=float, default=None,
                       help="async: stale deltas weighted 1/(1+s)^alpha "
                            "(default 0.5)")
    train.add_argument("--straggler-spread", type=float, default=1.0,
                       help="per-client slowdown spread for the simulated clock "
                            "(> 1 auto-enables --walltime; 1 = equipollent)")
    train.add_argument("--walltime", action="store_true",
                       help="attach the Appendix B.1 wall-time model "
                            "(125M-preset bandwidth/throughput)")
    train.add_argument("--deadline", type=float, default=None,
                       help="async: simulated seconds a client cycle may take "
                            "before the drop policy applies")
    train.add_argument("--drop-policy", default=None,
                       choices=DROP_POLICIES,
                       help="async: what happens to over-deadline work "
                            "(default with --deadline: drop; admit_partial "
                            "salvages the finished steps)")
    train.add_argument("--adaptive-local-steps", action="store_true",
                       help="async: slow clients train proportionally fewer "
                            "steps per pull (needs a wall-time model)")
    train.add_argument("--crash-prob", type=float, default=0.0,
                       help="per-(client, round) crash probability "
                            "(seeded fault injection)")
    train.add_argument("--selection", default="random",
                       choices=SELECTION_POLICIES,
                       help="client-selection policy (random = legacy "
                            "behavior; utility = Oort/REFL-style "
                            "deadline-aware score with a fairness floor)")
    train.add_argument("--jitter", type=float, default=0.0,
                       help="async: scale of seeded lognormal per-cycle "
                            "duration noise (0 = deterministic clock)")
    train.add_argument("--exploration", type=float, default=1.0,
                       help="utility selection: weight of the recency bonus "
                            "that keeps slow clients from starving")
    train.add_argument("--stat-utility-weight", type=float, default=0.0,
                       help="utility selection: weight of the recent "
                            "loss-improvement term (true Oort; 0 = off)")
    train.add_argument("--client-plane", choices=CLIENT_PLANES,
                       default="eager",
                       help="when clients are built: eager builds every "
                            "one up front; vector builds each on first use "
                            "and evicts beyond --max-live-clients "
                            "(million-client scale)")
    train.add_argument("--local-plane", choices=LOCAL_PLANES,
                       default="sequential",
                       help="local-training execution: sequential runs "
                            "clients one by one (legacy, bit-exact anchor); "
                            "batched stacks homogeneous clients into one "
                            "fused step (bit-exact, ~single-core speedup); "
                            "procpool trains on a persistent fork pool with "
                            "shared-memory broadcasts (needs --max-workers)")
    train.add_argument("--max-workers", type=int, default=1,
                       help="worker parallelism for local training "
                            "(thread dispatch on the sequential plane, "
                            "processes under --local-plane procpool)")
    train.add_argument("--cohorts", type=int, default=None,
                       help="vector plane: number of timing archetypes "
                            "shared across the population (O(cohorts) "
                            "parameter memory; default: per-client draws)")
    train.add_argument("--max-live-clients", type=int, default=None,
                       help="vector plane: cap on simultaneously "
                            "materialized client objects (default "
                            "max(64, 2x sampled cohort))")
    train.add_argument("--ef-staleness-gamma", type=float, default=1.0,
                       help="decay error-feedback residuals by gamma^s for "
                            "a residual banked s server versions ago "
                            "(1 = classic EF, no decay)")
    train.add_argument("--feasibility-quantile", type=float, default=None,
                       help="fastest/utility selection: fold this jitter "
                            "quantile into deadline feasibility (e.g. 0.95 "
                            "plans for 95th-percentile cycle durations)")
    train.add_argument("--compression", default="none",
                       help="lossy update codec for client uploads: none, "
                            "fp16, int8, int4, topk:<frac>, randk:<frac>, "
                            "chained with '+' (e.g. topk:0.05+fp16)")
    train.add_argument("--error-feedback", action="store_true",
                       help="keep a per-client EF residual so lossy "
                            "compression stays convergent")
    train.add_argument("--compress-broadcast", action="store_true",
                       help="also run the server broadcast through the "
                            "--compression codec")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write rotating full-run-state checkpoints "
                            "(weights, ServerOpt moments, event queue, "
                            "RNG streams) under DIR")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="checkpoint cadence in server updates "
                            "(default 1; needs --checkpoint-dir)")
    train.add_argument("--checkpoint-codec", default="none",
                       help="compress the ServerOpt moments inside the "
                            "checkpoint: none (bit-exact resume), fp16, "
                            "int8, int4")
    train.add_argument("--resume", default=None, metavar="DIR",
                       help="resume from the latest run-state checkpoint "
                            "under DIR (implies --checkpoint-dir DIR; "
                            "--rounds is the total target)")
    train.add_argument("--tiers", type=int, default=None,
                       help="hierarchical federation: number of region-level "
                            "edge aggregators between the clients and the "
                            "root (1 = identity tier, bit-exact vs flat; "
                            "region 0 is the root site)")
    train.add_argument("--tier-compression", default="none",
                       help="edge->root backhaul codec (same grammar as "
                            "--compression; needs --tiers)")
    train.add_argument("--replicas", type=int, default=0,
                       help="standby servers receiving versioned RunState "
                            "snapshots over the wire; a crashed root "
                            "promotes the newest surviving one")
    train.add_argument("--replicate-every", type=int, default=1,
                       metavar="N",
                       help="replication cadence in server updates (the "
                            "staleness bound per crash; needs --replicas)")
    train.add_argument("--server-crash-prob", type=float, default=0.0,
                       help="per-(server, round) probability that the seeded "
                            "crash model kills the root or an edge server "
                            "at a round boundary")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="flight recorder: write a Chrome trace-event "
                            "JSON (Perfetto-loadable) of the run to PATH; "
                            "analyze with python -m repro.obs.analyze")
    train.add_argument("--metrics-every", type=int, default=None,
                       metavar="N",
                       help="flush a component-meter snapshot every N "
                            "server updates to <trace>.metrics.jsonl "
                            "(needs --trace)")

    diloco = sub.add_parser("diloco", help="run the DiLoCo baseline")
    diloco.add_argument("--model", default="tiny")
    diloco.add_argument("--clients", type=int, default=4)
    diloco.add_argument("--local-steps", type=int, default=16)
    diloco.add_argument("--rounds", type=int, default=4)
    diloco.add_argument("--batch-size", type=int, default=4)
    diloco.add_argument("--max-lr", type=float, default=4e-3)
    diloco.add_argument("--server-lr", type=float, default=0.1)

    serve = sub.add_parser(
        "serve",
        help="replay multi-tenant LoRA traffic over the global model")
    serve.add_argument("--model", default="tiny",
                       help="model preset name (see `repro info`)")
    serve.add_argument("--from-checkpoint", default=None, metavar="DIR",
                       help="serve the global weights from the latest "
                            "RunState checkpoint under DIR (the checkpoint "
                            "step becomes the adapter base version)")
    serve.add_argument("--requests", type=int, default=64,
                       help="synthetic trace length")
    serve.add_argument("--users", type=int, default=16,
                       help="tenant population (Zipf-distributed traffic)")
    serve.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf exponent of the user popularity curve")
    serve.add_argument("--prompt-len", type=int, nargs=2, default=(4, 12),
                       metavar=("LO", "HI"),
                       help="inclusive prompt-length range")
    serve.add_argument("--gen-len", type=int, nargs=2, default=(8, 24),
                       metavar=("LO", "HI"),
                       help="inclusive generation-budget range")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="concurrent streams (a finished request's slot "
                            "takes the next one)")
    serve.add_argument("--cache-capacity", type=int, default=8,
                       help="adapters resident in the LRU cache")
    serve.add_argument("--rank", type=int, default=4,
                       help="LoRA rank of the synthetic tenant adapters")
    serve.add_argument("--adapter-scale", type=float, default=0.05,
                       help="stddev of the synthetic adapter factors")
    serve.add_argument("--temperature", type=float, default=0.0,
                       help="sampling temperature (0 = greedy)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="also write the replay metrics as JSON to PATH")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="flight recorder: write a Chrome trace-event "
                            "JSON of the replay to PATH")
    serve.add_argument("--metrics-every", type=int, default=None,
                       metavar="N",
                       help="flush a meter snapshot every N x batch-size "
                            "completed requests to <trace>.metrics.jsonl "
                            "(needs --trace)")

    walltime = sub.add_parser("walltime", help="evaluate the wall-time model")
    walltime.add_argument("--model", default="125M")
    walltime.add_argument("--clients", type=int, default=8)
    walltime.add_argument("--local-steps", type=int, default=500)
    walltime.add_argument("--rounds", type=int, default=20)
    walltime.add_argument("--bandwidth-gbps", type=float, default=10.0)
    walltime.add_argument("--topology", choices=["ps", "ar", "rar"], default="rar")
    walltime.add_argument("--overlap", action="store_true",
                          help="overlap communication with compute (App. B.2)")

    sub.add_parser("topology", help="analyze the Figure 2 federation")
    sub.add_parser("info", help="print paper presets")
    return parser


def _warmup_for(total_steps: int) -> int:
    """Warmup length that always leaves room for the cosine phase.

    Strictly shorter than ``total_steps`` — a one-step run gets zero
    warmup rather than a schedule with no decay phase.
    """
    return min(max(1, total_steps // 4), total_steps - 1)


def _cmd_train(args) -> int:
    from .fed import FailureModel, Photon
    from .net import gbps_to_mbps

    model = model_config(args.model)
    sampled = args.sampled or args.clients
    if (args.resume is not None and args.checkpoint_dir is not None
            and args.resume != args.checkpoint_dir):
        raise ValueError(
            "--resume and --checkpoint-dir point at different "
            "directories; a resumed run keeps checkpointing where it "
            "loads from"
        )
    checkpoint_dir = args.resume or args.checkpoint_dir
    fed = FedConfig(population=args.clients, clients_per_round=sampled,
                    local_steps=args.local_steps, rounds=args.rounds,
                    server_opt=args.server_opt, seed=args.seed,
                    mode=args.mode, buffer_size=args.buffer_size,
                    staleness_alpha=args.staleness_alpha,
                    deadline=args.deadline, drop_policy=args.drop_policy,
                    adaptive_local_steps=args.adaptive_local_steps,
                    selection=args.selection, jitter=args.jitter,
                    exploration=args.exploration,
                    stat_utility_weight=args.stat_utility_weight,
                    client_plane=args.client_plane,
                    local_plane=args.local_plane,
                    cohorts=args.cohorts,
                    max_live_clients=args.max_live_clients,
                    ef_staleness_gamma=args.ef_staleness_gamma,
                    feasibility_quantile=args.feasibility_quantile,
                    compression=args.compression,
                    error_feedback=args.error_feedback,
                    compress_broadcast=args.compress_broadcast,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    checkpoint_codec=args.checkpoint_codec,
                    resume=args.resume is not None,
                    tiers=args.tiers,
                    tier_compression=args.tier_compression,
                    replicas=args.replicas,
                    replicate_every=args.replicate_every,
                    server_crash_prob=args.server_crash_prob,
                    trace_path=args.trace,
                    metrics_every=args.metrics_every)
    optim = OptimConfig(max_lr=args.max_lr,
                        warmup_steps=_warmup_for(fed.total_client_steps),
                        schedule_steps=fed.total_client_steps,
                        batch_size=args.batch_size, weight_decay=0.0)
    walltime_config = None
    if args.walltime or args.straggler_spread > 1.0:
        nu = PAPER_THROUGHPUTS.get(args.model, {}).get("federated", 2.0)
        walltime_config = WallTimeConfig(
            throughput=nu, bandwidth_mbps=gbps_to_mbps(2.5),
            model_mb=model.param_bytes / 2**20,
        )
    failure_model = None
    if args.crash_prob > 0.0:
        failure_model = FailureModel(crash_prob=args.crash_prob, seed=args.seed)
    photon = Photon(model, fed, optim, corpus=args.corpus,
                    heterogeneity=args.heterogeneity,
                    walltime_config=walltime_config,
                    failure_model=failure_model,
                    max_workers=args.max_workers,
                    client_speed_spread=args.straggler_spread)
    history = photon.train()
    if photon.resumed_from_round is not None:
        print(f"resumed         : round {photon.resumed_from_round} "
              f"from {checkpoint_dir}")
    print("round  val_ppl  train_ppl")
    for record in history:
        print(f"{record.round_idx:>5}  {record.val_perplexity:>7.2f}  "
              f"{record.train_perplexity:>9.2f}")
    result = photon.result()
    print(f"engine          : {fed.mode}")
    if fed.client_plane == "vector":
        pool = photon.clients
        print(f"client plane    : vector ({fed.population:,} clients; "
              f"{pool.live_count()} live, "
              f"{pool.materializations} materialized, "
              f"{pool.evictions} evicted)")
    if fed.local_plane != "sequential":
        print(f"local plane     : {fed.local_plane} "
              f"(max_workers={args.max_workers})")
    if fed.selection != "random" or fed.jitter > 0:
        print(f"scheduling      : selection={fed.selection} "
              f"jitter={fed.jitter:g} exploration={fed.exploration:g}")
    print(f"best perplexity : {result.best_perplexity:.2f}")
    print(f"comm bytes      : {result.total_comm_bytes:,}")
    if fed.compression != "none":
        print(f"compression     : {fed.compression} "
              f"(ef={'on' if fed.error_feedback else 'off'}); "
              f"{result.total_raw_bytes:,} raw bytes -> "
              f"{result.total_comm_bytes:,} on the wire "
              f"({result.compression_ratio:.1f}x)")
    if walltime_config is not None:
        print(f"simulated wall  : {result.simulated_wall_time_s:,.1f} s")
    if failure_model is not None:
        failed = sum(len(r.failed_clients) for r in history)
        retries = sum(r.retries for r in history)
        print(f"crashes         : {failure_model.failures_injected} "
              f"({failed} dropped, {retries} retried)")
    if fed.deadline is not None:
        print(f"deadline        : {fed.deadline:g} s "
              f"({fed.drop_policy or 'drop'}); dropped {result.dropped_steps} "
              f"steps / {result.dropped_bytes:,} bytes, "
              f"{result.salvaged_steps} salvaged, "
              f"{result.deadline_misses} late admits")
    if fed.tiers is not None:
        regions = photon.aggregator.edge_tier.regions
        print(f"hierarchy       : {fed.tiers} region(s) "
              f"({', '.join(r.name for r in regions)}); "
              f"backhaul codec={fed.tier_compression}, "
              f"{result.backhaul_raw_bytes:,} raw -> "
              f"{result.backhaul_wire_bytes:,} wire bytes; "
              f"{result.edge_crashes} edge crash(es), "
              f"{result.edge_updates_lost} update(s) lost")
    if photon.failover is not None:
        print(f"failover        : {fed.replicas} replica(s) every "
              f"{fed.replicate_every} update(s); "
              f"{result.server_crashes} root crash(es), "
              f"{result.server_updates_lost} update(s) lost, "
              f"recovery {result.recovery_s_total:.3f} s, "
              f"{result.replication_wire_bytes:,} replication bytes")
    if checkpoint_dir is not None:
        latest = photon.run_checkpointer.latest_step()
        print(f"checkpoints     : {checkpoint_dir} "
              f"(every {fed.checkpoint_every or 1} round(s), "
              f"codec={fed.checkpoint_codec}, latest step {latest})")
    if args.trace is not None:
        summary = photon.tracer.summary()
        print(f"trace           : {args.trace} "
              f"({summary.get('sim_spans', 0)} sim spans, "
              f"{summary.get('host_spans', 0)} host spans"
              + (f"; meters -> {photon.tracer.sink.path}"
                 if photon.tracer.sink is not None else "")
              + ")")
    return 0


def _cmd_diloco(args) -> int:
    from .data import CachedTokenStream, SyntheticC4
    from .fed import build_diloco

    model = model_config(args.model)
    c4 = SyntheticC4(num_shards=max(args.clients, 2), vocab=model.vocab_size)
    streams = {
        f"c{i}": CachedTokenStream(c4.shard(i), batch_size=args.batch_size,
                                   seq_len=model.seq_len, seed=i)
        for i in range(args.clients)
    }
    val = CachedTokenStream(c4.validation(), batch_size=8,
                            seq_len=model.seq_len, seed=999)
    fed = FedConfig(population=args.clients, clients_per_round=args.clients,
                    local_steps=args.local_steps, rounds=args.rounds)
    optim = OptimConfig(max_lr=args.max_lr,
                        warmup_steps=_warmup_for(fed.total_client_steps),
                        schedule_steps=fed.total_client_steps,
                        batch_size=args.batch_size, weight_decay=0.0)
    agg = build_diloco(model, streams, optim, fed, val_stream=val,
                       server_lr=args.server_lr)
    history = agg.run(args.rounds, args.local_steps)
    print("round  val_ppl")
    for record in history:
        print(f"{record.round_idx:>5}  {record.val_perplexity:>7.2f}")
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from .nn import DecoderLM, apply_lora, lora_state_dict
    from .obs import NULL_TRACER, MetricsSink, Tracer
    from .serve import (
        AdapterCache,
        MultiAdapterEngine,
        RequestReplayer,
        SyntheticTrace,
        synthetic_adapter,
    )

    cfg = model_config(args.model)
    model = DecoderLM(cfg, seed=args.seed)
    base_version = 0
    if args.from_checkpoint is not None:
        from .fed.runstate import RunStateCheckpointer

        step, tree = RunStateCheckpointer(args.from_checkpoint).load_tree()
        model.load_state_dict(tree["global_state"])
        base_version = step
        print(f"base model      : {args.model} from "
              f"{args.from_checkpoint} (checkpoint step {step})")
    else:
        print(f"base model      : {args.model} (fresh init, seed {args.seed})")

    tracer = NULL_TRACER
    if args.trace is not None:
        trace_path = Path(args.trace)
        sink = (MetricsSink(trace_path.with_suffix(".metrics.jsonl"))
                if args.metrics_every else None)
        tracer = Tracer(trace_path, metrics_every=args.metrics_every or 0,
                        sink=sink)

    # Synthetic per-tenant adapters: the key set and shapes come from a
    # throwaway LoRA-wrapped copy; the factors are seeded per user.
    probe = DecoderLM(cfg, seed=args.seed)
    apply_lora(probe, rank=args.rank)
    template = lora_state_dict(probe)

    def adapter_source(user_id: int):
        return synthetic_adapter(template, user_id, base_version,
                                 scale=args.adapter_scale, seed=args.seed)

    engine = MultiAdapterEngine(model, base_version=base_version,
                                max_streams=args.batch_size)
    cache = AdapterCache(args.cache_capacity, meters=tracer.meters)
    replayer = RequestReplayer(engine, cache, adapter_source,
                               batch_size=args.batch_size,
                               temperature=args.temperature,
                               seed=args.seed, tracer=tracer)
    trace = SyntheticTrace(args.requests, args.users, zipf_s=args.zipf,
                           prompt_len=tuple(args.prompt_len),
                           gen_len=tuple(args.gen_len),
                           vocab_size=cfg.vocab_size, seed=args.seed)
    result = replayer.run(trace)

    print(f"traffic         : {result.requests} requests, "
          f"{trace.unique_users}/{args.users} users hit "
          f"(zipf s={args.zipf:g}), {args.batch_size} concurrent streams, "
          f"{result.waves} admission rounds")
    print(f"generated       : {result.tokens_out:,} tokens in "
          f"{result.wall_s:.2f} s ({result.tokens_per_s:,.0f} tok/s)")
    print(f"latency         : p50 {result.p50_ms:.1f} ms, "
          f"p99 {result.p99_ms:.1f} ms")
    print(f"adapter cache   : {result.cache_hits} hits / "
          f"{result.cache_misses} misses "
          f"({100 * result.cache_hit_rate:.0f}%), "
          f"{result.cache_evictions} evictions, "
          f"{result.cache_stale_drops} stale drops; "
          f"{result.adapters_resident}/{args.cache_capacity} resident "
          f"({result.adapter_bytes / 2**20:.2f} MiB)")
    if args.json is not None:
        import json

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result.as_dict(), indent=2) + "\n")
        print(f"metrics json    : {out}")
    if tracer.enabled:
        tracer.finish()
        summary = tracer.summary()
        print(f"trace           : {args.trace} "
              f"({summary.get('host_spans', 0)} host spans"
              + (f"; meters -> {tracer.sink.path}"
                 if tracer.sink is not None else "") + ")")
    return 0


def _cmd_walltime(args) -> int:
    from .net import WallTimeModel, gbps_to_mbps

    model = model_config(args.model)
    nu = PAPER_THROUGHPUTS.get(args.model, {}).get("federated", 2.0)
    wt = WallTimeModel(WallTimeConfig(
        throughput=nu,
        bandwidth_mbps=gbps_to_mbps(args.bandwidth_gbps),
        model_mb=model.param_bytes / 2**20,
    ))
    timing = wt.round_timing(args.topology, args.clients, args.local_steps,
                             overlap=args.overlap)
    total = args.rounds * timing.total_s
    print(f"model payload   : {model.param_bytes / 2**20:.0f} MB")
    print(f"round compute   : {timing.compute_s:.1f} s")
    print(f"round comm      : {timing.comm_s:.1f} s "
          f"({100 * timing.comm_fraction:.2f}% of the round)")
    print(f"total wall time : {total / 3600:.2f} h over {args.rounds} rounds")
    return 0


def _cmd_topology(_args) -> int:
    from .net import paper_topology

    topo = paper_topology()
    print("links (Gbps):")
    for a, b in topo.graph.edges:
        print(f"  {a:>12} -- {b:<12} {topo.bandwidth(a, b):>5.1f}")
    ring, ring_bw = topo.best_ring()
    host, host_bw = topo.best_ps_host()
    print(f"best RAR ring : {' -> '.join(ring)} (bottleneck {ring_bw} Gbps)")
    print(f"best PS host  : {host} (worst client link {host_bw} Gbps)")
    return 0


def _cmd_info(_args) -> int:
    print("paper models (Table 4):")
    for name, cfg in PAPER_MODELS.items():
        print(f"  {name:>5}: blocks={cfg.n_blocks:<3} d={cfg.d_model:<5} "
              f"heads={cfg.n_heads:<3} ~{cfg.n_params / 1e6:,.0f}M params")
    print("tiny presets (CPU-scale):")
    for name, cfg in TINY_MODELS.items():
        print(f"  {name:>5}: blocks={cfg.n_blocks:<3} d={cfg.d_model:<5} "
              f"~{cfg.n_params:,} params")
    print("regional resources (Table 1):")
    for size, regions in PAPER_RESOURCES.items():
        spec = ", ".join(f"{r}: {c}x{g} H100" for r, (c, g) in regions.items())
        print(f"  {size:>5}: {spec}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "diloco": _cmd_diloco,
    "serve": _cmd_serve,
    "walltime": _cmd_walltime,
    "topology": _cmd_topology,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    from .fed import ClientFailure

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ClientFailure as exc:
        # A run aborted by the fault policy (strict mode, or a retry
        # budget exhausted under crash injection) is a runtime
        # failure, not a bug: one line, exit 1.
        print(f"repro {args.command}: aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        # Config errors (bad flag combinations, impossible deadlines,
        # a --resume directory without checkpoints, …) are usage
        # errors: one line on stderr, no traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # Unknown preset lookups (e.g. --model) raise KeyError.
        reason = exc.args[0] if exc.args else exc
        print(f"repro {args.command}: error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
