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
from dataclasses import fields

from .config import (
    PAPER_MODELS,
    PAPER_RESOURCES,
    PAPER_THROUGHPUTS,
    TINY_MODELS,
    FedConfig,
    OptimConfig,
    Span,
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
    train.add_argument("--batch-size", type=int, default=4)
    train.add_argument("--max-lr", type=float, default=4e-3)
    train.add_argument("--corpus", choices=["c4", "pile"], default="c4")
    train.add_argument("--heterogeneity", type=float, default=1.0)
    train.add_argument("--straggler-spread", type=float, default=1.0,
                       help="per-client slowdown spread for the simulated clock "
                            "(> 1 auto-enables --walltime; 1 = equipollent)")
    train.add_argument("--walltime", action="store_true",
                       help="attach the Appendix B.1 wall-time model "
                            "(125M-preset bandwidth/throughput)")
    train.add_argument("--crash-prob", type=float, default=0.0,
                       help="per-(client, round) crash probability "
                            "(seeded fault injection)")
    train.add_argument("--max-workers", type=int, default=1,
                       help="worker processes of --local-plane procpool "
                            "(any other plane takes 1)")
    for f, option, metavar, _ in _fed_flags():
        domain, help = f.metadata["domain"], f.metadata["help"]
        if f.name == "resume":  # --resume DIR names the directory to load
            train.add_argument(option, metavar=metavar, help=help)
        elif isinstance(f.default, bool):
            train.add_argument(option, action="store_true", help=help)
        else:  # the domain gives the value's type and choices
            train.add_argument(
                option, default=f.default, metavar=metavar, help=help,
                type=(int if domain.integer else float) if isinstance(domain, Span) else None,
                choices=domain if isinstance(domain, tuple) else None)
    # Where the CLI's defaults differ from the library's; --sampled
    # unset means the whole population.
    train.set_defaults(clients=4, sampled=None, local_steps=16, rounds=4)

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


def _fed_flags():
    """``(field, option, metavar, dest)`` of every :class:`FedConfig`
    field that has a ``repro train`` flag, in declaration order."""
    for f in fields(FedConfig):
        if f.metadata["flag"] is not None:
            option, _, metavar = f.metadata["flag"].partition(" ")
            yield f, option, metavar or None, option[2:].replace("-", "_")


def _fed_config(args) -> FedConfig:
    """The :class:`FedConfig` a ``repro train`` command line asks for:
    every flagged field from its flag, except that ``--sampled`` unset
    means the whole population and ``--resume DIR`` both resumes and
    checkpoints under DIR."""
    if args.resume is not None and args.checkpoint_dir not in (None, args.resume):
        raise ValueError(
            "--resume and --checkpoint-dir point at different "
            "directories; a resumed run keeps checkpointing where it "
            "loads from"
        )
    values = {f.name: getattr(args, dest) for f, _, _, dest in _fed_flags()}
    values.update(
        clients_per_round=args.clients if args.sampled is None else args.sampled,
        checkpoint_dir=args.resume or args.checkpoint_dir,
        resume=args.resume is not None,
    )
    return FedConfig(**values)


def _cmd_train(args) -> int:
    from .fed import FailureModel, Photon
    from .net import gbps_to_mbps

    model = model_config(args.model)
    fed = _fed_config(args)
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
              f"from {fed.checkpoint_dir}")
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
    if fed.local_plane != FedConfig.local_plane:
        workers = (f" (max_workers={args.max_workers})"
                   if fed.local_plane == "procpool" else "")
        print(f"local plane     : {fed.local_plane}{workers}")
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
    if fed.checkpoint_dir is not None:
        latest = photon.run_checkpointer.latest_step()
        print(f"checkpoints     : {fed.checkpoint_dir} "
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
