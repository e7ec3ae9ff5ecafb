"""Command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.cli import _fed_config, _warmup_for, build_parser, main
from repro.config import FedConfig

DATA = Path(__file__).parent / "data"
CONFIGS = DATA / "cli_train_configs.json"
FLAGS = DATA / "cli_train_flags.json"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "tiny"
        assert args.clients == 4

    def test_walltime_args(self):
        args = build_parser().parse_args(
            ["walltime", "--model", "7B", "--clients", "4", "--overlap"])
        assert args.model == "7B"
        assert args.overlap

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_fault_flags(self):
        args = build_parser().parse_args(
            ["train", "--mode", "async", "--deadline", "5.5",
             "--drop-policy", "requeue", "--adaptive-local-steps",
             "--crash-prob", "0.1"])
        assert args.deadline == 5.5
        assert args.drop_policy == "requeue"
        assert args.adaptive_local_steps
        assert args.crash_prob == 0.1

    def test_drop_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--deadline", "5", "--drop-policy", "discard"])

    def test_compression_flags(self):
        args = build_parser().parse_args(
            ["train", "--compression", "topk:0.1+fp16", "--error-feedback",
             "--compress-broadcast", "--stat-utility-weight", "1.5"])
        assert args.compression == "topk:0.1+fp16"
        assert args.error_feedback and args.compress_broadcast
        assert args.stat_utility_weight == 1.5
        assert build_parser().parse_args(["train"]).compression == "none"

    def test_bad_compression_spec_is_usage_error(self, capsys):
        assert main(["train", "--compression", "int7"]) == 2
        assert "compression" in capsys.readouterr().err
        assert main(["train", "--compress-broadcast"]) == 2
        assert "compress_broadcast" in capsys.readouterr().err

    @pytest.mark.slow
    def test_fault_abort_is_one_line_not_a_traceback(self, capsys):
        """An exhausted retry budget under crash injection aborts the
        run; the CLI reports it in one line (exit 1), no traceback."""
        assert main(["train", "--model", "tiny", "--clients", "2",
                     "--local-steps", "1", "--rounds", "2",
                     "--batch-size", "2", "--crash-prob", "0.9"]) == 1
        err = capsys.readouterr().err
        assert "aborted" in err and "Traceback" not in err


class TestWarmupSchedule:
    """`--rounds 1 --local-steps 1` used to produce warmup == total
    steps, which WarmupCosine rejects; warmup must stay strictly
    below the total."""

    def test_one_step_run_gets_zero_warmup(self):
        assert _warmup_for(1) == 0

    def test_short_runs_keep_warmup(self):
        assert _warmup_for(2) == 1
        assert _warmup_for(4) == 1
        assert _warmup_for(8) == 2

    @pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 8, 64, 1000])
    def test_warmup_always_below_total(self, total):
        from repro.optim import WarmupCosine

        warmup = _warmup_for(total)
        assert 0 <= warmup < total
        # The schedule construction that `repro train` performs.
        sched = WarmupCosine(1e-3, warmup, total)
        assert sched(0) > 0


class TestUsageErrors:
    """Config mistakes print a one-line usage error (exit code 2)
    instead of a raw traceback."""

    def expect_error(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error:")
        assert needle in err
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_buffer_size_requires_async(self, capsys):
        self.expect_error(["train", "--buffer-size", "2"], capsys,
                          "buffer_size only applies to mode='async'")

    def test_staleness_alpha_requires_async(self, capsys):
        self.expect_error(["train", "--staleness-alpha", "0.5"], capsys,
                          "staleness_alpha")

    def test_deadline_requires_async(self, capsys):
        self.expect_error(["train", "--deadline", "5"], capsys, "deadline")

    def test_drop_policy_requires_deadline(self, capsys):
        self.expect_error(
            ["train", "--mode", "async", "--drop-policy", "drop"],
            capsys, "drop_policy needs a deadline")

    def test_adaptive_steps_require_async(self, capsys):
        self.expect_error(["train", "--adaptive-local-steps"], capsys,
                          "adaptive_local_steps")

    def test_sampled_exceeding_population(self, capsys):
        self.expect_error(["train", "--clients", "2", "--sampled", "4"],
                          capsys, "exceeds")

    def test_unknown_model_preset(self, capsys):
        self.expect_error(["train", "--model", "900B"], capsys,
                          "unknown model")

    def test_straggler_spread_below_one(self, capsys):
        self.expect_error(["train", "--straggler-spread", "0.5"], capsys,
                          "client_speed_spread")

    def test_impossible_deadline(self, capsys):
        # Unit clock (no --walltime): every cycle costs 1 simulated
        # second, so a 0.5 s deadline can never admit an update.
        self.expect_error(
            ["train", "--model", "tiny", "--clients", "2", "--local-steps",
             "2", "--rounds", "1", "--batch-size", "2", "--mode", "async",
             "--deadline", "0.5"],
            capsys, "fastest client cycle")


    SMALL = ["train", "--clients", "2", "--local-steps", "1", "--rounds",
             "1", "--batch-size", "2"]

    def test_zero_local_steps(self, capsys):
        self.expect_error(["train", "--local-steps", "0"], capsys,
                          "local_steps must be an integer >= 1, got 0")

    def test_zero_sampled_is_not_all_clients(self, capsys):
        self.expect_error(self.SMALL + ["--sampled", "0"], capsys,
                          "clients_per_round must be an integer >= 1, got 0")

    def test_nan_deadline(self, capsys):
        self.expect_error(self.SMALL + ["--mode", "async", "--deadline", "nan"],
                          capsys, "deadline must be positive and finite, got nan")

    def test_unknown_server_opt_is_a_config_error(self, capsys):
        self.expect_error(["train", "--server-opt", "sgd"], capsys,
                          "server_opt: unknown server optimizer 'sgd'")

    def test_workers_need_the_procpool(self, capsys):
        self.expect_error(["train", "--max-workers", "2"], capsys,
                          "max_workers=2 needs local_plane='procpool'")


def _train_parser():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["train"]


class TestGeneratedTrainFlags:
    """``repro train``'s FedConfig flags and the FedConfig it builds are
    generated from the field declarations; both are pinned to what the
    hand-written parser produced."""

    def test_every_invocation_builds_the_same_config(self):
        """Every ``repro train`` line in README.md and tests/ (examples/
        and ci.yml run none), plus the bare command: the same FedConfig,
        or the same rejection (its old text, perhaps with the field's
        name in front)."""
        for entry in json.loads(CONFIGS.read_text()):
            args = build_parser().parse_args(entry["argv"])
            if "error" in entry:
                with pytest.raises(ValueError) as info:
                    _fed_config(args)
                assert entry["error"] in str(info.value), entry["argv"]
            else:
                assert asdict(_fed_config(args)) == entry["config"], entry["argv"]

    def test_flags_defaults_and_choices_are_pinned(self):
        pinned = json.loads(FLAGS.read_text())["flags"]
        flags = {}
        for action in _train_parser()._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flags[action.option_strings[0]] = {
                "dest": action.dest, "default": action.default,
                "choices": list(action.choices) if action.choices else None,
                "type": getattr(action.type, "__name__", None),
                "metavar": action.metavar, "takes_value": action.nargs != 0,
            }
        # The one intended change: the server optimizer's names moved
        # from an argparse choice list to FedConfig, which asks the
        # factory that builds the optimizer (an unknown name is a
        # FedConfig error now, not argparse's "invalid choice").
        server_opt = pinned["--server-opt"]
        for name in server_opt.pop("choices"):
            FedConfig(server_opt=name)
        assert flags["--server-opt"].pop("choices") is None
        assert sorted(flags) == sorted(pinned)
        assert flags == pinned

    def test_help_is_the_declared_help(self):
        helps = {a.option_strings[0]: a.help for a in _train_parser()._actions}
        for f in dataclasses.fields(FedConfig):
            flag = f.metadata["flag"]
            if flag is not None:
                assert helps[flag.split()[0]] == f.metadata["help"]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "7B" in out
        assert "regional resources" in out

    def test_topology(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "Maharashtra" in out
        assert "best RAR ring" in out

    def test_walltime(self, capsys):
        assert main(["walltime", "--model", "125M", "--clients", "8",
                     "--local-steps", "512"]) == 0
        out = capsys.readouterr().out
        assert "round compute   : 256.0 s" in out

    def test_walltime_overlap_cheaper(self, capsys):
        main(["walltime", "--model", "7B", "--clients", "4",
              "--topology", "ps", "--bandwidth-gbps", "1"])
        plain = capsys.readouterr().out
        main(["walltime", "--model", "7B", "--clients", "4",
              "--topology", "ps", "--bandwidth-gbps", "1", "--overlap"])
        overlapped = capsys.readouterr().out

        def total(text):
            line = [ln for ln in text.splitlines() if "total wall" in ln][0]
            return float(line.split(":")[1].split("h")[0])

        assert total(overlapped) <= total(plain)

    @pytest.mark.slow
    def test_train_micro(self, capsys):
        assert main(["train", "--model", "tiny", "--clients", "2",
                     "--local-steps", "2", "--rounds", "1",
                     "--batch-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "best perplexity" in out

    @pytest.mark.slow
    def test_train_single_step_run(self, capsys):
        """Regression: --rounds 1 --local-steps 1 tripped the warmup
        schedule edge (warmup == total steps)."""
        assert main(["train", "--model", "tiny", "--clients", "2",
                     "--local-steps", "1", "--rounds", "1",
                     "--batch-size", "2"]) == 0
        assert "best perplexity" in capsys.readouterr().out

    @pytest.mark.slow
    def test_train_fault_tolerant_async(self, capsys):
        assert main(["train", "--model", "tiny", "--clients", "3",
                     "--local-steps", "2", "--rounds", "2",
                     "--batch-size", "2", "--mode", "async",
                     "--walltime", "--straggler-spread", "3.0",
                     "--deadline", "2.5", "--drop-policy", "drop",
                     "--adaptive-local-steps", "--crash-prob", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "deadline        : 2.5 s (drop)" in out
        assert "crashes" in out

    def test_default_plane_prints_no_plane_line(self, capsys):
        """A run on the declared default plane prints no ``local plane``
        line; any other plane adds exactly that line (``max_workers``
        only for procpool) and changes nothing else, perplexities
        included."""
        argv = ["train", "--model", "tiny", "--clients", "2",
                "--local-steps", "1", "--rounds", "1", "--batch-size", "2"]
        assert main(argv) == 0
        default = capsys.readouterr().out.splitlines()
        assert main(argv + ["--local-plane", "sequential"]) == 0
        sequential = capsys.readouterr().out.splitlines()
        assert [ln for ln in sequential if ln not in default] == [
            "local plane     : sequential"]
        sequential.remove("local plane     : sequential")
        assert sequential == default
        assert main(argv + ["--local-plane", "procpool", "--max-workers", "2"]) == 0
        assert "local plane     : procpool (max_workers=2)" in capsys.readouterr().out

    def test_diloco_micro(self, capsys):
        assert main(["diloco", "--model", "tiny", "--clients", "2",
                     "--local-steps", "2", "--rounds", "1",
                     "--batch-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "val_ppl" in out
