"""Crash-consistent checkpoint/resume: kill-at-a-server-update-boundary
followed by a resume must replay the uninterrupted run bit-exactly
under ``checkpoint_codec="none"`` — same final weights, RoundRecords
and drop ledger — for both engines, with the full fault stack active
(deadlines, requeue, jitter, utility selection, crash injection and a
lossy-uplink codec with error feedback)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.config import FedConfig, ModelConfig, OptimConfig, WallTimeConfig
from repro.fed import CheckpointManager, FailureModel, Photon

from helpers import assert_bit_exact_resume, run_crash_resume

CFG = ModelConfig("micro", n_blocks=1, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=16)
OPTIM = OptimConfig(max_lr=3e-3, warmup_steps=2, schedule_steps=64,
                    batch_size=2, weight_decay=0.0)
WALLTIME = WallTimeConfig(throughput=2.0, bandwidth_mbps=312.5, model_mb=0.05)


def sync_photon(rounds=3, seed=0, **overrides):
    """Partial participation + FedAdam + crash injection: every RNG
    stream the sync engine owns is live."""
    fed = FedConfig(population=3, clients_per_round=2, local_steps=2,
                    rounds=rounds, server_opt="fedadam", server_lr=0.02,
                    seed=seed, **overrides)
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                  comm_topology="ps", uptime=0.9,
                  failure_model=FailureModel(crash_prob=0.1, seed=seed + 1))


def async_photon(rounds=4, seed=0, drop_policy="requeue", compression="int8",
                 **overrides):
    """The full async fault stack: deadline + requeue, seeded jitter,
    utility selection, heterogeneous clock, crash injection, lossy
    int8 uplink with error feedback, FedMom server momentum."""
    fed = FedConfig(population=4, clients_per_round=3, local_steps=2,
                    rounds=rounds, mode="async", buffer_size=2,
                    staleness_alpha=0.5, deadline=2.0,
                    drop_policy=drop_policy, selection="utility",
                    jitter=0.3, compression=compression,
                    error_feedback=compression != "none",
                    server_opt="fedmom", server_momentum=0.9, seed=seed,
                    **overrides)
    return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                  walltime_config=WALLTIME, client_speed_spread=3.0,
                  uptime=0.9,
                  failure_model=FailureModel(crash_prob=0.1, seed=seed + 1))


class TestBitExactResume:
    def test_sync_kill_and_resume(self):
        full, resumed = run_crash_resume(
            lambda **kw: sync_photon(rounds=2, **kw), rounds=2, kill_at=1)
        assert_bit_exact_resume(full, resumed)
        assert full.result().resumed_from_round is None
        assert resumed.result().resumed_from_round == 1

    def test_async_full_fault_stack_kill_and_resume(self):
        full, resumed = run_crash_resume(
            lambda **kw: async_photon(**kw), rounds=4, kill_at=2)
        assert_bit_exact_resume(full, resumed)
        # The arm is only meaningful if the fault machinery actually
        # fired: cancelled cycles and EF residuals must exist.
        assert resumed.aggregator.drop_ledger.total_cancelled_cycles > 0
        assert len(resumed.aggregator.error_feedback) > 0

    @pytest.mark.slow
    def test_async_kill_matrix_every_boundary(self):
        """Kill at EVERY server-update boundary, for every enforcing
        drop policy — the crash-matrix sweep (nightly)."""
        for drop_policy in ("drop", "requeue", "admit_partial"):
            reference = None
            for kill_at in range(1, 4):
                full, resumed = run_crash_resume(
                    lambda **kw: async_photon(drop_policy=drop_policy, **kw),
                    rounds=4, kill_at=kill_at)
                assert_bit_exact_resume(full, resumed)
                if reference is None:
                    reference = full

    @pytest.mark.slow
    def test_async_kill_matrix_multi_seed(self):
        for seed in (1, 2, 3):
            full, resumed = run_crash_resume(
                lambda **kw: async_photon(seed=seed, **kw),
                rounds=4, kill_at=2)
            assert_bit_exact_resume(full, resumed)

    @pytest.mark.slow
    def test_sync_kill_matrix(self):
        for kill_at in (1, 2):
            full, resumed = run_crash_resume(
                lambda **kw: sync_photon(**kw), rounds=3, kill_at=kill_at)
            assert_bit_exact_resume(full, resumed)

    @pytest.mark.slow
    def test_adaptive_steps_and_admit_partial_arm(self):
        def build(**kw):
            fed = FedConfig(population=3, clients_per_round=3, local_steps=4,
                            rounds=4, mode="async", buffer_size=2,
                            deadline=30.0, drop_policy="admit_partial",
                            adaptive_local_steps=True, **kw)
            return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2,
                          walltime_config=WALLTIME, client_speed_spread=4.0)

        full, resumed = run_crash_resume(build, rounds=4, kill_at=2)
        assert_bit_exact_resume(full, resumed)


class TestCheckpointCadenceAndCodec:
    def test_checkpoint_every_cadence(self, tmp_path):
        photon = sync_photon(checkpoint_dir=str(tmp_path), checkpoint_every=2)
        photon.train(rounds=3)
        # Boundaries 2 (and not 1 or 3) are checkpointed.
        assert photon.run_checkpointer.manager.list_checkpoints() == [2]

    @pytest.mark.slow
    def test_resume_from_quantized_checkpoint_stays_close(self):
        """FedMom velocity shipped as int8: the resumed run is no
        longer bit-exact, but the final loss stays within 2%."""
        def build(**kw):
            fed = FedConfig(population=3, clients_per_round=3, local_steps=4,
                            rounds=4, server_opt="fedmom",
                            server_momentum=0.9, **kw)
            return Photon(CFG, fed, OPTIM, num_shards=4, val_batches=2)

        full, resumed = run_crash_resume(build, rounds=4, kill_at=2,
                                         checkpoint_codec="int8")
        loss_full = np.log(full.history.val_perplexities[-1])
        loss_resumed = np.log(resumed.history.val_perplexities[-1])
        assert abs(loss_full - loss_resumed) / loss_full < 0.02

    def test_resume_without_checkpoints_fails_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sync_photon(checkpoint_dir=str(tmp_path), resume=True)

    @pytest.mark.slow
    def test_fully_completed_resume_is_a_no_op(self, tmp_path):
        photon = sync_photon(rounds=2, checkpoint_dir=str(tmp_path))
        photon.train()
        again = sync_photon(rounds=2, checkpoint_dir=str(tmp_path), resume=True)
        history = again.train()
        assert len(history) == 2  # nothing re-ran


class TestConfigValidation:
    def test_checkpoint_every_needs_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            FedConfig(checkpoint_every=2)

    def test_resume_needs_dir(self):
        with pytest.raises(ValueError, match="resume"):
            FedConfig(resume=True)

    def test_codec_needs_dir(self):
        with pytest.raises(ValueError, match="checkpoint_codec"):
            FedConfig(checkpoint_codec="int8")

    def test_bad_cadence_and_codec(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            FedConfig(checkpoint_dir=str(tmp_path), checkpoint_every=0)
        with pytest.raises(ValueError, match="unknown"):
            FedConfig(checkpoint_dir=str(tmp_path), checkpoint_codec="int7")


class TestCli:
    def test_resume_conflicting_dirs_is_usage_error(self, capsys, tmp_path):
        assert main(["train", "--resume", str(tmp_path / "a"),
                     "--checkpoint-dir", str(tmp_path / "b")]) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_empty_dir_is_usage_error(self, capsys, tmp_path):
        argv = ["train", "--model", "tiny", "--clients", "2",
                "--local-steps", "1", "--rounds", "1", "--batch-size", "2",
                "--resume", str(tmp_path)]
        assert main(argv) == 2
        assert "no checkpoints" in capsys.readouterr().err
        # Only pre-container checkpoints: named as such, not "empty".
        (tmp_path / "runstate_00000002.npz").write_bytes(b"PK")
        assert main(argv) == 2
        assert "pre-container format" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,field", [
        (lambda t: t.pop("scheduler"), "SyncAggregator.scheduler"),
        (lambda t: t["global_state"].update(
            {k: v.astype(np.float64) for k, v in t["global_state"].items()}),
         "SyncAggregator.global_state"),
    ], ids=["scheduler-dropped", "float64-weights"])
    def test_resume_damaged_field_is_one_line_error(self, capsys, tmp_path,
                                                    damage, field):
        """A well-formed checkpoint with one damaged field: exit 2 and
        one stderr line naming ``<component>.<field>`` (was a bare
        ``'scheduler'``, or a silent resume on float64 weights)."""
        base = ["train", "--model", "tiny", "--clients", "2",
                "--local-steps", "1", "--batch-size", "2"]
        assert main(base + ["--rounds", "1",
                            "--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        manager = CheckpointManager(tmp_path, prefix="runstate")
        step, tree, metadata = manager.load()
        damage(tree)
        manager.save(step, tree, metadata)
        assert main(base + ["--rounds", "2", "--resume", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("repro train: error: ") and field in line

    def test_checkpoint_codec_without_dir_is_usage_error(self, capsys):
        assert main(["train", "--checkpoint-codec", "int8"]) == 2
        assert "checkpoint_codec" in capsys.readouterr().err

    @pytest.mark.slow
    def test_train_checkpoint_then_resume(self, capsys, tmp_path):
        base = ["train", "--model", "tiny", "--clients", "2",
                "--local-steps", "2", "--batch-size", "2"]
        assert main(base + ["--rounds", "1",
                            "--checkpoint-dir", str(tmp_path)]) == 0
        assert "checkpoints     :" in capsys.readouterr().out
        assert main(base + ["--rounds", "2",
                            "--resume", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "resumed         : round 1" in out
        # The resumed table shows both the restored and the new round.
        assert "\n    0  " in out and "\n    1  " in out
