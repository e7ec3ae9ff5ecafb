"""Paper presets and configuration invariants (Tables 1, 4, 5, 6)."""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import (
    PAPER_FED_SETUPS,
    PAPER_HYPERPARAMS,
    PAPER_MODELS,
    PAPER_RESOURCES,
    PAPER_THROUGHPUTS,
    TINY_MODELS,
    FedConfig,
    ModelConfig,
    OptimConfig,
    model_config,
)
from repro.optim import federated_schedule_steps

from helpers import out_of_domain

FLAGS_PIN = Path(__file__).parent / "data" / "cli_train_flags.json"


class TestTable4Architectures:
    def test_all_sizes_present(self):
        assert set(PAPER_MODELS) == {"75M", "125M", "350M", "1.3B", "3B", "7B"}

    @pytest.mark.parametrize("name,blocks,d,heads", [
        ("75M", 3, 896, 16),
        ("125M", 12, 768, 12),
        ("350M", 24, 1024, 16),
        ("1.3B", 24, 2048, 16),
        ("3B", 32, 2560, 20),
        ("7B", 32, 4096, 32),
    ])
    def test_table4_values(self, name, blocks, d, heads):
        cfg = PAPER_MODELS[name]
        assert cfg.n_blocks == blocks
        assert cfg.d_model == d
        assert cfg.n_heads == heads
        assert cfg.expansion_ratio == 4
        assert cfg.vocab_size == 50_368
        assert cfg.adam_betas == (0.9, 0.95)

    def test_sequence_lengths(self):
        assert PAPER_MODELS["75M"].seq_len == 1024
        for name in ("125M", "350M", "1.3B", "3B", "7B"):
            assert PAPER_MODELS[name].seq_len == 2048

    def test_param_bytes_bf16(self):
        cfg = PAPER_MODELS["125M"]
        assert cfg.param_bytes == 2 * cfg.n_params


class TestTable5Hyperparams:
    def test_125m_schedule_lengths(self):
        fed = PAPER_HYPERPARAMS["125M"]["federated"]
        cent = PAPER_HYPERPARAMS["125M"]["centralized"]
        assert fed.schedule_steps == 40_960
        assert cent.schedule_steps == 5_120
        # The federated stretch rule links the two rows.
        assert federated_schedule_steps(
            cent.schedule_steps, cent.batch_size, fed.batch_size
        ) == fed.schedule_steps

    @pytest.mark.parametrize("name,max_lr", [
        ("125M", 6.0e-4), ("1.3B", 2.0e-4), ("3B", 1.6e-4), ("7B", 1.2e-4),
    ])
    def test_max_lrs(self, name, max_lr):
        assert PAPER_HYPERPARAMS[name]["federated"].max_lr == max_lr

    def test_min_lr_is_tenth(self):
        cfg = PAPER_HYPERPARAMS["125M"]["federated"]
        assert cfg.min_lr == pytest.approx(0.1 * cfg.max_lr)

    def test_small_local_batch_only_for_125m(self):
        assert PAPER_HYPERPARAMS["125M"]["federated"].batch_size == 32
        assert PAPER_HYPERPARAMS["7B"]["federated"].batch_size == 1024


class TestTable6AndThroughputs:
    def test_125m_sweeps(self):
        setup = PAPER_FED_SETUPS["125M"]
        assert setup["population"] == [1, 2, 4, 8, 16]
        assert setup["local_steps"] == [64, 128, 512]
        assert set(setup["datasets"]) == {"c4", "pile"}

    def test_billion_scale_500_steps(self):
        for name in ("1.3B", "3B", "7B"):
            assert PAPER_FED_SETUPS[name]["local_steps"] == [500]

    def test_throughputs_fed_slower_for_big_models(self):
        """Appendix B.1: federated per-client ν < centralized ν for
        billion-scale models (clients hold fewer GPUs)."""
        for name in ("1.3B", "3B", "7B"):
            nu = PAPER_THROUGHPUTS[name]
            assert nu["federated"] < nu["centralized"]

    def test_125m_throughput_equal(self):
        nu = PAPER_THROUGHPUTS["125M"]
        assert nu["federated"] == nu["centralized"] == 2.0


class TestTable1Resources:
    def test_regions_per_size(self):
        assert set(PAPER_RESOURCES["7B"]) == {"England", "Utah", "Texas", "Quebec"}
        assert len(PAPER_RESOURCES["125M"]) == 5

    def test_7b_uses_8_gpu_clients(self):
        for clients, gpus in PAPER_RESOURCES["7B"].values():
            assert (clients, gpus) == (1, 8)

    def test_125m_single_gpu_clients(self):
        for clients, gpus in PAPER_RESOURCES["125M"].values():
            assert gpus == 1
            assert clients == 2


class TestConfigBehaviour:
    def test_model_config_lookup(self):
        assert model_config("125M") is PAPER_MODELS["125M"]
        assert model_config("tiny") is TINY_MODELS["tiny"]
        with pytest.raises(KeyError):
            model_config("13B")

    @pytest.mark.parametrize("dropout", [-0.1, 1.0, 1.5, float("nan")])
    def test_dropout_is_validated_where_it_is_configured(self, dropout):
        """Not at the first training step, after the data build — and a
        negative rate is not a silent ``dropout=0``."""
        with pytest.raises(ValueError, match=r"dropout must be in \[0, 1\)"):
            ModelConfig("bad", n_blocks=1, d_model=16, n_heads=2, dropout=dropout)
        with pytest.raises(ValueError, match="dropout"):
            model_config("tiny").scaled(dropout=dropout)

    def test_scaled_override(self):
        cfg = PAPER_MODELS["125M"].scaled(vocab_size=128, seq_len=64)
        assert cfg.vocab_size == 128
        assert cfg.n_blocks == PAPER_MODELS["125M"].n_blocks

    def test_fed_config_properties(self):
        fed = FedConfig(population=8, clients_per_round=4, local_steps=64, rounds=10)
        assert fed.total_client_steps == 640

    def test_tiny_models_are_small(self):
        for cfg in TINY_MODELS.values():
            assert cfg.n_params < 2_000_000

    def test_tiny_family_ordered_by_size(self):
        sizes = [TINY_MODELS[n].n_params for n in ("tiny", "small", "base", "large")]
        assert sizes == sorted(sizes)

    def test_optim_config_defaults_match_paper(self):
        cfg = OptimConfig()
        assert cfg.betas == (0.9, 0.95)
        assert cfg.weight_decay == 0.1
        assert cfg.grad_clip == 1.0


class TestFedConfigDomains:
    """Every field's domain is checked when ``FedConfig(...)`` is built:
    each value below used to be accepted and then ran without a
    deadline, without jitter, to an infinite clock, or died inside the
    run or after the data build."""

    def expect_rejected(self, field, **kwargs):
        with pytest.raises(ValueError, match=f"^{field}\\b") as info:
            FedConfig(**kwargs)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_deadline_must_be_finite(self, value):
        self.expect_rejected("deadline", mode="async", deadline=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_jitter_must_be_finite(self, value):
        self.expect_rejected("jitter", mode="async", jitter=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_jitter_dict_values_must_be_finite(self, value):
        self.expect_rejected("jitter", mode="async",
                             jitter={"client0": 0.1, "client1": value})

    def test_exploration_nan(self):
        self.expect_rejected("exploration", exploration=float("nan"))

    def test_stat_utility_weight_nan(self):
        self.expect_rejected("stat_utility_weight",
                             stat_utility_weight=float("nan"))

    def test_staleness_alpha_nan(self):
        self.expect_rejected("staleness_alpha", mode="async",
                             staleness_alpha=float("nan"))

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_server_lr_must_be_positive(self, value):
        self.expect_rejected("server_lr", server_lr=value)

    @pytest.mark.parametrize("value", [-0.1, 1.0, 2.0, float("nan")])
    def test_server_momentum_in_unit_interval(self, value):
        self.expect_rejected("server_momentum", server_momentum=value)

    def test_local_steps_zero(self):
        self.expect_rejected("local_steps", local_steps=0)

    def test_rounds_zero(self):
        self.expect_rejected("rounds", rounds=0)

    def test_population_zero(self):
        self.expect_rejected("population", population=0, clients_per_round=0)

    def test_clients_per_round_zero(self):
        self.expect_rejected("clients_per_round", clients_per_round=0)

    def test_unknown_server_opt(self):
        self.expect_rejected("server_opt", server_opt="sgd")

    def test_repo_values_stay_inside(self):
        """Every server_lr / server_momentum the repo passes."""
        for lr in (0.01, 0.02, 0.1, 0.5, 1.0):
            FedConfig(server_lr=lr)
        for momentum in (0.0, 0.6, 0.9):
            FedConfig(server_momentum=momentum)
        for name in ("fedavg", "fedmom", "fedavgm", "fedadam", "nesterov"):
            FedConfig(server_opt=name)

    @pytest.mark.parametrize(
        "field", [f for f in dataclasses.fields(FedConfig)
                  if f.metadata["domain"] is not None],
        ids=lambda f: f.name)
    def test_every_declared_domain_is_checked(self, field):
        """Draws for each declared field, from its declaration alone; the
        other fields keep their defaults, and every domain is checked
        before any cross-field rule."""
        for value in out_of_domain(field.metadata["domain"]):
            self.expect_rejected(field.name, **{field.name: value})

    def test_fields_match_the_pinned_declaration(self):
        """Names, order and defaults are what every flat-keyword caller,
        the ledger and ``asdict`` have always seen."""
        pinned = json.loads(FLAGS_PIN.read_text())["fedconfig_fields"]
        assert [[f.name, f.default] for f in dataclasses.fields(FedConfig)] == pinned


def test_config_module_imports_stay_light():
    """The CLI is generated from ``config.py``, not the other way round:
    at import time it reads neither argparse nor any other repro module
    (the codec and server-optimizer checks import their factories when
    they run)."""
    import repro.config

    tree = ast.parse(Path(repro.config.__file__).read_text())
    imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = {a.name for n in imports if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in imports if isinstance(n, ast.ImportFrom)}
    assert "argparse" not in modules
    assert not [n for n in imports if isinstance(n, ast.ImportFrom) and n.level]
