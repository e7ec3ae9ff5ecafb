"""Minimal module system: parameter registration and state dicts.

Mirrors the subset of ``torch.nn.Module`` the reproduction needs:
attribute-based registration of :class:`~repro.tensor.Parameter` and
submodules, recursive parameter iteration, and NumPy state dicts used
for checkpointing and for shipping parameters over the federated Link.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..tensor import Parameter

__all__ = ["Module"]

# Bumped whenever any module registers a parameter or submodule.  A
# module does not know its owners, so a cached parameter list cannot be
# invalidated from below (``apply_lora`` swaps a Linear three levels
# under the model); an unchanged epoch is the cheapest sound proof that
# no registry anywhere moved since the list was built.
_registry_epoch = 0


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        global _registry_epoch
        if isinstance(value, Parameter):
            self._parameters[name] = value
            _registry_epoch += 1
        elif isinstance(value, Module):
            self._modules[name] = value
            _registry_epoch += 1
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, deduplicating tied
        parameters (the LM head shares the embedding matrix)."""
        seen: set[int] = set()
        yield from self._named_parameters(prefix, seen)

    def _named_parameters(self, prefix: str, seen: set[int]) -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if id(param) not in seen:
                seen.add(id(param))
                yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module._named_parameters(f"{prefix}{name}.", seen)

    def parameters(self) -> list[Parameter]:
        """The deduplicated parameter list, cached per module until a
        parameter or submodule is (re)assigned anywhere; the training
        loop asks for it several times per step."""
        cached = self.__dict__.get("_parameter_cache")
        if cached is None or cached[0] != _registry_epoch:
            cached = (_registry_epoch, [p for _, p in self.named_parameters()])
            object.__setattr__(self, "_parameter_cache", cached)
        return list(cached[1])

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # State dicts (NumPy arrays, used by checkpoints and the fed Link)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of every parameter as a plain NumPy array."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} != {param.shape}"
                )
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError
