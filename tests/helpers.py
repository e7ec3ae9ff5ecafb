"""Shared test utilities: finite-difference gradient checking, the
crash-injection checkpoint/resume harness and the oracles of the
Markov walk and of the scheduler's ranking."""

from __future__ import annotations

import tempfile
from bisect import bisect_right
from dataclasses import asdict

import numpy as np

from repro.config import PATH, Span
from repro.nn import CausalSelfAttention
from repro.tensor import Tensor


# ----------------------------------------------------------------------
# Crash-injection checkpoint/resume harness (PR 5).
#
# ``build_photon`` is a factory taking FedConfig field overrides and
# returning a *fresh* Photon for the same experiment — the harness
# uses it three times: for the uninterrupted reference run, for the
# run it "kills" after ``kill_at`` server updates (the object is
# simply dropped, exactly what a crash leaves behind: nothing but the
# checkpoint directory), and for the resumed run restored from disk.
# ----------------------------------------------------------------------

def run_crash_resume(build_photon, rounds: int, kill_at: int, **checkpoint_overrides):
    """Run uninterrupted vs kill-at-``kill_at``-then-resume.

    Returns ``(full, resumed)`` Photon instances, both having
    completed ``rounds`` server updates.
    """
    if not 1 <= kill_at < rounds:
        raise ValueError(f"kill_at must be in [1, {rounds}), got {kill_at}")
    full = build_photon()
    full.train(rounds=rounds)
    with tempfile.TemporaryDirectory() as tmp:
        interrupted = build_photon(checkpoint_dir=tmp, **checkpoint_overrides)
        interrupted.train(rounds=kill_at)
        del interrupted  # the crash: only the checkpoint dir survives
        resumed = build_photon(checkpoint_dir=tmp, resume=True,
                               **checkpoint_overrides)
        assert resumed.resumed_from_round == kill_at
        resumed.train(rounds=rounds)
    return full, resumed


def compress_broadcast(photon):
    """Run ``photon``'s broadcast through its upload codec too (a lossy
    ``Link(downlink_codec=...)``); call before ``train()``.  Returns
    ``photon``."""
    link = photon.aggregator.link
    link.downlink_codec = link.uplink_codec
    return photon


def per_client(fn, population):
    """Adapt a per-client ``fn(client_id) -> seconds`` to the
    ``durations_of`` callback, which the product scheduler calls with
    the ``population`` indices its ranking resolved and
    :func:`reference_rank` with ids."""
    return lambda handles: np.array(
        [fn(h if isinstance(h, str) else population.ids[h]) for h in handles],
        dtype=np.float64)


def rank_ids(scheduler, candidates, version, durations_of, deadline_s,
             k=None) -> list[str]:
    """``ClientScheduler._rank`` over ids: the test's edge resolves
    them with ``indices_of`` and names the winners again."""
    idx = scheduler.population.indices_of(candidates)
    return [candidates[j] for j in scheduler._rank(
        idx, version, durations_of, deadline_s, k).tolist()]


def select_ids(scheduler, idle, reachable, slots, version, durations_of,
               deadline_s=None) -> tuple[list[str], list[str]]:
    """``ClientScheduler.select_async`` over ids: ``idle`` in queue
    order, ``reachable`` a set of ids (``None``: everyone)."""
    pop = scheduler.population
    mask = None if reachable is None else np.array(
        [c in reachable for c in idle], dtype=bool)
    dispatch, leftover = scheduler.select_async(
        pop.indices_of(idle), mask, slots, version, durations_of,
        deadline_s=deadline_s)
    return ([pop.ids[i] for i in dispatch.tolist()],
            [pop.ids[i] for i in leftover.tolist()])


def reference_rank(scheduler, candidates, version, durations_of, deadline_s,
                   k=None) -> list[str]:
    """``ClientScheduler._rank`` as it was while the scheduler kept
    per-client dicts: one Python comparison key per candidate, Python's
    stable sort, ids compared as ``str``.  The oracle the product's
    array ranking must match winner for winner, tie-breaks included.
    Reads ``scheduler``'s configuration and counters, moves nothing."""
    index_of = scheduler.population.index_of

    def waited(client_id: str) -> int:
        """Server versions since the client was last selected (clients
        never seen count as waiting since before version 0)."""
        return version - int(scheduler.last_selected[index_of(client_id)])

    def improvement(client_id: str) -> float:
        return float(scheduler.loss_improvement[index_of(client_id)])

    def due() -> list[str]:
        """Fairness floor: clients owed a selection, longest-waiting
        first (ties broken by id for determinism)."""
        if scheduler.fairness_every_k is None:
            return []
        owed = [c for c in candidates
                if waited(c) >= scheduler.fairness_every_k]
        return sorted(owed, key=lambda c: (-waited(c), c))

    def utility(client_id: str, cycle_s: float, fastest_s: float,
                stat_norm: float) -> float:
        """Oort/REFL-style score: throughput + recency + statistics."""
        speed = fastest_s / cycle_s if cycle_s > 0 else 1.0
        horizon = scheduler.fairness_every_k or 8
        recency = min(waited(client_id), horizon) / horizon
        score = speed + scheduler.exploration * recency
        if scheduler.stat_utility_weight and stat_norm > 0:
            score += (scheduler.stat_utility_weight
                      * max(0.0, improvement(client_id)) / stat_norm)
        return score

    durations = dict(zip(candidates, durations_of(candidates).tolist()))
    if scheduler.policy == "fastest":
        return sorted(candidates, key=lambda c: (durations[c], c))[:k]
    # utility: fairness-floor clients first, then feasible clients by
    # score, then deadline-infeasible ones.
    owed = due()
    owed_set = set(owed)
    rest = [c for c in candidates if c not in owed_set]
    fastest_s = min(durations.values(), default=1.0)
    stat_norm = max((improvement(c) for c in candidates), default=0.0)

    def score_key(c: str):
        return (-utility(c, durations[c], fastest_s, stat_norm), c)

    if deadline_s is not None:
        feasible = sorted((c for c in rest
                           if durations[c] <= deadline_s), key=score_key)
        infeasible = sorted((c for c in rest
                             if durations[c] > deadline_s), key=score_key)
        return (owed + feasible + infeasible)[:k]
    return (owed + sorted(rest, key=score_key))[:k]


def reference_walk(kernel: np.ndarray, specials: int, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """``MarkovSource.sample_tokens`` as it was before the table walk:
    one ``bisect_right`` over the state's cumulative row per token.
    The oracle the product's walk must match token for token, leaving
    ``rng`` in the same state."""
    rows = np.cumsum(np.asarray(kernel, dtype=np.float64), axis=1).tolist()
    last = len(rows) - 1
    out = np.empty(n, dtype=np.int64)
    state = int(rng.integers(specials, len(rows)))
    for i, u in enumerate(rng.random(n).tolist()):
        state = min(bisect_right(rows[state], u), last)
        out[i] = state
    return out


def assert_states_equal(a: dict, b: dict) -> None:
    """Bit-exact equality of two state dicts (dtypes included)."""
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def assert_bit_exact_resume(full, resumed) -> None:
    """The headline guarantee: same final weights, RoundRecords and
    drop ledger as the uninterrupted run."""
    ha, hb = full.history, resumed.history
    assert len(ha) == len(hb)
    for ra, rb in zip(ha, hb):
        assert asdict(ra) == asdict(rb), f"round {ra.round_idx} diverged"
    assert_states_equal(full.aggregator.global_state,
                        resumed.aggregator.global_state)
    ledger_a = getattr(full.aggregator, "drop_ledger", None)
    ledger_b = getattr(resumed.aggregator, "drop_ledger", None)
    if ledger_a is not None:
        assert ledger_a.state_dict() == ledger_b.state_dict()
    ra, rb = full.result(), resumed.result()
    assert ra.total_comm_bytes == rb.total_comm_bytes
    assert ra.tokens_processed == rb.tokens_processed


EPS32 = float(np.finfo(np.float32).eps)

# The float32-tolerance half of the exactness contract (README
# "Exactness contract"), in float32 spacings at the scale of the largest
# reference value; each is ~2x the distance measured when it was set.
#: Same arithmetic over differently shaped GEMMs: incremental logits vs
#: ``DecoderLM.forward`` (measured 7.5), a request alone vs among
#: co-runners (9.2).
GEMM_SHAPE_ULPS = 16
#: ``x·W + (x·A)·B·s`` vs ``x·(W + s·A·B)`` through a whole decoder
#: (measured 18.3).
FACTORED_LORA_ULPS = 48


def assert_within_ulps(got: np.ndarray, want: np.ndarray, ulps: float) -> None:
    """``|got - want| <= ulps`` float32 spacings at the scale of the
    largest reference value (per-element spacing is meaningless where
    a sum cancels to near zero)."""
    want = np.asarray(want, np.float64)
    scale = float(np.abs(want).max())
    worst = float(np.abs(np.asarray(got, np.float64) - want).max())
    assert worst <= ulps * EPS32 * scale, (
        f"off by {worst / (EPS32 * scale):.2f} spacings, allowed {ulps}")


def causal_bias(n_heads: int, seq: int, alibi: bool = True) -> np.ndarray:
    """The training attention bias ``(n_heads or 1, seq, seq)``, as the
    attention module itself builds it."""
    return CausalSelfAttention(n_heads, n_heads, alibi=alibi)._bias(seq)


def numeric_grad(fn, arrays: list[np.ndarray], index: int, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of ``fn(*arrays).sum()`` w.r.t.
    ``arrays[index]``; fn receives raw NumPy arrays."""
    base = [a.astype(np.float64).copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    target = base[index].reshape(-1)
    for i in range(flat.size):
        original = target[i]
        target[i] = original + eps
        plus = float(np.sum(fn(*base)))
        target[i] = original - eps
        minus = float(np.sum(fn(*base)))
        target[i] = original
        flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(op, arrays: list[np.ndarray], atol: float = 1e-2,
                    rtol: float = 1e-2) -> None:
    """Assert autograd gradients of ``op`` match finite differences.

    ``op`` maps Tensors to one Tensor; the scalar loss is its sum.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    out.sum().backward()

    def as_numpy(*raw):
        return op(*[Tensor(r) for r in raw]).data

    for i, t in enumerate(tensors):
        expected = numeric_grad(as_numpy, arrays, i)
        assert t.grad is not None, f"missing gradient for operand {i}"
        np.testing.assert_allclose(
            t.grad, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for operand {i}",
        )


# ----------------------------------------------------------------------
# Out-of-domain draws from the FedConfig declarations.
# ----------------------------------------------------------------------

def out_of_domain(domain) -> list:
    """Values outside a declared :class:`~repro.config.FedConfig`
    domain (see :func:`repro.config.knob`): a name no choice list or
    factory knows, the neighbours just outside a span's ends, NaN and
    the infinities, or a non-path."""
    if isinstance(domain, Span):
        bad = [domain.lo if domain.lo_open else domain.lo - 1,
               float("nan"), float("inf"), float("-inf")]
        if domain.hi < float("inf"):
            bad.append(domain.hi if domain.hi_open else domain.hi + 1)
        if domain.integer:
            bad.append(domain.lo + 0.5)
        return bad
    if domain is PATH:
        return [7]
    return ["no-such-name"]  # a choice tuple, or a codec or optimizer factory
