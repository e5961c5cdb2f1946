"""Commit-style update operators, operator commutators, and decoding schedulers.

An update operator writes one token into the context (argmax, seeded sample,
or threshold-gated argmax).  The commutator of two positions under an
operator compares the downstream predictive objects after committing them in
the two orders; the conflict score sums those over a candidate block.
Schedulers drive full decodes at a chosen parallelism width, committing each
round from the pre-round conditionals, and the stress harness relates the
resulting likelihood degradation to the dependence/circulation predictors.

Sampling draws are keyed by (run seed, position), not by step index, so the
same position consumes the same randomness on every path through a decode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConditionalOracle,
    PartialContext,
    TabularJointModel,
    derived_seed,
    kl,
    seeded_rng,
    stable_uniform,
    tie_key,
)
from .dependence import kl_vs_marginal_product, total_correlation
from .errors import ContractViolationError, DegenerateComparisonError
from .ordererror import local_estimation_error
from .pseudojoint import ExhaustivePlan, _pair_terms, ecirc_abs

ARGMAX = "argmax-commit"
SAMPLE = "sample-commit"
THRESHOLD = "threshold-commit"

_SAMPLE_SALT = 11


@dataclass(frozen=True)
class UpdateOperator:
    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in (ARGMAX, SAMPLE, THRESHOLD):
            raise ContractViolationError(f"unknown operator kind {self.kind!r}")
        if self.kind == THRESHOLD:
            if self.tau is None or not (0.0 <= self.tau <= 1.0):
                raise ContractViolationError(f"threshold operator needs tau in [0, 1], got {self.tau}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tau": self.tau}


def argmax_commit() -> UpdateOperator:
    return UpdateOperator(ARGMAX)


def sample_commit() -> UpdateOperator:
    return UpdateOperator(SAMPLE)


def threshold_commit(tau: float) -> UpdateOperator:
    return UpdateOperator(THRESHOLD, tau=float(tau))


@dataclass(frozen=True)
class DecodeState:
    """Immutable decode snapshot: context, run seed, and the commit log."""

    context: PartialContext
    rng_seed: int
    trajectory: tuple[tuple[int, int, str], ...] = ()

    def commit(self, position: int, token: int, operator_kind: str) -> "DecodeState":
        return DecodeState(
            context=self.context.assign(position, token),
            rng_seed=self.rng_seed,
            trajectory=self.trajectory + ((position, token, operator_kind),),
        )


def _decide(oracle: ConditionalOracle, state: DecodeState, operator: UpdateOperator, position: int):
    """Token the operator would commit at `position` from the current
    conditionals, or None for a threshold no-op.  Argmax ties go to the
    lowest token id."""
    dist = np.exp(oracle.log_dist(position, state.context.observed))
    if operator.kind == ARGMAX:
        return int(dist.argmax())
    if operator.kind == SAMPLE:
        u = stable_uniform(state.rng_seed, _SAMPLE_SALT, position)
        idx = int(np.searchsorted(np.cumsum(dist), u, side="right"))
        return min(idx, oracle.vocab.size - 1)
    if float(dist.max()) >= operator.tau:
        return int(dist.argmax())
    return None


def apply_update(
    oracle: ConditionalOracle, state: DecodeState, operator: UpdateOperator, position: int
) -> DecodeState:
    """Apply one operator at one unresolved position; threshold may no-op."""
    if position not in state.context.block:
        raise ContractViolationError(f"position {position} is not unresolved in this state")
    token = _decide(oracle, state, operator, position)
    if token is None:
        return state
    return state.commit(position, token, operator.kind)


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats, in [0, ln 2]."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    with np.errstate(divide="ignore"):
        log_p, log_q, log_m = np.log(p), np.log(q), np.log(0.5 * (p + q))
    return max(0.0, float(0.5 * (kl(log_p, log_m) + kl(log_q, log_m))))


def _predictive_product(oracle: ConditionalOracle, state: DecodeState, coords: Sequence[int]) -> np.ndarray:
    """Product of per-coordinate conditionals over `coords`, exact.

    Coordinates already committed in this state enter as point masses at
    their committed token, so predictive objects from paths with different
    commit sets stay comparable on a common coordinate space.
    """
    vocab = oracle.vocab.size
    probs = np.ones((vocab,) * len(coords))
    for axis, pos in enumerate(coords):
        if pos in state.context.observed:
            vec = np.zeros(vocab)
            vec[state.context.observed[pos]] = 1.0
        else:
            vec = np.exp(oracle.log_dist(pos, state.context.observed))
        shape = [1] * len(coords)
        shape[axis] = vocab
        probs = probs * vec.reshape(shape)
    return probs


@dataclass(frozen=True)
class CommutatorReport:
    i: int
    j: int
    divergence_kind: str
    value: float
    coords: tuple[int, ...]
    predictive_ij: np.ndarray
    predictive_ji: np.ndarray
    commits_ij: tuple[tuple[int, int, str], ...]
    commits_ji: tuple[tuple[int, int, str], ...]

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "divergence_kind": self.divergence_kind,
            "value": self.value,
            "coords": list(self.coords),
            "predictive_ij": [float(v) for v in self.predictive_ij.reshape(-1)],
            "predictive_ji": [float(v) for v in self.predictive_ji.reshape(-1)],
            "commits_ij": [list(c) for c in self.commits_ij],
            "commits_ji": [list(c) for c in self.commits_ji],
        }


def commutator(
    oracle: ConditionalOracle,
    state: DecodeState,
    operator: UpdateOperator,
    i: int,
    j: int,
    divergence: str = "sqrt-js",
) -> CommutatorReport:
    """Divergence between the predictive products after committing i then j
    versus j then i under the operator.  Only the root-JS divergence is
    implemented; per-position randomness makes both paths consume identical
    draws for the same position."""
    if divergence != "sqrt-js":
        raise ContractViolationError(f"unsupported divergence {divergence!r}; only 'sqrt-js' is implemented")
    block = state.context.block
    if i == j or i not in block or j not in block:
        raise ContractViolationError(f"positions {i}, {j} must be distinct unresolved positions")
    remaining = [p for p in block if p not in (i, j)]
    if not remaining:
        raise DegenerateComparisonError(
            "committing both positions would leave no unresolved coordinate to compare; enlarge the block"
        )
    state_ij = apply_update(oracle, apply_update(oracle, state, operator, i), operator, j)
    state_ji = apply_update(oracle, apply_update(oracle, state, operator, j), operator, i)
    coords = tuple(sorted(set(state_ij.context.block) | set(state_ji.context.block)))
    pred_ij = _predictive_product(oracle, state_ij, coords)
    pred_ji = _predictive_product(oracle, state_ji, coords)
    value = math.sqrt(js_divergence(pred_ij, pred_ji))
    return CommutatorReport(
        i=i,
        j=j,
        divergence_kind=divergence,
        value=value,
        coords=coords,
        predictive_ij=pred_ij,
        predictive_ji=pred_ji,
        commits_ij=state_ij.trajectory[len(state.trajectory):],
        commits_ji=state_ji.trajectory[len(state.trajectory):],
    )


@dataclass(frozen=True)
class ConflictScore:
    value: float
    pair_values: dict[tuple[int, int], float]
    skipped_pairs: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "pair_values": {f"{i}-{j}": v for (i, j), v in sorted(self.pair_values.items())},
            "skipped_pairs": [list(p) for p in self.skipped_pairs],
        }


def conflict_score(
    oracle: ConditionalOracle,
    state: DecodeState,
    operator: UpdateOperator,
    block: Sequence[int],
    divergence: str = "sqrt-js",
) -> ConflictScore:
    """Sum of pairwise commutator values over a candidate block.

    Pairs that would exhaust the unresolved set are skipped and flagged
    rather than failing the whole score.
    """
    block = sorted(int(p) for p in block)
    if len(block) < 2:
        raise ContractViolationError("conflict score needs a candidate block of at least two positions")
    unresolved = set(state.context.block)
    if not set(block) <= unresolved:
        raise ContractViolationError("candidate block must be a subset of the unresolved positions")
    total = 0.0
    pair_values: dict[tuple[int, int], float] = {}
    skipped: list[tuple[int, int]] = []
    for i, j in itertools.combinations(block, 2):
        if not (unresolved - {i, j}):
            skipped.append((i, j))
            continue
        report = commutator(oracle, state, operator, i, j, divergence)
        pair_values[(i, j)] = report.value
        total += report.value
    return ConflictScore(value=total, pair_values=pair_values, skipped_pairs=tuple(skipped))


@dataclass(frozen=True)
class SchedulerSpec:
    """Block-selection policy for `run_scheduler`.

    kinds: left-to-right | random | confidence | conflict-aware.
    The conflict-aware policy scores candidate width-w blocks by
    lam_confidence * (-mean max-probability) + lam_conflict * Conflict(B)
    + lam_dependence * (pairwise dependence proxy), searching contiguous
    windows or, when the unresolved set is small, all w-subsets.
    """

    kind: str
    seed: int | None = None
    lam_confidence: float = 1.0
    lam_conflict: float = 1.0
    lam_dependence: float = 1.0
    block_search: str = "contiguous"

    def __post_init__(self):
        if self.kind not in ("left-to-right", "random", "confidence", "conflict-aware"):
            raise ContractViolationError(f"unknown scheduler kind {self.kind!r}")
        if self.block_search not in ("contiguous", "subsets"):
            raise ContractViolationError(f"block_search must be 'contiguous' or 'subsets', got {self.block_search!r}")
        for name in ("lam_confidence", "lam_conflict", "lam_dependence"):
            if not math.isfinite(getattr(self, name)):
                raise ContractViolationError(f"{name} must be finite, got {getattr(self, name)!r}")

    def label(self) -> str:
        return self.kind

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "lam_confidence": self.lam_confidence,
            "lam_conflict": self.lam_conflict,
            "lam_dependence": self.lam_dependence,
            "block_search": self.block_search,
        }


def _oracle_pair_dependence(oracle: ConditionalOracle, state: DecodeState, i: int, j: int) -> float:
    """Dependence proxy from the oracle alone: mean over both resolution orders
    of the mutual information of the order-induced pair product."""
    t0, t1, t2, t3 = (t[0] for t in _pair_terms(oracle, state.context.observed, (), i, j))
    q_ij = np.exp(t0) * np.exp(t1)
    q_ji = np.exp(t2) * np.exp(t3)
    return 0.5 * (kl_vs_marginal_product(q_ij) + kl_vs_marginal_product(q_ji))


def _confidences(oracle: ConditionalOracle, state: DecodeState, positions: Sequence[int]) -> dict[int, float]:
    return {
        p: float(np.exp(oracle.log_dist(p, state.context.observed)).max())
        for p in positions
    }


def _choose_round(
    oracle: ConditionalOracle,
    state: DecodeState,
    scheduler: SchedulerSpec,
    operator: UpdateOperator,
    width: int,
    random_order: tuple[int, ...] | None,
) -> list[int]:
    unresolved = sorted(state.context.block)
    w = min(width, len(unresolved))
    if scheduler.kind == "left-to-right":
        return unresolved[:w]
    if scheduler.kind == "random":
        return [p for p in random_order if p in set(unresolved)][:w]
    if scheduler.kind == "confidence":
        conf = _confidences(oracle, state, unresolved)
        return sorted(unresolved, key=lambda q: (-tie_key(conf[q]), q))[:w]
    # conflict-aware block search
    if scheduler.block_search == "subsets" and len(unresolved) <= 8:
        candidates = [tuple(c) for c in itertools.combinations(unresolved, w)]
    else:
        candidates = [tuple(unresolved[k : k + w]) for k in range(len(unresolved) - w + 1)]
    conf = _confidences(oracle, state, unresolved)
    best: tuple[float, tuple[int, ...]] | None = None
    for cand in candidates:
        score = scheduler.lam_confidence * (-float(np.mean([conf[p] for p in cand])))
        if len(cand) >= 2:
            score += scheduler.lam_conflict * conflict_score(oracle, state, operator, cand).value
            score += scheduler.lam_dependence * sum(
                _oracle_pair_dependence(oracle, state, i, j) for i, j in itertools.combinations(cand, 2)
            )
        key = (tie_key(score), cand)
        if best is None or key < best:
            best = key
    return list(best[1])


@dataclass(frozen=True)
class RoundRecord:
    chosen: tuple[int, ...]
    commits: tuple[tuple[int, int, str], ...]
    forced: bool


@dataclass(frozen=True)
class DecodeResult:
    final_state: DecodeState
    rounds: tuple[RoundRecord, ...]

    @property
    def trajectory(self) -> tuple[tuple[int, int, str], ...]:
        return self.final_state.trajectory


def run_scheduler(
    oracle: ConditionalOracle,
    initial_state: DecodeState,
    scheduler: SchedulerSpec,
    operator: UpdateOperator,
    width: int,
) -> DecodeResult:
    """Decode the whole block, committing up to `width` positions per round.

    All commits within a round are decided from the pre-round conditionals
    (one-shot independent parallel within the round).  A threshold round
    that commits nothing force-commits its single most confident selected
    position so decoding always terminates; such rounds are flagged.
    """
    if width < 1:
        raise ContractViolationError(f"width must be >= 1, got {width}")
    state = initial_state
    rounds: list[RoundRecord] = []
    random_order: tuple[int, ...] | None = None
    if scheduler.kind == "random":
        seed = scheduler.seed if scheduler.seed is not None else initial_state.rng_seed
        order = list(sorted(initial_state.context.block))
        seeded_rng(seed, 23).shuffle(order)
        random_order = tuple(order)
    while state.context.block:
        chosen = _choose_round(oracle, state, scheduler, operator, width, random_order)
        decisions = [(p, _decide(oracle, state, operator, p)) for p in chosen]
        commits = [(p, t, operator.kind) for p, t in decisions if t is not None]
        forced = False
        if not commits:
            # stall breaker: a threshold round that commits nothing would loop
            # forever, so write the most confident selection as a plain argmax
            conf = _confidences(oracle, state, chosen)
            p = min(chosen, key=lambda q: (-tie_key(conf[q]), q))
            commits = [(p, _decide(oracle, state, argmax_commit(), p), "forced-argmax")]
            forced = True
        commits.sort()
        for p, t, kind in commits:
            state = state.commit(p, t, kind)
        rounds.append(RoundRecord(chosen=tuple(chosen), commits=tuple(commits), forced=forced))
    return DecodeResult(final_state=state, rounds=tuple(rounds))


@dataclass(frozen=True)
class StressRow:
    context_id: int
    scheduler: str
    width: int
    nll: float
    degradation: float
    ecirc_abs: float
    tc: float
    mean_eps: float
    conflict: float

    def to_dict(self) -> dict:
        return {
            "context_id": self.context_id,
            "scheduler": self.scheduler,
            "width": self.width,
            "nll": self.nll,
            "degradation": self.degradation,
            "ecirc_abs": self.ecirc_abs,
            "tc": self.tc,
            "mean_eps": self.mean_eps,
            "conflict": self.conflict,
        }


@dataclass(frozen=True)
class StressReport:
    rows: tuple[StressRow, ...]
    correlations: dict
    runs: int
    seed: int
    operator: UpdateOperator
    skipped_conflict_pairs: bool

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "correlations": self.correlations,
            "runs": self.runs,
            "seed": self.seed,
            "operator": self.operator.to_dict(),
            "skipped_conflict_pairs": self.skipped_conflict_pairs,
        }


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span, which
    run from (count of smaller values) + 1 to (count of values not larger)."""
    ordered = np.sort(values)
    return 0.5 * (np.searchsorted(ordered, values, "left") + np.searchsorted(ordered, values, "right") + 1)


def spearman_rank(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman rank correlation (Pearson correlation of average ranks); None
    when undefined (n < 2, a constant side, or a NaN value)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2 or np.all(x == x[0]) or np.all(y == y[0]) or np.isnan(x).any() or np.isnan(y).any():
        return None
    dx, dy = _average_ranks(x) - 0.5 * (len(x) + 1), _average_ranks(y) - 0.5 * (len(y) + 1)
    return min(1.0, max(-1.0, float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))))


def _context_predictors(
    oracle: ConditionalOracle,
    joint: TabularJointModel,
    context: PartialContext,
    operator: UpdateOperator,
    seed: int,
    context_id: int,
) -> tuple[float, float, float, float, bool]:
    ecirc = ecirc_abs(oracle, context, ExhaustivePlan()).value
    tc = total_correlation(joint, context)
    mean_eps = float(np.mean([local_estimation_error(oracle, joint, context, p) for p in context.block]))
    state = DecodeState(context=context, rng_seed=derived_seed(seed, 91, context_id))
    score = conflict_score(oracle, state, operator, context.block)
    return ecirc, tc, mean_eps, score.value, bool(score.skipped_pairs)


def stress_test(
    oracle: ConditionalOracle,
    joint: TabularJointModel,
    contexts: Sequence[PartialContext],
    widths: Sequence[int],
    schedulers: Sequence[SchedulerSpec],
    operator: UpdateOperator = sample_commit(),
    runs: int = 200,
    seed: int = 0,
) -> StressReport:
    """Decode every (context, scheduler, width) cell and relate degradation to
    the dependence/circulation predictors.

    Degradation is the mean decoded-output negative log-likelihood under the
    reference joint, relative to the width-1 cell of the same scheduler and
    context.  Runs share per-position randomness across widths, which couples
    the comparison.  Spearman rank correlations of degradation against each
    predictor are computed across contexts per (scheduler, width) cell.
    """
    if not contexts:
        raise ContractViolationError("stress test needs at least one context")
    if runs < 1:
        raise ContractViolationError(f"stress test needs at least one run per cell, got {runs}")
    widths = [int(w) for w in widths]
    for w in widths:
        if not (1 <= w <= max(len(c.block) for c in contexts)):
            raise ContractViolationError(f"width {w} outside 1..max block size")
    if 1 not in widths:
        widths = [1] + widths

    per_context = []
    for ci, context in enumerate(contexts):
        log_p = joint.log_block_conditional(context)
        predictors = _context_predictors(oracle, joint, context, operator, seed, ci)
        nll: dict[tuple[int, int], float] = {}
        for si, sched in enumerate(schedulers):
            for w in widths:
                total = 0.0
                for k in range(runs):
                    rng_seed = derived_seed(seed, ci, si, k)
                    result = run_scheduler(
                        oracle, DecodeState(context=context, rng_seed=rng_seed), sched, operator, w
                    )
                    decoded = result.final_state.context.observed
                    idx = tuple(decoded[p] for p in context.block)
                    total += -float(log_p[idx])
                nll[(si, w)] = total / runs
        per_context.append((predictors, nll))

    rows: list[StressRow] = []
    any_skipped = False
    for ci, (predictors, nll) in enumerate(per_context):
        ecirc, tc, mean_eps, conflict, skipped = predictors
        any_skipped = any_skipped or skipped
        for si, sched in enumerate(schedulers):
            for w in widths:
                rows.append(
                    StressRow(
                        context_id=ci,
                        scheduler=sched.label(),
                        width=w,
                        nll=nll[(si, w)],
                        degradation=nll[(si, w)] - nll[(si, 1)],
                        ecirc_abs=ecirc,
                        tc=tc,
                        mean_eps=mean_eps,
                        conflict=conflict,
                    )
                )

    correlations: dict = {}
    for si, sched in enumerate(schedulers):
        for w in widths:
            if w == 1:
                continue
            degradation = [nll[(si, w)] - nll[(si, 1)] for _, nll in per_context]
            predictor_cols = {
                "ecirc_abs": [pred[0] for pred, _ in per_context],
                "tc": [pred[1] for pred, _ in per_context],
                "mean_eps": [pred[2] for pred, _ in per_context],
            }
            correlations[f"{sched.label()}|w={w}"] = {
                name: spearman_rank(col, degradation) for name, col in predictor_cols.items()
            } | {"n_contexts": len(per_context)}

    return StressReport(
        rows=tuple(rows),
        correlations=correlations,
        runs=runs,
        seed=seed,
        operator=operator,
        skipped_conflict_pairs=any_skipped,
    )
