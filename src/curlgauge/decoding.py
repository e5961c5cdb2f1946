"""Commit-style update operators, operator commutators, and decoding schedulers.

An update operator writes one token into the context (argmax, seeded sample,
or threshold-gated argmax).  The commutator of two positions under an
operator compares the downstream predictive objects after committing them in
the two orders; the conflict score sums those over a candidate block.
Schedulers drive full decodes at a chosen parallelism width, committing each
round from the pre-round conditionals.  The stress harness relates the
resulting likelihood degradation to the dependence/circulation predictors.

A run's decode state is its token row (-1 where unresolved), its open block
positions and its draw row; a batch of runs decodes as a ``(runs, positions)``
token array, each run under its own scheduler and width, so the stress
harness decodes every scheduler, width and run of a context in one batch.
Draws are keyed by (run seed, position), not by step index, so the same
position reads the same draw on every path through a decode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConditionalOracle,
    PartialContext,
    TabularJointModel,
    _seed_key,
    _sum_in_order,
    derived_seed,
    kl,
    seed_states,
    seeded_rng,
    tie_key,
    uniform_of,
)
from .dependence import kl_vs_marginal_product, total_correlation
from .errors import ContractViolationError, DegenerateComparisonError
from .ordererror import local_estimation_error
from .pseudojoint import ExhaustivePlan, ecirc_abs

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
        return dict(vars(self))


def argmax_commit() -> UpdateOperator:
    return UpdateOperator(ARGMAX)


def sample_commit() -> UpdateOperator:
    return UpdateOperator(SAMPLE)


def threshold_commit(tau: float) -> UpdateOperator:
    return UpdateOperator(THRESHOLD, tau=float(tau))


def context_row(context: PartialContext, positions: int) -> np.ndarray:
    """The token row of a context: its observed tokens, -1 at every other position."""
    return np.array([context.observed.get(p, -1) for p in range(positions)])


def draw_rows(
    operator: UpdateOperator, seeds: Sequence[int], positions: int, block: Sequence[int]
) -> np.ndarray | None:
    """One draw row per run seed, ``(len(seeds), positions)``: ``stable_uniform(seed, 11, p)``
    at each block position p, NaN elsewhere; None unless the operator samples.

    Each distinct seed is drawn once.  The seeds' keys are grouped by word count
    (a seed below 2**32 is one word), and each group is one `seed_states` call."""
    if operator.kind != SAMPLE:
        return None
    index = {s: k for k, s in enumerate(dict.fromkeys(seeds))}
    keys, cols = [_seed_key(s) for s in index], np.array(block, dtype=np.int64)
    rows = np.full((len(keys), positions), np.nan)
    for length in sorted({len(key) for key in keys}):
        group = [k for k, key in enumerate(keys) if len(key) == length]
        words = np.array([keys[k] for k in group], dtype=np.uint64).T[:, :, None]
        rows[np.ix_(group, cols)] = uniform_of(seed_states([*words, _SAMPLE_SALT, cols]))
    return rows[[index[s] for s in seeds]]


def draw_row(operator: UpdateOperator, seed: int, positions: int, block: Sequence[int]) -> np.ndarray | None:
    """One run's draw row (see `draw_rows`); None unless the operator samples."""
    rows = draw_rows(operator, [seed], positions, block)
    return None if rows is None else rows[0]


def _conditionals(oracle: ConditionalOracle, tokens: np.ndarray, position: int) -> np.ndarray:
    """Conditional rows of ``position`` given each token row of ``tokens`` (``(..., positions)``)."""
    return np.exp(oracle.log_rows(position, (tokens + 1) @ oracle.strides[position]))


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 2-D array ``keys``, and each row's index among them."""
    index: dict[tuple, int] = {}
    inverse = np.array([index.setdefault(key, len(index)) for key in map(tuple, keys.tolist())])
    return np.array(list(index), dtype=keys.dtype).reshape(len(index), -1), inverse


def _decide(probs: np.ndarray, operator: UpdateOperator, uniforms) -> np.ndarray:
    """Token the operator commits from each conditional row of ``probs`` (``(..., V)``),
    or -1 for a threshold no-op.  Argmax ties go to the lowest token id; a sample
    inverts the row's cumulative sum at its entry of ``uniforms`` (``(...)``,
    None for the other operators)."""
    if operator.kind == SAMPLE:
        below = np.cumsum(probs, axis=-1) <= np.asarray(uniforms)[..., None]
        return np.minimum(below.sum(axis=-1), probs.shape[-1] - 1)
    top = probs.argmax(axis=-1)
    if operator.kind == THRESHOLD:
        return np.where(probs.max(axis=-1) >= operator.tau, top, -1)
    return top


def apply_update(
    oracle: ConditionalOracle, row: np.ndarray, operator: UpdateOperator, position: int, draws=None
) -> np.ndarray:
    """The token rows after one operator update at one unresolved position of
    ``row``, one row or ``(runs, positions)`` rows (the input itself when a
    threshold no-ops in every row); a sample reads ``draws[..., position]``."""
    if (row[..., position] >= 0).any():
        raise ContractViolationError(f"position {position} is not unresolved in this state")
    if operator.kind == SAMPLE and draws is None:
        raise ContractViolationError("a sample-commit update needs the run's draw row")
    token = _decide(_conditionals(oracle, row, position), operator, None if draws is None else draws[..., position])
    if (token < 0).all():
        return row
    out = row.copy()
    out[..., position] = token
    return out


def js_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence in nats, in [0, ln 2], between ``p[r]`` and
    ``q[r]`` for each index r of the leading axis."""
    p = np.asarray(p, dtype=np.float64).reshape(len(p), -1)
    q = np.asarray(q, dtype=np.float64).reshape(len(q), -1)
    with np.errstate(divide="ignore"):
        log_p, log_q, log_m = np.log(p), np.log(q), np.log(0.5 * (p + q))
    return np.maximum(0.0, 0.5 * (kl(log_p, log_m, axis=-1) + kl(log_q, log_m, axis=-1)))


def _predictive_product(oracle: ConditionalOracle, rows: np.ndarray, coords: Sequence[int]) -> np.ndarray:
    """Product of per-coordinate conditionals over `coords`, exact, for each
    token row of ``rows``: shaped ``(runs,) + (V,) * len(coords)``.

    Coordinates already committed in a row enter as point masses at
    their committed token, so predictive objects from paths with different
    commit sets stay comparable on a common coordinate space.
    """
    vocab = oracle.vocab.size
    probs = np.ones((len(rows),) + (vocab,) * len(coords))
    for axis, pos in enumerate(coords):
        token = rows[:, pos, None]
        vec = np.where(token >= 0, token == np.arange(vocab), _conditionals(oracle, rows, pos))
        shape = [len(rows)] + [1] * len(coords)
        shape[axis + 1] = vocab
        probs = probs * vec.reshape(shape)
    return probs


def commutator(
    oracle: ConditionalOracle, row: np.ndarray, block: Sequence[int], operator: UpdateOperator, i: int, j: int, draws=None
) -> float | np.ndarray:
    """Root Jensen-Shannon divergence between the predictive products over the
    open ``block`` after committing i then j versus j then i under the operator;
    both paths read the same per-position ``draws``.  ``row`` is one token row
    (giving a float) or ``(runs, positions)`` rows with that open block (giving
    one value per run), and ``draws`` one draw row or one per run."""
    if i == j or i not in block or j not in block:
        raise ContractViolationError(f"positions {i}, {j} must be distinct unresolved positions")
    if len(block) == 2:
        raise DegenerateComparisonError(
            "committing both positions would leave no unresolved coordinate to compare; enlarge the block"
        )
    rows, block = np.atleast_2d(row), sorted(block)
    row_ij = apply_update(oracle, apply_update(oracle, rows, operator, i, draws), operator, j, draws)
    row_ji = apply_update(oracle, apply_update(oracle, rows, operator, j, draws), operator, i, draws)
    # the coordinates left open on either path; only a threshold no-op makes them differ between rows
    open_sets, set_of = _distinct_rows((row_ij[:, block] < 0) | (row_ji[:, block] < 0))
    value = np.empty(len(rows))
    for k, open_set in enumerate(open_sets):
        sel, coords = set_of == k, list(itertools.compress(block, open_set))
        pred = _predictive_product(oracle, np.concatenate([row_ij[sel], row_ji[sel]]), coords)
        value[sel] = np.sqrt(js_divergence(pred[: len(pred) // 2], pred[len(pred) // 2 :]))
    return value if np.ndim(row) == 2 else float(value[0])


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
    oracle: ConditionalOracle, row: np.ndarray, block: Sequence[int], operator: UpdateOperator, candidate, draws=None
) -> ConflictScore:
    """Sum of pairwise commutator values over a candidate subset of the open ``block``,
    added left to right; per run for ``(runs, positions)`` rows (see `commutator`).

    When the block holds just the two positions of a pair, committing both
    would leave nothing to compare; that pair is skipped and flagged rather
    than failing the whole score.
    """
    candidate = sorted(int(p) for p in candidate)
    if len(candidate) < 2:
        raise ContractViolationError("conflict score needs a candidate block of at least two positions")
    if not set(candidate) <= set(block):
        raise ContractViolationError("candidate block must be a subset of the unresolved positions")
    pairs = list(itertools.combinations(candidate, 2))
    if len(block) == 2:
        return ConflictScore(0.0, {}, tuple(pairs))
    values = {(i, j): commutator(oracle, row, block, operator, i, j, draws) for i, j in pairs}
    return ConflictScore(_sum_in_order(values.values()), values, ())


@dataclass(frozen=True)
class SchedulerSpec:
    """Block-selection policy for `run_scheduler`.

    kinds: left-to-right | random | confidence | conflict-aware.
    The conflict-aware policy scores candidate width-w blocks by
    lam_confidence * (-mean max-probability) + lam_conflict * Conflict(B)
    + lam_dependence * (pairwise dependence proxy), searching contiguous
    windows or all w-subsets.
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


def _oracle_pair_dependence(oracle: ConditionalOracle, row: np.ndarray, i: int, j: int) -> float | np.ndarray:
    """Dependence proxy from the oracle alone: mean over both resolution orders
    of the mutual information of the order-induced pair product; a float for
    one token row, one value per row of ``(runs, positions)`` rows."""
    rows = np.atleast_2d(row)
    # q_j(b | i=a) and q_i(a | j=b) over (rows, a, b), both in C order
    j_after_i = np.exp(oracle.log_rows(j, oracle.class_grid(j, rows, [i])))
    i_after_j = np.ascontiguousarray(np.exp(oracle.log_rows(i, oracle.class_grid(i, rows, [j]))).swapaxes(1, 2))
    q_ij, q_ji = _conditionals(oracle, rows, i)[:, :, None] * j_after_i, _conditionals(oracle, rows, j)[:, None] * i_after_j
    value = 0.5 * (kl_vs_marginal_product(q_ij, batch=1) + kl_vs_marginal_product(q_ji, batch=1))
    return value if np.ndim(row) == 2 else float(value[0])


def _conflict_aware_chosen(oracle, rows, draws, conf, widths, scheduler: SchedulerSpec, operator, block) -> np.ndarray:
    """Mask over ``block`` of each run's lowest-scoring conflict-aware candidate
    (``conf``: each position's max-probability).  Runs with the same open positions
    and width share candidates and are scored as ``(runs, candidates)`` arrays: one
    commutator call per pair and group, one dependence per pair and distinct row,
    pair terms added left to right.  A run takes its first lowest candidate on the tie grid."""
    open_ = rows[:, block] < 0
    chosen = np.zeros_like(open_)
    keys, group_of = _distinct_rows(np.column_stack([open_, np.minimum(widths, open_.sum(axis=1))]))
    for g, (*open_set, w) in enumerate(keys.tolist()):
        runs, unresolved = np.flatnonzero(group_of == g), list(itertools.compress(block, open_set))
        if scheduler.block_search == "subsets":
            candidates = list(itertools.combinations(unresolved, w))
        else:
            candidates = [tuple(unresolved[k : k + w]) for k in range(len(unresolved) - w + 1)]
        members = np.searchsorted(block, candidates)
        score = scheduler.lam_confidence * -conf[runs][:, members].mean(axis=-1)
        if w >= 2 and len(candidates) > 1:  # (two open positions give one candidate, and nothing to compare)
            pairs = list(dict.fromkeys(pair for cand in candidates for pair in itertools.combinations(cand, 2)))
            cand_pairs = [[pairs.index(pair) for pair in itertools.combinations(cand, 2)] for cand in candidates]
            distinct, row_of = _distinct_rows(rows[runs])
            # without draws the commutator, like the dependence, reads the row alone
            states, state_draws, state_of = (distinct, None, row_of) if draws is None else (rows[runs], draws[runs], ...)
            conflict = np.stack([commutator(oracle, states, unresolved, operator, i, j, state_draws) for i, j in pairs], 1)
            dependence = np.stack([_oracle_pair_dependence(oracle, distinct, i, j) for i, j in pairs], 1)
            # cumsum adds each candidate's pair terms left to right, in combinations order
            score = score + scheduler.lam_conflict * conflict[state_of][:, cand_pairs].cumsum(axis=-1)[..., -1]
            score = score + scheduler.lam_dependence * dependence[row_of][:, cand_pairs].cumsum(axis=-1)[..., -1]
        chosen[runs[:, None], members[tie_key(score).argmin(axis=1)]] = True
    return chosen


def _shuffled_ranks(seed: int, block: list[int]) -> list[int]:
    """Rank of each block position in the random scheduler's seeded order."""
    order = list(block)
    seeded_rng(seed, 23).shuffle(order)
    return [order.index(p) for p in block]


@dataclass(frozen=True)
class DecodeResult:
    """A batch of decodes, one row per run seed.

    ``tokens`` is ``(runs, positions)``: the observed tokens, the decoded block,
    and -1 at positions in neither.  ``chosen`` and ``committed`` are
    ``(rounds, runs, positions)`` masks of the positions each round selected
    and wrote; ``forced`` is ``(rounds, runs)``, true where the stall breaker
    wrote the round's commit.  A run that finished early has all-false masks
    in the later rounds.
    """

    tokens: np.ndarray
    chosen: np.ndarray
    committed: np.ndarray
    forced: np.ndarray


def run_scheduler(
    oracle: ConditionalOracle,
    context: PartialContext,
    seeds: Sequence[int],
    scheduler,
    operator: UpdateOperator,
    width,
) -> DecodeResult:
    """Decode the block of ``context`` once per run seed, all runs in lockstep
    rounds, committing up to ``width`` positions per run and round; ``scheduler``
    is one `SchedulerSpec` or one per run, and ``width`` an int or one int per run.

    All commits within a round are decided from the pre-round conditionals
    (one-shot independent parallel within the round).  A run's sample draws
    are its row of :func:`draw_rows`, so they depend on the run seed and the
    position alone; each distinct seed is drawn once.  A threshold round that
    commits nothing force-commits its single most confident selected position
    as an argmax, so decoding always terminates; such rounds are flagged.
    """
    runs, positions, block = len(seeds), oracle.positions, sorted(context.block)
    widths = np.broadcast_to(width, (runs,))
    if (widths < 1).any():
        raise ContractViolationError(f"width must be >= 1, got {width}")
    specs = [scheduler] * runs if isinstance(scheduler, SchedulerSpec) else list(scheduler)
    if len(specs) != runs:
        raise ContractViolationError(f"{len(specs)} schedulers for {runs} runs")
    tokens = np.tile(context_row(context, positions), (runs, 1))
    draws = draw_rows(operator, seeds, positions, block)
    # left-to-right sorts by position alone, random by each run's shuffled rank (shuffled once per
    # distinct shuffle seed), confidence by each round's confidence; conflict-aware runs are picked
    # per distinct spec
    shuffle_of = [
        (s if spec.seed is None else spec.seed) if spec.kind == "random" else None for s, spec in zip(seeds, specs)
    ]
    ranks = {s: [0] * len(block) if s is None else _shuffled_ranks(s, block) for s in dict.fromkeys(shuffle_of)}
    key = np.array([ranks[s] for s in shuffle_of]).reshape(runs, len(block))
    by_confidence = np.array([spec.kind == "confidence" for spec in specs])[:, None]
    aware = list(dict.fromkeys(spec for spec in specs if spec.kind == "conflict-aware"))
    aware_of = np.array([aware.index(spec) if spec.kind == "conflict-aware" else -1 for spec in specs])
    # every live run commits at least one position a round
    masks, forced = np.zeros((len(block), 2, runs, positions), dtype=bool), np.zeros((len(block), runs), dtype=bool)
    for k in itertools.count():
        # only the runs still open are gathered, decided and scored
        live = np.flatnonzero((tokens[:, block] < 0).any(axis=1))
        if not len(live):
            break
        rows, run_draws = tokens[live], None if draws is None else draws[live]
        open_ = rows[:, block] < 0
        probs = np.stack([_conditionals(oracle, rows, p) for p in block], axis=1)
        conf = probs.max(axis=-1)
        conf_key = -tie_key(conf)  # negated: the most confident sorts first
        round_key = np.where(by_confidence[live], conf_key, key[live])
        order = np.argsort(np.where(open_, round_key, np.inf), axis=1, kind="stable")
        chosen = open_ & (np.argsort(order, axis=1) < widths[live, None])
        for a, spec in enumerate(aware):
            if len(sel := np.flatnonzero(aware_of[live] == a)):
                sel_draws = None if run_draws is None else run_draws[sel]
                chosen[sel] = _conflict_aware_chosen(
                    oracle, rows[sel], sel_draws, conf[sel], widths[live[sel]], spec, operator, block
                )
        decided = np.where(chosen, _decide(probs, operator, None if run_draws is None else run_draws[:, block]), -1)
        # stall breaker: a threshold round that commits nothing would loop
        # forever, so write the most confident selection as a plain argmax
        stalled = (decided < 0).all(axis=1)
        pick = np.where(chosen, conf_key, np.inf)[stalled].argmin(axis=1)
        decided[stalled, pick] = _decide(probs[stalled, pick], argmax_commit(), None)
        tokens[np.ix_(live, block)] = np.where(decided >= 0, decided, rows[:, block])
        masks[k][np.ix_([0, 1], live, block)] = chosen, decided >= 0
        forced[k, live] = stalled
    return DecodeResult(tokens, masks[:k, 0], masks[:k, 1], forced[:k])


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
        return dict(vars(self))


@dataclass(frozen=True)
class StressReport:
    rows: tuple[StressRow, ...]
    correlations: dict
    runs: int
    seed: int
    operator: UpdateOperator
    skipped_conflict_pairs: bool

    def to_dict(self) -> dict:
        return asdict(self)


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
    draws = draw_row(operator, derived_seed(seed, 91, context_id), oracle.positions, context.block)
    score = conflict_score(oracle, context_row(context, oracle.positions), context.block, operator, context.block, draws)
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
    """Decode every (context, scheduler, width) cell, all cells of a context in
    one batch, and relate degradation to the dependence/circulation predictors.

    Degradation is the mean decoded-output negative log-likelihood under the
    reference joint, relative to the width-1 cell of the same scheduler and
    context.  Runs share per-position randomness across widths, which couples
    the comparison.  Spearman rank correlations of degradation against each
    predictor are computed across contexts per (scheduler, width) cell.  A
    scheduler is labelled by its kind, or ``kind#k`` (k its index) when its
    kind repeats.
    """
    if not contexts:
        raise ContractViolationError("stress test needs at least one context")
    if not schedulers:
        raise ContractViolationError("stress test needs at least one scheduler")
    if runs < 1:
        raise ContractViolationError(f"stress test needs at least one run per cell, got {runs}")
    widths = [int(w) for w in widths]
    if len(set(widths)) < len(widths):
        raise ContractViolationError(f"widths must be distinct, got {widths}")
    for w in widths:
        if not (1 <= w <= max(len(c.block) for c in contexts)):
            raise ContractViolationError(f"width {w} outside 1..max block size")
    if 1 not in widths:
        widths = [1] + widths
    kinds = [sched.kind for sched in schedulers]
    labels = [kind if kinds.count(kind) == 1 else f"{kind}#{si}" for si, kind in enumerate(kinds)]
    cells = list(itertools.product(range(len(schedulers)), widths))

    per_context = []
    for ci, context in enumerate(contexts):
        log_p = joint.log_block_conditional(context)
        predictors = _context_predictors(oracle, joint, context, operator, seed, ci)
        # derived_seed(seed, ci, si, k) for every scheduler si and run k, in one kernel call (an index is one
        # word); the batch holds the cells in order, each over the runs, so every width repeats the seeds
        seeds = seed_states(_seed_key(seed, ci) + [np.arange(len(schedulers))[:, None, None], np.arange(runs)])
        seeds = np.broadcast_to(seeds, (len(schedulers), len(widths), runs)).ravel().tolist()
        specs = [sched for sched in schedulers for _ in range(len(widths) * runs)]
        cell_widths = np.tile(np.repeat(widths, runs), len(schedulers))
        tokens = run_scheduler(oracle, context, seeds, specs, operator, cell_widths).tokens
        values = log_p[tuple(tokens[:, p] for p in context.block)].tolist()
        nll: dict[tuple[int, int], float] = {}
        for c, cell in enumerate(cells):
            total = 0.0
            for value in values[c * runs : (c + 1) * runs]:
                total -= value
            nll[cell] = total / runs
        per_context.append((predictors, nll))

    rows: list[StressRow] = []
    any_skipped = False
    for ci, (predictors, nll) in enumerate(per_context):
        ecirc, tc, mean_eps, conflict, skipped = predictors
        any_skipped = any_skipped or skipped
        for si, w in cells:
            rows.append(
                StressRow(
                    context_id=ci,
                    scheduler=labels[si],
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
    for si, w in cells:
        if w != 1:
            degradation = [nll[(si, w)] - nll[(si, 1)] for _, nll in per_context]
            predictor_cols = {
                "ecirc_abs": [pred[0] for pred, _ in per_context],
                "tc": [pred[1] for pred, _ in per_context],
                "mean_eps": [pred[2] for pred, _ in per_context],
            }
            correlations[f"{labels[si]}|w={w}"] = {
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
