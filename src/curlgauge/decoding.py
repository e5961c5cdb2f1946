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
from dataclasses import dataclass
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
    return np.array(list(index), dtype=keys.dtype).reshape(len(index), keys.shape[1]), inverse


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


# the most predictive-product cells, both paths together, that one chunk of a commutator's rows holds
_CHUNK_CELLS = 2**20


def commutator(
    oracle: ConditionalOracle, row: np.ndarray, block: Sequence[int], operator: UpdateOperator, pairs, draws=None
) -> np.ndarray:
    """Root Jensen-Shannon divergence, for each pair (i, j) of ``pairs``, between
    the predictive products over the open ``block`` after committing i then j
    versus j then i under the operator; both paths read the same per-position
    ``draws``.  ``row`` is one token row (giving one value per pair) or
    ``(runs, positions)`` rows with that open block (giving ``(runs, pairs)``
    values), and ``draws`` one draw row or one per run.

    A predictive product multiplies the conditionals of the coordinates left
    open on either path, in position order; a coordinate committed on one path
    enters it as a point mass at its token.  Each position's first commit is one
    update shared by every pair that starts there, and its second commit one
    update over every path that ends there."""
    pairs = list(pairs)
    for i, j in pairs:
        if i == j or i not in block or j not in block:
            raise ContractViolationError(f"positions {i}, {j} must be distinct unresolved positions")
    if len(block) == 2 and pairs:
        raise DegenerateComparisonError(
            "committing both positions would leave no unresolved coordinate to compare; enlarge the block"
        )
    rows, block, vocab = np.atleast_2d(row), np.array(sorted(block)), oracle.vocab.size
    draws = None if draws is None else np.broadcast_to(draws, rows.shape)
    paths = [path for i, j in pairs for path in ((i, j), (j, i))]  # pair k's i-then-j path is 2k
    first = {p: apply_update(oracle, rows, operator, p, draws) for p in dict.fromkeys(p for p, _ in paths)}
    ends = np.empty((len(paths),) + rows.shape, dtype=rows.dtype)
    for q in dict.fromkeys(q for _, q in paths):
        at = [t for t, path in enumerate(paths) if path[1] == q]
        stacked = np.concatenate([first[paths[t][0]] for t in at])
        tiled = None if draws is None else np.tile(draws, (len(at), 1))
        ends[at] = apply_update(oracle, stacked, operator, q, tiled).reshape(len(at), *rows.shape)
    # (runs × pairs, positions) end states of the two paths, run-major
    ij, ji = (ends[s::2].swapaxes(0, 1).reshape(-1, rows.shape[1]) for s in (0, 1))
    # the coordinates left open on either path; only a threshold no-op makes them differ between rows
    open_ = (ij[:, block] < 0) | (ji[:, block] < 0)
    counts, value = open_.sum(axis=1), np.empty(len(ij))
    for k in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == k)
        both = np.concatenate([ij[sel], ji[sel]])
        coords = np.tile(block[np.nonzero(open_[sel])[1].reshape(-1, k)], (2, 1))
        tokens, vecs = np.take_along_axis(both, coords, axis=1), np.empty(coords.shape + (vocab,))
        for p in np.unique(coords).tolist():
            at, axis = np.nonzero(coords == p)
            vecs[at, axis] = _conditionals(oracle, both[at], p)
        vecs = np.where(tokens[..., None] >= 0, tokens[..., None] == np.arange(vocab), vecs)
        # each coordinate's factor on its own axis of the (rows,) + (V,) * k product, multiplied in
        # position order from the first factor (1.0 times it is itself)
        factors = [vecs[:, a].reshape((-1,) + (1,) * a + (vocab,) + (1,) * (k - a - 1)) for a in range(k)]
        n, step = len(sel), max(1, _CHUNK_CELLS // (2 * vocab**k))
        for lo in range(0, n, step):
            hi, products = min(lo + step, n), []
            for part in (slice(lo, hi), slice(n + lo, n + hi)):
                probs = factors[0][part]
                for factor in factors[1:]:
                    probs = probs * factor[part]
                products.append(np.ascontiguousarray(probs))
            value[sel[lo:hi]] = np.sqrt(js_divergence(*products))
    return value.reshape(len(rows), len(pairs)) if np.ndim(row) == 2 else value


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
    values = commutator(oracle, row, block, operator, pairs, draws)
    values = dict(zip(pairs, values.tolist() if np.ndim(row) == 1 else list(values.T)))
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


def _oracle_pair_dependence(oracle: ConditionalOracle, row: np.ndarray, pairs) -> np.ndarray:
    """Dependence proxy from the oracle alone, for each pair (i, j) of ``pairs``:
    mean over both resolution orders of the mutual information of the
    order-induced pair product; one value per pair for one token row,
    ``(runs, pairs)`` values for ``(runs, positions)`` rows."""
    rows, pairs, vocab = np.atleast_2d(row), list(pairs), oracle.vocab.size
    positions = dict.fromkeys(itertools.chain(*pairs))
    partners = {s: list(dict.fromkeys(f for pair in pairs if s in pair for f in pair if f != s)) for s in positions}
    # q_s(b | f=a) over (rows, partners f of s, a, b): one gather per second position s
    grids = {s: np.stack([oracle.class_grid(s, rows, [f]) for f in fs], 1) for s, fs in partners.items()}
    after = {s: np.exp(oracle.log_rows(s, grid)) for s, grid in grids.items()}
    cond = {p: _conditionals(oracle, rows, p) for p in positions}

    def products(order):  # q_f(a) q_s(b | f=a) over (rows × pairs, a, b) for each (f, s) of order
        terms = [cond[f][:, :, None] * after[s][:, partners[s].index(f)] for f, s in order]
        return np.stack(terms, 1).reshape(-1, vocab, vocab)

    # both orders' products with a the token at i and b at j, in C order, as a KL's sums read them
    q_ij, q_ji = products(pairs), np.ascontiguousarray(products([(j, i) for i, j in pairs]).swapaxes(1, 2))
    value = 0.5 * (kl_vs_marginal_product(q_ij, batch=1) + kl_vs_marginal_product(q_ji, batch=1))
    return value.reshape(len(rows), len(pairs)) if np.ndim(row) == 2 else value


def _conflict_aware_chosen(oracle, rows, draws, conf, widths, scheduler: SchedulerSpec, operator, block) -> np.ndarray:
    """Mask over ``block`` of each run's first lowest-scoring conflict-aware candidate on
    the tie grid (``conf``: each position's max-probability).  A width-1 run, whose
    candidates are its open positions, and a run with one candidate compare no pair.
    The other runs with the same open positions are scored across their widths: one
    commutator call over every pair some width's candidates hold and each distinct
    (token row, draw row) state, one dependence call over those pairs and each distinct
    token row; a width's ``(runs, candidates)`` scores add their pair terms left to right."""
    open_ = rows[:, block] < 0
    counts = open_.sum(axis=1)
    widths = np.minimum(widths, counts)
    first = tie_key(np.where(open_, scheduler.lam_confidence * -conf, np.inf)).argmin(axis=1)
    single = (widths == 1)[:, None] & (np.arange(len(block)) == first[:, None])
    chosen = np.where((widths == counts)[:, None], open_, single)
    paired = np.flatnonzero((widths > 1) & (widths < counts))
    open_sets, set_of = _distinct_rows(open_[paired])
    for s, open_set in enumerate(open_sets.tolist()):
        runs, unresolved = paired[set_of == s], list(itertools.compress(block, open_set))
        run_widths = sorted(set(widths[runs].tolist()))
        if scheduler.block_search == "subsets":
            candidates = {w: list(itertools.combinations(unresolved, w)) for w in run_widths}
        else:
            candidates = {w: [tuple(unresolved[k : k + w]) for k in range(len(unresolved) - w + 1)] for w in run_widths}
        pairs = [pair for cands in candidates.values() for cand in cands for pair in itertools.combinations(cand, 2)]
        pairs = list(dict.fromkeys(pairs))
        distinct, row_of = _distinct_rows(rows[runs])
        # without draws the commutator, like the dependence, reads the row alone; draw rows are
        # keyed on their bits, since their NaNs outside the block never compare equal
        if draws is None:
            states, state_draws, state_of = distinct, None, row_of
        else:
            keys, state_of = _distinct_rows(np.column_stack([rows[runs], draws[runs].view(np.int64)]))
            states, state_draws = keys[:, : rows.shape[1]], keys[:, rows.shape[1] :].view(np.float64)
        conflict = commutator(oracle, states, unresolved, operator, pairs, state_draws)[state_of]
        dependence = _oracle_pair_dependence(oracle, distinct, pairs)[row_of]
        for w, cands in candidates.items():
            at = np.flatnonzero(widths[runs] == w)
            members = np.searchsorted(block, cands)
            cand_pairs = [[pairs.index(pair) for pair in itertools.combinations(cand, 2)] for cand in cands]
            score = scheduler.lam_confidence * -conf[runs[at]][:, members].mean(axis=-1)
            # cumsum adds each candidate's pair terms left to right, in combinations order
            score = score + scheduler.lam_conflict * conflict[at][:, cand_pairs].cumsum(axis=-1)[..., -1]
            score = score + scheduler.lam_dependence * dependence[at][:, cand_pairs].cumsum(axis=-1)[..., -1]
            chosen[runs[at, None], members[tie_key(score).argmin(axis=1)]] = True
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
        return {**vars(self), "rows": [row.to_dict() for row in self.rows], "operator": self.operator.to_dict()}


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
