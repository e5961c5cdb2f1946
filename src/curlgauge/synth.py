"""Controlled model zoo and the tabular logit trainer.

Joint families with separately tunable dependence structure:

* ``chain`` — first-order neighbor couplings of strength beta (beta=0 is an
  independent product);
* ``exchangeable`` — a mixture of i.i.d. components, exactly invariant under
  position permutations;
* ``tc-ladder`` — a deterministic interpolation from uniform toward the
  all-positions-equal diagonal whose total correlation grows with the level;
* ``custom-table`` — an explicit log-mass table.

The trainer fits a logit table by full-batch gradient descent on the covered
visible contexts' cross-entropy toward the reference conditionals, optionally
plus a squared-normalized-circulation penalty estimated on sampled squares.
Restricting the covered mask patterns is the mechanism for inducing learned
incompatibility; the penalty is the mechanism for suppressing it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    TabularJointModel,
    Vocabulary,
    _column_logsumexp,
    _column_sum,
    class_strides,
    seeded_rng,
)
from .errors import ContractViolationError, TrainingFailureError
from .pseudojoint import DEFAULT_NORMALIZER_EPSILON, _square_groups

CHAIN = "chain"
EXCHANGEABLE = "exchangeable"
TC_LADDER = "tc-ladder"
CUSTOM = "custom-table"

EXCHANGEABLE_COMPONENTS = 3


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Recipe for one joint; identical specs generate identical joints."""

    family: str
    positions: int
    vocab_size: int
    seed: int = 0
    beta: float = 1.0
    level: int = 1
    levels_total: int = 3
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in (CHAIN, EXCHANGEABLE, TC_LADDER, CUSTOM):
            raise ContractViolationError(f"unknown synthetic family {self.family!r}")
        if self.family == CHAIN and not math.isfinite(self.beta):
            raise ContractViolationError(f"chain coupling strength must be finite, got {self.beta}")
        if self.family == TC_LADDER and not (1 <= self.level <= self.levels_total):
            raise ContractViolationError(f"ladder level must be in 1..{self.levels_total}, got {self.level}")
        if self.family == CUSTOM and self.table is None:
            raise ContractViolationError("custom-table family needs an explicit log-mass table")


def generate_joint(spec: SyntheticTaskSpec) -> TabularJointModel:
    """The spec's joint.  An exchangeable entry depends on its state's token counts alone, so it is computed
    once per count vector (1,716 at m=6, V=8) and gathered to its states: ~25 ms at the caps on 2 vCPUs."""
    m, vocab = spec.positions, spec.vocab_size
    if spec.family == CUSTOM:
        return TabularJointModel(vocab, m, np.asarray(spec.table))

    if spec.family == CHAIN:
        rng = seeded_rng(spec.seed, 1)
        log_table = np.zeros((1,) * m)
        for k in range(m):
            marg = rng.standard_normal(vocab)
            shape = [1] * m
            shape[k] = vocab
            log_table = log_table + marg.reshape(shape)
        for k in range(m - 1):
            coupling = rng.standard_normal((vocab, vocab))
            shape = [1] * m
            shape[k] = vocab
            shape[k + 1] = vocab
            log_table += spec.beta * coupling.reshape(shape)
        return TabularJointModel(vocab, m, log_table)

    if spec.family == EXCHANGEABLE:
        rng = seeded_rng(spec.seed, 2)
        weights = np.exp(rng.standard_normal(EXCHANGEABLE_COMPONENTS))
        weights /= weights.sum()
        # key sum_k (m+1)**x_k: the count vector in base m+1, one entry for all permutations of a state.
        # Built a position at a time: the sorted distinct keys of k+1 positions, and each state's index
        # into them, gathered through its first k positions' index: np.unique's result in a tenth of its time
        powers = (m + 1) ** np.arange(vocab)
        distinct, inverse = powers, np.arange(vocab)
        for _ in range(m - 1):
            keys = distinct[:, None] + powers
            flat = np.sort(keys, axis=None)
            distinct = flat[np.diff(flat, prepend=-1) > 0]
            inverse = np.searchsorted(distinct, keys)[inverse]
        counts = distinct // powers[:, None] % (m + 1)
        table = np.zeros(len(distinct))
        for c in range(EXCHANGEABLE_COMPONENTS):
            comp = np.exp(rng.standard_normal(vocab))
            comp /= comp.sum()
            prod = np.ones(len(distinct))
            for v in range(vocab):
                prod = prod * np.power(comp[v], counts[v])
            table = table + weights[c] * prod
        with np.errstate(divide="ignore"):
            return TabularJointModel(vocab, m, np.log(table)[inverse])

    # tc-ladder: deterministic; the seed has no effect for this family
    lam = spec.level / (spec.levels_total + 1)
    table = np.full((vocab,) * m, (1.0 - lam) / vocab**m)
    for v in range(vocab):
        table[(v,) * m] += lam / vocab
    with np.errstate(divide="ignore"):
        return TabularJointModel(vocab, m, np.log(table))


# ---------------------------------------------------------------------------
# circulation-square sampling for the trainer's penalty


def square_sampler(positions: int, vocab: int):
    """``draw(rng, n)``: n squares drawn uniformly from the groups of the all-free
    context, as ``(pos, cls, tok)`` index arrays of shape ``(n, 4)`` for the four
    terms ``(q_i(a|S), q_j(b|S,a), q_j(b|S), q_i(a|S,b))``.  A group (visible
    subset, i, j) has weight ``V**len(visible)``, its share of the squares; one
    token row per square gives the visible values, a (at i) and b (at j).
    ``draw(rng, n, steps)`` draws ``steps`` such batches, one after the other with
    the two draws of a one-step call each, as arrays with a leading step axis."""
    groups = list(_square_groups(PartialContext({}, tuple(range(positions)))))
    bounds = np.cumsum([vocab ** len(visible) for visible, _, _ in groups])
    term_pos = np.array([(i, j, j, i) for _, i, j in groups])
    # 1 where the context of a group's term holds the position
    seen = np.zeros((len(groups), 4, positions), dtype=np.intp)
    for g, (visible, i, j) in enumerate(groups):
        seen[g, :, list(visible)] = 1
        seen[g, 1, i] = seen[g, 3, j] = 1
    weights = seen * np.array(class_strides(positions, vocab))[term_pos]

    def draw(rng: np.random.Generator, n: int, steps: int | None = None):
        draws = [(rng.integers(bounds[-1], size=n), rng.integers(vocab, size=(n, positions))) for _ in range(steps or 1)]
        pick, tokens = np.searchsorted(bounds, np.stack([u for u, _ in draws]), side="right"), np.stack([t for _, t in draws])
        pos = term_pos[pick]
        squares = pos, np.einsum("...tp,...p->...t", weights[pick], tokens + 1), np.take_along_axis(tokens, pos, axis=-1)
        return squares if steps else tuple(a[0] for a in squares)

    return draw


class Squares(NamedTuple):
    """One step's n squares as indices into a ``(V, rows)`` table of logit columns.

    ``terms``: the column of each square's four terms, square by square (4n);
    ``pick``: each term's token cell in the ``(V, 4n)`` block of those columns, as a flat index;
    ``chosen``: that block's one-hot token mask; ``touched``: the distinct columns, ascending;
    ``bins``: each cell of the block as a flat slot of the ``(V, len(touched))`` gradient block;
    ``covered``: how many touched columns lie below the bound the squares were indexed with.
    """

    terms: np.ndarray
    pick: np.ndarray
    chosen: np.ndarray
    touched: np.ndarray
    bins: np.ndarray
    covered: int


def _index_squares(terms: np.ndarray, tok: np.ndarray, covered: int, vocab: int):
    """Yield the :class:`Squares` of each step of ``(steps, n, 4)`` column and token arrays, indexed at once."""
    steps, width = terms.shape[0], terms[0].size
    terms, tok = terms.reshape(steps, width), tok.reshape(steps, width)
    span = int(terms.max()) + 1
    # each step's distinct columns, ascending, as one sorted run of (step, column) keys
    keys, inverse = np.unique((np.arange(steps)[:, None] * span + terms).reshape(-1), return_inverse=True)
    step_of, touched = np.divmod(keys, span)
    sizes, below = np.bincount(step_of, minlength=steps), np.bincount(step_of[touched < covered], minlength=steps)
    ends = np.cumsum(sizes)
    slots = inverse.reshape(steps, width) - (ends - sizes)[:, None]
    bins = np.arange(vocab)[:, None] * sizes[:, None, None] + slots[:, None, :]
    pick = tok * width + np.arange(width)
    chosen = tok[:, None, :] == np.arange(vocab)[:, None]
    for s in range(steps):
        yield Squares(terms[s], pick[s], chosen[s], touched[ends[s] - sizes[s] : ends[s]], bins[s].reshape(-1), int(below[s]))


def penalty_batch(cols: np.ndarray, squares: Squares) -> tuple[float, np.ndarray]:
    """Mean squared normalized circulation over one step's squares of a ``(V, rows)``
    table of logit columns, with its analytic gradient through the four participating
    softmax cells, as the ``(V, len(squares.touched))`` block of the touched columns."""
    n = len(squares.terms) // 4
    block = cols.take(squares.terms, axis=1)  # C order (cols[:, terms] is not), so reductions run across rows
    log_rows = block - _column_logsumexp(block)  # (V, 4n) log conditionals
    lq = np.take(log_rows, squares.pick).reshape(n, 4)
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    denom = sum(np.abs(lq).T) + DEFAULT_NORMALIZER_EPSILON  # the four terms left to right, as a row sum adds them
    ratio = (lq @ signs) / denom
    # d(ratio^2)/dlq_r / n; log conditionals are <= 0 so d|lq|/dlq = -1
    dlq = (2.0 / n) * (ratio / denom)[:, None] * (signs + ratio[:, None] * (lq < 0))
    # d log q(tok)/d logits = one_hot(tok) - probs, added per cell from 0.0 in square order, as np.add.at adds
    cell_grads = dlq.reshape(1, -1) * (squares.chosen - np.exp(log_rows))
    grad = np.bincount(squares.bins, cell_grads.reshape(-1), cols.shape[0] * len(squares.touched))
    return float(ratio @ ratio) / n, grad.reshape(cols.shape[0], -1)


# ---------------------------------------------------------------------------
# trainer

PREFIX_ONLY = "prefix-only"
ALL_MASKS = "all-masks"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one deterministic training run.

    coverage picks which visible contexts receive cross-entropy supervision:
    prefix-only trains position i only on the context {0..i-1}; all-masks on
    every subset of the other positions; a fraction in (0, 1) on a seeded
    sample of those subsets.  ecirc_weight adds the squared-normalized-
    circulation penalty, estimated on ecirc_samples seeded squares per step.
    """

    coverage: str = ALL_MASKS
    coverage_fraction: float | None = None
    steps: int = 2000
    learning_rate: float = 1.0
    ecirc_weight: float = 0.0
    ecirc_samples: int = 32
    seed: int = 0
    init_scale: float = 1.0
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.coverage not in (PREFIX_ONLY, ALL_MASKS, "fraction"):
            raise ContractViolationError(f"coverage must be prefix-only, all-masks, or fraction, got {self.coverage!r}")
        if self.coverage == "fraction":
            if self.coverage_fraction is None or not (0 < self.coverage_fraction <= 1):
                raise ContractViolationError("fraction coverage needs coverage_fraction in (0, 1]")
        if self.steps < 1:
            raise ContractViolationError("steps must be >= 1")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ContractViolationError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if not (self.ecirc_weight >= 0 and math.isfinite(self.ecirc_weight)):
            raise ContractViolationError(f"ecirc weight must be finite and >= 0, got {self.ecirc_weight}")
        if self.ecirc_weight > 0 and self.ecirc_samples < 1:
            raise ContractViolationError("ecirc penalty needs at least one sample per step")
        if not (self.init_scale >= 0 and math.isfinite(self.init_scale)):
            raise ContractViolationError(f"init scale must be finite and >= 0, got {self.init_scale}")

    def to_dict(self) -> dict:
        return dict(vars(self))


def _covered_patterns(config: TrainConfig, position: int, positions: int) -> list[tuple[int, ...]]:
    others = [p for p in range(positions) if p != position]
    if config.coverage == PREFIX_ONLY:
        return [tuple(p for p in range(position))]
    all_patterns = [
        pattern for size in range(len(others) + 1) for pattern in itertools.combinations(others, size)
    ]
    if config.coverage == ALL_MASKS:
        return all_patterns
    rng = seeded_rng(config.seed, 5, position)
    count = max(1, round(config.coverage_fraction * len(all_patterns)))
    picked = rng.choice(len(all_patterns), size=count, replace=False)
    return [all_patterns[k] for k in sorted(picked)]


# squares drawn and indexed at once: a chunk holds at most this many, and at least one step;
# larger chunks save little per step and hold more index arrays at once
_CHUNK_SQUARES = 1024


def _square_steps(draw, rng: np.random.Generator, n: int, steps: int, column: np.ndarray, covered: int, vocab: int):
    """Yield the :class:`Squares` of ``steps`` steps of n squares, drawn and indexed a chunk of
    steps at a time; ``column[pos, cls]`` is the column of a (position, class) row."""
    per_chunk = max(1, _CHUNK_SQUARES // n)
    for start in range(0, steps, per_chunk):
        pos, cls, tok = draw(rng, n, min(per_chunk, steps - start))
        yield from _index_squares(column[pos, cls], tok, covered, vocab)


def train_tabular(joint: TabularJointModel, config: TrainConfig) -> tuple[LogitTableOracle, dict]:
    """Fit a logit table to the joint's conditionals on the covered contexts; return its
    oracle and the run's history (loss, penalty and gradient max-norm per step).

    Full-batch gradient descent with a fixed learning rate; the per-context
    cross-entropy gradient is the analytic softmax residual, and the penalty
    gradient is the analytic derivative of the squared normalized circulation
    through the four participating softmax cells.  Covered contexts are
    weighted uniformly, which leaves each context's optimum (the reference
    conditional) unchanged while equalizing convergence rates.  Deterministic
    per (config, joint).  Raises TrainingFailureError with the history
    attached if the loss stops being finite.

    The run holds the table as V columns of its rows: the covered rows in cell
    order, then, with the penalty, every other row.  A step reduces down the
    columns, with the bits of the row reductions, and moves the covered rows
    and its squares' rows alone; the table is written back after the last step.
    """
    positions, vocab = joint.positions, joint.vocab.size
    rng = seeded_rng(config.seed, 7)
    logits = config.init_scale * rng.standard_normal(
        (positions, (vocab + 1) ** (positions - 1), vocab)
    )

    # covered cells per position and pattern, the pattern's values in row-major order
    cells = [
        (i, joint.class_grid(i, {}, pattern).reshape(-1))
        for i in range(positions)
        for pattern in _covered_patterns(config, i, positions)
    ]
    cell_rows = np.concatenate([i * logits.shape[1] + cls for i, cls in cells])  # unique rows of the (cells, V) table
    target = np.concatenate([np.exp(joint.log_rows(i, cls)) for i, cls in cells]).T.copy()
    table_rows, n_cells = logits.reshape(-1, vocab), len(cell_rows)
    # rows a step does not move keep their verdict; a non-finite covered row fails the first loss
    finite_elsewhere = np.isfinite(logits).all()

    penalized, held = config.ecirc_weight > 0, cell_rows
    if penalized:
        others = np.ones(len(table_rows), dtype=bool)
        others[cell_rows] = False
        held = np.concatenate([cell_rows, np.flatnonzero(others)])
        column = np.empty(len(held), dtype=np.intp)
        column[held] = np.arange(len(held))
        squares = _square_steps(
            square_sampler(positions, vocab), seeded_rng(config.seed, 9), config.ecirc_samples, config.steps,
            column.reshape(logits.shape[:2]), n_cells, vocab,
        )
    cols = table_rows[held].T.copy()
    covered = cols[:, :n_cells]
    history: dict = {"loss": [], "penalty": [], "grad_norm": []}

    for _ in range(config.steps):
        with np.errstate(over="ignore", invalid="ignore"):
            log_q = covered - _column_logsumexp(covered)
            loss = -float(_column_sum(target * log_q).sum()) / n_cells  # the mean, without its overhead
        update = np.exp(log_q) - target

        penalty_value = 0.0
        if penalized:
            step = next(squares)
            penalty_value, penalty_grad = penalty_batch(cols, step)

        if not (math.isfinite(loss) and math.isfinite(penalty_value)):
            raise TrainingFailureError(
                f"training loss became non-finite at step {len(history['loss'])}", history=history
            )
        # x - 0.0 == x, so a row whose update is 0.0 need not move
        if penalized:
            penalty_grad *= config.ecirc_weight
            update[:, step.touched[: step.covered]] += penalty_grad[:, : step.covered]
        grad_norm = float(np.abs(update).max())
        covered -= config.learning_rate * update
        finite = finite_elsewhere and np.isfinite(covered).all()
        if penalized and step.covered < len(step.touched):
            moved = step.touched[step.covered :]
            outside = 0.0 + penalty_grad[:, step.covered :]  # from 0.0, as a dense update: -0.0 becomes +0.0
            grad_norm = float(np.maximum(grad_norm, np.abs(outside).max()))
            cols[:, moved] = stepped = cols.take(moved, axis=1) - config.learning_rate * outside
            finite = finite and np.isfinite(stepped).all()

        history["loss"].append(loss)
        history["penalty"].append(penalty_value)
        history["grad_norm"].append(grad_norm)
        if not finite:
            raise TrainingFailureError(
                f"logits became non-finite at step {len(history['loss'])}", history=history
            )
        if grad_norm < config.grad_tol:
            break

    table_rows[held] = cols.T
    return LogitTableOracle(LogitTable(Vocabulary(vocab), positions, logits)), history
