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

import numpy as np

from .core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    TabularJointModel,
    Vocabulary,
    ConditionalOracle,
    class_strides,
    log_normalize,
    row_sum,
    seeded_rng,
)
from .errors import ContractViolationError, TrainingFailureError
from .pseudojoint import (
    DEFAULT_NORMALIZER_EPSILON,
    ExhaustivePlan,
    MonteCarloPlan,
    Estimate,
    _mean_estimate,
    _square_groups,
    _subset_scans,
)

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
            log_table = log_table + spec.beta * coupling.reshape(shape)
        return TabularJointModel(vocab, m, log_table)

    if spec.family == EXCHANGEABLE:
        rng = seeded_rng(spec.seed, 2)
        weights = np.exp(rng.standard_normal(EXCHANGEABLE_COMPONENTS))
        weights /= weights.sum()
        # key sum_k (m+1)**x_k: the count vector in base m+1, one entry for all permutations of a state
        powers = (m + 1) ** np.arange(vocab)
        distinct, inverse = np.unique(sum(powers.reshape((-1,) + (1,) * k) for k in range(m)), return_inverse=True)
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
            return TabularJointModel(vocab, m, np.log(table[inverse].reshape((vocab,) * m)))

    # tc-ladder: deterministic; the seed has no effect for this family
    lam = spec.level / (spec.levels_total + 1)
    table = np.full((vocab,) * m, (1.0 - lam) / vocab**m)
    for v in range(vocab):
        table[(v,) * m] += lam / vocab
    with np.errstate(divide="ignore"):
        return TabularJointModel(vocab, m, np.log(table))


def tc_ladder(positions: int, vocab_size: int, levels_total: int = 3) -> list[TabularJointModel]:
    """All rungs of the ladder, lowest dependence first."""
    return [
        generate_joint(
            SyntheticTaskSpec(
                family=TC_LADDER,
                positions=positions,
                vocab_size=vocab_size,
                level=level,
                levels_total=levels_total,
            )
        )
        for level in range(1, levels_total + 1)
    ]


# ---------------------------------------------------------------------------
# circulation-square sampling shared by the penalty estimator and the trainer


def square_sampler(positions: int, vocab: int):
    """``draw(rng, n)``: n squares drawn uniformly from the groups of the all-free
    context, as ``(pos, cls, tok)`` index arrays of shape ``(n, 4)`` for the four
    terms ``(q_i(a|S), q_j(b|S,a), q_j(b|S), q_i(a|S,b))``.  A group (visible
    subset, i, j) has weight ``V**len(visible)``, its share of the squares; one
    token row per square gives the visible values, a (at i) and b (at j)."""
    groups = list(_square_groups(PartialContext({}, tuple(range(positions)))))
    bounds = np.cumsum([vocab ** len(visible) for visible, _, _ in groups])
    term_pos = np.array([(i, j, j, i) for _, i, j in groups])
    # 1 where the context of a group's term holds the position
    seen = np.zeros((len(groups), 4, positions), dtype=np.intp)
    for g, (visible, i, j) in enumerate(groups):
        seen[g, :, list(visible)] = 1
        seen[g, 1, i] = seen[g, 3, j] = 1
    weights = seen * np.array(class_strides(positions, vocab))[term_pos]

    def draw(rng: np.random.Generator, n: int):
        pick = np.searchsorted(bounds, rng.integers(bounds[-1], size=n), side="right")
        tokens = rng.integers(vocab, size=(n, positions))
        pos = term_pos[pick]
        return pos, (weights[pick] @ (tokens + 1)[:, :, None])[:, :, 0], np.take_along_axis(tokens, pos, axis=1)

    return draw


def penalty_batch(logits: np.ndarray, pos_idx, cls_idx, tok_idx) -> tuple[float, np.ndarray]:
    """Mean squared normalized circulation over the squares given as the
    ``(pos, cls, tok)`` arrays of :func:`square_sampler`, with its analytic
    gradient through the four participating softmax cells."""
    n, vocab = len(pos_idx), logits.shape[2]
    rows = log_normalize(logits[pos_idx, cls_idx])  # (n, 4, V) log conditionals
    chosen = tok_idx[:, :, None] == np.arange(vocab)
    lq = rows[chosen].reshape(n, 4)
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    denom = sum(np.abs(lq).T) + DEFAULT_NORMALIZER_EPSILON  # the four terms left to right, as a row sum adds them
    ratio = (lq @ signs) / denom
    # d(ratio^2)/dlq_r / n; log conditionals are <= 0 so d|lq|/dlq = -1
    dlq = (2.0 / n) * (ratio / denom)[:, None] * (signs + ratio[:, None] * (lq < 0))
    # d log q(tok)/d logits = one_hot(tok) - probs, added per cell from 0.0 in square order, as np.add.at adds
    cells = (pos_idx * logits.shape[1] + cls_idx)[:, :, None] * vocab + np.arange(vocab)
    grad = np.bincount(cells.ravel(), (dlq[:, :, None] * (chosen - np.exp(rows))).ravel(), logits.size)
    return float(ratio @ ratio) / n, grad.reshape(logits.shape)


def ecirc_penalty(oracle: ConditionalOracle, plan=ExhaustivePlan(), epsilon: float = DEFAULT_NORMALIZER_EPSILON) -> Estimate:
    """Mean squared normalized circulation over visible-context squares.

    Exhaustive mode enumerates every (visible subset, values, pair, tokens)
    square; the Monte Carlo mode samples them uniformly.
    """
    positions, vocab = oracle.positions, oracle.vocab.size
    if isinstance(plan, ExhaustivePlan):
        scans = _subset_scans(oracle, PartialContext({}, tuple(range(positions))), epsilon)
        values = np.concatenate([normalized.reshape(-1) ** 2 for *_, normalized in scans])
    elif isinstance(plan, MonteCarloPlan):
        pos, cls, tok = square_sampler(positions, vocab)(seeded_rng(plan.seed), plan.n)
        lq = np.empty(pos.shape)
        for p in range(positions):
            at = pos == p
            lq[at] = np.take_along_axis(oracle.log_rows(p, cls[at]), tok[at][:, None], axis=1)[:, 0]
        t0, t1, t2, t3 = lq.T
        values = (np.abs((t0 + t1) - (t2 + t3)) / (np.abs(t0) + np.abs(t1) + np.abs(t2) + np.abs(t3) + epsilon)) ** 2
    else:
        raise ContractViolationError(f"unknown sampling plan {plan!r}")
    return _mean_estimate(values, plan)


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
        if self.ecirc_weight < 0:
            raise ContractViolationError("ecirc weight must be >= 0")
        if self.ecirc_weight > 0 and self.ecirc_samples < 1:
            raise ContractViolationError("ecirc penalty needs at least one sample per step")
        if not (self.init_scale >= 0 and math.isfinite(self.init_scale)):
            raise ContractViolationError(f"init scale must be finite and >= 0, got {self.init_scale}")

    def to_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "coverage_fraction": self.coverage_fraction,
            "steps": self.steps,
            "learning_rate": self.learning_rate,
            "ecirc_weight": self.ecirc_weight,
            "ecirc_samples": self.ecirc_samples,
            "seed": self.seed,
            "init_scale": self.init_scale,
            "grad_tol": self.grad_tol,
        }


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


class TrainedTabularOracle(LogitTableOracle):
    """Logit-table oracle plus its training provenance and history."""

    def __init__(self, table: LogitTable, config: TrainConfig, source_joint: TabularJointModel, history: dict):
        super().__init__(table)
        self.config = config
        self.source_joint = source_joint
        self.history = history

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["log_mass"] = [float(v) for v in self.source_joint.log_mass]
        out["train_config"] = self.config.to_dict()
        return out


def train_tabular(joint: TabularJointModel, config: TrainConfig) -> TrainedTabularOracle:
    """Fit a logit table to the joint's conditionals on the covered contexts.

    Full-batch gradient descent with a fixed learning rate; the per-context
    cross-entropy gradient is the analytic softmax residual, and the penalty
    gradient is the analytic derivative of the squared normalized circulation
    through the four participating softmax cells.  Covered contexts are
    weighted uniformly, which leaves each context's optimum (the reference
    conditional) unchanged while equalizing convergence rates.  Deterministic
    per (config, joint).  Raises TrainingFailureError with the history
    attached if the loss stops being finite.
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
    target_arr = np.concatenate([np.exp(joint.log_rows(i, cls)) for i, cls in cells])
    table_rows, gathered = logits.reshape(-1, vocab), np.empty(target_arr.shape)
    # rows a plain step does not move keep their verdict; a non-finite covered row fails the first loss
    finite_elsewhere = np.isfinite(logits).all()

    draw_squares = square_sampler(positions, vocab)
    penalty_rng = seeded_rng(config.seed, 9)
    history: dict = {"loss": [], "penalty": [], "grad_norm": []}

    for _ in range(config.steps):
        np.take(table_rows, cell_rows, axis=0, out=gathered)
        with np.errstate(over="ignore", invalid="ignore"):
            log_q = log_normalize(gathered)
            loss = -float(row_sum(target_arr * log_q).sum()) / len(target_arr)  # the mean, without its overhead
        ce_grad = np.exp(log_q) - target_arr

        # a plain step moves the covered rows alone: the update is 0.0 elsewhere, and x - 0.0 == x
        penalty_value, moved, before, update = 0.0, cell_rows, gathered, ce_grad
        if config.ecirc_weight > 0:
            penalty_value, penalty_grad = penalty_batch(logits, *draw_squares(penalty_rng, config.ecirc_samples))
            # every row may move; the covered rows are unique and ce_grad is never -0.0, so this is np.add.at into zeros
            moved, before, update = slice(None), table_rows, np.zeros_like(table_rows)
            update[cell_rows] = ce_grad
            update += config.ecirc_weight * penalty_grad.reshape(-1, vocab)

        if not (math.isfinite(loss) and math.isfinite(penalty_value)):
            raise TrainingFailureError(
                f"training loss became non-finite at step {len(history['loss'])}", history=history
            )
        grad_norm = float(np.abs(update).max())
        table_rows[moved] = stepped = before - config.learning_rate * update

        history["loss"].append(loss)
        history["penalty"].append(penalty_value)
        history["grad_norm"].append(grad_norm)
        if not (finite_elsewhere and np.isfinite(stepped).all()):
            raise TrainingFailureError(
                f"logits became non-finite at step {len(history['loss'])}", history=history
            )
        if grad_norm < config.grad_tol:
            break

    table = LogitTable(Vocabulary(vocab), positions, logits)
    return TrainedTabularOracle(table=table, config=config, source_joint=joint, history=history)
