"""Order-induced sequential products and their local consistency diagnostics.

A block of unresolved positions can be resolved in any order; each order
multiplies local conditionals into one sequential product over the block.
These functions measure how much those products disagree across orders:

* ``curl_local`` — the four-term log circulation on a pair of positions,
  identically the log-ratio of the two order-induced pair products;
* ``ecirc_abs`` / ``order_swap_kl`` — its aggregate summaries;
* ``swap_decomposition`` — the exact expansion of a two-order log gap into
  local circulation terms along a path of adjacent transpositions;
* ``order_consistency_check`` — brute-force verdict: all permutations agree
  on all assignments iff every reachable square is circulation-free.

Scans read every square from one ``StepLattice`` of the block and check each visible
subset's largest circulation, and the largest order-swap KLs, against reference
``pseudo_joint_table``s gathered apart.
A pair record holds only its four terms and its circulation: the order-swap KLs sum the
two pair tables from the terms, and ``plan_squares`` the normalised circulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import TIE_GRID, ConditionalOracle, PartialContext, _sum_in_order, kl, seeded_rng
from .errors import ContractViolationError, IdentityCheckError

DEFAULT_NORMALIZER_EPSILON = 1e-6
DEFAULT_CONSISTENCY_TOL = 1e-8

# A circulation grid, and one pair's order-swap KLs per scan, are checked against the pair-order
# products gathered without the lattice; disagreement beyond this means a bug.
_CROSSCHECK_TOL = 1e-12


@dataclass(frozen=True)
class PseudoJointSpec:
    """One order-induced product: a context plus a permutation of its block."""

    context: PartialContext
    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(p) for p in self.order)
        if sorted(order) != sorted(self.context.block):
            raise ContractViolationError(
                f"order {order} is not a permutation of the block {self.context.block}"
            )
        object.__setattr__(self, "order", order)


@dataclass(frozen=True)
class CurlSample:
    """One evaluated circulation: positions (i, j), tokens (a, b), and value.

    ``terms`` holds the four participating log conditionals
    (q(a|S), q(b|S,a), q(b|S), q(a|S,b)); ``value = t0 + t1 - t2 - t3``.
    """

    i: int
    j: int
    a: int
    b: int
    context: PartialContext
    value: float
    terms: tuple[float, float, float, float]
    normalized_value: float

    def to_dict(self) -> dict:
        out = {**vars(self), "context": self.context.to_dict()}
        del out["terms"]
        return out


@dataclass(frozen=True)
class ExhaustivePlan:
    """All unordered block pairs crossed with all token pairs."""


@dataclass(frozen=True)
class MonteCarloPlan:
    """Uniform seeded samples over (i, j, a, b) tuples."""

    seed: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ContractViolationError(f"sample count must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Estimate:
    """A scalar statistic; stderr and n are set for Monte Carlo estimates."""

    value: float
    stderr: float | None = None
    n: int | None = None
    mode: str = "exact"


def _mean_estimate(values: np.ndarray, plan) -> Estimate:
    """Mean of a plan's samples; a Monte Carlo mean carries its standard error, which one
    sample leaves undefined."""
    n = len(values)
    if not isinstance(plan, MonteCarloPlan):
        return Estimate(value=float(values.mean()), n=n, mode="exact")
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return Estimate(value=float(values.mean()), stderr=stderr, n=n, mode="monte-carlo")


def pseudo_joint_log_prob(oracle: ConditionalOracle, spec: PseudoJointSpec, assignment: Mapping[int, int]) -> float:
    """log of the sequential product of conditionals along the spec's order."""
    if set(assignment) != set(spec.context.block):
        raise ContractViolationError(
            f"assignment keys {sorted(assignment)} must cover exactly the block {spec.context.block}"
        )
    assigned = dict(spec.context.observed)
    oracle._validate_context(spec.context)
    total = 0.0
    for pos in spec.order:
        tok = int(assignment[pos])
        if not (0 <= tok < oracle.vocab.size):
            raise ContractViolationError(f"token {tok} outside vocabulary of size {oracle.vocab.size}")
        total += float(oracle.log_dist(pos, assigned)[tok])
        assigned[pos] = tok
    return total


def step_table(oracle: ConditionalOracle, observed: Mapping[int, int], axes: Sequence[int], pos: int, given) -> np.ndarray:
    """log q(pos | observed, given) over ``axes``: one row gather, with V on the axes of
    ``given`` and pos and length 1 elsewhere.  The token axis of the rows replaces the
    length-1 grid axis of pos, so ``np.swapaxes(table[..., None], axes.index(pos), -1)``
    gives back the gathered rows, tokens last."""
    grid = oracle.class_grid(pos, observed, [p if p in given else None for p in axes])
    return np.swapaxes(oracle.log_rows(pos, grid), axes.index(pos), -1)[..., 0]


def pseudo_joint_table(oracle: ConditionalOracle, context: PartialContext, order: Sequence[int]) -> np.ndarray:
    """Log sequential product for every block assignment.

    Axes follow the block tuple's order (not the resolution order), so tables
    for different orders of the same block are directly comparable.
    """
    spec = PseudoJointSpec(context, tuple(order))
    oracle._validate_context(context)
    table = np.zeros((oracle.vocab.size,) * len(context.block))
    for m, pos in enumerate(spec.order):
        table += step_table(oracle, context.observed, context.block, pos, spec.order[:m])
    return table


class StepLattice:
    """The steps log q(pos | observed, given) of a context's block, for every position and
    every set ``given`` of other block positions: ``lattice[pos, given]`` is ``step_table``
    over the block's axes as a C-order copy (which frees the rows the view holds), gathered
    on first use and kept for the lattice's life, so every table summed from it is C-order."""

    def __init__(self, oracle: ConditionalOracle, context: PartialContext):
        oracle._validate_context(context)
        self.oracle, self.context, self._steps = oracle, context, {}

    def __getitem__(self, step) -> np.ndarray:
        pos, given = step
        key = (pos, frozenset(given))
        if key not in self._steps:
            table = step_table(self.oracle, self.context.observed, self.context.block, pos, given)
            self._steps[key] = np.ascontiguousarray(table)
        return self._steps[key]


def curl_local(
    oracle: ConditionalOracle,
    context: PartialContext,
    i: int,
    j: int,
    a: int,
    b: int,
    epsilon: float = DEFAULT_NORMALIZER_EPSILON,
) -> CurlSample:
    """Four-term log circulation at one square, cross-checked against the
    independently computed two-order pair products."""
    if i == j:
        raise ContractViolationError("curl needs two distinct positions")
    if i not in context.block or j not in context.block:
        raise ContractViolationError(f"positions {i}, {j} must both be in the block {context.block}")
    for tok in (a, b):
        if not (0 <= tok < oracle.vocab.size):
            raise ContractViolationError(f"token {tok} outside vocabulary of size {oracle.vocab.size}")
    oracle._validate_context(context)

    assigned = context.observed
    t0 = float(oracle.log_dist(i, assigned)[a])
    t1 = float(oracle.log_dist(j, {**assigned, i: a})[b])
    t2 = float(oracle.log_dist(j, assigned)[b])
    t3 = float(oracle.log_dist(i, {**assigned, j: b})[a])
    value = (t0 + t1) - (t2 + t3)

    pair_context = PartialContext(observed=assigned, block=(i, j), time=context.time)
    lp_ij = pseudo_joint_log_prob(oracle, PseudoJointSpec(pair_context, (i, j)), {i: a, j: b})
    lp_ji = pseudo_joint_log_prob(oracle, PseudoJointSpec(pair_context, (j, i)), {i: a, j: b})
    if abs(value - (lp_ij - lp_ji)) > _CROSSCHECK_TOL:
        raise IdentityCheckError(
            f"circulation cross-check failed: four-term {value!r} vs product log-ratio {lp_ij - lp_ji!r}"
        )

    denom = abs(t0) + abs(t1) + abs(t2) + abs(t3) + epsilon
    return CurlSample(
        i=i, j=j, a=a, b=b, context=context, value=value,
        terms=(t0, t1, t2, t3), normalized_value=abs(value) / denom,
    )


@dataclass(frozen=True)
class _PairRecord:
    """One square group (visible, i, j): the four terms q(i | S), q(j | S, i), q(j | S) and
    q(i | S, j) as views of the lattice's steps on (visible, i, j) axes, and the C-order
    ``[values, a, b]`` circulation."""

    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    value: np.ndarray


def _pair_circulation(lattice: StepLattice, visible, i: int, j: int) -> _PairRecord:
    """The record of the group (visible, i, j) of the lattice's block: the steps ``lattice[i, S]``,
    ``lattice[j, S + i]``, ``lattice[j, S]`` and ``lattice[i, S + j]`` (S the visible positions),
    each moved to (visible, i, j) axes, and their circulation."""
    block, vocab = lattice.context.block, lattice.oracle.vocab.size
    kept = [p for p in block if p in visible or p in (i, j)]
    axes = [kept.index(p) for p in (*visible, i, j)]
    moved = lambda table: table.reshape([n for p, n in zip(block, table.shape) if p in kept]).transpose(axes)  # noqa: E731
    steps = ((i, visible), (j, (*visible, i)), (j, visible), (i, (*visible, j)))
    terms = t0, t1, t2, t3 = tuple(moved(lattice[step]) for step in steps)
    return _PairRecord(terms, np.ascontiguousarray(((t0 + t1) - (t2 + t3)).reshape(-1, vocab, vocab)))


def _subset_records(lattice: StepLattice, visible, pairs) -> list[_PairRecord]:
    """The records of the groups (visible, i, j) for the given pairs.  The V x V circulation grid
    that holds their largest |circulation| is checked against the reference pair tables, gathered
    without the lattice with the visible values observed: one independent check per subset."""
    records = [_pair_circulation(lattice, visible, i, j) for i, j in pairs]
    if not records:
        return records
    peaks = np.stack([np.abs(r.value).max(axis=(1, 2)) for r in records], axis=1)
    v, k = np.unravel_index(int(peaks.argmax()), peaks.shape)
    values, (i, j) = np.unravel_index(v, (lattice.oracle.vocab.size,) * len(visible)), pairs[k]
    observed = {**lattice.context.observed, **{p: int(t) for p, t in zip(visible, values)}}
    pair = PartialContext(observed, (i, j), lattice.context.time)
    reference = pseudo_joint_table(lattice.oracle, pair, (i, j)) - pseudo_joint_table(lattice.oracle, pair, (j, i))
    gap = float(np.abs(records[k].value[v] - reference).max())
    if gap > _CROSSCHECK_TOL:
        raise IdentityCheckError(
            f"circulation cross-check failed: four-term values differ from the reference product log-ratio by {gap!r}"
        )
    return records


def _swap_kls(oracle: ConditionalOracle, context: PartialContext, pairs, records) -> list[tuple[float, float]]:
    """KL(q_ij || q_ji) and KL(q_ji || q_ij) of each pair's record with no visible positions.  The pair
    tables are ``0.0 + t0 + t1`` and ``0.0 + t2 + t3`` in C order, the additions ``pseudo_joint_table``
    makes; the j-first sums run over C-contiguous (j, i)-axis copies: the summation order of tables built
    j first.  Every KL must be finite, and the pair with the largest is checked against its reference
    pair tables, gathered without the lattice and summed without ``kl``: one independent check per scan."""
    flip = lambda t: np.ascontiguousarray(t.T)  # noqa: E731
    kls = []
    for t0, t1, t2, t3 in (record.terms for record in records):
        ij, ji = np.ascontiguousarray(0.0 + t0 + t1), np.ascontiguousarray(0.0 + t2 + t3)
        kls.append((float(kl(ij, ji)), float(kl(flip(ji), flip(ij)))))
    if not kls:
        return kls
    if not np.isfinite(kls).all():
        raise IdentityCheckError(f"order-swap KL cross-check failed: non-finite KLs {kls!r}")
    k = int(np.argmax(np.max(kls, axis=1)))
    pair = PartialContext(context.observed, pairs[k], context.time)
    ij, ji = (pseudo_joint_table(oracle, pair, order) for order in (pairs[k], pairs[k][::-1]))
    reference = float((np.exp(ij) * (ij - ji)).sum()), float((np.exp(ji) * (ji - ij)).sum())
    if max(abs(a - b) for a, b in zip(kls[k], reference)) > _CROSSCHECK_TOL:
        raise IdentityCheckError(f"order-swap KL cross-check failed: {kls[k]!r} vs reference pair tables' {reference!r}")
    return kls


def _swap_kl_draws(record: _PairRecord, plan: MonteCarloPlan) -> Estimate:
    """Monte Carlo KL(q_ij || q_ji): the mean circulation of a record with no visible positions
    over (a, b) drawn from q_ij, a then b from one uniform pair each."""
    t0, t1 = record.terms[0][:, 0], record.terms[1]
    vocab = len(t0)
    u = seeded_rng(plan.seed).random((plan.n, 2))
    # a count of cdf entries <= u is a right-sided search
    a = np.searchsorted(np.cumsum(np.exp(t0)), u[:, 0], side="right").clip(0, vocab - 1)
    b = (np.cumsum(np.exp(t1), axis=1)[a] <= u[:, 1:]).sum(axis=1).clip(0, vocab - 1)
    return _mean_estimate(record.value[0][a, b], plan)


def _square_groups(context: PartialContext) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every reachable square group (visible subset, i, j) of the block, by subset size, subset
    and pair.  A subset's squares run over its values, then its pairs, then (a, b)."""
    block = sorted(context.block)
    for size in range(len(block) - 1):
        for visible in itertools.combinations(block, size):
            for i, j in itertools.combinations([p for p in block if p not in visible], 2):
                yield visible, i, j


def _block_pairs(context: PartialContext) -> list[tuple[int, int]]:
    return list(itertools.combinations(sorted(context.block), 2))


def plan_squares(oracle: ConditionalOracle, context: PartialContext, plan, epsilon: float = DEFAULT_NORMALIZER_EPSILON):
    """The plan's squares in plan order as (pair index into ``_block_pairs``, a, b) int arrays,
    with their circulation and normalised circulation read from each block pair's record,
    and those records.  Exhaustive squares run pair by pair, then row-major in (a, b); a
    Monte Carlo sample draws its pair, then a, then b, one ``integers`` call each."""
    vocab, pairs = oracle.vocab.size, _block_pairs(context)
    if not isinstance(plan, (ExhaustivePlan, MonteCarloPlan)):
        raise ContractViolationError(f"unknown sampling plan {plan!r}")
    if not pairs:
        raise ContractViolationError("exhaustive and sampling plans need a block with at least two positions")
    if isinstance(plan, ExhaustivePlan):
        k, a, b = (axis.reshape(-1) for axis in np.indices((len(pairs), vocab, vocab)))
    else:
        rng = seeded_rng(plan.seed)
        k, a, b = np.array([(rng.integers(len(pairs)), rng.integers(vocab), rng.integers(vocab)) for _ in range(plan.n)]).T
    records = _subset_records(StepLattice(oracle, context), (), pairs)
    value = np.concatenate([r.value for r in records])
    normalized = np.stack([np.abs(r.value[0]) / (sum(map(np.abs, r.terms)) + epsilon) for r in records])
    return k, a, b, value[k, a, b], normalized[k, a, b], records


def ecirc_abs(oracle: ConditionalOracle, context: PartialContext, plan=ExhaustivePlan()) -> Estimate:
    """Mean absolute circulation under the plan (the scalar incompatibility summary)."""
    return _mean_estimate(np.abs(plan_squares(oracle, context, plan)[3]), plan)


def order_swap_kl(oracle: ConditionalOracle, context: PartialContext, i: int, j: int, mode="exact") -> Estimate:
    """KL between the two order-induced pair products, resolving i first vs j first.

    Both modes read one pair record and cross-check the exact KL of each direction against
    the pair's reference tables; Monte Carlo mode then averages circulation over samples
    drawn from the i-first product.
    """
    if i == j or i not in context.block or j not in context.block:
        raise ContractViolationError(f"positions {i}, {j} must be distinct block members")
    if mode != "exact" and not isinstance(mode, MonteCarloPlan):
        raise ContractViolationError(f"mode must be 'exact' or a MonteCarloPlan, got {mode!r}")
    (record,) = _subset_records(StepLattice(oracle, context), (), [(i, j)])
    swap_kl = _swap_kls(oracle, context, [(i, j)], [record])[0][0]
    return Estimate(value=swap_kl, mode="exact") if mode == "exact" else _swap_kl_draws(record, mode)


def order_gap_entries(oracle: ConditionalOracle, context: PartialContext, plan: MonteCarloPlan | None) -> list[dict]:
    """Per block pair (i < j), KL(q_ij || q_ji), KL(q_ji || q_ij) and, given a plan, the
    Monte Carlo estimate of the first, all read from the pair's one record."""
    entries, pairs = [], _block_pairs(context)
    records = _subset_records(StepLattice(oracle, context), (), pairs)
    for (i, j), record, (kl_ij, kl_ji) in zip(pairs, records, _swap_kls(oracle, context, pairs, records)):
        entry = {"i": i, "j": j, "kl_ij": kl_ij, "kl_ji": kl_ji}
        if plan is not None:
            est = _swap_kl_draws(record, plan)
            entry |= {"mc_value": est.value, "mc_stderr": est.stderr, "mc_n": est.n}
        entries.append(entry)
    return entries


@dataclass(frozen=True)
class SwapPath:
    """An adjacent-transposition walk between two permutations of a block.

    ``steps`` are 1-based slot indices: step k swaps the k-th and (k+1)-th
    entries of the current ordering, so each k lies in [1, len(block) - 1].
    """

    start: tuple[int, ...]
    end: tuple[int, ...]
    steps: tuple[int, ...]

    def __post_init__(self):
        start = tuple(int(p) for p in self.start)
        end = tuple(int(p) for p in self.end)
        steps = tuple(int(k) for k in self.steps)
        if sorted(start) != sorted(end):
            raise ContractViolationError("start and end must be permutations of the same block")
        for k in steps:
            if not (1 <= k <= len(start) - 1):
                raise ContractViolationError(f"swap index {k} outside [1, {len(start) - 1}]")
        if apply_swap_steps(start, steps) != end:
            raise ContractViolationError("applying the steps to start does not yield end")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "steps", steps)


def apply_swap_steps(start: Sequence[int], steps: Sequence[int]) -> tuple[int, ...]:
    order = list(start)
    for k in steps:
        order[k - 1], order[k] = order[k], order[k - 1]
    return tuple(order)


def bubble_path(start: Sequence[int], end: Sequence[int]) -> SwapPath:
    """Canonical path: bring each target entry into place by leftward swaps."""
    start = tuple(start)
    end = tuple(end)
    current = list(start)
    steps: list[int] = []
    for target_slot, wanted in enumerate(end):
        slot = current.index(wanted)
        while slot > target_slot:
            steps.append(slot)  # 1-based swap of (slot, slot + 1) == 0-based (slot-1, slot)
            current[slot - 1], current[slot] = current[slot], current[slot - 1]
            slot -= 1
    return SwapPath(start=start, end=end, steps=tuple(steps))


def random_walk_path(start: Sequence[int], length: int, seed: int) -> SwapPath:
    """Seeded random adjacent-swap walk of the given length from start."""
    start = tuple(start)
    if len(start) < 2:
        raise ContractViolationError("paths need a block of at least two positions")
    rng = seeded_rng(seed)
    steps = tuple(int(rng.integers(1, len(start))) for _ in range(length))
    return SwapPath(start=start, end=apply_swap_steps(start, steps), steps=steps)


@dataclass(frozen=True)
class SwapTerm:
    i: int
    j: int
    a: int
    b: int
    prefix: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class SwapDecomposition:
    terms: tuple[SwapTerm, ...]
    log_gap: float
    residual: float


def swap_decomposition(
    oracle: ConditionalOracle,
    context: PartialContext,
    path: SwapPath,
    assignment: Mapping[int, int],
) -> SwapDecomposition:
    """Expand log Q(start order) - log Q(end order) at one assignment into the
    circulation terms collected along the path's adjacent swaps.

    Each swap contributes the circulation of the swapped pair evaluated at
    the context extended by the assignment values of the slots before it: the
    ``curl_local`` of the pair with those values observed.  The residual against
    the independently computed endpoint gap is returned and should sit at
    floating-point noise.
    """
    vocab = oracle.vocab.size
    if sorted(path.start) != sorted(context.block):
        raise ContractViolationError("path permutations must cover the context block")
    if set(assignment) != set(context.block):
        raise ContractViolationError("assignment must cover exactly the block")
    for tok in assignment.values():
        if not (0 <= tok < vocab):
            raise ContractViolationError(f"token {tok} outside vocabulary of size {vocab}")

    terms: list[SwapTerm] = []
    current = list(path.start)
    for k in path.steps:
        i_r, j_r = current[k - 1], current[k]
        prefix = tuple(current[: k - 1])
        pair = PartialContext({**context.observed, **{p: assignment[p] for p in prefix}}, (i_r, j_r), context.time)
        value = curl_local(oracle, pair, i_r, j_r, assignment[i_r], assignment[j_r]).value
        terms.append(SwapTerm(i=i_r, j=j_r, a=assignment[i_r], b=assignment[j_r], prefix=prefix, value=value))
        current[k - 1], current[k] = current[k], current[k - 1]

    lp_start = pseudo_joint_log_prob(oracle, PseudoJointSpec(context, path.start), assignment)
    lp_end = pseudo_joint_log_prob(oracle, PseudoJointSpec(context, path.end), assignment)
    log_gap = lp_start - lp_end
    residual = log_gap - _sum_in_order(t.value for t in terms)
    return SwapDecomposition(terms=tuple(terms), log_gap=log_gap, residual=residual)


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict of the two independent brute-force order-consistency checks."""

    consistent: bool
    max_order_gap: float
    max_curl: float
    witness: CurlSample | None
    tol: float
    permutations_checked: int
    squares_checked: int
    order_gap_consistent: bool
    curl_consistent: bool

    def to_dict(self) -> dict:
        return {**vars(self), "witness": None if self.witness is None else self.witness.to_dict()}


def order_consistency_check(
    oracle: ConditionalOracle,
    context: PartialContext,
    tol: float = DEFAULT_CONSISTENCY_TOL,
) -> ConsistencyReport:
    """Brute-force order consistency on a block, two independent ways, both read from one
    ``StepLattice`` of the block.

    (a) take the largest gap, over every assignment, between the largest and
    smallest sequential product of all permutations; (b) enumerate every
    reachable square (visible subset of the block, position pair, token pair)
    and take the largest absolute circulation.  The block is consistent iff
    both maxima fall below tol; each verdict is reported on its own, and the
    first violating square in enumeration order is reported as the witness.
    """
    block, vocab = context.block, oracle.vocab.size
    n = len(block)
    if n < 2:
        raise ContractViolationError("consistency check needs a block with at least two positions")
    lattice = StepLattice(oracle, context)

    # largest and smallest log product over the orders of each resolved set (block
    # axes, length 1 where unresolved), each order extended by its last position;
    # rounding is monotone, so these equal the extremes over all n! order tables to the bit
    high, low = {(): np.zeros(())}, {(): np.zeros(())}
    for size in range(1, n + 1):
        for resolved in itertools.combinations(block, size):
            for pos in resolved:
                rest = tuple(p for p in resolved if p != pos)
                step = lattice[pos, rest]
                high[resolved] = np.maximum(high.get(resolved, -np.inf), high[rest] + step)
                low[resolved] = np.minimum(low.get(resolved, np.inf), low[rest] + step)
    max_order_gap = float((high[block] - low[block]).max())
    del high, low  # at m=6, V=8 the 8.5 MB they hold would add to the lattice's 23 MB at the scan's peak

    # per visible subset, the [values, pair, a, b] circulation of its squares in enumeration order
    max_curl = 0.0
    witness: CurlSample | None = None
    squares = 0
    for visible, groups in itertools.groupby(_square_groups(context), key=lambda group: group[0]):
        pairs = [(i, j) for _, i, j in groups]
        records = _subset_records(lattice, visible, pairs)
        magnitude = np.abs(np.stack([r.value for r in records], axis=1))
        squares += magnitude.size
        subset_max = float(magnitude.max())
        max_curl = max(max_curl, subset_max)
        if witness is None and subset_max >= tol:
            first = int(np.argmax(magnitude >= tol))
            *values, k, a, b = np.unravel_index(first, (vocab,) * len(visible) + magnitude.shape[1:])
            observed = {**context.observed, **{p: int(t) for p, t in zip(visible, values)}}
            square_context = PartialContext(observed, tuple(p for p in block if p not in observed), context.time)
            witness = curl_local(oracle, square_context, *pairs[k], int(a), int(b))

    gap_ok, curl_ok = max_order_gap < tol, max_curl < tol
    return ConsistencyReport(
        consistent=gap_ok and curl_ok,
        max_order_gap=max_order_gap,
        max_curl=max_curl,
        witness=witness,
        tol=tol,
        permutations_checked=math.factorial(n),
        squares_checked=squares,
        order_gap_consistent=gap_ok,
        curl_consistent=curl_ok,
    )


def curl_scan_report(
    oracle: ConditionalOracle,
    context: PartialContext,
    plan=ExhaustivePlan(),
    epsilon: float = DEFAULT_NORMALIZER_EPSILON,
    *,
    model_id: str,
) -> dict:
    """One context's scan summary: mean |circulation|, normalized mean, the
    maximum sample as witness (none when every |circulation| is below the
    1e-12 tie grid), and the exact order-swap KL per block pair, labelled
    with the caller's ``model_id``."""
    pairs = _block_pairs(context)
    k, a, b, value, normalized, records = plan_squares(oracle, context, plan, epsilon)
    samples = [
        {"i": pairs[p][0], "j": pairs[p][1], "a": x, "b": y, "value": v, "normalized_value": nv}
        for p, x, y, v, nv in zip(k.tolist(), a.tolist(), b.tolist(), value.tolist(), normalized.tolist())
    ]
    values = np.abs(value)
    i, j, x, y, v, nv = samples[int(values.argmax())].values()
    witness = {"i": i, "j": j, "a": x, "b": y, "context": context.to_dict(), "value": v, "normalized_value": nv}
    pair_kl = {f"{i}-{j}": kls[0] for (i, j), kls in zip(pairs, _swap_kls(oracle, context, pairs, records))}
    return {
        "model_id": model_id,
        "context": context.to_dict(),
        "plan": {ExhaustivePlan: "exhaustive", MonteCarloPlan: "monte-carlo"}[type(plan)],
        "stats": {
            "ecirc_abs": float(values.mean()),
            "ecirc_abs_stderr": _mean_estimate(values, plan).stderr,
            "ecirc_norm": float(normalized.mean()),
            "max_curl": float(values.max()),
            "order_swap_kl": pair_kl,
        },
        "witnesses": [witness] if values.max() >= TIE_GRID else [],
        "seed": plan.seed if isinstance(plan, MonteCarloPlan) else None,
        "n": len(samples),
        "samples": samples,
    }
