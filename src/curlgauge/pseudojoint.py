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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import TIE_GRID, ConditionalOracle, PartialContext, kl, seeded_rng
from .errors import ContractViolationError, IdentityCheckError, SizeCapError

DEFAULT_NORMALIZER_EPSILON = 1e-6
DEFAULT_CONSISTENCY_TOL = 1e-8

# Circulation grids are checked against the independently computed pair-order products, and
# the order-swap KL against the circulation's expectation; disagreement beyond this means a bug.
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
        return {
            "i": self.i,
            "j": self.j,
            "a": self.a,
            "b": self.b,
            "context": self.context.to_dict(),
            "value": self.value,
            "normalized_value": self.normalized_value,
        }


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
class ExplicitPlan:
    """A caller-chosen list of (i, j, a, b) tuples."""

    tuples: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class Estimate:
    """A scalar statistic; stderr and n are set for Monte Carlo estimates."""

    value: float
    stderr: float | None = None
    n: int | None = None
    mode: str = "exact"

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "n": self.n, "mode": self.mode}


def pseudo_joint_log_prob(oracle: ConditionalOracle, spec: PseudoJointSpec, assignment: Mapping[int, int]) -> float:
    """log of the sequential product of conditionals along the spec's order."""
    if set(assignment) != set(spec.context.block):
        raise ContractViolationError(
            f"assignment keys {sorted(assignment)} must cover exactly the block {spec.context.block}"
        )
    assigned = dict(spec.context.observed)
    oracle._validate_query(spec.order[0], spec.context)
    total = 0.0
    for pos in spec.order:
        tok = int(assignment[pos])
        if not (0 <= tok < oracle.vocab.size):
            raise ContractViolationError(f"token {tok} outside vocabulary of size {oracle.vocab.size}")
        total += float(oracle.log_dist(pos, assigned)[tok])
        assigned[pos] = tok
    return total


def pseudo_joint_table(oracle: ConditionalOracle, context: PartialContext, order: Sequence[int], visible=()) -> np.ndarray:
    """Log sequential product for every block assignment.

    Axes follow the block tuple's order (not the resolution order), so tables
    for different orders of the same block are directly comparable.  Each
    ``visible`` position (neither observed nor in the block) adds a leading
    axis that every conditional sees at each of its tokens.
    """
    spec = PseudoJointSpec(context, tuple(order))
    axes = tuple(visible) + context.block
    oracle._validate_query(spec.order[0], context)
    table = np.zeros((oracle.vocab.size,) * len(axes))
    for m, pos in enumerate(spec.order):
        given = set(visible) | set(spec.order[:m])
        grid = oracle.class_grid(pos, context.observed, [p if p in given else None for p in axes])
        # the token axis of the rows replaces the length-1 grid axis of pos
        table += np.swapaxes(oracle.log_rows(pos, grid), axes.index(pos), -1)[..., 0]
    return table


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
    oracle._validate_query(i, context)

    assigned = context.observed
    t0 = float(oracle.log_dist(i, assigned)[a])
    t1 = float(oracle.log_dist(j, {**assigned, i: a})[b])
    t2 = float(oracle.log_dist(j, assigned)[b])
    t3 = float(oracle.log_dist(i, {**assigned, j: b})[a])
    forward = t0 + t1
    backward = t2 + t3
    value = forward - backward

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


def _pair_terms(oracle: ConditionalOracle, observed: Mapping[int, int], visible: Sequence[int], i: int, j: int):
    """The four log-conditional terms of every square on positions (i, j) with a
    leading axis over the row-major values v of the ``visible`` positions, S_v being
    ``observed`` plus those values: ``t0[v, a, 0] = log q_i(a|S_v)``,
    ``t1[v, a, b] = log q_j(b|S_v, i=a)``, ``t2[v, 0, b] = log q_j(b|S_v)`` and
    ``t3[v, a, b] = log q_i(a|S_v, j=b)``.  Costs four gathers."""
    vocab, free = oracle.vocab.size, list(visible)
    t0 = oracle.log_rows(i, oracle.class_grid(i, observed, free)).reshape(-1, vocab, 1)
    t1 = oracle.log_rows(j, oracle.class_grid(j, observed, free + [i])).reshape(-1, vocab, vocab)
    t2 = oracle.log_rows(j, oracle.class_grid(j, observed, free)).reshape(-1, 1, vocab)
    t3 = oracle.log_rows(i, oracle.class_grid(i, observed, free + [j])).reshape(-1, vocab, vocab)
    # copied into C order: tables built from t3 stay C-contiguous, which fixes
    # the summation order of reductions over them
    return t0, t1, t2, np.ascontiguousarray(t3.swapaxes(1, 2))


def _pair_circulation(oracle: ConditionalOracle, observed: Mapping[int, int], visible, i: int, j: int, epsilon: float):
    """Four-term circulation of the group (visible, i, j) as a ``[values, a, b]`` array, with its
    terms and normalised array; checked once per group against the two pair-order tables."""
    pair_context = PartialContext(observed=observed, block=(i, j))
    ij, ji = (pseudo_joint_table(oracle, pair_context, order, visible) for order in ((i, j), (j, i)))
    terms = _pair_terms(oracle, observed, visible, i, j)
    t0, t1, t2, t3 = terms
    value = (t0 + t1) - (t2 + t3)
    residual = float(np.abs(value - (ij - ji).reshape(value.shape)).max())
    if residual > _CROSSCHECK_TOL:
        raise IdentityCheckError(
            f"circulation cross-check failed: four-term values differ from the product log-ratio by {residual!r}"
        )
    normalized = np.abs(value) / (np.abs(t0) + np.abs(t1) + np.abs(t2) + np.abs(t3) + epsilon)
    return terms, value, normalized


def _square_groups(context: PartialContext) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every reachable square group (visible subset, i, j) of the block, by subset size, subset
    and pair.  A subset's squares run over its values, then its pairs, then (a, b)."""
    block = sorted(context.block)
    for size in range(len(block) - 1):
        for visible in itertools.combinations(block, size):
            for i, j in itertools.combinations([p for p in block if p not in visible], 2):
                yield visible, i, j


def _subset_scans(oracle: ConditionalOracle, context: PartialContext, epsilon: float):
    """Per visible subset, its pairs and the ``[values, pair, a, b]`` arrays of circulation and
    normalised circulation; flattened and joined, they list the squares in enumeration order."""
    for visible, groups in itertools.groupby(_square_groups(context), key=lambda group: group[0]):
        pairs = [(i, j) for _, i, j in groups]
        grids = [_pair_circulation(oracle, context.observed, visible, i, j, epsilon)[1:] for i, j in pairs]
        yield visible, pairs, np.stack([g[0] for g in grids], axis=1), np.stack([g[1] for g in grids], axis=1)


def curl_normalized(sample: CurlSample, epsilon: float = DEFAULT_NORMALIZER_EPSILON) -> float:
    """|value| over the summed magnitudes of the four log terms, plus epsilon."""
    if not (epsilon > 0):
        raise ContractViolationError(f"epsilon must be positive, got {epsilon}")
    denom = sum(abs(t) for t in sample.terms) + epsilon
    return abs(sample.value) / denom


def _block_pairs(context: PartialContext) -> list[tuple[int, int]]:
    return list(itertools.combinations(sorted(context.block), 2))


def iter_plan_samples(
    oracle: ConditionalOracle,
    context: PartialContext,
    plan,
    epsilon: float = DEFAULT_NORMALIZER_EPSILON,
) -> Iterator[CurlSample]:
    """Evaluate circulation at every tuple the plan selects, in plan order, read
    from the circulation grid of each position pair of the context."""
    vocab, pairs = oracle.vocab.size, _block_pairs(context)
    if isinstance(plan, ExplicitPlan):
        squares = list(plan.tuples)
    elif not isinstance(plan, (ExhaustivePlan, MonteCarloPlan)):
        raise ContractViolationError(f"unknown sampling plan {plan!r}")
    elif not pairs:
        raise ContractViolationError("exhaustive and sampling plans need a block with at least two positions")
    elif isinstance(plan, ExhaustivePlan):
        squares = [(i, j, a, b) for i, j in pairs for a, b in itertools.product(range(vocab), repeat=2)]
    else:
        rng = seeded_rng(plan.seed)
        draws = ((pairs[rng.integers(len(pairs))], rng.integers(vocab), rng.integers(vocab)) for _ in range(plan.n))
        squares = [(i, j, int(a), int(b)) for (i, j), a, b in draws]
    if not squares:
        raise ContractViolationError("explicit plan must list at least one tuple")
    grids: dict = {}
    for i, j, a, b in squares:
        if not (i != j and {i, j} <= set(context.block) and 0 <= a < vocab and 0 <= b < vocab):
            raise ContractViolationError(f"square {(i, j, a, b)} needs distinct block positions and tokens below {vocab}")
        if (i, j) not in grids:
            terms, value, normalized = _pair_circulation(oracle, context.observed, (), i, j, epsilon)
            grids[i, j] = np.broadcast_arrays(*terms), value, normalized
        terms, value, normalized = grids[i, j]
        yield CurlSample(
            i=i, j=j, a=a, b=b, context=context, value=float(value[0, a, b]),
            terms=tuple(float(t[0, a, b]) for t in terms), normalized_value=float(normalized[0, a, b]),
        )


def ecirc_abs(oracle: ConditionalOracle, context: PartialContext, plan=ExhaustivePlan()) -> Estimate:
    """Mean absolute circulation under the plan (the scalar incompatibility summary)."""
    values = np.array([abs(s.value) for s in iter_plan_samples(oracle, context, plan)])
    if isinstance(plan, MonteCarloPlan):
        stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        return Estimate(value=float(values.mean()), stderr=stderr, n=len(values), mode="monte-carlo")
    mode = "explicit" if isinstance(plan, ExplicitPlan) else "exact"
    return Estimate(value=float(values.mean()), n=len(values), mode=mode)


def order_swap_kl(
    oracle: ConditionalOracle,
    context: PartialContext,
    i: int,
    j: int,
    mode="exact",
) -> Estimate:
    """KL between the two order-induced pair products, resolving i first vs j first.

    Both modes cross-check the exact KL over all token pairs against the expectation
    of the four-term circulation under the i-first product; Monte Carlo mode then
    averages circulation over samples drawn from that product.
    """
    if i == j or i not in context.block or j not in context.block:
        raise ContractViolationError(f"positions {i}, {j} must be distinct block members")
    if mode != "exact" and not isinstance(mode, MonteCarloPlan):
        raise ContractViolationError(f"mode must be 'exact' or a MonteCarloPlan, got {mode!r}")
    vocab = oracle.vocab.size
    pair_context = PartialContext(observed=context.observed, block=(i, j), time=context.time)
    log_q_ij = pseudo_joint_table(oracle, pair_context, (i, j))
    log_q_ji = pseudo_joint_table(oracle, pair_context, (j, i))
    t0, t1, t2, t3 = (t[0] for t in _pair_terms(oracle, context.observed, (), i, j))
    curl = (t0 + t1) - (t2 + t3)
    weight = np.exp(log_q_ij)
    swap_kl = float(kl(log_q_ij, log_q_ji))
    curl_expectation = float((weight * curl).sum())
    if abs(swap_kl - curl_expectation) > _CROSSCHECK_TOL:
        raise IdentityCheckError(
            f"order-swap KL cross-check failed: {swap_kl!r} vs circulation expectation {curl_expectation!r}"
        )
    if mode == "exact":
        return Estimate(value=swap_kl, mode="exact")

    # a then b from one uniform pair each; a count of cdf entries <= u is a right-sided search
    u = seeded_rng(mode.seed).random((mode.n, 2))
    a = np.searchsorted(np.cumsum(np.exp(t0[:, 0])), u[:, 0], side="right").clip(0, vocab - 1)
    b = (np.cumsum(np.exp(t1), axis=1)[a] <= u[:, 1:]).sum(axis=1).clip(0, vocab - 1)
    values = curl[a, b]
    stderr = float(values.std(ddof=1) / math.sqrt(mode.n)) if mode.n > 1 else 0.0
    return Estimate(value=float(values.mean()), stderr=stderr, n=mode.n, mode="monte-carlo")


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
    the context extended by the assignment values of the slots before it.
    The residual against the independently computed endpoint gap is returned
    and should sit at floating-point noise.
    """
    if sorted(path.start) != sorted(context.block):
        raise ContractViolationError("path permutations must cover the context block")
    if set(assignment) != set(context.block):
        raise ContractViolationError("assignment must cover exactly the block")

    terms: list[SwapTerm] = []
    current = list(path.start)
    for k in path.steps:
        i_r, j_r = current[k - 1], current[k]
        prefix = tuple(current[: k - 1])
        ctx = context
        for p in prefix:
            ctx = ctx.assign(p, assignment[p])
        sample = curl_local(oracle, ctx, i_r, j_r, assignment[i_r], assignment[j_r])
        terms.append(
            SwapTerm(i=i_r, j=j_r, a=assignment[i_r], b=assignment[j_r], prefix=prefix, value=sample.value)
        )
        current[k - 1], current[k] = current[k], current[k - 1]

    lp_start = pseudo_joint_log_prob(oracle, PseudoJointSpec(context, path.start), assignment)
    lp_end = pseudo_joint_log_prob(oracle, PseudoJointSpec(context, path.end), assignment)
    log_gap = lp_start - lp_end
    residual = log_gap - sum(t.value for t in terms)
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
        return {
            "consistent": self.consistent,
            "max_order_gap": self.max_order_gap,
            "max_curl": self.max_curl,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "tol": self.tol,
            "permutations_checked": self.permutations_checked,
            "squares_checked": self.squares_checked,
            "order_gap_consistent": self.order_gap_consistent,
            "curl_consistent": self.curl_consistent,
        }


def order_consistency_check(
    oracle: ConditionalOracle,
    context: PartialContext,
    tol: float = DEFAULT_CONSISTENCY_TOL,
) -> ConsistencyReport:
    """Brute-force order consistency on a block, two independent ways.

    (a) take the largest gap, over every assignment, between the largest and
    smallest sequential product of all permutations; (b) enumerate every
    reachable square (visible subset of the block, position pair, token pair)
    and take the largest absolute circulation.  The block is consistent iff
    both maxima fall below tol; the two verdicts must agree, and the first
    violating square in enumeration order is reported as the witness.
    """
    block = context.block
    n = len(block)
    vocab = oracle.vocab.size
    if n < 2:
        raise ContractViolationError("consistency check needs a block with at least two positions")
    if n > 5:
        raise SizeCapError(f"consistency check caps the block at 5 positions, got {n}")
    if vocab**n > 32768:
        raise SizeCapError(f"consistency check caps assignments at 32768, got {vocab}**{n}")

    # largest and smallest log product over the orders of each resolved set (axes
    # in block order), each order extended by its last position; rounding is
    # monotone, so these equal the extremes over all n! order tables to the bit
    high, low = {(): np.zeros(())}, {(): np.zeros(())}
    for size in range(1, n + 1):
        for resolved in itertools.combinations(block, size):
            for pos in resolved:
                rest = tuple(p for p in resolved if p != pos)
                # log q(pos | rest), with the axes of rest and then pos
                step = pseudo_joint_table(oracle, PartialContext(context.observed, (pos,)), (pos,), rest)
                axis = resolved.index(pos)
                high[resolved] = np.maximum(high.get(resolved, -np.inf), np.moveaxis(high[rest][..., None] + step, -1, axis))
                low[resolved] = np.minimum(low.get(resolved, np.inf), np.moveaxis(low[rest][..., None] + step, -1, axis))
    max_order_gap = float((high[block] - low[block]).max())

    max_curl = 0.0
    witness: CurlSample | None = None
    squares = 0
    for visible, pairs, value, _ in _subset_scans(oracle, context, DEFAULT_NORMALIZER_EPSILON):
        magnitude = np.abs(value)
        squares += magnitude.size
        subset_max = float(magnitude.max())
        max_curl = max(max_curl, subset_max)
        if witness is None and subset_max >= tol:
            first = int(np.argmax(magnitude >= tol))
            *values, k, a, b = np.unravel_index(first, (vocab,) * len(visible) + magnitude.shape[1:])
            observed = {**context.observed, **{p: int(t) for p, t in zip(visible, values)}}
            square_context = PartialContext(observed, tuple(p for p in block if p not in observed), context.time)
            witness = curl_local(oracle, square_context, *pairs[k], int(a), int(b))

    gap_ok = max_order_gap < tol
    curl_ok = max_curl < tol
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
    model_id: str | None = None,
) -> dict:
    """One context's scan summary: mean |circulation|, normalized mean, the
    maximum sample as witness (none when every |circulation| is below the
    1e-12 tie grid), and the exact order-swap KL per block pair."""
    samples = list(iter_plan_samples(oracle, context, plan, epsilon))
    values = np.array([abs(s.value) for s in samples])
    normalized = np.array([s.normalized_value for s in samples])
    worst = samples[int(values.argmax())]
    seed = plan.seed if isinstance(plan, MonteCarloPlan) else None
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if isinstance(plan, MonteCarloPlan) and len(values) > 1 else None
    pair_kl = {
        f"{i}-{j}": order_swap_kl(oracle, context, i, j, mode="exact").value
        for i, j in _block_pairs(context)
    }
    plan_label = {ExhaustivePlan: "exhaustive", MonteCarloPlan: "monte-carlo", ExplicitPlan: "explicit"}[type(plan)]
    return {
        "model_id": model_id if model_id is not None else oracle.model_id,
        "context": context.to_dict(),
        "plan": plan_label,
        "stats": {
            "ecirc_abs": float(values.mean()),
            "ecirc_abs_stderr": stderr,
            "ecirc_norm": float(normalized.mean()),
            "max_curl": float(values.max()),
            "order_swap_kl": pair_kl,
        },
        "witnesses": [worst.to_dict()] if values.max() >= TIE_GRID else [],
        "seed": seed,
        "n": len(samples),
        "samples": [
            {"i": s.i, "j": s.j, "a": s.a, "b": s.b, "value": s.value, "normalized_value": s.normalized_value}
            for s in samples
        ],
    }
