"""Order-specific evaluation error: which resolution orders an oracle prefers.

For a resolution order over the block, the exact cumulative cross-entropy of
the oracle's sequential product under the reference joint, and its KL from the
joint, are each a sum of one expected term per resolution step: an edge
(position, conditioning set) of the block's subset lattice, shared by every
order that takes it.  Their difference is the block's conditional entropy by
the chain rule, asserted per order against the full block table; the edge sums
of the head and last-ranked orders are asserted against their sequential
products gathered apart.  Expectations are exact (no held-out sampling): the
reference joint supplies the true distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import ConditionalOracle, PartialContext, TabularJointModel, _sum_in_order, entropy, kl, tie_key
from .errors import ContractViolationError, IdentityCheckError
from .pseudojoint import PseudoJointSpec, StepLattice, pseudo_joint_table, step_table

_IDENTITY_TOL = 1e-10

STRATUM_PREFIX = "prefix-like"
STRATUM_RANDOM = "random-mask"
STRATUM_HIGH_ENTROPY = "high-entropy"


@dataclass(frozen=True)
class StepRecord:
    """One resolution step: the position resolved, the block positions already
    conditioned on, its expected conditional KL, and the oracle's expected
    conditional entropy at that step."""

    position: int
    conditioning: tuple[int, ...]
    kl: float
    entropy: float
    prefix_like: bool


@dataclass(frozen=True)
class OrderErrorProfile:
    order: tuple[int, ...]
    cross_entropy: float
    conditional_entropy: float
    kl_total: float
    per_step_kl: tuple[float, ...]
    steps: tuple[StepRecord, ...]
    context_strata: dict

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "steps"}


def _is_prefix_like(position: int, conditioning: Sequence[int], block: Sequence[int]) -> bool:
    """A step is prefix-like when it conditions on exactly the block positions
    below the resolved one, in the block's coordinate order."""
    return set(conditioning) == {p for p in block if p < position}


def order_cross_entropy(
    oracle: ConditionalOracle,
    joint: TabularJointModel,
    context: PartialContext,
    order: Sequence[int],
) -> OrderErrorProfile:
    """Exact order-specific error profile under the reference joint: the one-order
    call of `rank_orders`, whose one order gets both the chain-rule and the table check."""
    return rank_orders(oracle, joint, context, [order])[0]


def local_estimation_error(
    oracle: ConditionalOracle, joint: TabularJointModel, context: PartialContext, position: int
) -> float:
    """Exact KL of the reference conditional at one position against the oracle's."""
    if position in context.observed:
        raise ContractViolationError(f"position {position} is already observed")
    return float(kl(joint.log_dist(position, context.observed), oracle.log_dist(position, context.observed)))


def rank_orders(
    oracle: ConditionalOracle,
    joint: TabularJointModel,
    context: PartialContext,
    orders: Sequence[Sequence[int]] | None = None,
) -> list[OrderErrorProfile]:
    """Profiles of the distinct candidate orders (default: every permutation of the
    block), ascending by kl_total, ties broken lexicographically by the order tuple.
    Ties are decided on a 1e-12 grid so floating-point noise cannot shuffle
    mathematically equal orders.

    Every edge (position, conditioning set) the candidates use is read from one
    ``StepLattice`` of the context and a transient gather of the joint's step, and
    its expected conditional KL, the oracle's expected entropy and the expected
    cross-entropy E_p[-log q] are taken once, each row weighted by the mass of its
    conditioning values, read once per set from the joint's marginal array.  An order's
    kl_total and cross_entropy are the left-to-right sums of its edge values; no order
    builds its table.  Per order, asserts the chain rule cross_entropy - kl_total =
    conditional_entropy (of the full block table); per scan, asserts the head and
    last-ranked orders' sums against ``pseudo_joint_table``, gathered without the
    lattice.  Both to 1e-10.
    """
    block = context.block
    orders = [PseudoJointSpec(context, o).order for o in (itertools.permutations(block) if orders is None else orders)]
    if not orders:
        raise ContractViolationError("candidate order set must be non-empty")
    if len(set(orders)) < len(orders):
        raise ContractViolationError(f"candidate orders must be distinct, got {len(orders) - len(set(orders))} repeats")
    log_p = joint.log_block_conditional(context)
    lattice = StepLattice(oracle, context)
    p = np.exp(log_p)
    conditional_entropy = float(entropy(log_p))

    edges = dict.fromkeys((pos, frozenset(order[:m])) for order in orders for m, pos in enumerate(order))
    weights = {frozenset(): 1.0}
    for pos, given in edges:
        if given not in weights:
            # p(x_given | observed) on the block's axes, length 1 off given: the joint's sub-block read
            # (> 0: the joint floors log masses at -50)
            sub_block = replace(context, block=tuple(q for q in block if q in given))
            shape = [joint.vocab.size if q in given else 1 for q in block]
            weights[given] = np.exp(joint.log_block_conditional(sub_block)).reshape(shape)
        # one row per value of given, weighted by its mass; the sums run over C-contiguous rows, tokens
        # last, the gathered rows' layout (a strided token axis may add in another order)
        log_p_step, log_q_step = (
            np.ascontiguousarray(np.swapaxes(t[..., None], block.index(pos), -1))
            for t in (step_table(joint, context.observed, block, pos, given), lattice[pos, given])
        )
        rows = kl(log_p_step, log_q_step, -1), entropy(log_q_step, -1), -(np.exp(log_p_step) * log_q_step).sum(-1)
        edges[pos, given] = tuple(float((weights[given] * t).sum()) for t in rows)  # KL, oracle entropy, cross-entropy
    del lattice  # each step is read once: free them all before the reference tables are built

    profiles = []
    for order in orders:
        path = [(pos, order[:m], *edges[pos, frozenset(order[:m])]) for m, pos in enumerate(order)]
        records = tuple(StepRecord(*step[:4], _is_prefix_like(*step[:2], block)) for step in path)
        per_step = tuple(s.kl for s in records)
        kl_total, cross_entropy = _sum_in_order(per_step), _sum_in_order(step[-1] for step in path)
        if abs(cross_entropy - conditional_entropy - kl_total) > _IDENTITY_TOL:
            raise IdentityCheckError(
                f"cross-entropy identity failed: H {conditional_entropy!r} + KL {kl_total!r} "
                f"vs CE {cross_entropy!r}"
            )
        profiles.append(
            OrderErrorProfile(order, cross_entropy, conditional_entropy, kl_total, per_step, records, stratify_steps(records))
        )
    profiles.sort(key=lambda prof: (tie_key(prof.kl_total), prof.order))
    for prof in {prof.order: prof for prof in (profiles[0], profiles[-1])}.values():
        reference = pseudo_joint_table(oracle, context, prof.order)
        gap = max(abs(prof.kl_total - kl(log_p, reference)), abs(prof.cross_entropy + (p * reference).sum()))
        if gap > _IDENTITY_TOL:
            raise IdentityCheckError(
                f"order table check failed: order {prof.order}'s edge sums differ from its table's by {float(gap)!r}"
            )
    return profiles


def _median(values: Sequence[float]) -> float:
    """``np.median``'s value for finite values, without the ``numpy.ma`` import it makes."""
    values, half = sorted(values), len(values) // 2
    return float(values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2)


def stratify_steps(steps: Sequence[StepRecord]) -> dict:
    """Mean per-step KL by stratum over a collection of step records.

    prefix-like and random-mask partition the steps; high-entropy overlays
    them with the steps whose oracle conditional entropy exceeds the median
    on the 1e-12 tie grid.  Empty strata are reported with a count of zero
    and no mean.
    """
    steps = list(steps)
    median = _median([s.entropy for s in steps]) if steps else 0.0
    groups = {
        STRATUM_PREFIX: [s.kl for s in steps if s.prefix_like],
        STRATUM_RANDOM: [s.kl for s in steps if not s.prefix_like],
        STRATUM_HIGH_ENTROPY: [s.kl for s in steps if tie_key(s.entropy) > tie_key(median)],
    }
    out = {}
    for name, values in groups.items():
        out[name] = {
            "count": len(values),
            "mean_kl": float(np.mean(values)) if values else None,
        }
    out["total_steps"] = len(steps)
    return out


def stratify_contexts(profiles: Sequence[OrderErrorProfile]) -> dict:
    """Aggregate strata over all steps of several order profiles."""
    all_steps = [s for prof in profiles for s in prof.steps]
    return stratify_steps(all_steps)
