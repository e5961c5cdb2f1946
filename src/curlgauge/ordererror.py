"""Order-specific evaluation error: which resolution orders an oracle prefers.

For a resolution order over the block, the exact cumulative cross-entropy of
the oracle's sequential product under the reference joint splits into the
block's conditional entropy plus a KL, and that KL further splits into one
expected conditional KL per resolution step.  Both identities are computed
from independent enumerations and asserted here.  Expectations are exact
(no held-out sampling): the reference joint supplies the true distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConditionalOracle, PartialContext, TabularJointModel, _sum_in_order, entropy, kl, tie_key
from .errors import ContractViolationError, IdentityCheckError
from .pseudojoint import PseudoJointSpec, StepLattice, step_table

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
    call of `rank_orders`, which asserts both identities."""
    return rank_orders(oracle, joint, context, [order])[0]


def local_estimation_error(
    oracle: ConditionalOracle, joint: TabularJointModel, context: PartialContext, position: int
) -> float:
    """Exact KL of the reference conditional at one position against the oracle's."""
    if position in context.observed:
        raise ContractViolationError(f"position {position} is already observed")
    return float(kl(joint.log_dist(position, context.observed), oracle.log_dist(position, context.observed)))


def _table_scores(flat_p, flat_log_p, log_q, scratch) -> tuple[float, float]:
    """An order table's cross-entropy and KL against the block conditional p, each summed
    over every cell in C order, the order of ``core.kl``'s sum.  The joint floors every log
    mass at -50, so p > 0 in every cell and ``kl``'s p > 0 mask changes nothing; the
    products go to ``scratch``, so no order allocates a full-size temporary."""
    flat_q = log_q.reshape(-1)
    cross_entropy = -float(np.multiply(flat_p, flat_q, out=scratch).sum())
    return cross_entropy, float(np.multiply(flat_p, np.subtract(flat_log_p, flat_q, out=scratch), out=scratch).sum())


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

    Every step (position, conditioning set) the candidates use is read from one
    ``StepLattice`` of the context, and its expected conditional KL and the oracle's
    expected entropy are taken once.  An order's table is the lattice's ``order_table``,
    so it keeps the bits of ``pseudo_joint_table``.  Per order, asserts cross_entropy =
    conditional_entropy + kl_total and kl_total = the left-to-right sum of its step KLs,
    both to 1e-10.
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
    flat_p, flat_log_p, scratch = p.reshape(-1), log_p.reshape(-1), np.empty(p.size)

    expected = {}
    for pos, given in dict.fromkeys((pos, frozenset(order[:m])) for order in orders for m, pos in enumerate(order)):
        # one row per value of given, weighted by its mass under p; both sums run over C-contiguous
        # rows, tokens last, the gathered rows' layout (a strided token axis may add in another order)
        log_p_step, log_q_step = (
            np.ascontiguousarray(np.swapaxes(t[..., None], block.index(pos), -1))
            for t in (step_table(joint, context.observed, block, pos, given), lattice[pos, given])
        )
        weight = p.sum(axis=tuple(k for k, q in enumerate(block) if q not in given), keepdims=True)
        step_kl, step_entropy = weight * kl(log_p_step, log_q_step, axis=-1), weight * entropy(log_q_step, axis=-1)
        expected[pos, given] = float(step_kl.sum()), float(step_entropy.sum())

    profiles = []
    for order in orders:
        cross_entropy, kl_total = _table_scores(flat_p, flat_log_p, lattice.order_table(order), scratch)
        records = tuple(
            StepRecord(pos, order[:m], *expected[pos, frozenset(order[:m])], _is_prefix_like(pos, order[:m], block))
            for m, pos in enumerate(order)
        )
        per_step = tuple(s.kl for s in records)
        if abs(cross_entropy - conditional_entropy - kl_total) > _IDENTITY_TOL:
            raise IdentityCheckError(
                f"cross-entropy identity failed: H {conditional_entropy!r} + KL {kl_total!r} "
                f"vs CE {cross_entropy!r}"
            )
        step_sum = _sum_in_order(per_step)
        if abs(kl_total - step_sum) > _IDENTITY_TOL:
            raise IdentityCheckError(f"per-step KL decomposition failed: total {kl_total!r} vs sum {step_sum!r}")
        profiles.append(
            OrderErrorProfile(order, cross_entropy, conditional_entropy, kl_total, per_step, records, stratify_steps(records))
        )
    return sorted(profiles, key=lambda prof: (tie_key(prof.kl_total), prof.order))


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
