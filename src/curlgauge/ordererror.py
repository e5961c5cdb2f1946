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

from .core import ConditionalOracle, PartialContext, TabularJointModel, entropy, kl, tie_key
from .errors import ContractViolationError, IdentityCheckError, SizeCapError
from .pseudojoint import pseudo_joint_table

_IDENTITY_TOL = 1e-10
MAX_CANDIDATE_ORDERS = 120

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
        return {
            "order": list(self.order),
            "cross_entropy": self.cross_entropy,
            "conditional_entropy": self.conditional_entropy,
            "kl_total": self.kl_total,
            "per_step_kl": list(self.per_step_kl),
            "context_strata": self.context_strata,
        }


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
    """Exact order-specific error profile under the reference joint.

    Asserts cross_entropy = conditional_entropy + kl_total and
    kl_total = sum of per-step expected conditional KLs, both to 1e-10.
    """
    order = tuple(int(p) for p in order)
    block = context.block
    if sorted(order) != sorted(block):
        raise ContractViolationError(f"order {order} is not a permutation of the block {block}")

    log_p = joint.log_block_conditional(context)
    p = np.exp(log_p)
    log_q = pseudo_joint_table(oracle, context, order)
    cross_entropy = float(-(p * log_q)[p > 0].sum())
    conditional_entropy = float(entropy(log_p))
    kl_total = float(kl(log_p, log_q))

    per_step: list[float] = []
    steps: list[StepRecord] = []
    for m, pos in enumerate(order):
        prefix = order[:m]
        # one row per value of the prefix, weighted by its mass under the
        # true block conditional; the other block axes have length 1
        free = [pp if pp in prefix else None for pp in block]
        weight = p.sum(axis=tuple(k for k, pp in enumerate(free) if pp is None), keepdims=True)
        grid = joint.class_grid(pos, context.observed, free)
        log_p_step = joint.log_rows(pos, grid)
        log_q_step = oracle.log_rows(pos, grid)
        step_kl = float((weight * kl(log_p_step, log_q_step, axis=-1)).sum())
        step_entropy = float((weight * entropy(log_q_step, axis=-1)).sum())
        per_step.append(step_kl)
        steps.append(
            StepRecord(
                position=pos,
                conditioning=prefix,
                kl=step_kl,
                entropy=step_entropy,
                prefix_like=_is_prefix_like(pos, prefix, block),
            )
        )

    if abs(cross_entropy - conditional_entropy - kl_total) > _IDENTITY_TOL:
        raise IdentityCheckError(
            f"cross-entropy identity failed: H {conditional_entropy!r} + KL {kl_total!r} "
            f"vs CE {cross_entropy!r}"
        )
    if abs(kl_total - sum(per_step)) > _IDENTITY_TOL:
        raise IdentityCheckError(
            f"per-step KL decomposition failed: total {kl_total!r} vs sum {sum(per_step)!r}"
        )

    profile = OrderErrorProfile(
        order=order,
        cross_entropy=cross_entropy,
        conditional_entropy=conditional_entropy,
        kl_total=kl_total,
        per_step_kl=tuple(per_step),
        steps=tuple(steps),
        context_strata={},
    )
    strata = stratify_steps(profile.steps)
    object.__setattr__(profile, "context_strata", strata)
    return profile


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
    """Profiles of the candidate orders, ascending by kl_total, ties broken
    lexicographically by the order tuple.  Ties are decided on a 1e-12 grid
    so floating-point noise cannot shuffle mathematically equal orders."""
    if orders is None:
        if len(context.block) > 5:
            raise SizeCapError("all-permutation ranking caps the block at 5 positions")
        orders = list(itertools.permutations(context.block))
    else:
        orders = [tuple(o) for o in orders]
    if not orders:
        raise ContractViolationError("candidate order set must be non-empty")
    if len(orders) > MAX_CANDIDATE_ORDERS:
        raise SizeCapError(f"at most {MAX_CANDIDATE_ORDERS} candidate orders, got {len(orders)}")
    profiles = [order_cross_entropy(oracle, joint, context, order) for order in orders]
    return sorted(profiles, key=lambda prof: (tie_key(prof.kl_total), prof.order))


def stratify_steps(steps: Sequence[StepRecord]) -> dict:
    """Mean per-step KL by stratum over a collection of step records.

    prefix-like and random-mask partition the steps; high-entropy overlays
    them with the steps whose oracle conditional entropy exceeds the median
    on the 1e-12 tie grid.  Empty strata are reported with a count of zero
    and no mean.
    """
    steps = list(steps)
    entropies = np.array([s.entropy for s in steps]) if steps else np.array([])
    median = float(np.median(entropies)) if steps else 0.0
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
