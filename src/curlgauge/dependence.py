"""Conditional dependence measures for a block given a fixed visible context.

Quantifies how far the block's exact conditional joint is from the product
of its per-position conditionals: the total correlation, the one-shot
independent-parallel KL gap of an oracle against the reference joint, and
pairwise conditional mutual informations as the tractable per-pair proxy.
All quantities are exact enumerations in nats.

Each context reads one block table, in position order, from the joint and
takes its ``exp`` once.  Every pair marginal comes from a reduction tree that
sums the leading axes first, and the single marginals from the pairs; the
values are then entropy differences of those small tables and one full-table
entropy.  Two full-table KLs check them, each against an outer sum of log
vectors: the total correlation in KL form, and the one-shot identity
KL(p || prod_i q_i) = TC + sum_i KL(p_i || q_i), whose local terms come from
``local_estimation_error``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .core import ConditionalOracle, PartialContext, TabularJointModel, _sum_in_order, kl
from .errors import IdentityCheckError
from .ordererror import local_estimation_error

_FORM_AGREEMENT_TOL = 1e-10


def kl_vs_marginal_product(probs: np.ndarray, batch: int = 0) -> float | np.ndarray:
    """KL of a multi-axis distribution against the product of its own marginals;
    the first ``batch`` axes index separate distributions, one KL each."""
    axes = tuple(range(batch, probs.ndim))
    product = np.ones_like(probs)
    for axis in axes:
        product = product * probs.sum(axis=tuple(k for k in axes if k != axis), keepdims=True)
    with np.errstate(divide="ignore"):
        value = kl(np.log(probs), np.log(product), axis=axes)
    return value if batch else float(value)


def _expect(p: np.ndarray, values: np.ndarray) -> float:
    """Sum of p * values over every cell, in numpy's pairwise order (a dot product's running sums
    lose a few more bits over the 262,144 cells of a table at the caps)."""
    return float((p * values).sum())


def _pair_marginals(p: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """The marginal of every axis pair a < b of ``p``.  A table over the axes ``kept`` is summed
    from the table over ``kept`` plus the largest axis not in it, so going down from ``p`` each pair
    drops the other axes smallest first: ``p`` itself is reduced along its axis 0, 1 or 2 only
    (a leading-axis sum adds contiguous runs, a last-axis sum of 8-cell rows is several times
    slower), and every later sum reads a table at most 1/V the size of ``p``."""
    m = p.ndim
    tables = {tuple(range(m)): p}

    def marginal(kept: tuple[int, ...]) -> np.ndarray:
        if kept not in tables:
            c = max(set(range(m)) - set(kept))
            parent = tuple(sorted(kept + (c,)))
            tables[kept] = marginal(parent).sum(axis=parent.index(c))
        return tables[kept]

    return {pair: marginal(pair) for pair in itertools.combinations(range(m), 2)}


def _outer_sum(vectors) -> np.ndarray:
    """log prod_i q_i(x_i) over the block grid, from one log vector per axis.  Built from the last
    axis outwards, so each outer add runs over whole contiguous tables, not rows of V cells."""
    return functools.reduce(lambda rest, vector: np.add.outer(vector, rest), reversed(vectors))


def total_correlation(joint: TabularJointModel, context: PartialContext) -> float:
    """Total correlation of the block given the observed assignment: the
    ``tc`` of the joint's own `dependence_report` (the joint as its oracle)."""
    return dependence_report(joint, joint, context).tc


def independent_parallel_gap(
    oracle: ConditionalOracle, joint: TabularJointModel, context: PartialContext
) -> float:
    """KL of the reference block conditional against the oracle's one-shot
    independent product of per-position conditionals at the same context."""
    return dependence_report(oracle, joint, context).independent_parallel_kl


def pairwise_cmi(joint: TabularJointModel, context: PartialContext) -> dict[tuple[int, int], float]:
    """Mutual information of every unordered block pair given the observed set."""
    return dependence_report(joint, joint, context).pairwise_cmi


@dataclass(frozen=True)
class DependenceReport:
    """Side-by-side dependence summary for one (oracle, joint, context)."""

    tc: float
    sum_marginal_entropies: float
    joint_entropy: float
    independent_parallel_kl: float
    pairwise_cmi: dict[tuple[int, int], float]

    @property
    def sum_pairwise_cmi(self) -> float:
        return float(_sum_in_order(self.pairwise_cmi.values()))

    def to_dict(self) -> dict:
        return {
            "tc": self.tc,
            "sum_marginal_entropies": self.sum_marginal_entropies,
            "joint_entropy": self.joint_entropy,
            "independent_parallel_kl": self.independent_parallel_kl,
            "pairwise_cmi": {f"{i}-{j}": v for (i, j), v in sorted(self.pairwise_cmi.items())},
            "sum_pairwise_cmi": self.sum_pairwise_cmi,
            # proxy quality is reported, never asserted
            "tc_minus_sum_cmi": self.tc - self.sum_pairwise_cmi,
        }


def dependence_report(
    oracle: ConditionalOracle, joint: TabularJointModel, context: PartialContext
) -> DependenceReport:
    """Every dependence value of one context from one block table of the joint.

    TC = sum_i H_i - H and CMI(a, b) = H_a + H_b - H_ab from the marginals'
    entropies; the gap is TC + sum_i ``local_estimation_error``, the KLs of
    the joint's conditionals against the oracle's.  Two full-table KLs,
    independent of the entropy sums, must agree with them to 1e-10:
    KL(p || prod_i p_i) with TC, and KL(p || prod_i q_i) with the gap (so a
    non-finite gap fails too).  Either failure raises ``IdentityCheckError``.
    """
    positions = tuple(sorted(context.block))
    # the joint's states all have mass (it floors log masses), so p > 0 in every cell
    log_p = joint.log_block_conditional(replace(context, block=positions))
    p = np.exp(log_p)
    joint_entropy = -_expect(p, log_p)

    def entropy_of(table: np.ndarray) -> float:
        # a marginal that is the whole table (one or two positions) takes the joint entropy's bits
        return joint_entropy if table is p else -_expect(table, np.log(table))

    pairs = _pair_marginals(p)
    singles = [p] if p.ndim == 1 else [pairs[0, 1].sum(1)] + [pairs[0, a].sum(0) for a in range(1, p.ndim)]
    h = [entropy_of(t) for t in singles]
    sum_h = _sum_in_order(h)
    tc = sum_h - joint_entropy
    cmi = {(positions[a], positions[b]): h[a] + h[b] - entropy_of(t) for (a, b), t in pairs.items()}

    # the gap's local terms read each conditional again, apart from the log vectors of the full-table KL
    gap = tc + _sum_in_order(local_estimation_error(oracle, joint, context, pos) for pos in positions)

    kl_form = _expect(p, log_p - _outer_sum([np.log(t) for t in singles]))
    if not abs(kl_form - tc) <= _FORM_AGREEMENT_TOL:
        raise IdentityCheckError(f"total-correlation forms disagree: KL {kl_form!r} vs entropy {tc!r}")
    one_shot = _expect(p, log_p - _outer_sum([oracle.log_dist(pos, context.observed) for pos in positions]))
    if not abs(one_shot - gap) <= _FORM_AGREEMENT_TOL:
        raise IdentityCheckError(
            f"one-shot identity failed: KL against the oracle's product {one_shot!r} vs TC + local errors {gap!r}"
        )
    return DependenceReport(
        tc=tc,
        sum_marginal_entropies=sum_h,
        joint_entropy=joint_entropy,
        independent_parallel_kl=gap,
        pairwise_cmi=cmi,
    )
