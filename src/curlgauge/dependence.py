"""Conditional dependence measures for a block given a fixed visible context.

Quantifies how far the block's exact conditional joint is from the product
of its per-position conditionals: the total correlation (computed both as a
KL and as an entropy difference, cross-checked), the one-shot
independent-parallel KL gap of an oracle against the reference joint, and
pairwise conditional mutual informations as the tractable per-pair proxy.
All quantities are exact enumerations in nats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConditionalOracle, PartialContext, TabularJointModel, entropy, kl
from .errors import IdentityCheckError

_FORM_AGREEMENT_TOL = 1e-10


def _axis_marginal(probs: np.ndarray, axis: int) -> np.ndarray:
    others = tuple(k for k in range(probs.ndim) if k != axis)
    return probs.sum(axis=others) if others else probs


def _sum_marginal_entropies(probs: np.ndarray) -> float:
    return float(sum(entropy(np.log(_axis_marginal(probs, k))) for k in range(probs.ndim)))


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


def total_correlation(joint: TabularJointModel, context: PartialContext) -> float:
    """Total correlation of the block given the observed assignment.

    Computed as KL(joint conditional over the block vs product of per-position
    conditionals) and independently as the entropy difference
    sum_i H(X_i | x_S) - H(X_block | x_S); the two must agree to 1e-10.
    """
    log_probs = joint.log_block_conditional(context)
    probs = np.exp(log_probs)
    kl_form = kl_vs_marginal_product(probs)
    entropy_form = _sum_marginal_entropies(probs) - float(entropy(log_probs))
    if abs(kl_form - entropy_form) > _FORM_AGREEMENT_TOL:
        raise IdentityCheckError(
            f"total-correlation forms disagree: KL {kl_form!r} vs entropy {entropy_form!r}"
        )
    return kl_form


def independent_parallel_gap(
    oracle: ConditionalOracle, joint: TabularJointModel, context: PartialContext
) -> float:
    """KL of the reference block conditional against the oracle's one-shot
    independent product of per-position conditionals at the same context."""
    log_probs = joint.log_block_conditional(context)
    log_product = np.zeros_like(log_probs)
    for axis, pos in enumerate(context.block):
        vec = oracle.log_conditional_dist(pos, context)
        shape = [1] * log_probs.ndim
        shape[axis] = oracle.vocab.size
        log_product = log_product + vec.reshape(shape)
    gap = float(kl(log_probs, log_product))
    if not np.isfinite(gap):
        raise RuntimeError("independent-parallel gap is non-finite; oracle assigns zero mass on the block")
    return gap


def pairwise_cmi(joint: TabularJointModel, context: PartialContext) -> dict[tuple[int, int], float]:
    """Mutual information of every unordered block pair given the observed set."""
    probs = np.exp(joint.log_block_conditional(context))
    block = context.block
    out: dict[tuple[int, int], float] = {}
    for ai in range(len(block)):
        for aj in range(ai + 1, len(block)):
            keep = (ai, aj)
            drop = tuple(k for k in range(probs.ndim) if k not in keep)
            pair = probs.sum(axis=drop) if drop else probs
            i, j = block[ai], block[aj]
            key = (i, j) if i < j else (j, i)
            out[key] = kl_vs_marginal_product(pair if i < j else pair.T)
    return out


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
        # left to right: from Python 3.12 the builtin sum of floats is compensated
        *_, total = itertools.accumulate(self.pairwise_cmi.values(), initial=0.0)
        return float(total)

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
    log_probs = joint.log_block_conditional(context)
    probs = np.exp(log_probs)
    return DependenceReport(
        tc=total_correlation(joint, context),
        sum_marginal_entropies=_sum_marginal_entropies(probs),
        joint_entropy=float(entropy(log_probs)),
        independent_parallel_kl=independent_parallel_gap(oracle, joint, context),
        pairwise_cmi=pairwise_cmi(joint, context),
    )
