import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_context, random_joint
from curlgauge.core import PartialContext, PerturbedConditionalModel, TabularJointModel
from curlgauge.dependence import (
    DependenceReport,
    dependence_report,
    independent_parallel_gap,
    pairwise_cmi,
    total_correlation,
)


def product_joint(seed: int, positions: int = 3, vocab: int = 3) -> TabularJointModel:
    rng = np.random.default_rng(seed)
    table = np.ones(())
    for _ in range(positions):
        p = rng.dirichlet(np.ones(vocab) * 4)
        table = np.multiply.outer(table, p)
    return TabularJointModel.from_probabilities(table)


@pytest.fixture
def correlated_bits() -> TabularJointModel:
    return TabularJointModel.from_probabilities(np.array([[0.5, 0.0], [0.0, 0.5]]))


class TestTotalCorrelation:
    def test_independent_product_is_zero(self):
        joint = product_joint(1)
        ctx = PartialContext({}, (0, 1, 2))
        assert total_correlation(joint, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_fair_bits(self, correlated_bits):
        ctx = PartialContext({}, (0, 1))
        assert total_correlation(correlated_bits, ctx) == pytest.approx(math.log(2), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_kl_and_entropy_forms_agree(self, seed):
        # total_correlation raises internally if the two forms disagree; check
        # the entropy identity explicitly through the report fields too
        joint = random_joint(seed, positions=3, vocab=3)
        ctx = random_context(seed, joint)
        report = dependence_report(joint, joint, ctx)
        assert report.tc == pytest.approx(
            report.sum_marginal_entropies - report.joint_entropy, abs=1e-10
        )

    def test_nonnegative(self):
        for seed in range(10):
            joint = random_joint(100 + seed, positions=3, vocab=4)
            assert total_correlation(joint, PartialContext({}, (0, 1, 2))) >= -1e-12

    def test_zero_iff_factorized(self):
        assert total_correlation(product_joint(2), PartialContext({}, (0, 1, 2))) < 1e-12
        coupled = random_joint(3, positions=3, vocab=3, scale=2.0)
        assert total_correlation(coupled, PartialContext({}, (0, 1, 2))) > 1e-3


class TestIndependentParallelGap:
    def test_exact_oracle_gap_equals_tc(self):
        for seed in range(10):
            joint = random_joint(200 + seed, positions=3, vocab=3)
            ctx = random_context(seed, joint)
            gap = independent_parallel_gap(joint, joint, ctx)
            assert gap == pytest.approx(total_correlation(joint, ctx), abs=1e-10)

    def test_independent_joint_with_exact_oracle_is_zero(self):
        joint = product_joint(4)
        ctx = PartialContext({}, (0, 1, 2))
        assert independent_parallel_gap(joint, joint, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_oracle_reported_side_by_side(self):
        # no inequality against TC is asserted; both columns must exist and be finite
        joint = random_joint(5, positions=3, vocab=3, scale=1.5)
        oracle = PerturbedConditionalModel(joint, 0.5, 3)
        ctx = PartialContext({}, (0, 1, 2))
        report = dependence_report(oracle, joint, ctx)
        assert math.isfinite(report.independent_parallel_kl)
        assert report.independent_parallel_kl >= 0.0
        assert math.isfinite(report.tc)


class TestPairwiseCMI:
    def test_independent_joint_all_zero(self):
        joint = product_joint(6)
        ctx = PartialContext({}, (0, 1, 2))
        for value in pairwise_cmi(joint, ctx).values():
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_correlated_pair_is_ln_two(self, correlated_bits):
        ctx = PartialContext({}, (0, 1))
        assert pairwise_cmi(correlated_bits, ctx)[(0, 1)] == pytest.approx(math.log(2), abs=1e-12)

    def test_two_position_block_cmi_equals_tc_exactly(self):
        joint = random_joint(7, positions=3, vocab=3)
        ctx = PartialContext(observed={0: 1}, block=(1, 2))
        assert pairwise_cmi(joint, ctx)[(1, 2)] == total_correlation(joint, ctx)

    def test_nonnegative(self):
        joint = random_joint(8, positions=4, vocab=3)
        ctx = PartialContext({}, (0, 1, 2, 3))
        for value in pairwise_cmi(joint, ctx).values():
            assert value >= -1e-12


def test_free_positions_marginalized_by_hand():
    # observed {0}, block (1, 3); position 2 must be summed out everywhere
    from scipy.special import rel_entr

    joint = random_joint(30, positions=4, vocab=3)
    ctx = PartialContext(observed={0: 1}, block=(1, 3))
    table = np.exp(joint.log_mass_nd)
    p = table[1].sum(axis=1)
    p = p / p.sum()
    tc_manual = float(rel_entr(p, np.outer(p.sum(axis=1), p.sum(axis=0))).sum())
    assert total_correlation(joint, ctx) == pytest.approx(tc_manual, abs=1e-12)

    oracle = PerturbedConditionalModel(joint, 0.5, 9)
    q1 = np.exp(oracle.log_dist(1, {0: 1}))
    q3 = np.exp(oracle.log_dist(3, {0: 1}))
    gap_manual = float(rel_entr(p, np.outer(q1, q3)).sum())
    assert independent_parallel_gap(oracle, joint, ctx) == pytest.approx(gap_manual, abs=1e-12)


def test_report_serialization():
    joint = random_joint(9, positions=3, vocab=3)
    report = dependence_report(joint, joint, PartialContext({}, (0, 1, 2)))
    data = report.to_dict()
    assert set(data) == {
        "tc",
        "sum_marginal_entropies",
        "joint_entropy",
        "independent_parallel_kl",
        "pairwise_cmi",
        "sum_pairwise_cmi",
        "tc_minus_sum_cmi",
    }
    assert set(data["pairwise_cmi"]) == {"0-1", "0-2", "1-2"}


def test_sum_pairwise_cmi_adds_left_to_right():
    # a compensated sum (the builtin sum of floats from Python 3.12) would give 1.0
    report = DependenceReport(0.0, 0.0, 0.0, 0.0, {(0, 1): 1e16, (0, 2): 1.0, (1, 2): -1e16})
    assert report.sum_pairwise_cmi == 0.0
    assert report.to_dict()["tc_minus_sum_cmi"] == 0.0
