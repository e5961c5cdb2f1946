import itertools
import math

import numpy as np
import pytest

from conftest import random_context, random_joint, random_oracle
from curlgauge.core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    apply_logit_shift,
    seeded_rng,
)
from curlgauge.errors import ContractViolationError, SizeCapError
from curlgauge.ordererror import (
    StepRecord,
    local_estimation_error,
    order_cross_entropy,
    rank_orders,
    stratify_contexts,
    stratify_steps,
)
from curlgauge.synth import SyntheticTaskSpec, TrainConfig, generate_joint, train_tabular

N_DIRECTION_TRIALS = 50


@pytest.fixture(scope="module")
def prefix_trained_cases():
    """Oracles trained only on prefix contexts of seeded random chain joints."""
    cases = []
    for seed in range(N_DIRECTION_TRIALS):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=2, seed=9000 + seed, beta=1.0))
        oracle = train_tabular(
            joint,
            TrainConfig(coverage="prefix-only", steps=400, learning_rate=1.5, seed=seed),
        )
        cases.append((joint, oracle))
    return cases


class TestOrderCrossEntropy:
    def test_exact_oracle_has_zero_kl(self):
        joint = random_joint(1, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        profile = order_cross_entropy(joint, joint, ctx, (2, 0, 1))
        assert profile.kl_total == pytest.approx(0.0, abs=1e-10)
        assert profile.cross_entropy == pytest.approx(profile.conditional_entropy, abs=1e-10)

    def test_identities_hold_for_any_oracle(self):
        for seed in range(15):
            joint = random_joint(400 + seed, positions=3, vocab=3)
            oracle = random_oracle(seed, joint, delta=0.6 if seed % 2 else None)
            ctx = random_context(seed, joint)
            order = tuple(seeded_rng(seed, 55).permutation(ctx.block).tolist())
            profile = order_cross_entropy(oracle, joint, ctx, order)
            assert profile.cross_entropy - profile.conditional_entropy - profile.kl_total == pytest.approx(
                0.0, abs=1e-10
            )
            assert sum(profile.per_step_kl) == pytest.approx(profile.kl_total, abs=1e-10)
            assert all(k >= -1e-12 for k in profile.per_step_kl)

    def test_order_must_permute_block(self):
        joint = random_joint(2)
        with pytest.raises(ContractViolationError):
            order_cross_entropy(joint, joint, PartialContext({}, (0, 1)), (0, 2))

    def test_nonblock_positions_are_marginalized(self):
        joint = random_joint(3, positions=4, vocab=3)
        ctx = PartialContext(observed={0: 1}, block=(1, 3))  # position 2 stays free
        profile = order_cross_entropy(joint, joint, ctx, (3, 1))
        assert profile.kl_total == pytest.approx(0.0, abs=1e-10)

    def test_cross_entropy_matches_hand_enumeration_with_free_position(self):
        joint = random_joint(3, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 9)
        ctx = PartialContext(observed={0: 1}, block=(1, 3))
        profile = order_cross_entropy(oracle, joint, ctx, (3, 1))
        table = np.exp(joint.log_mass_nd)
        p = table[1].sum(axis=1)
        p = p / p.sum()
        manual = 0.0
        for a in range(3):
            for b in range(3):
                lq = oracle.log_dist(3, {0: 1})[b] + oracle.log_dist(1, {0: 1, 3: b})[a]
                manual += p[a, b] * -lq
        assert profile.cross_entropy == pytest.approx(manual, abs=1e-12)


class TestLocalEstimationError:
    def test_exact_oracle_is_zero(self):
        joint = random_joint(4, positions=3, vocab=3)
        ctx = PartialContext(observed={0: 2}, block=(1, 2))
        assert local_estimation_error(joint, joint, ctx, 1) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_oracle_against_point_mass(self):
        vocab = 4
        table = np.full((vocab, vocab), 1e-12)
        table[2, 3] = 1.0
        joint = TabularJointModel.from_probabilities(table / table.sum())
        uniform = LogitTableOracle(LogitTable.zeros(vocab, 2))
        ctx = PartialContext({}, (0, 1))
        assert local_estimation_error(uniform, joint, ctx, 0) == pytest.approx(math.log(vocab), abs=1e-6)

    def test_matches_per_step_kl_on_order_prefixes(self):
        joint = random_joint(5, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 6)
        ctx = PartialContext({}, (0, 1, 2))
        order = (1, 0, 2)
        profile = order_cross_entropy(oracle, joint, ctx, order)
        # first step conditions on nothing, so the step KL is one local error
        direct = local_estimation_error(oracle, joint, ctx, order[0])
        assert profile.per_step_kl[0] == pytest.approx(direct, abs=1e-12)
        # later steps average local errors over prefix values under the joint
        step2 = 0.0
        p_first = np.exp(joint.log_dist(order[0], {}))
        for v in range(3):
            sub = ctx.assign(order[0], v)
            step2 += p_first[v] * local_estimation_error(oracle, joint, sub, order[1])
        assert profile.per_step_kl[1] == pytest.approx(step2, abs=1e-10)

    def test_observed_position_rejected(self):
        joint = random_joint(6)
        with pytest.raises(ContractViolationError):
            local_estimation_error(joint, joint, PartialContext({0: 1}, (1, 2)), 0)


class TestRankOrders:
    def test_exact_oracle_ties_lexicographic(self):
        joint = random_joint(7, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        ranked = rank_orders(joint, joint, ctx)
        assert [p.order for p in ranked] == sorted(itertools.permutations((0, 1, 2)))
        assert all(abs(p.kl_total) < 1e-10 for p in ranked)

    def test_explicit_candidate_list(self):
        joint = random_joint(8, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 7)
        ctx = PartialContext({}, (0, 1, 2))
        ranked = rank_orders(oracle, joint, ctx, orders=[(0, 1, 2), (2, 1, 0)])
        assert len(ranked) == 2
        assert ranked[0].kl_total <= ranked[1].kl_total

    def test_empty_candidates_rejected(self):
        joint = random_joint(9)
        with pytest.raises(ContractViolationError):
            rank_orders(joint, joint, PartialContext({}, (0, 1, 2)), orders=[])

    def test_candidate_cap(self):
        joint = random_joint(10)
        ctx = PartialContext({}, (0, 1, 2))
        too_many = [(0, 1, 2)] * 121
        with pytest.raises(SizeCapError):
            rank_orders(joint, joint, ctx, orders=too_many)

    def test_ranking_invariant_under_logit_shift(self):
        table = LogitTable.random(3, 3, seed=31, scale=1.0)
        joint = random_joint(11, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        shifts = 2.5 * seeded_rng(32).standard_normal((3, table.n_classes))
        before = rank_orders(LogitTableOracle(table), joint, ctx)
        after = rank_orders(LogitTableOracle(apply_logit_shift(table, shifts)), joint, ctx)
        assert [p.order for p in before] == [p.order for p in after]
        for x, y in zip(before, after):
            assert abs(x.kl_total - y.kl_total) < 1e-10


class TestPrefixTrainingDirection:
    def test_left_to_right_beats_right_to_left(self, prefix_trained_cases):
        wins = 0
        for joint, oracle in prefix_trained_cases:
            ctx = PartialContext({}, (0, 1, 2))
            ltr = order_cross_entropy(oracle, joint, ctx, (0, 1, 2)).kl_total
            rtl = order_cross_entropy(oracle, joint, ctx, (2, 1, 0)).kl_total
            wins += ltr < rtl
        assert wins >= 0.8 * len(prefix_trained_cases)

    def test_identity_order_ranked_first(self, prefix_trained_cases):
        wins = 0
        for joint, oracle in prefix_trained_cases:
            ranked = rank_orders(oracle, joint, PartialContext({}, (0, 1, 2)))
            wins += ranked[0].order == (0, 1, 2)
        assert wins >= 0.8 * len(prefix_trained_cases)

    def test_prefix_stratum_easier_than_random_mask(self, prefix_trained_cases):
        wins = 0
        for joint, oracle in prefix_trained_cases:
            ctx = PartialContext({}, (0, 1, 2))
            profiles = rank_orders(oracle, joint, ctx)
            strata = stratify_contexts(profiles)
            wins += strata["prefix-like"]["mean_kl"] < strata["random-mask"]["mean_kl"]
        assert wins >= 0.8 * len(prefix_trained_cases)


def test_zero_kl_iff_oracle_matches_reachable_contexts():
    # constructed instance: cells copied from the joint on the identity
    # order's prefix contexts, random elsewhere
    from curlgauge.core import Vocabulary, context_class_index

    joint = random_joint(40, positions=3, vocab=3)
    logits = seeded_rng(41).standard_normal((3, 16, 3))
    for i in range(3):
        prefix = tuple(range(i))
        for values in itertools.product(range(3), repeat=i):
            assigned = dict(zip(prefix, values))
            logits[i, context_class_index(i, assigned, 3, 3)] = joint.log_dist(i, assigned)
    oracle = LogitTableOracle(LogitTable(Vocabulary(3), 3, logits))
    ctx = PartialContext({}, (0, 1, 2))
    matched = order_cross_entropy(oracle, joint, ctx, (0, 1, 2))
    unmatched = order_cross_entropy(oracle, joint, ctx, (2, 1, 0))
    assert matched.kl_total == pytest.approx(0.0, abs=1e-10)
    assert unmatched.kl_total > 1e-2


class TestStrata:
    def test_exact_oracle_all_strata_zero(self):
        joint = random_joint(12, positions=3, vocab=3)
        profiles = rank_orders(joint, joint, PartialContext({}, (0, 1, 2)))
        strata = stratify_contexts(profiles)
        for name in ("prefix-like", "random-mask", "high-entropy"):
            if strata[name]["count"]:
                assert strata[name]["mean_kl"] == pytest.approx(0.0, abs=1e-10)

    def test_partition_counts_sum_to_total(self):
        joint = random_joint(13, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 5)
        profiles = rank_orders(oracle, joint, PartialContext({}, (0, 1, 2)))
        strata = stratify_contexts(profiles)
        assert strata["prefix-like"]["count"] + strata["random-mask"]["count"] == strata["total_steps"]

    def test_empty_stratum_reported_absent(self):
        joint = random_joint(14, positions=3, vocab=3)
        # the reversed order alone has no prefix-like step beyond none at all
        profile = order_cross_entropy(joint, joint, PartialContext({}, (0, 1, 2)), (2, 1, 0))
        strata = profile.context_strata
        assert strata["prefix-like"]["count"] == 0
        assert strata["prefix-like"]["mean_kl"] is None

    def test_high_entropy_decided_on_tie_grid(self):
        # entropies 2e-15 apart are equal: only the clearly larger one is above the median
        entropies = [1.0 - 2e-15, 1.0, 1.0 + 2e-15, 1.0, 2.0]
        steps = [StepRecord(p, (), 0.1, h, False) for p, h in enumerate(entropies)]
        assert stratify_steps(steps)["high-entropy"]["count"] == 1
