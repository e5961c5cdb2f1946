import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from conftest import random_joint
from curlgauge.core import (
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    derived_seed,
)
from curlgauge.decoding import (
    DecodeState,
    SchedulerSpec,
    apply_update,
    argmax_commit,
    commutator,
    conflict_score,
    run_scheduler,
    sample_commit,
    spearman_rank,
    stress_test,
    threshold_commit,
)
from curlgauge.errors import ContractViolationError, DegenerateComparisonError
from curlgauge.synth import SyntheticTaskSpec, generate_joint


def independent_joint(seed: int, positions: int = 3, vocab: int = 3) -> TabularJointModel:
    return generate_joint(SyntheticTaskSpec("chain", positions=positions, vocab_size=vocab, seed=seed, beta=0.0))


@pytest.fixture
def skewed_pair() -> TabularJointModel:
    # marginals (0.7, 0.3) at both positions, independent
    p = np.outer([0.7, 0.3], [0.7, 0.3])
    return TabularJointModel.from_probabilities(p)


class TestApplyUpdate:
    def test_argmax_commits_highest(self, skewed_pair):
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        out = apply_update(skewed_pair, state, argmax_commit(), 0)
        assert out.context.observed == {0: 0}
        assert out.trajectory == ((0, 0, "argmax-commit"),)

    def test_threshold_below_tau_is_noop(self, skewed_pair):
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        out = apply_update(skewed_pair, state, threshold_commit(0.9), 0)
        assert out is state

    def test_threshold_above_tau_commits(self, skewed_pair):
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        out = apply_update(skewed_pair, state, threshold_commit(0.6), 0)
        assert out.context.observed == {0: 0}

    def test_threshold_never_commits_below_tau(self):
        for seed in range(20):
            joint = random_joint(900 + seed, positions=3, vocab=4)
            oracle = PerturbedConditionalModel(joint, 0.6, seed)
            state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=seed)
            tau = 0.55
            out = apply_update(oracle, state, threshold_commit(tau), 1)
            if out is not state:
                prob = math.exp(oracle.log_dist(1, {})[out.context.observed[1]])
                assert prob >= tau

    def test_sample_deterministic_given_seed(self, skewed_pair):
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=123)
        a = apply_update(skewed_pair, state, sample_commit(), 0)
        b = apply_update(skewed_pair, state, sample_commit(), 0)
        assert a.context.observed == b.context.observed

    def test_committed_position_rejected(self, skewed_pair):
        state = DecodeState(context=PartialContext({0: 1}, (1,)), rng_seed=0)
        with pytest.raises(ContractViolationError):
            apply_update(skewed_pair, state, argmax_commit(), 0)

    def test_argmax_tie_goes_to_lowest_token(self):
        joint = TabularJointModel.uniform(3, 2)
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        out = apply_update(joint, state, argmax_commit(), 1)
        assert out.context.observed[1] == 0


class TestCommutator:
    def test_independent_joint_commutes(self):
        joint = independent_joint(1, positions=4, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1, 2, 3)), rng_seed=5)
        report = commutator(joint, state, argmax_commit(), 0, 2)
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        joint = random_joint(2, positions=3, vocab=3, scale=1.5)
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=7)
        operator = argmax_commit()
        report = commutator(joint, state, operator, 0, 1)
        # independent reconstruction of both paths
        s_ij = apply_update(joint, apply_update(joint, state, operator, 0), operator, 1)
        s_ji = apply_update(joint, apply_update(joint, state, operator, 1), operator, 0)
        p = np.exp(joint.log_dist(2, s_ij.context.observed))
        q = np.exp(joint.log_dist(2, s_ji.context.observed))
        m = 0.5 * (p + q)

        def kl(x, y):
            mask = x > 0
            return float((x[mask] * (np.log(x[mask]) - np.log(y[mask]))).sum())

        expected = math.sqrt(max(0.0, 0.5 * kl(p, m) + 0.5 * kl(q, m)))
        assert report.value == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_pair(self):
        joint = random_joint(3, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 4)
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=9)
        fwd = commutator(oracle, state, sample_commit(), 0, 1).value
        rev = commutator(oracle, state, sample_commit(), 1, 0).value
        assert abs(fwd - rev) < 1e-15

    def test_value_within_js_bounds(self):
        for seed in range(10):
            joint = random_joint(950 + seed, positions=3, vocab=3)
            oracle = PerturbedConditionalModel(joint, 1.0, seed)
            state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=seed)
            value = commutator(oracle, state, argmax_commit(), 0, 1).value
            assert 0.0 <= value <= math.sqrt(math.log(2)) + 1e-12

    def test_degenerate_comparison_rejected(self):
        joint = random_joint(4, positions=2, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        with pytest.raises(DegenerateComparisonError):
            commutator(joint, state, argmax_commit(), 0, 1)

    def test_unknown_divergence_rejected(self):
        joint = random_joint(5, positions=3, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=0)
        with pytest.raises(ContractViolationError):
            commutator(joint, state, argmax_commit(), 0, 1, divergence="tv")


class TestConflictScore:
    def test_independent_joint_is_zero(self):
        joint = independent_joint(6, positions=4, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1, 2, 3)), rng_seed=1)
        assert conflict_score(joint, state, argmax_commit(), (0, 1, 2, 3)).value == pytest.approx(0.0, abs=1e-10)

    def test_two_position_candidate_equals_single_commutator(self):
        joint = random_joint(7, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 2)
        state = DecodeState(context=PartialContext({}, (0, 1, 2, 3)), rng_seed=3)
        score = conflict_score(oracle, state, argmax_commit(), (1, 2))
        single = commutator(oracle, state, argmax_commit(), 1, 2).value
        assert score.value == single
        assert not score.skipped_pairs

    def test_exhausting_pairs_skipped_with_flag(self):
        joint = random_joint(8, positions=2, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        score = conflict_score(joint, state, argmax_commit(), (0, 1))
        assert score.value == 0.0
        assert score.skipped_pairs == ((0, 1),)

    def test_sum_is_enumeration_order_free(self):
        joint = random_joint(9, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.6, 5)
        state = DecodeState(context=PartialContext({}, (0, 1, 2, 3)), rng_seed=4)
        first = conflict_score(oracle, state, argmax_commit(), (0, 1, 2, 3))
        second = conflict_score(oracle, state, argmax_commit(), (3, 2, 1, 0))
        assert first.value == second.value


class TestRunScheduler:
    def test_left_to_right_width_one_commits_in_index_order(self):
        joint = random_joint(10, positions=4, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1, 2, 3)), rng_seed=11)
        result = run_scheduler(joint, state, SchedulerSpec("left-to-right"), sample_commit(), 1)
        positions = [p for p, _, _ in result.trajectory]
        assert positions == [0, 1, 2, 3]

    def test_deterministic_replay(self):
        joint = random_joint(11, positions=3, vocab=3)
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=21)
        a = run_scheduler(joint, state, SchedulerSpec("random", seed=5), sample_commit(), 2)
        b = run_scheduler(joint, state, SchedulerSpec("random", seed=5), sample_commit(), 2)
        assert a.trajectory == b.trajectory

    def test_confidence_picks_most_confident_first(self):
        p = np.einsum("a,b->ab", [0.55, 0.45], [0.95, 0.05])
        joint = TabularJointModel.from_probabilities(p)
        state = DecodeState(context=PartialContext({}, (0, 1)), rng_seed=0)
        result = run_scheduler(joint, state, SchedulerSpec("confidence"), argmax_commit(), 1)
        assert [p for p, _, _ in result.trajectory] == [1, 0]

    def test_invalid_width_rejected(self):
        joint = random_joint(12)
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=0)
        with pytest.raises(ContractViolationError):
            run_scheduler(joint, state, SchedulerSpec("left-to-right"), argmax_commit(), 0)

    def test_threshold_stall_forces_single_commit(self):
        joint = TabularJointModel.uniform(4, 3)
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=0)
        result = run_scheduler(joint, state, SchedulerSpec("left-to-right"), threshold_commit(0.99), 3)
        assert not result.final_state.context.block
        assert all(r.forced and len(r.commits) == 1 for r in result.rounds)

    @pytest.fixture
    def near_tied_confidences(self, monkeypatch):
        # confidences 1e-15 apart, highest at the last position: equal on the tie grid
        from curlgauge import decoding

        monkeypatch.setattr(decoding, "_confidences", lambda oracle, state, ps: {p: 0.5 + 1e-15 * p for p in ps})

    @pytest.mark.parametrize("kind", ["confidence", "conflict-aware"])
    def test_near_tied_confidences_go_in_index_order(self, near_tied_confidences, kind):
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=0)
        result = run_scheduler(TabularJointModel.uniform(2, 3), state, SchedulerSpec(kind), argmax_commit(), 1)
        assert [p for p, _, _ in result.trajectory] == [0, 1, 2]

    def test_stall_breaker_forces_lowest_of_near_tied(self, near_tied_confidences):
        state = DecodeState(context=PartialContext({}, (0, 1, 2)), rng_seed=0)
        joint = TabularJointModel.uniform(2, 3)
        result = run_scheduler(joint, state, SchedulerSpec("left-to-right"), threshold_commit(0.99), 3)
        assert [r.commits[0][0] for r in result.rounds] == [0, 1, 2]

    def test_conflict_aware_avoids_dependent_pair(self):
        # positions 0,1 perfectly coupled; 2,3 independent coins
        p = np.zeros((2, 2, 2, 2))
        for a in range(2):
            p[a, a, :, :] = 0.5 * 0.25
        joint = TabularJointModel.from_probabilities(p)
        state = DecodeState(context=PartialContext({}, (0, 1, 2, 3)), rng_seed=0)
        sched = SchedulerSpec("conflict-aware", lam_confidence=0.0, lam_conflict=1.0,
                              lam_dependence=1.0, block_search="subsets")
        result = run_scheduler(joint, state, sched, argmax_commit(), 2)
        first_round = result.rounds[0].chosen
        assert set(first_round) != {0, 1}

    def test_sample_width_one_left_to_right_reproduces_joint(self):
        # chain-rule sampler oracle: chi-square over 50k runs on a 2x4 joint
        rng = np.random.default_rng(8)
        joint = TabularJointModel(4, 2, rng.standard_normal(16))
        ctx = PartialContext({}, (0, 1))
        counts = np.zeros((4, 4))
        n_runs = 50_000
        for k in range(n_runs):
            state = DecodeState(context=ctx, rng_seed=derived_seed(777, k))
            result = run_scheduler(joint, state, SchedulerSpec("left-to-right"), sample_commit(), 1)
            obs = result.final_state.context.observed
            counts[obs[0], obs[1]] += 1
        expected = np.exp(joint.log_block_conditional(ctx)) * n_runs
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, 15)

    def test_full_width_on_independent_joint_reproduces_joint(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=2, vocab_size=4, seed=6, beta=0.0))
        ctx = PartialContext({}, (0, 1))
        counts = np.zeros((4, 4))
        n_runs = 50_000
        for k in range(n_runs):
            state = DecodeState(context=ctx, rng_seed=derived_seed(888, k))
            result = run_scheduler(joint, state, SchedulerSpec("left-to-right"), sample_commit(), 2)
            obs = result.final_state.context.observed
            counts[obs[0], obs[1]] += 1
        expected = np.exp(joint.log_block_conditional(ctx)) * n_runs
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, 15)


class TestStress:
    def test_independent_joint_no_degradation(self):
        joint = independent_joint(13, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        report = stress_test(
            joint, joint, [ctx], widths=[1, 3], schedulers=[SchedulerSpec("left-to-right")],
            operator=sample_commit(), runs=500, seed=3,
        )
        for row in report.rows:
            assert abs(row.degradation) < 0.05

    def test_row_grid_is_complete(self):
        joint = random_joint(14, positions=3, vocab=3)
        contexts = [PartialContext({}, (0, 1, 2)), PartialContext({0: 1}, (1, 2))]
        scheds = [SchedulerSpec("left-to-right"), SchedulerSpec("confidence")]
        report = stress_test(joint, joint, contexts, widths=[1, 2], schedulers=scheds, runs=20, seed=1)
        assert len(report.rows) == 2 * 2 * 2
        labels = {(r.context_id, r.scheduler, r.width) for r in report.rows}
        assert len(labels) == 8

    def test_spearman_hand_computed_fixture(self):
        x = [10.0, 20.0, 30.0, 40.0, 50.0]
        y = [1.0, 3.0, 2.0, 5.0, 4.0]
        assert spearman_rank(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_spearman_undefined_cases(self):
        assert spearman_rank([1.0], [2.0]) is None
        assert spearman_rank([1.0, 1.0], [1.0, 2.0]) is None

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), min_size=2, max_size=25),
        scale=st.sampled_from([1.0, 0.1, 1e6]),
    )
    def test_spearman_matches_scipy_with_ties(self, pairs, scale):
        from scipy.stats import spearmanr

        x = np.array([a for a, _ in pairs], dtype=float) * scale
        y = np.array([b for _, b in pairs], dtype=float)
        rho = spearman_rank(x, y)
        if np.all(x == x[0]) or np.all(y == y[0]):
            assert rho is None
        else:
            assert rho == pytest.approx(float(spearmanr(x, y).statistic), abs=1e-12)

    def test_correlations_reported_per_cell(self):
        joint = random_joint(15, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 3)
        contexts = [PartialContext({}, (0, 1, 2)), PartialContext({0: 0}, (1, 2)), PartialContext({0: 1}, (1, 2))]
        report = stress_test(oracle, joint, contexts, widths=[1, 2],
                             schedulers=[SchedulerSpec("left-to-right")], runs=30, seed=2)
        assert set(report.correlations) == {"left-to-right|w=2"}
        cell = report.correlations["left-to-right|w=2"]
        assert set(cell) == {"ecirc_abs", "tc", "mean_eps", "n_contexts"}
        assert cell["n_contexts"] == 3
