import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from conftest import random_context, random_joint
from curlgauge import decoding
from curlgauge.core import (
    ConditionalOracle,
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    _seed_key,
    derived_seed,
    seed_states,
    seeded_rng,
    tie_key,
)
from curlgauge.decoding import (
    SchedulerSpec,
    _oracle_pair_dependence,
    apply_update,
    argmax_commit,
    commutator,
    conflict_score,
    context_row,
    draw_row,
    js_divergence,
    run_scheduler,
    sample_commit,
    spearman_rank,
    stress_test,
    threshold_commit,
)
from curlgauge.dependence import kl_vs_marginal_product
from curlgauge.errors import ContractViolationError, DegenerateComparisonError
from curlgauge.reports import canonical_json
from curlgauge.synth import SyntheticTaskSpec, generate_joint


def independent_joint(seed: int, positions: int = 3, vocab: int = 3) -> TabularJointModel:
    return generate_joint(SyntheticTaskSpec("chain", positions=positions, vocab_size=vocab, seed=seed, beta=0.0))


@pytest.fixture
def skewed_pair() -> TabularJointModel:
    # marginals (0.7, 0.3) at both positions, independent
    p = np.outer([0.7, 0.3], [0.7, 0.3])
    return TabularJointModel.from_probabilities(p)


def observed(row):
    """The committed positions of a token row, as a position -> token map."""
    return {p: t for p, t in enumerate(row.tolist()) if t >= 0}


def open_row(positions):
    return np.full(positions, -1)


SCHEDULER_POOL = [
    SchedulerSpec("left-to-right"),
    SchedulerSpec("random"),  # unseeded: each run shuffles its own way
    SchedulerSpec("random", seed=5),
    SchedulerSpec("confidence"),
    SchedulerSpec("conflict-aware"),
    SchedulerSpec("conflict-aware", lam_confidence=0.5, lam_conflict=2.0, lam_dependence=0.0, block_search="subsets"),
]


def assert_each_run_decodes_as_alone(oracle, ctx, seeds, specs, operator, widths):
    """A batch of runs, each with its own scheduler and width, against each run decoded on its own."""
    batch = run_scheduler(oracle, ctx, seeds, specs, operator, np.array(widths))
    for r, seed in enumerate(seeds):
        alone = run_scheduler(oracle, ctx, [seed], specs[r], operator, widths[r])
        assert np.array_equal(batch.tokens[r], alone.tokens[0])
        rounds = len(alone.forced)
        for name in ("chosen", "committed", "forced"):
            mask = getattr(batch, name)[:, r]
            assert np.array_equal(mask[:rounds], getattr(alone, name)[:, 0])
            assert not mask[rounds:].any()


class TestApplyUpdate:
    def test_argmax_commits_highest(self, skewed_pair):
        out = apply_update(skewed_pair, open_row(2), argmax_commit(), 0)
        assert observed(out) == {0: 0}

    def test_threshold_below_tau_is_noop(self, skewed_pair):
        row = open_row(2)
        out = apply_update(skewed_pair, row, threshold_commit(0.9), 0)
        assert out is row

    def test_threshold_above_tau_commits(self, skewed_pair):
        out = apply_update(skewed_pair, open_row(2), threshold_commit(0.6), 0)
        assert observed(out) == {0: 0}

    def test_threshold_never_commits_below_tau(self):
        for seed in range(20):
            joint = random_joint(900 + seed, positions=3, vocab=4)
            oracle = PerturbedConditionalModel(joint, 0.6, seed)
            row = open_row(3)
            tau = 0.55
            out = apply_update(oracle, row, threshold_commit(tau), 1)
            if out is not row:
                prob = math.exp(oracle.log_dist(1, {})[out[1]])
                assert prob >= tau

    def test_sample_deterministic_given_seed(self, skewed_pair):
        draws = draw_row(sample_commit(), 123, 2, (0, 1))
        a = apply_update(skewed_pair, open_row(2), sample_commit(), 0, draws)
        b = apply_update(skewed_pair, open_row(2), sample_commit(), 0, draws)
        assert observed(a) == observed(b)

    def test_sample_needs_draw_row(self, skewed_pair):
        with pytest.raises(ContractViolationError):
            apply_update(skewed_pair, open_row(2), sample_commit(), 0)

    def test_committed_position_rejected(self, skewed_pair):
        row = context_row(PartialContext({0: 1}, (1,)), 2)
        with pytest.raises(ContractViolationError):
            apply_update(skewed_pair, row, argmax_commit(), 0)

    def test_argmax_tie_goes_to_lowest_token(self):
        joint = TabularJointModel.uniform(3, 2)
        out = apply_update(joint, open_row(2), argmax_commit(), 1)
        assert out[1] == 0


class TestCommutator:
    def test_independent_joint_commutes(self):
        joint = independent_joint(1, positions=4, vocab=3)
        (value,) = commutator(joint, open_row(4), (0, 1, 2, 3), argmax_commit(), [(0, 2)])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        joint = random_joint(2, positions=3, vocab=3, scale=1.5)
        row, block = open_row(3), (0, 1, 2)
        operator = argmax_commit()
        (value,) = commutator(joint, row, block, operator, [(0, 1)])
        # independent reconstruction of both paths
        s_ij = apply_update(joint, apply_update(joint, row, operator, 0), operator, 1)
        s_ji = apply_update(joint, apply_update(joint, row, operator, 1), operator, 0)
        p = np.exp(joint.log_dist(2, observed(s_ij)))
        q = np.exp(joint.log_dist(2, observed(s_ji)))
        m = 0.5 * (p + q)

        def kl(x, y):
            mask = x > 0
            return float((x[mask] * (np.log(x[mask]) - np.log(y[mask]))).sum())

        expected = math.sqrt(max(0.0, 0.5 * kl(p, m) + 0.5 * kl(q, m)))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_pair(self):
        joint = random_joint(3, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 4)
        draws = draw_row(sample_commit(), 9, 3, (0, 1, 2))
        fwd, rev = commutator(oracle, open_row(3), (0, 1, 2), sample_commit(), [(0, 1), (1, 0)], draws)
        assert abs(fwd - rev) < 1e-15

    def test_value_within_js_bounds(self):
        for seed in range(10):
            joint = random_joint(950 + seed, positions=3, vocab=3)
            oracle = PerturbedConditionalModel(joint, 1.0, seed)
            (value,) = commutator(oracle, open_row(3), (0, 1, 2), argmax_commit(), [(0, 1)])
            assert 0.0 <= value <= math.sqrt(math.log(2)) + 1e-12

    def test_degenerate_comparison_rejected(self):
        joint = random_joint(4, positions=2, vocab=3)
        with pytest.raises(DegenerateComparisonError):
            commutator(joint, open_row(2), (0, 1), argmax_commit(), [(0, 1)])

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["tabular", "perturbed", "logit-table"]),
        operator=st.sampled_from([argmax_commit(), sample_commit(), *map(threshold_commit, (0.0, 0.4, 1.0))]),
        seed=st.integers(0, 10_000),
        positions=st.integers(3, 6),
        vocab=st.integers(2, 4),
        data=st.data(),
    )
    def test_pair_lists_equal_the_per_pair_reference(self, kind, operator, seed, positions, vocab, data):
        joint = random_joint(seed, positions, vocab, scale=2.0)
        oracle = {
            "tabular": joint,
            "perturbed": PerturbedConditionalModel(joint, 1.0, seed),
            "logit-table": LogitTableOracle(LogitTable.random(vocab, positions, seed, scale=2.0)),
        }[kind]
        rng = seeded_rng(seed, 8)
        block = sorted(data.draw(st.sets(st.integers(0, positions - 1), min_size=3)))
        # each position outside the block holds a token or is left neither observed nor in the block
        rows = rng.integers(-1, vocab, size=(data.draw(st.integers(1, 6)), positions))
        rows[:, block] = -1
        draws = rng.random(rows.shape) if operator == sample_commit() else None
        if len(rows) == 1 and data.draw(st.booleans()):
            rows, draws = rows[0], None if draws is None else draws[0]
        pairs = data.draw(st.permutations(list(itertools.permutations(block, 2))))[: data.draw(st.integers(1, 8))]

        def reference_commutator(row, draw, i, j):
            ends = [
                apply_update(oracle, apply_update(oracle, row, operator, a, draw), operator, b, draw)
                for a, b in ((i, j), (j, i))
            ]
            coords = [p for p in block if min(end[p] for end in ends) < 0]
            products = []
            for end in ends:
                probs = np.ones((1,) + (vocab,) * len(coords))
                for axis, p in enumerate(coords):
                    cond = np.exp(oracle.log_rows(p, (end + 1) @ oracle.strides[p]))
                    vec = np.eye(vocab)[end[p]] if end[p] >= 0 else cond
                    probs = probs * vec.reshape((1,) * (axis + 1) + (vocab,) + (1,) * (len(coords) - axis - 1))
                products.append(probs)
            return float(np.sqrt(js_divergence(*products))[0])

        def reference_dependence(row, i, j):
            cond_i, cond_j = (np.exp(oracle.log_rows(p, (row + 1) @ oracle.strides[p])) for p in (i, j))
            j_after_i = np.exp(oracle.log_rows(j, oracle.class_grid(j, row, [i])))
            i_after_j = np.exp(oracle.log_rows(i, oracle.class_grid(i, row, [j]))).T
            q_ij, q_ji = cond_i[:, None] * j_after_i, np.ascontiguousarray(cond_j[None, :] * i_after_j)
            return 0.5 * (kl_vs_marginal_product(q_ij) + kl_vs_marginal_product(q_ji))

        table = np.atleast_2d(rows)
        draw_table = [None] * len(table) if draws is None else np.atleast_2d(draws)
        expected = [[reference_commutator(row, draw, i, j) for i, j in pairs] for row, draw in zip(table, draw_table)]
        dependence = [[reference_dependence(row, i, j) for i, j in pairs] for row in table]
        for order in (pairs, pairs[::-1]):
            for chunk_cells in (decoding._CHUNK_CELLS, 1):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(decoding, "_CHUNK_CELLS", chunk_cells)
                    values = commutator(oracle, rows, block, operator, order, draws)
                assert values.shape == (len(table), len(order)) if np.ndim(rows) == 2 else (len(order),)
                assert np.atleast_2d(values).tolist() == [[row[pairs.index(p)] for p in order] for row in expected]
            values = _oracle_pair_dependence(oracle, rows, order)
            assert np.atleast_2d(values).tolist() == [[row[pairs.index(p)] for p in order] for row in dependence]


class TestConflictScore:
    def test_independent_joint_is_zero(self):
        joint = independent_joint(6, positions=4, vocab=3)
        block = (0, 1, 2, 3)
        assert conflict_score(joint, open_row(4), block, argmax_commit(), block).value == pytest.approx(0.0, abs=1e-10)

    def test_two_position_candidate_equals_single_commutator(self):
        joint = random_joint(7, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 2)
        row, block = open_row(4), (0, 1, 2, 3)
        score = conflict_score(oracle, row, block, argmax_commit(), (1, 2))
        (single,) = commutator(oracle, row, block, argmax_commit(), [(1, 2)])
        assert score.value == single
        assert not score.skipped_pairs

    def test_exhausting_pairs_skipped_with_flag(self):
        joint = random_joint(8, positions=2, vocab=3)
        score = conflict_score(joint, open_row(2), (0, 1), argmax_commit(), (0, 1))
        assert score.value == 0.0
        assert score.skipped_pairs == ((0, 1),)

    def test_sum_is_enumeration_order_free(self):
        joint = random_joint(9, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.6, 5)
        row, block = open_row(4), (0, 1, 2, 3)
        first = conflict_score(oracle, row, block, argmax_commit(), (0, 1, 2, 3))
        second = conflict_score(oracle, row, block, argmax_commit(), (3, 2, 1, 0))
        assert first.value == second.value


class NearTiedOracle(ConditionalOracle):
    """Two tokens at three positions, every row the same per position: the
    max-probability is 0.5 + 1e-15 * position, highest at the last position
    but equal on the tie grid."""

    def __init__(self):
        super().__init__(2, 3)

    def log_rows(self, position, cls):
        top = 0.5 + 1e-15 * position
        return np.broadcast_to(np.log([top, 1.0 - top]), np.shape(cls) + (2,))


def commit_order(result):
    """Positions committed by the first run, round by round."""
    return [np.flatnonzero(mask[0]).tolist() for mask in result.committed if mask[0].any()]


class TestRunScheduler:
    def test_left_to_right_width_one_commits_in_index_order(self):
        joint = random_joint(10, positions=4, vocab=3)
        ctx = PartialContext({}, (0, 1, 2, 3))
        result = run_scheduler(joint, ctx, [11], SchedulerSpec("left-to-right"), sample_commit(), 1)
        assert commit_order(result) == [[0], [1], [2], [3]]

    def test_deterministic_replay(self):
        joint = random_joint(11, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        a = run_scheduler(joint, ctx, [21], SchedulerSpec("random", seed=5), sample_commit(), 2)
        b = run_scheduler(joint, ctx, [21], SchedulerSpec("random", seed=5), sample_commit(), 2)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.committed, b.committed)

    def test_confidence_picks_most_confident_first(self):
        p = np.einsum("a,b->ab", [0.55, 0.45], [0.95, 0.05])
        joint = TabularJointModel.from_probabilities(p)
        result = run_scheduler(joint, PartialContext({}, (0, 1)), [0], SchedulerSpec("confidence"), argmax_commit(), 1)
        assert commit_order(result) == [[1], [0]]

    def test_invalid_width_rejected(self):
        joint = random_joint(12)
        with pytest.raises(ContractViolationError):
            run_scheduler(joint, PartialContext({}, (0, 1, 2)), [0], SchedulerSpec("left-to-right"), argmax_commit(), 0)

    def test_threshold_stall_forces_single_commit(self):
        joint = TabularJointModel.uniform(4, 3)
        ctx = PartialContext({}, (0, 1, 2))
        result = run_scheduler(joint, ctx, [0], SchedulerSpec("left-to-right"), threshold_commit(0.99), 3)
        assert (result.tokens[0] >= 0).all()
        assert result.forced.all() and (result.committed.sum(axis=2) == 1).all()

    @pytest.fixture
    def near_tied_confidences(self):
        return NearTiedOracle()

    @pytest.mark.parametrize("kind", ["confidence", "conflict-aware"])
    def test_near_tied_confidences_go_in_index_order(self, near_tied_confidences, kind):
        ctx = PartialContext({}, (0, 1, 2))
        result = run_scheduler(near_tied_confidences, ctx, [0], SchedulerSpec(kind), argmax_commit(), 1)
        assert commit_order(result) == [[0], [1], [2]]

    def test_stall_breaker_forces_lowest_of_near_tied(self, near_tied_confidences):
        ctx = PartialContext({}, (0, 1, 2))
        result = run_scheduler(near_tied_confidences, ctx, [0], SchedulerSpec("left-to-right"), threshold_commit(0.99), 3)
        assert commit_order(result) == [[0], [1], [2]]

    def test_conflict_aware_avoids_dependent_pair(self):
        # positions 0,1 perfectly coupled; 2,3 independent coins
        p = np.zeros((2, 2, 2, 2))
        for a in range(2):
            p[a, a, :, :] = 0.5 * 0.25
        joint = TabularJointModel.from_probabilities(p)
        ctx = PartialContext({}, (0, 1, 2, 3))
        sched = SchedulerSpec("conflict-aware", lam_confidence=0.0, lam_conflict=1.0,
                              lam_dependence=1.0, block_search="subsets")
        result = run_scheduler(joint, ctx, [0], sched, argmax_commit(), 2)
        first_round = np.flatnonzero(result.chosen[0, 0]).tolist()
        assert set(first_round) != {0, 1}

    def test_sample_width_one_left_to_right_reproduces_joint(self):
        # chain-rule sampler oracle: chi-square over 50k runs on a 2x4 joint
        rng = np.random.default_rng(8)
        joint = TabularJointModel(4, 2, rng.standard_normal(16))
        ctx = PartialContext({}, (0, 1))
        n_runs = 50_000
        seeds = seed_states(_seed_key(777) + [np.arange(n_runs)]).tolist()  # derived_seed(777, k) for every k
        tokens = run_scheduler(joint, ctx, seeds, SchedulerSpec("left-to-right"), sample_commit(), 1).tokens
        counts = np.zeros((4, 4))
        np.add.at(counts, (tokens[:, 0], tokens[:, 1]), 1)
        expected = np.exp(joint.log_block_conditional(ctx)) * n_runs
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, 15)

    def test_full_width_on_independent_joint_reproduces_joint(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=2, vocab_size=4, seed=6, beta=0.0))
        ctx = PartialContext({}, (0, 1))
        n_runs = 50_000
        seeds = seed_states(_seed_key(888) + [np.arange(n_runs)]).tolist()  # derived_seed(888, k) for every k
        tokens = run_scheduler(joint, ctx, seeds, SchedulerSpec("left-to-right"), sample_commit(), 2).tokens
        counts = np.zeros((4, 4))
        np.add.at(counts, (tokens[:, 0], tokens[:, 1]), 1)
        expected = np.exp(joint.log_block_conditional(ctx)) * n_runs
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, 15)

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.integers(0, 10_000),
        operator=st.sampled_from([argmax_commit(), sample_commit(), threshold_commit(0.5), threshold_commit(0.9)]),
        runs=st.integers(2, 5),
        data=st.data(),
    )
    def test_batch_decodes_each_run_as_alone(self, case, operator, runs, data):
        joint = random_joint(case, positions=data.draw(st.integers(3, 4)), vocab=data.draw(st.integers(2, 3)))
        oracle = joint if case % 2 else PerturbedConditionalModel(joint, 0.5, case)
        ctx = random_context(case, joint, min_block=1)
        widths = data.draw(st.lists(st.integers(1, len(ctx.block)), min_size=runs, max_size=runs))
        specs = data.draw(st.lists(st.sampled_from(SCHEDULER_POOL), min_size=runs, max_size=runs))
        seeds = [derived_seed(case, r) for r in range(runs)]
        assert_each_run_decodes_as_alone(oracle, ctx, seeds, specs, operator, widths)

    @pytest.mark.parametrize("operator", [argmax_commit(), sample_commit(), threshold_commit(0.9)])
    def test_kinds_with_one_run_or_none_decode_as_alone(self, operator):
        # each spec as the only run of its kind among runs of every other kind, and each kind left out
        joint = random_joint(23, positions=5, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 23)
        ctx = PartialContext({1: 2}, (0, 2, 3, 4))
        for spec in SCHEDULER_POOL:
            others = [other for other in SCHEDULER_POOL if other.kind != spec.kind]
            for specs in ([spec], [spec] + others * 2, others):
                seeds = [derived_seed(23, r) for r in range(len(specs))]
                widths = [1 + r % len(ctx.block) for r in range(len(specs))]
                assert_each_run_decodes_as_alone(oracle, ctx, seeds, specs, operator, widths)

    def test_one_scheduler_per_run(self):
        joint = random_joint(24, positions=3, vocab=3)
        with pytest.raises(ContractViolationError):
            run_scheduler(joint, PartialContext({}, (0, 1, 2)), [1, 2, 3], SCHEDULER_POOL[:2], argmax_commit(), 1)

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.integers(0, 10_000),
        operator=st.sampled_from([argmax_commit(), sample_commit(), threshold_commit(0.5), threshold_commit(0.9)]),
        lams=st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3),
        data=st.data(),
    )
    def test_conflict_aware_pick_matches_per_candidate_scores(self, case, operator, lams, data):
        # reference: score every candidate on its own with conflict_score and the summed pair
        # dependence, against the first round of one batch whose runs differ in width and draw row
        joint = random_joint(case, positions=data.draw(st.integers(3, 5)), vocab=data.draw(st.integers(2, 4)), scale=2.0)
        oracle = joint if case % 2 else PerturbedConditionalModel(joint, 1.0, case)
        ctx = random_context(case, joint, min_block=2)
        row, block = context_row(ctx, joint.positions), sorted(ctx.block)
        conf = {p: float(np.exp(oracle.log_dist(p, ctx.observed)).max()) for p in block}
        lam_confidence, lam_conflict, lam_dependence = lams
        widths = np.arange(1, len(block) + 1)
        seeds = [derived_seed(case, 1, r) for r in range(len(widths))]
        sampled = operator == sample_commit()  # otherwise no run has draws, and all share one reference

        @functools.cache
        def score(cand, seed):
            draws = draw_row(operator, seed, joint.positions, block)
            value = lam_confidence * (-float(np.mean([conf[p] for p in cand])))
            if len(cand) >= 2:
                value += lam_conflict * conflict_score(oracle, row, block, operator, cand, draws).value
                dependence = 0.0
                for i, j in itertools.combinations(cand, 2):
                    dependence += _oracle_pair_dependence(oracle, row, [(i, j)])[0]
                value += lam_dependence * dependence
            return value

        for block_search in ("contiguous", "subsets"):
            sched = SchedulerSpec("conflict-aware", lam_confidence=lam_confidence, lam_conflict=lam_conflict,
                                  lam_dependence=lam_dependence, block_search=block_search)
            first_round = run_scheduler(oracle, ctx, seeds, sched, operator, widths).chosen[0]
            for seed, width, chosen in zip(seeds, widths, first_round):
                pick = tuple(np.flatnonzero(chosen).tolist())
                if block_search == "subsets":
                    candidates = list(itertools.combinations(block, width))
                else:
                    candidates = [tuple(block[k : k + width]) for k in range(len(block) - width + 1)]
                assert pick == min(candidates, key=lambda cand: (tie_key(score(cand, seed if sampled else None)), cand))

    def test_conflict_aware_gathers_once_per_distinct_state(self, monkeypatch):
        # argmax runs of one context share every state, so a batch of 32 gathers as much as one run
        ctx = PartialContext({0: 1}, (1, 2, 3, 5))
        sched = SchedulerSpec("conflict-aware", block_search="subsets")
        gathers = []
        for runs in (1, 32):
            joint = random_joint(17, positions=6, vocab=3)
            calls = []
            exact = joint.log_rows
            monkeypatch.setattr(joint, "log_rows", lambda position, cls: calls.append(position) or exact(position, cls))
            run_scheduler(joint, ctx, list(range(runs)), sched, argmax_commit(), 2)
            gathers.append(len(calls))
        assert gathers[0] == gathers[1]

    def test_widths_share_each_round_one_state(self, monkeypatch):
        # four seeds at widths 2 and 3: in round one each seed's runs share their token row and
        # draw row, so one commutator call scores the four states over both widths' pairs
        oracle = PerturbedConditionalModel(random_joint(41, positions=5, vocab=3), 1.0, 41)
        ctx, sched, operator = PartialContext({2: 1}, (0, 1, 3, 4)), SchedulerSpec("conflict-aware"), sample_commit()
        seeds, widths = [derived_seed(41, r) for r in range(4)] * 2, [2] * 4 + [3] * 4
        calls = []

        def recording(oracle, rows, block, operator, pairs, draws=None, _fn=decoding.commutator):
            calls.append((rows, draws, pairs))
            return _fn(oracle, rows, block, operator, pairs, draws)

        monkeypatch.setattr(decoding, "commutator", recording)
        batch = run_scheduler(oracle, ctx, seeds, sched, operator, widths)
        rows, draws, pairs = calls[0]
        assert np.array_equal(rows, np.tile(context_row(ctx, 5), (4, 1)))
        assert np.array_equal(draws, decoding.draw_rows(operator, seeds[:4], 5, ctx.block), equal_nan=True)
        assert pairs == [(0, 1), (1, 3), (3, 4), (0, 3), (1, 4)]
        for rows, draws, _ in calls:  # no call scores a state twice
            assert len({(r.tobytes(), d.tobytes()) for r, d in zip(rows, draws)}) == len(rows)
        for width in (2, 3):
            alone = run_scheduler(oracle, ctx, seeds[:4], sched, operator, width).tokens
            assert np.array_equal(batch.tokens[np.equal(widths, width)], alone)


class TestBatchInvariance:
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.integers(0, 10_000),
        operator=st.sampled_from([argmax_commit(), sample_commit(), threshold_commit(0.5), threshold_commit(0.9)]),
        positions=st.integers(3, 5),
        vocab=st.integers(2, 4),
    )
    def test_token_arrays_equal_single_rows(self, case, operator, positions, vocab):
        # the rows share an open block; each other position holds a random token or is left neither
        # observed nor in the block, so the rows' conditionals, and a threshold's no-ops, differ
        joint = random_joint(case, positions, vocab, scale=2.0)
        oracle = joint if case % 2 else PerturbedConditionalModel(joint, 1.0, case)
        rng = seeded_rng(case, 7)
        block = sorted(rng.choice(positions, size=int(rng.integers(3, positions + 1)), replace=False).tolist())
        rows = rng.integers(-1, vocab, size=(3, positions))
        rows[:, block] = -1
        draws = rng.random((3, positions)) if operator == sample_commit() else [None] * 3
        batch_draws = None if draws[0] is None else draws
        i, j = rng.choice(block, size=2, replace=False).tolist()
        updated = apply_update(oracle, rows, operator, i, batch_draws)
        assert all(np.array_equal(updated[r], apply_update(oracle, rows[r], operator, i, draws[r])) for r in range(3))
        values = commutator(oracle, rows, block, operator, [(i, j)], batch_draws)
        alone = [commutator(oracle, rows[r], block, operator, [(i, j)], draws[r]).tolist() for r in range(3)]
        assert values.tolist() == alone
        dependence = _oracle_pair_dependence(oracle, rows, [(i, j)])
        assert dependence.tolist() == [_oracle_pair_dependence(oracle, rows[r], [(i, j)]).tolist() for r in range(3)]


class TestStress:
    def test_each_run_draws_once_across_widths(self, monkeypatch):
        keys = []
        exact = decoding.seed_states

        def recording(words):
            # one key per element of the broadcast word columns
            columns = np.broadcast_arrays(*[np.asarray(w, dtype=np.uint64) for w in words])
            keys.extend(map(tuple, np.stack(columns, axis=-1).reshape(-1, len(words)).tolist()))
            return exact(words)

        monkeypatch.setattr(decoding, "seed_states", recording)
        joint = random_joint(16, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 6)
        contexts = [PartialContext({}, (0, 1, 2, 3)), PartialContext({0: 1}, (1, 3))]
        scheds = [SchedulerSpec("left-to-right"), SchedulerSpec("conflict-aware")]
        runs = 5
        stress_test(oracle, joint, contexts, widths=[1, 2, 3], schedulers=scheds, operator=sample_commit(),
                    runs=runs, seed=4)
        # a sample draw's key is (seed words, salt, position); the run seeds' keys (4, ci, si, k) are not draws
        drawn = [key for key in keys if key[-2] == decoding._SAMPLE_SALT]
        # runs x |block| per (context, scheduler), plus |block| per context for the conflict predictor
        assert len(drawn) == sum((len(scheds) * runs + 1) * len(c.block) for c in contexts)
        assert len(set(drawn)) == len(drawn)

    def test_report_dict_is_the_field_walk(self):
        # rows and operator serialise through their own to_dict, with the JSON of a deep copy
        joint = random_joint(19, positions=3, vocab=3)
        report = stress_test(PerturbedConditionalModel(joint, 0.5, 9), joint, [PartialContext({}, (0, 1, 2))],
                             widths=[1, 2], schedulers=[SchedulerSpec("confidence")], operator=threshold_commit(0.4),
                             runs=3, seed=6)
        assert canonical_json(report.to_dict()) == canonical_json(dataclasses.asdict(report))

    def test_one_decode_call_per_context(self, monkeypatch):
        batches = []
        exact = decoding.run_scheduler
        monkeypatch.setattr(decoding, "run_scheduler", lambda *args: batches.append(len(args[2])) or exact(*args))
        joint = random_joint(18, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 8)
        contexts = [PartialContext({}, (0, 1, 2, 3)), PartialContext({0: 1}, (1, 3)), PartialContext({2: 0}, (0, 1, 3))]
        scheds = [SchedulerSpec(kind) for kind in ("left-to-right", "random", "confidence", "conflict-aware")]
        stress_test(oracle, joint, contexts, widths=[1, 2], schedulers=scheds, runs=3, seed=5)
        # every scheduler, width and run of a context in one batch
        assert batches == [len(scheds) * 2 * 3] * len(contexts)

    def test_repeated_kinds_are_labelled_by_index(self):
        joint = random_joint(19, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 5)
        contexts = [PartialContext({}, (0, 1, 2)), PartialContext({0: 1}, (1, 2)), PartialContext({2: 0}, (0, 1))]
        scheds = [SchedulerSpec("conflict-aware"), SchedulerSpec("conflict-aware", lam_conflict=3.0)]
        report = stress_test(oracle, joint, contexts, widths=[1, 2, 3], schedulers=scheds, runs=6, seed=3)
        assert len(report.rows) == 3 * 2 * 3
        assert [r.scheduler for r in report.rows[:6]] == ["conflict-aware#0"] * 3 + ["conflict-aware#1"] * 3
        assert set(report.correlations) == {f"conflict-aware#{k}|w={w}" for k in (0, 1) for w in (2, 3)}
        # a kind that does not repeat keeps its plain label
        scheds = [SchedulerSpec("random"), SchedulerSpec("left-to-right"), SchedulerSpec("random", seed=4)]
        report = stress_test(oracle, joint, contexts, widths=[1, 2], schedulers=scheds, runs=6, seed=3)
        assert list(dict.fromkeys(r.scheduler for r in report.rows)) == ["random#0", "left-to-right", "random#2"]
        assert set(report.correlations) == {"random#0|w=2", "left-to-right|w=2", "random#2|w=2"}

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
