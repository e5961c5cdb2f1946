import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fault_lattice_steps, random_context, random_joint, random_oracle
from curlgauge import ordererror, pseudojoint
from curlgauge.core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    derived_seed,
    kl,
    seeded_rng,
)
from curlgauge.errors import ContractViolationError, IdentityCheckError
from curlgauge.ordererror import (
    StepRecord,
    local_estimation_error,
    order_cross_entropy,
    rank_orders,
    stratify_contexts,
    stratify_steps,
)
from curlgauge.pseudojoint import pseudo_joint_table, step_table
from curlgauge.synth import SyntheticTaskSpec, TrainConfig, generate_joint, train_tabular

N_DIRECTION_TRIALS = 50


@pytest.fixture(scope="module")
def prefix_trained_cases():
    """Oracles trained only on prefix contexts of seeded random chain joints."""
    cases = []
    for seed in range(N_DIRECTION_TRIALS):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=2, seed=9000 + seed, beta=1.0))
        oracle, _ = train_tabular(
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
        message = r"^order \(0, 0, 1\) is not a permutation of the block \(0, 1, 2\)$"
        with pytest.raises(ContractViolationError, match=message):
            order_cross_entropy(joint, joint, PartialContext({}, (0, 1, 2)), (0, 0, 1))

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
        table = np.exp(joint.log_mass.reshape((3,) * 4))
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
            sub = PartialContext({**ctx.observed, order[0]: v}, tuple(p for p in ctx.block if p != order[0]))
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
        # distinct candidates are at most |B|! orders, so a repeat is the only way past the cap
        joint = random_joint(10)
        ctx = PartialContext({}, (0, 1, 2))
        with pytest.raises(ContractViolationError, match=r"^candidate orders must be distinct, got 1 repeats$"):
            rank_orders(joint, joint, ctx, orders=[(0, 1, 2), (2, 1, 0), [0, 1, 2]])

    def test_ranking_invariant_under_logit_shift(self):
        table = LogitTable.random(3, 3, seed=31, scale=1.0)
        joint = random_joint(11, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        shifts = 2.5 * seeded_rng(32).standard_normal(table.logits.shape[:2])
        before = rank_orders(LogitTableOracle(table), joint, ctx)
        after = rank_orders(LogitTableOracle(LogitTable(table.vocab, 3, table.logits + shifts[..., None])), joint, ctx)
        assert [p.order for p in before] == [p.order for p in after]
        for x, y in zip(before, after):
            assert abs(x.kl_total - y.kl_total) < 1e-10


class TestStepLattice:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["tabular", "perturbed", "logit-table"]))
    def test_every_order_equals_its_pseudo_joint_table(self, seed, kind):
        # kl_total and cross_entropy are edge sums, so they meet each order's full-table scores to rounding
        rng = seeded_rng(seed, 61)
        m, vocab = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        joint = random_joint(derived_seed(seed, 62), m, vocab)
        oracle = {
            "tabular": joint,
            "perturbed": PerturbedConditionalModel(joint, 0.5, derived_seed(seed, 63)),
            "logit-table": LogitTableOracle(LogitTable.random(vocab, m, derived_seed(seed, 66))),
        }[kind]
        block = tuple(rng.permutation(m)[: int(rng.integers(2, m + 1))].tolist())  # often unsorted
        observed = {p: int(rng.integers(vocab)) for p in range(m) if p not in block and rng.random() < 0.6}
        ctx = PartialContext(observed, block)
        profiles = rank_orders(oracle, joint, ctx)
        assert sorted(prof.order for prof in profiles) == sorted(itertools.permutations(block))
        log_p = joint.log_block_conditional(ctx)
        p = np.exp(log_p)
        for profile in profiles:
            order = profile.order
            reference = pseudo_joint_table(oracle, ctx, order)
            assert abs(profile.kl_total - float(kl(log_p, reference))) <= 1e-12
            assert abs(profile.cross_entropy - float(-(p * reference).sum())) <= 1e-12
            for k, (pos, step) in enumerate(zip(order, profile.steps)):
                # one gather per step, rows weighted by the prefix's mass: the joint's sub-block read of it
                free = [q if q in order[:k] else None for q in block]
                prefix = PartialContext(observed, tuple(q for q in free if q is not None))
                shape = [vocab if q is not None else 1 for q in free]
                weight = np.exp(joint.log_block_conditional(prefix)).reshape(shape) if k else 1.0
                grid = joint.class_grid(pos, observed, free)
                log_p_rows, log_q_rows = joint.log_rows(pos, grid), oracle.log_rows(pos, grid)
                assert step.kl == float((weight * kl(log_p_rows, log_q_rows, axis=-1)).sum())
                assert step.entropy == float((weight * -kl(log_q_rows, 0.0, axis=-1)).sum())

    def test_all_orders_build_two_reference_tables_and_no_order_table(self, monkeypatch):
        # at the caps: 720 orders scored from the edges, the head and the last-ranked one rebuilt apart
        built, reference_table = [], ordererror.pseudo_joint_table

        def counted(oracle, context, order):
            built.append(order)
            return reference_table(oracle, context, order)

        monkeypatch.setattr(ordererror, "pseudo_joint_table", counted)
        joint = generate_joint(SyntheticTaskSpec("chain", positions=6, vocab_size=8, seed=7, beta=0.8))
        oracle = PerturbedConditionalModel(joint, 0.4, 2)
        ranked = rank_orders(oracle, joint, PartialContext({}, tuple(range(6))))
        assert len(ranked) == 720 and built == [ranked[0].order, ranked[-1].order]
        built.clear()
        assert order_cross_entropy(oracle, joint, PartialContext({}, (2, 0, 4)), (4, 0, 2)).order == (4, 0, 2)
        assert built == [(4, 0, 2)]  # one candidate is both head and last: rebuilt once

    def test_fault_in_the_joints_steps_trips_the_chain_rule(self, monkeypatch):
        # 1e-6 on the joint's step of position 0 given nothing moves the KL edge sum, not the cross-entropy's
        joint = random_joint(16, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 6)

        def faulty_step(model, observed, axes, pos, given):
            table = step_table(model, observed, axes, pos, given)
            return table + 1e-6 if model is joint and (pos, set(given)) == (0, set()) else table

        monkeypatch.setattr(ordererror, "step_table", faulty_step)
        with pytest.raises(IdentityCheckError, match="^cross-entropy identity failed"):
            rank_orders(oracle, joint, PartialContext({}, (0, 1, 2)))

    def test_fault_in_a_conditioning_sets_mass_trips_the_chain_rule(self, monkeypatch):
        # 1e-6 on the joint's sub-block read of {0} scales the weight of every edge given 0 alike, so the
        # KL and cross-entropy edge sums move together and their difference leaves the block's entropy
        joint = random_joint(18, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 8)
        exact = TabularJointModel.log_block_conditional

        def faulty(model, context):
            return exact(model, context) + (1e-6 if context.block == (0,) else 0.0)

        monkeypatch.setattr(TabularJointModel, "log_block_conditional", faulty)
        with pytest.raises(IdentityCheckError, match="^cross-entropy identity failed"):
            rank_orders(oracle, joint, PartialContext({}, (0, 1, 2)))

    @pytest.mark.parametrize("orders", [None, [(2, 1, 0)]], ids=["all-orders", "one-candidate"])
    def test_fault_in_a_lattice_step_trips_the_reference_table(self, monkeypatch, orders):
        # 1e-9 on every step of position 1 moves both edge sums alike, so only the reference tables see it
        fault_lattice_steps(monkeypatch, position=1, given=None)
        joint = random_joint(17, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 7)
        with pytest.raises(IdentityCheckError, match="^order table check failed"):
            rank_orders(oracle, joint, PartialContext({}, (0, 1, 2)), orders)
        with pytest.raises(IdentityCheckError, match="^order table check failed"):
            order_cross_entropy(oracle, joint, PartialContext({}, (0, 1, 2)), (1, 2, 0))

    def test_each_step_is_gathered_once(self, monkeypatch):
        # m * 2^(m-1) oracle steps through the lattice and as many transient joint steps, shared by
        # all m! orders, then the m steps of each of the two reference tables, gathered apart
        calls = {pseudojoint: [], ordererror: []}
        for module, gathered in calls.items():
            def counted(*args, _calls=gathered):
                _calls.append(args[0])
                return step_table(*args)

            monkeypatch.setattr(module, "step_table", counted)
        joint = random_joint(15, positions=4, vocab=2)
        oracle = PerturbedConditionalModel(joint, 0.4, 5)
        assert len(rank_orders(oracle, joint, PartialContext({}, (0, 1, 2, 3)))) == 24
        assert calls[pseudojoint] == [oracle] * (4 * 2**3 + 2 * 4) and calls[ordererror] == [joint] * 4 * 2**3


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


def test_strata_survive_rounding_noise():
    # entropies that are equal in exact arithmetic differ by rounding noise; moving
    # every one by 4 ULP, all up, all down or each with a seeded sign, keeps the counts
    def moved(value, ulps):
        for _ in range(abs(ulps)):
            value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
        return value

    def counts(strata):
        return {name: stratum["count"] for name, stratum in strata.items() if name != "total_steps"}

    for seed in range(20):
        joint = generate_joint(SyntheticTaskSpec("exchangeable", positions=4, vocab_size=4, seed=seed))
        for delta in (0.0, 0.4):
            oracle = joint if delta == 0.0 else PerturbedConditionalModel(joint, delta, derived_seed(seed, 64))
            for ctx in (PartialContext({}, (0, 1, 2, 3)), PartialContext({0: seed % 4}, (1, 2, 3))):
                profiles = rank_orders(oracle, joint, ctx)
                for steps in [prof.steps for prof in profiles] + [[s for prof in profiles for s in prof.steps]]:
                    signs = seeded_rng(seed, 65).choice([-1, 1], size=len(steps))
                    for shift in ([4] * len(steps), [-4] * len(steps), 4 * signs):
                        noisy = [dataclasses.replace(s, entropy=moved(s.entropy, int(k))) for s, k in zip(steps, shift)]
                        assert counts(stratify_steps(noisy)) == counts(stratify_steps(steps)), (seed, delta, ctx)


def test_median_has_the_bits_of_np_median():
    # sorted middle value, or the mean of the two middle values; ties come from a coarse grid
    rng = np.random.default_rng(52)
    for size in range(1, 51):
        for values in (rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4), rng.integers(0, 4, size) * 0.1):
            assert ordererror._median(values.tolist()) == np.median(values), (size, values)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    positions=st.integers(1, 5),
    vocab=st.integers(2, 4),
    family=st.sampled_from(["random", "exchangeable"]),
    delta=st.sampled_from([None, 0.4]),
    data=st.data(),
)
def test_every_orders_strata_equal_stratify_steps(seed, positions, vocab, family, delta, data):
    # rank_orders fills every profile's strata in one pass; exchangeable joints give entropies that tie
    if family == "exchangeable":
        joint = generate_joint(SyntheticTaskSpec(family, positions=positions, vocab_size=vocab, seed=seed))
    else:
        joint = random_joint(seed, positions, vocab)
    ctx = random_context(seed, joint, min_block=1)
    candidates = list(itertools.permutations(ctx.block))
    orders = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=len(candidates), unique=True))
    profiles = rank_orders(random_oracle(seed, joint, delta), joint, ctx, orders)
    assert sorted(prof.order for prof in profiles) == sorted(orders)
    for prof in profiles:
        assert prof.context_strata == stratify_steps(prof.steps)


def test_one_pass_strata_decide_ties_on_the_grid():
    # entropies on a coarse grid, each moved by a few 1e-15: equal on the tie grid, as rounding leaves them
    rng = np.random.default_rng(53)
    for size in range(1, 7):
        entropies = rng.integers(0, 3, (200, size)) * 0.5 + rng.integers(-3, 4, (200, size)) * 1e-15
        kls, prefix = rng.random((200, size)), rng.random((200, size)) < 0.5
        for row, strata in enumerate(ordererror._order_strata(kls, entropies, prefix)):
            steps = [StepRecord(p, (), *values) for p, values in enumerate(zip(kls[row], entropies[row], prefix[row]))]
            assert strata == stratify_steps(steps), (size, row)
