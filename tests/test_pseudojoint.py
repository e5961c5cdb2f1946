import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_context, random_joint, random_oracle
from curlgauge import pseudojoint
from curlgauge.core import (
    ConditionalOracle,
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    context_class_index,
)
from curlgauge.errors import ContractViolationError, SizeCapError
from curlgauge.pseudojoint import (
    ExhaustivePlan,
    ExplicitPlan,
    MonteCarloPlan,
    PseudoJointSpec,
    SwapPath,
    apply_swap_steps,
    bubble_path,
    curl_local,
    curl_normalized,
    curl_scan_report,
    ecirc_abs,
    iter_plan_samples,
    order_consistency_check,
    order_swap_kl,
    pseudo_joint_log_prob,
    pseudo_joint_table,
    random_walk_path,
    swap_decomposition,
)
from curlgauge.synth import ecirc_penalty


class StubOracle(ConditionalOracle):
    """Fixed distributions given per (position, assigned items), stored per
    (position, context class index), for formula checks."""

    def __init__(self, vocab_size, positions, dists):
        super().__init__(vocab_size, positions)
        self._rows = {
            (pos, context_class_index(pos, dict(items), positions, vocab_size)): np.log(np.asarray(p))
            for (pos, items), p in dists.items()
        }

    def log_rows(self, position, cls):
        rows = [self._rows[(position, int(c))] for c in np.ravel(cls)]
        return np.reshape(rows, np.shape(cls) + (self.vocab.size,))


class TestPseudoJointLogProb:
    def test_single_position_block_equals_conditional(self):
        joint = random_joint(1, positions=3, vocab=3)
        ctx = PartialContext(observed={0: 1, 2: 2}, block=(1,))
        spec = PseudoJointSpec(ctx, (1,))
        assert pseudo_joint_log_prob(joint, spec, {1: 0}) == joint.log_conditional(1, 0, ctx)

    def test_exact_oracle_matches_brute_force_chain_rule(self):
        joint = random_joint(2, positions=4, vocab=3)
        ctx = PartialContext(observed={0: 2}, block=(1, 2, 3))
        table = np.exp(joint.log_mass_nd)
        for order in ((1, 2, 3), (3, 1, 2), (2, 3, 1)):
            for assignment in itertools.product(range(3), repeat=3):
                asg = dict(zip((1, 2, 3), assignment))
                got = pseudo_joint_log_prob(joint, PseudoJointSpec(ctx, order), asg)
                num = table[2, asg[1], asg[2], asg[3]]
                den = table[2].sum()
                assert got == pytest.approx(math.log(num / den), abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_total_mass_is_one_for_any_oracle(self, seed):
        joint = random_joint(seed, positions=3, vocab=3)
        oracle = random_oracle(seed, joint, delta=0.6)
        ctx = random_context(seed, joint)
        order = tuple(ctx.block)
        total = np.exp(pseudo_joint_table(oracle, ctx, order)).sum()
        assert abs(total - 1.0) < 1e-9

    def test_assignment_must_cover_block(self):
        joint = random_joint(3)
        ctx = PartialContext({}, (0, 1, 2))
        with pytest.raises(ContractViolationError):
            pseudo_joint_log_prob(joint, PseudoJointSpec(ctx, (0, 1, 2)), {0: 1, 1: 1})

    def test_order_must_permute_block(self):
        joint = random_joint(4)
        ctx = PartialContext({}, (0, 1))
        with pytest.raises(ContractViolationError):
            PseudoJointSpec(ctx, (0, 0))


class TestCurlLocal:
    def test_symmetric_conditionals_give_zero(self):
        # q(a|S)=0.5, q(b|S,a)=0.8, q(b|S)=0.5, q(a|S,b)=0.8 -> zero circulation
        dists = {
            (0, ()): [0.5, 0.5],
            (1, ((0, 0),)): [0.2, 0.8],
            (1, ()): [0.5, 0.5],
            (0, ((1, 1),)): [0.8, 0.2],
        }
        oracle = StubOracle(2, 2, dists)
        ctx = PartialContext({}, (0, 1))
        assert curl_local(oracle, ctx, 0, 1, 0, 1).value == pytest.approx(0.0, abs=1e-12)

    def test_four_term_evaluation(self):
        # q(a|S)=0.5, q(b|S,a)=0.9, q(b|S)=0.5, q(a|S,b)=0.6 -> log(0.45/0.30)
        dists = {
            (0, ()): [0.5, 0.5],
            (1, ((0, 0),)): [0.1, 0.9],
            (1, ()): [0.5, 0.5],
            (0, ((1, 1),)): [0.6, 0.4],
        }
        oracle = StubOracle(2, 2, dists)
        ctx = PartialContext({}, (0, 1))
        sample = curl_local(oracle, ctx, 0, 1, 0, 1)
        assert sample.value == pytest.approx(math.log(1.5), abs=1e-12)

    def test_exact_joint_conditionals_are_curl_free(self):
        joint = random_joint(6, positions=3, vocab=4)
        ctx = PartialContext({}, (0, 1, 2))
        for i, j in itertools.combinations(range(3), 2):
            for a, b in itertools.product(range(4), repeat=2):
                assert abs(curl_local(joint, ctx, i, j, a, b).value) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000), a=st.integers(0, 2), b=st.integers(0, 2))
    def test_antisymmetry(self, seed, a, b):
        joint = random_joint(seed, positions=3, vocab=3)
        oracle = random_oracle(seed, joint, delta=0.5)
        ctx = PartialContext({}, (0, 1, 2))
        fwd = curl_local(oracle, ctx, 0, 2, a, b).value
        rev = curl_local(oracle, ctx, 2, 0, b, a).value
        assert fwd == -rev

    def test_matches_pair_product_log_ratio(self):
        joint = random_joint(16, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.7, 3)
        ctx = PartialContext(observed={3: 1}, block=(0, 1, 2))
        for a, b in itertools.product(range(3), repeat=2):
            sample = curl_local(oracle, ctx, 0, 2, a, b)
            pair_ctx = PartialContext(observed={3: 1}, block=(0, 2))
            lp_ij = pseudo_joint_log_prob(oracle, PseudoJointSpec(pair_ctx, (0, 2)), {0: a, 2: b})
            lp_ji = pseudo_joint_log_prob(oracle, PseudoJointSpec(pair_ctx, (2, 0)), {0: a, 2: b})
            assert sample.value == pytest.approx(lp_ij - lp_ji, abs=1e-12)

    def test_same_position_rejected(self):
        joint = random_joint(7)
        with pytest.raises(ContractViolationError):
            curl_local(joint, PartialContext({}, (0, 1)), 0, 0, 0, 0)


class TestCurlNormalized:
    def test_zero_value(self):
        joint = random_joint(8)
        sample = curl_local(joint, PartialContext({}, (0, 1, 2)), 0, 1, 0, 0)
        assert curl_normalized(sample) == pytest.approx(0.0, abs=1e-10)

    def test_unit_terms_arithmetic(self):
        sample_like = curl_local(random_joint(9), PartialContext({}, (0, 1, 2)), 0, 1, 0, 0)
        fake = type(sample_like)(
            i=0, j=1, a=0, b=0, context=sample_like.context,
            value=0.4, terms=(-1.0, -1.0, -1.0, -1.0), normalized_value=0.0,
        )
        assert curl_normalized(fake, 1e-6) == pytest.approx(0.4 / (4 + 1e-6), abs=1e-15)

    def test_epsilon_must_be_positive(self):
        sample = curl_local(random_joint(10), PartialContext({}, (0, 1, 2)), 0, 1, 0, 0)
        with pytest.raises(ContractViolationError):
            curl_normalized(sample, 0.0)

    def test_bounded_below_one(self):
        joint = random_joint(12, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 1.0, 5)
        ctx = PartialContext({}, (0, 1, 2))
        for a, b in itertools.product(range(3), repeat=2):
            assert 0.0 <= curl_local(oracle, ctx, 0, 1, a, b).normalized_value < 1.0


class TestEcircAbs:
    def test_exact_oracle_is_zero(self):
        joint = random_joint(13, positions=4, vocab=3)
        ctx = PartialContext({}, (0, 1, 2, 3))
        assert ecirc_abs(joint, ctx, ExhaustivePlan()).value < 1e-10

    def test_monte_carlo_agrees_with_exhaustive(self):
        joint = random_joint(14, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 9)
        ctx = PartialContext({}, (0, 1, 2))
        exact = ecirc_abs(oracle, ctx, ExhaustivePlan()).value
        mc = ecirc_abs(oracle, ctx, MonteCarloPlan(seed=4, n=10_000))
        assert abs(mc.value - exact) <= 3 * mc.stderr + 1e-12

    def test_single_tuple_plan_is_absolute_curl(self):
        joint = random_joint(15, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 10)
        ctx = PartialContext({}, (0, 1, 2))
        est = ecirc_abs(oracle, ctx, ExplicitPlan(((0, 1, 2, 1),)))
        assert est.value == abs(curl_local(oracle, ctx, 0, 1, 2, 1).value)

    def test_empty_block_pair_set_rejected(self):
        joint = random_joint(15)
        with pytest.raises(ContractViolationError):
            ecirc_abs(joint, PartialContext({0: 0, 1: 0}, (2,)), ExhaustivePlan())


class TestOrderSwapKL:
    def test_compatible_oracle_gives_zero(self):
        joint = random_joint(17, positions=3, vocab=4)
        ctx = PartialContext({}, (0, 1, 2))
        assert order_swap_kl(joint, ctx, 0, 2).value == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative(self):
        for seed in range(10):
            joint = random_joint(600 + seed, positions=3, vocab=3)
            oracle = PerturbedConditionalModel(joint, 0.8, seed)
            ctx = PartialContext({}, (0, 1, 2))
            assert order_swap_kl(oracle, ctx, 0, 1).value >= 0.0

    def test_monte_carlo_agrees_with_exact(self):
        joint = random_joint(18, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.6, 12)
        ctx = PartialContext({}, (0, 1, 2))
        exact = order_swap_kl(oracle, ctx, 1, 2).value
        mc = order_swap_kl(oracle, ctx, 1, 2, mode=MonteCarloPlan(seed=6, n=50_000))
        assert abs(mc.value - exact) <= 3 * mc.stderr

    def test_exact_equals_curl_expectation(self):
        joint = random_joint(19, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 13)
        ctx = PartialContext({}, (0, 1, 2))
        expectation = 0.0
        for a, b in itertools.product(range(3), repeat=2):
            sample = curl_local(oracle, ctx, 0, 1, a, b)
            log_q = sample.terms[0] + sample.terms[1]
            expectation += math.exp(log_q) * sample.value
        assert order_swap_kl(oracle, ctx, 0, 1).value == pytest.approx(expectation, abs=1e-12)


class TestSwapPaths:
    def test_steps_apply(self):
        assert apply_swap_steps((0, 1, 2), (1, 2)) == (1, 2, 0)

    def test_invalid_path_rejected(self):
        with pytest.raises(ContractViolationError):
            SwapPath(start=(0, 1, 2), end=(2, 1, 0), steps=(1,))
        with pytest.raises(ContractViolationError):
            SwapPath(start=(0, 1, 2), end=(0, 1, 2), steps=(3,))

    def test_bubble_path_reaches_end(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            start = tuple(rng.permutation(4).tolist())
            end = tuple(rng.permutation(4).tolist())
            path = bubble_path(start, end)
            assert apply_swap_steps(path.start, path.steps) == end

    def test_empty_path_identity(self):
        joint = random_joint(20, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        path = SwapPath(start=(0, 1, 2), end=(0, 1, 2), steps=())
        out = swap_decomposition(joint, ctx, path, {0: 0, 1: 1, 2: 2})
        assert out.terms == ()
        assert out.residual == pytest.approx(0.0, abs=1e-12)

    def test_random_paths_have_tiny_residual(self):
        for seed in range(20):
            joint = random_joint(700 + seed, positions=4, vocab=3)
            oracle = random_oracle(seed, joint, delta=0.5 if seed % 2 else None)
            ctx = PartialContext({}, (0, 1, 2, 3))
            path = random_walk_path(ctx.block, length=int(3 + seed % 8), seed=seed)
            rng = np.random.default_rng(seed)
            assignment = {p: int(rng.integers(3)) for p in ctx.block}
            out = swap_decomposition(oracle, ctx, path, assignment)
            assert abs(out.residual) < 1e-10

    def test_two_paths_same_sum_different_terms(self):
        joint = random_joint(21, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 2)
        ctx = PartialContext({}, (0, 1, 2, 3))
        start, end = (0, 1, 2, 3), (3, 1, 0, 2)
        path_a = bubble_path(start, end)
        path_b = SwapPath(start=start, end=end, steps=(1, 1) + path_a.steps)
        assignment = {0: 1, 1: 0, 2: 2, 3: 1}
        out_a = swap_decomposition(oracle, ctx, path_a, assignment)
        out_b = swap_decomposition(oracle, ctx, path_b, assignment)
        sum_a = sum(t.value for t in out_a.terms)
        sum_b = sum(t.value for t in out_b.terms)
        assert abs(sum_a - sum_b) < 1e-10
        assert len(out_a.terms) != len(out_b.terms)


class TestOrderConsistency:
    def test_exact_oracle_consistent(self):
        joint = random_joint(22, positions=3, vocab=3)
        report = order_consistency_check(joint, PartialContext({}, (0, 1, 2)))
        assert report.consistent
        assert report.max_order_gap < 1e-10
        assert report.max_curl < 1e-10
        assert report.witness is None

    def test_perturbed_oracle_inconsistent_with_witness(self):
        joint = random_joint(23, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 31)
        report = order_consistency_check(oracle, PartialContext({}, (0, 1, 2)))
        assert not report.consistent
        assert report.witness is not None
        check = curl_local(oracle, report.witness.context, report.witness.i, report.witness.j,
                           report.witness.a, report.witness.b)
        assert abs(check.value) >= report.tol

    def test_verdicts_agree_on_random_models(self):
        for k in range(25):
            joint = random_joint(800 + k, positions=3, vocab=3)
            oracle = random_oracle(k, joint, delta=0.5 if k % 2 else None)
            report = order_consistency_check(oracle, PartialContext({}, (0, 1, 2)))
            assert report.order_gap_consistent == report.curl_consistent

    def test_block_size_cap_refused(self):
        big = random_joint(25, positions=6, vocab=2)
        with pytest.raises(SizeCapError):
            order_consistency_check(big, PartialContext({}, tuple(range(6))))


def test_curl_scan_witness_needs_circulation_on_the_tie_grid():
    joint = random_joint(3, positions=3, vocab=3)
    ctx = PartialContext({}, (0, 1, 2))
    for delta, witnesses in ((1e-15, 0), (1e-9, 1)):
        report = curl_scan_report(PerturbedConditionalModel(joint, delta, 5), ctx)
        assert report["stats"]["max_curl"] > 0.0
        assert len(report["witnesses"]) == witnesses


def test_curl_scan_report_shape():
    joint = random_joint(26, positions=3, vocab=3)
    oracle = PerturbedConditionalModel(joint, 0.4, 8)
    ctx = PartialContext({}, (0, 1, 2))
    report = curl_scan_report(oracle, ctx, ExhaustivePlan())
    assert set(report["stats"]) == {"ecirc_abs", "ecirc_abs_stderr", "ecirc_norm", "max_curl", "order_swap_kl"}
    assert len(report["samples"]) == 3 * 9
    assert report["stats"]["max_curl"] == max(abs(s["value"]) for s in report["samples"])
    assert set(report["stats"]["order_swap_kl"]) == {"0-1", "0-2", "1-2"}


def _scalar_consistency_scan(oracle, context, tol):
    """Reference square loop: one curl_local call per reachable square; also
    returns every square's squared normalized circulation, in scan order."""
    block = sorted(context.block)
    vocab = oracle.vocab.size
    max_curl, witness, squares, penalties = 0.0, None, 0, []
    for size in range(len(block) - 1):
        for visible in itertools.combinations(block, size):
            rest = [p for p in block if p not in visible]
            for values in itertools.product(range(vocab), repeat=size):
                ctx = context
                for p, v in zip(visible, values):
                    ctx = ctx.assign(p, v)
                for i, j in itertools.combinations(rest, 2):
                    for a in range(vocab):
                        for b in range(vocab):
                            squares += 1
                            sample = curl_local(oracle, ctx, i, j, a, b)
                            max_curl = max(max_curl, abs(sample.value))
                            penalties.append(sample.normalized_value**2)
                            if witness is None and abs(sample.value) >= tol:
                                witness = sample
    return max_curl, squares, witness, np.array(penalties)


class TestSquareEngineMatchesScalarReference:
    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(["perturbed", "logit-table"]),
        seed=st.integers(0, 10_000),
        positions=st.integers(2, 4),
        vocab=st.integers(2, 4),
        tol=st.sampled_from([1e-8, 0.05, 0.3, 10.0]),
    )
    def test_grid_scans_equal_curl_local(self, kind, seed, positions, vocab, tol):
        joint = random_joint(seed, positions, vocab)
        if kind == "perturbed":
            oracle = PerturbedConditionalModel(joint, 0.4, seed)
        else:
            oracle = LogitTableOracle(LogitTable.random(vocab, positions, seed))
        ctx = random_context(seed, joint)

        for plan in (ExhaustivePlan(), MonteCarloPlan(seed=seed, n=20)):
            for sample in iter_plan_samples(oracle, ctx, plan):
                reference = curl_local(oracle, ctx, sample.i, sample.j, sample.a, sample.b)
                assert sample.value == reference.value
                assert sample.normalized_value == reference.normalized_value

        report = order_consistency_check(oracle, ctx, tol)
        tables = np.stack([pseudo_joint_table(oracle, ctx, perm) for perm in itertools.permutations(ctx.block)])
        assert report.max_order_gap == float((tables.max(axis=0) - tables.min(axis=0)).max())
        assert report.permutations_checked == len(tables)
        max_curl, squares, witness, _ = _scalar_consistency_scan(oracle, ctx, tol)
        assert report.max_curl == max_curl
        assert report.squares_checked == squares
        assert report.witness == witness

        all_free = PartialContext({}, tuple(range(positions)))
        penalties = _scalar_consistency_scan(oracle, all_free, tol)[3]
        assert ecirc_penalty(oracle, ExhaustivePlan()).value == penalties.mean()

    def test_fault_in_one_term_trips_both_identities(self, monkeypatch):
        exact_terms = pseudojoint._pair_terms

        def faulty_terms(*args):
            t0, t1, t2, t3 = exact_terms(*args)
            return t0, t1 + 1e-9, t2, t3

        monkeypatch.setattr(pseudojoint, "_pair_terms", faulty_terms)
        joint = random_joint(32, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        with pytest.raises(RuntimeError, match="circulation cross-check"):
            order_consistency_check(joint, ctx)
        with pytest.raises(RuntimeError, match="circulation cross-check"):
            ecirc_abs(joint, ctx, ExhaustivePlan())
        with pytest.raises(RuntimeError, match="order-swap KL cross-check"):
            order_swap_kl(joint, ctx, 0, 1)
