import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fault_lattice_steps, random_context, random_joint, random_oracle
from curlgauge import pseudojoint
from curlgauge.core import (
    ConditionalOracle,
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    context_class_index,
    kl,
    seeded_rng,
)
from curlgauge.errors import ContractViolationError
from curlgauge.pseudojoint import (
    ExhaustivePlan,
    MonteCarloPlan,
    PseudoJointSpec,
    SwapPath,
    SwapTerm,
    apply_swap_steps,
    bubble_path,
    curl_local,
    curl_scan_report,
    ecirc_abs,
    order_consistency_check,
    order_swap_kl,
    pseudo_joint_log_prob,
    pseudo_joint_table,
    random_walk_path,
    swap_decomposition,
)


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
        assert pseudo_joint_log_prob(joint, spec, {1: 0}) == float(joint.log_dist(1, ctx.observed)[0])

    def test_exact_oracle_matches_brute_force_chain_rule(self):
        joint = random_joint(2, positions=4, vocab=3)
        ctx = PartialContext(observed={0: 2}, block=(1, 2, 3))
        table = np.exp(joint.log_mass.reshape((3,) * 4))
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
        assert sample.normalized_value == pytest.approx(0.0, abs=1e-10)

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

    def test_empty_block_pair_set_rejected(self):
        joint = random_joint(15)
        with pytest.raises(ContractViolationError):
            ecirc_abs(joint, PartialContext({0: 0, 1: 0}, (2,)), ExhaustivePlan())

    def test_exhaustive_grids_equal_the_per_sample_mean(self):
        for k in range(120):
            rng = np.random.default_rng(k)
            joint = random_joint(k, positions=int(rng.integers(4, 7)), vocab=int(rng.integers(2, 5)))
            oracle = random_oracle(k, joint, None if k % 2 else 0.2 + float(rng.random()))
            ctx = random_context(k, joint)
            pairs = itertools.combinations(sorted(ctx.block), 2)
            squares = itertools.product(pairs, range(joint.vocab.size), range(joint.vocab.size))
            values = np.array([abs(curl_local(oracle, ctx, i, j, a, b).value) for (i, j), a, b in squares])
            est = ecirc_abs(oracle, ctx, ExhaustivePlan())
            assert (est.value, est.n, est.mode) == (float(values.mean()), len(values), "exact"), k

    def test_one_sample_has_no_stderr(self):
        joint = random_joint(16, positions=3, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.5, 16)
        ctx = PartialContext({}, (0, 1, 2))
        est = ecirc_abs(oracle, ctx, MonteCarloPlan(seed=1, n=1))
        assert (est.stderr, est.n) == (None, 1)
        assert order_swap_kl(oracle, ctx, 0, 1, mode=MonteCarloPlan(seed=1, n=1)).stderr is None


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


    def test_order_gap_entries_equal_both_directions_of_order_swap_kl(self):
        for k in range(60):
            rng = np.random.default_rng(k)
            joint = random_joint(900 + k, positions=int(rng.integers(3, 7)), vocab=int(rng.integers(2, 9)))
            oracle = random_oracle(k, joint, 0.2 + float(rng.random()))
            ctx = random_context(k, joint)
            plan = MonteCarloPlan(seed=k, n=25)
            for e in pseudojoint.order_gap_entries(oracle, ctx, plan):
                i, j = e["i"], e["j"]
                mc = order_swap_kl(oracle, ctx, i, j, mode=plan)
                assert e["kl_ij"] == order_swap_kl(oracle, ctx, i, j).value, k
                assert e["kl_ji"] == order_swap_kl(oracle, ctx, j, i).value, k
                assert (e["mc_value"], e["mc_stderr"], e["mc_n"]) == (mc.value, mc.stderr, mc.n), k


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

    def test_residual_adds_the_swap_terms_left_to_right(self, monkeypatch):
        # 1e16 + 1.0 rounds back to 1e16, so left to right the terms add to 0.0; a
        # compensated sum (the builtin sum from Python 3.12) would give 1.0
        values = iter([1e16, 1.0, -1e16])

        def circulation(oracle, context, i, j, a, b):
            return SimpleNamespace(value=next(values))

        monkeypatch.setattr(pseudojoint, "curl_local", circulation)
        joint = random_joint(22, positions=3, vocab=3)
        path = SwapPath(start=(0, 1, 2), end=(1, 0, 2), steps=(1, 2, 2))
        out = swap_decomposition(joint, PartialContext({}, (0, 1, 2)), path, {0: 1, 1: 0, 2: 2})
        assert [t.value for t in out.terms] == [1e16, 1.0, -1e16]
        assert out.residual == out.log_gap

    def test_out_of_range_token_rejected_before_any_gather(self, monkeypatch):
        def no_gather(*args):
            raise AssertionError("a square was gathered for an out-of-range token")

        monkeypatch.setattr(pseudojoint, "curl_local", no_gather)
        joint = random_joint(23, positions=3, vocab=3)
        path = SwapPath(start=(0, 1, 2), end=(0, 2, 1), steps=(2,))  # the swap's prefix is (0,)
        for tok in (-1, 3):
            with pytest.raises(ContractViolationError, match="outside vocabulary"):
                swap_decomposition(joint, PartialContext({}, (0, 1, 2)), path, {0: tok, 1: 0, 2: 1})

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

    def test_six_position_block_matches_brute_force(self):
        joint = random_joint(25, positions=6, vocab=2)
        ctx = PartialContext({}, tuple(range(6)))
        for oracle in (joint, PerturbedConditionalModel(joint, 0.4, 25)):
            report = order_consistency_check(oracle, ctx)
            tables = np.stack([pseudo_joint_table(oracle, ctx, perm) for perm in itertools.permutations(ctx.block)])
            gap = float((tables.max(axis=0) - tables.min(axis=0)).max())
            assert (report.max_order_gap, report.permutations_checked) == (gap, 720)
            assert report.consistent == (gap < report.tol)
            # per visible subset size s: C(6, s) subsets, 2**s values, C(6 - s, 2) pairs, 2**2 token pairs
            assert report.squares_checked == sum(math.comb(6, s) * 2**s * math.comb(6 - s, 2) * 4 for s in range(5))


def test_curl_scan_witness_needs_circulation_on_the_tie_grid():
    joint = random_joint(3, positions=3, vocab=3)
    ctx = PartialContext({}, (0, 1, 2))
    for delta, witnesses in ((1e-15, 0), (1e-9, 1)):
        report = curl_scan_report(PerturbedConditionalModel(joint, delta, 5), ctx, model_id="test")
        assert report["stats"]["max_curl"] > 0.0
        assert len(report["witnesses"]) == witnesses


def test_curl_scan_report_shape():
    joint = random_joint(26, positions=3, vocab=3)
    oracle = PerturbedConditionalModel(joint, 0.4, 8)
    ctx = PartialContext({}, (0, 1, 2))
    report = curl_scan_report(oracle, ctx, ExhaustivePlan(), model_id="test")
    assert report["model_id"] == "test"
    assert set(report["stats"]) == {"ecirc_abs", "ecirc_abs_stderr", "ecirc_norm", "max_curl", "order_swap_kl"}
    assert len(report["samples"]) == 3 * 9
    assert report["stats"]["max_curl"] == max(abs(s["value"]) for s in report["samples"])
    assert set(report["stats"]["order_swap_kl"]) == {"0-1", "0-2", "1-2"}


def test_curl_scan_gathers_each_block_pair_once(monkeypatch):
    oracle = PerturbedConditionalModel(random_joint(27, positions=6, vocab=3), 0.4, 27)
    counts = _count_gathers(monkeypatch, oracle)
    curl_scan_report(oracle, PartialContext({}, tuple(range(6))), model_id="test")
    # one lattice: each of the 6 positions given nothing and given each of the 5 others; then
    # the circulation check's and the swap-KL check's two pair tables of two steps each
    assert counts["log_rows"] == 36 + 4 + 4


def _count_gathers(monkeypatch, oracle) -> Counter:
    """Count the oracle's row gathers from here on."""
    counts, gather = Counter(), oracle.log_rows

    def counted(*args):
        counts["log_rows"] += 1
        return gather(*args)

    monkeypatch.setattr(oracle, "log_rows", counted)
    return counts


def test_consistency_gathers_each_lattice_step_once(monkeypatch):
    for positions in (2, 4, 5):
        oracle = PerturbedConditionalModel(random_joint(28, positions=positions, vocab=2), 0.4, 28)
        counts = _count_gathers(monkeypatch, oracle)
        report = order_consistency_check(oracle, PartialContext({}, tuple(range(positions))[::-1]))
        # the m 2^(m-1) lattice steps, four reference gathers for each visible subset that leaves
        # a pair (2^m - m - 1 of them), and the eight of the witness's curl_local
        assert report.witness is not None
        steps, subsets = positions * 2 ** (positions - 1), 2**positions - positions - 1
        assert counts["log_rows"] == steps + 4 * subsets + 8, positions


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["tabular", "perturbed", "logit-table"]),
    seed=st.integers(0, 10_000),
    positions=st.integers(2, 5),
    vocab=st.integers(2, 4),
    data=st.data(),
)
def test_pair_records_equal_the_reference_pair_tables(kind, seed, positions, vocab, data):
    joint = random_joint(seed, positions, vocab)
    oracle = {
        "tabular": joint,
        "perturbed": PerturbedConditionalModel(joint, 0.4, seed),
        "logit-table": LogitTableOracle(LogitTable.random(vocab, positions, seed)),
    }[kind]
    ctx = random_context(seed, joint)
    # the lattice's axes follow the block tuple, which need not be sorted
    ctx = PartialContext(ctx.observed, tuple(data.draw(st.permutations(ctx.block))))
    visible = tuple(sorted(data.draw(st.sets(st.sampled_from(ctx.block), max_size=len(ctx.block) - 2))))
    rest = [p for p in ctx.block if p not in visible]
    lattice = pseudojoint.StepLattice(oracle, ctx)
    for i, j in data.draw(st.permutations(list(itertools.permutations(rest, 2))))[:3]:
        record = pseudojoint._pair_circulation(lattice, visible, i, j)
        # the four terms as four gathers of their own, leading axis over the visible values:
        # the record's terms are views of its lattice steps with these values
        free, obs = list(visible), ctx.observed
        t0 = oracle.log_rows(i, oracle.class_grid(i, obs, free)).reshape(-1, vocab, 1)
        t1 = oracle.log_rows(j, oracle.class_grid(j, obs, free + [i])).reshape(-1, vocab, vocab)
        t2 = oracle.log_rows(j, oracle.class_grid(j, obs, free)).reshape(-1, 1, vocab)
        t3 = oracle.log_rows(i, oracle.class_grid(i, obs, free + [j])).reshape(-1, vocab, vocab).swapaxes(1, 2)
        for term, reference, step in zip(record.terms, (t0, t1, t2, t3), ((i, ()), (j, (i,)), (j, ()), (i, (j,)))):
            assert np.array_equal(term.reshape(reference.shape), reference)
            assert np.shares_memory(term, lattice[step[0], visible + step[1]])
        value = (t0 + t1) - (t2 + t3)
        assert np.array_equal(record.value, value) and record.value.flags.c_contiguous
        # with nothing visible: both swap KLs are those of the reference pair tables, the j-first
        # one over tables built on (j, i) axes
        ij, ji = (pseudo_joint_table(oracle, PartialContext(obs, (i, j)), pair) for pair in ((i, j), (j, i)))
        ij_t, ji_t = (pseudo_joint_table(oracle, PartialContext(obs, (j, i)), pair) for pair in ((i, j), (j, i)))
        (kls,) = pseudojoint._swap_kls(oracle, ctx, [(i, j)], [pseudojoint._pair_circulation(lattice, (), i, j)])
        assert kls == (float(kl(ij, ji)), float(kl(ji_t, ij_t)))
    # plan_squares' normalised circulation is curl_local's, square by square
    epsilon = data.draw(st.sampled_from([1e-6, 0.01]))
    pairs = pseudojoint._block_pairs(ctx)
    k, a, b, _, normalized, _ = pseudojoint.plan_squares(oracle, ctx, ExhaustivePlan(), epsilon)
    for p, x, y, nv in zip(k.tolist(), a.tolist(), b.tolist(), normalized.tolist()):
        assert nv == curl_local(oracle, ctx, *pairs[p], x, y, epsilon).normalized_value
    assert all(step.flags.c_contiguous for step in lattice._steps.values())


def test_monte_carlo_plan_draws_pair_then_a_then_b():
    for seed in range(12):
        joint = random_joint(seed, positions=int(2 + seed % 4), vocab=int(2 + seed % 3))
        oracle = PerturbedConditionalModel(joint, 0.5, seed)
        ctx = random_context(seed, joint)
        vocab, epsilon, n = joint.vocab.size, 0.01, 1 + 7 * seed
        pairs = list(itertools.combinations(sorted(ctx.block), 2))
        rng, expected = seeded_rng(seed), []
        for _ in range(n):
            i, j = pairs[rng.integers(len(pairs))]
            a = rng.integers(vocab)
            b = rng.integers(vocab)
            expected.append((i, j, int(a), int(b)))
        report = curl_scan_report(oracle, ctx, MonteCarloPlan(seed=seed, n=n), epsilon, model_id="test")
        assert [(s["i"], s["j"], s["a"], s["b"]) for s in report["samples"]] == expected
        for s in report["samples"]:
            reference = curl_local(oracle, ctx, s["i"], s["j"], s["a"], s["b"], epsilon)
            assert (s["value"], s["normalized_value"]) == (reference.value, reference.normalized_value)


def _scalar_consistency_scan(oracle, context, tol):
    """Reference square loop: one curl_local call per reachable square."""
    block = sorted(context.block)
    vocab = oracle.vocab.size
    max_curl, witness, squares = 0.0, None, 0
    for size in range(len(block) - 1):
        for visible in itertools.combinations(block, size):
            rest = [p for p in block if p not in visible]
            for values in itertools.product(range(vocab), repeat=size):
                observed = {**context.observed, **dict(zip(visible, values))}
                ctx = PartialContext(observed, tuple(p for p in context.block if p not in observed), context.time)
                for i, j in itertools.combinations(rest, 2):
                    for a in range(vocab):
                        for b in range(vocab):
                            squares += 1
                            sample = curl_local(oracle, ctx, i, j, a, b)
                            max_curl = max(max_curl, abs(sample.value))
                            if witness is None and abs(sample.value) >= tol:
                                witness = sample
    return max_curl, squares, witness


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
            for sample in curl_scan_report(oracle, ctx, plan, model_id="test")["samples"]:
                reference = curl_local(oracle, ctx, sample["i"], sample["j"], sample["a"], sample["b"])
                assert sample["value"] == reference.value
                assert sample["normalized_value"] == reference.normalized_value

        report = order_consistency_check(oracle, ctx, tol)
        tables = np.stack([pseudo_joint_table(oracle, ctx, perm) for perm in itertools.permutations(ctx.block)])
        assert report.max_order_gap == float((tables.max(axis=0) - tables.min(axis=0)).max())
        assert report.permutations_checked == len(tables)
        max_curl, squares, witness = _scalar_consistency_scan(oracle, ctx, tol)
        assert report.max_curl == max_curl
        assert report.squares_checked == squares
        assert report.witness == witness

    def test_fault_in_one_term_trips_both_identities(self, monkeypatch):
        fault_lattice_steps(monkeypatch)
        joint = random_joint(32, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        with pytest.raises(RuntimeError, match="circulation cross-check"):
            order_consistency_check(joint, ctx)
        with pytest.raises(RuntimeError, match="circulation cross-check"):
            ecirc_abs(joint, ctx, ExhaustivePlan())
        # order_swap_kl reads a pair record, whose circulation check fires before the KL check
        with pytest.raises(RuntimeError, match="circulation cross-check"):
            order_swap_kl(joint, ctx, 0, 1)

    def test_reference_check_reads_the_grid_of_the_largest_circulation(self):
        # block (0, 1, 2, 3) with 0 visible: three pairs over the 3 values of position 0
        oracle = PerturbedConditionalModel(random_joint(30, positions=4, vocab=3), 0.4, 30)
        ctx, visible, pairs = PartialContext({}, (0, 1, 2, 3)), (0,), [(1, 2), (1, 3), (2, 3)]
        records = pseudojoint._subset_records(pseudojoint.StepLattice(oracle, ctx), visible, pairs)
        peaks = np.array([np.abs(r.value).max(axis=(1, 2)) for r in records])
        k, v = np.unravel_index(peaks.argmax(), peaks.shape)
        assert (k, v) == (2, 1)

        def records_with_fault(pair, value):
            # q(i | 0, j) is read by the pair (i, j) alone among this subset's records
            i, j = pairs[pair]
            lattice = pseudojoint.StepLattice(oracle, ctx)
            lattice[i, (0, j)][value] += 1e-9
            return pseudojoint._subset_records(lattice, visible, pairs)

        with pytest.raises(RuntimeError, match="circulation cross-check"):
            records_with_fault(k, v)
        # a fault away from the largest |circulation| is not seen: the declared cost of one check per subset
        records_with_fault(k, 0)
        records_with_fault(0, v)

    def test_fault_in_the_kl_trips_only_the_swap_kl_check(self, monkeypatch):
        exact_kl = pseudojoint.kl
        monkeypatch.setattr(pseudojoint, "kl", lambda *args: exact_kl(*args) + 1e-9)
        joint = random_joint(33, positions=3, vocab=3)
        ctx = PartialContext({}, (0, 1, 2))
        assert order_consistency_check(joint, ctx).consistent
        assert ecirc_abs(joint, ctx, ExhaustivePlan()).value < 1e-10
        with pytest.raises(RuntimeError, match="order-swap KL cross-check"):
            order_swap_kl(joint, ctx, 0, 1)
        with pytest.raises(RuntimeError, match="order-swap KL cross-check"):
            curl_scan_report(joint, ctx, model_id="test")

    def test_fault_in_the_steps_given_nothing_trips_only_the_swap_kl_check(self, monkeypatch):
        # 1e-6 on every step given nothing cancels in each circulation (t0 - t2) but scales each pair
        # table, and so its swap KL, by e^1e-6; an exact oracle's swap KLs are 0, so a perturbed one is used
        oracle = PerturbedConditionalModel(random_joint(34, positions=3, vocab=3), 0.4, 34)
        ctx = PartialContext({}, (0, 1, 2))
        consistency, circulation = order_consistency_check(oracle, ctx), ecirc_abs(oracle, ctx).value
        exact_step = pseudojoint.StepLattice.__getitem__
        monkeypatch.setattr(
            pseudojoint.StepLattice, "__getitem__", lambda lattice, step: exact_step(lattice, step) + (0.0 if step[1] else 1e-6)
        )
        faulted = order_consistency_check(oracle, ctx)
        assert (faulted.consistent, faulted.witness) == (consistency.consistent, consistency.witness)
        assert faulted.max_curl == pytest.approx(consistency.max_curl, abs=1e-12)
        assert faulted.max_order_gap == pytest.approx(consistency.max_order_gap, abs=1e-12)
        assert ecirc_abs(oracle, ctx).value == pytest.approx(circulation, abs=1e-12)
        with pytest.raises(RuntimeError, match="order-swap KL cross-check"):
            order_swap_kl(oracle, ctx, 0, 1)
        with pytest.raises(RuntimeError, match="order-swap KL cross-check"):
            pseudojoint.order_gap_entries(oracle, ctx, None)
        with pytest.raises(RuntimeError, match="order-swap KL cross-check"):
            curl_scan_report(oracle, ctx, model_id="test")


def _scalar_swap_walk(oracle, context, path, assignment):
    """Reference decomposition: one curl_local call per swap, at the context extended
    by the swap's prefix, and the endpoint gap less the terms added left to right."""
    terms, current = [], list(path.start)
    for k in path.steps:
        i, j = current[k - 1], current[k]
        prefix = tuple(current[: k - 1])
        observed = {**context.observed, **{p: assignment[p] for p in prefix}}
        ctx = PartialContext(observed, tuple(p for p in context.block if p not in observed), context.time)
        value = curl_local(oracle, ctx, i, j, assignment[i], assignment[j]).value
        terms.append(SwapTerm(i=i, j=j, a=assignment[i], b=assignment[j], prefix=prefix, value=value))
        current[k - 1], current[k] = current[k], current[k - 1]
    log_gap = pseudo_joint_log_prob(oracle, PseudoJointSpec(context, path.start), assignment) - pseudo_joint_log_prob(
        oracle, PseudoJointSpec(context, path.end), assignment
    )
    swap_sum = 0.0
    for term in terms:
        swap_sum += term.value
    return tuple(terms), log_gap, log_gap - swap_sum


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["tabular", "perturbed"]),
    seed=st.integers(0, 10_000),
    positions=st.integers(2, 5),
    vocab=st.integers(2, 4),
    length=st.integers(0, 8),
)
def test_swap_decomposition_equals_scalar_walk(kind, seed, positions, vocab, length):
    joint = random_joint(seed, positions, vocab)
    oracle = joint if kind == "tabular" else PerturbedConditionalModel(joint, 0.4, seed)
    ctx = random_context(seed, joint)
    path = random_walk_path(ctx.block, length, seed)
    rng = np.random.default_rng(seed)
    assignment = {p: int(rng.integers(vocab)) for p in ctx.block}
    out = swap_decomposition(oracle, ctx, path, assignment)
    assert (out.terms, out.log_gap, out.residual) == _scalar_swap_walk(oracle, ctx, path, assignment)
