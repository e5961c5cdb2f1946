"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s` to see them live).  Tolerances are
pinned here and nowhere else; runtime limits are asserted where stated."""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import chi2

from curlgauge.cli import main as cli_main
from curlgauge.core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    _seed_key,
    derived_seed,
    seed_states,
    seeded_rng,
)
from curlgauge.decoding import (
    SchedulerSpec,
    commutator,
    context_row,
    draw_row,
    run_scheduler,
    sample_commit,
    stress_test,
)
from curlgauge.dependence import dependence_report, independent_parallel_gap, total_correlation
from curlgauge.ordererror import order_cross_entropy, rank_orders
from curlgauge.pseudojoint import (
    ExhaustivePlan,
    PseudoJointSpec,
    SwapPath,
    bubble_path,
    curl_local,
    ecirc_abs,
    order_consistency_check,
    order_swap_kl,
    pseudo_joint_log_prob,
    random_walk_path,
)
from curlgauge.reports import canonical_json
from curlgauge.synth import SyntheticTaskSpec, TrainConfig, generate_joint, train_tabular


@contextmanager
def criterion(name: str, limit_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None and elapsed >= limit_s:
        print(f"[FAIL] {name} (runtime {elapsed:.1f}s over the {limit_s:.0f}s limit)")
        pytest.fail(f"{name} exceeded its {limit_s:.0f}s runtime limit: {elapsed:.1f}s")
    print(f"[PASS] {name} ({elapsed:.2f}s)")


def mixed_oracle(k: int, joint: TabularJointModel):
    if k % 2 == 0:
        return joint
    return PerturbedConditionalModel(joint, 0.2 + 0.05 * (k % 13), derived_seed(4000, k))


def sized_joint(seed: int, k: int) -> TabularJointModel:
    rng = seeded_rng(seed, k)
    positions = int(rng.integers(2, 5))
    vocab = int(rng.integers(2, 5))
    return TabularJointModel(vocab, positions, rng.standard_normal(vocab**positions))


def test_criterion_1_curl_equals_product_log_ratio_and_kl_expectation():
    with criterion("1 local-circulation identities (200 models)", limit_s=10):
        for k in range(200):
            joint = sized_joint(1000, k)
            oracle = mixed_oracle(k, joint)
            m, vocab = joint.positions, joint.vocab.size
            ctx = PartialContext({}, tuple(range(m)))
            for i, j in itertools.combinations(range(m), 2):
                pair_ctx = PartialContext({}, (i, j))
                kl_expectation = 0.0
                for a, b in itertools.product(range(vocab), repeat=2):
                    sample = curl_local(oracle, ctx, i, j, a, b)
                    lp_ij = pseudo_joint_log_prob(oracle, PseudoJointSpec(pair_ctx, (i, j)), {i: a, j: b})
                    lp_ji = pseudo_joint_log_prob(oracle, PseudoJointSpec(pair_ctx, (j, i)), {i: a, j: b})
                    assert abs(sample.value - (lp_ij - lp_ji)) < 1e-12
                    kl_expectation += math.exp(lp_ij) * sample.value
                exact = order_swap_kl(oracle, ctx, i, j, mode="exact").value
                assert abs(exact - kl_expectation) < 1e-12


def test_criterion_2_swap_decomposition_and_path_independence():
    from curlgauge.pseudojoint import swap_decomposition

    with criterion("2 adjacent-swap decomposition (100 cases, |B|=4)", limit_s=10):
        for k in range(100):
            rng = seeded_rng(2000, k)
            vocab = int(rng.integers(2, 5))
            joint = TabularJointModel(vocab, 4, rng.standard_normal(vocab**4))
            oracle = mixed_oracle(k, joint)
            ctx = PartialContext({}, (0, 1, 2, 3))
            assignment = {p: int(rng.integers(vocab)) for p in ctx.block}

            walk = random_walk_path(ctx.block, length=int(rng.integers(1, 11)), seed=derived_seed(2000, k, 1))
            out = swap_decomposition(oracle, ctx, walk, assignment)
            assert abs(out.residual) < 1e-10

            end = tuple(rng.permutation(ctx.block).tolist())
            path_a = bubble_path(ctx.block, end)
            path_b = SwapPath(start=ctx.block, end=end, steps=(2, 2) + path_a.steps)
            sum_a = sum(t.value for t in swap_decomposition(oracle, ctx, path_a, assignment).terms)
            sum_b = sum(t.value for t in swap_decomposition(oracle, ctx, path_b, assignment).terms)
            assert abs(sum_a - sum_b) < 1e-10


def test_criterion_3_consistency_verdicts_agree():
    with criterion("3 order-consistency equivalence (100 models, |B|=3)", limit_s=30):
        for k in range(100):
            rng = seeded_rng(3000, k)
            vocab = int(rng.integers(2, 5))
            joint = TabularJointModel(vocab, 3, rng.standard_normal(vocab**3))
            perturbed = k % 2 == 1
            oracle = (
                PerturbedConditionalModel(joint, 0.3 + 0.5 * float(rng.random()), derived_seed(3000, k))
                if perturbed
                else joint
            )
            report = order_consistency_check(oracle, PartialContext({}, (0, 1, 2)), tol=1e-8)
            assert report.order_gap_consistent == report.curl_consistent
            if perturbed:
                assert not report.consistent
                assert report.witness is not None
                assert abs(report.witness.value) >= report.tol
            else:
                assert report.consistent
                assert report.witness is None


def test_criterion_4_exact_conditionals_are_circulation_free():
    with criterion("4 exact-oracle zero circulation (100 joints)", limit_s=10):
        for k in range(100):
            joint = sized_joint(4000, k)
            ctx = PartialContext({}, tuple(range(joint.positions)))
            worst = 0.0
            for i, j in itertools.combinations(range(joint.positions), 2):
                for a, b in itertools.product(range(joint.vocab.size), repeat=2):
                    worst = max(worst, abs(curl_local(joint, ctx, i, j, a, b).value))
            assert worst < 1e-10


def test_criterion_5_total_correlation_identities():
    with criterion("5 total-correlation identities (100 joints)", limit_s=10):
        for k in range(100):
            joint = sized_joint(5000, k)
            ctx = PartialContext({}, tuple(range(joint.positions)))
            report = dependence_report(joint, joint, ctx)
            assert abs(report.tc - (report.sum_marginal_entropies - report.joint_entropy)) < 1e-10
            assert abs(report.independent_parallel_kl - report.tc) < 1e-10
        bits = TabularJointModel.from_probabilities(np.array([[0.5, 0.0], [0.0, 0.5]]))
        tc = total_correlation(bits, PartialContext({}, (0, 1)))
        assert abs(tc - math.log(2)) < 1e-12


def test_criterion_6_order_error_identities():
    with criterion("6 order-error identities (100 triples)", limit_s=10):
        for k in range(100):
            joint = sized_joint(6000, k)
            oracle = mixed_oracle(k, joint)
            rng = seeded_rng(6000, k, 2)
            ctx = PartialContext({}, tuple(range(joint.positions)))
            order = tuple(rng.permutation(ctx.block).tolist())
            profile = order_cross_entropy(oracle, joint, ctx, order)
            assert abs(profile.cross_entropy - profile.conditional_entropy - profile.kl_total) < 1e-10
            assert abs(profile.kl_total - sum(profile.per_step_kl)) < 1e-10
            if oracle is joint:
                assert abs(profile.kl_total) < 1e-10


def test_criterion_7_logit_shift_invariance():
    with criterion("7 logit-shift invariance (50 cases)"):
        for k in range(50):
            rng = seeded_rng(7000, k)
            vocab = int(rng.integers(2, 4))
            positions = 3
            table = LogitTable.random(vocab, positions, seed=derived_seed(7000, k), scale=1.2)
            shifts = 3.0 * rng.standard_normal(table.logits.shape[:2])
            before = LogitTableOracle(table)
            after = LogitTableOracle(LogitTable(table.vocab, table.positions, table.logits + shifts[..., None]))
            joint = TabularJointModel(vocab, positions, rng.standard_normal(vocab**positions))
            ctx = PartialContext({}, (0, 1, 2))

            a, b = int(rng.integers(vocab)), int(rng.integers(vocab))
            s1, s2 = curl_local(before, ctx, 0, 2, a, b), curl_local(after, ctx, 0, 2, a, b)
            assert abs(s1.value - s2.value) < 1e-10
            assert abs(s1.normalized_value - s2.normalized_value) < 1e-10

            assert abs(order_swap_kl(before, ctx, 0, 1).value - order_swap_kl(after, ctx, 0, 1).value) < 1e-10

            gap1 = independent_parallel_gap(before, joint, ctx)
            gap2 = independent_parallel_gap(after, joint, ctx)
            assert abs(gap1 - gap2) < 1e-10

            rank1 = rank_orders(before, joint, ctx)
            rank2 = rank_orders(after, joint, ctx)
            assert [p.order for p in rank1] == [p.order for p in rank2]
            assert all(abs(x.kl_total - y.kl_total) < 1e-10 for x, y in zip(rank1, rank2))

            row = context_row(ctx, positions)
            draws = draw_row(sample_commit(), derived_seed(7000, k, 1), positions, ctx.block)
            c1 = commutator(before, row, ctx.block, sample_commit(), 0, 1, draws)
            c2 = commutator(after, row, ctx.block, sample_commit(), 0, 1, draws)
            assert abs(c1 - c2) < 1e-10


def test_criterion_8_sampler_reproduces_joint():
    with criterion("8 chain-rule sampler chi-square (50k runs)", limit_s=15):
        rng = np.random.default_rng(8)
        joint = TabularJointModel(4, 2, rng.standard_normal(16))
        ctx = PartialContext({}, (0, 1))
        n_runs = 50_000
        seeds = seed_states(_seed_key(8080) + [np.arange(n_runs)]).tolist()  # derived_seed(8080, k) for every k
        tokens = run_scheduler(joint, ctx, seeds, SchedulerSpec("left-to-right"), sample_commit(), 1).tokens
        counts = np.zeros((4, 4))
        np.add.at(counts, (tokens[:, 0], tokens[:, 1]), 1)
        expected = np.exp(joint.log_block_conditional(ctx)) * n_runs
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, 15)


def _random_mask_ecirc(oracle) -> float:
    """Mean absolute circulation over non-prefix visible patterns."""
    m, vocab = oracle.positions, oracle.vocab.size
    values = []
    for size in range(m - 1):
        for pattern in itertools.combinations(range(m), size):
            if pattern == tuple(range(size)):
                continue
            block = tuple(p for p in range(m) if p not in pattern)
            for vals in itertools.product(range(vocab), repeat=size):
                ctx = PartialContext(dict(zip(pattern, vals)), block)
                values.append(ecirc_abs(oracle, ctx, ExhaustivePlan()).value)
    return float(np.mean(values))


def test_criterion_9_mechanism_directions():
    with criterion("9 mechanism direction tests (3 x 20 seeds)", limit_s=30):
        trials = 20
        need = math.ceil(0.8 * trials)

        # (a) restricted mask coverage leaves circulation on unseen contexts
        wins = 0
        for seed in range(trials):
            joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=9100 + seed, beta=1.0))
            prefix, _ = train_tabular(joint, TrainConfig(coverage="prefix-only", steps=1200, learning_rate=1.5, seed=seed))
            full, _ = train_tabular(joint, TrainConfig(coverage="all-masks", steps=1200, learning_rate=1.5, seed=seed))
            wins += _random_mask_ecirc(prefix) > _random_mask_ecirc(full)
        print(f"  (a) prefix-only > all-masks random-mask circulation: {wins}/{trials}")
        assert wins >= need

        # (b) the circulation penalty reduces mean circulation
        wins = 0
        loss_deltas = []
        for seed in range(trials):
            joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=9200 + seed, beta=1.0))
            plain, plain_history = train_tabular(
                joint, TrainConfig(coverage="prefix-only", steps=1200, learning_rate=1.5, seed=seed)
            )
            regularized, regularized_history = train_tabular(
                joint,
                TrainConfig(
                    coverage="prefix-only", steps=1200, learning_rate=1.5, seed=seed,
                    ecirc_weight=5.0, ecirc_samples=64,
                ),
            )
            wins += _random_mask_ecirc(regularized) < _random_mask_ecirc(plain)
            loss_deltas.append(regularized_history["loss"][-1] - plain_history["loss"][-1])
        print(f"  (b) penalty lowers circulation: {wins}/{trials}; "
              f"mean denoising-loss change {float(np.mean(loss_deltas)):+.3e} (recorded, not asserted)")
        assert wins >= need

        # (c) one-shot parallel degradation grows with the dependence ladder
        wins = 0
        ladder = [
            generate_joint(SyntheticTaskSpec("tc-ladder", positions=3, vocab_size=3, level=level, levels_total=3))
            for level in (1, 2, 3)
        ]
        ctx = PartialContext({}, (0, 1, 2))
        for seed in range(trials):
            degradations = []
            for joint in ladder:
                report = stress_test(
                    joint, joint, [ctx], widths=[1, 3],
                    schedulers=[SchedulerSpec("left-to-right")],
                    operator=sample_commit(), runs=400, seed=derived_seed(9300, seed),
                )
                degradations.append([r.degradation for r in report.rows if r.width == 3][0])
            wins += degradations[0] < degradations[1] < degradations[2]
        print(f"  (c) degradation monotone on the dependence ladder: {wins}/{trials}")
        assert wins >= need


def test_criterion_10_bit_exact_reproducibility(tmp_path):
    with criterion("10 bit-exact reproducibility"):
        config = {
            "model": {
                "synthetic": {
                    "family": "chain", "positions": 3, "vocab_size": 3, "seed": 3, "beta": 0.9,
                    "perturbation": {"delta": 0.4, "seed": 5},
                }
            },
            "seed": 17,
            "contexts": {"sample": {"count": 3, "seed": 2}},
            "stress": {
                "widths": [1, 2],
                "schedulers": [{"kind": "left-to-right"}, {"kind": "confidence"}],
                "runs": 50,
            },
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        runner = CliRunner()
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            for out in ("a", "b"):
                result = runner.invoke(
                    cli_main, ["stress", "--config", "cfg.json", "--out", out], catch_exceptions=False
                )
                assert result.exit_code == 0
        finally:
            os.chdir(cwd)

        def content(path):
            report = json.loads(path.read_text(encoding="utf-8"))
            report.pop("meta", None)
            return canonical_json(report)

        assert content(tmp_path / "a" / "stress.json") == content(tmp_path / "b" / "stress.json")
        for name in os.listdir(tmp_path / "a"):
            if name.endswith(".csv"):
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
