import itertools
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_joint
from curlgauge.cli import main
from curlgauge.core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    TabularJointModel,
    Vocabulary,
    model_id,
    seeded_rng,
)
from curlgauge.dependence import total_correlation
from curlgauge.errors import ContractViolationError, TrainingFailureError
from curlgauge.pseudojoint import DEFAULT_NORMALIZER_EPSILON, curl_local, order_consistency_check
from curlgauge.synth import (
    _CHUNK_SQUARES,
    EXCHANGEABLE_COMPONENTS,
    SyntheticTaskSpec,
    TrainConfig,
    _covered_patterns,
    _index_squares,
    _square_steps,
    generate_joint,
    penalty_batch,
    square_sampler,
    train_tabular,
)


def _exchangeable_reference(spec: SyntheticTaskSpec) -> np.ndarray:
    """Log table of the exchangeable family, each state's mixture of products
    comp[v] ** count_v evaluated at the state itself."""
    m, vocab = spec.positions, spec.vocab_size
    rng = seeded_rng(spec.seed, 2)
    weights = np.exp(rng.standard_normal(EXCHANGEABLE_COMPONENTS))
    weights /= weights.sum()
    counts = np.stack([(np.indices((vocab,) * m) == v).sum(axis=0) for v in range(vocab)])
    table = np.zeros((vocab,) * m)
    for c in range(EXCHANGEABLE_COMPONENTS):
        comp = np.exp(rng.standard_normal(vocab))
        comp /= comp.sum()
        prod = np.ones((vocab,) * m)
        for v in range(vocab):
            prod = prod * np.power(comp[v], counts[v])
        table = table + weights[c] * prod
    with np.errstate(divide="ignore"):
        return np.log(table)


def _chain_reference(spec: SyntheticTaskSpec) -> np.ndarray:
    """Log table of the chain family, every term added over the full table."""
    m, vocab = spec.positions, spec.vocab_size
    rng = seeded_rng(spec.seed, 1)
    log_table = np.zeros((vocab,) * m)
    for k in range(m):
        shape = [1] * m
        shape[k] = vocab
        log_table = log_table + rng.standard_normal(vocab).reshape(shape)
    for k in range(m - 1):
        shape = [1] * m
        shape[k] = shape[k + 1] = vocab
        log_table = log_table + spec.beta * rng.standard_normal((vocab, vocab)).reshape(shape)
    return log_table


_REFERENCES = {"exchangeable": _exchangeable_reference, "chain": _chain_reference}


def _reference_joint(spec: SyntheticTaskSpec) -> TabularJointModel:
    return TabularJointModel(spec.vocab_size, spec.positions, _REFERENCES[spec.family](spec))


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(_REFERENCES)),
    positions=st.integers(1, 6),
    vocab=st.integers(2, 8),
    seed=st.integers(0, 2**32),
    beta=st.sampled_from([0.0, 0.8, -1.7, 3.0]),
)
@example(family="exchangeable", positions=6, vocab=8, seed=301, beta=1.0)
@example(family="exchangeable", positions=6, vocab=8, seed=709, beta=1.0)
@example(family="chain", positions=6, vocab=8, seed=709, beta=0.8)
def test_generated_joints_equal_the_full_table_formulas(family, positions, vocab, seed, beta):
    spec = SyntheticTaskSpec(family, positions=positions, vocab_size=vocab, seed=seed, beta=beta)
    joint, reference = generate_joint(spec), _reference_joint(spec)
    assert joint.log_mass.tobytes() == reference.log_mass.tobytes()
    assert model_id(joint, joint) == model_id(reference, reference)


def test_exchangeable_joints_equal_the_np_unique_index():
    """The level-wise count-vector index gives the bits of the np.unique index it replaced, at every size."""
    for m, vocab in itertools.product(range(1, 7), range(2, 9)):
        spec = SyntheticTaskSpec("exchangeable", positions=m, vocab_size=vocab, seed=m * 10 + vocab)
        rng = seeded_rng(spec.seed, 2)
        weights = np.exp(rng.standard_normal(EXCHANGEABLE_COMPONENTS))
        weights /= weights.sum()
        powers = (m + 1) ** np.arange(vocab)
        distinct, inverse = np.unique(sum(powers.reshape((-1,) + (1,) * k) for k in range(m)), return_inverse=True)
        counts = distinct // powers[:, None] % (m + 1)
        table = np.zeros(len(distinct))
        for c in range(EXCHANGEABLE_COMPONENTS):
            comp = np.exp(rng.standard_normal(vocab))
            comp /= comp.sum()
            prod = np.ones(len(distinct))
            for v in range(vocab):
                prod = prod * np.power(comp[v], counts[v])
            table = table + weights[c] * prod
        with np.errstate(divide="ignore"):
            old = TabularJointModel(vocab, m, np.log(table[inverse].reshape((vocab,) * m)))
        assert generate_joint(spec).log_mass.tobytes() == old.log_mass.tobytes(), (m, vocab)


@pytest.mark.parametrize("family", sorted(_REFERENCES))
def test_synth_gen_model_files_equal_the_full_table_formulas(tmp_path, family):
    recipe = {"family": family, "positions": 6, "vocab_size": 5, "seed": 12, "beta": 0.8}
    (tmp_path / "gen.json").write_text(json.dumps({"model": {"synthetic": recipe}, "model_out": "gen_model.json"}))
    main(["synth-gen", "--config", str(tmp_path / "gen.json"), "--out", str(tmp_path / "out")], standalone_mode=False)
    saved = json.loads((tmp_path / "out" / "gen_model.json").read_text())
    reported = json.loads((tmp_path / "out" / "synth_gen.json").read_text())["model_id"]
    reference = _reference_joint(SyntheticTaskSpec(**recipe))
    assert np.array(saved["log_mass"]).tobytes() == reference.log_mass.tobytes()
    assert reported == model_id(reference, reference)


class TestGenerateJoint:
    def test_chain_zero_coupling_is_independent(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=4, beta=0.0))
        assert total_correlation(joint, PartialContext({}, (0, 1, 2))) < 1e-10

    def test_chain_coupling_strength_raises_dependence(self):
        tcs = [
            total_correlation(
                generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=4, beta=beta)),
                PartialContext({}, (0, 1, 2)),
            )
            for beta in (0.0, 0.5, 2.0)
        ]
        assert tcs[0] < tcs[1] < tcs[2]

    def test_exchangeable_exactly_permutation_invariant(self):
        for positions, vocab in [(4, 3), (5, 4)]:
            joint = generate_joint(SyntheticTaskSpec("exchangeable", positions=positions, vocab_size=vocab, seed=8))
            nd = joint.log_mass.reshape((vocab,) * positions)
            for perm in itertools.permutations(range(positions)):
                assert np.array_equal(nd, np.transpose(nd, perm))

    def test_ladder_tc_strictly_increasing(self):
        rungs = [
            generate_joint(SyntheticTaskSpec("tc-ladder", positions=3, vocab_size=3, level=level, levels_total=3))
            for level in (1, 2, 3)
        ]
        tcs = [total_correlation(j, PartialContext({}, (0, 1, 2))) for j in rungs]
        assert tcs[0] < tcs[1] < tcs[2]

    def test_identical_spec_identical_joint(self):
        spec = SyntheticTaskSpec("chain", positions=3, vocab_size=4, seed=77, beta=1.3)
        a, b = generate_joint(spec), generate_joint(spec)
        assert np.array_equal(a.log_mass, b.log_mass)

    def test_custom_table(self):
        spec = SyntheticTaskSpec(
            "custom-table", positions=2, vocab_size=2, table=tuple(math.log(p) for p in (0.4, 0.1, 0.2, 0.3))
        )
        joint = generate_joint(spec)
        assert np.exp(joint.log_mass.reshape(2, 2))[0, 0] == pytest.approx(0.4, abs=1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(ContractViolationError):
            SyntheticTaskSpec("tree", positions=3, vocab_size=3)

    def test_ladder_level_bounds(self):
        with pytest.raises(ContractViolationError):
            SyntheticTaskSpec("tc-ladder", positions=3, vocab_size=3, level=4, levels_total=3)


class TestEcircPenalty:
    """The trainer's squared-normalized-circulation penalty, ``penalty_batch``."""

    def test_exact_oracle_is_zero(self):
        positions, vocab = 3, 3
        joint = random_joint(1, positions=positions, vocab=vocab)
        logits = np.stack([joint.log_rows(p, np.arange((vocab + 1) ** (positions - 1))) for p in range(positions)])
        squares = _indexed(logits, *square_sampler(positions, vocab)(seeded_rng(1), 200))
        assert penalty_batch(_table_columns(logits), squares)[0] < 1e-12

    def test_invariant_under_logit_shift(self):
        table = LogitTable.random(3, 3, seed=3, scale=1.2)
        shifts = 2.0 * seeded_rng(4).standard_normal(table.logits.shape[:2])
        squares = _indexed(table.logits, *square_sampler(3, 3)(seeded_rng(5), 200))
        before = penalty_batch(_table_columns(table.logits), squares)[0]
        after = penalty_batch(_table_columns(table.logits + shifts[..., None]), squares)[0]
        assert abs(before - after) < 1e-10

    def test_batch_gradient_matches_finite_differences(self):
        positions, vocab = 3, 3
        rng = seeded_rng(77)
        logits = rng.standard_normal((positions, (vocab + 1) ** (positions - 1), vocab))
        squares = _indexed(logits, *square_sampler(positions, vocab)(rng, 10))
        grad = _dense_grad(logits, squares, penalty_batch(_table_columns(logits), squares)[1])
        eps = 1e-6
        for p, c, t in np.argwhere(grad != 0)[:40]:
            bumped = logits.copy()
            bumped[p, c, t] += eps
            dipped = logits.copy()
            dipped[p, c, t] -= eps
            up, _ = penalty_batch(_table_columns(bumped), squares)
            down, _ = penalty_batch(_table_columns(dipped), squares)
            numeric = (up - down) / (2 * eps)
            assert numeric == pytest.approx(grad[p, c, t], abs=1e-8)


class TestTrainTabular:
    def test_full_coverage_recovers_exact_conditionals(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=11, beta=0.8))
        oracle, _ = train_tabular(joint, TrainConfig(coverage="all-masks", steps=4000, learning_rate=1.5, seed=1))
        report = order_consistency_check(oracle, PartialContext({}, (0, 1, 2)))
        assert report.max_curl < 1e-3
        worst = 0.0
        for i in range(3):
            for size in range(3):
                for pattern in itertools.combinations([p for p in range(3) if p != i], size):
                    for values in itertools.product(range(3), repeat=size):
                        assigned = dict(zip(pattern, values))
                        p = np.exp(joint.log_dist(i, assigned))
                        kl = float((p * (np.log(p) - oracle.log_dist(i, assigned))).sum())
                        worst = max(worst, kl)
        assert worst < 1e-4

    def test_identical_config_identical_history(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=2, seed=12, beta=1.0))
        cfg = TrainConfig(coverage="prefix-only", steps=100, learning_rate=1.0, seed=4, ecirc_weight=1.0, ecirc_samples=16)
        (a, a_history), (b, b_history) = train_tabular(joint, cfg), train_tabular(joint, cfg)
        assert a_history["loss"] == b_history["loss"]
        assert np.array_equal(a.table.logits, b.table.logits)

    def test_divergence_raises_with_history(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=13, beta=0.5))
        with pytest.raises(TrainingFailureError) as err:
            train_tabular(joint, TrainConfig(coverage="all-masks", steps=5, learning_rate=1e308))
        assert err.value.history is not None
        assert len(err.value.history["loss"]) >= 1

    def test_fraction_coverage_validated(self):
        with pytest.raises(ContractViolationError):
            TrainConfig(coverage="fraction")
        cfg = TrainConfig(coverage="fraction", coverage_fraction=0.5, steps=50)
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=2, seed=14, beta=0.5))
        _, history = train_tabular(joint, cfg)
        assert len(history["loss"]) == 50

    def test_history_records_loss_and_penalty(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=2, seed=15, beta=1.0))
        cfg = TrainConfig(coverage="prefix-only", steps=200, learning_rate=1.0, seed=2, ecirc_weight=2.0, ecirc_samples=32)
        _, history = train_tabular(joint, cfg)
        assert history["penalty"][0] > history["penalty"][-1]
        assert all(math.isfinite(v) for v in history["loss"])

    def test_trained_oracle_normalized_everywhere(self):
        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=3, seed=16, beta=1.0))
        oracle, _ = train_tabular(joint, TrainConfig(coverage="prefix-only", steps=50, seed=3))
        ctx = PartialContext({}, (0, 1, 2))
        for i in range(3):
            assert abs(np.exp(oracle.log_dist(i, ctx.observed)).sum() - 1.0) < 1e-9

    def test_serialization_round_trip(self, tmp_path):
        from curlgauge.core import ModelBundle, load_model, save_model

        joint = generate_joint(SyntheticTaskSpec("chain", positions=3, vocab_size=2, seed=17, beta=0.7))
        config = TrainConfig(coverage="prefix-only", steps=60, seed=5)
        oracle, _ = train_tabular(joint, config)
        path = tmp_path / "trained.json"
        save_model(ModelBundle(oracle, joint, config.to_dict()), path)
        bundle = load_model(path)
        assigned = {0: 1}
        assert np.array_equal(bundle.oracle.log_dist(1, assigned), oracle.log_dist(1, assigned))
        assert np.array_equal(bundle.joint.log_mass, joint.log_mass)


def _log_normalize_reference(values):
    """Row normalization by numpy's row reductions, one row at a time."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    top = arr.max(axis=-1, keepdims=True)
    return arr - (np.log(np.exp(arr - top).sum(axis=-1, keepdims=True)) + top)


def _penalty_batch_reference(logits, pos_idx, cls_idx, tok_idx):
    """The penalty and its gradient, scattered with np.add.at."""
    n = len(pos_idx)
    rows = _log_normalize_reference(logits[pos_idx, cls_idx])
    chosen = tok_idx[:, :, None] == np.arange(rows.shape[2])
    lq = rows[chosen].reshape(n, 4)
    signs = np.array([1.0, 1.0, -1.0, -1.0])
    denom = np.abs(lq).sum(axis=1) + DEFAULT_NORMALIZER_EPSILON
    ratio = (lq @ signs) / denom
    dlq = (2.0 / n) * (ratio / denom)[:, None] * (signs + ratio[:, None] * (lq < 0))
    grad = np.zeros_like(logits)
    np.add.at(grad, (pos_idx, cls_idx), dlq[:, :, None] * (chosen - np.exp(rows)))
    return float(ratio @ ratio) / n, grad


def _table_columns(logits):
    """The logit table as V columns of its rows, in table order."""
    return logits.reshape(-1, logits.shape[2]).T.copy()


def _indexed(logits, pos, cls, tok):
    """One step's squares as indices into the columns of :func:`_table_columns`."""
    return next(_index_squares((pos * logits.shape[1] + cls)[None], tok[None], 0, logits.shape[2]))


def _dense_grad(logits, squares, block):
    """A penalty gradient block scattered back to the table's shape."""
    grad = np.zeros((logits.shape[2], logits.size // logits.shape[2]))
    grad[:, squares.touched] = block
    return grad.T.reshape(logits.shape)


def _train_reference(joint: TabularJointModel, config: TrainConfig) -> tuple[LogitTableOracle, dict]:
    """The dense trainer: every step gathers the covered cells by (position, class),
    scatters the cross-entropy gradient into a zero table with np.add.at, adds the
    penalty gradient and moves the whole table."""
    positions, vocab = joint.positions, joint.vocab.size
    rng = seeded_rng(config.seed, 7)
    logits = config.init_scale * rng.standard_normal((positions, (vocab + 1) ** (positions - 1), vocab))
    cells = [
        (i, joint.class_grid(i, {}, pattern).reshape(-1))
        for i in range(positions)
        for pattern in _covered_patterns(config, i, positions)
    ]
    cell_pos_arr = np.concatenate([np.full(cls.size, i) for i, cls in cells])
    cell_cls_arr = np.concatenate([cls for _, cls in cells])
    target_arr = np.concatenate([np.exp(joint.log_rows(i, cls)) for i, cls in cells])
    draw_squares = square_sampler(positions, vocab)
    penalty_rng = seeded_rng(config.seed, 9)
    history: dict = {"loss": [], "penalty": [], "grad_norm": []}
    for _ in range(config.steps):
        with np.errstate(over="ignore", invalid="ignore"):
            cell_rows = _log_normalize_reference(logits[cell_pos_arr, cell_cls_arr])
            loss = float(-(target_arr * cell_rows).sum(axis=1).mean())
        ce_grad = np.exp(cell_rows) - target_arr
        penalty_value = 0.0
        penalty_grad = np.zeros_like(logits)
        if config.ecirc_weight > 0:
            squares = draw_squares(penalty_rng, config.ecirc_samples)
            penalty_value, penalty_grad = _penalty_batch_reference(logits, *squares)
        if not (math.isfinite(loss) and math.isfinite(penalty_value)):
            raise TrainingFailureError(f"training loss became non-finite at step {len(history['loss'])}", history=history)
        update = np.zeros_like(logits)
        np.add.at(update, (cell_pos_arr, cell_cls_arr), ce_grad)
        update += config.ecirc_weight * penalty_grad
        grad_norm = float(np.abs(update).max())
        logits -= config.learning_rate * update
        history["loss"].append(loss)
        history["penalty"].append(penalty_value)
        history["grad_norm"].append(grad_norm)
        if not np.all(np.isfinite(logits)):
            raise TrainingFailureError(f"logits became non-finite at step {len(history['loss'])}", history=history)
        if grad_norm < config.grad_tol:
            break
    return LogitTableOracle(LogitTable(Vocabulary(vocab), positions, logits)), history


def _training_outcome(train, joint, config):
    """What a run leaves: its logits bytes and history, or its failure message and history."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            oracle, history = train(joint, config)
        except TrainingFailureError as err:
            return "failed", str(err), repr(err.history)
    return "trained", oracle.table.logits.tobytes(), repr(history)


_COVERAGES = [{"coverage": "prefix-only"}, {"coverage": "all-masks"}, {"coverage": "fraction", "coverage_fraction": 0.4}]


@settings(max_examples=70, deadline=None)
@given(
    positions=st.integers(2, 5),
    vocab=st.integers(2, 5),
    coverage=st.sampled_from(_COVERAGES),
    ecirc_weight=st.sampled_from([0.0, 0.7, 2.0, 50.0]),
    ecirc_samples=st.integers(1, 80),
    steps=st.integers(1, 12),
    learning_rate=st.sampled_from([0.5, 1.0, 3.0, 1e308]),
    init_scale=st.sampled_from([0.0, 1.0, 2.5, 1e308]),
    grad_tol=st.sampled_from([0.0, 1e-8, 0.05, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(positions=3, vocab=3, coverage=_COVERAGES[1], ecirc_weight=0.0, ecirc_samples=1, steps=5, learning_rate=1e308, init_scale=1.0, grad_tol=0.0, seed=0)
@example(positions=3, vocab=3, coverage=_COVERAGES[1], ecirc_weight=1.0, ecirc_samples=8, steps=5, learning_rate=1e308, init_scale=1.0, grad_tol=0.0, seed=0)
@example(positions=4, vocab=3, coverage=_COVERAGES[0], ecirc_weight=0.0, ecirc_samples=1, steps=3, learning_rate=1.0, init_scale=1e308, grad_tol=0.0, seed=3)
@example(positions=3, vocab=3, coverage=_COVERAGES[1], ecirc_weight=50.0, ecirc_samples=8, steps=5, learning_rate=1e308, init_scale=2.5, grad_tol=0.0, seed=0)
@example(positions=5, vocab=3, coverage=_COVERAGES[0], ecirc_weight=1.0, ecirc_samples=32, steps=12, learning_rate=1.0, init_scale=0.0, grad_tol=0.3, seed=4)
# penalized runs over three chunks of square draws and part of a fourth
@example(positions=3, vocab=3, coverage=_COVERAGES[0], ecirc_weight=2.0, ecirc_samples=80, steps=3 * (_CHUNK_SQUARES // 80) + 5, learning_rate=1.0, init_scale=1.0, grad_tol=0.0, seed=7)
@example(positions=4, vocab=2, coverage=_COVERAGES[2], ecirc_weight=0.7, ecirc_samples=3, steps=3 * (_CHUNK_SQUARES // 3) + 1, learning_rate=3.0, init_scale=2.5, grad_tol=0.0, seed=11)
# a grad_tol stop at step 14, two steps into the second chunk of 12 steps
@example(positions=3, vocab=3, coverage=_COVERAGES[1], ecirc_weight=0.7, ecirc_samples=80, steps=400, learning_rate=1.0, init_scale=1.0, grad_tol=0.05, seed=0)
# a non-finite failure at step 1 of a 12-step chunk
@example(positions=3, vocab=3, coverage=_COVERAGES[0], ecirc_weight=2.0, ecirc_samples=80, steps=3 * (_CHUNK_SQUARES // 80) + 5, learning_rate=1e308, init_scale=1.0, grad_tol=0.0, seed=5)
# signed zeros: every logit starts at +0.0 or -0.0
@example(positions=4, vocab=3, coverage=_COVERAGES[1], ecirc_weight=2.0, ecirc_samples=80, steps=3 * (_CHUNK_SQUARES // 80) + 5, learning_rate=0.5, init_scale=0.0, grad_tol=0.0, seed=9)
# the bench's train-prefix-only-penalty job
@example(positions=5, vocab=3, coverage=_COVERAGES[0], ecirc_weight=1.0, ecirc_samples=32, steps=200, learning_rate=1.0, init_scale=1.0, grad_tol=0.0, seed=201)
def test_train_tabular_equals_the_dense_trainer(positions, vocab, coverage, ecirc_weight, ecirc_samples, steps, learning_rate, init_scale, grad_tol, seed):
    joint = random_joint(seed % 1000, positions=positions, vocab=vocab)
    config = TrainConfig(**coverage, steps=steps, learning_rate=learning_rate, ecirc_weight=ecirc_weight, ecirc_samples=ecirc_samples, seed=seed, init_scale=init_scale, grad_tol=grad_tol)
    assert _training_outcome(train_tabular, joint, config) == _training_outcome(_train_reference, joint, config)


def test_penalty_batch_equals_the_scatter():
    for positions, vocab, n in [(2, 2, 1), (3, 3, 40), (4, 5, 64), (5, 3, 200)]:
        rng = seeded_rng(positions, vocab, n)
        logits = rng.standard_normal((positions, (vocab + 1) ** (positions - 1), vocab))
        squares = square_sampler(positions, vocab)(rng, n)
        indexed = _indexed(logits, *squares)
        value, block = penalty_batch(_table_columns(logits), indexed)
        want_value, want_grad = _penalty_batch_reference(logits, *squares)
        assert value == want_value
        assert _dense_grad(logits, indexed, block).tobytes() == want_grad.tobytes()


def test_chunked_square_draws_equal_the_per_step_draws():
    for positions, vocab, n in [(2, 2, 1), (3, 3, 80), (5, 3, 32), (4, 5, 7)]:
        draw = square_sampler(positions, vocab)
        per_chunk = _CHUNK_SQUARES // n
        steps, classes = 3 * per_chunk + per_chunk // 2 + 1, (vocab + 1) ** (positions - 1)
        # the held columns of a penalized run: the covered rows first, in any order
        column = seeded_rng(positions, vocab, 1).permutation(positions * classes)
        covered = len(column) // 3
        chunked_rng, want_rng = seeded_rng(n, 2), seeded_rng(n, 2)
        got = list(_square_steps(draw, chunked_rng, n, steps, column.reshape(positions, classes), covered, vocab))
        chunk = draw(seeded_rng(n, 2), n, steps)
        assert len(got) == steps
        for s, squares in enumerate(got):
            pos, cls, tok = draw(want_rng, n)
            assert all(np.array_equal(a[s], b) for a, b in zip(chunk, (pos, cls, tok)))
            rows, tok = column[pos * classes + cls].reshape(-1), tok.reshape(-1)
            touched = np.unique(rows)
            assert np.array_equal(squares.terms, rows)
            assert np.array_equal(squares.pick, tok * 4 * n + np.arange(4 * n))
            assert np.array_equal(squares.chosen, tok == np.arange(vocab)[:, None])
            assert np.array_equal(squares.touched, touched)
            assert squares.covered == (touched < covered).sum()
            assert np.array_equal(squares.bins, (np.arange(vocab)[:, None] * len(touched) + np.searchsorted(touched, rows)).reshape(-1))
        # the chunks drew exactly the per-step draws, and nothing more
        assert chunked_rng.integers(2**62) == want_rng.integers(2**62)


def _visible_of(position: int, cls: int, positions: int, vocab: int) -> dict:
    """The assignment whose context class, seen from ``position``, is ``cls``."""
    others = [p for p in range(positions) if p != position]
    digits = [cls // (vocab + 1) ** (len(others) - 1 - k) % (vocab + 1) for k in range(len(others))]
    return {p: d - 1 for p, d in zip(others, digits) if d}


def test_square_sampler_draws_read_the_terms_of_their_square():
    for positions, vocab in [(2, 2), (3, 3), (4, 2), (5, 4)]:
        oracle = LogitTableOracle(LogitTable.random(vocab, positions, seed=positions * vocab))
        for pos, cls, tok in zip(*square_sampler(positions, vocab)(seeded_rng(positions, vocab), 60)):
            i, j, a, b = int(pos[0]), int(pos[1]), int(tok[0]), int(tok[1])
            visible = _visible_of(i, int(cls[0]), positions, vocab)
            ctx = PartialContext(visible, tuple(p for p in range(positions) if p not in visible))
            read = tuple(float(oracle.log_rows(int(p), int(c))[t]) for p, c, t in zip(pos, cls, tok))
            assert read == curl_local(oracle, ctx, i, j, a, b).terms, (positions, vocab)


def test_square_sampler_weights_each_group_by_its_squares():
    # a group (visible subset, i, j) holds V**len(visible) * V**2 squares, so a uniform square
    # draws it with share V**len(visible) / total; each count must lie within 5 binomial sigmas
    n = 20_000
    for positions, vocab in [(3, 2), (4, 2), (4, 3)]:
        groups = {
            (visible, i, j): vocab ** len(visible)
            for size in range(positions - 1)
            for visible in itertools.combinations(range(positions), size)
            for i, j in itertools.combinations([p for p in range(positions) if p not in visible], 2)
        }
        total = sum(groups.values())
        for seed in range(3):
            pos, cls, _ = square_sampler(positions, vocab)(seeded_rng(seed, positions, vocab), n)
            counts = Counter(
                (tuple(sorted(_visible_of(int(p[0]), int(c[0]), positions, vocab))), int(p[0]), int(p[1]))
                for p, c in zip(pos, cls)
            )
            assert set(counts) <= set(groups)
            for group, weight in groups.items():
                share = weight / total
                assert abs(counts[group] - n * share) <= 5 * math.sqrt(n * share * (1 - share)), (positions, vocab, seed, group)
