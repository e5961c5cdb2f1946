import io
import itertools
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import curlgauge
from curlgauge import core
from conftest import random_context, random_joint
from curlgauge.core import (
    LogitTable,
    LogitTableOracle,
    ModelBundle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    Vocabulary,
    _COLUMN_ROWS,
    _column_logsumexp,
    _column_sum,
    _seed_key,
    class_strides,
    context_class_index,
    load_model,
    log_normalize,
    logsumexp,
    model_from_dict,
    save_model,
    seed_states,
    seeded_rng,
    write_json,
)
from curlgauge.decoding import draw_row, draw_rows, sample_commit
from curlgauge.errors import ContractViolationError, DimensionError, SizeCapError
from curlgauge.pseudojoint import (
    ExhaustivePlan,
    PseudoJointSpec,
    curl_local,
    curl_scan_report,
    ecirc_abs,
    pseudo_joint_log_prob,
    pseudo_joint_table,
)
from curlgauge.synth import PREFIX_ONLY, TrainConfig, train_tabular


class TestPartialContext:
    def test_rejects_overlap(self):
        with pytest.raises(ContractViolationError):
            PartialContext(observed={0: 1}, block=(0, 1))

    def test_rejects_duplicate_block(self):
        with pytest.raises(ContractViolationError):
            PartialContext(observed={}, block=(1, 1))

    def test_rejects_negative_time(self):
        with pytest.raises(ContractViolationError):
            PartialContext(observed={}, block=(0,), time=-1.0)

    def test_dict_round_trip(self):
        ctx = PartialContext(observed={2: 1}, block=(0, 3), time=4.0)
        assert PartialContext.from_dict(ctx.to_dict()) == ctx


class TestBayesConditional:
    def test_uniform_symmetry(self):
        joint = TabularJointModel.uniform(2, 2)
        ctx = PartialContext(observed={}, block=(0, 1))
        assert joint.log_dist(0, ctx.observed)[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_hand_marginalized_two_by_two(self, two_by_two):
        ctx = PartialContext(observed={0: 0}, block=(1,))
        assert two_by_two.log_dist(1, ctx.observed)[0] == pytest.approx(math.log(0.8), abs=1e-12)

    def test_matches_brute_force_mass_ratio(self):
        joint = random_joint(5, positions=4, vocab=3)
        ctx = PartialContext(observed={0: 1, 3: 2}, block=(1,))
        table = np.exp(joint.log_mass.reshape((3,) * 4))
        num = table[1, :, :, 2][0, :].sum()
        den = table[1, :, :, 2].sum()
        assert joint.log_dist(1, ctx.observed)[0] == pytest.approx(math.log(num / den), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_normalization(self, seed):
        joint = random_joint(seed, positions=3, vocab=4)
        ctx = random_context(seed, joint)
        for i in ctx.block:
            total = np.exp(joint.log_dist(i, ctx.observed)).sum()
            assert abs(total - 1.0) < 1e-9

    def test_observed_position_is_contract_violation(self, two_by_two):
        ctx = PartialContext(observed={0: 0}, block=(1,))
        with pytest.raises(ContractViolationError):
            two_by_two.log_dist(0, ctx.observed)

    def test_out_of_range_is_dimension_error(self, two_by_two):
        with pytest.raises(DimensionError):
            two_by_two.log_block_conditional(PartialContext({}, (0, 5)))
        with pytest.raises(DimensionError):
            two_by_two.log_block_conditional(PartialContext({7: 0}, (1,)))
        with pytest.raises(DimensionError):
            two_by_two.log_block_conditional(PartialContext({0: 5}, (1,)))

    def test_size_caps(self):
        with pytest.raises(SizeCapError):
            TabularJointModel(9, 2, np.zeros(81))
        with pytest.raises(SizeCapError):
            TabularJointModel(2, 7, np.zeros(128))

    def test_positivity_floor(self):
        joint = TabularJointModel.from_probabilities(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.all(joint.log_mass > -np.inf)
        assert np.all(np.isfinite(joint.log_mass))

    def test_vocabulary_minimum(self):
        with pytest.raises(ContractViolationError):
            Vocabulary(1)

    def test_log_mass_is_normalized(self):
        joint = random_joint(11, positions=3, vocab=3)
        from scipy.special import logsumexp

        assert abs(logsumexp(joint.log_mass)) < 1e-9


def _logsumexp_reference(values):
    """numpy's row reductions, one row at a time."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    top = arr.max(axis=-1, keepdims=True)
    return np.log(np.exp(arr - top).sum(axis=-1, keepdims=True)) + top


def _log_normalize_reference(values):
    return np.asarray(values, dtype=np.float64) - _logsumexp_reference(values)


def _fp_warnings(fn, values) -> list[str]:
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        fn(values)
    return [f"{w.category.__name__}: {w.message}" for w in caught]


_LEADING = {"1-d": (), "one row": (1,), "below": (_COLUMN_ROWS - 1,), "at": (_COLUMN_ROWS,), "above": (3 * _COLUMN_ROWS,), "3-d": (_COLUMN_ROWS // 4 + 1, 4)}


@pytest.mark.parametrize("n, leading", [(n, leading) for n in range(1, 10) for leading in sorted(_LEADING)])
@settings(max_examples=12, deadline=None)
@given(
    layout=st.sampled_from(["C", "F", "reversed"]),
    special_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    specials=st.lists(st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0]), min_size=1, max_size=5),
    neg_inf_row=st.booleans(),
    scale=st.sampled_from([1.0, 40.0, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(layout="C", special_share=0.0, specials=[0.0], neg_inf_row=False, scale=1.0, seed=0)
@example(layout="C", special_share=1.0, specials=[-0.0], neg_inf_row=False, scale=1.0, seed=0)
def test_logsumexp_has_the_bits_of_the_row_reductions(n, leading, layout, special_share, specials, neg_inf_row, scale, seed):
    rng = np.random.default_rng(seed)
    shape = _LEADING[leading] + (n,)
    values = scale * rng.standard_normal(shape)
    mask = rng.random(shape) < special_share
    values[mask] = rng.choice(specials, size=int(mask.sum()))
    if neg_inf_row:
        values.reshape(-1, n)[-1] = -np.inf
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "reversed":
        values = values[(slice(None, None, -1),) * values.ndim]
    for fn, reference in [(logsumexp, _logsumexp_reference), (log_normalize, _log_normalize_reference)]:
        with np.errstate(all="ignore"):
            got, want = fn(values), reference(values)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert _fp_warnings(fn, values) == _fp_warnings(reference, values)
    if n > 8:
        return
    # the column helpers alone, as the trainer calls them on its held columns, at every row count;
    # a column sum that meets an input NaN and a NaN of its own (inf - inf) may keep either sign
    cols = np.ascontiguousarray(values).reshape(-1, n).T.copy()
    with np.errstate(all="ignore"):
        got, want = _column_logsumexp(cols), _logsumexp_reference(values).reshape(-1)
        summed, want_sum = _column_sum(cols), np.ascontiguousarray(values).sum(axis=-1).reshape(-1)
    assert got.tobytes() == want.tobytes()
    assert np.where(np.isnan(summed), np.nan, summed).tobytes() == np.where(np.isnan(want_sum), np.nan, want_sum).tobytes()


class TestPerturbedModel:
    def test_delta_zero_matches_renormalized_base(self):
        joint = random_joint(7, positions=3, vocab=3)
        pert = PerturbedConditionalModel(joint, 0.0, 99)
        for assigned in ({}, {0: 1}, {0: 2, 2: 1}):
            i = 1
            assert np.array_equal(pert.log_dist(i, assigned), log_normalize(joint.log_dist(i, assigned)))

    def test_perturbed_is_normalized(self):
        joint = random_joint(8, positions=3, vocab=4)
        pert = PerturbedConditionalModel(joint, 0.5, 3)
        ctx = PartialContext({}, (0, 1, 2))
        for i in range(3):
            assert abs(np.exp(pert.log_dist(i, ctx.observed)).sum() - 1.0) < 1e-9

    def test_bit_identical_across_constructions(self):
        joint = random_joint(9, positions=3, vocab=3)
        a = PerturbedConditionalModel(joint, 0.4, 17)
        b = PerturbedConditionalModel(joint, 0.4, 17)
        for assigned in ({}, {1: 2}, {0: 0, 1: 1}):
            assert np.array_equal(a.log_dist(2, assigned), b.log_dist(2, assigned))

    def test_negative_delta_rejected(self):
        joint = random_joint(1)
        with pytest.raises(ContractViolationError):
            PerturbedConditionalModel(joint, -0.1, 0)

    def test_mean_curl_nondecreasing_in_delta(self):
        # direction-only statistical expectation, over 20 seeds
        wins = 0
        trials = 20
        for seed in range(trials):
            joint = random_joint(300 + seed, positions=3, vocab=3)
            ctx = PartialContext({}, (0, 1, 2))
            means = [
                ecirc_abs(PerturbedConditionalModel(joint, delta, 500 + seed), ctx, ExhaustivePlan()).value
                for delta in (0.0, 0.1, 0.5)
            ]
            wins += means[0] <= means[1] <= means[2]
        assert wins >= 0.8 * trials


def shifted(table: LogitTable, shifts) -> LogitTable:
    """The table with one scalar per (position, context class) added to every logit of that cell."""
    return LogitTable(table.vocab, table.positions, table.logits + np.asarray(shifts)[..., None])


class TestLogitShift:
    def test_zero_shift_is_identity(self):
        table = LogitTable.random(3, 3, seed=4)
        assert np.array_equal(shifted(table, 0.0).logits, table.logits)

    def test_single_cell_shift_preserves_conditional(self):
        table = LogitTable.random(3, 3, seed=6)
        shifts = np.zeros(table.logits.shape[:2])
        shifts[1, 5] = 3.7
        before = LogitTableOracle(table)
        after = LogitTableOracle(shifted(table, shifts))
        ctx = PartialContext({}, (0, 1, 2))
        for i in range(3):
            np.testing.assert_allclose(
                before.log_dist(i, ctx.observed), after.log_dist(i, ctx.observed), atol=1e-12
            )

    def test_curl_invariant_under_shift(self):
        table = LogitTable.random(3, 3, seed=14, scale=1.5)
        shifts = 4.0 * np.random.default_rng(3).standard_normal(table.logits.shape[:2])
        before = LogitTableOracle(table)
        after = LogitTableOracle(shifted(table, shifts))
        ctx = PartialContext({}, (0, 1, 2))
        for i, j in itertools.combinations(range(3), 2):
            for a, b in itertools.product(range(3), repeat=2):
                s1 = curl_local(before, ctx, i, j, a, b)
                s2 = curl_local(after, ctx, i, j, a, b)
                assert abs(s1.value - s2.value) < 1e-10

    def test_non_finite_shift_rejected(self):
        # a logit table rejects a non-finite logit, so a non-finite shift cannot make one
        table = LogitTable.random(3, 3, seed=2)
        for value in (math.inf, -math.inf, math.nan):
            logits = table.logits.copy()
            logits[1, 4, 2] = value
            with pytest.raises(ContractViolationError):
                LogitTable(table.vocab, table.positions, logits)
            with pytest.raises(ContractViolationError):
                shifted(table, value)


class TestModelFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        joint = random_joint(21, positions=3, vocab=3)
        path = tmp_path / "model.json"
        save_model(ModelBundle(joint, joint), path)
        bundle = load_model(path)
        assert np.array_equal(bundle.joint.log_mass, joint.log_mass)
        assert bundle.oracle is bundle.joint

    def test_row_major_order_last_position_fastest(self):
        data = {"vocab_size": 2, "positions": 2, "log_mass": [math.log(p) for p in (0.4, 0.1, 0.2, 0.3)]}
        bundle = model_from_dict(data)
        nd = np.exp(bundle.joint.log_mass.reshape(2, 2))
        np.testing.assert_allclose(nd, [[0.4, 0.1], [0.2, 0.3]], atol=1e-12)

    def test_perturbation_section(self, tmp_path):
        joint = random_joint(22)
        pert = PerturbedConditionalModel(joint, 0.25, 77)
        path = tmp_path / "pert.json"
        save_model(ModelBundle(pert, joint), path)
        bundle = load_model(path)
        assert isinstance(bundle.oracle, PerturbedConditionalModel)
        assert bundle.oracle.delta == 0.25
        ctx = PartialContext({}, (0, 1, 2))
        assert np.array_equal(
            bundle.oracle.log_dist(0, ctx.observed), pert.log_dist(0, ctx.observed)
        )

    def test_model_id_is_pinned(self):
        data = {
            "vocab_size": 2,
            "positions": 2,
            "log_mass": [-1.2, -1.4, -1.6, -1.4],
            "perturbation": {"delta": 0.5, "seed": 3, "draw": "chunks-4096"},
        }
        assert model_from_dict(data).model_id == "7077c2aa3952"

    def test_unknown_model_field_rejected(self):
        with pytest.raises(DimensionError):
            model_from_dict({"vocab_size": 2, "positions": 1, "log_mass": [0.0, 0.0], "bogus": 1})


def test_concurrent_queries_match_sequential():
    joint = random_joint(31, positions=4, vocab=3)
    pert = PerturbedConditionalModel(joint, 0.3, 1)
    queries = [(i, {j: 1}) for i in range(4) for j in range(4) if i != j]
    expected = [pert.log_dist(i, asg).copy() for i, asg in queries]
    fresh = PerturbedConditionalModel(joint, 0.3, 1)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda q: fresh.log_dist(q[0], q[1]).copy(), queries))
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)
    # at the caps, 8 threads gather overlapping runs of classes of one position, each run spanning
    # several offset chunks, switching often: a chunk marked drawn before its rows were written would show,
    # and a chunk drawn twice would fill more rows than the drawn chunks hold
    joint = random_joint(32, positions=6, vocab=8)
    queries = [(k % 2, np.arange(400 * k, 400 * k + 3000)) for k in range(8)]
    expected = [PerturbedConditionalModel(joint, 0.3, 1).log_rows(i, cls) for i, cls in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(50):
                fresh = PerturbedConditionalModel(joint, 0.3, 1)
                for got, want in zip(pool.map(lambda q: fresh.log_rows(*q), queries, timeout=120), expected):
                    assert np.array_equal(got, want)
                assert fresh._filled == _drawn_rows(fresh) <= len(fresh._offsets)
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), positions=st.integers(2, 5), vocab=st.integers(2, 8))
def test_offsets_do_not_depend_on_query_order(seed, positions, vocab):
    """Two fresh models give the same rows, one queried by scalar rows and then class arrays with repeats,
    the other by shuffled whole positions in reverse; the scalar rows equal the draw's definition."""
    joint = random_joint(seed, positions, vocab)
    a, b = PerturbedConditionalModel(joint, 0.5, seed), PerturbedConditionalModel(joint, 0.5, seed)
    rng, classes = np.random.default_rng(seed), (vocab + 1) ** (positions - 1)
    scalar = []
    for _ in range(20):
        i = int(rng.integers(positions))
        assigned = {p: int(rng.integers(vocab)) for p in range(positions) if p != i and rng.random() < 0.6}
        scalar.append((i, context_class_index(i, assigned, positions, vocab), a.log_dist(i, assigned)))
    queries = [(i, rng.integers(classes, size=classes // 2 + 5)) for i in rng.permutation(positions).tolist()]
    got = [a.log_rows(i, cls) for i, cls in queries]
    whole = {}
    for i in reversed(range(positions)):
        order = rng.permutation(classes)
        whole[i] = np.empty((classes, vocab))
        whole[i][order] = b.log_rows(i, order)
    for (i, cls), rows in zip(queries, got):
        assert np.array_equal(rows, whole[i][cls])
    for i, cls, row in scalar:
        assert np.array_equal(row, whole[i][cls])
        assert np.array_equal(row, log_normalize(joint.log_rows(i, cls) + 0.5 * _offset_row(a, i, cls)))


def test_whole_block_curl_scan_draws_few_offset_chunks():
    # the scan reads 41 of a position's 59,049 classes; a class whose one assigned position weighs
    # 9**3 or more has a 512-class chunk to itself, so 17 of the 116 chunks are drawn
    model = PerturbedConditionalModel(random_joint(33, positions=6, vocab=8), 0.4, 5)
    assert not model._drawn.any()
    curl_scan_report(model, PartialContext({}, tuple(range(6))), model_id="m")
    assert 0 < model._drawn.mean() < 0.15


def test_whole_block_curl_scan_draws_17_of_each_positions_116_chunks():
    model = PerturbedConditionalModel(random_joint(33, positions=6, vocab=8), 0.4, 5)
    curl_scan_report(model, PartialContext({}, tuple(range(6))), model_id="m")
    assert model._drawn.shape == (6, 116)
    assert model._drawn.sum(axis=1).tolist() == [17] * 6
    assert model._filled == _drawn_rows(model)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), positions=st.integers(2, 4), vocab=st.integers(2, 8), data=st.data())
def test_drawn_chunks_fill_the_table_in_draw_order(seed, positions, vocab, data):
    """Each drawn chunk takes the next free rows: the fill is the drawn chunks' rows, the map sends the
    drawn classes to rows 0 to fill - 1, and every mapped row is delta times the offset's definition."""
    model = PerturbedConditionalModel(random_joint(seed, positions, vocab), 0.7, seed)
    classes = (vocab + 1) ** (positions - 1)
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, positions - 1))
        model.log_rows(i, np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=40))))
        assert model._filled == _drawn_rows(model) <= len(model._offsets)
    rows = []
    for i in range(positions):
        for c in np.flatnonzero(model._drawn[i]).tolist():
            for cls in range(c * model._chunk, min((c + 1) * model._chunk, classes)):
                rows.append(int(model._rows[i, cls]))
                assert np.array_equal(model._offsets[rows[-1]], model.delta * _offset_row(model, i, cls))
    assert sorted(rows) == list(range(model._filled))


def _drawn_rows(model: PerturbedConditionalModel) -> int:
    """The rows of a perturbed model's drawn chunks, a position's last chunk the shorter one."""
    starts = np.arange(model._drawn.shape[1]) * model._chunk
    return int((model._drawn * np.minimum(model._chunk, model._classes - starts)).sum())


def _model_of_kind(kind: str, seed: int, positions: int, vocab: int):
    joint = random_joint(seed, positions, vocab)
    if kind == "joint":
        return joint
    if kind == "perturbed":
        return PerturbedConditionalModel(joint, 0.6, seed)
    return LogitTableOracle(LogitTable.random(vocab, positions, seed=seed, scale=1.5))


def _offset_row(model: PerturbedConditionalModel, position: int, cls: int) -> np.ndarray:
    """A perturbed model's offset row from the definition: chunk c of ``max(1, 4096 // V)`` classes of a
    position is the stream of ``seeded_rng(seed, position, c)``, the last chunk a shorter one."""
    vocab, classes = model.vocab.size, (model.vocab.size + 1) ** (model.positions - 1)
    chunk = max(1, 4096 // vocab)
    c = cls // chunk
    rows = min(chunk, classes - c * chunk)
    return seeded_rng(model.perturbation_seed, position, c).standard_normal((rows, vocab))[cls - c * chunk]


def _brute_force_row(model, position: int, assigned: dict) -> np.ndarray:
    """Reference conditional row, from the mass table or the logit row."""
    cls = context_class_index(position, assigned, model.positions, model.vocab.size)
    if isinstance(model, LogitTableOracle):
        logits = model.table.logits[position, cls]
        return logits - np.log(np.exp(logits).sum())
    joint = model.base if isinstance(model, PerturbedConditionalModel) else model
    idx = tuple(assigned.get(p, slice(None)) for p in range(model.positions))
    sub = np.exp(joint.log_mass.reshape((model.vocab.size,) * model.positions))[idx]
    free = [p for p in range(model.positions) if p not in assigned]
    others = tuple(k for k, p in enumerate(free) if p != position)
    row = np.log(sub.sum(axis=others) / sub.sum())
    if isinstance(model, PerturbedConditionalModel):
        row = row + model.delta * _offset_row(model, position, cls)
        row = row - np.log(np.exp(row).sum())
    return row


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["joint", "perturbed", "logit"]),
    seed=st.integers(0, 10_000),
    positions=st.integers(1, 4),
    vocab=st.integers(2, 4),
)
def test_gathers_match_brute_force_and_single_rows(kind, seed, positions, vocab):
    model = _model_of_kind(kind, seed, positions, vocab)
    strides = class_strides(positions, vocab)
    for i in range(positions):
        others = [p for p in range(positions) if p != i]
        # every context class of position i, row by row and as one grid
        grid = model.class_grid(i, {}, others)
        rows = model.log_rows(i, grid)
        assert rows.shape == (vocab,) * len(others) + (vocab,)
        for values in itertools.product(range(-1, vocab), repeat=len(others)):
            assigned = {p: v for p, v in zip(others, values) if v >= 0}
            cls = context_class_index(i, assigned, positions, vocab)
            assert cls == sum(strides[i][p] * (t + 1) for p, t in assigned.items())
            row = model.log_dist(i, assigned)
            assert np.abs(row - _brute_force_row(model, i, assigned)).max() <= 1e-12
            assert np.array_equal(model.log_rows(i, np.array([cls, cls]))[1], row)
            if all(v >= 0 for v in values):
                assert np.array_equal(rows[tuple(values)], row)
    if positions < 2:
        return
    ctx = random_context(seed, random_joint(seed, positions, vocab))
    order = tuple(reversed(ctx.block))
    table = pseudo_joint_table(model, ctx, order)
    for values in itertools.product(range(vocab), repeat=len(ctx.block)):
        assignment = dict(zip(ctx.block, values))
        assert table[values] == pseudo_joint_log_prob(model, PseudoJointSpec(ctx, order), assignment)
    if kind == "joint":
        mass = np.exp(model.log_mass.reshape((vocab,) * positions))
        idx = tuple(ctx.observed.get(p, slice(None)) for p in range(positions))
        free = [p for p in range(positions) if p not in ctx.observed]
        sub = mass[idx].sum(axis=tuple(k for k, p in enumerate(free) if p not in ctx.block))
        kept = [p for p in free if p in ctx.block]
        expected = np.log(np.transpose(sub, [kept.index(p) for p in ctx.block]) / sub.sum())
        assert np.abs(model.log_block_conditional(ctx) - expected).max() <= 1e-12


def model_of_kind(kind: str, seed: int) -> ModelBundle:
    """A bundle of each kind of model file: tabular, perturbed, logit-only or trained."""
    if kind == "logit-only":
        return ModelBundle(LogitTableOracle(LogitTable.random(3, 3, seed=seed, scale=1.5)))
    if kind == "trained":
        joint = random_joint(seed, positions=3, vocab=3)
        config = TrainConfig(coverage=PREFIX_ONLY, steps=3, seed=seed, ecirc_weight=1.0, ecirc_samples=4)
        return ModelBundle(train_tabular(joint, config)[0], joint, config.to_dict())
    joint = TabularJointModel.from_probabilities(np.random.default_rng(seed).dirichlet(np.ones(27)).reshape(3, 3, 3))
    return ModelBundle(joint if kind == "joint" else PerturbedConditionalModel(joint, 0.4, seed), joint)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["joint", "perturbed", "logit-only", "trained"]), seed=st.integers(0, 100_000))
def test_model_files_reload_to_the_same_bits(tmp_path_factory, kind, seed):
    model = model_of_kind(kind, seed)
    path = tmp_path_factory.mktemp("models") / "model.json"
    save_model(model, path)
    bundle = load_model(path)
    assert bundle.model_id == model.model_id and bundle.train_config == model.train_config
    assert (bundle.joint is None) == (model.joint is None)
    for i in range(3):
        for assigned in ({}, {(i + 1) % 3: 2}, {(i + 1) % 3: 0, (i + 2) % 3: 1}):
            assert np.array_equal(bundle.oracle.log_dist(i, assigned), model.oracle.log_dist(i, assigned))
            if model.joint is not None:
                assert np.array_equal(bundle.joint.log_dist(i, assigned), model.joint.log_dist(i, assigned))
    # loading a file and saving it again writes the file's own bytes
    again = path.with_name("again.json")
    save_model(bundle, again)
    assert again.read_bytes() == path.read_bytes()


# key parts at the 32- and 64-bit word boundaries
EDGE_PARTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _random_keys(seed: int, count: int) -> list[list[int]]:
    """``count`` keys of 1-6 parts: a boundary part, a one-word or a two-word part, a third each."""
    rng, top, keys = np.random.default_rng(seed), [None, 2**32 - 1, 2**64 - 1], []
    for _ in range(count):
        kinds = rng.integers(0, 3, size=int(rng.integers(1, 7))).tolist()
        keys.append([int(rng.choice(EDGE_PARTS) if k == 0 else rng.integers(0, top[k], dtype=np.uint64, endpoint=True))
                     for k in kinds])
    return keys


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_seed_states_equal_seed_sequence(seed):
    # 50 examples of 20 random keys: 1,000 keys of 1-6 parts, 1-12 words, and the boundary parts alone and together
    keys = [[p] for p in EDGE_PARTS] + [EDGE_PARTS + [0]] + _random_keys(seed, 20)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")  # a wrap that warns fails the test
        words = [_seed_key(*parts) for parts in keys]
        expected = [np.random.SeedSequence(key).generate_state(1, np.uint64)[0] for key in words]
        assert [seed_states(key) for key in words] == expected
        # one call per word count, the key words as columns
        for length in {len(key) for key in words}:
            group = [k for k, key in enumerate(words) if len(key) == length]
            columns = np.array([words[k] for k in group], dtype=np.uint64).T
            assert seed_states(list(columns)).tolist() == [expected[k] for k in group]
        # the first parts as run seeds, each given twice, over a block that leaves positions out
        seeds = [parts[0] for parts in keys]
        rows = np.stack([draw_row(sample_commit(), s, 5, (3, 0, 1)) for s in seeds])
        assert np.array_equal(draw_rows(sample_commit(), seeds + seeds[::-1], 5, (3, 0, 1)),
                              np.concatenate([rows, rows[::-1]]), equal_nan=True)
        assert np.isnan(rows[:, [2, 4]]).all()
        for run_seed, row in zip(seeds, rows):
            for p in (0, 1, 3):
                state = np.random.SeedSequence(_seed_key(run_seed, 11, p)).generate_state(1, np.uint64)[0]
                assert row[p] == float(state >> np.uint64(11)) * 2.0**-53


# JSON writer: strings with non-ASCII characters, quotes, backslashes, control characters and braces
JSON_TEXT = st.text(st.sampled_from('ab {}[]":,\\\n\t\x00\x1f\x7fé€😀\u2028') | st.characters(), max_size=6)
JSON_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf])
JSON_NUMBERS = st.none() | st.booleans() | st.integers(-(2**200), 2**200) | JSON_FLOATS
JSON_KEYS = JSON_TEXT | st.integers(-(2**70), 2**70) | JSON_FLOATS | st.booleans() | st.none()


@st.composite
def json_records(draw, values):
    """A list of flat records that share their keys, whose values ``write_json`` encodes in one call,
    keys with braces and % signs among them, or one that breaks that path: a container value, another
    key set, an empty record."""
    keys = draw(st.lists(st.sampled_from(["i", "j", "value", "{k", "v}", "%s", "a%", ""]) | st.integers(-3, 3),
                         max_size=4, unique=True))
    records = [{k: draw(JSON_NUMBERS) for k in keys} for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        record = draw(st.sampled_from(records))
        record[draw(st.sampled_from(["x", *keys]))] = draw(JSON_TEXT | values)
    return records


def json_values(depth: int):
    """JSON-encodable values nested up to ``depth`` containers deep, tuples and empty containers included."""
    if depth == 0:
        return JSON_NUMBERS | JSON_TEXT
    inner = json_values(depth - 1)
    return (
        JSON_NUMBERS
        | JSON_TEXT
        | st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(JSON_KEYS, inner, max_size=4)
        | json_records(inner)
    )


def written_json(obj, allow_nan: bool):
    """``write_json``'s text of obj, or the type of the error it raised."""
    buf = io.StringIO()
    try:
        write_json(obj, buf, allow_nan=allow_nan)
    except ValueError:
        return ValueError
    return buf.getvalue()


def dumped_json(obj, allow_nan: bool):
    try:
        return json.dumps(obj, indent=1, allow_nan=allow_nan)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(obj=json_values(6), allow_nan=st.booleans())
@example(obj={"a": [{"i": 0, "v": 1.5}, {"i": 1, "v": -0.0}], "b": {"c": (), "d": {}}}, allow_nan=False)
@example(obj=[{"i": math.nan}, {"i": 5e-324}], allow_nan=False)
@example(obj=[{"i": math.nan}, {"i": -math.inf}], allow_nan=True)
@example(obj={1.5: [1], None: {"x": [2]}, True: 3, -(2**100): "é"}, allow_nan=False)
@example(obj={math.nan: [1]}, allow_nan=False)
@example(obj=[{"{": 1, "%s": 2, 5: None}, {"{": 3, "%s": 4, 5: True}], allow_nan=False)
@example(obj=[{"i": 1, "s": "%s,\n }"}, {"i": "}, {", "s": ""}], allow_nan=False)
@example(obj=[{"i": 1}, {"j": 2}, {}], allow_nan=False)
def test_write_json_equals_json_dumps(obj, allow_nan):
    assert written_json(obj, allow_nan) == dumped_json(obj, allow_nan)


def test_a_save_that_stops_partway_keeps_the_old_file(tmp_path, monkeypatch):
    joint = random_joint(4, positions=4, vocab=8)
    path = tmp_path / "model.json"
    save_model(ModelBundle(joint, joint), path)
    old, train_config, written, exact = path.read_bytes(), {"steps": 2}, [], core._write_value

    def stop_at_the_train_config(obj, *args):
        # the log-mass table, about 80 KB, is in the temporary file by now
        if obj is train_config:
            written.extend(p.stat().st_size for p in tmp_path.glob("*.tmp"))
            raise RuntimeError("stopped")
        return exact(obj, *args)

    monkeypatch.setattr(core, "_write_value", stop_at_the_train_config)
    with pytest.raises(RuntimeError, match="stopped"):
        save_model(ModelBundle(PerturbedConditionalModel(joint, 0.5, 1), joint, train_config), path)
    assert len(written) == 1 and written[0] > 0
    assert path.read_bytes() == old and list(tmp_path.glob("*.tmp")) == []


def test_model_tables_keep_their_bytes_at_every_slice_size(tmp_path, monkeypatch):
    joint = random_joint(4, positions=3, vocab=3)
    table = LogitTable.random(3, 3, seed=5)
    bundle = ModelBundle(LogitTableOracle(table), joint, {"steps": 2})
    fields = {
        "vocab_size": 3,
        "positions": 3,
        "logit_table": {"values": table.logits.reshape(-1).tolist()},
        "log_mass": joint.log_mass.tolist(),
        "train_config": {"steps": 2},
    }
    want = (json.dumps(fields, indent=1) + "\n").encode()
    for size in (1, 2, 7, core._JSON_SLICE):
        monkeypatch.setattr(core, "_JSON_SLICE", size)
        save_model(bundle, tmp_path / f"model-{size}.json")
        assert (tmp_path / f"model-{size}.json").read_bytes() == want, size
    buf = io.StringIO()
    write_json({"a": np.zeros(0), "b": [np.arange(3.0)]}, buf, allow_nan=False)
    assert buf.getvalue() == json.dumps({"a": [], "b": [[0.0, 1.0, 2.0]]}, indent=1)
    with pytest.raises(TypeError):
        write_json(np.zeros((2, 2)), buf, allow_nan=False)


def test_every_exported_name_resolves():
    missing = [name for name in curlgauge.__all__ if not hasattr(curlgauge, name)]
    assert missing == []
    assert len(set(curlgauge.__all__)) == len(curlgauge.__all__)
