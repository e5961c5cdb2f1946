import itertools
import json
import math
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_context, random_joint
from curlgauge.core import (
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    Vocabulary,
    _COLUMN_ROWS,
    _SUM8_ROWS,
    _seed_key,
    apply_logit_shift,
    bayes_conditional,
    class_strides,
    context_class_index,
    load_model,
    log_normalize,
    logsumexp,
    model_from_dict,
    perturbed_conditional,
    plain_json,
    row_sum,
    save_model,
    seed_states,
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

    def test_assign_moves_position(self):
        ctx = PartialContext(observed={0: 2}, block=(1, 2))
        out = ctx.assign(1, 0)
        assert out.observed == {0: 2, 1: 0}
        assert out.block == (2,)
        with pytest.raises(ContractViolationError):
            ctx.assign(0, 1)

    def test_dict_round_trip(self):
        ctx = PartialContext(observed={2: 1}, block=(0, 3), time=4.0)
        assert PartialContext.from_dict(ctx.to_dict()) == ctx


class TestBayesConditional:
    def test_uniform_symmetry(self):
        joint = TabularJointModel.uniform(2, 2)
        ctx = PartialContext(observed={}, block=(0, 1))
        assert bayes_conditional(joint, 0, 0, ctx) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_hand_marginalized_two_by_two(self, two_by_two):
        ctx = PartialContext(observed={0: 0}, block=(1,))
        assert bayes_conditional(two_by_two, 1, 0, ctx) == pytest.approx(math.log(0.8), abs=1e-12)

    def test_matches_brute_force_mass_ratio(self):
        joint = random_joint(5, positions=4, vocab=3)
        ctx = PartialContext(observed={0: 1, 3: 2}, block=(1,))
        table = np.exp(joint.log_mass_nd)
        num = table[1, :, :, 2][0, :].sum()
        den = table[1, :, :, 2].sum()
        assert joint.log_conditional(1, 0, ctx) == pytest.approx(math.log(num / den), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_normalization(self, seed):
        joint = random_joint(seed, positions=3, vocab=4)
        ctx = random_context(seed, joint)
        for i in ctx.block:
            total = np.exp(joint.log_conditional_dist(i, ctx)).sum()
            assert abs(total - 1.0) < 1e-9

    def test_observed_position_is_contract_violation(self, two_by_two):
        ctx = PartialContext(observed={0: 0}, block=(1,))
        with pytest.raises(ContractViolationError):
            two_by_two.log_conditional(0, 0, ctx)

    def test_out_of_range_is_dimension_error(self, two_by_two):
        with pytest.raises(DimensionError):
            two_by_two.log_conditional(5, 0, PartialContext({}, (0, 1)))
        with pytest.raises(DimensionError):
            two_by_two.log_conditional(0, 7, PartialContext({}, (0, 1)))
        with pytest.raises(DimensionError):
            two_by_two.log_conditional(1, 0, PartialContext({0: 5}, (1,)))

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
# row_sum leaves the column path for rows of 8 entries from _SUM8_ROWS rows
_LEADING_SUM8 = {"below-sum8": (_SUM8_ROWS - 1,), "at-sum8": (_SUM8_ROWS,)}


@pytest.mark.parametrize("n, leading", [(n, leading) for n in range(1, 10) for leading in sorted(_LEADING)] + [(8, leading) for leading in _LEADING_SUM8])
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
    shape = (_LEADING | _LEADING_SUM8)[leading] + (n,)
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
    # a row sum that meets an input NaN and a NaN of its own (inf - inf) may keep either sign
    with np.errstate(all="ignore"):
        got, want = row_sum(values), np.ascontiguousarray(values).sum(axis=-1)
    assert got.shape == want.shape
    assert np.where(np.isnan(got), np.nan, got).tobytes() == np.where(np.isnan(want), np.nan, want).tobytes()


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
            assert abs(np.exp(pert.log_conditional_dist(i, ctx)).sum() - 1.0) < 1e-9

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

    def test_perturbed_conditional_wrapper(self):
        joint = random_joint(10)
        pert = PerturbedConditionalModel(joint, 0.3, 5)
        ctx = PartialContext({}, (0, 1, 2))
        assert perturbed_conditional(pert, 0, 1, ctx) == pert.log_conditional(0, 1, ctx)


class TestLogitShift:
    def test_zero_shift_is_identity(self):
        table = LogitTable.random(3, 3, seed=4)
        shifted = apply_logit_shift(table, 0.0)
        assert np.array_equal(shifted.logits, table.logits)

    def test_single_cell_shift_preserves_conditional(self):
        table = LogitTable.random(3, 3, seed=6)
        shifts = np.zeros((3, table.n_classes))
        shifts[1, 5] = 3.7
        before = LogitTableOracle(table)
        after = LogitTableOracle(apply_logit_shift(table, shifts))
        ctx = PartialContext({}, (0, 1, 2))
        for i in range(3):
            np.testing.assert_allclose(
                before.log_conditional_dist(i, ctx), after.log_conditional_dist(i, ctx), atol=1e-12
            )

    def test_curl_invariant_under_shift(self):
        table = LogitTable.random(3, 3, seed=14, scale=1.5)
        shifts = 4.0 * np.random.default_rng(3).standard_normal((3, table.n_classes))
        before = LogitTableOracle(table)
        after = LogitTableOracle(apply_logit_shift(table, shifts))
        ctx = PartialContext({}, (0, 1, 2))
        for i, j in itertools.combinations(range(3), 2):
            for a, b in itertools.product(range(3), repeat=2):
                s1 = curl_local(before, ctx, i, j, a, b)
                s2 = curl_local(after, ctx, i, j, a, b)
                assert abs(s1.value - s2.value) < 1e-10

    def test_non_finite_shift_rejected(self):
        table = LogitTable.random(3, 3, seed=2)
        with pytest.raises(ContractViolationError):
            apply_logit_shift(table, math.inf)


class TestModelFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        joint = random_joint(21, positions=3, vocab=3)
        path = tmp_path / "model.json"
        save_model(joint, path)
        bundle = load_model(path)
        assert np.array_equal(bundle.joint.log_mass, joint.log_mass)
        assert bundle.oracle is bundle.joint

    def test_row_major_order_last_position_fastest(self):
        data = {"vocab_size": 2, "positions": 2, "log_mass": [math.log(p) for p in (0.4, 0.1, 0.2, 0.3)]}
        bundle = model_from_dict(data)
        nd = np.exp(bundle.joint.log_mass_nd)
        np.testing.assert_allclose(nd, [[0.4, 0.1], [0.2, 0.3]], atol=1e-12)

    def test_perturbation_section(self, tmp_path):
        joint = random_joint(22)
        pert = PerturbedConditionalModel(joint, 0.25, 77)
        path = tmp_path / "pert.json"
        save_model(pert, path)
        bundle = load_model(path)
        assert isinstance(bundle.oracle, PerturbedConditionalModel)
        assert bundle.oracle.delta == 0.25
        ctx = PartialContext({}, (0, 1, 2))
        assert np.array_equal(
            bundle.oracle.log_conditional_dist(0, ctx), pert.log_conditional_dist(0, ctx)
        )

    def test_model_id_is_pinned(self):
        data = {
            "vocab_size": 2,
            "positions": 2,
            "log_mass": [-1.2, -1.4, -1.6, -1.4],
            "perturbation": {"delta": 0.5, "seed": 3},
        }
        assert model_from_dict(data).model_id == "bb720a1dd4c0"

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


def _model_of_kind(kind: str, seed: int, positions: int, vocab: int):
    joint = random_joint(seed, positions, vocab)
    if kind == "joint":
        return joint
    if kind == "perturbed":
        return PerturbedConditionalModel(joint, 0.6, seed)
    return LogitTableOracle(LogitTable.random(vocab, positions, seed=seed, scale=1.5))


def _brute_force_row(model, position: int, assigned: dict) -> np.ndarray:
    """Reference conditional row, from the mass table or the logit row."""
    cls = context_class_index(position, assigned, model.positions, model.vocab.size)
    if isinstance(model, LogitTableOracle):
        logits = model.table.logits[position, cls]
        return logits - np.log(np.exp(logits).sum())
    joint = model.base if isinstance(model, PerturbedConditionalModel) else model
    idx = tuple(assigned.get(p, slice(None)) for p in range(model.positions))
    sub = np.exp(joint.log_mass_nd)[idx]
    free = [p for p in range(model.positions) if p not in assigned]
    others = tuple(k for k, p in enumerate(free) if p != position)
    row = np.log(sub.sum(axis=others) / sub.sum())
    if isinstance(model, PerturbedConditionalModel):
        row = row + model.delta * model._offsets[position, cls]
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
        mass = np.exp(model.log_mass_nd)
        idx = tuple(ctx.observed.get(p, slice(None)) for p in range(positions))
        free = [p for p in range(positions) if p not in ctx.observed]
        sub = mass[idx].sum(axis=tuple(k for k, p in enumerate(free) if p not in ctx.block))
        kept = [p for p in free if p in ctx.block]
        expected = np.log(np.transpose(sub, [kept.index(p) for p in ctx.block]) / sub.sum())
        assert np.abs(model.log_block_conditional(ctx) - expected).max() <= 1e-12


def _trained_model(seed: int):
    joint = random_joint(seed, positions=3, vocab=3)
    config = TrainConfig(coverage=PREFIX_ONLY, steps=3, seed=seed, ecirc_weight=1.0, ecirc_samples=4)
    return train_tabular(joint, config)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["joint", "perturbed", "trained"]), seed=st.integers(0, 100_000))
def test_model_files_reload_to_the_same_bits(tmp_path_factory, kind, seed):
    if kind == "trained":
        model = _trained_model(seed)
    else:
        rng = np.random.default_rng(seed)
        joint = TabularJointModel.from_probabilities(rng.dirichlet(np.ones(27)).reshape(3, 3, 3))
        model = joint if kind == "joint" else PerturbedConditionalModel(joint, 0.4, seed)
    path = tmp_path_factory.mktemp("models") / "model.json"
    save_model(model, path)
    bundle = load_model(path)
    reference = model.source_joint if kind == "trained" else getattr(model, "base", model)
    assert np.array_equal(bundle.joint.log_mass, reference.log_mass)
    for i in range(3):
        for assigned in ({}, {(i + 1) % 3: 2}, {(i + 1) % 3: 0, (i + 2) % 3: 1}):
            assert np.array_equal(bundle.oracle.log_dist(i, assigned), model.log_dist(i, assigned))
            assert np.array_equal(bundle.joint.log_dist(i, assigned), reference.log_dist(i, assigned))


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


def _plain_json_reference(obj):
    """The isinstance walk alone, with no exact-type shortcut."""
    if isinstance(obj, Mapping):
        return {str(k): _plain_json_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_json_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist() if obj.ndim == 0 else [_plain_json_reference(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


class _Section(dict):
    pass


def test_plain_json_equals_the_isinstance_walk():
    joint = random_joint(21, positions=4, vocab=3)
    scan = curl_scan_report(PerturbedConditionalModel(joint, 0.5, 3), PartialContext({0: 1}, (1, 2, 3)), model_id="m")
    reports = [
        scan,
        {"sections": _Section(scan=[scan], order=(2, 0, 1)), "n": np.int64(7), "ok": np.bool_(True)},
        {
            3: np.float64(0.1),
            "a": np.arange(6, dtype=np.int32).reshape(2, 3),
            "b": np.linspace(0.0, 1.0, 4),
            "c": (True, False, None, 1, 1.5, "x"),
            "d": OrderedDict([("z", np.float32(2.5)), ("y", [np.uint8(3), (np.bool_(False),)])]),
            "e": MappingProxyType({"k": np.array([True, False])}),
            "f": np.array([[np.nan], [np.inf]]),
            "g": [np.array(np.nan), np.array(np.int64(4)), np.array(True), np.array(-0.0)],
        },
    ]
    for report in reports:
        got, want = plain_json(report), _plain_json_reference(report)
        assert repr(got) == repr(want)
        assert json.dumps(got) == json.dumps(want)
        assert json.dumps(got, sort_keys=True, indent=1) == json.dumps(want, sort_keys=True, indent=1)
