"""`dependence_report` from one block table: the values against the per-call formulas it
replaced, one table per context, and the two full-table checks."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import random_joint
from curlgauge.cli import main
from curlgauge.core import (
    ConditionalOracle,
    LogitTable,
    LogitTableOracle,
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    entropy,
    kl,
)
from curlgauge.dependence import dependence_report, kl_vs_marginal_product
from curlgauge.errors import IdentityCheckError

PERTURBED_M4V3 = {
    "synthetic": {
        "family": "chain",
        "positions": 4,
        "vocab_size": 3,
        "seed": 7,
        "beta": 0.8,
        "perturbation": {"delta": 0.4, "seed": 2},
    }
}


def per_call_report(oracle, joint, context) -> dict:
    """The formulas `dependence_report` used before it read one table: each value from its own
    block table, every marginal summed from the full table, the KLs against materialized products."""
    probs = np.exp(joint.log_block_conditional(context))

    def others(keep):
        return tuple(k for k in range(probs.ndim) if k not in keep)

    marginal_entropies = [float(entropy(np.log(probs.sum(axis=others((k,)))))) for k in range(probs.ndim)]
    log_product = np.zeros_like(probs)
    for axis, pos in enumerate(context.block):
        shape = [1] * probs.ndim
        shape[axis] = oracle.vocab.size
        log_product = log_product + oracle.log_dist(pos, context.observed).reshape(shape)
    block, cmi = context.block, {}
    for ai in range(len(block)):
        for aj in range(ai + 1, len(block)):
            pair = probs.sum(axis=others((ai, aj)))
            i, j = block[ai], block[aj]
            cmi[min(i, j), max(i, j)] = kl_vs_marginal_product(pair if i < j else pair.T)
    return {
        "tc": kl_vs_marginal_product(probs),
        "sum_marginal_entropies": sum(marginal_entropies),
        "joint_entropy": float(entropy(joint.log_block_conditional(context))),
        "independent_parallel_kl": float(kl(joint.log_block_conditional(context), log_product)),
        "pairwise_cmi": cmi,
    }


@settings(max_examples=100, deadline=None)
@given(data=st.data(), positions=st.integers(1, 5), vocab=st.integers(2, 4), seed=st.integers(0, 10_000))
def test_matches_the_per_call_formulas(data, positions, vocab, seed):
    joint = random_joint(seed, positions, vocab, scale=data.draw(st.sampled_from([0.5, 2.0])))
    kind = data.draw(st.sampled_from(["tabular", "perturbed", "logit-table"]))
    if kind == "tabular":
        oracle = joint
    elif kind == "perturbed":
        oracle = PerturbedConditionalModel(joint, 0.5, seed)
    else:
        oracle = LogitTableOracle(LogitTable.random(vocab, positions, seed))
    order = data.draw(st.permutations(range(positions)))
    block = tuple(order[: data.draw(st.integers(1, positions))])
    observed = {p: data.draw(st.integers(0, vocab - 1)) for p in order[len(block) :] if data.draw(st.booleans())}
    context = PartialContext(observed, block)

    report, reference = dependence_report(oracle, joint, context), per_call_report(oracle, joint, context)
    for name in ("tc", "sum_marginal_entropies", "joint_entropy", "independent_parallel_kl"):
        assert getattr(report, name) == pytest.approx(reference[name], abs=1e-12), name
    assert report.pairwise_cmi.keys() == reference["pairwise_cmi"].keys()
    for pair, value in reference["pairwise_cmi"].items():
        assert report.pairwise_cmi[pair] == pytest.approx(value, abs=1e-12), pair


def test_tc_reads_one_block_table_per_context(tmp_path, monkeypatch):
    calls = []
    exact = TabularJointModel.log_block_conditional

    def counted(model, context):
        calls.append(context.block)
        return exact(model, context)

    monkeypatch.setattr(TabularJointModel, "log_block_conditional", counted)
    contexts = [{"block": [0, 1, 2, 3, 4, 5]}, {"observed": {"0": 3, "4": 1}, "block": [5, 2, 1, 3]}]
    model = {"synthetic": {**PERTURBED_M4V3["synthetic"], "positions": 6, "vocab_size": 8, "seed": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps({"model": model, "contexts": {"explicit": contexts}}))
    result = CliRunner().invoke(main, ["tc", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    # one full block per context, in position order; every other read is a marginal of at most two positions
    assert [block for block in calls if len(block) > 2] == [(0, 1, 2, 3, 4, 5), (1, 2, 3, 5)]
    assert len(calls) == 2 + 15 + 6


def fault_a_marginal(monkeypatch):
    """Add 1e-9 to the first single-position marginal the joint reads, which the marginal entropies
    and the KL form both take: a table that no longer sums to one moves them apart."""
    exact = TabularJointModel.log_dist
    reads = []

    def faulty(model, pos, assigned):
        reads.append(pos)
        return exact(model, pos, assigned) + (1e-9 if len(reads) == 1 else 0.0)

    monkeypatch.setattr(TabularJointModel, "log_dist", faulty)


def fault_first_read(monkeypatch, position=1):
    """Make every perturbed model's conditionals of ``position`` off by 1e-9 on its first read only, as a
    memo written wrong on a miss would be; every later read is exact."""
    exact = PerturbedConditionalModel.log_rows

    def faulty(model, pos, cls):
        rows = exact(model, pos, cls)
        if pos != position or getattr(model, "_faulted", False):
            return rows
        model._faulted = True
        return rows + 1e-9

    monkeypatch.setattr(PerturbedConditionalModel, "log_rows", faulty)


class TestChecks:
    def test_fault_in_a_marginal_trips_the_kl_form(self, monkeypatch):
        fault_a_marginal(monkeypatch)
        joint = random_joint(40, positions=4, vocab=3)
        with pytest.raises(IdentityCheckError, match="^total-correlation forms disagree"):
            dependence_report(joint, joint, PartialContext({2: 1}, (3, 0, 1)))

    def test_fault_in_an_oracle_conditional_trips_the_one_shot_identity(self, monkeypatch):
        # the identity holds for any q, so only a conditional read two ways can fail it
        fault_first_read(monkeypatch)
        joint = random_joint(41, positions=4, vocab=3)
        oracle = PerturbedConditionalModel(joint, 0.4, 5)
        with pytest.raises(IdentityCheckError, match="^one-shot identity failed"):
            dependence_report(oracle, joint, PartialContext({2: 1}, (3, 0, 1)))

    def test_non_finite_gap_fails_the_one_shot_identity(self):
        class ZeroMass(ConditionalOracle):
            """The joint's conditionals with no mass on token 0, which no loadable model has."""

            def __init__(self, joint):
                super().__init__(joint.vocab.size, joint.positions)
                self.joint = joint

            def log_rows(self, position, cls):
                rows = self.joint.log_rows(position, cls).copy()
                rows[..., 0] = -np.inf
                return rows

        joint = random_joint(42, positions=3, vocab=3)
        with pytest.raises(IdentityCheckError, match="^one-shot identity failed: .* product inf vs "):
            dependence_report(ZeroMass(joint), joint, PartialContext({}, (0, 1, 2)))

    @pytest.mark.parametrize(
        "fault, message",
        [(fault_a_marginal, "total-correlation forms disagree"), (fault_first_read, "one-shot identity failed")],
        ids=["marginal", "oracle-conditional"],
    )
    def test_a_failed_check_exits_five(self, tmp_path, monkeypatch, fault, message):
        fault(monkeypatch)
        (tmp_path / "cfg.json").write_text(json.dumps({"model": PERTURBED_M4V3, "seed": 1}))
        result = CliRunner().invoke(main, ["tc", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 5
        assert result.stderr.startswith(f"identity check failed: {message}")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


def test_one_position_block(tmp_path):
    joint = random_joint(43, positions=3, vocab=3)
    report = dependence_report(joint, joint, PartialContext({0: 2}, (1,)))
    assert report.tc == 0.0 and report.pairwise_cmi == {}

    config = {"model": PERTURBED_M4V3, "contexts": {"explicit": [{"observed": {"0": 1}, "block": [2]}]}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    args = ["tc", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--format", "json+csv"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    entry = json.loads((out / "tc.json").read_text())["sections"]["dependence"][0]["report"]
    assert entry["tc"] == 0.0 and entry["pairwise_cmi"] == {} and entry["sum_pairwise_cmi"] == 0.0
    assert (out / "tc_pairwise_cmi.csv").read_text() == "context_id,pair,cmi\n"
