import numpy as np
import pytest

from curlgauge import pseudojoint
from curlgauge.core import (
    PartialContext,
    PerturbedConditionalModel,
    TabularJointModel,
    derived_seed,
    seeded_rng,
)


def random_joint(seed: int, positions: int = 3, vocab: int = 3, scale: float = 1.0) -> TabularJointModel:
    rng = seeded_rng(seed, 101)
    return TabularJointModel(vocab, positions, scale * rng.standard_normal(vocab**positions))


def random_context(seed: int, joint: TabularJointModel, min_block: int = 2) -> PartialContext:
    """Random observed subset (possibly empty) with random values; the block
    is a random subset of the rest of at least min_block positions."""
    rng = seeded_rng(seed, 102)
    m, vocab = joint.positions, joint.vocab.size
    block_size = int(rng.integers(min_block, m + 1))
    block = tuple(sorted(rng.choice(m, size=block_size, replace=False).tolist()))
    observed = {}
    for p in range(m):
        if p not in block and rng.random() < 0.7:
            observed[p] = int(rng.integers(vocab))
    return PartialContext(observed=observed, block=block)


def random_oracle(seed: int, joint: TabularJointModel, delta: float | None = None):
    """Bayes oracle (the joint itself) or a perturbed wrapper when delta is set."""
    if delta is None:
        return joint
    return PerturbedConditionalModel(joint, delta, derived_seed(seed, 103))


def fault_lattice_steps(monkeypatch, position=1, given=(0,)):
    """Add 1e-9 to every StepLattice's step q(position | given), or to each step of ``position`` when
    ``given`` is None.  The default q(1 | 0) is the term t1 of each square on (0, 1) with nothing else
    visible; the reference tables are gathered without the lattice."""
    exact_step = pseudojoint.StepLattice.__getitem__

    def faulty_step(lattice, step):
        table = exact_step(lattice, step)
        faulty = step[0] == position and (given is None or set(step[1]) == set(given))
        return table + 1e-9 if faulty else table

    monkeypatch.setattr(pseudojoint.StepLattice, "__getitem__", faulty_step)


def mixed_cases(n: int, base_seed: int, max_positions: int = 4, max_vocab: int = 4):
    """Alternating exact/perturbed oracles on random joints of varied size."""
    cases = []
    for k in range(n):
        rng = seeded_rng(base_seed, 104, k)
        positions = int(rng.integers(2, max_positions + 1))
        vocab = int(rng.integers(2, max_vocab + 1))
        joint = random_joint(derived_seed(base_seed, k), positions, vocab)
        if k % 2 == 0:
            oracle = joint
        else:
            oracle = PerturbedConditionalModel(joint, 0.2 + 0.6 * float(rng.random()), derived_seed(base_seed, k, 1))
        cases.append((joint, oracle))
    return cases


@pytest.fixture
def two_by_two() -> TabularJointModel:
    return TabularJointModel.from_probabilities(np.array([[0.4, 0.1], [0.2, 0.3]]))
