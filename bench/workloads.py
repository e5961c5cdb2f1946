"""The benchmark's workloads: fixed job lists whose random content comes from a seed.

A workload is a list of jobs run in order, one round after another. Every
job is one ``curlgauge`` command with a generated config. The seed picks the
model seeds, perturbation seeds, contexts and Monte Carlo / training seeds;
the commands and sizes are fixed, so every seed costs about the same.

Jobs in the ``train`` workload read the model files written by earlier jobs
of the same round; the round therefore always runs in list order.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DELTAS = (0.4,)  # logit perturbations of the incompatible variants of a model
CHAIN_BETA = 0.8
MC_SAMPLES = 200
SCHEDULERS = ("left-to-right", "random", "confidence", "conflict-aware")
# trainer steps per coverage, without and with the circulation penalty: chosen so the
# six runs take similar times, which keeps the workload's median and tail on a dense
# stretch of job times instead of a gap between two job types
TRAIN_STEPS = {"prefix-only": (1200, 200), "fraction": (400, 200), "all-masks": (200, 150)}


@dataclass(frozen=True)
class Recipe:
    """A synthetic joint as the ``synthetic`` model section describes it."""

    family: str
    positions: int
    vocab: int
    seed: int

    def section(self) -> dict:
        out = {"family": self.family, "positions": self.positions, "vocab_size": self.vocab, "seed": self.seed}
        if self.family == "chain":
            out["beta"] = CHAIN_BETA
        return out

    @property
    def key(self) -> str:
        return f"{self.family}-m{self.positions}v{self.vocab}-s{self.seed}"


@dataclass
class Job:
    """One CLI call: command, config, and what its checks need to know."""

    name: str
    command: str
    config: dict
    recipe: Recipe  # the synthetic joint behind the model (the reference p)
    exact: bool  # the oracle is the joint itself, so its conditionals are compatible
    contexts: list = field(default_factory=list)  # explicit contexts, as dicts
    source_model: str | None = None  # train jobs: the model file synth-gen wrote

    @property
    def report_name(self) -> str:
        return self.command.replace("-", "_") + ".json"


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    smallest: Job  # the job a set-up launch runs
    workdir: Path

    def config_path(self, job: Job) -> Path:
        return self.workdir / "configs" / f"{job.name}.json"

    def out_dir(self, job: Job) -> Path:
        return self.workdir / "out" / job.name

    def write_configs(self) -> None:
        (self.workdir / "configs").mkdir(parents=True, exist_ok=True)
        for job in [*self.jobs, self.smallest]:
            self.config_path(job).write_text(json.dumps(job.config, indent=1, sort_keys=True))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _contexts(rng: np.random.Generator, positions: int, vocab: int, block_sizes) -> list[dict]:
    """Contexts with the given block sizes; every other position is observed."""
    out = []
    for size in block_sizes:
        block = sorted(int(p) for p in rng.choice(positions, size=size, replace=False))
        observed = {str(p): int(rng.integers(vocab)) for p in range(positions) if p not in block}
        out.append({"observed": observed, "block": block})
    return out


def _model(recipe: Recipe, perturbation: dict | None = None) -> dict:
    section = recipe.section()
    if perturbation is not None:
        section["perturbation"] = perturbation
    return {"synthetic": section}


def _variants(rng, name, command, family, positions, vocab, block_sizes, extra=None, deltas=DELTAS) -> list[Job]:
    """The same job on one model, without and with each logit perturbation."""
    recipe = Recipe(family, positions, vocab, _seed(rng))
    contexts = _contexts(rng, positions, vocab, block_sizes)
    perturbation_seed = _seed(rng)
    jobs = []
    for delta in (None, *deltas):
        perturbation = None if delta is None else {"delta": delta, "seed": perturbation_seed}
        config = {
            "model": _model(recipe, perturbation),
            "contexts": {"explicit": contexts},
            "seed": _seed(rng),
            **(extra(rng) if extra else {}),
        }
        label = f"{name}-{'exact' if delta is None else f'd{delta}'}"
        jobs.append(Job(label, command, config, recipe, delta is None, contexts))
    return jobs


def _audit(rng) -> tuple[list[Job], Job]:
    monte_carlo = lambda r: {"monte_carlo": {"n": MC_SAMPLES, "seed": _seed(r)}}  # noqa: E731
    jobs = [
        *_variants(rng, "consistency-chain-m5v3", "consistency", "chain", 5, 3, [5]),
        *_variants(rng, "consistency-exch-m4v4", "consistency", "exchangeable", 4, 4, [4], deltas=(0.4, 1.0)),
        *_variants(rng, "consistency-chain-m5v4", "consistency", "chain", 5, 4, [4, 3]),
        *_variants(rng, "order-error-chain-m5v3", "order-error", "chain", 5, 3, [4]),
        *_variants(rng, "order-error-exch-m4v4", "order-error", "exchangeable", 4, 4, [4, 3]),
        *_variants(rng, "curl-scan-exch-m6v8", "curl-scan", "exchangeable", 6, 8, [6, 4]),
        *_variants(rng, "order-gap-chain-m6v8", "order-gap", "chain", 6, 8, [4], monte_carlo),
        *_variants(rng, "tc-chain-m6v8", "tc", "chain", 6, 8, [6, 5, 4, 3]),
        *_variants(rng, "commutator-exch-m6v8", "commutator", "exchangeable", 6, 8, [6, 4]),
    ]
    smallest = _variants(rng, "setup-tc-chain-m4v3", "tc", "chain", 4, 3, [3])[1]
    return jobs, smallest


def _stress_section(runs: int):
    def extra(rng) -> dict:
        schedulers = [{"kind": kind} for kind in SCHEDULERS]
        schedulers[1]["seed"] = _seed(rng)
        return {
            "stress": {
                "widths": [1, 2, 3],
                "schedulers": schedulers,
                "operator": {"kind": "sample-commit"},
                "runs": runs,
            }
        }

    return extra


def _decode(rng) -> tuple[list[Job], Job]:
    jobs = [
        *_variants(rng, "stress-chain-m4v3", "stress", "chain", 4, 3, [4, 3], _stress_section(24)),
        *_variants(rng, "stress-exch-m4v5", "stress", "exchangeable", 4, 5, [4], _stress_section(24), (0.4, 1.0)),
        *_variants(rng, "stress-chain-m5v4", "stress", "chain", 5, 4, [5, 3], _stress_section(16)),
        *_variants(rng, "stress-exch-m6v6", "stress", "exchangeable", 6, 6, [4, 3], _stress_section(16)),
        *_variants(rng, "stress-chain-m6v8", "stress", "chain", 6, 8, [4, 3], _stress_section(16)),
    ]
    smallest = _variants(rng, "setup-stress-chain-m4v3", "stress", "chain", 4, 3, [3], _stress_section(4))[1]
    return jobs, smallest


def _train(rng, workdir: Path) -> tuple[list[Job], Job]:
    recipe = Recipe("chain", 5, 3, _seed(rng))
    model_file = str(workdir / "out" / "synth-gen" / "model.json")
    jobs = [Job("synth-gen", "synth-gen", {"model": _model(recipe), "model_out": "model.json"}, recipe, True)]
    trained = {}
    for coverage in ("prefix-only", "fraction", "all-masks"):
        for weight in (0.0, 1.0):
            train = {
                "coverage": coverage,
                "steps": TRAIN_STEPS[coverage][weight > 0],
                "learning_rate": 1.0,
                "ecirc_weight": weight,
                "ecirc_samples": 32,
                "seed": _seed(rng),
                "grad_tol": 0.0,  # run every step, so a job's cost does not depend on the seed
            }
            if coverage == "fraction":
                train["coverage_fraction"] = 0.5
            name = f"train-{coverage}-{'penalty' if weight else 'plain'}"
            config = {"model": {"file": model_file}, "train": train, "model_out": "trained.json"}
            jobs.append(Job(name, "train", config, recipe, False, source_model=model_file))
            trained[name] = str(workdir / "out" / name / "trained.json")
    for name in ("train-prefix-only-plain", "train-all-masks-penalty"):
        contexts = _contexts(rng, recipe.positions, recipe.vocab, [5, 4])
        for command in ("curl-scan", "consistency"):
            explicit = contexts[:1] if command == "consistency" else contexts
            config = {"model": {"file": trained[name]}, "contexts": {"explicit": explicit}}
            jobs.append(Job(f"{command}-{name}", command, config, recipe, False, explicit))
    setup_recipe = Recipe("chain", 4, 3, _seed(rng))
    smallest = Job("setup-synth-gen", "synth-gen", {"model": _model(setup_recipe), "model_out": "model.json"}, setup_recipe, True)
    return jobs, smallest


WORKLOADS = ("audit", "decode", "train")


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = _rng(name, seed)
    if name == "audit":
        jobs, smallest = _audit(rng)
    elif name == "decode":
        jobs, smallest = _decode(rng)
    elif name == "train":
        jobs, smallest = _train(rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    return Workload(name, jobs, smallest, workdir)
