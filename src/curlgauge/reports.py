"""Experiment configuration, report assembly, and JSON/CSV serialization.

JSON is the canonical report format; CSVs are derived long-format views of
the tabular sections.  Floats are serialized with Python's shortest
round-trip repr, so parsing a report back yields bit-identical values.  A
report's text is ``json.dumps(report, indent=1, allow_nan=False)``, written
by :func:`core.write_json` through the C encoder.  CSV rows go to
``csv.writer.writerows`` as the views give them, formatted first only in a
file holding a bool or a float subclass.
Report files are written atomically (temp file + rename), and every report
embeds the tool version, the hash of the effective configuration, and the
global seed.  Wall-clock metadata lives under "meta" and is the only part
excluded from reproducibility guarantees.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import operator
import os
import sys
import time
from typing import Iterable, Mapping, Sequence

from . import __version__
from .core import ModelBundle, PartialContext, PerturbedConditionalModel, atomic_write_text, load_model, seeded_rng, write_json
from .errors import ConfigError
from .synth import SyntheticTaskSpec, generate_joint


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: Mapping) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def check_keys(obj: Mapping, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing required fields {sorted(missing)} in {where}")


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays or objects nested too deep to parse
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


def _finite_number(text: str) -> float:
    if not math.isfinite(value := float(text)):  # NaN, Infinity and literals past the float range
        raise ValueError(f"non-finite number {text}")
    return value


# ---------------------------------------------------------------------------
# config schema: a kind is int (JSON integer), float (JSON number, read as a float), str, [kind] (array),
# obj(...) (object of named fields) or free(kind) (object with any keys).  A null optional field counts
# as absent.  Value ranges are checked by each field's consumer.


def obj(required: str = "", **fields) -> tuple:
    """An object kind: the kind of each field, and the names of the required ones."""
    return fields, frozenset(required.split())


def free(kind) -> tuple:
    return kind, frozenset()


OPERATOR = obj("kind", kind=str, tau=float)
SCHEDULER = obj("kind", kind=str, seed=int, lam_confidence=float, lam_conflict=float, lam_dependence=float, block_search=str)
STRESS = obj("widths schedulers", widths=[int], schedulers=[SCHEDULER], operator=OPERATOR, runs=int)
PLAN = obj("mode", mode=str, n=int, seed=int)
TRAIN = obj(coverage=str, coverage_fraction=float, steps=int, learning_rate=float, ecirc_weight=float, ecirc_samples=int,
            seed=int, init_scale=float, grad_tol=float)
SYNTHETIC = obj("family positions vocab_size", family=str, positions=int, vocab_size=int, seed=int, beta=float, level=int,
                levels_total=int, table=[float], perturbation=obj("delta seed", delta=float, seed=int))
CONTEXTS = obj(explicit=[obj("block", observed=free(int), block=[int], time=float)],
               sample=obj("count", count=int, seed=int, min_block=int))
COMMON = {"model": obj(file=str, synthetic=SYNTHETIC), "contexts": CONTEXTS, "seed": int}
SCHEMA = {
    "curl-scan": obj("model", **COMMON, plan=PLAN, epsilon=float),
    "order-gap": obj("model", **COMMON, monte_carlo=obj("n", n=int, seed=int)),
    "tc": obj("model", **COMMON),
    "order-error": obj("model", **COMMON, orders=[[int]]),
    "commutator": obj("model", **COMMON, operator=OPERATOR),
    "stress": obj("model stress", **COMMON, stress=STRESS),
    "synth-gen": obj("model", **COMMON, model_out=str),
    "train": obj("model", **COMMON, train=TRAIN, model_out=str),
    "consistency": obj("model", **COMMON, tol=float),
}
_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a finite number"), str: ((str,), "a string")}


def parse_config(command: str, config: Mapping) -> dict:
    """Check a command's whole config against its schema before any computation."""
    return _walk(config, SCHEMA[command], "config")


def _walk(value, kind, where: str):
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be an array, got {value!r}")
        return [_walk(item, kind[0], f"{where}[{k}]") for k, item in enumerate(value)]
    if isinstance(kind, tuple):
        fields, required = kind
        if not isinstance(fields, dict):
            fields = dict.fromkeys(value if isinstance(value, Mapping) else (), fields)
        check_keys(value, set(fields), required, where)
        return {k: _walk(v, fields[k], f"{where}.{k}") for k, v in value.items() if v is not None or k in required}
    types, name = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types) or (kind is float and abs(value) > sys.float_info.max):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return kind(value)


# ---------------------------------------------------------------------------
# CSV views: the one place a section's CSV files and columns are declared.  A reader gives a section's
# rows as mappings, and a cell is the row's value under its column, empty when the row lacks the key;
# an in_order reader gives each row as a tuple of its cells instead.


def _view(name: str, columns: str, read, in_order: bool = False) -> tuple:
    """A CSV file of a section: its name, its columns, its row reader, and whether the reader's
    rows are their values in column order."""
    return name, columns.split(), read, in_order


_SAMPLE = operator.itemgetter("i", "j", "a", "b", "value", "normalized_value")


# a section without views (synth_gen) is JSON-only
CSV_VIEWS = {
    "curl_scan": (
        _view("curl_samples", "context_id i j a b value normalized_value",
              lambda s: ((e["context_id"], *_SAMPLE(x)) for e in s for x in e["report"]["samples"]), in_order=True),
        _view("order_swap_kl", "context_id pair kl",
              lambda s: ((e["context_id"], *kv) for e in s for kv in e["report"]["stats"]["order_swap_kl"].items()),
              in_order=True),
    ),
    "order_gap": (_view("order_gap", "context_id i j kl_ij kl_ji mc_value mc_stderr mc_n", lambda s: s),),
    "dependence": (
        _view("dependence", "context_id tc sum_marginal_entropies joint_entropy independent_parallel_kl sum_pairwise_cmi",
              lambda s: ({**e, **e["report"]} for e in s)),
        _view("pairwise_cmi", "context_id pair cmi",
              lambda s: ((e["context_id"], *kv) for e in s for kv in e["report"]["pairwise_cmi"].items()),
              in_order=True),
    ),
    "order_error": (
        _view("order_rankings", "context_id rank order cross_entropy conditional_entropy kl_total",
              lambda s: ({**e, **p, "rank": k, "order": "-".join(map(str, p["order"]))}
                         for e in s for k, p in enumerate(e["profiles"]))),
    ),
    "commutator": (_view("commutator", "context_id i j value", lambda s: s["pairs"]),),
    "stress": (
        _view("stress", "context_id scheduler width nll degradation ecirc_abs tc mean_eps conflict", lambda s: s["rows"]),
        _view("stress_correlations", "cell predictor spearman_rho n_contexts",
              lambda s: ((cell, name, rho, stats["n_contexts"])
                         for cell, stats in s["correlations"].items() for name, rho in stats.items() if name != "n_contexts"),
              in_order=True),
    ),
    "consistency": (
        _view("consistency", "context_id consistent max_order_gap max_curl", lambda s: ({**e, **e["report"]} for e in s)),
    ),
    "training": (
        _view("train_history", "step loss penalty grad_norm",
              lambda s: zip(itertools.count(), *(s["history"][c] for c in ("loss", "penalty", "grad_norm"))),
              in_order=True),
    ),
}


# ---------------------------------------------------------------------------
# model and context resolution


def resolve_model(model_config: Mapping) -> ModelBundle:
    """The model of a config's ``model`` section.  A model file that cannot be read or parsed is a
    config error; one past the size caps raises SizeCapError, as the same recipe does."""
    if ("file" in model_config) == ("synthetic" in model_config):
        raise ConfigError("model needs exactly one of 'file' or 'synthetic'")
    if "file" in model_config:
        try:
            return load_model(model_config["file"])
        # ValueError: JSON, shape, contract; RecursionError: JSON nested too deep to parse
        except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"cannot load model file {model_config['file']}: {exc}") from exc
    synth = dict(model_config["synthetic"])
    perturbation = synth.pop("perturbation", None)
    if "table" in synth:
        synth["table"] = tuple(synth["table"])
    spec = SyntheticTaskSpec(**synth)
    oracle = joint = generate_joint(spec)
    if perturbation is not None:
        oracle = PerturbedConditionalModel(joint, perturbation["delta"], perturbation["seed"])
    return ModelBundle(oracle, joint)


def resolve_contexts(contexts_config, bundle: ModelBundle, default_seed: int) -> list[PartialContext]:
    """Explicit context list, or seeded sampling of (observed subset, values)."""
    positions = bundle.oracle.positions
    vocab = bundle.oracle.vocab.size
    if contexts_config is None:
        return [PartialContext(observed={}, block=tuple(range(positions)))]
    if ("explicit" in contexts_config) == ("sample" in contexts_config):
        raise ConfigError("contexts needs exactly one of 'explicit' or 'sample'")
    if "explicit" in contexts_config:
        out = []
        for k, raw in enumerate(contexts_config["explicit"]):
            try:
                context = PartialContext.from_dict(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad context in contexts.explicit[{k}]: {exc}") from exc
            if not context.block:
                raise ConfigError(f"contexts.explicit[{k}] has an empty block")
            bad = [p for p in (*context.observed, *context.block) if not (0 <= p < positions)]
            bad += [t for t in context.observed.values() if not (0 <= t < vocab)]
            if bad:
                raise ConfigError(
                    f"contexts.explicit[{k}] does not fit a model with {positions} positions and {vocab} tokens"
                )
            out.append(context)
        if not out:
            raise ConfigError("contexts.explicit must list at least one context")
        return out
    sample = contexts_config["sample"]
    count = sample["count"]
    min_block = sample.get("min_block", 2)
    if count < 1:
        raise ConfigError("contexts.sample.count must be >= 1")
    if not (1 <= min_block <= positions):
        raise ConfigError(f"contexts.sample.min_block must be in 1..{positions}")
    rng = seeded_rng(sample.get("seed", default_seed), 13)
    out = []
    for _ in range(count):
        block_size = int(rng.integers(min_block, positions + 1))
        block = tuple(sorted(rng.choice(positions, size=block_size, replace=False).tolist()))
        observed = {int(p): int(rng.integers(vocab)) for p in range(positions) if p not in block}
        out.append(PartialContext(observed=observed, block=block))
    return out


# ---------------------------------------------------------------------------
# report assembly and writing


def build_report(command: str, config: Mapping, seed: int, model_id: str, sections: Mapping, started: float) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "model_id": model_id,
        "sections": sections,
        "meta": {
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "duration_s": time.time() - started,
        },
    }


def write_report_json(report: Mapping, path) -> str:
    """Write the report as ``json.dumps(report, indent=1, allow_nan=False)`` and a newline."""

    def fill(fh):
        write_json(report, fh, allow_nan=False)
        fh.write("\n")

    atomic_write_text(path, fill)
    return str(path)


# cells the csv module writes as they are: None empty, anything else as its str (a float's repr)
_PLAIN_CELLS = frozenset((float, int, str, type(None)))


def _cell(value):
    """A bool as ``true`` or ``false``, a float subclass as its repr, any other value as it is."""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else value


def _write_csv(path, columns: Sequence[str], rows: Iterable, in_order: bool = False) -> str:
    """Write each row's value under each column; a row without the key gives an empty cell.  An
    ``in_order`` row is its values in column order.  The rows go to the csv module as they are,
    unless a value in the file is of another type than those of ``_PLAIN_CELLS``: then every
    cell is passed through ``_cell`` first."""
    cells = list(rows) if in_order else [[row.get(c) for c in columns] for row in rows]
    if not set(map(type, itertools.chain.from_iterable(cells))) <= _PLAIN_CELLS:
        cells = [[*map(_cell, row)] for row in cells]

    def fill(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)

    atomic_write_text(path, fill)
    return str(path)


def emit_plot_data(report: Mapping, out_dir, base: str) -> list[str]:
    """Derive long-format CSV files, ``<base>_<view>.csv``, from a report's tabular sections.

    Every emitted CSV repeats values exactly as found in the JSON report
    (shortest round-trip float text), so both views agree value for value.
    Sections with no rows become header-only files.
    """
    sections = report.get("sections", {})
    return [
        _write_csv(os.path.join(out_dir, f"{base}_{name}.csv"), columns, read(sections[section]), in_order)
        for section, views in CSV_VIEWS.items()
        if section in sections
        for name, columns, read, in_order in views
    ]
