"""Experiment configuration, report assembly, and JSON/CSV serialization.

JSON is the canonical report format; CSVs are derived long-format views of
the tabular sections.  Floats are serialized with Python's shortest
round-trip repr, so parsing a report back yields bit-identical values.
Report files are written atomically (temp file + rename), and every report
embeds the tool version, the hash of the effective configuration, and the
global seed.  Wall-clock metadata lives under "meta" and is the only part
excluded from reproducibility guarantees.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from typing import Mapping, Sequence

from . import __version__
from .core import ModelBundle, PartialContext, PerturbedConditionalModel, model_from_dict, plain_json, seeded_rng
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
    except ValueError as exc:
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
# model and context resolution


def resolve_model(model_config: Mapping) -> ModelBundle:
    if ("file" in model_config) == ("synthetic" in model_config):
        raise ConfigError("model needs exactly one of 'file' or 'synthetic'")
    if "file" in model_config:
        try:
            with open(model_config["file"], "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load model file {model_config['file']}: {exc}") from exc
        try:
            return model_from_dict(data)
        except Exception as exc:
            raise ConfigError(f"bad model file {model_config['file']}: {exc}") from exc
    synth = dict(model_config["synthetic"])
    perturbation = synth.pop("perturbation", None)
    if "table" in synth:
        synth["table"] = tuple(synth["table"])
    spec = SyntheticTaskSpec(**synth)
    oracle = joint = generate_joint(spec)
    if perturbation is not None:
        oracle = PerturbedConditionalModel(joint, perturbation["delta"], perturbation["seed"])
    payload = {"synthetic": spec.to_dict(), "perturbation": perturbation}
    model_id = hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]
    return ModelBundle(oracle=oracle, joint=joint, model_id=model_id)


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
        "config_hash": config_hash(plain_json(config)),
        "seed": seed,
        "model_id": model_id,
        "sections": plain_json(sections),
        "meta": {
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "duration_s": time.time() - started,
        },
    }


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(report: Mapping, path) -> str:
    atomic_write_text(path, json.dumps(report, indent=1, allow_nan=False) + "\n")
    return str(path)


def _write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return repr(value)
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    atomic_write_text(path, buf.getvalue())
    return str(path)


def emit_plot_data(report: Mapping, out_dir, base: str) -> list[str]:
    """Derive long-format CSV files from a report's tabular sections.

    Every emitted CSV repeats values exactly as found in the JSON report
    (shortest round-trip float text), so both views agree value for value.
    Sections with no rows become header-only files.
    """
    sections = report.get("sections", {})
    written: list[str] = []

    def path_for(name: str) -> str:
        return os.path.join(out_dir, f"{base}_{name}.csv")

    if "curl_scan" in sections:
        rows = []
        for entry in sections["curl_scan"]:
            cid = entry["context_id"]
            for s in entry["report"]["samples"]:
                rows.append([cid, s["i"], s["j"], s["a"], s["b"], s["value"], s["normalized_value"]])
        written.append(
            _write_csv(path_for("curl_samples"), ["context_id", "i", "j", "a", "b", "value", "normalized_value"], rows)
        )
        rows = []
        for entry in sections["curl_scan"]:
            stats = entry["report"]["stats"]
            for pair, value in stats["order_swap_kl"].items():
                rows.append([entry["context_id"], pair, value])
        written.append(_write_csv(path_for("order_swap_kl"), ["context_id", "pair", "kl"], rows))

    if "order_gap" in sections:
        rows = [
            [e["context_id"], e["i"], e["j"], e["kl_ij"], e["kl_ji"], e.get("mc_value"), e.get("mc_stderr"), e.get("mc_n")]
            for e in sections["order_gap"]
        ]
        written.append(
            _write_csv(path_for("order_gap"), ["context_id", "i", "j", "kl_ij", "kl_ji", "mc_value", "mc_stderr", "mc_n"], rows)
        )

    if "dependence" in sections:
        rows = []
        cmi_rows = []
        for entry in sections["dependence"]:
            rep = entry["report"]
            rows.append(
                [
                    entry["context_id"],
                    rep["tc"],
                    rep["sum_marginal_entropies"],
                    rep["joint_entropy"],
                    rep["independent_parallel_kl"],
                    rep["sum_pairwise_cmi"],
                ]
            )
            for pair, value in rep["pairwise_cmi"].items():
                cmi_rows.append([entry["context_id"], pair, value])
        written.append(
            _write_csv(
                path_for("dependence"),
                ["context_id", "tc", "sum_marginal_entropies", "joint_entropy", "independent_parallel_kl", "sum_pairwise_cmi"],
                rows,
            )
        )
        written.append(_write_csv(path_for("pairwise_cmi"), ["context_id", "pair", "cmi"], cmi_rows))

    if "order_error" in sections:
        rows = []
        for entry in sections["order_error"]:
            for rank, prof in enumerate(entry["profiles"]):
                rows.append(
                    [
                        entry["context_id"],
                        rank,
                        "-".join(str(p) for p in prof["order"]),
                        prof["cross_entropy"],
                        prof["conditional_entropy"],
                        prof["kl_total"],
                    ]
                )
        written.append(
            _write_csv(
                path_for("order_rankings"),
                ["context_id", "rank", "order", "cross_entropy", "conditional_entropy", "kl_total"],
                rows,
            )
        )

    if "commutator" in sections:
        rows = [
            [e["context_id"], e["i"], e["j"], e["value"]]
            for e in sections["commutator"]["pairs"]
        ]
        written.append(_write_csv(path_for("commutator"), ["context_id", "i", "j", "value"], rows))

    if "stress" in sections:
        rows = [
            [
                r["context_id"],
                r["scheduler"],
                r["width"],
                r["nll"],
                r["degradation"],
                r["ecirc_abs"],
                r["tc"],
                r["mean_eps"],
                r["conflict"],
            ]
            for r in sections["stress"]["rows"]
        ]
        written.append(
            _write_csv(
                path_for("stress"),
                ["context_id", "scheduler", "width", "nll", "degradation", "ecirc_abs", "tc", "mean_eps", "conflict"],
                rows,
            )
        )
        corr_rows = []
        for cell, stats in sections["stress"]["correlations"].items():
            for predictor in ("ecirc_abs", "tc", "mean_eps"):
                corr_rows.append([cell, predictor, stats[predictor], stats["n_contexts"]])
        written.append(
            _write_csv(path_for("stress_correlations"), ["cell", "predictor", "spearman_rho", "n_contexts"], corr_rows)
        )

    if "consistency" in sections:
        rows = [
            [
                e["context_id"],
                e["report"]["consistent"],
                e["report"]["max_order_gap"],
                e["report"]["max_curl"],
            ]
            for e in sections["consistency"]
        ]
        written.append(
            _write_csv(path_for("consistency"), ["context_id", "consistent", "max_order_gap", "max_curl"], rows)
        )

    if "training" in sections:
        hist = sections["training"]["history"]
        rows = [[k, hist["loss"][k], hist["penalty"][k], hist["grad_norm"][k]] for k in range(len(hist["loss"]))]
        written.append(_write_csv(path_for("train_history"), ["step", "loss", "penalty", "grad_norm"], rows))

    return written
