"""Command-line front end: config-driven diagnostic runs with JSON/CSV reports.

Exit codes: 0 success, 2 configuration error (malformed JSON, unknown fields,
or values a library call rejects as out of contract), 3 enumeration-cap
refusal, 4 training failure, 5 failed identity check.  Reports are written
only after the whole computation succeeds, atomically, so failed runs leave
no partial artifacts.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time

import click

from . import __version__
from .core import save_model
from .decoding import (
    DecodeState,
    SchedulerSpec,
    UpdateOperator,
    commutator,
    conflict_score,
    sample_commit,
    stress_test,
)
from .dependence import dependence_report
from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateComparisonError,
    IdentityCheckError,
    SizeCapError,
    TrainingFailureError,
)
from .ordererror import rank_orders, stratify_contexts
from .pseudojoint import (
    ExhaustivePlan,
    MonteCarloPlan,
    curl_scan_report,
    order_consistency_check,
    order_swap_kl,
)
from .reports import (
    build_report,
    check_keys,
    emit_plot_data,
    load_config,
    number_field,
    resolve_contexts,
    resolve_model,
    write_report_json,
)
from .synth import TrainConfig, train_tabular

_COMMON_KEYS = {"model", "contexts", "seed"}
# numeric train fields: JSON integers, then JSON numbers
_TRAIN_INTEGERS = {"steps", "ecirc_samples", "seed"}
_TRAIN_NUMBERS = {"learning_rate", "ecirc_weight", "init_scale", "grad_tol", "coverage_fraction"}


def _operator_from_config(raw, where: str) -> UpdateOperator:
    if raw is None:
        return sample_commit()
    check_keys(raw, {"kind", "tau"}, {"kind"}, where)
    return UpdateOperator(kind=raw["kind"], tau=raw.get("tau"))


def _scheduler_from_config(raw, where: str) -> SchedulerSpec:
    check_keys(
        raw,
        {"kind", "seed", "lam_confidence", "lam_conflict", "lam_dependence", "block_search"},
        {"kind"},
        where,
    )
    return SchedulerSpec(**{str(k): v for k, v in raw.items()})


def _positive_number(config, key: str, default: float) -> float:
    value = number_field(config.get(key, default), key)
    if not (0 < value < float("inf")):
        raise ConfigError(f"{key} must be a finite positive number, got {value!r}")
    return value


def _plan_from_config(raw, default_seed: int, where: str):
    if raw is None:
        return ExhaustivePlan()
    check_keys(raw, {"mode", "n", "seed"}, {"mode"}, where)
    if raw["mode"] == "exhaustive":
        return ExhaustivePlan()
    if raw["mode"] == "monte-carlo":
        if "n" not in raw:
            raise ConfigError(f"{where} monte-carlo plan needs 'n'")
        return _monte_carlo_plan(raw, default_seed, where)
    raise ConfigError(f"{where}.mode must be 'exhaustive' or 'monte-carlo'")


def _monte_carlo_plan(raw, default_seed: int, where: str) -> MonteCarloPlan:
    return MonteCarloPlan(
        seed=number_field(raw.get("seed", default_seed), f"{where}.seed", integer=True),
        n=number_field(raw["n"], f"{where}.n", integer=True),
    )


def config_options(fn):
    @click.option("--config", "config_path", required=True, type=click.Path(), help="JSON experiment config.")
    @click.option("--seed", type=int, default=None, help="Override the config's global seed.")
    @click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True, help="Output directory.")
    @click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "json+csv"]),
        default="json+csv",
        show_default=True,
        help="Artifact formats to write.",
    )
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def _run(command: str, config_path, seed_override, out_dir, fmt, allowed_keys: set[str], body) -> None:
    """Load and validate the config, run the body, write artifacts, exit 0."""
    started = time.time()
    try:
        config = load_config(config_path)
        check_keys(config, _COMMON_KEYS | allowed_keys, {"model"}, "config")
        if seed_override is not None:
            config["seed"] = int(seed_override)
        seed = number_field(config.get("seed", 0), "seed", integer=True)
        bundle = resolve_model(config["model"])
        contexts = resolve_contexts(config.get("contexts"), bundle, seed)
        sections = body(config, seed, bundle, contexts, out_dir)
    except (ConfigError, ContractViolationError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except SizeCapError as exc:
        click.echo(f"size cap refusal: {exc}", err=True)
        sys.exit(3)
    except TrainingFailureError as exc:
        click.echo(f"training failure: {exc}", err=True)
        sys.exit(4)
    except IdentityCheckError as exc:
        click.echo(f"identity check failed: {exc}", err=True)
        sys.exit(5)
    report = build_report(command, config, seed, bundle.model_id, sections, started)
    base = command.replace("-", "_")
    paths = [write_report_json(report, os.path.join(out_dir, f"{base}.json"))]
    if fmt == "json+csv":
        paths.extend(emit_plot_data(report, out_dir, base))
    for path in paths:
        click.echo(path)


def _require_joint(bundle, command: str):
    if bundle.joint is None:
        raise ConfigError(f"{command} needs a reference joint; the model file has no log_mass table")
    return bundle.joint


@click.group()
@click.version_option(version=__version__, prog_name="curlgauge")
def main():
    """Exact order-consistency diagnostics for local conditional models."""


@main.command("curl-scan")
@config_options
def cmd_curl_scan(config_path, seed, out_dir, fmt):
    """Scan circulation over contexts; summary stats plus per-square samples."""

    def body(config, seed, bundle, contexts, out_dir):
        plan_cfg = config.get("plan")
        epsilon = _positive_number(config, "epsilon", 1e-6)
        entries = []
        for cid, context in enumerate(contexts):
            plan = _plan_from_config(plan_cfg, seed, "plan")
            entries.append(
                {"context_id": cid, "report": curl_scan_report(bundle.oracle, context, plan, epsilon, bundle.model_id)}
            )
        return {"curl_scan": entries}

    _run("curl-scan", config_path, seed, out_dir, fmt, {"plan", "epsilon"}, body)


@main.command("order-gap")
@config_options
def cmd_order_gap(config_path, seed, out_dir, fmt):
    """Exact two-order KL for every block pair, optionally with an MC estimate."""

    def body(config, seed, bundle, contexts, out_dir):
        mc_cfg = config.get("monte_carlo")
        entries = []
        for cid, context in enumerate(contexts):
            for i, j in itertools.combinations(sorted(context.block), 2):
                entry = {
                    "context_id": cid,
                    "i": i,
                    "j": j,
                    "kl_ij": order_swap_kl(bundle.oracle, context, i, j).value,
                    "kl_ji": order_swap_kl(bundle.oracle, context, j, i).value,
                }
                if mc_cfg is not None:
                    check_keys(mc_cfg, {"n", "seed"}, {"n"}, "monte_carlo")
                    est = order_swap_kl(bundle.oracle, context, i, j, mode=_monte_carlo_plan(mc_cfg, seed, "monte_carlo"))
                    entry |= {"mc_value": est.value, "mc_stderr": est.stderr, "mc_n": est.n}
                entries.append(entry)
        return {"order_gap": entries}

    _run("order-gap", config_path, seed, out_dir, fmt, {"monte_carlo"}, body)


@main.command("tc")
@config_options
def cmd_tc(config_path, seed, out_dir, fmt):
    """Total correlation, entropies, independent-parallel gap, pairwise MI."""

    def body(config, seed, bundle, contexts, out_dir):
        joint = _require_joint(bundle, "tc")
        entries = [
            {"context_id": cid, "report": dependence_report(bundle.oracle, joint, context).to_dict()}
            for cid, context in enumerate(contexts)
        ]
        return {"dependence": entries}

    _run("tc", config_path, seed, out_dir, fmt, set(), body)


@main.command("order-error")
@config_options
def cmd_order_error(config_path, seed, out_dir, fmt):
    """Rank resolution orders by exact order-specific KL; stratify steps."""

    def body(config, seed, bundle, contexts, out_dir):
        joint = _require_joint(bundle, "order-error")
        orders_cfg = config.get("orders")
        entries = []
        for cid, context in enumerate(contexts):
            profiles = rank_orders(bundle.oracle, joint, context, orders_cfg)
            entries.append(
                {
                    "context_id": cid,
                    "profiles": [p.to_dict() for p in profiles],
                    "strata": stratify_contexts(profiles),
                }
            )
        return {"order_error": entries}

    _run("order-error", config_path, seed, out_dir, fmt, {"orders"}, body)


@main.command("commutator")
@config_options
def cmd_commutator(config_path, seed, out_dir, fmt):
    """Pairwise operator commutators and the block conflict score."""

    def body(config, seed, bundle, contexts, out_dir):
        operator = _operator_from_config(config.get("operator"), "operator")
        pairs_out = []
        conflicts = []
        for cid, context in enumerate(contexts):
            state = DecodeState(context=context, rng_seed=seed)
            block = sorted(context.block)
            for i, j in itertools.combinations(block, 2):
                try:
                    report = commutator(bundle.oracle, state, operator, i, j)
                except DegenerateComparisonError:
                    continue
                pairs_out.append({"context_id": cid, "i": i, "j": j, "value": report.value})
            if len(block) >= 2:
                conflicts.append({"context_id": cid, **conflict_score(bundle.oracle, state, operator, block).to_dict()})
        return {"commutator": {"pairs": pairs_out, "conflict": conflicts, "operator": operator.to_dict()}}

    _run("commutator", config_path, seed, out_dir, fmt, {"operator"}, body)


@main.command("stress")
@config_options
def cmd_stress(config_path, seed, out_dir, fmt):
    """Decode under schedulers and widths; relate degradation to predictors."""

    def body(config, seed, bundle, contexts, out_dir):
        joint = _require_joint(bundle, "stress")
        check_keys(config.get("stress", {}), {"widths", "schedulers", "operator", "runs"}, {"widths", "schedulers"}, "stress")
        stress_cfg = config["stress"]
        operator = _operator_from_config(stress_cfg.get("operator"), "stress.operator")
        schedulers = [
            _scheduler_from_config(raw, f"stress.schedulers[{k}]") for k, raw in enumerate(stress_cfg["schedulers"])
        ]
        report = stress_test(
            bundle.oracle,
            joint,
            contexts,
            [number_field(w, f"stress.widths[{k}]", integer=True) for k, w in enumerate(stress_cfg["widths"])],
            schedulers,
            operator=operator,
            runs=number_field(stress_cfg.get("runs", 200), "stress.runs", integer=True),
            seed=seed,
        )
        return {"stress": report.to_dict()}

    _run("stress", config_path, seed, out_dir, fmt, {"stress"}, body)


@main.command("synth-gen")
@config_options
def cmd_synth_gen(config_path, seed, out_dir, fmt):
    """Generate a synthetic joint and write it as a model file."""

    def body(config, seed, bundle, contexts, out_dir):
        out_name = config.get("model_out", "model.json")
        path = os.path.join(out_dir, out_name)
        os.makedirs(out_dir, exist_ok=True)
        save_model(bundle.oracle, path)
        return {"synth_gen": {"model_file": path, "model_id": bundle.model_id}}

    _run("synth-gen", config_path, seed, out_dir, fmt, {"model_out"}, body)


@main.command("train")
@config_options
def cmd_train(config_path, seed, out_dir, fmt):
    """Train a logit-table oracle against the model's conditionals."""

    def body(config, seed, bundle, contexts, out_dir):
        joint = _require_joint(bundle, "train")
        raw = config.get("train", {})
        check_keys(raw, {"coverage"} | _TRAIN_INTEGERS | _TRAIN_NUMBERS, set(), "train")
        train_config = TrainConfig(
            **{k: v if k == "coverage" else number_field(v, f"train.{k}", k in _TRAIN_INTEGERS) for k, v in raw.items()}
        )
        oracle = train_tabular(joint, train_config)
        out_name = config.get("model_out", "trained_model.json")
        path = os.path.join(out_dir, out_name)
        os.makedirs(out_dir, exist_ok=True)
        save_model(oracle, path)
        return {
            "training": {
                "model_file": path,
                "steps_run": len(oracle.history["loss"]),
                "final_loss": oracle.history["loss"][-1],
                "train_config": train_config.to_dict(),
                "history": oracle.history,
            }
        }

    _run("train", config_path, seed, out_dir, fmt, {"train", "model_out"}, body)


@main.command("consistency")
@config_options
def cmd_consistency(config_path, seed, out_dir, fmt):
    """Brute-force order-consistency verdicts per context."""

    def body(config, seed, bundle, contexts, out_dir):
        tol = _positive_number(config, "tol", 1e-8)
        entries = [
            {"context_id": cid, "report": order_consistency_check(bundle.oracle, context, tol).to_dict()}
            for cid, context in enumerate(contexts)
        ]
        return {"consistency": entries}

    _run("consistency", config_path, seed, out_dir, fmt, {"tol"}, body)


if __name__ == "__main__":
    main()
