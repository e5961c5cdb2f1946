"""Command-line front end: config-driven diagnostic runs with JSON/CSV reports.

Exit codes: 0 success, 2 configuration error (malformed JSON, non-finite
number literals, unknown or missing fields, values of the wrong kind, values
a library call rejects as out of contract, a custom table of the wrong size),
3 enumeration-cap refusal, 4 training failure, 5 failed identity check.  The
whole config is checked against its schema before any computation; reports
are written only after the whole computation succeeds, atomically, so failed
runs leave no partial artifacts.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import click

from . import __version__
from .core import save_model
from .decoding import (
    SchedulerSpec,
    UpdateOperator,
    conflict_score,
    context_row,
    draw_row,
    sample_commit,
    stress_test,
)
from .dependence import dependence_report
from .errors import (
    ConfigError,
    ContractViolationError,
    DimensionError,
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
    order_gap_entries,
)
from .reports import build_report, emit_plot_data, load_config, parse_config, resolve_contexts, resolve_model, write_report_json
from .synth import TrainConfig, train_tabular


def _operator_from_config(raw) -> UpdateOperator:
    return sample_commit() if raw is None else UpdateOperator(kind=raw["kind"], tau=raw.get("tau"))


def _positive_number(value: float, key: str) -> float:
    if not (0 < value < float("inf")):
        raise ConfigError(f"{key} must be a finite positive number, got {value!r}")
    return value


def _model_path(config, out_dir, default: str, command: str) -> str:
    """Where a command saves its model: ``model_out`` must be a plain file name inside
    ``--out`` that none of the command's reports (``<command>.json``, ``<command>_*.csv``) takes."""
    name, base = config.get("model_out", default), command.replace("-", "_")
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"model_out must be a plain file name inside --out, got {name!r}")
    if name == f"{base}.json" or (name.startswith(f"{base}_") and name.endswith(".csv")):
        raise ConfigError(f"model_out {name!r} is a {command} report file, which would overwrite the model")
    return os.path.join(out_dir, name)


def _plan_from_config(raw, default_seed: int):
    if raw is None or raw["mode"] == "exhaustive":
        return ExhaustivePlan()
    if raw["mode"] != "monte-carlo":
        raise ConfigError("plan.mode must be 'exhaustive' or 'monte-carlo'")
    if "n" not in raw:
        raise ConfigError("plan: a monte-carlo plan needs 'n'")
    return MonteCarloPlan(seed=raw.get("seed", default_seed), n=raw["n"])


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


def _run(command: str, config_path, seed_override, out_dir, fmt, body) -> None:
    """Load and check the whole config, run the body, write artifacts, exit 0."""
    started = time.time()
    try:
        raw = load_config(config_path)
        if seed_override is not None:
            raw["seed"] = seed_override
        config = parse_config(command, raw)
        seed = config.get("seed", 0)
        bundle = resolve_model(config["model"])
        contexts = resolve_contexts(config.get("contexts"), bundle, seed)
        sections = body(config, seed, bundle, contexts, out_dir)
    except (ConfigError, ContractViolationError, DimensionError) as exc:
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
    report = build_report(command, raw, seed, bundle.model_id, sections, started)
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
        plan = _plan_from_config(config.get("plan"), seed)
        epsilon = _positive_number(config.get("epsilon", 1e-6), "epsilon")
        entries = [
            {"context_id": cid, "report": curl_scan_report(bundle.oracle, context, plan, epsilon, model_id=bundle.model_id)}
            for cid, context in enumerate(contexts)
        ]
        return {"curl_scan": entries}

    _run("curl-scan", config_path, seed, out_dir, fmt, body)


@main.command("order-gap")
@config_options
def cmd_order_gap(config_path, seed, out_dir, fmt):
    """Exact two-order KL for every block pair, optionally with an MC estimate."""

    def body(config, seed, bundle, contexts, out_dir):
        mc_cfg = config.get("monte_carlo")
        mc_plan = None if mc_cfg is None else MonteCarloPlan(seed=mc_cfg.get("seed", seed), n=mc_cfg["n"])
        entries = [
            {"context_id": cid, **entry}
            for cid, context in enumerate(contexts)
            for entry in order_gap_entries(bundle.oracle, context, mc_plan)
        ]
        return {"order_gap": entries}

    _run("order-gap", config_path, seed, out_dir, fmt, body)


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

    _run("tc", config_path, seed, out_dir, fmt, body)


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

    _run("order-error", config_path, seed, out_dir, fmt, body)


@main.command("commutator")
@config_options
def cmd_commutator(config_path, seed, out_dir, fmt):
    """Pairwise operator commutators and the block conflict score."""

    def body(config, seed, bundle, contexts, out_dir):
        operator = _operator_from_config(config.get("operator"))
        pairs_out = []
        conflicts = []
        for cid, context in enumerate(contexts):
            row = context_row(context, bundle.oracle.positions)
            draws = draw_row(operator, seed, bundle.oracle.positions, context.block)
            block = sorted(context.block)
            if len(block) >= 2:
                # each pair is scored once; a two-position block skips its one pair
                score = conflict_score(bundle.oracle, row, block, operator, block, draws)
                pairs_out.extend({"context_id": cid, "i": i, "j": j, "value": v} for (i, j), v in score.pair_values.items())
                conflicts.append({"context_id": cid, **score.to_dict()})
        return {"commutator": {"pairs": pairs_out, "conflict": conflicts, "operator": operator.to_dict()}}

    _run("commutator", config_path, seed, out_dir, fmt, body)


@main.command("stress")
@config_options
def cmd_stress(config_path, seed, out_dir, fmt):
    """Decode under schedulers and widths; relate degradation to predictors."""

    def body(config, seed, bundle, contexts, out_dir):
        joint = _require_joint(bundle, "stress")
        stress_cfg = config["stress"]
        report = stress_test(
            bundle.oracle,
            joint,
            contexts,
            stress_cfg["widths"],
            [SchedulerSpec(**raw) for raw in stress_cfg["schedulers"]],
            operator=_operator_from_config(stress_cfg.get("operator")),
            runs=stress_cfg.get("runs", 200),
            seed=seed,
        )
        return {"stress": report.to_dict()}

    _run("stress", config_path, seed, out_dir, fmt, body)


@main.command("synth-gen")
@config_options
def cmd_synth_gen(config_path, seed, out_dir, fmt):
    """Generate a synthetic joint and write it as a model file."""

    def body(config, seed, bundle, contexts, out_dir):
        path = _model_path(config, out_dir, "model.json", "synth-gen")
        os.makedirs(out_dir, exist_ok=True)
        save_model(bundle.oracle, path)
        return {"synth_gen": {"model_file": path, "model_id": bundle.model_id}}

    _run("synth-gen", config_path, seed, out_dir, fmt, body)


@main.command("train")
@config_options
def cmd_train(config_path, seed, out_dir, fmt):
    """Train a logit-table oracle against the model's conditionals."""

    def body(config, seed, bundle, contexts, out_dir):
        joint = _require_joint(bundle, "train")
        path = _model_path(config, out_dir, "trained_model.json", "train")
        train_config = TrainConfig(**config.get("train", {}))
        oracle = train_tabular(joint, train_config)
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

    _run("train", config_path, seed, out_dir, fmt, body)


@main.command("consistency")
@config_options
def cmd_consistency(config_path, seed, out_dir, fmt):
    """Brute-force order-consistency verdicts per context."""

    def body(config, seed, bundle, contexts, out_dir):
        tol = _positive_number(config.get("tol", 1e-8), "tol")
        entries = [
            {"context_id": cid, "report": order_consistency_check(bundle.oracle, context, tol).to_dict()}
            for cid, context in enumerate(contexts)
        ]
        return {"consistency": entries}

    _run("consistency", config_path, seed, out_dir, fmt, body)


if __name__ == "__main__":
    main()
