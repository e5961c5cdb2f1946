"""Command-line front end: config-driven diagnostic runs with JSON/CSV reports.

Exit codes: 0 success, 2 configuration error (malformed JSON, non-finite
number literals, unknown or missing fields, values of the wrong kind, values
a library call rejects as out of contract, a custom table of the wrong size,
a model file that cannot be read or parsed, an ``--out`` that cannot be
written), 3 enumeration-cap refusal, 4 training failure, 5 failed identity
check.  The whole config is checked against its schema before any
computation; reports are written only after the whole computation succeeds,
atomically, so failed runs leave no partial artifacts.
"""

from __future__ import annotations

import os
import sys
import time

import click

from . import __version__
from .core import ModelBundle, save_model
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
    DEFAULT_CONSISTENCY_TOL,
    DEFAULT_NORMALIZER_EPSILON,
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
        report = build_report(command, raw, seed, bundle.model_id, sections, started)
        base = command.replace("-", "_")
        paths = [write_report_json(report, os.path.join(out_dir, f"{base}.json"))]
        if fmt == "json+csv":
            paths.extend(emit_plot_data(report, out_dir, base))
    except OSError as exc:
        click.echo(f"config error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}", err=True)
        sys.exit(2)
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


def _command(name: str):
    """Register ``body(config, seed, bundle, contexts, out_dir) -> sections`` as command ``name``, with the
    shared options; the body's docstring is the command's help."""

    def register(body):
        @main.command(name, help=body.__doc__)
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
        def command(config_path, seed, out_dir, fmt):
            _run(name, config_path, seed, out_dir, fmt, body)

        return body

    return register


@_command("curl-scan")
def curl_scan(config, seed, bundle, contexts, out_dir):
    """Scan circulation over contexts; summary stats plus per-square samples."""
    plan = _plan_from_config(config.get("plan"), seed)
    epsilon = _positive_number(config.get("epsilon", DEFAULT_NORMALIZER_EPSILON), "epsilon")
    entries = [
        {"context_id": cid, "report": curl_scan_report(bundle.oracle, context, plan, epsilon, model_id=bundle.model_id)}
        for cid, context in enumerate(contexts)
    ]
    return {"curl_scan": entries}


@_command("order-gap")
def order_gap(config, seed, bundle, contexts, out_dir):
    """Exact two-order KL for every block pair, optionally with an MC estimate."""
    mc_cfg = config.get("monte_carlo")
    mc_plan = None if mc_cfg is None else MonteCarloPlan(seed=mc_cfg.get("seed", seed), n=mc_cfg["n"])
    entries = [
        {"context_id": cid, **entry}
        for cid, context in enumerate(contexts)
        for entry in order_gap_entries(bundle.oracle, context, mc_plan)
    ]
    return {"order_gap": entries}


@_command("tc")
def tc(config, seed, bundle, contexts, out_dir):
    """Total correlation, entropies, independent-parallel gap, pairwise MI."""
    joint = _require_joint(bundle, "tc")
    entries = [
        {"context_id": cid, "report": dependence_report(bundle.oracle, joint, context).to_dict()}
        for cid, context in enumerate(contexts)
    ]
    return {"dependence": entries}


@_command("order-error")
def order_error(config, seed, bundle, contexts, out_dir):
    """Rank resolution orders by exact order-specific KL; stratify steps."""
    joint = _require_joint(bundle, "order-error")
    entries = []
    for cid, context in enumerate(contexts):
        profiles = rank_orders(bundle.oracle, joint, context, config.get("orders"))
        entries.append({"context_id": cid, "profiles": [p.to_dict() for p in profiles], "strata": stratify_contexts(profiles)})
    return {"order_error": entries}


@_command("commutator")
def commutator(config, seed, bundle, contexts, out_dir):
    """Pairwise operator commutators and the block conflict score."""
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


@_command("stress")
def stress(config, seed, bundle, contexts, out_dir):
    """Decode under schedulers and widths; relate degradation to predictors."""
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


@_command("synth-gen")
def synth_gen(config, seed, bundle, contexts, out_dir):
    """Generate a synthetic joint and write it as a model file."""
    path = _model_path(config, out_dir, "model.json", "synth-gen")
    save_model(bundle, path)
    return {"synth_gen": {"model_file": path, "model_id": bundle.model_id}}


@_command("train")
def train(config, seed, bundle, contexts, out_dir):
    """Train a logit-table oracle against the model's conditionals."""
    joint = _require_joint(bundle, "train")
    path = _model_path(config, out_dir, "trained_model.json", "train")
    train_config = TrainConfig(**config.get("train", {}))
    oracle, history = train_tabular(joint, train_config)
    save_model(ModelBundle(oracle, joint, train_config.to_dict()), path)
    return {
        "training": {
            "model_file": path,
            "steps_run": len(history["loss"]),
            "final_loss": history["loss"][-1],
            "train_config": train_config.to_dict(),
            "history": history,
        }
    }


@_command("consistency")
def consistency(config, seed, bundle, contexts, out_dir):
    """Brute-force order-consistency verdicts per context."""
    tol = _positive_number(config.get("tol", DEFAULT_CONSISTENCY_TOL), "tol")
    entries = [
        {"context_id": cid, "report": order_consistency_check(bundle.oracle, context, tol).to_dict()}
        for cid, context in enumerate(contexts)
    ]
    return {"consistency": entries}


if __name__ == "__main__":
    main()
