import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import curlgauge
from conftest import fault_one_lattice_step
from curlgauge.cli import main
from curlgauge.core import LogitTable, LogitTableOracle, ModelBundle, load_model, save_model
from curlgauge.errors import ConfigError
from curlgauge.reports import SCHEMA, _write_csv, canonical_json, check_keys, config_hash, emit_plot_data, resolve_model


def run_cli(args, cwd):
    runner = CliRunner()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        return runner.invoke(main, args, catch_exceptions=False)
    except SystemExit as exc:  # click re-raises sys.exit from command bodies
        code = exc.code if isinstance(exc.code, int) else 1

        class Result:
            exit_code = code
            output = ""

        return Result()
    finally:
        os.chdir(here)


def write_config(path, config):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)


CHAIN_MODEL = {"synthetic": {"family": "chain", "positions": 3, "vocab_size": 3, "seed": 7, "beta": 0.8}}
PERTURBED_MODEL = {
    "synthetic": {
        "family": "chain",
        "positions": 3,
        "vocab_size": 3,
        "seed": 7,
        "beta": 0.8,
        "perturbation": {"delta": 0.4, "seed": 2},
    }
}


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigHandling:
    def test_hash_is_stable_and_order_insensitive(self):
        a = {"model": {"file": "x"}, "seed": 3}
        b = {"seed": 3, "model": {"file": "x"}}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"model": {"file": "x"}, "seed": 4})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            check_keys({"model": {}, "bogus": 1}, {"model"}, {"model"}, "config")

    def test_model_needs_exactly_one_source(self):
        with pytest.raises(ConfigError):
            resolve_model({})
        with pytest.raises(ConfigError):
            resolve_model({"file": "x", "synthetic": {}})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestCliExitCodes:
    def test_consistency_on_exact_model_exits_zero(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 1})
        result = run_cli(["consistency", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 0
        report = read_report(tmp_path / "out" / "consistency.json")
        assert report["sections"]["consistency"][0]["report"]["consistent"] is True

    def test_consistency_on_perturbed_model_reports_witness(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 1})
        result = run_cli(["consistency", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 0
        section = read_report(tmp_path / "out" / "consistency.json")["sections"]["consistency"][0]
        assert section["report"]["consistent"] is False
        assert section["report"]["witness"] is not None

    def test_malformed_json_exits_two_without_artifacts(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        result = run_cli(["tc", "--config", "bad.json", "--out", "out"], tmp_path)
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_config_field_exits_two(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 1, "surprise": True})
        result = run_cli(["tc", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    def test_size_cap_exits_three(self, tmp_path):
        big = {"synthetic": {"family": "chain", "positions": 7, "vocab_size": 2, "seed": 1, "beta": 0.5}}
        write_config(tmp_path / "cfg.json", {"model": big, "seed": 1})
        result = run_cli(["consistency", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 3

    def test_training_failure_exits_four(self, tmp_path):
        write_config(
            tmp_path / "cfg.json",
            {"model": CHAIN_MODEL, "seed": 1, "train": {"steps": 5, "learning_rate": 1e308}},
        )
        result = run_cli(["train", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 4

    def test_unknown_subcommand_exits_two(self, tmp_path):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, fields",
        [
            ("consistency", {"tol": "abc"}),
            ("consistency", {"tol": -1}),
            ("curl-scan", {"epsilon": "abc"}),
            ("curl-scan", {"epsilon": 0}),
            (
                "stress",
                {
                    "stress": {
                        "widths": [1, 2],
                        "schedulers": [{"kind": "conflict-aware", "lam_conflict": "x"}],
                        "runs": 2,
                    }
                },
            ),
            ("stress", {"stress": {"widths": ["x"], "schedulers": [{"kind": "left-to-right"}], "runs": 2}}),
            ("stress", {"stress": {"widths": [1, 2], "schedulers": [{"kind": "left-to-right"}], "runs": "x"}}),
            ("stress", {"stress": {"widths": [1, 2], "schedulers": [{"kind": "random", "seed": "x"}], "runs": 2}}),
            ("tc", {"seed": "x"}),
            ("order-gap", {"monte_carlo": {"n": "abc"}}),
            ("curl-scan", {"plan": {"mode": "monte-carlo", "n": "x"}}),
            ("tc", {"contexts": {"sample": {"count": "x"}}}),
            ("tc", {"model": {"synthetic": {**CHAIN_MODEL["synthetic"], "perturbation": {"delta": "x", "seed": 2}}}}),
            # well-formed values that a library call rejects as out of contract
            ("stress", {"stress": {"widths": [9], "schedulers": [{"kind": "left-to-right"}], "runs": 2}}),
            ("tc", {"model": {"synthetic": {**CHAIN_MODEL["synthetic"], "family": "foo"}}}),
            ("tc", {"model": {"synthetic": {**CHAIN_MODEL["synthetic"], "perturbation": {"delta": -1, "seed": 2}}}}),
            ("order-gap", {"monte_carlo": {"n": 0}}),
            ("curl-scan", {"contexts": {"explicit": [{"observed": {"0": 1, "1": 0}, "block": [2]}]}}),
            ("order-error", {"orders": [[0, 0, 1]]}),
            # malformed train fields (appended so the earlier case ids stay put)
            ("train", {"train": {"steps": "x"}}),
            ("train", {"train": {"ecirc_samples": "x"}}),
            ("train", {"train": {"learning_rate": "x"}}),
            # fields the config schema checks before any computation
            *[
                ("tc", {"model": {"synthetic": {**CHAIN_MODEL["synthetic"], field: "x"}}})
                for field in ("positions", "vocab_size", "level", "levels_total", "seed", "beta")
            ],
            ("commutator", {"operator": {"kind": "threshold-commit", "tau": "x"}}),
            ("order-error", {"orders": "x"}),
            ("order-error", {"orders": 5}),
            ("synth-gen", {"model_out": 5}),
            ("stress", {"stress": {"widths": [1, 2], "schedulers": [{"kind": "left-to-right"}], "runs": 0}}),
            ("tc", {"model": {"synthetic": {"family": "custom-table", "positions": 3, "vocab_size": 3, "table": [0.0] * 5}}}),
            ("train", {"train": {"grad_tol": float("nan")}}),
            ("order-error", {"orders": [["0", "1", "2"]]}),
            ("stress", {"stress": {"widths": [1, 2], "schedulers": [{"kind": "left-to-right"}], "runs": -1}}),
            (
                "order-gap",
                {"contexts": {"explicit": [{"observed": {"0": 1, "1": 0}, "block": [2]}]}, "monte_carlo": {"n": "x"}},
            ),
            # a model_out that is not a plain file name inside --out
            *[
                (command, {"model_out": name})
                for name in ("", ".", "sub/", "sub/m.json", os.path.join(tempfile.gettempdir(), "curlgauge-model.json"))
                for command in ("synth-gen", "train")
            ],
            # a model_out that names one of the command's own report files
            ("synth-gen", {"model_out": "synth_gen.json"}),
            ("train", {"model_out": "train.json"}),
            ("train", {"model_out": "train_train_history.csv"}),
            ("stress", {"stress": {"widths": [1, 2], "schedulers": [], "runs": 2}}),
        ],
    )
    def test_malformed_numeric_field_exits_two(self, tmp_path, command, fields):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 1, **fields})
        result = CliRunner().invoke(
            main, [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_order_with_a_repeated_position_exits_two_with_one_line(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 1, "orders": [[0, 0, 1]]})
        result = CliRunner().invoke(
            main, ["order-error", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert re.fullmatch(r"config error: order \(0, 0, 1\) is not a permutation of the block \(.*\)\n", result.stderr)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literal_exits_two_without_artifacts(self, tmp_path, literal):
        config = json.dumps({"model": CHAIN_MODEL, "seed": 1, "train": {"steps": 3, "grad_tol": 0.5}})
        (tmp_path / "cfg.json").write_text(config.replace("0.5", literal), encoding="utf-8")
        result = CliRunner().invoke(
            main, ["train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: ")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_failed_identity_check_exits_five(self, tmp_path, monkeypatch):
        fault_one_lattice_step(monkeypatch)
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 1})
        result = CliRunner().invoke(
            main, ["consistency", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 5
        assert result.stderr.startswith("identity check failed: circulation cross-check")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["order-gap", "curl-scan"])
    def test_failed_kl_check_exits_five(self, tmp_path, monkeypatch, command):
        from curlgauge import pseudojoint

        exact_kl = pseudojoint.kl
        monkeypatch.setattr(pseudojoint, "kl", lambda *args: exact_kl(*args) + 1e-9)
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 1})
        result = CliRunner().invoke(main, [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 5
        assert result.stderr.startswith("identity check failed: order-swap KL cross-check")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_repeated_widths_exit_two(self, tmp_path):
        stress = {"widths": [2, 2, 3], "schedulers": [{"kind": "left-to-right"}, {"kind": "confidence"}], "runs": 4}
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 1, "stress": stress})
        result = CliRunner().invoke(
            main, ["stress", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: widths must be distinct")
        assert len(result.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_bad_explicit_context_exits_two(self, tmp_path):
        config = {
            "model": CHAIN_MODEL,
            "contexts": {"explicit": [{"observed": {"0": 9}, "block": [1, 2]}]},
        }
        write_config(tmp_path / "cfg.json", config)
        result = run_cli(["tc", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, code",
        [
            ('{"positions": 1, "log_mass": [0.0, 0.0]}', 2),  # missing field
            ('{"vocab_size": 2, "positions": 1, "log_mass": [0.0, 0.0], "bogus": 1}', 2),  # unknown field
            ("[2, 1]", 2),  # not an object
            ('{"vocab_size": 2, "positions": 1, "log_mass": [NaN, 0.0]}', 2),
            ('{"vocab_size": 2, "positions": 2, "logit_table": {"values": [0.0, 0.0, 0.0, 0.0, 0.0]}}', 2),  # 12 values
            (json.dumps({"vocab_size": 2, "positions": 1, "logit_table": {"values": [0.0, 0.0], "extra": 1}}), 2),
            ('{"vocab_size": 1e400, "positions": 1, "log_mass": [0.0, 0.0]}', 2),
            (json.dumps({"vocab_size": 2, "positions": 7, "log_mass": [0.0] * 128}), 3),  # past the caps
            (json.dumps({"vocab_size": 9, "positions": 2, "logit_table": {"values": [0.0] * 5}}), 3),
            ("[" * 100_000 + "]" * 100_000, 2),
            ('{"vocab_size": 2, "positions": 2.9, "log_mass": [0.0, 0.0, 0.0, 0.0]}', 2),  # JSON integers only
            ('{"vocab_size": 2.0, "positions": 2, "log_mass": [0.0, 0.0, 0.0, 0.0]}', 2),
            ('{"vocab_size": true, "positions": 2, "log_mass": [0.0, 0.0]}', 2),
            ('{"vocab_size": 2, "positions": 1, "log_mass": [0.0, 0.0], "perturbation": {"delta": 0.5, "seed": 2.5, '
             '"draw": "chunks-4096"}}', 2),
            ('{"vocab_size": 2, "positions": 1, "log_mass": [0.0, 0.0], "perturbation": {"delta": 0.5, "seed": 3}}', 2),
        ],
        ids=["missing", "unknown", "array", "nan-log-mass", "logit-length", "logit-extra-key", "huge-size", "over-cap",
             "over-cap-logits", "deeply-nested", "fractional-size", "float-size", "bool-size", "fractional-seed", "no-draw"],
    )
    def test_malformed_model_file_exits_with_one_line(self, tmp_path, text, code):
        (tmp_path / "model.json").write_text(text, encoding="utf-8")
        write_config(tmp_path / "cfg.json", {"model": {"file": str(tmp_path / "model.json")}})
        result = CliRunner().invoke(
            main, ["curl-scan", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == code
        prefix = "config error: cannot load model file " if code == 2 else "size cap refusal: "
        assert result.stderr.startswith(prefix)
        assert len(result.stderr.strip().splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["tc", "synth-gen"])
    def test_out_that_is_a_file_exits_two_with_one_line(self, tmp_path, command):
        # tc fails only when it writes its report, synth-gen when it makes --out for its model
        (tmp_path / "out").write_text("kept\n", encoding="utf-8")
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL})
        result = CliRunner().invoke(main, [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"config error: cannot write {tmp_path / 'out'}")
        assert len(result.stderr.strip().splitlines()) == 1 and "Traceback" not in result.stderr
        assert (tmp_path / "out").read_text(encoding="utf-8") == "kept\n"

    def test_deeply_nested_config_exits_two_with_one_line(self, tmp_path):
        (tmp_path / "cfg.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        result = CliRunner().invoke(main, ["tc", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: config file ")
        assert len(result.stderr.strip().splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()


# tiny valid configs (m=3, V=2) that together use every field of the config schema
FUZZ_MODEL = {"synthetic": {**CHAIN_MODEL["synthetic"], "vocab_size": 2}}
FUZZ_CONTEXTS = {"explicit": [{"observed": {"0": 1}, "block": [1, 2], "time": 0.0}]}
FUZZ_CONFIGS = {
    "curl-scan": {"plan": {"mode": "monte-carlo", "n": 20, "seed": 3}, "epsilon": 1e-6},
    "order-gap": {"monte_carlo": {"n": 20, "seed": 3}},
    "tc": {
        "model": {"synthetic": {"family": "tc-ladder", "positions": 3, "vocab_size": 2, "level": 2, "levels_total": 3}},
        "contexts": {"sample": {"count": 2, "seed": 9, "min_block": 2}},
    },
    "order-error": {"orders": [[1, 2], [2, 1]]},
    "commutator": {"operator": {"kind": "threshold-commit", "tau": 0.5}},
    "stress": {
        "stress": {
            "widths": [1, 2],
            "schedulers": [
                {"kind": "random", "seed": 4},
                {
                    "kind": "conflict-aware",
                    "lam_confidence": 1.0,
                    "lam_conflict": 2.0,
                    "lam_dependence": 0.5,
                    "block_search": "subsets",
                },
            ],
            "operator": {"kind": "sample-commit"},
            "runs": 2,
        }
    },
    "synth-gen": {"model_out": "gen.json"},
    "train": {
        "train": {
            "coverage": "fraction",
            "coverage_fraction": 0.5,
            "steps": 3,
            "learning_rate": 1.0,
            "ecirc_weight": 0.5,
            "ecirc_samples": 4,
            "seed": 1,
            "init_scale": 1.0,
            "grad_tol": 1e-8,
        },
        "model_out": "trained.json",
    },
    "consistency": {
        "model": {"synthetic": {"family": "custom-table", "positions": 3, "vocab_size": 2, "table": [0.5] * 8}},
        "tol": 1e-8,
    },
}


def fuzz_config(command):
    return {"model": FUZZ_MODEL, "contexts": FUZZ_CONTEXTS, "seed": 1, **FUZZ_CONFIGS[command]}


CSV_HEADERS = {
    "curl-scan": {
        "curl_scan_curl_samples.csv": "context_id,i,j,a,b,value,normalized_value",
        "curl_scan_order_swap_kl.csv": "context_id,pair,kl",
    },
    "order-gap": {"order_gap_order_gap.csv": "context_id,i,j,kl_ij,kl_ji,mc_value,mc_stderr,mc_n"},
    "tc": {
        "tc_dependence.csv": "context_id,tc,sum_marginal_entropies,joint_entropy,independent_parallel_kl,sum_pairwise_cmi",
        "tc_pairwise_cmi.csv": "context_id,pair,cmi",
    },
    "order-error": {"order_error_order_rankings.csv": "context_id,rank,order,cross_entropy,conditional_entropy,kl_total"},
    "commutator": {"commutator_commutator.csv": "context_id,i,j,value"},
    "stress": {
        "stress_stress.csv": "context_id,scheduler,width,nll,degradation,ecirc_abs,tc,mean_eps,conflict",
        "stress_stress_correlations.csv": "cell,predictor,spearman_rho,n_contexts",
    },
    "synth-gen": {},
    "train": {"train_train_history.csv": "step,loss,penalty,grad_norm"},
    "consistency": {"consistency_consistency.csv": "context_id,consistent,max_order_gap,max_curl"},
}


def schema_fields(kind):
    """Every field name the config schema declares under ``kind``."""
    if isinstance(kind, list):
        return schema_fields(kind[0])
    if not isinstance(kind, tuple):
        return set()
    fields = kind[0] if isinstance(kind[0], dict) else {}
    return set(fields).union(*(schema_fields(sub) for sub in [*fields.values(), kind[0]]))


def value_paths(value, kind, path=()):
    """(path, value, required) for every value of a config, found with the schema's kinds."""
    if isinstance(kind, list):
        for k, item in enumerate(value):
            yield from value_paths(item, kind[0], path + (k,))
    elif isinstance(kind, tuple):
        fields, required = kind
        for name, item in value.items():
            sub = fields[name] if isinstance(fields, dict) else fields
            yield path + (name,), item, name in required
            yield from value_paths(item, sub, path + (name,))


def wrong_kinds(value):
    for candidate in ("x", 5, 1.5, True, ["x"], {"k": 1}):
        same = type(candidate) is type(value) or {type(candidate), type(value)} == {int, float}
        if not same:
            yield candidate


@st.composite
def mutated_configs(draw):
    """A tiny valid config with one mutation: a required field dropped, an unknown field added to an
    object, a value of another kind, or a non-finite number; a mutation that does not fit the drawn
    value falls back to a value of another kind."""
    command = draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    holder = {"config": json.loads(json.dumps(fuzz_config(command)))}  # so the whole config is a value too
    values = [(("config",), holder["config"], False), *value_paths(holder["config"], SCHEMA[command], ("config",))]
    (*parents, key), value, required = draw(st.sampled_from(values))
    parent = holder
    for step in parents:
        parent = parent[step]
    mutation = draw(st.sampled_from(["drop", "unknown-field", "wrong-kind", "non-finite"]))
    if mutation == "drop" and required:
        del parent[key]
    elif mutation == "unknown-field" and isinstance(value, dict):
        value["zz_unknown"] = 1
    elif mutation == "non-finite":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        parent[key] = draw(st.sampled_from(list(wrong_kinds(value))))
    return command, holder["config"]


class TestConfigSchema:
    @pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS))
    def test_fuzz_base_config_runs(self, tmp_path, command):
        write_config(tmp_path / "cfg.json", fuzz_config(command))
        result = CliRunner().invoke(
            main, [command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 0, result.stderr

    @settings(max_examples=300, deadline=None)
    @given(mutated_configs())
    def test_mutated_config_exits_with_one_line_and_no_artifacts(self, case):
        command, config = case
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "cfg.json"), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            out = os.path.join(tmp, "out")
            result = CliRunner().invoke(main, [command, "--config", os.path.join(tmp, "cfg.json"), "--out", out])
            assert result.exit_code in (2, 3), (result.exit_code, result.stderr, result.exception)
            assert len(result.stderr.strip().splitlines()) == 1
            assert not os.path.exists(out)

    def test_every_schema_field_is_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        fields = set().union(*(schema_fields(kind) for kind in SCHEMA.values()))
        assert {name for name in fields if f"`{name}`" not in readme} == set()


class TestArtifacts:
    def test_stress_csv_has_one_row_per_cell(self, tmp_path):
        ladder_model = {
            "synthetic": {"family": "tc-ladder", "positions": 3, "vocab_size": 3, "level": 2, "levels_total": 3}
        }
        config = {
            "model": ladder_model,
            "seed": 5,
            "contexts": {"sample": {"count": 4, "seed": 9}},
            "stress": {
                "widths": [1, 2, 3],
                "schedulers": [{"kind": "left-to-right"}, {"kind": "confidence"}],
                "runs": 10,
            },
        }
        write_config(tmp_path / "cfg.json", config)
        result = run_cli(["stress", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 0
        with open(tmp_path / "out" / "stress_stress.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 4 * 2 * 3

    def test_empty_section_gives_header_only_csv(self, tmp_path):
        report = {"sections": {"stress": {"rows": [], "correlations": {}}}}
        paths = emit_plot_data(report, tmp_path, "probe")
        with open([p for p in paths if p.endswith("probe_stress.csv")][0], encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1

    def test_csv_bytes_equal_the_isinstance_formatter(self, tmp_path):
        def fmt(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return str(value).lower()
            if isinstance(value, float):
                return repr(value)
            return str(value)

        class Ratio(float):
            pass

        columns = [f"c{k}" for k in range(8)]
        values = [
            [0.1, -0.0, float("nan"), float("inf"), 1e-300, 2.5e16],
            [True, False, np.bool_(True), None, 3, -7],
            [np.float64(0.1), np.float32(2.5), np.int64(9), np.uint8(3), Ratio(1.5), "a,b", 'q"t', ""],
        ]
        rows = [dict(zip(columns, row)) for row in values]  # the shorter rows lack the last keys
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(c)) for c in columns])
        _write_csv(tmp_path / "rows.csv", columns, rows)
        assert (tmp_path / "rows.csv").read_bytes() == buf.getvalue().encode("utf-8")

    def test_every_csv_keeps_its_header(self, tmp_path):
        # every command's CSV files and their headers; a section without CSV files is JSON-only
        for command in sorted(FUZZ_CONFIGS):
            write_config(tmp_path / "cfg.json", fuzz_config(command))
            out = tmp_path / command
            assert run_cli([command, "--config", "cfg.json", "--out", str(out)], tmp_path).exit_code == 0
            base = command.replace("-", "_")
            headers = {path.name: path.read_text(encoding="utf-8").splitlines()[0] for path in out.glob(f"{base}_*.csv")}
            assert headers == CSV_HEADERS[command], command
            sections = read_report(out / f"{base}.json")["sections"]
            assert len(sections) == 1 and (list(sections) == ["synth_gen"]) == (not headers), command

    def test_header_only_files(self, tmp_path):
        # one-position blocks have no commutator or order-gap pairs; width 1 alone has no degradation to correlate
        contexts = {"explicit": [{"observed": {"0": 1, "1": 0}, "block": [2]}, {"observed": {}, "block": [1]}]}
        write_config(tmp_path / "comm.json", {"model": PERTURBED_MODEL, "seed": 2, "contexts": contexts})
        for command in ("commutator", "order-gap"):
            assert run_cli([command, "--config", "comm.json", "--out", "out"], tmp_path).exit_code == 0, command
        stress = {"widths": [1], "schedulers": [{"kind": "left-to-right"}], "runs": 4}
        write_config(tmp_path / "stress.json", {"model": PERTURBED_MODEL, "seed": 2, "stress": stress})
        assert run_cli(["stress", "--config", "stress.json", "--out", "out"], tmp_path).exit_code == 0
        files = {"commutator": "commutator_commutator.csv", "order-gap": "order_gap_order_gap.csv", "stress": "stress_stress_correlations.csv"}
        for command, name in files.items():
            assert (tmp_path / "out" / name).read_text(encoding="utf-8") == CSV_HEADERS[command][name] + "\n"
        assert len((tmp_path / "out" / "stress_stress.csv").read_text(encoding="utf-8").splitlines()) == 2

    def test_order_gap_without_monte_carlo_leaves_mc_cells_empty(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 2})
        assert run_cli(["order-gap", "--config", "cfg.json", "--out", "out"], tmp_path).exit_code == 0
        with open(tmp_path / "out" / "order_gap_order_gap.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert (row["mc_value"], row["mc_stderr"], row["mc_n"]) == ("", "", "")
            assert float(row["kl_ij"]) >= 0.0 and float(row["kl_ji"]) >= 0.0

    def test_csv_round_trips_and_matches_json(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 2})
        result = run_cli(["curl-scan", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert result.exit_code == 0
        report = read_report(tmp_path / "out" / "curl_scan.json")
        samples = report["sections"]["curl_scan"][0]["report"]["samples"]
        with open(tmp_path / "out" / "curl_scan_curl_samples.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(samples)
        for row, sample in zip(rows, samples):
            assert float(row["value"]) == sample["value"]
            assert float(row["normalized_value"]) == sample["normalized_value"]

    def test_json_only_format_skips_csv(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 2})
        result = run_cli(["tc", "--config", "cfg.json", "--out", "out", "--format", "json"], tmp_path)
        assert result.exit_code == 0
        names = os.listdir(tmp_path / "out")
        assert names == ["tc.json"]

    def test_synth_gen_then_file_model_round_trip(self, tmp_path):
        write_config(tmp_path / "gen.json", {"model": CHAIN_MODEL, "seed": 3, "model_out": "chain.json"})
        result = run_cli(["synth-gen", "--config", "gen.json", "--out", "out"], tmp_path)
        assert result.exit_code == 0
        write_config(
            tmp_path / "use.json", {"model": {"file": str(tmp_path / "out" / "chain.json")}, "seed": 3}
        )
        result = run_cli(["tc", "--config", "use.json", "--out", "out2"], tmp_path)
        assert result.exit_code == 0
        report = read_report(tmp_path / "out2" / "tc.json")
        assert report["sections"]["dependence"][0]["report"]["tc"] >= 0.0

    @pytest.mark.parametrize("kind", ["tabular", "perturbed", "logit-only", "trained"])
    def test_synth_gen_of_a_model_file_writes_its_bytes(self, tmp_path, kind):
        if kind == "logit-only":
            table = LogitTable.random(3, 3, seed=5, scale=1.5)
            save_model(ModelBundle(LogitTableOracle(table)), tmp_path / "source.json")
        else:
            model = PERTURBED_MODEL if kind == "perturbed" else CHAIN_MODEL
            command = "train" if kind == "trained" else "synth-gen"
            train = {"train": {"coverage": "prefix-only", "steps": 20, "seed": 6}} if kind == "trained" else {}
            write_config(tmp_path / "make.json", {"model": model, "model_out": "source.json", **train})
            assert run_cli([command, "--config", "make.json", "--out", "."], tmp_path).exit_code == 0
        write_config(tmp_path / "copy.json", {"model": {"file": str(tmp_path / "source.json")}, "model_out": "copy.json"})
        assert run_cli(["synth-gen", "--config", "copy.json", "--out", "out"], tmp_path).exit_code == 0
        assert (tmp_path / "out" / "copy.json").read_bytes() == (tmp_path / "source.json").read_bytes()
        reported = read_report(tmp_path / "out" / "synth_gen.json")["model_id"]
        assert reported == load_model(tmp_path / "out" / "copy.json").model_id

    @pytest.mark.parametrize("model", [CHAIN_MODEL, PERTURBED_MODEL], ids=["plain", "perturbed"])
    def test_recipe_and_its_file_share_the_model_id(self, tmp_path, model):
        write_config(tmp_path / "gen.json", {"model": model, "seed": 3})
        assert run_cli(["synth-gen", "--config", "gen.json", "--out", "out"], tmp_path).exit_code == 0
        recipe_id = read_report(tmp_path / "out" / "synth_gen.json")["model_id"]
        write_config(tmp_path / "use.json", {"model": {"file": str(tmp_path / "out" / "model.json")}, "seed": 3})
        assert run_cli(["tc", "--config", "use.json", "--out", "out2"], tmp_path).exit_code == 0
        assert read_report(tmp_path / "out2" / "tc.json")["model_id"] == recipe_id

    def test_train_then_diagnose_trained_model(self, tmp_path):
        config = {
            "model": CHAIN_MODEL,
            "seed": 4,
            "train": {"coverage": "prefix-only", "steps": 150, "learning_rate": 1.2, "seed": 6},
            "model_out": "trained.json",
        }
        write_config(tmp_path / "train.json", config)
        result = run_cli(["train", "--config", "train.json", "--out", "out"], tmp_path)
        assert result.exit_code == 0
        write_config(
            tmp_path / "scan.json", {"model": {"file": str(tmp_path / "out" / "trained.json")}, "seed": 4}
        )
        result = run_cli(["curl-scan", "--config", "scan.json", "--out", "out3"], tmp_path)
        assert result.exit_code == 0
        report = read_report(tmp_path / "out3" / "curl_scan.json")
        assert report["sections"]["curl_scan"][0]["report"]["stats"]["ecirc_abs"] > 0.0

    def test_order_gap_and_order_error_and_commutator_run(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 2})
        for command in ("order-gap", "order-error", "commutator"):
            result = run_cli([command, "--config", "cfg.json", "--out", "out_" + command], tmp_path)
            assert result.exit_code == 0, command

    def test_one_sample_reports_a_null_stderr(self, tmp_path):
        configs = {
            "curl-scan": {"plan": {"mode": "monte-carlo", "n": 1, "seed": 3}},
            "order-gap": {"monte_carlo": {"n": 1, "seed": 3}},
        }
        for command, fields in configs.items():
            write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 2, **fields})
            assert run_cli([command, "--config", "cfg.json", "--out", "out_" + command], tmp_path).exit_code == 0
        scan = read_report(tmp_path / "out_curl-scan" / "curl_scan.json")["sections"]["curl_scan"]
        assert [entry["report"]["stats"]["ecirc_abs_stderr"] for entry in scan] == [None] * len(scan)
        gaps = read_report(tmp_path / "out_order-gap" / "order_gap.json")["sections"]["order_gap"]
        assert gaps and [(e["mc_n"], e["mc_stderr"]) for e in gaps] == [(1, None)] * len(gaps)

    def test_order_gap_gathers_each_block_pair_once(self, tmp_path, monkeypatch):
        from curlgauge.core import PerturbedConditionalModel

        counts, gather = Counter(), PerturbedConditionalModel.log_rows

        def counted(*args):
            counts["log_rows"] += 1
            return gather(*args)

        monkeypatch.setattr(PerturbedConditionalModel, "log_rows", counted)
        model = {"synthetic": {**PERTURBED_MODEL["synthetic"], "positions": 6}}
        contexts = {"explicit": [{"observed": {"1": 2, "4": 0}, "block": [0, 2, 3, 5]}]}
        write_config(tmp_path / "cfg.json", {"model": model, "contexts": contexts, "monte_carlo": {"n": 20, "seed": 3}})
        assert run_cli(["order-gap", "--config", "cfg.json", "--out", "out"], tmp_path).exit_code == 0
        # one lattice: each of the 4 positions given nothing and given each of the 3 others;
        # then the reference check's two pair tables of two steps each
        assert counts["log_rows"] == 16 + 4

    def test_order_error_ranks_all_orders_of_six_positions(self, tmp_path):
        from curlgauge.core import PartialContext, kl, tie_key
        from curlgauge.pseudojoint import pseudo_joint_table

        model = {"synthetic": {**PERTURBED_MODEL["synthetic"], "positions": 6}}
        write_config(tmp_path / "cfg.json", {"model": model, "seed": 2})
        assert run_cli(["order-error", "--config", "cfg.json", "--out", "out"], tmp_path).exit_code == 0
        profiles = read_report(tmp_path / "out" / "order_error.json")["sections"]["order_error"][0]["profiles"]
        assert len(profiles) == 720
        # brute force: every order's table on its own, ranked by the report's rule
        bundle = resolve_model(model)
        ctx = PartialContext({}, tuple(range(6)))
        log_p = bundle.joint.log_block_conditional(ctx)
        kls = {order: float(kl(log_p, pseudo_joint_table(bundle.oracle, ctx, order))) for order in itertools.permutations(range(6))}
        best = min(kls, key=lambda order: (tie_key(kls[order]), order))
        assert (tuple(profiles[0]["order"]), profiles[0]["kl_total"]) == (best, kls[best]) == (best, min(kls.values()))

    def test_repeated_candidate_order_exits_two(self, tmp_path):
        order = list(range(6))
        model = {"synthetic": {**PERTURBED_MODEL["synthetic"], "positions": 6}}
        write_config(tmp_path / "cfg.json", {"model": model, "seed": 2, "orders": [order, order[::-1], order]})
        result = CliRunner().invoke(main, ["order-error", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr == "config error: candidate orders must be distinct, got 1 repeats\n"
        assert not (tmp_path / "out").exists()

    def test_commutator_scores_each_pair_once(self, tmp_path, monkeypatch):
        from curlgauge import decoding

        scored, updates = Counter(), Counter()

        def counted_commutator(oracle, row, block, operator, pairs, draws=None, _fn=decoding.commutator):
            scored.update({tuple(block): len(pairs)})
            return _fn(oracle, row, block, operator, pairs, draws)

        def counted_update(*args, _fn=decoding.apply_update):
            updates["apply_update"] += 1
            return _fn(*args)

        monkeypatch.setattr(decoding, "commutator", counted_commutator)
        # every update is a commutator's, so no call may bypass the counter
        monkeypatch.setattr(decoding, "apply_update", counted_update)
        model = {"synthetic": {**PERTURBED_MODEL["synthetic"], "positions": 4}}
        blocks = [[0, 1, 2], [1, 2, 3], [0, 1, 2, 3], [2, 3]]
        contexts = {"explicit": [{"observed": {"0": 1} if 0 not in b else {}, "block": b} for b in blocks]}
        write_config(tmp_path / "cfg.json", {"model": model, "seed": 2, "contexts": contexts})
        assert run_cli(["commutator", "--config", "cfg.json", "--out", "out"], tmp_path).exit_code == 0
        assert scored == {(0, 1, 2): 3, (1, 2, 3): 3, (0, 1, 2, 3): 6}
        # one first commit and one second commit at each block position: 3, 3 and 4 positions
        assert updates["apply_update"] == 2 * (3 + 3 + 4)
        section = read_report(tmp_path / "out" / "commutator.json")["sections"]["commutator"]
        assert [(e["context_id"], e["i"], e["j"]) for e in section["pairs"]] == [
            (cid, i, j) for cid, b in enumerate(blocks[:3]) for i, j in itertools.combinations(b, 2)
        ]
        assert section["conflict"][3]["skipped_pairs"] == [[2, 3]]

    def test_every_report_embeds_provenance(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 11})
        run_cli(["tc", "--config", "cfg.json", "--out", "out"], tmp_path)
        report = read_report(tmp_path / "out" / "tc.json")
        assert report["tool_version"]
        assert report["config_hash"]
        assert report["seed"] == 11
        assert report["model_id"]


class TestReproducibility:
    def strip_meta(self, report):
        report = dict(report)
        report.pop("meta", None)
        return report

    def test_identical_configs_identical_reports(self, tmp_path):
        config = {
            "model": PERTURBED_MODEL,
            "seed": 21,
            "contexts": {"sample": {"count": 2, "seed": 5}},
            "plan": {"mode": "monte-carlo", "n": 500},
        }
        write_config(tmp_path / "cfg.json", config)
        assert run_cli(["curl-scan", "--config", "cfg.json", "--out", "a"], tmp_path).exit_code == 0
        assert run_cli(["curl-scan", "--config", "cfg.json", "--out", "b"], tmp_path).exit_code == 0
        a = self.strip_meta(read_report(tmp_path / "a" / "curl_scan.json"))
        b = self.strip_meta(read_report(tmp_path / "b" / "curl_scan.json"))
        assert canonical_json(a) == canonical_json(b)
        for name in os.listdir(tmp_path / "a"):
            if name.endswith(".csv"):
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        write_config(tmp_path / "cfg.json", {"model": CHAIN_MODEL, "seed": 1})
        run_cli(["tc", "--config", "cfg.json", "--out", "a"], tmp_path)
        run_cli(["tc", "--config", "cfg.json", "--seed", "2", "--out", "b"], tmp_path)
        a = read_report(tmp_path / "a" / "tc.json")
        b = read_report(tmp_path / "b" / "tc.json")
        assert a["config_hash"] != b["config_hash"]
        assert b["seed"] == 2


def child_env() -> dict:
    """Environment of a child interpreter that imports this checkout's package: under
    ``python -B`` it writes no bytecode into the source tree either."""
    src = str(Path(curlgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return {**env, "PYTHONDONTWRITEBYTECODE": "1"} if sys.dont_write_bytecode else env


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    env = child_env()
    code = "import sys, curlgauge.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
    # nor does a stress job, which reports Spearman correlations
    stress = {"widths": [1, 2], "schedulers": [{"kind": "left-to-right"}], "runs": 2}
    contexts = {"sample": {"count": 3, "seed": 4}}
    write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 1, "contexts": contexts, "stress": stress})
    code = (
        "import sys, curlgauge.cli\n"
        "try:\n"
        f"    curlgauge.cli.main(['stress', '--config', {str(tmp_path / 'cfg.json')!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "sys.exit(any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
    assert (tmp_path / "out" / "stress.json").exists()


def test_order_error_run_does_not_load_numpy_ma(tmp_path):
    env = child_env()
    write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 2})
    code = (
        "import sys, curlgauge.cli\n"
        "try:\n"
        f"    curlgauge.cli.main(['order-error', '--config', {str(tmp_path / 'cfg.json')!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "sys.exit('numpy.ma' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
    assert (tmp_path / "out" / "order_error.json").exists()


def test_commands_keep_their_names_help_and_options():
    assert (main.name, main.help) == ("main", "Exact order-consistency diagnostics for local conditional models.")
    helps = {
        "commutator": "Pairwise operator commutators and the block conflict score.",
        "consistency": "Brute-force order-consistency verdicts per context.",
        "curl-scan": "Scan circulation over contexts; summary stats plus per-square samples.",
        "order-error": "Rank resolution orders by exact order-specific KL; stratify steps.",
        "order-gap": "Exact two-order KL for every block pair, optionally with an MC estimate.",
        "stress": "Decode under schedulers and widths; relate degradation to predictors.",
        "synth-gen": "Generate a synthetic joint and write it as a model file.",
        "tc": "Total correlation, entropies, independent-parallel gap, pairwise MI.",
        "train": "Train a logit-table oracle against the model's conditionals.",
    }
    options = [
        (["--config"], "config_path", "path", True, None, "JSON experiment config."),
        (["--seed"], "seed", "integer", False, None, "Override the config's global seed."),
        (["--out"], "out_dir", "path", False, ".", "Output directory."),
        (["--format"], "fmt", "choice", False, "json+csv", "Artifact formats to write."),
    ]
    assert {name: command.help for name, command in main.commands.items()} == helps
    for name, command in main.commands.items():
        # a required option has no default
        params = [(p.opts, p.name, p.type.name, p.required, None if p.required else p.default, p.help) for p in command.params]
        assert params == options, name
        assert list(command.params[3].type.choices) == ["json", "json+csv"]
