import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import curlgauge
from curlgauge.cli import main
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
        big = {"synthetic": {"family": "chain", "positions": 6, "vocab_size": 2, "seed": 1, "beta": 0.5}}
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
        from curlgauge import pseudojoint

        exact_terms = pseudojoint._pair_terms

        def faulty_terms(*args):
            t0, t1, t2, t3 = exact_terms(*args)
            return t0, t1 + 1e-9, t2, t3

        monkeypatch.setattr(pseudojoint, "_pair_terms", faulty_terms)
        write_config(tmp_path / "cfg.json", {"model": PERTURBED_MODEL, "seed": 1})
        result = CliRunner().invoke(
            main, ["consistency", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 5
        assert result.stderr.startswith("identity check failed: circulation cross-check")
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

        rows = [
            [0.1, -0.0, float("nan"), float("inf"), 1e-300, 2.5e16],
            [True, False, np.bool_(True), None, 3, -7],
            [np.float64(0.1), np.float32(2.5), np.int64(9), np.uint8(3), Ratio(1.5), "a,b", 'q"t', ""],
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["a", "b"])
        for row in rows:
            writer.writerow([fmt(v) for v in row])
        _write_csv(tmp_path / "rows.csv", ["a", "b"], rows)
        assert (tmp_path / "rows.csv").read_bytes() == buf.getvalue().encode("utf-8")

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


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    src = str(Path(curlgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
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
