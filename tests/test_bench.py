import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from curlgauge.cli import main
from curlgauge.core import load_model

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_names_are_functions_of_their_modules():
    # renaming a layer function must fail here, not silently drop it from `bench/run.py --trace 1`
    tracing = bench_module("tracing")
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"curlgauge.{layer}")
        for name in names:
            # the tracer wraps log_dist on the oracle base class, every other name on its module
            owner = module.ConditionalOracle if name == "log_dist" else module
            fn = getattr(owner, name, None)
            assert inspect.isfunction(fn), f"{layer}.{name} is not a function"
            assert fn.__module__ == module.__name__, f"{layer}.{name} is defined in {fn.__module__}"


def test_bench_checks_read_the_model_files_the_cli_writes(tmp_path):
    # the bench's train checks reload trained files through the program's model reader:
    # a model-API change that breaks that reader must fail here, not in the bench
    checks = bench_module("checks")
    recipe = {"family": "chain", "positions": 3, "vocab_size": 3, "seed": 4, "beta": 0.8}
    train = {"coverage": "fraction", "coverage_fraction": 0.5, "steps": 5, "ecirc_weight": 1.0, "ecirc_samples": 4}
    configs = {
        "synth-gen": {"model": {"synthetic": recipe}, "model_out": "source.json"},
        "train": {"model": {"file": str(tmp_path / "source.json")}, "train": train, "model_out": "trained.json"},
    }
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
        main([command, "--config", str(tmp_path / f"{command}.json"), "--out", str(tmp_path)], standalone_mode=False)
    source = checks.load_log_mass(tmp_path / "source.json")
    assert source.shape == (3, 3, 3)
    assert np.array_equal(source.reshape(-1), load_model(tmp_path / "source.json").joint.log_mass)
    assert checks.Checker._reload(tmp_path / "trained.json", source) == []
