import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_layer_names_are_functions_of_their_modules():
    # renaming a layer function must fail here, not silently drop it from `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"curlgauge.{layer}")
        for name in names:
            # the tracer wraps log_dist on the oracle base class, every other name on its module
            owner = module.ConditionalOracle if name == "log_dist" else module
            fn = getattr(owner, name, None)
            assert inspect.isfunction(fn), f"{layer}.{name} is not a function"
            assert fn.__module__ == module.__name__, f"{layer}.{name} is defined in {fn.__module__}"
