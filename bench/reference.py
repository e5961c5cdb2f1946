"""Reference figures at the enumeration caps, measured once and outside the workloads.

Usage (from the repository root): ``python3 bench/reference.py``

Times one ``consistency`` job at m=5, V=8 (the whole block of a perturbed
chain model, through the CLI) and one ``rank_orders`` call at m=5, V=5.
Each takes seconds to minutes today, too long for a benchmark round.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curlgauge.cli import main  # noqa: E402
from curlgauge.core import PartialContext, PerturbedConditionalModel  # noqa: E402
from curlgauge.ordererror import rank_orders  # noqa: E402
from curlgauge.synth import SyntheticTaskSpec, generate_joint  # noqa: E402

with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
    config = Path(tmp) / "consistency.json"
    model = {"family": "chain", "positions": 5, "vocab_size": 8, "seed": 1, "perturbation": {"delta": 0.4, "seed": 2}}
    config.write_text(json.dumps({"model": {"synthetic": model}}))
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        main(["consistency", "--config", str(config), "--out", tmp], standalone_mode=False)
    print(f"consistency job, m=5 V=8, whole block: {time.perf_counter() - start:.2f} s")

joint = generate_joint(SyntheticTaskSpec("chain", 5, 5, seed=1, beta=0.8))
oracle = PerturbedConditionalModel(joint, 0.4, 2)
start = time.perf_counter()
rank_orders(oracle, joint, PartialContext(observed={}, block=(0, 1, 2, 3, 4)))
print(f"rank_orders, m=5 V=5, whole block: {time.perf_counter() - start:.2f} s")
