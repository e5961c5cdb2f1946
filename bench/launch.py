"""One set-up launch: import ``curlgauge.cli`` in a fresh interpreter and run one job.

Usage: ``python3 bench/launch.py <command> <config> <out_dir>``

Prints ``time.monotonic()`` at the end of the job as its last line. The
parent subtracts its own ``time.monotonic()`` taken just before the launch;
on Linux both read the same system-wide clock.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from curlgauge.cli import main  # noqa: E402

command, config, out_dir = sys.argv[1:4]
with contextlib.redirect_stdout(io.StringIO()):
    main([command, "--config", config, "--out", out_dir, "--format", "json+csv"], standalone_mode=False)
print(time.monotonic())
