"""Set-up probe: ``import tmagic`` plus one CLI call in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CLI_ARG...

Prints the seconds from before the import to the end of the call, timed in
this process so that fork/exec and interpreter start-up stay out of it.
Exits 1 when the call fails.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

sys.path.insert(0, sys.argv[1])
import tmagic.cli  # noqa: E402

with redirect_stdout(io.StringIO()):
    rc = tmagic.cli.main(sys.argv[2:])
print(time.perf_counter() - T0)
sys.exit(0 if rc in (0, None) else 1)
