"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports ``unitcp.cli``, makes one workload's inputs, and prints the
``time.monotonic()`` at which the first timed call could start, so the
parent can measure set-up from before the interpreter was launched.

    python3 bench/probe.py <src dir> <workload> <seed> <seconds>
"""

import json
import sys
import time

if __name__ == "__main__":
    src, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import unitcp.cli  # noqa: F401

    import_cli_s = time.perf_counter() - t0
    import workloads

    _, times = workloads.WORKLOADS[name].make_inputs(seed, seconds)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_cli_s": import_cli_s, **times}))
