"""Set-up probe: import ospfsim, build and validate one workload's
inputs, then print ``ready`` and the CPU seconds this process has used
since it started.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed = argv[1], int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[workload].prepare(seed)
    print("ready", time.process_time(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
