"""Set-up time probe: `python3 perfbench/probe.py WORKLOAD SEED [--toy]`.

Run in a fresh interpreter, it times importing nxmf and building the
workload's inputs, and prints the seconds as its last line.
"""

from __future__ import annotations

import os
import shutil
import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import bootstrap

    bootstrap.pin_threads()
    bootstrap.import_nxmf()
    import workloads

    name, seed, toy = argv[0], int(argv[1]), "--toy" in argv[2:]
    workdir = bootstrap.OUT / f"probe-{os.getpid()}"
    try:
        workloads.WORKLOADS[name].build(seed, toy, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
