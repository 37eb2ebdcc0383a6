"""Set-up process of a benchmark run: import, render the first pass, load the plans.

    python3 perfbench/render.py WORKLOAD SEED WORKDIR

Prints ``ready`` once the first pass's recordings are on disk and the
plans are loaded, then serves the later passes: for each ``render I`` line
on its standard input it renders pass I's recordings and prints ``done I``.
It exits when its standard input closes.  Rendering here keeps the
generator's memory out of the peak of the process that runs the timed
passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs src on the path)


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    workload = WORKLOADS[name]
    workload.setup(work)
    workload.render(work, seed, 0)
    print("ready", flush=True)
    for line in sys.stdin:
        i = int(line.split()[1])
        workload.render(work, seed, i)
        print(f"done {i}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
