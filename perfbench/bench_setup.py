"""Set-up probe: fresh interpreter, ``import demandlab``, populations built.

Usage: python3 perfbench/bench_setup.py <workload> <seed>

``run.py`` times this script from spawn to exit, several times, and
reports the median as ``setup_s``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench_inputs  # noqa: E402

if __name__ == "__main__":
    bench_inputs.build(sys.argv[1], int(sys.argv[2]), ROOT)
