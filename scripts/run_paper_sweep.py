#!/usr/bin/env python3
"""Paper-scale sweep: 5 RRHs x 5 antennas, 15 users, 100 channel draws.

Heavy: trial 0 took 35 to 45 s on one core (one BLAS thread, 2-vCPU
virtual machine), so 100 trials of that cost take 1 to 1.25 h with one
worker; --threads 2 runs two trials at a time, about 30 to 40 min on two
free cores.
"""

import sys
from pathlib import Path

from cran_maxmin.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.exit(cli_main([
        "sweep",
        "--config", str(ROOT / "configs" / "paper.json"),
        "--out", str(ROOT / "results_paper.csv"),
    ] + sys.argv[1:]))
