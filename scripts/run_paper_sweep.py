#!/usr/bin/env python3
"""Paper-scale sweep: 5 RRHs x 5 antennas, 15 users, 100 channel draws.

Heavy: trial 0 takes 11 to 12 s on one core (one BLAS thread, 2-vCPU
virtual machine; README has the measured figures).  --threads 2 runs two
trials at a time: the 100 trials took about 9 min on two free cores, and
take about twice that with one worker.
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
