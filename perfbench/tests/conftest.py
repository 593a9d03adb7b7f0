"""Make the benchmark's modules and the package sources importable."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
