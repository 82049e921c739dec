"""Put the program's sources on the import path for the benchmark's own tests.

Run them with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
