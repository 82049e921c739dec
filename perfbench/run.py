"""Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Pins the BLAS libraries to one thread before NumPy loads, puts the
repository's ``src`` and root on the import path, and hands over to
:func:`perfbench.bench.main`.  Exits non-zero, printing no result, when the
program's sources are missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    """Prepare the interpreter and run the benchmark."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
