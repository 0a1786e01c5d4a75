"""Run one remix benchmark workload from the root of a source checkout:

    python3 perfbench/run.py --workload joint --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. The program is imported from the
checkout's src/ directory; without it the command fails.
"""
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # before numpy loads: on a small shared machine BLAS threads spin on
    # the cores the run itself needs and make eval several times slower
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "remix" / "__init__.py").is_file():
        print(f"error: no remix sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))

    import remix
    from harness import main

    if Path(remix.__file__).resolve().parent != src / "remix":
        print(f"error: imported remix from {remix.__file__}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
