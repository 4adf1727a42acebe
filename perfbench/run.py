"""jplda benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload file-10k --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed in a child process
(``workloads.py``), outside all timing. This process then times session
set-up on its own, runs ``jplda score`` in-process through
``jplda.cli.main`` in a closed loop with one caller, and times single
``llr`` calls, checking every output. ``--trace 1`` runs the same
workload again with every layer entry point wrapped in a span and prints
per-layer metrics instead. ``--tiny`` shrinks every workload for the
benchmark's own smoke tests.

The last line of stdout is the result; the line before it holds facts
about the machine and the inputs. Exit status is 0 on a complete run,
2 when the checkout holds no ``src/jplda`` to measure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)

# Input generation includes one oracle call per checked trial (about 16 s
# for the d=512 workload on one core).
PREPARE_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for smoke tests")
    return parser.parse_args(argv)


def _pin_blas_threads() -> int:
    """Pin BLAS to one thread, before numpy is imported; also in the child.

    On a 2-core machine shared with other jobs, two OpenBLAS threads made
    session set-up of the d=512 workload 3.5x slower (2.2 s against
    0.65 s) and far noisier than one thread, and the oracle 1.9x slower.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse_args(argv)
    if not (ROOT / "src" / "jplda" / "__init__.py").is_file():
        print(f"perfbench: no jplda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(work)] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, check=True, timeout=PREPARE_TIMEOUT_S)

        import bench  # imports numpy and jplda, after the thread pin

        facts, result = bench.run(args, work, blas_threads, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
