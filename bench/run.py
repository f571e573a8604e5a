"""fieldreg benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload stream|offline|clips --seed N --seconds S --trace 0|1

Run from the repository root (any directory works: paths are resolved from
this file).  The program under test is the fieldreg package in ../src,
imported in-process; nothing needs to be installed.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: with --trace 0 every end-to-end metric, with --trace 1 every
per-layer metric.  The lines before it record the machine and run details.
"""

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the filter's matrices are at most 190 x 190, where a
# second OpenBLAS thread on a shared two-core machine mostly adds noise.
# An explicit setting in the environment wins.  Must precede importing NumPy.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "GOTO_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def machine():
    """Cores, Python, NumPy, the BLAS NumPy was built with, the kernel set
    it runs and its thread count."""
    import ctypes
    import numpy as np

    info = {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas_build"] = "unknown"
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and info["blas_threads"] is None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                if cfg is not None and "blas_runtime" not in info:
                    cfg.restype = ctypes.c_char_p
                    info["blas_runtime"] = cfg().decode()
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("stream", "offline", "clips"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fieldreg" / "__init__.py").is_file():
        print(f"error: no fieldreg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fieldreg
    if Path(fieldreg.__file__).resolve().parent.parent != SRC:
        print(f"error: imported fieldreg from {fieldreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    mach = machine()
    print("machine: " + json.dumps(mach), flush=True)
    tally, metrics, info = workloads.run(ROOT, args.workload, args.seed, args.seconds,
                                         bool(args.trace), mach)
    for name, m in metrics.items():
        if m["value"] is not None and not math.isfinite(m["value"]):
            tally.wrong(f"{name} is not finite")
            m["value"] = None
    for note in tally.notes[:20]:
        print("check: " + note, file=sys.stderr)
    print("run: " + json.dumps(info), flush=True)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
