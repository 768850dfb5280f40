#!/usr/bin/env python3
"""Build bench_perf from this checkout, then run it with these arguments.

Run from the root of the checkout:

    python3 bench/perf/run.py --workload eval-lbm --seed 1 \
        --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR when that is set, else .bench_build,
both relative to the working directory; only the first run builds. Build
output goes to stderr, so the last line of stdout is bench_perf's own.
Temporary files, the compiler's included, stay inside the build tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main():
    here = Path(__file__).resolve().parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp.resolve())
    ninja = shutil.which("ninja") is not None
    if not (build / ("build.ninja" if ninja else "Makefile")).exists():
        configure = ["cmake", "-S", str(here), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if ninja:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    built = subprocess.run(["cmake", "--build", str(build), "--target",
                            "bench_perf", "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        return 1
    exe = build / "bench" / "bench_perf"
    return subprocess.run([str(exe)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
