#!/usr/bin/env python3
"""Build and run the dpu end-to-end benchmark.

Run from the repository root:

    python3 bench/e2e/run.py --workload steady --seed 1 --seconds 10 --trace 0

Configures and builds the bench/e2e CMake project (which compiles the
library from the repository root) into <build root>/e2e, where the build
root is $CARGO_TARGET_DIR when set and .bench_build otherwise.  Then runs
dpu_bench with the given arguments.  Build output goes to stderr, so the
last line of stdout is dpu_bench's JSON result.  A traced run (--trace 1)
writes its Chrome trace to <build root>/e2e/trace-<workload>.json.
"""
import os
import subprocess
import sys


def main() -> int:
    source = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", source, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            print("run.py: configure failed", file=sys.stderr)
            return 1
    if not step(["cmake", "--build", build, "--target", "dpu_bench",
                 "-j", jobs]):
        print("run.py: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--trace" in args and "--trace-out" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            workload = "run"
            if "--workload" in args:
                j = args.index("--workload")
                if j + 1 < len(args):
                    workload = args[j + 1]
            args += ["--trace-out",
                     os.path.join(build, "trace-" + workload + ".json")]
    return subprocess.run([os.path.join(build, "dpu_bench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
