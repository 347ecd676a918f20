#!/usr/bin/env python3
"""Build bench_interval from source and run it.

    python3 bench/interval/run.py --workload parsec5 --seed 1 \
        [--seconds 10] [--trace 0|1] [--json out.json]

Run from any directory inside a checkout. The build tree is
$CARGO_TARGET_DIR when set (relative paths resolve against the current
directory), else .bench_build at the repository root; the benchmark's
own CMakeLists.txt builds the SATORI library from the sources two
directories up. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. Every argument is passed to the binary
unchanged.

    python3 bench/interval/run.py --smoke [--binary PATH]

runs every workload at smoke size and checks that each run is correct
and reports every metric of BENCHMARK.json with its unit.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return target.resolve() / "bench_interval"


def build() -> Path:
    tree = build_dir()
    if not (tree / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(tree), "--target",
                    "bench_interval", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return tree / "bench" / "bench_interval"


def smoke(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    scratch = binary.parent
    problems = []
    for workload in workloads:
        out = scratch / f"bench_interval_smoke.{workload}.json"
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", "1", "--smoke",
             "--json", str(out), "--scratch", str(scratch)],
            stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            problems.append(f"{workload}: exit status {proc.returncode}")
            out.unlink(missing_ok=True)
            continue
        result = json.loads(out.read_text())
        out.unlink()
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{workload}: correctness gate failed")
        for name, unit in expected.items():
            got = result["metrics"].get(name)
            if got is None:
                problems.append(f"{workload}: metric {name} missing")
            elif got["unit"] != unit:
                problems.append(f"{workload}: metric {name} has unit "
                                f"{got['unit']}, BENCHMARK.json says {unit}")
    for problem in problems:
        print(f"bench_interval smoke: {problem}", file=sys.stderr)
    print(f"bench_interval smoke: {len(workloads)} workloads, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv: list) -> int:
    if "--smoke" in argv and "--workload" not in argv:
        binary = (Path(argv[argv.index("--binary") + 1])
                  if "--binary" in argv else build())
        return smoke(binary)
    binary = build()
    return subprocess.run([str(binary), *argv,
                           "--scratch", str(build_dir())]).returncode


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"bench_interval: {error}", file=sys.stderr)
        sys.exit(1)
