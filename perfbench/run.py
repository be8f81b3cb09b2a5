#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, make inputs, run one workload.

Usage (from the root of the repository):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test   # decorator-transparency tests
  python3 perfbench/run.py --pin         # rewrite perfbench/digests.txt

Builds perfbench/ (Release) under .bench_build/perfbench, generates the SWF
trace the swf_replay_256 workload replays with scripts/make_synth_swf.py,
then runs the harness. The harness's last stdout line is the result JSON;
host facts are printed ahead of it and every result is appended to
.bench_build/perfbench/results.jsonl. See perfbench/README.md.
"""

from __future__ import annotations

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
BUILD = ROOT / ".bench_build" / "perfbench"
INPUTS = BUILD / "inputs"
DIGESTS = HERE / "digests.txt"

WORKLOADS = ["paper_fig_16x22", "churn_128x128", "backfill_saturated", "swf_replay_256"]
PINNED_SEED = 1       # must match perfbench::kPinnedSeed
SWF_RECORDS = 24000   # records in the generated swf_replay_256 trace
RUN_LIMIT_S = 170     # the whole command ends within 180 s
BUILD_LIMIT_S = 850

# Files of the repository the benchmark builds from or runs.
REQUIRED = ["src/core/system_sim.hpp", "bench/bench_common.hpp", "scripts/make_synth_swf.py"]


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env() -> dict:
    """The process-wide engine/oracle knobs would change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PROCSIM_")}


def run_quiet(cmd: list, timeout: float, what: str) -> None:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"{what} failed (exit {proc.returncode})", 1)


def cache_value(key: str) -> str:
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build() -> None:
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        fail("not a procsim checkout, missing: " + ", ".join(missing))
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_LIMIT_S, "cmake configure")
    if cache_value("CMAKE_BUILD_TYPE") != "Release":
        fail(f"refusing a '{cache_value('CMAKE_BUILD_TYPE')}' build; remove {BUILD}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_LIMIT_S, "build")


def make_swf(seed: int) -> Path:
    """The seed's synthetic SWF trace (deterministic in the seed)."""
    INPUTS.mkdir(parents=True, exist_ok=True)
    path = INPUTS / f"synth-{seed}.swf"
    tmp = path.with_suffix(".tmp")
    run_quiet([sys.executable, str(ROOT / "scripts" / "make_synth_swf.py"),
               "--jobs", str(SWF_RECORDS), "--seed", str(seed), "--out", str(tmp)],
              120, "make_synth_swf.py")
    tmp.replace(path)
    return path


def host_facts() -> dict:
    cxx = cache_value("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                                  timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        compiler = cxx
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "compiler": compiler, "build_type": cache_value("CMAKE_BUILD_TYPE")}


def pin() -> int:
    swf = make_swf(PINNED_SEED)
    lines = [f"# Per-replication output digests at seed {PINNED_SEED}, written by "
             "`python3 perfbench/run.py --pin`.",
             "# workload replication digest"]
    for w in WORKLOADS:
        proc = subprocess.run([str(BUILD / "perfbench"), "--pin", "--workload", w,
                               "--swf", str(swf)], cwd=ROOT, env=clean_env(),
                              capture_output=True, text=True, timeout=RUN_LIMIT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        lines += proc.stdout.splitlines()
    DIGESTS.write_text("\n".join(lines) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()
    if not (args.self_test or args.pin or args.workload):
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")

    start = time.monotonic()
    build()
    if args.self_test:
        return subprocess.run([str(BUILD / "perfbench_selftest")], cwd=ROOT,
                              env=clean_env(), timeout=RUN_LIMIT_S).returncode
    if args.pin:
        return pin()

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", str(DIGESTS)]
    if args.workload == "swf_replay_256":
        cmd += ["--swf", str(make_swf(args.seed)), "--pinned-swf", str(make_swf(PINNED_SEED))]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}.csv")]
    facts = host_facts()
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    # The first run in a checkout also builds; the harness itself measures
    # for --seconds plus its pinned-seed check pass.
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), capture_output=True, text=True,
                              timeout=max(remaining, args.seconds + 60))
    except subprocess.TimeoutExpired:
        fail("harness timed out", 1)
    sys.stderr.write(proc.stderr)
    out = proc.stdout.splitlines()
    if not out or not out[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"harness printed no result (exit {proc.returncode})", 1)
    result = json.loads(out[-1])
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("# host " + json.dumps(facts, sort_keys=True))
    for line in out[:-1]:
        print(line)
    with open(BUILD / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "host": facts, "result": result}, sort_keys=True) + "\n")
    print(out[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
