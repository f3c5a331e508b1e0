#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library sources under src/) into
.bench_build/; later calls only re-check the build. The benchmark binary
prints its readable lines and, last, one JSON object; this script passes
them through and exits with the binary's status. Artifacts of a run go
to .bench_run/<workload>-trace<0|1>/.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("svc-steady", "svc-chaos", "sim-sweep")
# Every run must end within 180 s of launch; the build gets its own
# budget on the first run of a checkout.
RUN_DEADLINE_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    """Configures (once) and builds `targets`; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no program sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def commit_id():
    """The git commit when the checkout has one, else a digest of src/."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256-" + h.hexdigest()[:16]


def run_benchmark(args):
    started = time.monotonic()
    if not build(["perfbench"]):
        return 2
    binary = build_dir() / "perfbench"
    out_dir = ROOT / ".bench_run" / f"{args.workload}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--commit", commit_id()]
    # The binary forks cluster nodes: give it its own process group so a
    # timeout can stop all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    build_s = time.monotonic() - started
    budget = max(30.0, RUN_DEADLINE_S - (build_s if build_s < 60 else 0))
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{args.workload} did not finish within {budget:.0f} s")
        return 1
    lines = out.splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"{args.workload} failed (exit {proc.returncode})")
        return proc.returncode if proc.returncode > 0 else 1
    if not lines or not lines[-1].startswith("{"):
        log("the benchmark printed no result line")
        return 1
    return 0


def selftest():
    if not build(["perfbench_metric_math_test"]):
        return 2
    rc = subprocess.run(["ctest", "--test-dir", str(build_dir()),
                         "--output-on-failure"]).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          str(HERE / "tests"), "-p", "test_*.py"]).returncode
    return 1 if rc else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
