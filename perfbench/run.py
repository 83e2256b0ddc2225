#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the simulator and the
perfbench driver from that tree (into $CARGO_TARGET_DIR, default
.bench_build), prints a host stamp, runs the driver for the workload,
and leaves the driver's JSON result as the last line of standard
output. Exits nonzero, printing no result, when the build or the run
fails.

    python3 perfbench/run.py --pin

re-pins perfbench/digests.txt: the output digest of every cell of
every workload for each seed index. Run it only when a change is
meant to alter simulated output.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mix16-morph", "shared16-paper", "parsec16-coherent",
             "campaign-durable"]
SEED_POOL = 16
DIGESTS = os.path.join(HERE, "digests.txt")
RUN_TIMEOUT_S = 170


class BuildError(Exception):
    pass


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def build():
    """Configure and build; returns (driver, simulator) paths."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "morphcache_sim"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BuildError(" ".join(cmd) + " failed")
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "morphcache", "tools", "morphcache_sim"))


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def cpuinfo_field(name):
    for line in read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == name:
            return value.strip()
    return "unknown"


def source_sha():
    """sha256 over the sources the benchmark builds (the checkout it
    runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path)
            for f in fs if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def host_stamp():
    """The machine half of the stamp; the driver prints the compiler
    and build type it was built with on its `build` line."""
    gov = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
    return {
        "cpu": cpuinfo_field("model name"),
        "mhz": cpuinfo_field("cpu MHz"),
        "governor": read(gov, "unavailable"),
        "kernel": platform.release(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha": source_sha(),
    }


def run_driver(driver, sim, extra):
    """Run the driver with a private work directory; returns
    (exit code, stdout)."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    cmd = [driver, "--sim", sim, "--work", work, "--digests",
           DIGESTS] + extra
    # Own session, so a timeout also stops the campaign child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return 124, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pin(driver, sim):
    for wl in WORKLOADS:
        for idx in range(SEED_POOL):
            code, out = run_driver(driver, sim, ["--pin", "--workload",
                                                 wl, "--seed", str(idx)])
            sys.stderr.write(out)
            if code != 0:
                return code
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if not args.pin and not args.workload:
        ap.error("--workload is required")

    try:
        driver, sim = build()
    except (BuildError, OSError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    if args.pin:
        return pin(driver, sim)

    print("host " + json.dumps(host_stamp(), sort_keys=True), flush=True)
    code, out = run_driver(driver, sim, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith('{"correct"'):
        # No result line on failure, whatever the driver got to print.
        for line in lines:
            if not line.startswith('{"correct"'):
                print(line)
        sys.stderr.write("perfbench: driver failed (exit %d)\n" % code)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
