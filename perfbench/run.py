#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ from source and runs one
workload, then prints one JSON result as its last line of output.

    python3 perfbench/run.py --workload search-612 --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the layer ladder instead and prints the per-layer metrics. Run it from the
repository root. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), where every result is also appended, with its run
fingerprint, to history.jsonl. --baseline refuses to run on a tree that is
not a clean git checkout. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("search-612", "service-steady", "frontend-overload")
SETUPS = 9  # set-up is measured this many times per run (median reported)
RUN_PERCENTILE = 0.9
RUNNER_TIMEOUT_S = 150  # the whole command must end within 180 s


class BenchError(Exception):
    """A failure that is reported instead of a result."""


def log(msg):
    print(msg, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found; "
                         "run from a full checkout")
    if shutil.which("cmake") is None:
        raise SystemExit("perfbench: cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench"])
    with open(log_path, "w") as logf:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise SystemExit("perfbench: build failed (%s):\n%s"
                                 % (" ".join(cmd), tail))
    return os.path.join(out, "perfbench")


def run_runner(binary, args, timeout):
    """Runs the C++ runner; returns its last line, parsed. A failed gate
    or a non-zero exit raises BenchError."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, cwd=ROOT,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log("  " + line)
    if not lines:
        raise BenchError("runner printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("runner output unreadable: %s" % lines[-1][:200])
    if proc.returncode != 0 or result.get("failure"):
        raise BenchError(result.get("failure") or
                         "runner exit %d" % proc.returncode)
    return result


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_state():
    """(revision, clean) or (None, None) outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None, None
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
    except subprocess.CalledProcessError:
        return None, None
    return rev.stdout.strip(), status.stdout.strip() == ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(runner_fp):
    rev, clean = git_state()
    fp = {
        "revision": rev or "unknown",
        "clean_tree": clean,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
    fp.update(runner_fp)
    return fp


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, args, catalogue):
    """The untraced run: one timed process plus SETUPS-1 set-up-only ones."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    setups = []
    for _ in range(SETUPS - 1):
        r = run_runner(binary, common + ["--seconds", "1", "--mode", "setup"],
                       timeout=60)
        setups.append(r["setup_s"])
    r = run_runner(binary, common + ["--seconds", str(args.seconds),
                                     "--mode", "run"],
                   timeout=RUNNER_TIMEOUT_S)
    setups.append(r["setup_s"])
    units = r["unit_ms"]
    if not benchstats.tail_ok(len(units), RUN_PERCENTILE):
        raise BenchError("too few units for p90: %d" % len(units))
    # The fastest unit of each arrival stream, averaged over the streams
    # (frontend-overload runs several; the other workloads one).
    by_stream = {}
    for ms, k in zip(units, r["unit_stream"]):
        by_stream.setdefault(k, []).append(ms)
    floor_ms = statistics.mean(min(v) for v in by_stream.values())
    values = {
        "setup_s": statistics.median(setups),
        "run_ms.floor": floor_ms,
        # Units of one stream do the same jobs (their digests are equal).
        "jobs_per_s": r["completed"] / len(units) / (floor_ms / 1000.0),
        "latency_vt.p50": r["latency_vt_p50"],
        "latency_vt.p99": r["latency_vt_p99"],
        "latency_vt.p99.high": r["latency_vt_p99_high"],
        "served_share": r["served"] / r["offered"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    # p50 and p90 of the same units, for the log and the history: on a
    # shared host they follow the neighbours' load (README.md, "Noise").
    log("run_ms p50 %.3f p90 %.3f floor %.3f (%d streams)"
        % (benchstats.percentile(units, 0.5),
           benchstats.percentile(units, RUN_PERCENTILE), floor_ms,
           len(by_stream)))
    log("units %d in %.2f s, digest %s, offered %d completed %d served %d"
        % (len(units), r["window_s"], r["digest"], r["offered"],
           r["completed"], r["served"]))
    log("setup_s samples: " + " ".join("%.4f" % s for s in setups))
    metrics = {m["name"]: metric(values[m["name"]], m["unit"])
               for m in catalogue}
    return metrics, len(units), r["fingerprint"]


def load_pins():
    with open(os.path.join(HERE, "message_pins.json")) as f:
        return json.load(f)


def pin_key(args):
    family = "search-612" if args.workload == "search-612" else "service"
    return family + (".smoke" if args.smoke else "")


def traced(binary, args, catalogue):
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", "trace"]
    if args.smoke:
        cmd.append("--smoke")
    r = run_runner(binary, cmd, timeout=RUNNER_TIMEOUT_S)
    printed = r["metrics"]
    want = {m["name"]: m["unit"] for m in catalogue}
    got = {name: m["unit"] for name, m in printed.items()}
    if want != got:
        raise BenchError("per-layer metrics differ from BENCHMARK.json: "
                         "missing %s, extra %s" %
                         (sorted(set(want) - set(got)),
                          sorted(set(got) - set(want))))
    pins = load_pins().get(pin_key(args))
    counts = r["message_counts"]
    if pins != counts:
        raise BenchError("message counts differ from message_pins.json[%s]: "
                         "%s" % (pin_key(args), json.dumps(counts)))
    log("message counts match message_pins.json[%s] (%d pins)"
        % (pin_key(args), len(counts)))
    return printed, r["units"], r["fingerprint"]


def record(args, result, fp):
    entry = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "fingerprint": fp, "result": result,
    }
    with open(os.path.join(build_dir(), "history.jsonl"), "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workload sizes (the benchmark's own tests)")
    p.add_argument("--baseline", action="store_true",
                   help="refuse unless the tree is a clean git checkout")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.baseline:
        rev, clean = git_state()
        if not clean:
            raise SystemExit("perfbench: a baseline needs a clean git tree "
                             "(revision %s, clean %s)" % (rev, clean))
    binary = build()
    try:
        if args.trace:
            metrics, attempted, runner_fp = traced(
                binary, args, bench["per_layer"])
        else:
            metrics, attempted, runner_fp = end_to_end(
                binary, args, bench["end_to_end"])
        result = {"correct": True, "attempted": attempted, "failed": 0,
                  "metrics": metrics}
        code = 0
    except (BenchError, subprocess.TimeoutExpired) as e:
        log("FAILED: %s" % e)
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        runner_fp = {}
        code = 1
    fp = fingerprint(runner_fp)
    log("fingerprint: " + json.dumps(fp, sort_keys=True))
    record(args, result, fp)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
