#!/usr/bin/env python3
"""bacp benchmark: one command for the workloads in BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds perfbench/ (the src/
libraries in Release mode plus the benchmark binary) into .bench_build/ (or
$CARGO_TARGET_DIR); later runs reuse the build. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 it carries every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric (0 for a layer the workload never calls).
The full record, with the host fingerprint, goes to
<build>/results/<workload>-seed<n>-trace<t>.json and the traced run's spans
to <build>/traces/<workload>-seed<n>.spans.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 2009
BINARY_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def guard_environment():
    # Every BACP_* variable is a program knob (BACP_SIMD, BACP_POOL,
    # BACP_MMAP, BACP_BATCH, BACP_THREADS, BACP_SIM_*, BACP_MC_*, ...); any
    # of them would silently measure a different program.
    knobs = sorted(name for name in os.environ if name.startswith("BACP_"))
    if knobs:
        fail("refusing to run with program knobs set: " + ", ".join(knobs), 2)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no bacp source tree at " + os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                         + generator)
        steps.append(["cmake", "--build", out, "--target", "bacp_perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)
    return os.path.join(out, "bacp_perfbench")


def source_digest():
    """sha256 over the src/ tree: identifies the program when git cannot."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as data:
                digest.update(data.read())
    return digest.hexdigest()


def fingerprint(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = git.stdout.split()
        # Only this tree's own repository counts, not one enclosing it.
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            git_sha = lines[1]
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "simd_tier": build_info.get("simd_tier"),
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


def run_binary(binary, workload, seed, seconds, trace, pins, tag):
    work = os.path.join(build_dir(), "work", "%s-%d-%d" % (tag, seed, os.getpid()))
    spans = os.path.join(build_dir(), "traces", "%s-seed%d.spans.json" % (workload, seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--work-dir", work, "--pins", pins, "--spans", spans]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, BINARY_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("%s exited with code %d" % (workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % workload)
    return json.loads(lines[-1])


def shape_metrics(raw, declared):
    """Exactly the declared metrics, in declared order, with declared units."""
    shaped = {}
    for spec in declared:
        metric = raw.pop(spec["name"], None)
        if metric is None:
            # Only per-layer metrics may be absent: the workload makes no
            # call into that layer.
            shaped[spec["name"]] = {"value": 0.0, "unit": spec["unit"]}
            continue
        if metric["unit"] != spec["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s"
                 % (spec["name"], metric["unit"], spec["unit"]))
        if metric["value"] is None:
            fail("metric %s is not a finite number" % spec["name"])
        shaped[spec["name"]] = metric
    if raw:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(sorted(raw)))
    return shaped


def self_test(binary, pins, workloads):
    """Plants a wrong pinned digest for every op key at the default seed and
    expects every op to fail; the true pins must pass."""
    with open(pins) as text:
        lines = [line.split() for line in text if line.strip() and not line.startswith("#")]
    wrong = os.path.join(build_dir(), "self-test.pins")
    ok = True
    for workload in workloads:
        with open(wrong, "w") as out:
            for name, seed, key, digest in lines:
                if name == workload and int(seed) == DEFAULT_SEED:
                    out.write("%s %s %s %016x\n" % (name, seed, key, int(digest, 16) ^ 1))
        planted = run_binary(binary, workload, DEFAULT_SEED, 1, 0, wrong, "selftest")
        true = run_binary(binary, workload, DEFAULT_SEED, 1, 0, pins, "selftest")
        rate = planted["failed"] / planted["attempted"]
        passed = (rate == 1.0 and not planted["correct"] and planted["pins_checked"] > 0
                  and true["failed"] == 0 and true["correct"] and true["pins_checked"] > 0)
        print("self-test %-14s planted error_rate=%.3f (%d/%d)  true pins error_rate=%.3f  %s"
              % (workload, rate, planted["failed"], planted["attempted"],
                 true["failed"] / true["attempted"], "ok" if passed else "FAILED"))
        ok = ok and passed
    os.remove(wrong)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a wrong pinned digest drives error_rate to 1")
    args = parser.parse_args()

    guard_environment()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as text:
        spec = json.load(text)
    pins = os.path.join(HERE, "pins.txt")
    workloads = [w["name"] for w in spec["workloads"]]
    binary = build()
    if args.self_test:
        sys.exit(0 if self_test(binary, pins, workloads) else 1)

    if args.workload not in workloads:
        fail("--workload must be one of " + ", ".join(workloads), 2)
    if args.seed < 0:
        fail("--seed must be a non-negative integer", 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    raw = run_binary(binary, args.workload, args.seed, seconds, args.trace, pins, args.workload)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = shape_metrics(dict(raw["metrics"]), declared)
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=seconds,
                  trace=args.trace, host=fingerprint(raw["build"]), digests=raw["digests"],
                  pins_checked=raw["pins_checked"], notes=raw["notes"])
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as out:
        json.dump(record, out, indent=1)

    for key, value in record["host"].items():
        print("host %s: %s" % (key, value))
    for note in raw["notes"]:
        print("note: " + note)
    print("error_rate: %.6g (%d failed of %d ops; %d compared with a pinned digest)"
          % (result["failed"] / max(1, result["attempted"]), result["failed"],
             result["attempted"], raw["pins_checked"]))
    for name, metric in metrics.items():
        print("%-36s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
