#!/usr/bin/env python3
"""End-to-end benchmark of libtpp: builds the binary, runs one workload,
and prints the run's result as one JSON object on the last stdout line.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
binary (Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones and writes the traced rep's spans next to the build. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Why each workload exists, and which layers it drives: README.md.
# Warm-up and window are simulated milliseconds; the window is cut into
# `slices` equal slices. `setups` set-up-only reps follow each full rep, to
# give setup_s more samples than the full reps alone would.
WORKLOADS = {
    "fabric_k16": dict(warmup_ms=2, window_ms=30, slices=20,
                       probe_interval_us=0, setups=2),
    "incast_tpp_k8": dict(warmup_ms=2.4, window_ms=43.2, slices=36,
                          probe_interval_us=50, setups=4),
    "sketch_hook_k8": dict(warmup_ms=2, window_ms=40, slices=20,
                           probe_interval_us=0, setups=4),
}

END_TO_END = {
    "setup_s": "s",
    "sim_us_per_s": "us/s",
    "peak_rss_mb": "MB",
    "allocs_per_sim_ms": "1/ms",
    "fct_p99_sim_us": "us",
}

PER_LAYER = {
    "host.build_s": "s",
    "asic.l3_entries.core": "count",
    "asic.l3_match_ns.core": "ns",
    "asic.l3_match_ns.edge": "ns",
    "asic.pkts_forwarded": "count",
    "tcpu.tpps": "count",
    "tcpu.instrs": "count",
    "tcpu.decode_hit_ratio": "ratio",
    "tcpu.execute_ns": "ns",
    "tcpu.hooks": "count",
    "tcpu.resident_ns": "ns",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.slice_rate_iqr": "ratio",
    "host.tcp_retransmits": "count",
    "host.tcp_rto_fires": "count",
    "host.tcp_useful_ratio": "ratio",
    "apps.probes_sent": "count",
    "apps.probe_answer_ratio": "ratio",
    "apps.cwnd_cuts": "count",
    "workload.compile_s": "s",
    "host.launch_s": "s",
    "setup.allocs": "count",
    "monitor.estimate_ns": "ns",
    "monitor.audit_s": "s",
    "trace.sim_us_per_s": "us/s",
    "trace.overhead_ratio": "ratio",
    "bench.anchor_core_ns_per_step": "ns",
    "bench.anchor_tlb_ns_per_step": "ns",
}

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def default_build_dir():
    build_dir = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(build_dir or os.path.join(ROOT, ".bench_build"))


def build(build_dir):
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"libtpp sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "e2ebench")


def bench_command(binary, workload, seed, seconds):
    w = WORKLOADS[workload]
    return [binary,
            "--scenario", os.path.join(HERE, "workloads", workload + ".scn"),
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--warmup-ms", str(w["warmup_ms"]),
            "--window-ms", str(w["window_ms"]),
            "--slices", str(w["slices"]),
            "--probe-interval-us", str(w["probe_interval_us"]),
            "--setups", str(w["setups"])]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = default_build_dir()
    binary = build(build_dir)

    cmd = bench_command(binary, args.workload, args.seed, args.seconds)
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # The correctness gate failed (reasons on stderr): no metrics.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    d = json.loads(lines[-1])

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": d[name], "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({
        "correct": True,
        "attempted": int(d["flows"] + d["probes_sent"]),
        "failed": int(d["flows_failed"] + d["probes_lost"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
