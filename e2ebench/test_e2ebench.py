#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself:

    python3 e2ebench/test_e2ebench.py

- exact repeat: each workload run twice at its default seed gives
  bit-identical counts, allocation rate and FCT percentiles;
- held-out seed: the correctness gate passes and the flow outcomes differ
  from the default seed's;
- layer split: each workload drives the layers it was chosen for;
- traced rep: spans cover the set-up calls, every slice and the replays,
  each nested inside its parent.
"""

import json
import os
import re
import subprocess
import unittest

import run

# Every output of a run that must repeat exactly at a fixed seed.
EXACT = [
    "allocs_per_sim_ms", "fct_p99_sim_us", "fct_p50_sim_us",
    "fct_max_sim_us", "flow_digest", "flows", "flows_failed", "probes_sent",
    "probes_lost", "queue_drops", "sketch_checks", "sketch_eps_violations",
    "setup.allocs", "asic.l3_entries.core", "asic.pkts_forwarded",
    "tcpu.tpps", "tcpu.instrs", "tcpu.decode_hit_ratio", "tcpu.hooks",
    "sim.events", "host.tcp_retransmits", "host.tcp_rto_fires",
    "host.tcp_useful_ratio", "apps.probes_sent", "apps.probe_answer_ratio",
    "apps.cwnd_cuts",
]

HELD_OUT_SEED = 90001

_binary = None


def drive(workload, seed, extra=()):
    """The binary's fewest reps (plus a traced one with --spans); returns
    its metrics dict."""
    global _binary
    if _binary is None:
        _binary = run.build(run.default_build_dir())
    cmd = run.bench_command(_binary, workload, seed, 0) + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed}: gate failed\n"
                             + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def default_seed(workload):
    path = os.path.join(run.HERE, "workloads", workload + ".scn")
    with open(path) as f:
        return int(re.search(r"^seed\s*=\s*(\d+)", f.read(), re.M).group(1))


class E2EBench(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in sorted(run.WORKLOADS):
            seed = default_seed(w)
            cls.results[w] = (drive(w, seed), drive(w, seed),
                              drive(w, HELD_OUT_SEED))

    def test_exact_repeat(self):
        for w, (a, b, _) in self.results.items():
            for key in EXACT:
                self.assertEqual(a[key], b[key], f"{w}: {key}")

    def test_held_out_seed_changes_outcomes(self):
        for w, (a, _, held) in self.results.items():
            self.assertEqual(held["flows_failed"], 0, w)
            self.assertEqual(held["probes_lost"], 0, w)
            self.assertNotEqual(a["flow_digest"], held["flow_digest"], w)

    def test_layer_split(self):
        fabric = self.results["fabric_k16"][0]
        incast = self.results["incast_tpp_k8"][0]
        sketch = self.results["sketch_hook_k8"][0]
        self.assertEqual(fabric["asic.l3_entries.core"], 1024)
        self.assertEqual(incast["asic.l3_entries.core"], 128)
        self.assertEqual(sketch["asic.l3_entries.core"], 128)
        self.assertEqual(fabric["tcpu.hooks"], 0)
        self.assertEqual(incast["tcpu.hooks"], 0)
        self.assertGreater(sketch["tcpu.hooks"], 0)
        self.assertEqual(sketch["tcpu.tpps"], 0)
        # Every probe's echo returns as a plain UDP frame over as many hops
        # as the probe took, so TPP hops stay below half of all forwarded
        # hops; the incast keeps them above a third.
        self.assertGreater(incast["tcpu.tpps"],
                           incast["asic.pkts_forwarded"] / 3)
        self.assertGreater(incast["host.tcp_retransmits"], 0)
        self.assertGreater(incast["apps.cwnd_cuts"], 0)

    def test_traced_rep_records_spans(self):
        w = "incast_tpp_k8"
        path = os.path.join(run.default_build_dir(), "spans", "test.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        d = drive(w, default_seed(w), ["--spans", path])
        with open(path) as f:
            spans = json.load(f)
        names = [s["name"] for s in spans]
        self.assertEqual(names.count("sim.slice"), run.WORKLOADS[w]["slices"])
        for name in ("host.buildFatTree", "workload.compileSchedule",
                     "host.TcpListener", "replay.asic.L3LpmTable::match",
                     "replay.tcpu.Tcpu::execute"):
            self.assertIn(name, names)
        for s in spans:
            self.assertLessEqual(s["start_s"], s["end_s"])
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                self.assertLessEqual(parent["start_s"], s["start_s"])
                self.assertLessEqual(s["end_s"], parent["end_s"])
        self.assertGreater(d["tcpu.execute_ns"], 0)
        self.assertGreater(d["asic.l3_match_ns.core"], 0)
        self.assertGreater(d["trace.sim_us_per_s"], 0)


if __name__ == "__main__":
    unittest.main()
