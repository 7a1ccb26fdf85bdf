"""Unit tests of the benchmark's aggregation arithmetic, correctness gate,
metric-name grammar and BENCHMARK.json format.

    python3 -m unittest discover -s magebench/tests
"""

import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import aggregate  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def sim_fixture(**over):
    sim = {"faults": 1000, "evicted_pages": 1000, "nic_reads": 1000, "nic_writes": 1000,
           "shootdowns": 10, "sim_ns": 60, "measured_ns": 40, "ops_per_sec": 2e6,
           "fault_mops": 1.0, "fault_p99_ns": 9000, "fault_p999_ns": 20000,
           "nic_read_gbps": 10.0, "nic_write_gbps": 5.0}
    sim.update(over)
    return sim


def rep(variant="plain", run_s=1.0, sim=None, events=100, fail="", warmup=0):
    return {"kind": "rep", "variant": variant, "warmup": warmup, "run_s": run_s,
            "gen_s": [0.1], "build_s": [0.2], "ref_mem_s": [0.02, 0.02],
            "ref_alloc_s": [0.01, 0.01], "events": events, "fail": fail,
            "attempted": 10, "failed": 0, "sim": sim or sim_fixture()}


class QuantileTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = aggregate.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_quartiles_of_one_to_ten(self):
        self.assertEqual(aggregate.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(aggregate.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(aggregate.spread([7.0, 7.0, 7.0]), 0.0)

    def test_single_value(self):
        self.assertEqual(aggregate.quartiles([4.0]), (4.0, 4.0, 4.0))


class SetupTest(unittest.TestCase):
    def test_setup_samples_pair_gen_and_build_of_each_set_up(self):
        a, b = rep(), rep()
        a["gen_s"], a["build_s"] = [1.0, 2.0], [0.5, 0.25]
        b["gen_s"], b["build_s"] = [4.0], [0.0]
        self.assertEqual(aggregate.setup_samples([a, b]), [1.5, 2.25, 4.0])


class HostScaleTest(unittest.TestCase):
    DONE = {"peak_rss_mb": 10.0}

    def reps(self, speeds, run_s=1.0):
        """One repetition per entry of `speeds`; a repetition at speed k takes
        k times as long for everything, yardsticks included."""
        out = []
        for i, k in enumerate(speeds):
            r = rep(run_s=k * run_s * (1 + i / 8))
            r["gen_s"], r["build_s"] = [k * 0.1 * (1 + i / 8), k * 0.1], [k * 0.2, k * 0.2]
            r["ref_mem_s"] = [k * 0.01, k * 0.03]
            r["ref_alloc_s"] = [k * 0.02, k * 0.02]
            out.append(r)
        return out

    def test_each_sample_is_scaled_by_its_own_repetition(self):
        reps = self.reps([1, 2, 1.5])
        m = aggregate.end_to_end(reps, self.DONE)
        ref = aggregate.REFERENCE_S
        walls = [r["run_s"] * 1e9 / 1000 / statistics.fmean(r["ref_mem_s"]) for r in reps]
        self.assertAlmostEqual(m["wall_ns_per_fault"],
                               ref["ref_mem_s"] * statistics.median(walls))
        setups = [x / statistics.fmean(r["ref_alloc_s"])
                  for r in reps for x in aggregate.setup_samples([r])]
        self.assertAlmostEqual(m["setup_s"], ref["ref_alloc_s"] * statistics.median(setups))

    def test_host_speed_changes_cancel(self):
        steady = aggregate.end_to_end(self.reps([1] * 8), self.DONE)
        drifting = aggregate.end_to_end(self.reps([1, 1.7, 1.2, 2, 1, 1.4, 1.9, 1.1]),
                                        self.DONE)
        self.assertAlmostEqual(drifting["wall_ns_per_fault"], steady["wall_ns_per_fault"])
        self.assertAlmostEqual(drifting["setup_s"], steady["setup_s"])

    def test_a_slower_program_shows(self):
        fast = aggregate.end_to_end(self.reps([1] * 8), self.DONE)
        slow = aggregate.end_to_end(self.reps([1] * 8, run_s=1.3), self.DONE)
        self.assertAlmostEqual(slow["wall_ns_per_fault"] / fast["wall_ns_per_fault"], 1.3)
        self.assertAlmostEqual(slow["setup_s"], fast["setup_s"])


class OpsOkFracTest(unittest.TestCase):
    def test_all_ok(self):
        self.assertEqual(aggregate.ops_ok_frac(100, 0), 1.0)

    def test_some_failed(self):
        self.assertEqual(aggregate.ops_ok_frac(200, 50), 0.75)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            aggregate.ops_ok_frac(0, 0)

    def test_tally_counts_every_operation_of_a_failed_rep(self):
        ok, bad, lossy = rep(), rep(fail="ranks differ"), rep()
        lossy["failed"] = 2
        self.assertEqual(aggregate.tally([ok, bad, lossy]), (30, 12))

    def test_cross_rep_failure_counts_against_ops_ok_frac(self):
        reps = [rep(), rep(), rep(sim=sim_fixture(faults=999))]
        aggregate.gate([], reps)
        self.assertEqual(aggregate.tally(reps), (30, 10))
        self.assertAlmostEqual(aggregate.ops_ok_frac(*aggregate.tally(reps)), 2 / 3)


class LedgerTest(unittest.TestCase):
    COSTS = {"sim": {"ns_per_op": 50.0, "events_per_op": 1.0},
             "mem_alloc": {"ns_per_op": 30.0, "events_per_op": 2.0},
             "mem_pt": {"ns_per_op": 5.0, "events_per_op": 0.0},
             "accounting": {"ns_per_op": 40.0, "events_per_op": 1.0},
             "hw_nic": {"ns_per_op": 200.0, "events_per_op": 3.0},
             "hw_tlb": {"ns_per_op": 2000.0, "events_per_op": 20.0}}

    def test_terms_and_remainder_partition_wall_time(self):
        sim = sim_fixture(sim_ns=40)  # no warm-up: scale 1
        terms = aggregate.ledger(sim, events=20000, wall_ns=3000.0, costs=self.COSTS)
        # Per fault: 2 alloc ops, 4 page-table calls, 2 accounting ops,
        # 2 NIC ops, 0.01 shootdowns.
        self.assertAlmostEqual(terms["mem_alloc"], 60.0)
        self.assertAlmostEqual(terms["mem_pt"], 20.0)
        self.assertAlmostEqual(terms["accounting"], 80.0)
        self.assertAlmostEqual(terms["hw_nic"], 400.0)
        self.assertAlmostEqual(terms["hw_tlb"], 20.0)
        # 20 events per fault minus those the replayed layers already paid:
        # 2*2 + 2*1 + 2*3 + 0.01*20 = 12.2.
        self.assertAlmostEqual(terms["sim"], (20 - 12.2) * 50.0)
        self.assertAlmostEqual(sum(terms.values()), 3000.0)
        self.assertAlmostEqual(terms["unattributed"], 3000.0 - 580.0 - 390.0)

    def test_warm_up_scales_windowed_counters(self):
        base = aggregate.ledger(sim_fixture(sim_ns=40), 20000, 3000.0, self.COSTS)
        scaled = aggregate.ledger(sim_fixture(sim_ns=60), 20000, 3000.0, self.COSTS)
        self.assertAlmostEqual(scaled["hw_nic"], 1.5 * base["hw_nic"])

    def test_engine_term_never_negative(self):
        terms = aggregate.ledger(sim_fixture(sim_ns=40), 1000, 3000.0, self.COSTS)
        self.assertEqual(terms["sim"], 0.0)


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(aggregate.gate([rep(warmup=1)], [rep(), rep()]), [])

    def test_failed_check_fails(self):
        problems = aggregate.gate([], [rep(), rep(fail="scan checksum mismatch")])
        self.assertEqual(len(problems), 1)
        self.assertIn("scan checksum mismatch", problems[0])

    def test_simulated_results_must_repeat_across_variants(self):
        odd = rep(variant="traced", sim=sim_fixture(faults=999))
        problems = aggregate.gate([], [rep(), odd])
        self.assertEqual(len(problems), 1)
        self.assertIn("faults", problems[0])
        self.assertIn("faults", odd["fail"])

    def test_event_count_must_repeat_within_a_variant(self):
        self.assertEqual(aggregate.gate([], [rep(), rep(variant="traced", events=120)]), [])
        self.assertEqual(len(aggregate.gate([], [rep(), rep(events=101)])), 1)


class TracedRunTest(unittest.TestCase):
    def test_paired_slowdown_pairs_within_a_round(self):
        reps = [rep("plain", 1.0), rep("spans", 1.5), rep("plain", 2.0), rep("spans", 2.6),
                rep("plain", 1.0), rep("spans", 1.2)]
        self.assertAlmostEqual(aggregate.paired_slowdown(reps, "spans"), 0.3)

    def test_span_fracs_partition_the_interval(self):
        spans = [["workload_gen", 0.0, 1.0], ["run", 1.0, 3.0], ["replay.sim", 3.0, 4.0]]
        fr = aggregate.span_fracs(spans)
        self.assertAlmostEqual(sum(fr.values()), 1.0)
        self.assertAlmostEqual(fr["run"], 0.5)
        self.assertEqual(fr["teardown"], 0.0)


class NameGrammarTest(unittest.TestCase):
    def test_grammar(self):
        for good in ["wall_ns_per_fault", "locks.fifo-part.wait_us", "spans.fault_p99.x_frac",
                     "a" * 64, "9lives"]:
            self.assertTrue(aggregate.valid_name(good), good)
        for bad in ["", "-lead", ".lead", "has space", "semi;colon", "a" * 65, "slash/x"]:
            self.assertFalse(aggregate.valid_name(bad), bad)

    def test_every_metric_and_workload_name_is_valid_and_unique(self):
        spec = load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for n in names:
            self.assertTrue(aggregate.valid_name(n), n)
        self.assertEqual(len(names), len(set(names)))


class SpecTest(unittest.TestCase):
    def test_format(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertRegex(m["unit"], unit_re)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], unit_re)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_result_requires_every_metric(self):
        spec = [{"name": "a", "unit": "ns"}, {"name": "b", "unit": "s"}]
        with self.assertRaises(aggregate.GateError):
            aggregate.result({"a": 1.0}, spec, True, 1, 0)
        out = aggregate.result({"a": 1.0, "b": 2, "extra": 3}, spec, True, 5, 0)
        self.assertEqual(out["metrics"], {"a": {"value": 1.0, "unit": "ns"},
                                          "b": {"value": 2.0, "unit": "s"}})

    def test_result_rejects_non_finite(self):
        with self.assertRaises(aggregate.GateError):
            aggregate.result({"a": float("nan")}, [{"name": "a", "unit": "ns"}], True, 1, 0)


if __name__ == "__main__":
    unittest.main()
