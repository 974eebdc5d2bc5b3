"""Unit tests for the benchmark's arithmetic on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class SelfTimes(unittest.TestCase):
    def test_nested_spans_subtract_direct_children_only(self):
        spans = [
            (1, 0.0, 100.0),   # parent
            (1, 10.0, 20.0),   # child
            (1, 12.0, 5.0),    # grandchild
            (1, 50.0, 30.0),   # second child
        ]
        self.assertEqual(stats.self_times(spans), [50.0, 15.0, 5.0, 30.0])

    def test_result_follows_input_order(self):
        spans = [(1, 12.0, 5.0), (1, 0.0, 100.0), (1, 10.0, 20.0)]
        self.assertEqual(stats.self_times(spans), [5.0, 80.0, 15.0])

    def test_threads_do_not_nest(self):
        spans = [(1, 0.0, 100.0), (2, 10.0, 20.0)]
        self.assertEqual(stats.self_times(spans), [100.0, 20.0])

    def test_back_to_back_spans_are_siblings(self):
        spans = [(1, 0.0, 10.0), (1, 10.0, 10.0)]
        self.assertEqual(stats.self_times(spans), [10.0, 10.0])

    def test_child_overrunning_its_parent_is_clipped(self):
        # Rounded timestamps can put a child's end just past its parent's.
        spans = [(1, 0.0, 10.0), (1, 4.0, 6.5)]
        self.assertEqual(stats.self_times(spans), [4.0, 6.5])


class SetupSplit(unittest.TestCase):
    def test_recovers_setup_and_step_from_two_runs(self):
        setup, step, steps = 0.25, 0.004, 200
        one = setup + step
        many = setup + steps * step
        got_setup, got_step = stats.split_setup(one, many, steps)
        self.assertAlmostEqual(got_setup, setup)
        self.assertAlmostEqual(got_step, step)

    def test_needs_two_steps(self):
        with self.assertRaises(ValueError):
            stats.split_setup(1.0, 1.0, 1)

    def test_steady_rate_drops_step_zero_and_setup(self):
        tokens = [1000, 10, 20, 30]
        self.assertAlmostEqual(stats.steady_rate(tokens, 1.0, 1.5), 120.0)

    def test_steady_rate_rejects_nonpositive_window(self):
        with self.assertRaises(ValueError):
            stats.steady_rate([1, 2], 1.0, 1.0)


class Percentiles(unittest.TestCase):
    def test_tail_level_leaves_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_level(19))
        self.assertEqual(stats.tail_level(20), 50.0)
        self.assertEqual(stats.tail_level(99), 75.0)
        self.assertEqual(stats.tail_level(100), 90.0)
        self.assertEqual(stats.tail_level(199), 90.0)
        self.assertEqual(stats.tail_level(200), 95.0)
        self.assertEqual(stats.tail_level(999), 95.0)
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(10000), 99.9)

    def test_every_chosen_level_really_has_ten_beyond(self):
        for n in range(20, 3000):
            level = stats.tail_level(n)
            values = list(range(n))
            tail = stats.nearest_rank(values, level)
            self.assertGreaterEqual(n - 1 - tail, stats.MIN_BEYOND, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 95.0), 95)
        self.assertEqual(stats.nearest_rank(values, 50.0), 50)
        self.assertEqual(stats.nearest_rank([7], 99.9), 7)

    def test_median_and_tail(self):
        values = [float(v) for v in range(200, 0, -1)]
        self.assertEqual(stats.median_and_tail(values, 95.0), (100.5, 190.0))


class TimedRuns(unittest.TestCase):
    def test_count_follows_seconds_and_tokens_level_is_not_the_fastest(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(w.timed_runs(0), workloads.MIN_TIMED_RUNS)
            self.assertEqual(w.timed_runs(10 * w.timed_run_s), 10)
            for seconds in (0, 1, 25, 60):
                n = w.timed_runs(seconds)
                rates = list(range(n))
                self.assertLess(
                    stats.nearest_rank(rates, workloads.TOKENS_LEVEL), n - 1)


class LinkFloor(unittest.TestCase):
    def test_alpha_and_beta_terms_per_link(self):
        # 10 messages at 500 us plus 1.25 MB at 1250 B/us, over 2 links.
        self.assertAlmostEqual(
            stats.link_floor_ms(10, 1_250_000, 500.0, 1250.0, links=2), 3.0)

    def test_infinite_bandwidth_charges_alpha_only(self):
        self.assertAlmostEqual(
            stats.link_floor_ms(4, 10**9, 250.0, 0.0, links=1), 1.0)

    def test_needs_a_link(self):
        with self.assertRaises(ValueError):
            stats.link_floor_ms(1, 1, 1.0, 1.0, links=0)


class Layers(unittest.TestCase):
    def trace(self):
        meta = [{"ph": "M", "name": "thread_name", "pid": 0, "tid": 7,
                 "args": {"name": "train"}},
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": 8,
                 "args": {"name": "comm"}}]
        spans = [
            ("step", 7, 0.0, 1000.0),
            ("step", 7, 1000.0, 1000.0),
            ("embdata/s0/t0", 8, 100.0, 400.0),
            ("alltoallv", 8, 150.0, 300.0),
            ("dense/s0/0", 8, 600.0, 200.0),
            ("allreduce", 8, 650.0, 100.0),
        ]
        return meta + [{"ph": "X", "name": n, "pid": 0, "tid": t, "ts": ts,
                        "dur": d} for n, t, ts, d in spans]

    def test_busy_idle_and_collective_self_time(self):
        out = layers.span_metrics(self.trace(), steps=2, ranks=1)
        self.assertAlmostEqual(out["sched.busy_ms"], 0.3)        # 600 us / 2
        self.assertAlmostEqual(out["sched.idle_frac"], 0.7)      # 1 - 600/2000
        self.assertAlmostEqual(out["comm.alltoallv.self_ms_per_step"], 0.15)
        self.assertAlmostEqual(out["comm.allreduce.self_ms_per_step"], 0.05)
        self.assertEqual(out["comm.broadcast.self_ms_per_step"], 0.0)

    def test_labelled_counters(self):
        counters = {"comm.calls{collective=alltoallv}": 3,
                    "comm.calls{collective=allreduce}": 2,
                    "comm.bytes{collective=alltoallv}": 99,
                    "fabric.send.bytes": 5}
        self.assertEqual(layers.labelled(counters, "comm.calls", "collective"),
                         {"alltoallv": 3, "allreduce": 2})

    def test_phase_samples_skip_step_zero_and_measure_skew(self):
        result = {"phases": list(layers.PHASES), "profiles": [
            [0, 0, 50.0, 1, 2, 3, 4, 5, 35],
            [1, 0, 60.0, 1, 2, 3, 4, 5, 45],
            [0, 1, 10.0, 1, 2, 3, 4, 0, 0],
            [1, 1, 12.5, 1, 2, 3, 4, 2.5, 0],
        ]}
        samples = layers.phase_samples(result)
        self.assertEqual(samples["trainer.step_ms"], [10.0, 12.5])
        self.assertEqual(samples["trainer.comm_wait_ms"], [0, 2.5])
        self.assertEqual(samples["trainer.step_skew_ms"], [2.5])

    def snapshot(self):
        return {"counters": {"fabric.send.messages": 40,
                             "fabric.send.bytes": 4000,
                             "comm.pool.hits": 3, "comm.pool.misses": 1,
                             "sched.ops_executed": 20,
                             "comm.calls{collective=alltoallv}": 8,
                             "comm.bytes{collective=alltoallv}": 800},
                "histograms": {"fabric.recv.wait_us": {"p50": 1, "p99": 9},
                               "sched.queue_depth": {"p50": 2}}}

    def test_counters_per_step(self):
        w = workloads.WORKLOADS["allgather-topk"]
        snap = self.snapshot()
        snap["counters"].update({
            "comm.codec.bytes_in{codec=topk}": 1000,
            "comm.codec.bytes_out{codec=topk}": 400,
            "sparse.algo.picks{algo=dense}": 4})
        out = layers.counter_metrics(snap, w, steps=4, ranks=2)
        self.assertEqual(out["comm.alltoallv.calls_per_step"], 2)
        self.assertEqual(out["comm.allreduce.calls_per_step"], 0)
        self.assertEqual(out["comm.pool.hit_ratio"], 0.75)
        self.assertEqual(out["codec.out_in_ratio"], 0.4)
        self.assertEqual(out["sparse.algo.dense.picks"], 1)
        # 40 msgs * 50 us + 4000 B / 1250 B/us over 2 links and 4 steps.
        self.assertAlmostEqual(out["fabric.link_floor_ms_per_step"],
                               (2000 + 3.2) / 2 / 4 / 1000)

    def test_unlisted_collective_fails_loudly(self):
        snap = self.snapshot()
        snap["counters"]["comm.calls{collective=alltoallw}"] = 1
        with self.assertRaises(layers.LayerError):
            layers.counter_metrics(snap, workloads.WORKLOADS["allgather-topk"],
                                   steps=4, ranks=2)

    def bandwidth_snapshot(self):
        """Every counter embrace-bandwidth's declared layers leave behind."""
        snap = self.snapshot()
        snap["counters"].update({
            "vertical.prior_rows": 30, "vertical.delayed_rows": 10,
            "embed.exchange.bytes{path=alltoall}": 500,
            "embed.cache.hits": 9, "embed.cache.misses": 3,
            "embed.cache.sync_bytes": 64, "embed.cache.syncs": 1})
        return snap

    def test_declared_layers_with_all_counters(self):
        out = layers.counter_metrics(self.bandwidth_snapshot(),
                                     workloads.WORKLOADS["embrace-bandwidth"],
                                     steps=4, ranks=2)
        self.assertEqual(out["vss.prior_rows_frac"], 0.75)
        self.assertEqual(out["embed.cache.hit_ratio"], 0.75)

    def test_missing_counter_of_a_declared_layer_fails_loudly(self):
        # Numerators and denominators alike: a renamed denominator must not
        # turn a ratio into a silent 1.0.
        for name in ("embed.cache.hits", "embed.cache.misses",
                     "vertical.delayed_rows", "comm.pool.misses"):
            snap = self.bandwidth_snapshot()
            del snap["counters"][name]
            with self.subTest(name=name), \
                    self.assertRaisesRegex(layers.LayerError, re.escape(name)):
                layers.counter_metrics(snap,
                                       workloads.WORKLOADS["embrace-bandwidth"],
                                       steps=4, ranks=2)

    def test_renamed_phase_fails_loudly(self):
        result = {"phases": ["fwd"] + list(layers.PHASES[1:]), "profiles": []}
        with self.assertRaises(layers.LayerError):
            layers.phase_samples(result)


if __name__ == "__main__":
    unittest.main()
