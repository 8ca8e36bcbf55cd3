"""Self-tests of the front end's span and metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest

import run


def spans_from(marks):
    """Spans from (kind, name, ops, at_ns) marks, times relative to 0."""
    spans = run.Spans()
    spans.epoch = 0
    for kind, name, ops, at in marks:
        spans.mark(kind, name, ops, at)
    return spans


class SummaryTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        s = run.Summary(range(1, 11))
        self.assertEqual((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10))
        one = run.Summary.exact(4.5)
        self.assertEqual((one.q1, one.median, one.q3, one.n), (4.5, 4.5, 4.5, 1))


class SpansTest(unittest.TestCase):
    def setUp(self):
        self.spans = spans_from([
            ("B", "iteration", 0, 0),
            ("B", "calibrate", 0, 10),
            ("B", "app.deploy", 0, 20),
            ("E", "app.deploy", 1, 50),
            ("E", "calibrate", 1, 70),
            ("B", "replay", 0, 70),
            ("E", "replay", 400, 470),
            ("E", "iteration", 400, 480),
        ])

    def test_nesting_and_self_time(self):
        by_name = {s["name"]: s for s in self.spans.spans}
        self.assertEqual(by_name["app.deploy"]["parent"], by_name["calibrate"]["id"])
        self.assertEqual(by_name["replay"]["ops"], 400)
        own = self.spans.self_times({0})
        self.assertEqual(own, {"iteration": 480 - 60 - 400, "calibrate": 60 - 30,
                               "app.deploy": 30, "replay": 400})
        self.assertEqual(self.spans.self_times({1}), {})

    def test_descendants_cover_every_level(self):
        iteration = self.spans.spans[0]
        names = [s["name"] for s in self.spans.descendants(iteration)]
        self.assertEqual(names, ["calibrate", "app.deploy", "replay"])

    def test_a_mismatched_end_mark_is_an_error(self):
        with self.assertRaises(run.WorkerError):
            spans_from([("B", "a", 0, 0), ("E", "b", 1, 1)])

    def test_spans_are_written_one_object_a_line(self):
        lines = self.spans.jsonl().splitlines()
        self.assertEqual(len(lines), 4)
        self.assertEqual(set(json.loads(lines[2])),
                         {"id", "name", "start_ns", "end_ns", "parent", "iteration"})


class MetricTest(unittest.TestCase):
    def test_per_op_times_and_rates(self):
        spans = spans_from([
            ("B", "x", 0, 0), ("E", "x", 4, 4_000),
            ("B", "y", 0, 4_000), ("E", "y", 2**20, 1_000_000_000 + 4_000),
        ])
        self.assertEqual(run.per_op(spans, "x", 1e9, {0}).median, 1000.0)
        self.assertAlmostEqual(run.per_op(spans, "y", "rate", {0}).median, 1.0)

    def test_reference_units_scale_by_the_kernel(self):
        times = {"replay_ns_per_session": 5000.0, "reference_ns": 20_000_000}
        self.assertEqual(run.to_reference(times, "replay_ns_per_session", 1.0), 2500.0)

    def test_result_line_has_exactly_the_result_keys(self):
        line = run.result_line(True, 10, 0, [("setup_s", "s", run.Summary.exact(0.5))])
        self.assertEqual(json.loads(line), {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}})


if __name__ == "__main__":
    unittest.main()
