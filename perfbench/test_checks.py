"""Each output check passes on consistent outputs and fails when one field
of an output is altered.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import math
import unittest
from statistics import NormalDist

import checks


def report(k, packets, nbytes, stride=1.0, width=1.0, lam=10.0, es=8000.0,
           es2d=2e6, b=1.0, eps=0.01, alert=None, link=None):
    """A window report whose fields satisfy the paper's relations."""
    mean = lam * es
    sigma = math.sqrt(lam * es2d * (b + 1) ** 2 / (2 * b + 1))
    cap = mean + NormalDist().inv_cdf(1 - eps) * sigma
    w = {} if link is None else {"link": link}
    w.update({
        "window": k, "start_s": k * stride, "width_s": width, "stride_s": stride,
        "packets": packets, "bytes": nbytes, "discards": 0,
        "flows": {"count": int(lam * width), "lambda_per_s": lam,
                  "mean_size_bits": es, "mean_s2_over_d_bits2_per_s": es2d},
        "measured": {"samples": 5, "mean_bps": mean, "variance_bps2": 1.0,
                     "cov": 0.1},
        "model": {"shot_b_fitted": b, "shot_b_used": b, "mean_bps": mean,
                  "stddev_bps": sigma, "cov": sigma / mean},
        "provisioning": {"eps": eps, "capacity_bps": cap,
                         "headroom": cap / mean},
        "anomaly": {"alert": alert is not None, "kind": alert},
    })
    return w


def jsonl(windows):
    return "".join(json.dumps(w) + "\n" for w in windows)


def pop_fixture():
    tally = {"links": {
        "a": {"width_s": 1.0, "stride_s": 1.0, "packets": [3, 0, 2], "bytes": [300, 0, 80]},
        "all": {"width_s": 1.0, "stride_s": 1.0, "packets": [3, 1, 2], "bytes": [300, 40, 80]},
    }}
    windows = []
    for name, t in tally["links"].items():
        for k, (p, b) in enumerate(zip(t["packets"], t["bytes"])):
            windows.append(report(k, p, b, link=name))
    return windows, tally


def ddos_fixture():
    # Width 10, stride 2, flood in [20, 30): windows 6..14 overlap it,
    # window 10 lies inside it, window 5 is the one baseline window.
    n = 15
    tally = {"flood_start_s": 20.0, "flood_end_s": 30.0,
             "windows": {"width_s": 10.0, "stride_s": 2.0,
                         "packets": [10 + k for k in range(n)],
                         "bytes": [1000 + k for k in range(n)]}}
    windows = []
    for k in range(n):
        flood = 6 <= k <= 14
        windows.append(report(
            k, 10 + k, 1000 + k, stride=2.0, width=10.0,
            lam=250.0 if flood else 10.0, es=400.0 if flood else 8000.0,
            alert="spike" if k == 7 else None))
    return windows, tally


def capture_fixture():
    tally = {"horizon_s": 60.0, "packets": 1000, "bytes": 123456,
             "first_ts": 0.25, "last_ts": 59.75}
    intervals = []
    for k in range(2):
        w = report(k, 0, 0, stride=30.0, width=30.0, lam=12.0 + k)
        intervals.append({
            "interval_index": k, "start_s": 30.0 * k, "length_s": 30.0,
            "inputs": {"flows": w["flows"]["count"], "continued_flows": 0,
                       "lambda_per_s": w["flows"]["lambda_per_s"],
                       "mean_size_bits": w["flows"]["mean_size_bits"],
                       "mean_s2_over_d_bits2_per_s":
                           w["flows"]["mean_s2_over_d_bits2_per_s"]},
            "measured": w["measured"], "model": w["model"],
            "provisioning": w["provisioning"]})
    doc = {"trace": {"packets": 1000, "total_bytes": 123456,
                     "duration_s": 59.5, "mean_rate_bps": 1.0},
           "intervals": intervals}
    stored = []
    for iv in intervals:
        w = report(iv["interval_index"], 0, 0, stride=30.0, width=30.0,
                   lam=iv["inputs"]["lambda_per_s"])
        stored.append(w)
    return doc, tally, stored


def set_path(obj, path, fn):
    *head, last = path
    for key in head:
        obj = obj[key]
    obj[last] = fn(obj[last])


def bump(v):
    """A small change: one unit for counts, 1e-6 relative for reals."""
    return v + max(abs(v), 1.0) * 1e-6 if isinstance(v, float) else v + 1


# Fields of one report that the relation and tally checks cover.
WINDOW_FIELDS = [
    ("packets",), ("bytes",), ("start_s",), ("width_s",),
    ("flows", "lambda_per_s"), ("flows", "mean_size_bits"),
    ("flows", "mean_s2_over_d_bits2_per_s"),
    ("measured", "mean_bps"), ("model", "mean_bps"), ("model", "stddev_bps"),
    ("model", "shot_b_used"), ("provisioning", "capacity_bps"),
    ("provisioning", "eps"),
]


class PopChecks(unittest.TestCase):
    def test_consistent_outputs_pass(self):
        windows, tally = pop_fixture()
        checks.check_pop(jsonl(windows), tally)

    def test_each_field_altered_fails(self):
        for path in WINDOW_FIELDS:
            with self.subTest(field=".".join(path)):
                windows, tally = pop_fixture()
                set_path(windows[4], path, bump)
                with self.assertRaises(checks.CheckError):
                    checks.check_pop(jsonl(windows), tally)

    def test_window_moved_to_another_link_fails(self):
        windows, tally = pop_fixture()
        windows[1]["link"] = "all"
        with self.assertRaises(checks.CheckError):
            checks.check_pop(jsonl(windows), tally)

    def test_missing_window_fails(self):
        windows, tally = pop_fixture()
        del windows[2]
        with self.assertRaises(checks.CheckError):
            checks.check_pop(jsonl(windows), tally)


class DdosChecks(unittest.TestCase):
    def test_consistent_outputs_pass(self):
        windows, tally = ddos_fixture()
        checks.check_ddos(jsonl(windows), tally)

    def test_each_field_altered_fails(self):
        for path in WINDOW_FIELDS + [("stride_s",)]:
            with self.subTest(field=".".join(path)):
                windows, tally = ddos_fixture()
                set_path(windows[3], path, bump)
                with self.assertRaises(checks.CheckError):
                    checks.check_ddos(jsonl(windows), tally)

    def test_no_spike_alert_fails(self):
        windows, tally = ddos_fixture()
        windows[7]["anomaly"] = {"alert": False, "kind": None}
        with self.assertRaises(checks.CheckError):
            checks.check_ddos(jsonl(windows), tally)

    def test_flood_without_lambda_rise_fails(self):
        windows, tally = ddos_fixture()
        windows[10] = report(10, 20, 1010, stride=2.0, width=10.0, lam=10.0,
                             es=400.0)
        with self.assertRaises(checks.CheckError):
            checks.check_ddos(jsonl(windows), tally)

    def test_flood_without_size_drop_fails(self):
        windows, tally = ddos_fixture()
        windows[10] = report(10, 20, 1010, stride=2.0, width=10.0, lam=250.0,
                             es=9000.0)
        with self.assertRaises(checks.CheckError):
            checks.check_ddos(jsonl(windows), tally)


class CaptureChecks(unittest.TestCase):
    def run_checks(self, doc, tally, stored):
        parsed = checks.check_capture(json.dumps(doc), tally, 30.0)
        checks.check_capture_query(jsonl(stored), parsed)

    def test_consistent_outputs_pass(self):
        self.run_checks(*capture_fixture())

    def test_each_doc_field_altered_fails(self):
        fields = [("trace", "packets"), ("trace", "total_bytes"),
                  ("trace", "duration_s")]
        for k in range(2):
            for path in [("start_s",), ("length_s",), ("interval_index",),
                         ("inputs", "lambda_per_s"), ("inputs", "mean_size_bits"),
                         ("inputs", "mean_s2_over_d_bits2_per_s"),
                         ("measured", "mean_bps"), ("model", "stddev_bps"),
                         ("model", "shot_b_used"),
                         ("provisioning", "capacity_bps")]:
                fields.append(("intervals", k) + path)
        for path in fields:
            with self.subTest(field=".".join(map(str, path))):
                doc, tally, stored = capture_fixture()
                set_path(doc, path, bump)
                with self.assertRaises(checks.CheckError):
                    self.run_checks(doc, tally, stored)

    def test_missing_interval_fails(self):
        doc, tally, stored = capture_fixture()
        del doc["intervals"][1]
        with self.assertRaises(checks.CheckError):
            self.run_checks(doc, tally, stored)

    def test_each_stored_field_altered_fails(self):
        for path in [("window",), ("start_s",), ("width_s",), ("flows", "count"),
                     ("flows", "lambda_per_s"), ("measured", "variance_bps2"),
                     ("model", "cov"), ("provisioning", "headroom")]:
            with self.subTest(field=".".join(path)):
                doc, tally, stored = capture_fixture()
                set_path(stored[1], path, bump)
                with self.assertRaises(checks.CheckError):
                    self.run_checks(doc, tally, stored)


class StreamChecks(unittest.TestCase):
    def test_query_multiset(self):
        windows, _ = pop_fixture()
        ingest = jsonl(windows)
        checks.check_query_multiset(jsonl(reversed(windows)), ingest)
        altered = copy.deepcopy(windows)
        altered[0]["measured"]["cov"] = 0.2
        with self.assertRaises(checks.CheckError):
            checks.check_query_multiset(jsonl(altered), ingest)
        with self.assertRaises(checks.CheckError):
            checks.check_query_multiset(jsonl(windows[1:]), ingest)

    def test_same_per_link(self):
        windows, _ = pop_fixture()
        by_link = sorted(windows, key=lambda w: w["link"])
        interleaved = sorted(windows, key=lambda w: (w["window"], w["link"]))
        checks.same_per_link(jsonl(by_link), jsonl(interleaved))
        swapped = list(interleaved)
        swapped[0], swapped[2] = swapped[2], swapped[0]  # link "a", k 0 and 1
        with self.assertRaises(checks.CheckError):
            checks.same_per_link(jsonl(by_link), jsonl(swapped))
        altered = copy.deepcopy(interleaved)
        altered[3]["bytes"] += 1
        with self.assertRaises(checks.CheckError):
            checks.same_per_link(jsonl(by_link), jsonl(altered))


if __name__ == "__main__":
    unittest.main()
