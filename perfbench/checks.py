"""Output checks for the end-to-end benchmark.

Every check compares what a tool printed with a value computed apart from
the program: the generator's tallies (tally.json), a brute-force
longest-prefix match done by the generator, or the paper's relations
recomputed here from each report's own fields. A check raises CheckError
naming the first disagreement.
"""

from collections import Counter
import json
import math
from statistics import NormalDist

REL_TOL = 1e-9


class CheckError(AssertionError):
    pass


def _close(a, b, what, rel=REL_TOL):
    if a == b:
        return
    scale = max(abs(a), abs(b))
    if not (abs(a - b) <= rel * scale):
        raise CheckError(f"{what}: {a!r} != {b!r} (rel {abs(a - b) / scale:.3g})")


def _equal(a, b, what):
    if a != b:
        raise CheckError(f"{what}: {a!r} != {b!r}")


# ------------------------------------------------------------ paper relations

def paper_relations(flows, measured, model, provisioning, where):
    """The model's three relations, from one report's own fields.

    flows: lambda_per_s, mean_size_bits, mean_s2_over_d_bits2_per_s.
    - measured mean rate (byte bins) == lambda * E[S] (flow records)
    - model variance == lambda * E[S^2/D] * (b+1)^2 / (2b+1)
    - capacity == mean + Phi^-1(1 - eps) * sigma
    """
    lam = flows["lambda_per_s"]
    es = flows["mean_size_bits"]
    es2d = flows["mean_s2_over_d_bits2_per_s"]
    _close(measured["mean_bps"], lam * es, f"{where}: measured mean vs lambda*E[S]")
    _close(model["mean_bps"], lam * es, f"{where}: model mean vs lambda*E[S]")
    b = model["shot_b_used"]
    var = lam * es2d * (b + 1.0) ** 2 / (2.0 * b + 1.0)
    _close(model["stddev_bps"] ** 2, var,
           f"{where}: model variance vs lambda*E[S^2/D]*(b+1)^2/(2b+1)")
    eps = provisioning["eps"]
    sigma = model["stddev_bps"]
    cap = model["mean_bps"]
    if sigma != 0.0:
        cap += NormalDist().inv_cdf(1.0 - eps) * sigma
    _close(provisioning["capacity_bps"], cap,
           f"{where}: capacity vs mean + Phi^-1(1-eps)*sigma")


def window_relations(w, where):
    paper_relations(w["flows"], w["measured"], w["model"], w["provisioning"], where)


# -------------------------------------------------------------- live windows

def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def window_totals(windows, tally, where):
    """Each window's packets/bytes equal the generator's tally for
    [k*stride, k*stride + width); every window the tally fills is emitted,
    none twice; the per-link totals agree."""
    width, stride = tally["width_s"], tally["stride_s"]
    seen = set()
    for w in windows:
        k = w["window"]
        at = f"{where} window {k}"
        if k in seen:
            raise CheckError(f"{at}: emitted twice")
        seen.add(k)
        _equal(w["width_s"], width, f"{at}: width_s")
        _equal(w["stride_s"], stride, f"{at}: stride_s")
        _equal(w["start_s"], k * stride, f"{at}: start_s")
        p = tally["packets"][k] if k < len(tally["packets"]) else 0
        b = tally["bytes"][k] if k < len(tally["bytes"]) else 0
        _equal(w["packets"], p, f"{at}: packets vs generator tally")
        _equal(w["bytes"], b, f"{at}: bytes vs generator tally")
    for k, p in enumerate(tally["packets"]):
        if p and k not in seen:
            raise CheckError(f"{where} window {k}: {p} packets but no report")
    if width == stride:
        _equal(sum(w["packets"] for w in windows), sum(tally["packets"]),
               f"{where}: link packet total vs generator tally")
        _equal(sum(w["bytes"] for w in windows), sum(tally["bytes"]),
               f"{where}: link byte total vs generator tally")


def check_pop(lines, tally):
    """fbm_live --link: per link, windows against the tallies made with the
    generator's brute-force longest-prefix match."""
    by_link = {}
    for w in parse_jsonl(lines):
        window_relations(w, f"link {w.get('link')} window {w['window']}")
        by_link.setdefault(w["link"], []).append(w)
    for name, t in tally["links"].items():
        window_totals(by_link.pop(name, []), t, f"link {name}")
    if by_link:
        raise CheckError(f"reports for unknown links {sorted(by_link)}")


def check_ddos(lines, tally):
    """Overlapping windows against the tallies, then the flood's signature:
    a spike alert in a window overlapping it, lambda up and E[S] down."""
    windows = parse_jsonl(lines)
    for w in windows:
        window_relations(w, f"window {w['window']}")
    window_totals(windows, tally["windows"], "link")
    t0, t1 = tally["flood_start_s"], tally["flood_end_s"]

    def end(w):
        return w["start_s"] + w["width_s"]

    baseline = [w for w in windows if end(w) <= t0 and w["window"] >= 5]
    inside = [w for w in windows if w["start_s"] >= t0 and end(w) <= t1]
    overlap = [w for w in windows if w["start_s"] < t1 and end(w) > t0]
    if not baseline or not inside:
        raise CheckError("ddos: no baseline or no in-flood windows")
    if not any(w["anomaly"]["alert"] and w["anomaly"]["kind"] == "spike"
               for w in overlap):
        raise CheckError("ddos: no spike alert in a window overlapping the flood")
    lam0 = sorted(w["flows"]["lambda_per_s"] for w in baseline)[len(baseline) // 2]
    es0 = sorted(w["flows"]["mean_size_bits"] for w in baseline)[len(baseline) // 2]
    lam1 = min(w["flows"]["lambda_per_s"] for w in inside)
    es1 = max(w["flows"]["mean_size_bits"] for w in inside)
    if not lam1 > 5.0 * lam0:
        raise CheckError(f"ddos: flood lambda {lam1} not above 5x baseline {lam0}")
    if not es1 < es0:
        raise CheckError(f"ddos: flood E[S] {es1} not below baseline {es0}")


# --------------------------------------------------------------- batch runs

def check_capture(doc_text, tally, interval_s):
    """fbm_analyze --json: capture totals against the generator's count of
    IPv4 TCP/UDP frames (VLAN tags excluded from sizes), every interval
    present once, the paper relations on each."""
    doc = json.loads(doc_text)
    tr = doc["trace"]
    _equal(tr["packets"], tally["packets"], "capture packets vs generator")
    _equal(tr["total_bytes"], tally["bytes"], "capture bytes vs generator")
    _equal(tr["duration_s"], tally["last_ts"] - tally["first_ts"],
           "capture duration vs generator")
    intervals = doc["intervals"]
    indexes = [iv["interval_index"] for iv in intervals]
    _equal(indexes, list(range(math.ceil(tally["horizon_s"] / interval_s))),
           "interval indexes")
    for iv in intervals:
        at = f"interval {iv['interval_index']}"
        _equal(iv["start_s"], iv["interval_index"] * interval_s, f"{at}: start_s")
        _equal(iv["length_s"], interval_s, f"{at}: length_s")
        paper_relations(iv["inputs"], iv["measured"], iv["model"],
                        iv["provisioning"], at)
    return doc


def check_capture_query(query_text, doc):
    """fbm_query over an fbm_analyze store: one record per interval carrying
    the interval's fields unchanged."""
    records = parse_jsonl(query_text)
    intervals = doc["intervals"]
    _equal(len(records), len(intervals), "stored records vs intervals")
    for rec, iv in zip(records, intervals):
        at = f"stored interval {iv['interval_index']}"
        _equal(rec["window"], iv["interval_index"], f"{at}: index")
        _equal(rec["start_s"], iv["start_s"], f"{at}: start_s")
        _equal(rec["width_s"], iv["length_s"], f"{at}: width")
        _equal(rec["flows"]["count"], iv["inputs"]["flows"], f"{at}: flows")
        for key in ("lambda_per_s", "mean_size_bits", "mean_s2_over_d_bits2_per_s"):
            _equal(rec["flows"][key], iv["inputs"][key], f"{at}: {key}")
        for block in ("measured", "model", "provisioning"):
            _equal(rec[block], iv[block], f"{at}: {block}")


def check_query_multiset(query_text, ingest_text):
    """fbm_query's lines equal the ingest step's JSONL lines as a multiset."""
    q = Counter(line for line in query_text.splitlines() if line)
    i = Counter(line for line in ingest_text.splitlines() if line)
    if q != i:
        extra = sum((q - i).values())
        missing = sum((i - q).values())
        raise CheckError(f"query vs ingest lines: {extra} extra, {missing} missing")


def same_per_link(replay_text, tool_text):
    """Byte identity of two JSONL streams compared per link: a batched
    engine push emits link by link, the tool's per-packet push interleaves.
    Within a link the order must match."""
    def split(text):
        out = {}
        for line in text.splitlines():
            key = line.split(",", 1)[0] if line.startswith('{"link"') else ""
            out.setdefault(key, []).append(line)
        return out
    a, b = split(replay_text), split(tool_text)
    if a != b:
        bad = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        raise CheckError(f"replay differs from the tool's output for {bad[:3]}")
