#!/usr/bin/env python3
"""End-to-end benchmark of the analysis tools (fbm_analyze, fbm_live,
fbm_query), run as child processes on seeded generated captures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the tools and the benchmark's own
generator and replayer into .bench_build/, generates the workload's inputs
into .bench_cache/ (outside every timed region), then:

  --trace 0  repeats rounds of the workload (ingest step, reference loop,
             then the query step over its own stores) for S seconds, checks
             every output and prints the end-to-end metrics (rates from each
             step's best round, in reference seconds).
  --trace 1  runs the tools once more for reference and the replayer with
             and without its timers, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md for the workloads, metrics and reference figures.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CACHE = ROOT / ".bench_cache"
TOOLS = BUILD / "fbm"

SETUP_REPS = 15
CHECKPOINT_EVERY = 200  # pop_live: closed windows per checkpoint
CAPTURE_INTERVAL_S = 30.0
# Rates are per reference second: a step's best wall time in the run is
# scaled by REF_S over the reference loop's best wall time in the same run,
# which cancels how fast the host was while the run lasted. REF_S is the
# loop's wall time on a quiet host of the machine the README's reference
# figures come from, so on that host a reference second is a second.
REF_S = 0.091

WORKLOADS = ("capture_batch", "pop_live", "ddos_churn")

END_TO_END_UNITS = {
    "setup_s": "s",
    "packets_per_s": "packets/s",
    "peak_rss_mb": "MB",
    "query_records_per_s": "records/s",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build/gen

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no repository sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "perfbench-build.log"
    with open(build_log, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j4"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                log(f"build failed: {' '.join(step)}; see {build_log}")
                sys.stderr.write(build_log.read_text()[-3000:])
                sys.exit(1)


def inputs(workload, seed):
    """Generated inputs for (workload, seed), cached; other seeds' inputs
    for the workload are evicted so the cache holds one set each."""
    gen_hash = hashlib.sha256((HERE / "gen.cpp").read_bytes()).hexdigest()[:12]
    key = f"{workload}-{seed}-{gen_hash}"
    CACHE.mkdir(exist_ok=True)
    for old in CACHE.glob(f"{workload}-*"):
        if old.name != key:
            shutil.rmtree(old, ignore_errors=True)
    target = CACHE / key
    if not (target / "tally.json").is_file():
        tmp = CACHE / f"tmp-{key}"
        shutil.rmtree(tmp, ignore_errors=True)
        rc = subprocess.run([str(BUILD / "perfbench_gen"), workload, str(seed),
                             str(tmp)]).returncode
        if rc:
            log(f"input generation failed ({rc})")
            sys.exit(1)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return target


# ----------------------------------------------------------------- commands

class Workload:
    """The tool invocations of one workload over one input file."""

    def __init__(self, name, data, work):
        self.name = name
        self.data = data
        self.work = work
        self.links = (data / "links.txt").read_text().split()
        self.tally = json.loads((data / "tally.json").read_text())
        self.stores = [work / "a.fbms"] + ([work / "b.fbms"] if name == "capture_batch" else [])
        self.ckpt = work / "state.ckpt"
        ext = "pcap" if name == "capture_batch" else "fbmt"
        self.input = data / f"input.{ext}"
        self.one = data / f"one.{ext}"
        self.packets = self.tally["frames"]

    def ingest(self, src):
        if self.name == "capture_batch":
            base = [str(TOOLS / "fbm_analyze"), str(src), "--interval",
                    str(CAPTURE_INTERVAL_S), "--json"]
            return [base + ["--store", str(self.stores[0])],
                    base + ["--prefix24", "--store", str(self.stores[1])]]
        cmd = [str(TOOLS / "fbm_live"), str(src), "--json",
               "--store", str(self.stores[0])]
        if self.name == "pop_live":
            for link in self.links:
                cmd += ["--link", link]
            cmd += ["--window", "1", "--checkpoint", str(self.ckpt),
                    "--checkpoint-every", str(CHECKPOINT_EVERY)]
        else:
            cmd += ["--window", "10", "--stride", "2"]
        return [cmd]

    def query(self, store):
        return [str(TOOLS / "fbm_query"), str(store)]

    def clean(self):
        for p in self.stores + [self.ckpt]:
            p.unlink(missing_ok=True)


class Child:
    """Runs one tool invocation with stdout to a file; times it from the
    outside and takes its peak RSS from the child's rusage."""

    def __init__(self, cmd, out_path):
        with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rc = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.out_path = Path(out_path)
        if self.rc != 0:
            log(f"{Path(cmd[0]).name} exited {self.rc}: "
                + Path(str(out_path) + ".err").read_text()[-500:])

    def text(self):
        return self.out_path.read_text()


# ----------------------------------------------------------------- measure

def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def verify(wl, ingest_texts, query_texts):
    """Checks one round's outputs against the independent computations."""
    if wl.name == "capture_batch":
        for doc_text, q_text in zip(ingest_texts, query_texts):
            doc = checks.check_capture(doc_text, wl.tally, CAPTURE_INTERVAL_S)
            checks.check_capture_query(q_text, doc)
    elif wl.name == "pop_live":
        checks.check_pop(ingest_texts[0], wl.tally)
        checks.check_query_multiset(query_texts[0], ingest_texts[0])
    else:
        checks.check_ddos(ingest_texts[0], wl.tally)
        checks.check_query_multiset(query_texts[0], ingest_texts[0])


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, cmd, out_path):
        child = Child(cmd, out_path)
        self.attempted += 1
        if child.rc != 0:
            self.failed += 1
            self.correct = False
        return child


def measure(wl, seconds, counts):
    work = wl.work
    # Set-up: the ingest step's commands on a one-packet input, each a fresh
    # (cold) process; median over repetitions.
    setups = []
    for _ in range(SETUP_REPS):
        wl.clean()
        setups.append(sum(counts.run(cmd, work / f"setup{i}.out").wall
                          for i, cmd in enumerate(wl.ingest(wl.one))))

    # Per round: the ingest step's, the query step's and the reference
    # loop's wall times, the loop run between the two steps.
    walls, rss = [], []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        wl.clean()
        ingest = [counts.run(cmd, work / f"ingest{i}.out")
                  for i, cmd in enumerate(wl.ingest(wl.input))]
        ref = host_speed(work)
        query = [counts.run(wl.query(s), work / f"query{i}.out")
                 for i, s in enumerate(wl.stores)]
        if any(c.rc for c in ingest + query):
            break
        walls.append((sum(c.wall for c in ingest), sum(c.wall for c in query),
                      ref))
        records = sum(len(c.text().splitlines()) for c in query)
        rss.append(max(c.rss_mb for c in ingest))
        outputs = digest([c.out_path for c in ingest + query])
        if reference is None:
            try:
                verify(wl, [c.text() for c in ingest], [c.text() for c in query])
            except checks.CheckError as e:
                log(f"check failed: {e}")
                counts.correct = False
            reference = outputs
        elif outputs != reference:
            log("outputs differ between rounds of the same input")
            counts.correct = False
        if time.perf_counter() >= deadline:
            break
    if not walls:
        return {}
    best_ingest, best_query, best_ref = (min(w) for w in zip(*walls))
    ingest_s = best_ingest * REF_S / best_ref
    query_s = best_query * REF_S / best_ref
    log(f"{len(walls)} rounds; best wall times: ingest {best_ingest:.4f} s "
        f"({wl.packets / best_ingest:.4g} packets/s), query {best_query:.4f} s "
        f"({records / best_query:.4g} records/s), reference loop "
        f"{best_ref:.4f} s; in reference seconds: ingest {ingest_s:.4f} s, "
        f"query {query_s:.4f} s")
    log("rounds (ingest, query, reference loop wall s): "
        + json.dumps([[round(x, 5) for x in w] for w in walls]))
    return {
        "setup_s": statistics.median(setups),
        "packets_per_s": wl.packets / ingest_s,
        "peak_rss_mb": max(rss),
        "query_records_per_s": records / query_s,
    }


def host_speed(work):
    """Wall time of the reference loop (perfbench_ref), run as a child like
    the tools."""
    child = Child([str(BUILD / "perfbench_ref")], work / "ref.out")
    if child.rc != 0:
        log("reference loop failed")
        sys.exit(1)
    return child.wall


# ------------------------------------------------------------------- trace

PER_LAYER_UNITS = {
    "trace.read_s": "s", "trace.packets": "count", "trace.skipped": "count",
    "api.push_s": "s", "api.finish_s": "s", "api.fit_s": "s",
    "engine.attach_s": "s", "engine.push_s": "s", "engine.finish_s": "s",
    "net.lpm_s": "s",
    "live.push_s": "s", "live.finish_s": "s", "live.windows": "count",
    "live.alerts": "count", "live.forecast_s": "s",
    "flow.flows_emitted": "count", "flow.flows_discarded": "count",
    "flow.table_probe_avg": "probes", "flow.table_active_max": "flows",
    "core.render_s": "s", "core.render_records": "count",
    "core.render_bytes": "bytes", "io.write_s": "s",
    "store.append_s": "s", "store.appends": "count",
    "store.bytes_per_record": "bytes", "store.load_s": "s", "store.scan_s": "s",
    "ckpt.save_s": "s", "ckpt.write_s": "s", "ckpt.writes": "count",
    "ckpt.bytes": "bytes",
    "ledger.wall_s": "s", "ledger.unattributed_s": "s",
    "ledger.tool_gap_s": "s", "ledger.trace_overhead_s": "s",
    "ledger.coverage": "ratio",
}

TRACE_REPS = 3


def replay(wl, timers, counts):
    cmd = [str(BUILD / "perfbench_replay"), wl.name, str(wl.input),
           str(wl.data / "links.txt"), str(wl.work), str(timers),
           str(CHECKPOINT_EVERY)]
    child = counts.run(cmd, wl.work / f"replay{timers}.json")
    return json.loads(child.text()) if child.rc == 0 else None


def trace(wl, counts):
    """Per-layer metrics from the replayer, with the tools as reference."""
    tool_walls = []
    for _ in range(TRACE_REPS):
        wl.clean()
        ingest = [counts.run(cmd, wl.work / f"ingest{i}.out")
                  for i, cmd in enumerate(wl.ingest(wl.input))]
        tool_walls.append(sum(c.wall for c in ingest))
    query = [counts.run(wl.query(s), wl.work / f"query{i}.out")
             for i, s in enumerate(wl.stores)]
    untimed = [replay(wl, 0, counts) for _ in range(TRACE_REPS)]
    timed = replay(wl, 1, counts)
    if not counts.correct or timed is None or None in untimed:
        return {}
    tool_ingest = "".join(c.text() for c in ingest)
    tool_query = "".join(c.text() for c in query)
    try:
        for name, rendered, tool in (("ingest", "ingest.out", tool_ingest),
                                     ("query", "query.out", tool_query)):
            text = (wl.work / rendered).read_text()
            if wl.name == "pop_live":
                checks.same_per_link(text, tool)
            elif text != tool:
                raise checks.CheckError(f"replayed {name} output differs from the tools'")
    except checks.CheckError as e:
        log(f"check failed: {e}")
        counts.correct = False
    untimed_ingest = statistics.median(u["ingest_wall_s"] for u in untimed)
    m = {k: timed[k] for k in PER_LAYER_UNITS if k in timed}
    m["ledger.unattributed_s"] = timed["ledger.wall_s"] - timed["ledger.self_s"]
    m["ledger.coverage"] = timed["ledger.self_s"] / timed["ledger.wall_s"]
    m["ledger.tool_gap_s"] = statistics.median(tool_walls) - untimed_ingest
    m["ledger.trace_overhead_s"] = timed["ingest_wall_s"] - untimed_ingest
    return m


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    data = inputs(args.workload, args.seed)
    work = CACHE / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(args.workload, data, work)
    counts = Counts()
    if args.trace:
        values = trace(wl, counts)
        units = PER_LAYER_UNITS
    else:
        values = measure(wl, args.seconds, counts)
        units = END_TO_END_UNITS
    missing = [k for k in units if k not in values]
    if missing:
        log(f"metrics missing: {missing}")
        counts.correct = False
    result = {
        "correct": counts.correct,
        "attempted": max(counts.attempted, 1),
        "failed": counts.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items() if k in values},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
