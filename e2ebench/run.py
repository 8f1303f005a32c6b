"""End-to-end benchmark: SystemVerilog -> netlist -> simulation.

Run from the repository root::

    python3 e2ebench/run.py --workload flow --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop with a single client: one
job at a time, the next only after the previous one finished.  A job is
one suite design taken through the workload's path (see ``WORKLOADS``);
the seed picks every job's cycle budget and its position in the job
order.  Every job's simulated output is checked for exact identity with
the reference interpreter ``interp`` (digests in ``reference.json``,
written by ``make_reference.py``), and its testbench must report no
assertion failure.

Jobs come in blocks (see ``blocks``) that hold the same work for every
seed; ``--seconds`` becomes a whole number of blocks.  Job times are
host times scaled by a calibration loop (see ``CALIBRATION_S``).

The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, or with ``--trace 1`` the per-layer metrics of a traced
run.  The traced run records spans from this file around each call into
the program; spans stay in memory and are written to ``e2ebench/out/``
when the run ends.  Per-layer totals are given per block.  The line
before the result gives the host times, the job count and the tail
percentile.  ``predictions.json`` records which end-to-end metric each
layer should move, on which workload.
"""

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
OUT = HERE / "out"   # spans and temporary compile caches; not committed

#: Each block runs every design at a low and a high budget, LOW and
#: HIGH times BENCH_CYCLES times the workload's scale.  The seed shifts
#: the low budget by JITTER cycles and the high one by as many the other
#: way, so a block's cycles per design never change and no input repeats
#: within a run of up to five blocks.  The shifts are small because the
#: median and tail latency are order statistics of a mixture of designs.
LOW, HIGH = 1.25, 1.75
JITTER = (-2, -1, 0, 1, 2)

#: path: which layers a job goes through; scale: multiplies LOW and HIGH;
#: lanes: batch lanes (cycles_per_s counts cycles times lanes); repeat:
#: every input runs twice in a row, the second time as a re-run whose
#: levelized cone comes from the compile cache; block_s: calibrated
#: seconds one block takes, which turns --seconds into a whole number of
#: blocks.  The job count must not depend on the host's speed, because the
#: tail percentile depends on it.  A run has at least MIN_BLOCKS blocks.
WORKLOADS = {
    "flow": {"path": "netlist", "scale": 1, "lanes": 1, "repeat": True,
             "block_s": 6.0},
    "rtl-sim": {"path": "rtl", "scale": 10, "lanes": 1, "repeat": False,
                "block_s": 5.0},
    "gate-sim": {"path": "netlist", "scale": 10, "lanes": 1,
                 "repeat": False, "block_s": 8.5},
    "batch16": {"path": "batch", "scale": 1, "lanes": 16, "repeat": False,
                "block_s": 6.5},
}
MIN_BLOCKS = 2

#: A shared host's speed shifts by up to 1.9x in phases of seconds to
#: minutes (a neighbour on the same physical core), which no run length
#: averages out.  So every job's time is scaled by CALIBRATION_S over the
#: time of a fixed calibration loop run just before and just after it:
#: the loop's time on an idle core of a 2 GHz Xeon VM.  Host seconds are
#: printed on the line before the result.
CALIBRATION_LOOPS = 10_000
CALIBRATION_S = 1.0e-3

#: The untimed warm-up input: a budget no job uses.
WARMUP = ("gray", 8)

#: Child processes that each measure one set-up; setup_s is their median.
SETUP_PROBES = 5

#: Start-up and imports suffer from a busy neighbour differently from the
#: calibration loop, so each set-up probe is scaled instead by a fresh
#: interpreter that imports a fixed set of standard-library packages,
#: timed right after it.  STARTUP_S is that child's time on an idle core
#: of a 2 GHz Xeon VM.
STARTUP_PROBE = ("import argparse, asyncio, csv, dataclasses, decimal, "
                 "email.mime.multipart, http.client, json, logging, sqlite3, "
                 "typing, unittest, xml.dom.minidom")
STARTUP_S = 0.12

#: Passes whose PassRecord time is reported on its own.
PASSES = ("inline", "unroll", "mem2reg", "ecm", "tcm", "tcfe", "cf",
          "instsimplify", "cse", "dce", "muxinsert")

#: Layer spans whose self time is reported as ``<layer>.busy_s`` or
#: ``<layer>_s``.
LAYER_METRICS = {
    "moore": "moore.busy_s", "passes": "passes.busy_s",
    "techmap": "techmap.busy_s",
    "sim.elab.blaze": "sim.elab.blaze_s",
    "sim.elab.levelized": "sim.elab.levelized_s",
    "sim.run.blaze": "sim.run.blaze_s",
    "sim.run.levelized": "sim.run.levelized_s",
    "batch": "batch.busy_s", "batch.demux": "batch.demux_s",
    "gc": "gc.busy_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a child process that only sets up, for setup_s.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def fresh_cache_dir():
    """An empty compile-cache directory inside the checkout."""
    OUT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="cache-", dir=OUT)


def import_program():
    """Import the program; returns the names the benchmark calls."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.common import BENCH_CYCLES, trace_fingerprint
    from repro.designs import ALL_DESIGNS, DESIGNS, compile_design
    from repro.interop import netlist_design
    from repro.passes import lower_to_structural
    from repro.sim import (
        Kernel, SimulationResult, Trace, simulate, simulate_batch)
    from repro.sim.blaze import elaborate_compiled
    from repro.sim.levelize import elaborate_levelized

    return argparse.Namespace(**locals())


def calibrate():
    """Seconds a fixed pure-Python loop takes now (the median of three
    runs).  It allocates nothing the garbage collector tracks, so the
    program's heap cannot slow it."""
    table = dict.fromkeys(range(64), 0)
    times = []
    for _ in range(3):
        acc = 0
        start = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            k = i & 63
            table[k] = table[k] + i
            acc ^= k * 3
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def speed(before, after):
    """Scale from host seconds to calibrated seconds."""
    return 2 * CALIBRATION_S / (before + after)


def wall_time(cmd, **kwargs):
    """Wall seconds of a child process; exits if it fails."""
    start = time.perf_counter()
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120,
                          **kwargs).returncode
    if code != 0:
        raise SystemExit(f"child {' '.join(cmd[1:3])} failed with exit "
                         f"code {code}")
    return time.perf_counter() - start


def measure_setup(args):
    """Median scaled wall time of fresh processes that import and warm
    up (see STARTUP_S)."""
    samples = []
    for _ in range(SETUP_PROBES):
        cache = fresh_cache_dir()
        try:
            wall = wall_time(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--setup-probe"],
                env=dict(os.environ, REPRO_CACHE_DIR=cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        startup = wall_time([sys.executable, "-c", STARTUP_PROBE])
        samples.append(wall * STARTUP_S / startup)
    return statistics.median(samples)


# -- tracing ------------------------------------------------------------------


class NoTracer:
    """Tracing off: spans and counters cost one call and nothing else."""

    on = False

    @contextlib.contextmanager
    def span(self, name):
        yield

    def add(self, key, n):
        pass


class Tracer:
    """Spans ``[name, start, end, parent, job]`` kept in memory.

    Garbage-collector pauses become ``gc`` spans under whatever span was
    open, so they come out of that layer's self time.
    """

    on = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {}

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, None, parent, self.job]   # GC may run here
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def gc_callback(self, phase, info):
        if phase == "start":
            self.begin("gc")
        else:
            self.end()
            self.add("gc.collections", 1)

    def self_times(self):
        """Self seconds per span name inside jobs; check seconds apart."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = list(range(len(spans)))
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent is not None:
                child[parent] += end - start
                root[i] = root[parent]
        busy, check = {}, 0.0
        for i, (name, start, end, _, _) in enumerate(spans):
            top = spans[root[i]][0]
            if top == "job":
                busy[name] = busy.get(name, 0.0) + end - start - child[i]
            elif top == "check" and i == root[i]:
                check += end - start
        return busy, check

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


# -- jobs ---------------------------------------------------------------------


def budgets(p, name, scale, shift):
    """The (low, high) cycle budgets of ``name`` shifted by ``shift``."""
    base = p.BENCH_CYCLES[name] * scale
    return round(base * LOW) + shift, round(base * HIGH) - shift


def blocks(p, workload, seed):
    """Endless seeded job blocks: lists of ``(design, cycles)``.

    A block takes every design through its low and high budget back to
    back, in a seeded order; with ``repeat`` each input runs twice in a
    row.  The designs follow the suite's order from a seeded starting
    point.  Peak memory depends on which large designs run close together,
    before the collector frees the first one's garbage; a rotation keeps
    those neighbours the same for every seed, where a shuffle leaves
    peak memory to chance.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    shifts = {name: rng.sample(JITTER, len(JITTER)) for name in p.ALL_DESIGNS}
    number = 0
    while True:
        first = rng.randrange(len(p.ALL_DESIGNS))
        order = p.ALL_DESIGNS[first:] + p.ALL_DESIGNS[:first]
        block = []
        for name in order:
            shift = shifts[name][number % len(JITTER)]
            pair = list(budgets(p, name, spec["scale"], shift))
            rng.shuffle(pair)
            for cycles in pair:
                block.extend([(name, cycles)] * (2 if spec["repeat"] else 1))
        yield block
        number += 1


def count_insts(module):
    return sum(1 for unit in module for _ in unit.instructions())


def count_cells(module):
    return sum(1 for unit in module if unit.is_entity
               for inst in unit.instructions() if inst.opcode == "inst")


def simulate_scalar(p, module, top, engine, tr):
    elaborate = {"blaze": p.elaborate_compiled,
                 "levelized": p.elaborate_levelized}[engine]
    kernel = p.Kernel(trace=p.Trace())
    with tr.span("sim.elab." + engine):
        design = elaborate(module, top, kernel)
    with tr.span("sim.run." + engine):
        kernel.run()
        kernel.trace.finalize()
    result = p.SimulationResult(design, kernel, kernel.trace)
    if tr.on:
        stats = result.stats
        for key in ("events", "deltas", "activations"):
            tr.add("engine." + key, stats[key])
            tr.add(f"sim.run.{key}", stats[key])
        for key in ("cache_hits", "cache_misses", "cone_gates"):
            if key in stats:
                tr.add("levelized." + key, stats[key])
        tr.add("trace.changes", trace_changes(result.trace))
    return result


def trace_changes(trace):
    return sum(len(history) for history in trace.changes.values())


def run_job(p, spec, name, cycles, tr):
    """Take one design through the workload's path; returns its results
    (one per lane) for checking."""
    top = p.DESIGNS[name].top
    with tr.span("moore"):
        module = p.compile_design(name, cycles=cycles)
    if tr.on:
        tr.add("moore.calls", 1)
        tr.add("moore.insts_out", count_insts(module))
    if spec["path"] == "rtl":
        return [simulate_scalar(p, module, top, "blaze", tr)]
    if spec["path"] == "batch":
        lanes = spec["lanes"]
        with tr.span("batch"):
            batch = p.simulate_batch(module, top, lanes, backend="blaze")
        with tr.span("batch.demux"):
            results = [batch.lane(k) for k in range(lanes)]
        if tr.on:
            tr.add("batch.jobs", 1)
            tr.add("batch.vectorized", batch.mode == "vectorized")
            tr.add("batch.replicated_fallbacks", batch.mode == "replicated")
            for key in ("events", "deltas", "activations"):
                tr.add("engine." + key, batch.stats[key])
            tr.add("trace.changes", trace_changes(batch.trace))
        return results
    with tr.span("passes"):
        report = p.lower_to_structural(module, strict=False)
    if tr.on:
        for record in report.pass_records:
            if not record.umbrella:
                tr.add(f"passes.{record.name}.s", record.seconds)
                tr.add("passes.records_s", record.seconds)
                tr.add("passes.runs", record.runs)
                tr.add("passes.changed", record.changed)
        tr.add("passes.insts_out", count_insts(module))
    with tr.span("techmap"):
        netlist = p.netlist_design(module)
    if tr.on:
        tr.add("techmap.cells", count_cells(netlist))
    return [simulate_scalar(p, netlist, top, "levelized", tr)]


# -- checking -----------------------------------------------------------------


def input_key(p, name, cycles):
    """Hash of everything a job's simulated output depends on."""
    design = p.DESIGNS[name]
    text = f"{name}\0{design.top}\0{design.four_state}\0" \
        + design.source(cycles)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def digest(p, trace, names=None):
    """sha256 of the trace fingerprint, over ``names`` only if given."""
    if names is not None:
        changes = trace.changes
        trace = p.Trace()
        trace.changes = {name: changes[name] for name in names}
    return hashlib.sha256(p.trace_fingerprint(trace).encode()).hexdigest()


def reference_entry(p, name, cycles):
    """Run ``interp`` on the behavioural design: the reference digests."""
    module = p.compile_design(name, cycles=cycles)
    result = p.simulate(module, p.DESIGNS[name].top, backend="interp")
    if result.assertion_failures:
        raise RuntimeError(f"{name}@{cycles}: reference testbench failed: "
                           f"{result.assertion_failures[:2]}")
    live = sorted(result.trace.live_signals())
    return {"design": name, "cycles": cycles,
            "full": digest(p, result.trace),
            "live": digest(p, result.trace, live), "live_signals": live}


class References:
    """Stored reference digests; a missing input is computed on demand."""

    def __init__(self, p):
        self.p = p
        try:
            with open(REFERENCE_FILE) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {"inputs": {}, "live_sets": []}
        self.entries = doc["inputs"]
        self.live_sets = doc["live_sets"]

    def get(self, name, cycles):
        key = input_key(self.p, name, cycles)
        entry = self.entries.get(key)
        if entry is None:
            entry = reference_entry(self.p, name, cycles)
            self.live_sets.append(entry.pop("live_signals"))
            entry["live_set"] = len(self.live_sets) - 1
            self.entries[key] = entry
        return entry


def check(p, refs, spec, name, cycles, results):
    """None when every result matches ``interp``, else why not."""
    ref = refs.get(name, cycles)
    for lane, result in enumerate(results):
        where = f"{name}@{cycles} lane {lane}"
        if result.assertion_failures:
            return f"{where}: testbench failed: {result.assertion_failures[0]}"
        if lane and result.trace.finalize().changes == \
                results[0].trace.changes:
            continue   # the same trace as lane 0, which matched
        if spec["path"] == "netlist":
            live = refs.live_sets[ref["live_set"]]
            missing = set(live) - set(result.trace.changes)
            if missing:
                return f"{where}: netlist dropped {sorted(missing)[:3]}"
            if digest(p, result.trace, live) != ref["live"]:
                return f"{where}: netlist trace differs from interp"
        elif digest(p, result.trace) != ref["full"]:
            return f"{where}: trace differs from interp"
    return None


# -- the run ------------------------------------------------------------------


def warm_up(p, refs, spec):
    name, cycles = WARMUP
    problem = check(p, refs, spec, name, cycles,
                    run_job(p, spec, name, cycles, NoTracer()))
    if problem:
        raise SystemExit(f"warm-up job failed its check: {problem}")


class Measurement:
    """What the timed phase leaves: per job the calibrated and the host
    latency, and totals."""

    def __init__(self, n_blocks):
        self.blocks = n_blocks
        self.latencies, self.host = [], []
        self.cycles_done = self.failed = 0
        self.peak_rss_mb = None


def measure(p, refs, args, tr):
    """The timed phase: as many whole blocks as fit in ``args.seconds``."""
    spec = WORKLOADS[args.workload]
    m = Measurement(max(MIN_BLOCKS, round(args.seconds / spec["block_s"])))
    after = calibrate()
    for block in itertools.islice(
            blocks(p, args.workload, args.seed), m.blocks):
        for name, cycles in block:
            tr.job = len(m.latencies)
            before = after
            start = time.perf_counter()
            try:
                with tr.span("job"):
                    results = run_job(p, spec, name, cycles, tr)
            except Exception as exc:   # a failed job is counted, not fatal
                results = None
                problem = f"{name}@{cycles} raised {exc!r}"
            m.host.append(time.perf_counter() - start)
            after = calibrate()
            m.latencies.append(m.host[-1] * speed(before, after))
            if results is not None:
                with tr.span("check"):
                    problem = check(p, refs, spec, name, cycles, results)
                results = None   # keep nothing of a finished job
            if problem is None:
                m.cycles_done += cycles * spec["lanes"]
            else:
                m.failed += 1
                print(f"job failed: {problem}", file=sys.stderr)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def quantile(values, q):
    """Harrell-Davis estimate of quantile ``q``: a mean of all order
    statistics weighted by a beta density, steadier than any single one
    when the jobs are a mixture of very different designs."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16   # midpoint rule inside each order statistic's interval
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x)
                     + (b - 1) * math.log1p(-x)) for x in xs))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(n):
    """The highest percentile with at least ten of ``n`` jobs beyond it."""
    return 100.0 * (n - 10) / n


def end_to_end(m, setup_s):
    attempted = len(m.latencies)
    tail_q = tail_percentile(attempted) / 100
    return {
        "cycles_per_s": (m.cycles_done / sum(m.latencies), "cycles/s"),
        "job_p50_ms": (quantile(m.latencies, 0.5) * 1e3, "ms"),
        "job_tail_ms": (quantile(m.latencies, tail_q) * 1e3, "ms"),
        "job_ok_rate": ((attempted - m.failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tr, m):
    busy, check_s = tr.self_times()
    counts = tr.counts
    metrics = {}

    def put(key, value, unit):
        metrics[key] = (value / m.blocks, unit)

    for span, key in LAYER_METRICS.items():
        put(key, busy.get(span, 0.0), "s")
    for name in PASSES:
        put(f"passes.{name}.s", counts.get(f"passes.{name}.s", 0.0), "s")
    put("passes.pl_deseq_s",
        busy.get("passes", 0.0) - counts.get("passes.records_s", 0.0), "s")
    for key in ("moore.calls", "moore.insts_out", "passes.runs",
                "passes.insts_out", "techmap.cells", "levelized.cache_hits",
                "levelized.cache_misses", "levelized.cone_gates",
                "engine.events", "engine.deltas", "engine.activations",
                "batch.replicated_fallbacks", "trace.changes",
                "gc.collections"):
        put(key, counts.get(key, 0), "count")
    put("check.busy_s", check_s, "s")
    runs = counts.get("passes.runs", 0)
    metrics["passes.changed_ratio"] = (
        counts.get("passes.changed", 0) / runs if runs else 0.0, "ratio")
    jobs = counts.get("batch.jobs", 0)
    metrics["batch.vectorized_ratio"] = (
        counts.get("batch.vectorized", 0) / jobs if jobs else 0.0, "ratio")
    run_s = busy.get("sim.run.blaze", 0.0) + busy.get("sim.run.levelized", 0.0)
    events = counts.get("sim.run.events", 0)
    metrics["sim.run.us_per_event"] = (
        run_s / events * 1e6 if events else 0.0, "us")
    metrics["peak_rss_mb"] = (m.peak_rss_mb, "MB")
    metrics["trace.cycles_per_s"] = (
        m.cycles_done / sum(m.latencies), "cycles/s")
    metrics["trace.coverage"] = (
        1 - busy.get("job", 0.0) / sum(m.host), "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.setup_probe:
        p = import_program()
        warm_up(p, References(p), spec)
        return 0
    # One CPU for the whole run, so the calibration loop and the work it
    # scales always share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = measure_setup(args)
    os.environ["REPRO_CACHE_DIR"] = cache = fresh_cache_dir()
    try:
        p = import_program()
        refs = References(p)
        warm_up(p, refs, spec)
        tr = Tracer() if args.trace else NoTracer()
        if tr.on:
            gc.callbacks.append(tr.gc_callback)
        try:
            m = measure(p, refs, args, tr)
        finally:
            if tr.on:
                gc.callbacks.remove(tr.gc_callback)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if tr.on:
        metrics = per_layer(tr, m)
        tr.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(m, setup_s)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "blocks": m.blocks,
        "jobs": len(m.latencies),
        "job_tail_percentile": tail_percentile(len(m.latencies)),
        "timed_s": sum(m.latencies), "host_timed_s": sum(m.host),
        "host_cycles_per_s": m.cycles_done / sum(m.host),
        "peak_rss_mb": m.peak_rss_mb}))
    print(json.dumps({
        "correct": m.failed == 0, "attempted": len(m.latencies),
        "failed": m.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
