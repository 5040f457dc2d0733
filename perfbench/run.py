#!/usr/bin/env python3
"""The repository benchmark: host cost of the BFC simulator on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload bfc_quick --seed 1 --seconds 36 --trace 0

It builds perfbench/bench.exe from source (dune, release profile, build
directory .bench_build), then runs repetitions of the workload, each in a
fresh process, until --seconds have been spent. A benchmark seed stands
for a batch of BATCH simulation seeds. With --trace 0 it reports the
end-to-end metrics from untraced repetitions cycling over the batch, each
bracketed by timings of the host-speed reference hostref.exe. With
--trace 1 it reports the per-layer metrics from the batch's first
simulation seed: untraced and traced repetitions, the scheduler-only
event mix, and the held-out seed (the first of benchmark seed --seed + 1).
Every metric is printed by name with its unit; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.

Every repetition's simulated result is reduced to a digest. All
repetitions of one invocation, traced or not, must agree, and must equal
the digest recorded in perfbench/digests.json for that workload and
simulation seed when one is recorded. A repetition that fails a check
counts all its flows as failed. `--record-digests N` rewrites the recorded
digests for benchmark seeds 1..N (do this only when the simulated
behaviour is meant to change).

See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
HOSTREF = os.path.join(BUILD_DIR, "default", "perfbench", "hostref.exe")
DIGESTS = os.path.join(HERE, "digests.json")

STD_WORKLOADS = ("bfc_quick", "dcqcn_quick")
WORKLOADS = STD_WORKLOADS + ("flow_churn",)
# simulation seeds per benchmark seed: host time and peak heap vary with the
# traffic's arrangement, so each run averages over a batch
BATCH = 3
# scheduler event-mix depth for flow_churn, whose engine profile is not exposed
CHURN_SCHED_DEPTH = 4096
REP_TIMEOUT_S = 150
# hostref.exe's typical time on the measuring VM: end-to-end host times are
# scaled to a host this fast (see scaled())
HOSTREF_NOMINAL_S = 0.45

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_heap_mb": "MB",
    "flows_completed_frac": "frac",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "engine.typed_events": "count",
    "engine.closure_events": "count",
    "engine.cancels": "count",
    "engine.queue_hwm": "count",
    "engine.sched_ns_per_event": "ns",
    "engine.sched_words_per_event": "words",
    "port.tx_packets": "count",
    "port.tx_bytes": "bytes",
    "switch.rx_packets": "count",
    "switch.drops": "count",
    "switch.pfc_pause_frac": "frac",
    "switch.buffer_p99_bytes": "bytes",
    "switch.admit_ns": "ns",
    "switch.admit_share": "share",
    "dataplane.calls": "count",
    "dataplane.classify_ns": "ns",
    "dataplane.enqueue_ns": "ns",
    "dataplane.dequeue_ns": "ns",
    "dataplane.ctrl_ns": "ns",
    "dataplane.self_share": "share",
    "dataplane.words_per_call": "words",
    "dataplane.pauses_sent": "count",
    "dataplane.resumes_sent": "count",
    "dataplane.packets_counted": "count",
    "dataplane.queue_collisions": "count",
    "transport.flows_completed": "count",
    "transport.bytes_sent": "bytes",
    "transport.bytes_retransmitted": "bytes",
    "transport.nic_pause_transitions": "count",
    "pool.packets_allocated": "count",
    "pool.recycle_ratio": "frac",
    "gc.minor_words_per_event": "words",
    "gc.promoted_words_per_event": "words",
    "gc.major_collections": "count",
    "gc.unattributed_words_per_event": "words",
    "metrics.sketch_buckets": "count",
    "trace.span_cost_ns": "ns",
    "trace.overhead_pct": "%",
    "residual.self_share": "share",
    "heldout.dataplane.self_share": "share",
    "heldout.switch.admit_share": "share",
    "heldout.residual.self_share": "share",
}

HOOKS = ("classify", "enqueue", "dequeue", "ctrl", "admit")
DATAPLANE_HOOKS = ("classify", "enqueue", "dequeue", "ctrl")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe", "./perfbench/hostref.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 1)
    if r.returncode != 0:
        fail("build failed", 1)


def bench(*args, exe=EXE):
    """One fresh bench.exe process; its JSON object, or None if it failed."""
    try:
        r = subprocess.run([exe] + [str(a) for a in args], capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % " ".join(map(str, args)), file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: %s failed:\n%s" % (" ".join(map(str, args)), r.stderr), file=sys.stderr)
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def batch(workload, n):
    """The (simulation seed, expected offered bytes) pairs benchmark seed n
    runs: BATCH of them, disjoint between benchmark seeds. For the run_std
    workloads bench.exe resolves each to a seed of the reference volume."""
    indices = [BATCH * (n - 1) + 1 + i for i in range(BATCH)]
    if workload not in STD_WORKLOADS:
        return [(i, None) for i in indices]
    subs = []
    for i in indices:
        r = bench("seed", i)
        if r is None:
            fail("cannot resolve seed %d" % i, 1)
        subs.append((r["sim_seed"], r["offered_bytes"]))
    return subs


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


class Checker:
    """Output check over every repetition of one invocation."""

    def __init__(self, workload):
        self.recorded = load_digests().get(workload, {})
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, rep, sim, expected_bytes, traced):
        if rep is None:
            # a crashed repetition attempted at least one flow and completed none
            self.attempted += 1
            self.failed += 1
            self.problems.append("simulation seed %d: repetition failed" % sim)
            return
        bad = []
        d = rep["digest"]
        if self.seen.setdefault(sim, d) != d:
            bad.append("digest differs between repetitions")
        want = self.recorded.get(str(sim))
        if want is not None and want != d:
            bad.append("digest %s is not the recorded %s" % (d, want))
        if rep["completed"] != rep["injected"]:
            bad.append("%d of %d flows completed" % (rep["completed"], rep["injected"]))
        if expected_bytes is not None and rep["offered_bytes"] != expected_bytes:
            bad.append("offered %d bytes, seed scan expected %d"
                       % (rep["offered_bytes"], expected_bytes))
        if traced:
            if rep["tap.completions"] != rep["completed"]:
                bad.append("completion observer saw %d flows" % rep["tap.completions"])
            if rep["tap.tx"] != rep["port.tx_packets"]:
                bad.append("tx tap saw %d packets, ports counted %d"
                           % (rep["tap.tx"], rep["port.tx_packets"]))
        self.attempted += rep["injected"]
        if bad:
            self.failed += rep["injected"]
            self.problems.append("simulation seed %d%s: %s" % (sim, " traced" if traced else "",
                                                    "; ".join(bad)))
        else:
            self.failed += rep["injected"] - rep["completed"]


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def scaled(reps, key):
    """Median over repetitions of a host time scaled to the nominal host
    speed: each repetition's time times HOSTREF_NOMINAL_S over the mean of
    the host-speed reference timed just before and just after it. A shared
    host's speed drifts by 20-35% over minutes; the pairing removes more
    than half of the resulting run-to-run spread."""
    return statistics.median(r[key] * HOSTREF_NOMINAL_S / r["ref_s"] for r in reps)


def corrected_ns(rep, hook):
    """Host ns inside a hook's spans, less the calibrated per-span bias."""
    return rep[hook + ".ns"] - rep[hook + ".calls"] * rep["span_bias_ns"]


def per_call_ns(traced, hook):
    vals = [corrected_ns(t, hook) / t[hook + ".calls"] for t in traced if t[hook + ".calls"] > 0]
    return statistics.median(vals) if vals else 0.0


def shares(untraced, traced):
    """(dataplane, admit, residual) shares of untraced run time."""
    run_ns = median_of(untraced, "run_s") * 1e9
    dp = statistics.median(sum(corrected_ns(t, h) for h in DATAPLANE_HOOKS) for t in traced)
    admit = statistics.median(corrected_ns(t, "admit") for t in traced)
    return dp / run_ns, admit / run_ns, 1.0 - (dp + admit) / run_ns


def std_layers(untraced, traced, held_u, held_t, sched):
    u, t = untraced[0], traced[0]
    events = u["engine.events"]
    run_s = median_of(untraced, "run_s")
    traced_s = median_of(traced, "run_s")
    dp_share, admit_share, residual = shares(untraced, traced)
    h_dp, h_admit, h_residual = shares(held_u, held_t)
    dp_calls = sum(t[h + ".calls"] for h in DATAPLANE_HOOKS)
    all_calls = sum(t[h + ".calls"] for h in HOOKS)
    span_cost = median_of(traced, "span_cost_ns")
    m = {k: u[k] for k in (
        "engine.events", "engine.typed_events", "engine.closure_events", "engine.cancels",
        "engine.queue_hwm", "port.tx_packets", "port.tx_bytes", "switch.rx_packets",
        "switch.drops", "switch.pfc_pause_frac", "switch.buffer_p99_bytes",
        "dataplane.pauses_sent", "dataplane.resumes_sent", "dataplane.packets_counted",
        "dataplane.queue_collisions", "transport.flows_completed", "transport.bytes_sent",
        "transport.bytes_retransmitted", "pool.packets_allocated")}
    m.update({
        "engine.events_per_s": events / run_s,
        "engine.sched_ns_per_event": sched["sched_ns_per_event"],
        "engine.sched_words_per_event": sched["sched_words_per_event"],
        "switch.admit_ns": per_call_ns(traced, "admit"),
        "switch.admit_share": admit_share,
        "dataplane.calls": dp_calls,
        "dataplane.classify_ns": per_call_ns(traced, "classify"),
        "dataplane.enqueue_ns": per_call_ns(traced, "enqueue"),
        "dataplane.dequeue_ns": per_call_ns(traced, "dequeue"),
        "dataplane.ctrl_ns": per_call_ns(traced, "ctrl"),
        "dataplane.self_share": dp_share,
        "dataplane.words_per_call": sum(t[h + ".words"] for h in DATAPLANE_HOOKS) / max(1, dp_calls),
        "transport.nic_pause_transitions": t["tap.nic_pauses"],
        "pool.recycle_ratio": u["pool.packets_recycled"]
        / max(1, u["pool.packets_allocated"] + u["pool.packets_recycled"]),
        "gc.minor_words_per_event": u["run_minor_words"] / events,
        "gc.promoted_words_per_event": u["promoted_words"] / events,
        "gc.major_collections": u["major_collections"],
        "gc.unattributed_words_per_event":
            (t["run_minor_words"] - sum(t[h + ".words"] for h in HOOKS)) / events,
        # run_std workloads keep exact per-flow samples, no sketches
        "metrics.sketch_buckets": 0,
        "trace.span_cost_ns": span_cost,
        "trace.overhead_pct": 100.0 * (traced_s / run_s - 1.0),
        "residual.self_share": residual,
        "heldout.dataplane.self_share": h_dp,
        "heldout.switch.admit_share": h_admit,
        "heldout.residual.self_share": h_residual,
    })
    # how well the calibrated span cost explains the traced run's slowdown
    print("traced run time not explained by span cost: %+.2f%% of the untraced run"
          % (100.0 * (traced_s - all_calls * span_cost / 1e9 - run_s) / run_s))
    return m


def churn_layers(untraced, sched, calib):
    """flow_churn: run_stream exposes no environment, so the rows that need
    one (ports, switches, dataplane, pool, spans) read 0, and all run time
    is residual."""
    u = untraced[0]
    events = u["engine.events"]
    m = {k: 0 for k in PER_LAYER}
    m.update({
        "engine.events": events,
        "engine.events_per_s": events / median_of(untraced, "run_s"),
        "engine.sched_ns_per_event": sched["sched_ns_per_event"],
        "engine.sched_words_per_event": sched["sched_words_per_event"],
        "transport.flows_completed": u["transport.flows_completed"],
        "gc.minor_words_per_event": u["run_minor_words"] / events,
        "gc.promoted_words_per_event": u["promoted_words"] / events,
        "gc.major_collections": u["major_collections"],
        "gc.unattributed_words_per_event": u["run_minor_words"] / events,
        "metrics.sketch_buckets": u["metrics.sketch_buckets"],
        "trace.span_cost_ns": calib["span_cost_ns"],
        "residual.self_share": 1.0,
        "heldout.residual.self_share": 1.0,
    })
    return m


def measure(workload, seed, seconds, trace):
    checker = Checker(workload)
    subs = batch(workload, seed)
    start = time.monotonic()
    runs = {}  # (simulation seed, traced) -> list of repetitions
    refs = []  # host-speed reference timings, in time order (untraced runs)

    def host_ref():
        ref = bench(exe=HOSTREF)
        if ref is None:
            fail("host-speed reference failed", 1)
        refs.append(ref["ref_s"])

    def rep(sub, traced):
        sim, expected_bytes = sub
        if not trace:
            host_ref()
        r = bench("trace" if traced else "run", workload, sim)
        checker.check(r, sim, expected_bytes, traced)
        if r is not None:
            r["ref_at"] = len(refs) - 1
            runs.setdefault((sim, traced), []).append(r)

    def measured(sub, traced=False):
        if not runs.get((sub[0], traced)):
            fail("no successful repetition of %s simulation seed %d" % (workload, sub[0]), 1)
        return runs[(sub[0], traced)]

    std = workload in STD_WORKLOADS
    if trace:
        # every distinct measurement once, on the batch's first simulation
        # seed and on the held-out seed's (benchmark seed + 1)
        held = batch(workload, seed + 1)[0]
        for sub in (subs[0], held):
            rep(sub, False)
            if std:
                rep(sub, True)
        calib = None if std else bench("calib")
        sched = bench("sched", measured(subs[0])[0].get("engine.queue_hwm", CHURN_SCHED_DEPTH))
        if sched is None or (not std and calib is None):
            fail("scheduler event mix or calibration failed", 1)
        cycle = [(subs[0], False)] + ([(subs[0], True)] if std else [])
    else:
        cycle = [(sub, False) for sub in subs]
    # repeat whole cycles until the time is spent, never starting one that
    # would overrun it
    last = 0.0
    while not runs or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        for sub, traced in cycle:
            rep(sub, traced)
        last = time.monotonic() - t0
    if not trace:
        # bracket every repetition: the reading after it is the next one's
        host_ref()
        for rs in runs.values():
            for r in rs:
                r["ref_s"] = (refs[r["ref_at"]] + refs[r["ref_at"] + 1]) / 2

    print("workload %s  seed %d  trace %d" % (workload, seed, trace))
    for sub in subs:
        reps = runs.get((sub[0], False), [])
        if reps:
            times = sorted(r["run_s"] for r in reps)
            print("simulation seed %-6d digest %s  %d untraced repetition(s), run_s min %.4f"
                  "  median %.4f  max %.4f" % (sub[0], reps[0]["digest"], len(reps), times[0],
                                               statistics.median(times), times[-1]))
    for p in checker.problems:
        print("CHECK FAILED: " + p)
    if not trace:
        # host times: the scaled median over every repetition (whole
        # cycles, so each simulation seed counts equally); peak heap, which
        # repeats exactly per simulation seed: the mean over the batch
        pooled = [r for sub in subs for r in measured(sub)]
        print("unscaled median run_s %.4f, median host reference %.4f s (nominal %.2f)"
              % (median_of(pooled, "run_s"), median_of(pooled, "ref_s"), HOSTREF_NOMINAL_S))
        metrics = {
            "run_s": scaled(pooled, "run_s"),
            "setup_s": scaled(pooled, "setup_s"),
            "peak_heap_mb": statistics.mean(median_of(measured(sub), "peak_heap_mb")
                                            for sub in subs),
            "flows_completed_frac": 1.0 - checker.failed / max(1, checker.attempted),
        }
        units = END_TO_END
    elif std:
        metrics = std_layers(measured(subs[0]), measured(subs[0], True), measured(held),
                             measured(held, True), sched)
        units = PER_LAYER
    else:
        metrics = churn_layers(measured(subs[0]), sched, calib)
        units = PER_LAYER

    for name, unit in units.items():
        print("  %-36s %18.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


def record_digests(upto):
    digests = {}
    for w in WORKLOADS:
        digests[w] = {}
        for n in range(1, upto + 1):
            for sim, _ in batch(w, n):
                r = bench("run", w, sim)
                if r is None or r["completed"] != r["injected"]:
                    fail("cannot record %s simulation seed %d" % (w, sim), 1)
                digests[w][str(sim)] = r["digest"]
                print(w, n, sim, r["digest"], file=sys.stderr)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", type=int, metavar="N")
    args = ap.parse_args()
    build()
    if args.record_digests:
        record_digests(args.record_digests)
    elif args.workload:
        measure(args.workload, args.seed, args.seconds, args.trace)
    else:
        fail("--workload is required")


if __name__ == "__main__":
    main()
