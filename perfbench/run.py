#!/usr/bin/env python3
"""Repository benchmark for the UniGen sampler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/bench.exe with
dune, runs one workload (offline_sample, warm_draws or daemon_mix),
checks every witness, and prints the metrics; the last line of standard
output is one JSON object. With --trace 0 it holds the end-to-end
metrics, with --trace 1 the per-layer ledger. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
STATE = ".perfbench"

# requested tail percentile per workload (see ledger.supported_percentile)
TAIL = {"offline_sample": 0.90, "warm_draws": 0.99, "daemon_mix": 0.95}

END_TO_END = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("witnesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cnf.parse_ms", "ms"),
    ("service.fingerprint_ms", "ms"),
    ("service.outside_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p95", "ms"),
    ("service.ram_hits", "count"),
    ("service.disk_hits", "count"),
    ("service.misses", "count"),
    ("service.ram_hit_ratio", "ratio"),
    ("executor.busy_share", "ratio"),
    ("pool.busy_share", "ratio"),
    ("store.load_ms_p50", "ms"),
    ("store.hit", "count"),
    ("store.spill", "count"),
    ("store.bytes", "bytes"),
    ("approxmc.self_s", "s"),
    ("approxmc.hash_draws", "count"),
    ("approxmc.core_iterations", "count"),
    ("approxmc.failed_iterations", "count"),
    ("unigen.prepare_s", "s"),
    ("unigen.batch_s", "s"),
    ("unigen.draw_self_s", "s"),
    ("unigen.avg_xor_len", "vars"),
    ("unigen.minor_kwords_per_draw", "kwords"),
    ("unigen.success_ratio", "ratio"),
    ("bsat.enumerate_self_s", "s"),
    ("bsat.enumerations", "count"),
    ("bsat.models_per_enumeration", "count"),
    ("solver.solve_self_s", "s"),
    ("solver.solve_calls", "count"),
    ("solver.conflicts", "count"),
    ("solver.propagations", "count"),
    ("solver.xor_propagations", "count"),
    ("xor_layer.self_s", "s"),
    ("sat.reuse_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("unattributed_share", "ratio"),
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_ledger")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    if not result.wasSuccessful():
        die("self-tests of the benchmark arithmetic failed")


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        die("run from the root of a source checkout (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def run_bench(args, work, timeout):
    """Run the workload driver in its own process group, so that it and
    every daemon it forks are stopped on any exit path."""
    cmd = [EXE, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        die("workload driver exited with code %d" % code)
    with open(os.path.join(work, "raw.json")) as f:
        return json.load(f)


def check_digest(workload, seed, digest):
    """Two runs with one seed must draw the same witness stream."""
    path = os.path.join(STATE, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = "%s %d" % (workload, seed)
    if key in known:
        return known[key] == digest
    known[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def failures(raw):
    if raw["workload"] == "daemon_mix":
        return ledger.failed_replies(raw["replies_untraced"])
    return raw["failed"]


def end_to_end(raw, normalise=True):
    """The end-to-end metrics, every time scaled to the nominal host
    speed by the probes around it (or as measured, for the human lines)."""
    probes = raw["probes"] if normalise else []
    starts, durations = raw["ops_t"], raw["ops_ms"]

    def scaled(duration, a, b):
        return ledger.at_nominal(duration, ledger.local_probe_ms(probes, a, b)) if probes else duration

    ops = [scaled(d, t, t + d / 1000.0) for t, d in zip(starts, durations)]
    setups = [scaled(b - a, a, b) for a, b in raw["setups"]]
    # the timed wall scales by its operations' own factors, weighted by
    # their durations
    wall = raw["wall_s"] * sum(ops) / sum(durations)
    p50 = ledger.class_median(ops, raw["ops_class"])
    tail, p = ledger.tail(ops, TAIL[raw["workload"]])
    return {
        "setup_s": ledger.median(setups),
        "latency_ms_p50": p50,
        # with too few samples for any tail, the rule falls back to the
        # median, reported the same way as latency_ms_p50
        "latency_ms_tail": tail if p > 0.5 else p50,
        "witnesses_per_s": raw["witnesses"] / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
    }, p


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw):
    wl = raw["workload"]
    path = raw["traces"][0]
    window = None
    intervals = []
    idle = ()
    formulas = ledger.span_intervals(ledger.read_trace(path), "bench.formula")
    if wl == "daemon_mix":
        offset = ledger.clock_offset_us(ledger.read_trace(path))
        lo, hi = raw["window_us"]
        window = (lo - offset, hi - offset)
        intervals = [window]
        idle = ("executor.worker",)
    elif wl == "offline_sample":
        intervals = [(a, b) for a, b, _ in ledger.span_intervals(ledger.read_trace(path), "pool.batch")]
        idle = ("pool.batch", "pool.worker")
    L = ledger.Ledger(ledger.read_trace(path), window=window, roots=("bench.run", "bench.daemon"),
                      idle=idle, busy_intervals=intervals)
    m = {name: 0.0 for name, _ in PER_LAYER}
    # counters: the traced pass's own metrics, or the traced daemon's
    # status delta over its timed phase
    if wl == "daemon_mix":
        before, after = raw["status_before"], raw["status"]
        counter = lambda k: after.get(k, 0.0) - before.get(k, 0.0)  # noqa: E731
    else:
        counter = lambda k: float(raw["metrics"].get(k, 0))  # noqa: E731
    m["approxmc.self_s"] = L.self_s("approxmc.count", "approxmc.core", "approxmc.hash_size")
    m["approxmc.hash_draws"] = counter("approxmc.hash_draws")
    m["approxmc.core_iterations"] = L.count["approxmc.core"]
    m["approxmc.failed_iterations"] = ledger.failed_cores(L, formulas)
    m["unigen.draw_self_s"] = L.self_s("unigen.draw")
    m["bsat.enumerate_self_s"] = L.self_s("bsat.session.enumerate", "bsat.enumerate")
    m["bsat.enumerations"] = counter("bsat.enumerations")
    m["bsat.models_per_enumeration"] = ratio(counter("bsat.blocking_clauses"), counter("bsat.enumerations"))
    m["solver.solve_self_s"] = L.self_s("solver.solve")
    m["solver.solve_calls"] = L.count["solver.solve"]
    m["xor_layer.self_s"] = L.self_s("xor_layer.push", "xor_layer.pop", "gauss.matrix_rebuild")
    m["obs.trace_overhead_ratio"] = ratio(raw["traced_wall_s"], raw["untraced_wall_s"])
    m["unattributed_share"] = L.unattributed_share()
    stats = raw.get("run_stats")
    if stats:
        draw_bsat = L.nested[("unigen.draw", "bsat.session.enumerate")] + L.nested[("unigen.draw", "bsat.enumerate")]
        m["unigen.avg_xor_len"] = ratio(stats["xor_vars"], stats["xor_rows"])
        m["unigen.success_ratio"] = ratio(stats["samples_produced"], stats["samples_requested"])
        m["solver.conflicts"] = stats["conflicts"]
        m["solver.propagations"] = stats["propagations"]
        m["solver.xor_propagations"] = stats["xor_propagations"]
        m["sat.reuse_ratio"] = ratio(stats["reuse_hits"], draw_bsat)
    if wl == "offline_sample":
        m["cnf.parse_ms"] = ledger.median(raw["parse_ms"])
        m["unigen.prepare_s"] = ledger.median(raw["prepare_s"])
        m["unigen.batch_s"] = ledger.median(raw["batch_s"])
        batch_us = sum(b - a for a, b in intervals)
        m["pool.busy_share"] = ratio(L.busy_us, raw["pool_jobs"] * batch_us)
    elif wl == "warm_draws":
        m["unigen.minor_kwords_per_draw"] = raw["minor_words"] / raw["draws"] / 1000.0
    elif wl == "daemon_mix":
        replies = raw["replies"]
        logged = {}
        with open(raw["log"]) as f:
            for line in f:
                e = json.loads(line)
                if e.get("event") == "service.request":
                    logged[e.get("trace_id")] = e
        outside = []
        for r in replies:
            e = logged.get(r["trace_id"])
            if e is not None and r["status"] == "ok":
                outside.append(r["rtt_ms"] - e["queue_ms"] - e.get("prepare_ms", 0.0) - e.get("draw_ms", 0.0))
        queue = [r["queue_ms"] for r in replies if r["status"] == "ok"]
        caches = [r.get("cache") for r in replies]
        m["cnf.parse_ms"] = ledger.median(raw["parse_ms"])
        m["service.fingerprint_ms"] = ledger.median(raw["fingerprint_ms"])
        m["service.outside_ms_p50"] = ledger.median(outside)
        m["service.queue_wait_ms_p50"] = ledger.median(queue)
        m["service.queue_wait_ms_p95"] = ledger.tail(queue, 0.95)[0]
        m["service.ram_hits"] = caches.count("hit")
        m["service.disk_hits"] = caches.count("disk")
        m["service.misses"] = caches.count("miss")
        m["service.ram_hit_ratio"] = ratio(caches.count("hit"), len(caches))
        m["executor.busy_share"] = ratio(L.busy_us, raw["executor_workers"] * (window[1] - window[0]))
        m["store.load_ms_p50"] = ledger.median(L.instances["store.load"]) / 1000.0
        lifetime = raw["status_untraced"]
        m["store.hit"] = lifetime.get("store.hit", 0.0)
        m["store.spill"] = lifetime.get("store.spill", 0.0)
        m["store.bytes"] = lifetime.get("store.bytes", 0.0)
    return m, L


def describe(raw, seed):
    shapes = "; ".join("%s |X|=%d |S|=%d" % (s["shape"], s["vars"], s["sampling"]) for s in raw["shapes"])
    return "%s seed=%d (nproc %d, OCaml %s): %d operations in %.2f s, %d witnesses; formulas: %s" % (
        raw["workload"], seed, os.cpu_count(), raw["ocaml"], len(raw["ops_ms"]), raw["wall_s"],
        raw["witnesses"], shapes)


def report_end_to_end(raw, metrics, p, failed):
    """Human lines: each metric at nominal host speed and as measured."""
    wl = raw["workload"]
    measured, _ = end_to_end(raw, normalise=False)
    rows = [("setup_s", "setup_s", 1.0, "s")]
    if wl == "offline_sample":
        rows.append(("sample_s_p50", "latency_ms_p50", 0.001, "s"))
    elif wl == "warm_draws":
        rows += [("draw_ms_p50", "latency_ms_p50", 1.0, "ms"),
                 ("draw_ms_p99", "latency_ms_tail", 1.0, "ms (reported at p%g)" % (100 * p))]
    else:
        rows += [("request_ms_p50", "latency_ms_p50", 1.0, "ms"),
                 ("request_ms_p95", "latency_ms_tail", 1.0, "ms (reported at p%g)" % (100 * p))]
    rows += [("witnesses_per_s", "witnesses_per_s", 1.0, "1/s"),
             ("peak_rss_mb", "peak_rss_mb", 1.0, "MB")]
    probe = ledger.median([ms for _, ms in raw["probes"]])
    print("  %-22s %12s %12s   (probe median %.3f ms, nominal %.3f ms)"
          % ("", "at nominal", "measured", probe, ledger.NOMINAL_PROBE_MS))
    for name, key, scale, unit in rows:
        print("  %-22s %12.4f %12.4f %s" % (name, metrics[key] * scale, measured[key] * scale, unit))
    print("  %-22s %12.4f %12s ratio" % ("failed_ratio", ledger.failed_ratio(failed, raw["attempted"]), ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(TAIL))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.time()
    self_test()
    build()
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        raw = run_bench(args, work, timeout=max(60.0, 170.0 - (time.time() - started)))
        failed = failures(raw)
        digest_ok = check_digest(args.workload, args.seed, raw["digest"])
        problems = []
        if raw["invalid"]:
            problems.append("%d witnesses do not satisfy their formula" % raw["invalid"])
        if raw.get("mismatches"):
            problems.append("%d daemon responses differ from offline sample_batch" % raw["mismatches"])
        if raw["workload"] == "daemon_mix" and not raw.get("compared"):
            problems.append("no daemon response was compared offline")
        if not digest_ok:
            problems.append("witness digest changed for this seed")
        print(describe(raw, args.seed))
        print("  witness digest %s%s" % (raw["digest"],
              "" if raw["workload"] != "daemon_mix" else
              ", %d responses bit-identical offline" % (raw["compared"] - raw["mismatches"])))
        if args.trace:
            metrics, L = per_layer(raw)
            for name, unit in PER_LAYER:
                print("  %-30s %14.4f %s" % (name, metrics[name], unit))
            print("  ledger: %.3f lane-s = span self time %.3f s + unattributed %.3f s"
                  % (L.lane_us / 1e6, sum(L.self_us.values()) / 1e6, L.unattributed_us / 1e6))
            units = dict(PER_LAYER)
        else:
            metrics, p = end_to_end(raw)
            report_end_to_end(raw, metrics, p, failed)
            units = dict(END_TO_END)
        for problem in problems:
            print("perfbench: " + problem, file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": raw["attempted"],
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        sys.exit(1 if problems else 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
