"""Arithmetic of the benchmark: percentiles, failure accounting and the
per-layer time ledger rebuilt from a Chrome trace.

Everything here is pure and covered by perfbench/test_ledger.py.
"""

import json
import math
from collections import defaultdict

# A tail percentile is only reported where at least this many samples
# lie beyond it.
TAIL_SAMPLES = 10


def quantile(values, q):
    """Linear interpolation between order statistics (q in [0, 1])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n, q):
    """The highest percentile not above q with TAIL_SAMPLES samples beyond
    it among n samples; never below the median."""
    if n <= 0:
        return 0.5
    return max(0.5, min(q, 1.0 - TAIL_SAMPLES / n))


def tail(values, q):
    """(value, percentile actually reported) for a requested tail q."""
    p = supported_percentile(len(values), q)
    return quantile(values, p), p


def median(values):
    return quantile(values, 0.5)


def class_median(values, classes):
    """Median of each class (formula) of operations, averaged with the
    classes' operation counts as weights. Formulas of different sizes
    give a latency distribution with one mode each, and a pooled median
    falls in the sparse gap between modes, where it jumps with every
    small shift in the mix; per-class medians do not."""
    groups = defaultdict(list)
    for v, c in zip(values, classes):
        groups[c].append(v)
    if not groups:
        return 0.0
    return sum(median(g) * len(g) for g in groups.values()) / len(values)


# Host speed probe (bench.ml `probe`): its time in ms on the reference
# host when that host is quiet. Reported times are scaled to this speed.
NOMINAL_PROBE_MS = 1.5
# probes within this many seconds of an interval describe its speed
PROBE_PAD_S = 1.0
# ... and at least this many of the nearest are used
PROBE_LEAST = 8


def interquartile_mean(values):
    """Mean of the middle half: robust to a preempted probe, and unlike
    the median it sits at the average of a two-core mix of speeds."""
    xs = sorted(values)
    k = len(xs) // 4
    mid = xs[k:len(xs) - k]
    return sum(mid) / len(mid) if mid else 0.0


def local_probe_ms(probes, a, b):
    """Typical time of the probes (start s, ms) run within PROBE_PAD_S of
    the interval [a, b], or of the PROBE_LEAST nearest to it."""
    near = [ms for t, ms in probes if a - PROBE_PAD_S <= t <= b + PROBE_PAD_S]
    if len(near) < PROBE_LEAST:
        gap = lambda t: max(a - t, t - b, 0.0)  # noqa: E731
        near = [ms for t, ms in sorted(probes, key=lambda p: gap(p[0]))[:PROBE_LEAST]]
    return interquartile_mean(near)


def at_nominal(duration, probe_ms):
    """A duration measured while the probe took probe_ms, scaled to the
    nominal host speed."""
    return duration * NOMINAL_PROBE_MS / probe_ms if probe_ms > 0 else duration


def failed_replies(replies):
    """Daemon failures: every response other than ok, and every ok
    response that produced fewer witnesses than requested."""
    failed = 0
    for r in replies:
        if r["status"] != "ok" or r.get("produced", 0) < r.get("requested", 0):
            failed += 1
    return failed


def failed_ratio(failed, attempted):
    return failed / attempted if attempted else 0.0


def read_trace(path):
    """Events of a trace written one event per line (the Obs.Trace
    format), without loading the whole file as one JSON value."""
    with open(path) as f:
        for line in f:
            line = line.strip().lstrip("[,").rstrip(",]").strip()
            if line:
                yield json.loads(line)


def clock_offset_us(events):
    """Absolute microseconds of trace timestamp 0, from the bench.clock
    instant the benchmark emits right after enabling the trace."""
    for e in events:
        if e.get("name") == "bench.clock" and e.get("ph") == "i":
            return float(e["args"]["abs_us"]) - float(e["ts"])
    return None


class Ledger:
    """Self time per span name, rebuilt per lane (tid) from B/E pairs.

    Between two consecutive events of a lane, time belongs to the
    innermost open span, or to nobody. With `window` = (lo, hi) only time
    inside it counts. Spans named in `roots` (the benchmark's own outer
    span) hold no layer's work, so their self time is unattributed too.
    Hence sum(self_us) + unattributed_us == lane_us, where lane_us is
    the sum over lanes of each lane's extent inside the window.

    `busy` names a set of idle span names and a list of (lo, hi)
    intervals; busy_us counts, inside those intervals, time of the lanes
    holding an idle span when their innermost span is not idle.
    """

    def __init__(self, events, window=None, roots=(), idle=(), busy_intervals=None):
        self.self_us = defaultdict(float)
        self.count = defaultdict(int)
        self.instances = defaultdict(list)
        self.nested = defaultdict(int)
        self.max_arg = []
        self.unattributed_us = 0.0
        self.lane_us = 0.0
        self.busy_us = 0.0
        self.window = window
        self.roots = set(roots)
        self.idle = set(idle)
        self.busy_intervals = busy_intervals or []
        lanes = defaultdict(list)
        for e in events:
            if e.get("ph") in ("B", "E"):
                lanes[e["tid"]].append(e)
        for evs in lanes.values():
            self._lane(evs)
        for r in self.roots:
            self.unattributed_us += self.self_us.pop(r, 0.0)

    def _clip(self, a, b):
        if self.window is not None:
            a, b = max(a, self.window[0]), min(b, self.window[1])
        return a, max(a, b)

    def _inside(self, ts):
        return self.window is None or self.window[0] <= ts <= self.window[1]

    def _busy(self, a, b):
        return sum(max(0.0, min(b, hi) - max(a, lo)) for lo, hi in self.busy_intervals)

    def _lane(self, evs):
        has_idle = any(e["name"] in self.idle for e in evs)
        lo, hi = self._clip(float(evs[0]["ts"]), float(evs[-1]["ts"]))
        self.lane_us += hi - lo
        stack = []  # [name, self_us, start_ts, max m arg]
        prev = None
        for e in evs:
            ts = float(e["ts"])
            if prev is not None:
                a, b = self._clip(prev, ts)
                if b > a:
                    if stack:
                        stack[-1][1] += b - a
                        if has_idle and stack[-1][0] not in self.idle:
                            self.busy_us += self._busy(a, b)
                    else:
                        self.unattributed_us += b - a
            prev = ts
            name = e["name"]
            if e["ph"] == "B":
                if self._inside(ts):
                    self.count[name] += 1
                    for anc in {s[0] for s in stack}:
                        self.nested[(anc, name)] += 1
                    m = (e.get("args") or {}).get("m")
                    if m is not None and stack:
                        stack[-1][3] = max(stack[-1][3], int(m))
                stack.append([name, 0.0, ts, 0])
            elif stack:
                self._close(stack.pop())
        while stack:
            self._close(stack.pop())

    def _close(self, entry):
        name, acc, start, max_m = entry
        self.self_us[name] += acc
        if self._inside(start):
            self.instances[name].append(acc)
            if max_m:
                self.max_arg.append((name, start, max_m))

    def self_s(self, *names):
        return sum(self.self_us.get(n, 0.0) for n in names) / 1e6

    def unattributed_share(self):
        return self.unattributed_us / self.lane_us if self.lane_us else 0.0

    def balance_us(self):
        """lane_us minus everything the ledger accounts for (0 up to
        rounding)."""
        return self.lane_us - sum(self.self_us.values()) - self.unattributed_us


def span_intervals(events, name):
    """(start, end, args) of every B/E pair named `name`, per lane."""
    open_ = defaultdict(list)
    out = []
    for e in events:
        if e.get("name") != name or e.get("ph") not in ("B", "E"):
            continue
        if e["ph"] == "B":
            open_[e["tid"]].append((float(e["ts"]), e.get("args") or {}))
        elif open_[e["tid"]]:
            start, args = open_[e["tid"]].pop()
            out.append((start, float(e["ts"]), args))
    return out


def failed_cores(ledger, formulas):
    """ApproxMC core iterations that ran through every hash size up to
    |S| (the failure path; a success at exactly m = |S| is counted too).
    `formulas` are (start, end, args) of bench.formula spans carrying the
    formula's sampling-set size."""
    failed = 0
    for name, start, max_m in ledger.max_arg:
        if name != "approxmc.core":
            continue
        for lo, hi, args in formulas:
            if lo <= start <= hi and max_m >= int(args.get("sampling", 0)) > 0:
                failed += 1
                break
    return failed
