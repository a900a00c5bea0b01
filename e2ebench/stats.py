"""Statistics helpers of the end-to-end benchmark (tested in test_stats.py).

Latencies are timed from when an op was due, never from when it was sent,
so a stall that delays later sends shows in their latency. A timing is
reported as a median plus the highest percentile that still has at least
ten samples beyond it. A layer's self time is its span minus the part of
that interval its child spans cover.
"""

import math

# Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    v = sorted(values)
    if not v:
        raise ValueError("median of no samples")
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


def _rank(pct, n):
    # 1-based nearest rank; the epsilon keeps 99.9% of 1000 at rank 999
    # despite binary rounding.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by the nearest-rank rule."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail(values, min_beyond=MIN_BEYOND):
    """(percentile, value, sample count) of the highest ladder percentile
    with at least `min_beyond` samples ranked beyond it. With too few
    samples for any ladder step the maximum is reported as percentile 100."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("tail of no samples")
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= min_beyond:
            best = pct
    if best is None:
        return 100.0, v[-1], n
    return best, nearest_rank(v, best), n


def latencies_ms(due_ns, done_ns):
    """Per-op latency in ms, timed from the due time of each op."""
    if len(due_ns) != len(done_ns):
        raise ValueError("due and done times do not pair up")
    out = []
    for due, done in zip(due_ns, done_ns):
        if done < due:
            raise ValueError("an op finished before it was due")
        out.append((done - due) / 1e6)
    return out


# An open-loop generator kept its schedule when its median send lag is at
# most MAX_MEDIAN_LAG_MS and at most MAX_LATE_SHARE of its sends lagged more
# than a quarter of the latency limit. A single late send still counts in
# the latency of the op it delays, which is timed from the due time.
MAX_MEDIAN_LAG_MS = 1.0
MAX_LATE_SHARE = 0.01


def kept_schedule(lags_ms, limit_ms):
    """True when sends that lagged their due time by `lags_ms` kept the
    schedule of an open loop whose latency limit is `limit_ms`."""
    if not lags_ms:
        return True
    late = sum(1 for x in lags_ms if x > limit_ms / 4.0)
    return (median(lags_ms) <= MAX_MEDIAN_LAG_MS and
            late <= MAX_LATE_SHARE * len(lags_ms))


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every closed span, keyed by id.

    `spans` holds (id, parent, name, t0, t1) tuples; parent -1 is a root.
    Self time is the span's duration minus the union of its children's
    intervals clipped to it, so overlapping children count once."""
    children = {}
    for sid, parent, _name, t0, t1 in spans:
        if parent >= 0 and t1 >= t0:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1 in spans:
        if t1 < t0:
            continue  # never closed
        out[sid] = (t1 - t0) - covered_length(children.get(sid, []), t0, t1)
    return out


def self_time_by_name(spans):
    """Total self time (same unit as the span times) per span name."""
    own = self_times(spans)
    totals = {}
    for sid, _parent, name, _t0, _t1 in spans:
        if sid in own:
            totals[name] = totals.get(name, 0) + own[sid]
    return totals
