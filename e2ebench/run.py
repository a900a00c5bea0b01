#!/usr/bin/env python3
"""One command for the end-to-end benchmark of the CAQR library.

    python3 e2ebench/run.py --workload qr_paper --seed 1 --seconds 10 --trace 0

Builds e2ebench/ (which compiles the library from src/) into
.bench_build/e2ebench, runs one workload, checks its outputs and prints
every metric by name and unit. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run, including the tracing overhead. The lines before it give
the environment, the tail percentile and sample counts, and whether an
open-loop generator kept its schedule. See e2ebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
EXE = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("qr_paper", "rpca_video", "serve_mixed", "stream_cameras")
OPEN_LOOP = ("serve_mixed", "stream_cameras")

# A run must end within this many seconds, or within BUILD_BUDGET_S when it
# has to build the program first.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 880

# tail_ms and sat_rps are reported per layer: measured on a shared 4-vCPU
# VM, their run-to-run spread came too close to the widest bound a
# regression gate may use.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

KERNELS = ("factor", "factor_tree", "apply_qt_h", "apply_qt_tree",
           "apply_q_h", "apply_q_tree", "transpose")
SPANS = ("op", "caqr.factor", "caqr.form_q", "serve.request", "serve.submit",
         "stream.frame", "stream.submit", "stream.task", "stream.consume")


def _per_layer_units():
    units = {}
    for k in KERNELS:
        units.update({f"kernels.{k}.launches": "count",
                      f"kernels.{k}.sim_s": "s",
                      f"kernels.{k}.flops": "flop",
                      f"kernels.{k}.bytes": "B"})
    units.update({
        "gpusim.launches": "count",
        "gpusim.enqueue_cost_ns": "ns",
        "gpusim.resolve_ns": "ns",
        "caqr.factor_s": "s",
        "caqr.form_q_s": "s",
        "caqr.factor_gflops": "GFLOP/s",
        "caqr.form_q_gflops": "GFLOP/s",
        "caqr.factor_1t_s": "s",
        "caqr.form_q_1t_s": "s",
        "caqr.scaling": "ratio",
        "tsqr.meta_build_ns": "ns",
        "svd.qr_s": "s",
        "rpca.iter_s": "s",
        "rpca.non_qr_s": "s",
        "rpca.svd_unconverged": "count",
        "svd.small_svd_s": "s",
        "linalg.gemm_qu_s": "s",
        "linalg.gemm_gflops": "GFLOP/s",
        "serve.queue_wait_ms.p50": "ms",
        "serve.queue_wait_ms.tail": "ms",
        "serve.request_ms": "ms",
        "serve.plan_resolve_ms": "ms",
        "plan_cache.plan_build_ms": "ms",
        "plan_cache.hits": "count",
        "plan_cache.misses": "count",
        "serve.pool_lock_wait_ms": "ms",
        "plan_cache.lock_wait_ms": "ms",
        "serve.batch_stage_ms": "ms",
        "serve.completed": "count",
        "serve.rejected": "count",
        "serve.expired": "count",
        "serve.shed": "count",
        "serve.presolve_expired": "count",
        "serve.busy_sim_s": "s",
        "serve.utilization": "ratio",
        "serve.cholqr_share": "ratio",
        "serve.caqr_share": "ratio",
        "gen.lag_ms.p50": "ms",
        "gen.lag_ms.max": "ms",
        "stream.consume_ms.p50": "ms",
        "stream.consume_ms.tail": "ms",
        "stream.queue_wait_ms.p50": "ms",
        "stream.queue_wait_ms.tail": "ms",
        "stream.factors_per_frame": "count",
        "stream.combines_per_frame": "count",
        "stream.flips_per_frame": "count",
        "stream.drift_refactors": "count",
        "stream.frame_sim_ms": "ms",
        "stream.starved_rounds": "count",
        "stream.window_update_ms": "ms",
        "stream.small_svd_ms": "ms",
        "common.alloc_per_op": "count",
        "tail_ms": "ms",
        "sat_rps": "1/s",
        "op_sim_s": "s",
        "failed_frac": "ratio",
        "miss_frac": "ratio",
    })
    for s in SPANS:
        units[f"self.{s}_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    units["trace.spans_per_op"] = "count"
    return units


PER_LAYER = _per_layer_units()


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and rebuilds (a no-op when nothing changed).
    Returns True when the program did not exist before."""
    fresh = not os.path.exists(EXE)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "e2e_bench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_BUDGET_S - 60)
        except (subprocess.SubprocessError, OSError) as e:
            fail(f"build failed: {e}")
    return fresh


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def med(samples, name, scale=1.0):
    v = samples.get(name)
    return stats.median(v) * scale if v else 0.0


def end_to_end(raw):
    ph = raw["phases"][0]
    lat = stats.latencies_ms(ph["due_ns"], ph["done_ns"])
    pct, tail_ms, n = stats.tail(lat)
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "p50_ms": stats.median(lat),
        "peak_rss_mb": ph["peak_rss_mb"],
    }
    info = {"latency_samples": n, "tail_ms": tail_ms,
            "tail_percentile": pct, "sat_rps": ph["sat_rps"],
            "setup_samples": len(raw["setup_s"])}
    return metrics, info


def per_layer(raw):
    workload = raw["workload"]
    untraced, traced = raw["phases"][0], raw["phases"][-1]
    lay = traced["layer"]
    smp = traced["samples"]
    m = {name: 0.0 for name in PER_LAYER}  # 0: layer not exercised
    for name in PER_LAYER:
        if name in lay:
            m[name] = lay[name]

    fs, qs = med(smp, "caqr.factor_s"), med(smp, "caqr.form_q_s")
    m["caqr.factor_s"], m["caqr.form_q_s"] = fs, qs
    if fs:
        m["caqr.factor_gflops"] = lay["caqr.factor_flops"] / fs / 1e9
    if qs:
        m["caqr.form_q_gflops"] = lay["caqr.form_q_flops"] / qs / 1e9
    one_thread = m["caqr.factor_1t_s"] + m["caqr.form_q_1t_s"]
    if one_thread and fs + qs:
        m["caqr.scaling"] = one_thread / (fs + qs)

    m["svd.qr_s"] = med(smp, "svd.qr_s")
    m["rpca.iter_s"] = med(smp, "rpca.iter_s")
    if m["rpca.iter_s"]:
        m["rpca.non_qr_s"] = m["rpca.iter_s"] - m["svd.qr_s"]
    m["svd.small_svd_s"] = med(smp, "svd.small_svd_s")
    m["linalg.gemm_qu_s"] = med(smp, "linalg.gemm_qu_s")
    if m["linalg.gemm_qu_s"]:
        m["linalg.gemm_gflops"] = (lay["linalg.gemm_qu_flops"] /
                                   m["linalg.gemm_qu_s"] / 1e9)

    if workload in OPEN_LOOP:
        if traced["sat_rps"]:
            m["serve.utilization"] = traced["offered_rps"] / traced["sat_rps"]
        lags = traced["gen_lag_ms"]
        if lags:
            m["gen.lag_ms.p50"] = stats.median(lags)
            m["gen.lag_ms.max"] = max(lags)
    for name in ("stream.consume_ms", "stream.queue_wait_ms"):
        if smp.get(name):
            m[name + ".p50"] = stats.median(smp[name])
            m[name + ".tail"] = stats.tail(smp[name])[1]
    if workload == "stream_cameras":
        m["stream.frame_sim_ms"] = med(smp, "op_sim_s", 1e3)
    m["stream.window_update_ms"] = med(smp, "stream.window_update_ms")
    m["stream.small_svd_ms"] = med(smp, "stream.small_svd_ms")
    m["op_sim_s"] = med(smp, "op_sim_s")
    # Tail and saturated rate of the untraced half.
    m["tail_ms"] = stats.tail(stats.latencies_ms(untraced["due_ns"],
                                                 untraced["done_ns"]))[1]
    m["sat_rps"] = untraced["sat_rps"]
    # Allocations of the untraced half, where no span is recorded.
    m["common.alloc_per_op"] = untraced["layer"]["common.alloc_per_op"]

    attempted = sum(p["attempted"] for p in raw["phases"])
    failed = sum(p["failed"] for p in raw["phases"])
    m["failed_frac"] = failed / max(attempted, 1)
    if workload in OPEN_LOOP:
        over = failed
        for p in raw["phases"]:
            lat = stats.latencies_ms(p["due_ns"], p["done_ns"])
            over += sum(1 for x in lat if x > p["latency_limit_ms"])
        m["miss_frac"] = min(1.0, over / max(attempted, 1))

    ops = max(traced["attempted"], 1)
    spans = [tuple(s) for s in traced["spans"]]
    for name, ns in stats.self_time_by_name(spans).items():
        if name in SPANS:
            m[f"self.{name}_ms"] = ns / 1e6 / ops
    m["trace.spans_per_op"] = len(spans) / ops
    p_un = stats.median(stats.latencies_ms(untraced["due_ns"],
                                           untraced["done_ns"]))
    p_tr = stats.median(stats.latencies_ms(traced["due_ns"],
                                           traced["done_ns"]))
    m["trace.overhead_frac"] = (p_tr - p_un) / p_un
    return m


def generator_valid(raw):
    """An open-loop run is invalid when its generator fell behind its
    schedule in any phase (stats.kept_schedule)."""
    if raw["workload"] not in OPEN_LOOP:
        return True, {}
    worst = {"lag_p50_ms": 0.0, "lag_max_ms": 0.0}
    ok = True
    for p in raw["phases"]:
        lags = p["gen_lag_ms"]
        if not lags:
            continue
        worst["lag_p50_ms"] = max(worst["lag_p50_ms"], stats.median(lags))
        worst["lag_max_ms"] = max(worst["lag_max_ms"], max(lags))
        ok = ok and stats.kept_schedule(lags, p["latency_limit_ms"])
    return ok, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    t_start = time.monotonic()
    fresh = build()
    budget = BUILD_BUDGET_S if fresh else RUN_BUDGET_S
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    remaining = budget - (time.monotonic() - t_start)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        fail("the workload ran out of time")
    if proc.returncode != 0:
        fail(f"e2e_bench exited with {proc.returncode}")
    with open(out) as f:
        raw = json.load(f)

    env = dict(raw["env"])
    env.update({"nproc": len(os.sched_getaffinity(0)),
                "git_commit": git_commit(),
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace})
    valid, lag = generator_valid(raw)
    if not valid:
        fail("the open-loop generator fell behind its schedule, so this run "
             f"is invalid ({json.dumps(lag)})")
    if args.trace:
        metrics = per_layer(raw)
        units = PER_LAYER
        info = {}
    else:
        metrics, info = end_to_end(raw)
        units = END_TO_END
    info.update(lag)
    failures = [f for p in raw["phases"] for f in p["failures"]]
    info["failures"] = failures

    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    attempted = sum(p["attempted"] for p in raw["phases"])
    failed = sum(p["failed"] for p in raw["phases"])
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
