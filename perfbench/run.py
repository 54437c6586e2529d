#!/usr/bin/env python3
"""End-to-end placement benchmark: Table I time and quality per workload.

Builds the repository's src/ libraries and the flow_bench programs
(perfbench/src) with CMake into .bench_build/perfbench, runs one workload,
checks every flow's output and prints the metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it holds the run's context.

    python3 perfbench/run.py --workload congested-ours-t1 --seed 1 \
        --seconds 55 --trace 0

--trace 0 reports the end-to-end metrics (plain binary); --trace 1 runs the
first design once plainly on one thread and on min(4, nproc) threads, then
every design with the traced binary, and reports the per-layer metrics. See
perfbench/NOTES.md.
"""

import argparse
import fcntl
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
# Compiler and program temporaries stay inside the checkout as well.
TMP_DIR = os.path.join(BUILD_DIR, "tmp")

# superblue12's generator seed in ispd2015_suite: the default workload seed.
SUITE_SEED = 27
# Design k of a run uses seed + k * SEED_STRIDE, so the designs of runs with
# small consecutive seeds never coincide.
SEED_STRIDE = 1000003
# Hard limit on one flow_bench invocation (the run itself must end in 180 s).
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    # The paper's placer on the most congested suite design. Phase-B RRR
    # maze search does most of the work; the routability loop runs a fixed
    # number of outer iterations so every seed does the same amount of work.
    "congested-ours-t1": dict(scale=0.5, mode="ours", designs=2,
                              outer_iters=5),
    # Wirelength-only placement (Table I "Xplace") of a 3x larger design:
    # no router in the loop; Nesterov, legalization and its audit, then the
    # evaluation router at twice the grid.
    "large-xplace-t1": dict(scale=1.5, mode="xplace", designs=1,
                            outer_iters=0),
}
# Every measured run places on one thread, so process CPU time is the time
# the flow takes on an otherwise idle machine. The traced run also places
# the first design on up to this many threads and requires the same bits.
CHECK_THREADS = 4

END_TO_END_UNITS = {
    "setup_s": "s", "place_s": "s", "eval_route_s": "s", "flow_s": "s",
    "drvs": "count", "drwl": "dbu", "vias": "count", "hpwl_final": "dbu",
    "peak_rss_mb": "MB",
}


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the two flow binaries."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                            "-B", BUILD_DIR], check=True, stdout=sys.stderr,
                           env=env)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                        "flow_bench_plain", "flow_bench_traced"],
                       check=True, stdout=sys.stderr, env=env)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(threads):
    """The library sees only RDP_THREADS; every other RDP_* knob is unset."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDP_")}
    env["RDP_THREADS"] = str(threads)
    env["TMPDIR"] = TMP_DIR
    return env


def flow_bench(binary, wl, seeds, seconds, max_passes, threads, extra=()):
    cmd = [os.path.join(BUILD_DIR, binary),
           "--scale", repr(wl["scale"]), "--mode", wl["mode"],
           "--seeds", ",".join(str(s) for s in seeds),
           "--outer-iters", str(wl["outer_iters"]),
           "--seconds", repr(seconds), "--max-passes", str(max_passes)]
    cmd += list(extra)
    out = subprocess.run(cmd, env=child_env(threads), stdout=subprocess.PIPE,
                         check=True,
                         timeout=CHILD_TIMEOUT_S, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def ledger_key(wl, seed):
    return "superblue12-s{}-{}-o{}-seed{}".format(
        wl["scale"], wl["mode"], wl["outer_iters"], seed)


@functools.lru_cache(maxsize=None)
def ledger_dir():
    """One ledger per build of the plain binary: a changed library may
    legitimately place differently."""
    digest = hashlib.sha256()
    with open(os.path.join(BUILD_DIR, "flow_bench_plain"), "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return os.path.join(BUILD_DIR, "ledger", digest.hexdigest()[:16])


def check_ledger(wl, flow):
    """Every run of the same design and placer must give the same placement,
    whatever its thread count or tracing; the first run records the hash."""
    os.makedirs(ledger_dir(), exist_ok=True)
    path = os.path.join(ledger_dir(), ledger_key(wl, flow["seed"]))
    if os.path.exists(path):
        with open(path) as f:
            want = f.read().strip()
        return None if want == flow["hash"] else (
            "placement hash {} differs from the recorded {}".format(
                flow["hash"], want))
    tmp = "{}.{}.tmp".format(path, os.getpid())
    with open(tmp, "w") as f:
        f.write(flow["hash"] + "\n")
    os.replace(tmp, path)
    return None


QUALITY = ("hpwl_final", "drwl", "vias", "drvs")


def check_flows(wl, passes, ref_hash=None):
    """Counts flows and failed flows across all passes; returns
    (attempted, failed, problems)."""
    attempted, failed, problems = 0, 0, []
    first = {f["seed"]: f for f in passes[0]}
    for flows in passes:
        for f in flows:
            attempted += 1
            errs = list(f["errors"])
            if f["hash"] != first[f["seed"]]["hash"]:
                errs.append("placement differs between passes")
            if any(f[k] != first[f["seed"]][k] for k in QUALITY):
                errs.append("quality differs between passes")
            if ref_hash is not None and f["seed"] in ref_hash and \
                    f["hash"] != ref_hash[f["seed"]]:
                errs.append("placement differs from the untraced one-thread run")
            if not errs:
                ledger_err = check_ledger(wl, f)
                if ledger_err:
                    errs.append(ledger_err)
            if errs:
                failed += 1
                problems.append("seed {}: {}".format(f["seed"],
                                                     "; ".join(errs)))
    return attempted, failed, problems


def pass_sum(flows, key):
    return sum(f[key] for f in flows)


def median_pass(passes, *keys):
    return statistics.median(sum(pass_sum(p, k) for k in keys)
                             for p in passes)


def end_to_end(res):
    """Sums over the designs: times (process CPU seconds) as the median over
    passes, quality from the first pass (every pass must repeat it)."""
    passes = res["passes"]
    m = {
        "setup_s": statistics.median(res["setup_s"]),
        "place_s": median_pass(passes, "place_cpu_s"),
        "eval_route_s": median_pass(passes, "eval_route_cpu_s"),
        "flow_s": median_pass(passes, "place_cpu_s", "eval_route_cpu_s"),
        "drvs": pass_sum(passes[0], "drvs"),
        "drwl": pass_sum(passes[0], "drwl"),
        "vias": pass_sum(passes[0], "vias"),
        "hpwl_final": pass_sum(passes[0], "hpwl_final"),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in m.items()}


def per_layer(traced, plain):
    """Layer sums over the traced pass, ratios from summed parts, and the
    tracing overhead on the design both binaries ran."""
    flows = traced["passes"][0]
    total = {}
    for f in flows:
        for k, v in f["layers"].items():
            total[k] = total.get(k, 0.0) + v

    def ratio(num, den):
        return total[num] / total[den] if total[den] > 0 else 0.0

    total["place.router.maze_adopted_ratio"] = ratio(
        "place.router.maze_adopted", "place.router.maze_compared")
    total["place.router.cache_hit_ratio"] = ratio(
        "place.router.cache_hits", "place.router.cache_conns")
    for k in ("place.router.maze_adopted", "place.router.maze_compared",
              "place.router.cache_hits", "place.router.cache_conns"):
        del total[k]
    p0, t0 = plain["passes"][0][0], flows[0]
    total["trace.overhead_s"] = (
        t0["place_cpu_s"] + t0["eval_route_cpu_s"]) - (
        p0["place_cpu_s"] + p0["eval_route_cpu_s"])

    out = {}
    for k, v in sorted(total.items()):
        if k.endswith("_s"):
            unit = "s"
        elif k.endswith("_ratio"):
            unit = "ratio"
        elif k.endswith("_cells"):
            unit = "gcells"
        else:
            unit = "count"
        out[k] = {"value": v, "unit": unit}
    return out


def self_time_ranking(traced):
    """Self time per phase/layer summed over the traced pass, ranked."""
    total = {}
    for f in traced["passes"][0]:
        for k, v in f["self_s"].items():
            total[k] = total.get(k, 0.0) + v
    return sorted(total.items(), key=lambda kv: -kv[1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=SUITE_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Overrides for the benchmark's own tests (tiny, fast workloads).
    ap.add_argument("--scale", type=float)
    ap.add_argument("--designs", type=int)
    ap.add_argument("--outer-iters", type=int)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--corrupt-placement", action="store_true")
    args = ap.parse_args()

    wl = dict(WORKLOADS[args.workload])
    for key in ("scale", "designs", "outer_iters"):
        if getattr(args, key) is not None:
            wl[key] = getattr(args, key)
    threads = max(1, min(args.threads, os.cpu_count() or 1))
    seeds = [args.seed + k * SEED_STRIDE for k in range(wl["designs"])]
    extra = ["--corrupt-placement"] if args.corrupt_placement else []

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: {}".format(e))
        return 1

    t_start = time.monotonic()
    try:
        if args.trace == 0:
            res = flow_bench("flow_bench_plain", wl, seeds, args.seconds, 50,
                             threads, extra)
            attempted, failed, problems = check_flows(wl, res["passes"])
            metrics = end_to_end(res)
        else:
            plain = flow_bench("flow_bench_plain", wl, seeds[:1], 0.0, 1,
                               threads, extra)
            many = max(1, min(CHECK_THREADS, os.cpu_count() or 1))
            threaded = flow_bench("flow_bench_plain", wl, seeds[:1], 0.0, 1,
                                  many, extra)
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace_file = os.path.join(TRACE_DIR, "{}-seed{}.json".format(
                args.workload, args.seed))
            traced = flow_bench("flow_bench_traced", wl, seeds, 0.0, 1,
                                threads, extra + ["--trace-out", trace_file])
            ref = {f["seed"]: f["hash"] for f in plain["passes"][0]}
            attempted, failed, problems = 0, 0, []
            for passes, want in ((plain["passes"], None),
                                 (threaded["passes"], ref),
                                 (traced["passes"], ref)):
                a, f, p = check_flows(wl, passes, want)
                attempted, failed, problems = (attempted + a, failed + f,
                                               problems + p)
            metrics = per_layer(traced, plain)
            res = traced
            res["context"]["check_threads"] = threaded["context"]["threads"]
            log("self time by phase/layer (traced pass, all designs):")
            for name, secs in self_time_ranking(traced):
                log("  {:<32s} {:10.4f} s".format(name, secs))
            log("chrome trace: " + os.path.relpath(trace_file, ROOT))
    except (OSError, ValueError, KeyError, TypeError,
            subprocess.SubprocessError) as e:
        log("flow_bench failed: {}".format(e))
        return 1

    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            problems.append("metric {} is not finite".format(name))
    for p in problems:
        log("check failed: " + p)

    ctx = res["context"]
    if args.trace == 0:
        ctx.update(passes=len(res["passes"]),
                   place_wall_s=median_pass(res["passes"], "place_wall_s"),
                   eval_route_wall_s=median_pass(res["passes"],
                                                 "eval_route_wall_s"))
    ctx.update(workload=args.workload, seed=args.seed, designs=seeds,
               placement_hashes={str(f["seed"]): f["hash"]
                                 for f in res["passes"][0]},
               nproc=os.cpu_count(), git_sha=git_sha(),
               wall_s=time.monotonic() - t_start)
    print(json.dumps({"context": ctx}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
