#!/usr/bin/env python3
"""The repository benchmark: verification throughput and latency, end to end
and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the benchmark worker
(perfbench/octobench.ml) with dune, then starts one fresh worker process per
repetition until S seconds have passed: a CLI user pays the compile, CFG and
clone caches cold on every invocation, and OCaml 5.1 refuses to fork once a
domain has spawned, so no two repetitions share a process.

With --trace 0 each repetition is the untraced workload and the result
carries the end-to-end metrics.  With --trace 1 repetitions cycle through
the untraced run, the traced stream and the serial layer replay, and the
result carries the per-layer metrics.  Human-readable lines come first; the
last stdout line is one JSON object.  The exit code is 1 when any verdict,
journal, replay, precision or recall check fails.  See perfbench/README.md.

BENCHMARK.json lists registry and corpus-proc.  corpus and scan run here
with all of their checks, but each hits a standing defect of the program
on some inputs and fails (see README.md), so neither is listed there.  The
detect.* per-layer metrics, which only scan exercises, go into its JSON
alone.
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

WORKLOADS = ("registry", "corpus", "corpus-proc", "scan")
EXE = os.path.join("_build", "default", "perfbench", "octobench.exe")
# Journals and span files of this invocation; removed when it ends.
WORK = os.path.join(".perfbench_work", str(os.getpid()))
BUILD_TIMEOUT_S = 850
REP_TIMEOUT_S = 120
# Repetitions stop starting once this much wall time has gone, whatever
# --seconds says, so one invocation always ends well inside 180 s.
HARD_STOP_S = 140
MIN_REPS = 3
P99_MIN_SAMPLES = 1000


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/octobench.exe"],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        fail("build failed (dune exit %d)" % p.returncode)


def commit_stamp():
    if os.path.exists(".git"):
        try:
            p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=10)
            if p.returncode == 0:
                return p.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # Not a git checkout: a digest of the sources stands in for the commit.
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def rep(workload, seed, jobs, mode, extra=()):
    """One repetition in a fresh worker process; returns its JSON record
    with the spawn time added."""
    t_spawn = time.time()
    try:
        p = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
             "--mode", mode, "--work", WORK, *extra],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s %s repetition timed out" % (workload, mode))
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr[-4000:])
        fail("%s %s repetition exited %d" % (workload, mode, p.returncode))
    sys.stderr.write(p.stderr)
    r = json.loads(p.stdout.strip().splitlines()[-1])
    r["t_spawn"] = t_spawn
    return r


def med(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    s = sorted(xs)
    return s[min(len(s) - 1, int(len(s) * q))] if s else 0.0


class Checks:
    """Correctness failures across every repetition of the invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def count(self, r):
        self.attempted += r["attempted"]
        self.failed += r["failed"]

    def require(self, ok, what):
        if not ok:
            self.failed += 1
            self.notes.append(what)


def end_to_end(runs):
    """End-to-end metrics from untraced repetitions: medians over
    repetitions.  A latency percentile is the median of the per-repetition
    percentiles when every repetition has P99_MIN_SAMPLES pairs, and is
    taken over the pooled samples otherwise (registry's 15 pairs)."""
    setup = [r["t_start"] - r["t_spawn"] for r in runs]
    wall = [r["t_end"] - r["t_start"] for r in runs]
    rate = [r["settled"] / (r["t_end"] - r["t_start"]) for r in runs]
    rss = [r["peak_rss_kb"] / 1024.0 for r in runs]
    lats = [r["latencies_ms"] for r in runs]
    if min(len(lat) for lat in lats) >= P99_MIN_SAMPLES:
        def pct(q):
            return med([quantile(lat, q) for lat in lats])
    else:
        pooled = [x for lat in lats for x in lat]

        def pct(q):
            return quantile(pooled, q)
    m = {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(wall), "s"),
        "pairs_per_s": (med(rate), "1/s"),
        "pair_p50_ms": (pct(0.5), "ms"),
        "pair_p99_ms": (pct(0.99), "ms"),
        "peak_rss_mb": (med(rss), "MB"),
    }
    extra = {"samples": sum(len(lat) for lat in lats), "reps": len(runs)}
    if "detect_s" in runs[0]:
        extra["detect_s"] = med([r["detect_s"] for r in runs])
        for k in ("retrieved", "confirmed", "ground_truth"):
            extra[k] = med([r[k] for r in runs])
    extra["child_peak_rss_mb"] = med([r["child_peak_rss_kb"] / 1024.0 for r in runs])
    return m, extra


def per_layer(streams, replays, wall_s, jobs):
    """Per-layer metrics: medians over the traced stream and replay
    repetitions."""
    def rmed(key):
        return med([r[key] for r in replays])

    def smed(key):
        return med([r[key] for r in streams])

    def span(name, field="ms"):
        return med([r["spans"].get(name, {}).get(field, 0) for r in replays])

    def stream_span(name):
        return med([r["spans"].get(name, {}).get("ms", 0) for r in streams])

    plain_steps, plain_ms = rmed("vm_plain_steps"), span("vm.plain")
    hooked_steps, taint_ms = rmed("taint_hooked_steps"), span("taint.extract")
    sym_steps, sym_ms = rmed("symex_total_steps"), span("symex.directed")
    hits = rmed("retrieved") if "retrieved" in replays[0] else 0
    confirmed = rmed("confirmed") if "confirmed" in replays[0] else 0
    stream_wall = smed("wall")

    def per_step(ms, steps):
        return ms * 1e6 / steps if steps else 0.0

    m = {
        "targets.next_ms": (stream_span("targets.next"), "ms"),
        "clone.ell_ms": (span("clone.ell"), "ms"),
        "clone.ell_calls": (span("clone.ell", "n"), "count"),
        "detect.index_ms": (span("detect.index"), "ms"),
        "detect.query_ms": (span("detect.query"), "ms"),
        "detect.hits": (hits, "count"),
        "detect.confirm_ms": (span("detect.confirm"), "ms"),
        "detect.confirm_calls": (rmed("confirm_calls") if hits else 0, "count"),
        "detect.confirm_yield": (confirmed / hits if hits else 0.0, "ratio"),
        "vm.compile_ms": (span("vm.compile"), "ms"),
        "vm.compile_calls": (span("vm.compile", "n"), "count"),
        "vm.plain_steps": (plain_steps, "count"),
        "vm.plain_ms": (plain_ms, "ms"),
        "vm.plain_ns_per_step": (per_step(plain_ms, plain_steps), "ns"),
        "vm.budget_hits": (rmed("vm_budget_hits"), "count"),
        "taint.hooked_steps": (hooked_steps, "count"),
        "taint.extract_ms": (taint_ms, "ms"),
        "taint.ns_per_step": (per_step(taint_ms, hooked_steps), "ns"),
        "cfg.build_ms": (span("cfg.build"), "ms"),
        "symex.directed_ms": (sym_ms, "ms"),
        "symex.runs": (rmed("symex_runs"), "count"),
        "symex.total_steps": (sym_steps, "count"),
        "symex.loop_retries": (rmed("symex_loop_retries"), "count"),
        "solver.nodes": (smed("solver_nodes"), "count"),
        "solver.constraint_adds": (smed("constraint_adds"), "count"),
        "solver.propagate_ns": (rmed("solver_propagate_ns"), "ns"),
        "core.run_ms": (span("core.run"), "ms"),
        "core.residual_ms": (span("core.run", "self_ms"), "ms"),
        "core.wait_ms": (smed("core_wait_ms"), "ms"),
        "core.alloc_mb": (rmed("core_alloc_mb"), "MB"),
        "core.major_gcs": (rmed("core_major_gcs"), "count"),
        "journal.appends": (smed("journal_appends"), "count"),
        "journal.append_us_p50": (smed("journal_append_us_p50"), "us"),
        "journal.append_us_p99": (smed("journal_append_us_p99"), "us"),
        "sandbox.jobs": (smed("sandbox_jobs"), "count"),
        "sandbox.fork_frame_us": (rmed("sandbox_fork_frame_us"), "us"),
        "sandbox.child_peak_rss_mb": (smed("child_peak_rss_kb") / 1024.0, "MB"),
        "trace.overhead_pct": ((stream_wall / wall_s - 1.0) * 100.0 if wall_s else 0.0, "%"),
    }
    # Reconciliation: unit cost x the workload's deterministic count,
    # spread over the workers, against the measured wall time.
    unit = {
        "plain VM step": (m["vm.plain_ns_per_step"][0], "ns",
                          max(0, smed("vm_steps") - hooked_steps)),
        "hooked VM step": (m["taint.ns_per_step"][0], "ns", hooked_steps),
        "symbolic step": (per_step(sym_ms, sym_steps), "ns", sym_steps),
        "Solve propagate": (m["solver.propagate_ns"][0], "ns", smed("constraint_adds")),
        "fsynced journal append": (m["journal.append_us_p50"][0] * 1e3, "ns",
                                   smed("journal_appends")),
        "sandbox fork+frame": (m["sandbox.fork_frame_us"][0] * 1e3, "ns",
                               smed("sandbox_jobs")),
    }
    explained = sum(ns * n for ns, _, n in unit.values()) / 1e9 / jobs
    m["recon.explained_s"] = (explained, "s")
    m["recon.unexplained_share"] = (1.0 - explained / wall_s if wall_s else 0.0, "ratio")
    # Self time by layer, replay spans plus the stream's own spans.
    self_ms = {}
    for name in {n for r in replays for n in r["spans"]}:
        self_ms[name] = span(name, "self_ms")
    for name in ("targets.next", "journal.append"):
        self_ms[name] = stream_span(name)
    return m, unit, self_ms


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    t_begin = time.time()
    build()
    os.makedirs(WORK)
    nproc = len(os.sched_getaffinity(0))
    modes = ["run"] if a.trace == 0 else ["run", "stream", "replay"]
    by_mode = {m: [] for m in modes}
    checks = Checks()
    # Repetition cycle c verifies the inputs of generator seed SEED*1000+c,
    # so a run's medians span many corpora rather than one draw.  Every
    # mode of a cycle sees the same inputs.
    subs = []
    t0 = time.time()
    while True:
        if (time.time() - t0 >= a.seconds and len(subs) >= (MIN_REPS if a.trace == 0 else 1)) \
                or time.time() - t_begin > HARD_STOP_S:
            break
        sub = a.seed * 1000 + len(subs)
        subs.append(sub)
        cycle = []
        for mode in modes:
            r = rep(a.workload, sub, nproc, mode)
            if mode == "stream":
                r["wall"] = r["t_end"] - r["t_start"]
            by_mode[mode].append(r)
            checks.count(r)
            cycle.append(r)
        # One verdict table per input, whatever the mode; the replay's own
        # detection must find what Scan.run found.
        tables = {r["table"] for r in cycle}
        checks.require(len(tables) == 1, "seed %d: verdict tables differ: %s" % (sub, sorted(tables)))
        for r in cycle[1:]:
            for k in ("retrieved", "confirmed"):
                if k in r:
                    checks.require(r[k] == cycle[0][k], "seed %d: replayed %s %s != %s"
                                   % (sub, k, r[k], cycle[0][k]))
    runs = by_mode["run"]
    if not runs:
        fail("ran out of time before one repetition")
    # Domain and process isolation must agree byte for byte on a corpus.
    # corpus-proc's Domain-mode sibling runs without its journal, whose
    # appends from worker domains can race (see README.md).
    if a.workload in ("corpus", "corpus-proc"):
        sibling = "corpus-proc" if a.workload == "corpus" else "corpus"
        sib = rep(sibling, subs[0], nproc, "run",
                  ("--no-journal",) if sibling == "corpus" else ())
        checks.count(sib)
        checks.require(sib["table"] == runs[0]["table"],
                       "seed %d: %s and %s verdict tables differ" % (subs[0], a.workload, sibling))
    # Keep the last span files beside the removed per-invocation directory.
    for f in os.listdir(WORK):
        if f.startswith("spans-"):
            os.replace(os.path.join(WORK, f), os.path.join(os.path.dirname(WORK), f))
    shutil.rmtree(WORK, ignore_errors=True)

    e2e, extra = end_to_end(runs)
    failed_ratio = checks.failed / max(1, checks.attempted)
    print("stamp   : workload=%s seed=%d (generator seeds %d..%d) nproc=%d jobs=%d ocaml=%s "
          "commit=%s trace=%d" % (a.workload, a.seed, subs[0], subs[-1], nproc, runs[0]["jobs"],
                                  runs[0]["ocaml"], commit_stamp(), a.trace))
    print("end2end : %s  (%d repetition(s), %d latency sample(s))" % (
        "  ".join("%s=%.6g %s" % (k, v, u) for k, (v, u) in e2e.items()
                  if k != "pair_p99_ms" or extra["samples"] >= P99_MIN_SAMPLES),
        extra["reps"], extra["samples"]))
    if extra["samples"] < P99_MIN_SAMPLES:
        print("          pair_p99_ms=%.6g ms rests on %d < %d samples"
              % (e2e["pair_p99_ms"][0], extra["samples"], P99_MIN_SAMPLES))
    if "detect_s" in extra:
        print("scan    : detect_s=%.6g s, medians: retrieved=%d confirmed=%d ground-truth=%d; "
              "precision and recall checked per repetition" % (extra["detect_s"], extra["retrieved"],
                                         extra["confirmed"], extra["ground_truth"]))
    if a.workload == "corpus-proc":
        print("sandbox : largest child peak_rss=%.6g MB" % extra["child_peak_rss_mb"])
    print("failed  : failed_ratio=%.6g (%d of %d attempted)"
          % (failed_ratio, checks.failed, checks.attempted))
    for note in checks.notes:
        print("check   : FAILED " + note)

    if a.trace == 0:
        metrics = e2e
    else:
        wall_s = e2e["wall_s"][0]
        metrics, unit, self_ms = per_layer(by_mode["stream"], by_mode["replay"], wall_s,
                                           runs[0]["jobs"])
        print("units   : " + "  ".join("%s=%.4g %s" % (k, ns, u) for k, (ns, u, _) in unit.items()))
        print("recon   : sum(unit cost x count)/jobs = %.4g s  vs  wall_s = %.4g s  "
              "unexplained = %.1f%%" % (metrics["recon.explained_s"][0], wall_s,
                                        metrics["recon.unexplained_share"][0] * 100))
        top = sorted(self_ms.items(), key=lambda kv: -kv[1])
        print("self    : " + "  ".join("%s=%.4g ms" % kv for kv in top[:6]))
        print("top     : %s" % top[0][0])
        pairs = {}
        for r in by_mode["replay"]:
            for k, v in r.get("pairs", {}).items():
                pairs.setdefault(k, []).append(v)
        if pairs:
            print("pairs   : " + "  ".join("%s=%.6g" % (k, med(v)) for k, v in pairs.items()))
        print("layers  : " + "  ".join("%s=%.6g %s" % (k, v, u) for k, (v, u) in metrics.items()))

    if a.workload != "scan":
        metrics = {k: v for k, v in metrics.items() if not k.startswith("detect.")}
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if checks.failed == 0 else 1)


if __name__ == "__main__":
    main()
