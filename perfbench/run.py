#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness from this checkout,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload cyl_aa_device --seed 1 \
        --seconds 20 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics (and
trace.overhead_pct).  Everything before the last line is a human-readable
report.  The exit code is 0 only when every output check passed.
See perfbench/README.md for the workload -> layer -> metric map.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("cyl_aa_device", "aorta_resilient", "serve_mix")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170

# Workload-specific names of the end-to-end metrics, for the
# human-readable table.  BENCHMARK.json uses the workload-neutral names.
SOLVER_ALIASES = {"setup_s": "setup_s", "work_per_s": "mflups",
                  "op_ms_p50": "step_ms_p50", "op_ms_tail": "step_ms_p%g",
                  "peak_rss_mb": "peak_rss_mb"}
SERVE_ALIASES = {"setup_s": "setup_s", "work_per_s": "points_per_s",
                 "op_ms_p50": "req_ms_p50", "op_ms_tail": "req_ms_p%g",
                 "peak_rss_mb": "peak_rss_mb"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no HemoFlow sources next to perfbench/ "
                           "(expected %s)" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository, not an enclosing one.
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    return "none (not a git checkout)"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench


def run_harness(binary, args):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-trace%d" % (args.workload, args.trace))
    report_path, spans_path = stem + ".json", stem + ".spans.jsonl"
    scratch = os.path.join(OUT_DIR, "scratch-%s-%d" % (args.workload, os.getpid()))
    for path in (report_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", "1" if args.smoke else "0", "--scratch", scratch,
           "--out", report_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    finally:
        if os.path.isdir(scratch):
            for name in os.listdir(scratch):
                os.remove(os.path.join(scratch, name))
            os.rmdir(scratch)
    if not os.path.exists(report_path):
        raise RuntimeError("perfbench exited %d without a report" % proc.returncode)
    with open(report_path) as f:
        raw = json.load(f)
    spans = metrics.load_spans(spans_path) if args.trace else []
    return proc.returncode, raw, spans, spans_path


def fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up: the self-test mode")
    args = p.parse_args()

    try:
        bench = declared()
        binary = build()
        rc, raw, spans, spans_path = run_harness(binary, args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2

    env = raw["env"]
    if env.get("optimized") != "yes":
        log("perfbench: refusing a non-optimised build")
        return 2
    serve = args.workload == "serve_mix"
    aliases = SERVE_ALIASES if serve else SOLVER_ALIASES

    print("== perfbench %s  seed=%d  seconds=%g  trace=%d%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             "  (smoke)" if args.smoke else ""))
    print("environment: git=%s nproc=%d llc=%d B build=%s compiler=%s "
          "threads=%d working_set=%d B (%.2fx LLC)"
          % (git_sha(), env["nproc"], env["llc_bytes"], env["build_type"],
             env["compiler"], env["threads"], env["working_set_bytes"],
             env["working_set_bytes"] / max(1, env["llc_bytes"])))
    inputs = {k: v for k, v in env.items() if k.startswith("input_")
              or k in ("points", "ranks", "clients", "series_pool",
                       "triad_array_bytes", "dialect", "propagation")}
    print("inputs: " + " ".join("%s=%s" % (k, fmt(v)) for k, v in sorted(inputs.items())))
    for c in raw["checks"]:
        print("check %-36s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))

    e2e, printed, tail, notes = metrics.end_to_end(raw)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print("end-to-end (%d x %s, untraced window %.3f s):"
          % (len(raw["op_ms"]), raw["op_name"], raw["window_s"]))
    for name, value in e2e.items():
        alias = aliases[name]
        shown = value / 1e6 if alias == "mflups" else value
        unit = "MFLUPS" if alias == "mflups" else units[name]
        print("  %-14s %-16s %12.6g %s" % (name, "(" + alias + ")", shown, unit))
    if tail == 50.0:
        del printed["op_ms_tail"]  # the sample supports no tail beyond p50
    for name, value in printed.items():
        alias = aliases[name] % tail if "%" in aliases[name] else aliases[name]
        print("  %-14s %-16s %12.6g ms (printed, not gated)"
              % ("", "(" + alias + ")", value))
    failed_share = raw["failed"] / max(1, raw["attempted"])
    print("  %-14s %-16s %12.6g (%d of %d operations)"
          % ("failed_share", "", failed_share, raw["failed"], raw["attempted"]))
    for n in notes:
        print("  note: " + n)

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        layer, not_reached = metrics.per_layer(raw, spans, names)
        lunits = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print("per-layer (traced window %.3f s; spans in %s):"
              % (raw["traced_window_s"], os.path.relpath(spans_path, ROOT)))
        for name in names:
            mark = "  (layer not reached by this workload)" if name in not_reached else ""
            print("  %-38s %14.6g %s%s" % (name, layer[name], lunits[name], mark))
        print("measured composition of the traced window (self time by layer):")
        for lyr, secs, share in metrics.composition(spans):
            print("  %-12s %9.3f s  %5.1f%%" % (lyr, secs, share * 100.0))
        result_metrics = {n: {"value": layer[n], "unit": lunits[n]} for n in names}
    else:
        result_metrics = {n: {"value": e2e[n], "unit": units[n]} for n in units}

    correct = rc == 0 and all(c["ok"] for c in raw["checks"]) and raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
