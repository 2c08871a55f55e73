"""Statistics helpers and metric derivation for the repository benchmark.

The C++ harness (perfbench) writes raw samples, exact counters and spans;
everything here is pure Python so it can be unit-tested without a build
(see selftest.py).
"""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Percentiles the tail helper may pick from.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def valid_name(name):
    """Metric names follow the grammar [A-Za-z0-9_.-]+."""
    return bool(NAME_RE.match(name))


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def supported_percentile(n, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """Highest ladder percentile with at least `min_beyond` of `n` samples
    beyond it, or None when even the lowest rung is unsupported."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            best = p
    return best


def self_times(spans):
    """Self time of every span, by id: its duration minus the part of its
    interval that its child spans cover (overlapping children counted
    once, children clipped to the parent)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def layer_of(span_name):
    return span_name.split(":", 1)[0]


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return [s for s in spans if s["end_ns"] >= s["start_ns"]]


def root_of(span, by_id):
    while span["parent"] >= 0:
        span = by_id[span["parent"]]
    return span["id"]


# ---------------------------------------------------------------------------
# Metric derivation
# ---------------------------------------------------------------------------

def end_to_end(raw):
    """The end-to-end metrics of one untraced window.  Returns (gated,
    printed, tail_p, notes): `gated` are the BENCHMARK.json metrics;
    `printed` are the median and tail operation times, which the report
    shows but BENCHMARK.json does not gate, because their run-to-run
    spread on a shared host reached the largest bound allowed."""
    ops = raw["op_ms"]
    tail = raw["tail_percentile"]
    notes = []
    supported = supported_percentile(len(ops))
    if supported is None or supported < tail:
        notes.append("only %d operations: p%g has fewer than %d samples "
                     "beyond it (supported: %s)"
                     % (len(ops), tail, MIN_BEYOND,
                        "none" if supported is None else "p%g" % supported))
        tail = supported if supported is not None else 50.0
    gated = {
        "setup_s": median(raw["setup_s"]),
        "work_per_s": raw["work_items"] / raw["window_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    printed = {"op_ms_p50": median(ops), "op_ms_tail": percentile(ops, tail)}
    return gated, printed, tail, notes


def per_layer(raw, spans, declared):
    """Every declared per-layer metric for one traced run.  Metrics of a
    layer this workload does not reach are 0 and listed in `not_reached`."""
    layer = dict(raw["layer"])
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append((s["end_ns"] - s["start_ns"]) / 1e9)
    by_id = {s["id"]: s for s in spans}

    def durations(name):
        return by_name.get(name, [])

    def grouped_sum(prefix):
        """Median over top-level spans (one per set-up repetition or probe
        pass) of the summed duration of `prefix` spans beneath them."""
        groups = {}
        for s in spans:
            if s["name"].startswith(prefix):
                root = root_of(s, by_id)
                groups[root] = groups.get(root, 0.0) + (s["end_ns"] - s["start_ns"]) / 1e9
        return median(list(groups.values())) if groups else None

    points = raw["env"].get("points")
    out = {}
    out["host.triad_gbs"] = layer.get("host.triad_gbs")
    out["geom.voxelize_s"] = grouped_sum("geom:")
    out["decomp.partition_s"] = grouped_sum("decomp:")

    serial = layer.get("lbm.serial_mflups")
    out["lbm.serial_mflups"] = serial
    out["lbm.computed_bytes_per_point"] = layer.get("lbm.computed_bytes_per_point")
    out["lbm.model_bytes_per_point"] = layer.get("lbm.model_bytes_per_point")
    triad = layer.get("host.triad_gbs")
    for name, key in (("lbm.arch_eff", "lbm.computed_bytes_per_point"),
                      ("lbm.model_arch_eff", "lbm.model_bytes_per_point")):
        b = layer.get(key)
        out[name] = serial * 1e6 * b / (triad * 1e9) if serial and b and triad else None

    one = durations("hal:DeviceSolver::step@1t")
    two = durations("hal:DeviceSolver::step@2t")
    if one and points:
        step_1t = statistics.fmean(one)
        out["hal.step_ms_1t"] = step_1t * 1e3
        mflups_1t = points / step_1t / 1e6
        out["hal.tax_pct"] = (1.0 - mflups_1t / serial) * 100.0 if serial else None
        if two:
            out["hal.thread_scaling"] = step_1t / statistics.fmean(two)
    for key in ("hal.launches_per_step", "hal.indices_per_step",
                "hal.d2h_bytes_per_observe", "harvey.imbalance",
                "comm.halo_msgs_per_step", "comm.halo_bytes_per_step",
                "resilience.sdc_checks_per_step", "resilience.snapshots_per_step",
                "resilience.rollbacks", "resilience.retransmits",
                "io.checkpoint_mb", "rt.cache_hit_rate", "rt.cache_misses",
                "rt.executor_steals", "serve.coalesced_share",
                "serve.journal_records_per_request", "serve.max_queued",
                "serve.rejected_share"):
        out[key] = layer.get(key)

    plain = durations("harvey:DistributedSolver::step(plain)")
    resilient = durations("harvey:DistributedSolver::step")
    if plain:
        out["harvey.plain_step_ms"] = median(plain) * 1e3
        if resilient:
            out["resilience.overhead_pct"] = (median(resilient) / median(plain) - 1.0) * 100.0
    health = durations("resilience:check_health")
    if health:
        out["resilience.health_check_ms"] = median(health) * 1e3
    ckpt = durations("io:save_checkpoint")
    if ckpt:
        out["io.checkpoint_ms"] = median(ckpt) * 1e3
    price = durations("rt:price_point")
    if price:
        out["rt.price_point_us"] = median(price) * 1e6
    submit = durations("serve:Server::submit")
    if submit:
        out["serve.submit_us_p50"] = median(submit) * 1e6
    first = durations("serve:await_first_point")
    if first:
        out["serve.accept_to_first_point_ms_p50"] = median(first) * 1e3

    untraced = raw["work_items"] / raw["window_s"]
    traced = raw["traced_work_items"] / raw["traced_window_s"]
    out["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0

    not_reached = []
    metrics = {}
    for name in declared:
        value = out.get(name)
        if value is None:
            not_reached.append(name)
            value = 0.0
        metrics[name] = value
    return metrics, not_reached


def composition(spans, root_name="window"):
    """Self time per layer inside the traced window: the measured runtime
    composition.  Returns [(layer, seconds, share)] largest first."""
    by_id = {s["id"]: s for s in spans}
    windows = [s["id"] for s in spans if s["name"] == root_name]
    if not windows:
        return []
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        if s["name"] == root_name:
            continue
        # Spans of client threads have no parent in the window's thread;
        # they count when they fall inside the window's interval.
        w = by_id[windows[0]]
        if s["start_ns"] < w["start_ns"] or s["end_ns"] > w["end_ns"]:
            continue
        totals[layer_of(s["name"])] = totals.get(layer_of(s["name"]), 0.0) + selfs[s["id"]] / 1e9
    total = sum(totals.values()) or 1.0
    return sorted(((k, v, v / total) for k, v in totals.items()),
                  key=lambda kv: -kv[1])
