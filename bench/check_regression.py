#!/usr/bin/env python3
"""CI bench-regression gate for BENCH_rt_throughput.json.

Compares a fresh Release run of bench/rt_throughput against the committed
baseline (bench/baselines/BENCH_rt_throughput.json) and exits non-zero when
any gated metric regresses by more than the threshold (default 25%).

Absolute windows/s are machine-dependent (a laptop baseline vs a CI runner
can differ by far more than any real regression), so by default every
throughput metric is NORMALISED by the same run's `float_single_wps` — the
plainest single-threaded loop in the bench, which acts as a proxy for the
machine's scalar speed. A >25% drop in a *normalised* metric means the code
path got slower relative to the machine, which is what a regression gate
should catch. Pass --absolute to compare raw windows/s instead (only
meaningful when baseline and fresh run share hardware).

Refinements that keep the gate honest:

* The normaliser itself cannot be gated as a ratio (it is 1.0 by
  construction, so a uniform slowdown that hits every path proportionally
  would sail through). It is therefore compared in ABSOLUTE windows/s, but
  only when baseline and fresh run report the same `hardware_threads` —
  cross-machine absolute numbers would false-alarm.
* Thread-scaling metrics (the sharded/continuous/streaming sections, the
  replay x-real-time multiples and the network-gateway serving rates, which
  all run through the same threaded engine) are gated whenever the fresh
  run has AT LEAST as many hardware threads as the baseline: extra cores
  can only help those paths, so the baseline's machine-normalised ratio is
  a safe floor. They are skipped only on a smaller machine than the
  baseline's.
* Latency metrics are LOWER-is-better: they are normalised by multiplying
  with the run's own machine speed (latency x float_single_wps = "windows'
  worth of work per delivery"), and a regression is an INCREASE beyond the
  threshold. The same floor argument as the throughput metrics applies in
  mirror image — extra cores can only drain the pipeline faster — so they
  are gated whenever the fresh run has at least as many hardware threads as
  the baseline, and reported otherwise.
* A metric present in the fresh run but absent from the committed baseline
  is NEW since the baseline was written: it is reported, not gated, so a
  bench can grow without a lockstep baseline refresh. A metric absent from
  the fresh run means the bench shrank, which fails loudly.

Usage: check_regression.py FRESH_JSON BASELINE_JSON [--threshold 0.25]
       [--absolute]
       check_regression.py --self-test
"""

import argparse
import json
import sys

NORMALIZER = "float_single_wps"

# Dotted paths into the bench JSON. Everything here is a windows/s rate
# (higher is better) unless listed in LOWER_IS_BETTER. Ratios like
# float_batch64_speedup are implied by their numerators and deliberately not
# double-gated.
METRICS = [
    "float_single_wps",
    "float_batch64_wps",
    "float_batch256_wps",
    "fixed_single_wps",
    "fixed_batch64_wps",
    "fixed_kernel_branchfree_wps",
]
THREADED_METRICS = [
    "sharded.workers_1_wps",
    "sharded.workers_2_wps",
    "sharded.workers_4_wps",
    "continuous.workers_1_wps",
    "continuous.workers_2_wps",
    "continuous.workers_4_wps",
    "streaming.extract_wps",
    "streaming.classify_wps",
    "streaming.e2e_wps",
]
# x-real-time replay multiples (higher is better): dimensionless ratios of
# recorded seconds to wall seconds, but machine-dependent like any
# throughput, so they normalise and gate exactly like the thread-scaling
# metrics (the replay runs through the threaded engine).
REPLAY_METRICS = [
    "replay.x_realtime_1w",
    "replay.x_realtime_2w",
]
# Network-gateway serving rates: the UDS-loopback round trip runs through
# the same threaded engine plus socket I/O, so they normalise and gate like
# the thread-scaling class (the delivery percentiles gate lower-is-better
# below; net.streams is a configured count, recorded but not gated).
NET_METRICS = [
    "net.ingest_msamples_s",
    "net.round_trip_wps",
]
# Multi-workload serving rates (apnea + AF screening multiplexed through one
# engine at 2 workers, plus the apnea-only baseline on the same ward):
# threaded-engine rates, so they normalise and gate like the thread-scaling
# class. The dual_vs_single ratio is implied by its numerator/denominator
# (not double-gated, like the batch speedups), and af.af_windows is a
# deterministic per-pass count, recorded but not gated. The quality-gate
# window/span counters (quality.windows_annotated etc.) are likewise exact
# schedule-independent counts: recorded for the run page, never gated —
# only the gate's scan cost gates, lower-is-better below.
AF_METRICS = [
    "af.apnea_only_wps",
    "af.dual_total_wps",
    "af.dual_af_wps",
]
# Lane-parallel extraction rates (single-threaded, so they normalise and
# gate like the plain METRICS class) and the lane-vs-scalar speedups (already
# dimensionless: compared raw). Both depend on which SIMD tier runtime
# dispatch picked, so they are gated only when `lanes.isa` matches the
# baseline's — a baseline recorded on an AVX2 host must not fail a SSE2-only
# runner (tier mismatch is reported, not failed).
LANES_METRICS = [
    "lanes.patients_1_wps",
    "lanes.patients_4_wps",
    "lanes.patients_8_wps",
]
LANES_RATIO_METRICS = [
    "lanes.speedup_4p",
    "lanes.speedup_8p",
]
LOWER_IS_BETTER = [
    "continuous.latency_p50_ms",
    "continuous.latency_p99_ms",
    "streaming.e2e_latency_p50_ms",
    "streaming.e2e_latency_p99_ms",
    "net.delivery_p50_ms",
    "net.delivery_p99_ms",
    # Per-stage per-window feature costs (microseconds): the from-scratch
    # span-kernel work a segment-cache miss pays once per stride. They gate
    # exactly like the delivery latencies — lower is better, normalised by
    # the machine's scalar speed.
    "streaming.stage_rr_us",
    "streaming.stage_edr_us",
    "streaming.stage_welch_us",
    "streaming.stage_burg_us",
    # Signal-quality gate scan cost (nanoseconds per raw sample): pure
    # per-sample work on the stream path, so it gates like the stage costs.
    "quality.gate_ns_per_sample",
]
# Segment-cache hit rate: a dimensionless workload property (5 of 6 chunks
# per window are reused at the paper's 6x overlap), machine-independent, so
# it is compared RAW and gated on any host once the baseline records it
# (report-not-fail on first appearance, like every new metric).
RATIO_METRICS = [
    "features.cache_hit_rate",
]


def lookup(doc, path):
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def evaluate(fresh, baseline, threshold, absolute=False, echo=print):
    """Compare the two runs; returns the list of failure strings."""
    fresh_hw = fresh.get("hardware_threads") or 0
    base_hw = baseline.get("hardware_threads") or 0
    same_hw = fresh_hw == base_hw
    scale_armed = fresh_hw >= base_hw  # More cores can only help the threaded paths.
    if not same_hw:
        echo(f"note: hardware_threads differ (baseline {base_hw}, fresh {fresh_hw}); "
             f"the normaliser is not gated absolutely, and thread-scaling/latency metrics "
             f"are {'gated against the baseline floor' if scale_armed else 'reported but not gated'}")

    fresh_isa = lookup(fresh, "lanes.isa")
    base_isa = lookup(baseline, "lanes.isa")
    isa_match = fresh_isa is not None and fresh_isa == base_isa
    if base_isa is not None and fresh_isa is not None and not isa_match:
        echo(f"note: lane dispatch tier differs (baseline {base_isa!r}, fresh {fresh_isa!r}); "
             f"lane metrics are reported but not gated")

    fresh_norm = lookup(fresh, NORMALIZER)
    base_norm = lookup(baseline, NORMALIZER)
    if not absolute and (not fresh_norm or not base_norm):
        echo(f"error: normaliser {NORMALIZER!r} missing from an input")
        return [f"{NORMALIZER}: missing"]

    mode = "absolute" if absolute else f"normalised by {NORMALIZER}"
    echo(f"bench regression gate: threshold {threshold:.0%}, {mode}")
    echo(f"{'metric':<34} {'baseline':>12} {'fresh':>12} {'change':>8}  verdict")

    failures = []
    for metric in (METRICS + THREADED_METRICS + REPLAY_METRICS + NET_METRICS +
                   AF_METRICS + LANES_METRICS + LANES_RATIO_METRICS + RATIO_METRICS +
                   LOWER_IS_BETTER):
        base_value = lookup(baseline, metric)
        fresh_value = lookup(fresh, metric)
        if base_value is None or fresh_value is None:
            # A metric absent from the baseline is new since it was committed:
            # nothing to gate against (report-not-fail on first appearance).
            # Absent from the fresh run = bench shrank: fail loudly.
            if fresh_value is None:
                failures.append(f"{metric}: missing from fresh run")
                echo(f"{metric:<34} {base_value or 0:>12.1f} {'MISSING':>12} {'':>8}  FAIL")
            else:
                echo(f"{metric:<34} {'(new)':>12} {fresh_value:>12.1f} {'':>8}  skip")
            continue
        lower_better = metric in LOWER_IS_BETTER
        is_normalizer = metric == NORMALIZER
        if absolute or is_normalizer:
            # The normaliser's self-ratio is 1.0 by construction, so it is
            # always judged in absolute terms — and absolute comparisons are
            # only meaningful on the baseline's own hardware.
            gated = same_hw
            base_score, fresh_score = base_value, fresh_value
        elif lower_better:
            # Latency x machine speed: "windows' worth of work" per delivery.
            gated = scale_armed
            base_score, fresh_score = base_value * base_norm, fresh_value * fresh_norm
        elif metric in LANES_RATIO_METRICS:
            # Lane-vs-scalar speedups are dimensionless: compared raw, gated
            # only on the baseline's dispatch tier.
            gated = isa_match
            base_score, fresh_score = base_value, fresh_value
        elif metric in LANES_METRICS:
            gated = isa_match
            base_score, fresh_score = base_value / base_norm, fresh_value / fresh_norm
        elif metric in RATIO_METRICS:
            # Workload ratios (e.g. cache hit rate) are machine-independent:
            # compared raw and gated on any host.
            gated = True
            base_score, fresh_score = base_value, fresh_value
        else:
            gated = (scale_armed if metric in THREADED_METRICS + REPLAY_METRICS + NET_METRICS +
                     AF_METRICS else True)
            base_score, fresh_score = base_value / base_norm, fresh_value / fresh_norm
        change = fresh_score / base_score - 1.0 if base_score else 0.0
        regressed = change > threshold if lower_better else change < -threshold
        lanes_metric = metric in LANES_METRICS + LANES_RATIO_METRICS
        skip_label = "skip (isa)" if lanes_metric and not isa_match else "skip (hw)"
        verdict = "ok" if not regressed else ("FAIL" if gated else skip_label)
        if regressed and gated:
            limit = f"+{threshold:.0%}" if lower_better else f"-{threshold:.0%}"
            failures.append(f"{metric}: {change:+.1%} (limit {limit})")
        echo(f"{metric:<34} {base_value:>12.1f} {fresh_value:>12.1f} {change:>+7.1%}  {verdict}")
    return failures


# --- Self-test ---------------------------------------------------------------

def _doc(hw=4, norm=1000.0, **overrides):
    """A synthetic bench JSON with every gated metric present."""
    doc = {"hardware_threads": hw, NORMALIZER: norm}
    for metric in METRICS:
        doc.setdefault(metric, 500.0)
    for metric in (THREADED_METRICS + REPLAY_METRICS + NET_METRICS + AF_METRICS +
                   LANES_METRICS + LOWER_IS_BETTER):
        head, leaf = metric.split(".")
        doc.setdefault(head, {})[leaf] = 5.0 if leaf.endswith(("_ms", "_us", "_per_sample")) \
            else 800.0
    for metric in LANES_RATIO_METRICS:
        head, leaf = metric.split(".")
        doc.setdefault(head, {})[leaf] = 2.0
    for metric in RATIO_METRICS:
        head, leaf = metric.split(".")
        doc.setdefault(head, {})[leaf] = 0.85
    doc.setdefault("lanes", {}).setdefault("isa", "avx2")
    for path, value in overrides.items():
        head, _, leaf = path.partition(".")
        if leaf:
            doc.setdefault(head, {})[leaf] = value
        else:
            doc[head] = value
    return doc


def self_test():
    """Unit-style checks of the gating logic (run from ctest)."""
    quiet = lambda *_args, **_kw: None
    checks = []

    def check(name, got, want):
        checks.append((name, got == want, got, want))

    # Identical runs pass.
    check("identical runs pass", evaluate(_doc(), _doc(), 0.25, echo=quiet), [])
    # A >25% normalised throughput drop fails; a small one passes.
    check("big throughput drop fails",
          len(evaluate(_doc(**{"fixed_batch64_wps": 300.0}), _doc(), 0.25, echo=quiet)), 1)
    check("small throughput drop passes",
          evaluate(_doc(**{"fixed_batch64_wps": 450.0}), _doc(), 0.25, echo=quiet), [])
    # Improvements pass.
    check("improvement passes",
          evaluate(_doc(**{"streaming.e2e_wps": 5000.0}), _doc(), 0.25, echo=quiet), [])
    # New metric (absent from baseline) is reported, not gated.
    base_without = _doc()
    del base_without["streaming"]
    check("new metrics skip", evaluate(_doc(), base_without, 0.25, echo=quiet), [])
    # Metric missing from the fresh run fails (3 throughput + 2 latency +
    # 4 per-stage costs).
    fresh_without = _doc()
    del fresh_without["streaming"]
    failures = evaluate(fresh_without, _doc(), 0.25, echo=quiet)
    check("shrunken bench fails", len(failures), 9)
    # Latency: an increase beyond the threshold fails, a decrease passes.
    check("latency increase fails",
          len(evaluate(_doc(**{"continuous.latency_p99_ms": 9.0}), _doc(), 0.25, echo=quiet)), 1)
    check("latency decrease passes",
          evaluate(_doc(**{"continuous.latency_p99_ms": 1.0}), _doc(), 0.25, echo=quiet), [])
    # Latency gates against the baseline floor on a bigger host (more cores
    # only drain faster) and is skipped on a smaller one.
    check("latency gated on bigger host",
          len(evaluate(_doc(hw=8, **{"continuous.latency_p99_ms": 9.0}), _doc(hw=4), 0.25,
                       echo=quiet)), 1)
    check("latency skipped on smaller host",
          evaluate(_doc(hw=2, **{"continuous.latency_p99_ms": 9.0}), _doc(hw=4), 0.25,
                   echo=quiet), [])
    # Thread-scaling metrics: gated with >= baseline cores, skipped below.
    check("thread metrics gated on bigger host",
          len(evaluate(_doc(hw=8, **{"sharded.workers_4_wps": 100.0}), _doc(hw=4), 0.25,
                       echo=quiet)), 1)
    check("thread metrics skipped on smaller host",
          evaluate(_doc(hw=2, **{"sharded.workers_4_wps": 100.0}), _doc(hw=4), 0.25,
                   echo=quiet), [])
    # Replay x-real-time multiples: same rules as the thread-scaling class —
    # normalised higher-is-better, gated only with >= baseline cores, and
    # report-not-fail before the baseline records them.
    check("replay regression fails",
          len(evaluate(_doc(**{"replay.x_realtime_1w": 100.0}), _doc(), 0.25, echo=quiet)), 1)
    check("replay improvement passes",
          evaluate(_doc(**{"replay.x_realtime_2w": 5000.0}), _doc(), 0.25, echo=quiet), [])
    check("replay skipped on smaller host",
          evaluate(_doc(hw=2, **{"replay.x_realtime_2w": 100.0}), _doc(hw=4), 0.25,
                   echo=quiet), [])
    base_without_replay = _doc()
    del base_without_replay["replay"]
    check("new replay metrics skip", evaluate(_doc(), base_without_replay, 0.25, echo=quiet), [])
    fresh_without_replay = _doc()
    del fresh_without_replay["replay"]
    check("missing replay metrics fail",
          len(evaluate(fresh_without_replay, _doc(), 0.25, echo=quiet)), 2)
    # Network serving metrics: throughput gates like the thread-scaling
    # class, delivery p99 gates lower-is-better, and the whole section is
    # report-not-fail until the baseline records it.
    check("net throughput regression fails",
          len(evaluate(_doc(**{"net.round_trip_wps": 100.0}), _doc(), 0.25, echo=quiet)), 1)
    check("net throughput improvement passes",
          evaluate(_doc(**{"net.ingest_msamples_s": 5000.0}), _doc(), 0.25, echo=quiet), [])
    check("net delivery p99 increase fails",
          len(evaluate(_doc(**{"net.delivery_p99_ms": 9.0}), _doc(), 0.25, echo=quiet)), 1)
    check("net skipped on smaller host",
          evaluate(_doc(hw=2, **{"net.round_trip_wps": 100.0}), _doc(hw=4), 0.25,
                   echo=quiet), [])
    base_without_net = _doc()
    del base_without_net["net"]
    check("new net metrics skip", evaluate(_doc(), base_without_net, 0.25, echo=quiet), [])
    fresh_without_net = _doc()
    del fresh_without_net["net"]
    check("missing net metrics fail",
          len(evaluate(fresh_without_net, _doc(), 0.25, echo=quiet)), 4)
    # Multi-workload serving rates gate like the thread-scaling class; the
    # quality-gate scan cost gates lower-is-better like the stage costs; and
    # the quality window/span counters live outside every gate list, so they
    # are report-only however wildly they move.
    check("af throughput regression fails",
          len(evaluate(_doc(**{"af.dual_af_wps": 100.0}), _doc(), 0.25, echo=quiet)), 1)
    check("af improvement passes",
          evaluate(_doc(**{"af.dual_total_wps": 5000.0}), _doc(), 0.25, echo=quiet), [])
    check("af skipped on smaller host",
          evaluate(_doc(hw=2, **{"af.dual_af_wps": 100.0}), _doc(hw=4), 0.25, echo=quiet), [])
    base_without_af = _doc()
    del base_without_af["af"]
    check("new af metrics skip", evaluate(_doc(), base_without_af, 0.25, echo=quiet), [])
    fresh_without_af = _doc()
    del fresh_without_af["af"]
    check("missing af metrics fail",
          len(evaluate(fresh_without_af, _doc(), 0.25, echo=quiet)), 3)
    check("gate scan cost increase fails",
          len(evaluate(_doc(**{"quality.gate_ns_per_sample": 9.0}), _doc(), 0.25,
                       echo=quiet)), 1)
    check("gate scan cost decrease passes",
          evaluate(_doc(**{"quality.gate_ns_per_sample": 1.0}), _doc(), 0.25, echo=quiet), [])
    check("quality counters are report-only",
          evaluate(_doc(**{"quality.windows_suppressed": 999.0}),
                   _doc(**{"quality.windows_suppressed": 1.0}), 0.25, echo=quiet), [])
    fresh_without_quality = _doc()
    del fresh_without_quality["quality"]
    check("missing gate scan cost fails",
          len(evaluate(fresh_without_quality, _doc(), 0.25, echo=quiet)), 1)
    # Lane metrics: gated while the dispatch tier matches the baseline's,
    # reported-not-failed on a tier mismatch, and report-not-fail before the
    # baseline records the section at all.
    check("lane throughput regression fails",
          len(evaluate(_doc(**{"lanes.patients_4_wps": 100.0}), _doc(), 0.25, echo=quiet)), 1)
    check("lane speedup regression fails",
          len(evaluate(_doc(**{"lanes.speedup_8p": 1.0}), _doc(), 0.25, echo=quiet)), 1)
    check("lane improvement passes",
          evaluate(_doc(**{"lanes.speedup_4p": 4.0}), _doc(), 0.25, echo=quiet), [])
    check("lane metrics skipped on isa mismatch",
          evaluate(_doc(**{"lanes.isa": "sse2", "lanes.patients_4_wps": 100.0,
                           "lanes.speedup_4p": 1.0}),
                   _doc(), 0.25, echo=quiet), [])
    base_without_lanes = _doc()
    del base_without_lanes["lanes"]
    check("new lane metrics skip", evaluate(_doc(), base_without_lanes, 0.25, echo=quiet), [])
    fresh_without_lanes = _doc()
    del fresh_without_lanes["lanes"]
    check("missing lane metrics fail",
          len(evaluate(fresh_without_lanes, _doc(), 0.25, echo=quiet)), 5)
    # Per-stage feature costs gate lower-is-better like the delivery
    # latencies; the segment-cache hit rate is compared raw and gated on any
    # host, with report-not-fail before the baseline records the section.
    check("stage cost increase fails",
          len(evaluate(_doc(**{"streaming.stage_welch_us": 9.0}), _doc(), 0.25, echo=quiet)), 1)
    check("stage cost decrease passes",
          evaluate(_doc(**{"streaming.stage_welch_us": 1.0}), _doc(), 0.25, echo=quiet), [])
    check("hit-rate drop fails",
          len(evaluate(_doc(**{"features.cache_hit_rate": 0.5}), _doc(), 0.25, echo=quiet)), 1)
    check("hit-rate gated even cross-hardware",
          len(evaluate(_doc(hw=2, **{"features.cache_hit_rate": 0.5}), _doc(hw=4), 0.25,
                       echo=quiet)), 1)
    base_without_features = _doc()
    del base_without_features["features"]
    check("new hit-rate skips", evaluate(_doc(), base_without_features, 0.25, echo=quiet), [])
    fresh_without_features = _doc()
    del fresh_without_features["features"]
    check("missing hit-rate fails",
          len(evaluate(fresh_without_features, _doc(), 0.25, echo=quiet)), 1)
    # A uniform slowdown cannot hide in the ratios on same hardware: the
    # normaliser is gated absolutely.
    uniform = _doc(norm=500.0)
    for metric in METRICS:
        uniform[metric] = 250.0
    check("uniform slowdown caught via absolute normaliser",
          len(evaluate(uniform, _doc(), 0.25, echo=quiet)) >= 1, True)

    failed = [c for c in checks if not c[1]]
    for name, ok, got, want in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f" (got {got!r}, want {want!r})"))
    if failed:
        print(f"self-test: {len(failed)}/{len(checks)} checks failed")
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="?", help="JSON written by the fresh bench run")
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="maximum allowed fractional regression (default 0.25)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw windows/s instead of machine-normalised ratios")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.fresh or not args.baseline:
        parser.error("FRESH_JSON and BASELINE_JSON are required (or use --self-test)")

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = evaluate(fresh, baseline, args.threshold, args.absolute)
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed beyond {args.threshold:.0%}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no gated metric regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
