"""One workload process: set up, report readiness, measure, report the result.

Started by ``run.py`` (never by hand) with the program's ``src`` on
``PYTHONPATH`` and ``GF2M_REPRO_CACHE_DIR`` pointing at this run's fresh
store.  Prints JSON lines on stdout: ``{"event": "ready"}`` when the
set-up's first results are back (``serve_http`` adds its server's own
``setup_s``), then, unless ``--mode setup``, checks the set-up results,
measures and ends with one ``result`` event.

With ``--trace 1`` the process also makes the traced pass: after the
untraced pass of ``--seconds`` it installs the span wrappers and runs the
same workload again for ``--seconds``; the difference between the two
passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import sys

from common import backend_stamp, emit, peak_rss_mb


#: Per-layer metrics taken from the untraced pass of a traced run.
UNTRACED_PER_LAYER = (
    "latency_p90_ms.low", "latency_p90_ms.high", "latency_p99_ms.low", "latency_p99_ms.high", "max_rate_rps",
)


def build(args):
    import workloads

    if args.workload == "ladder_batch":
        return workloads.LadderBatch(args.seed, args.tiny)
    if args.workload == "serve_burst":
        return workloads.ServeBurst(args.seed, args.tiny)
    if args.workload == "paper_flow":
        return workloads.PaperFlow(args.seed, args.tiny, args.scratch)
    if args.workload == "serve_http":
        import serve_http

        return serve_http.ServeHttp(args.seed, args.tiny, args.scratch)
    raise SystemExit(f"unknown workload {args.workload!r}")


def traced_figures(recorder, setup_spans, window, untraced, traced) -> dict:
    """Per-layer figures of the traced window, with its accounting."""
    import spans

    figures = spans.layer_metrics(recorder, setup_spans)
    figures.update(spans.counter_figures(window["start"], window["end"]))
    figures["trace.overhead_frac"] = traced["cost"] / untraced["cost"] - 1.0
    figures["loadgen.late_ms.p99"] = traced.get("late_p99_ms", 0.0)
    if "window" in traced:
        # Served requests of the low and high phases: the share of their
        # time (from due to answer) that no serve layer accounts for.
        start, end = traced["window"]
        accounted = spans.request_time_accounted(recorder, start, end)
        figures["trace.unattributed_frac"] = 1.0 - accounted / traced["window_latency_s"]
    else:
        covered = spans.top_level_coverage(recorder, traced["timed"])
        figures["trace.unattributed_frac"] = 1.0 - covered
    for name in ("route_ms.mean", "outside_route_ms.mean", "rejected_400"):
        figures[f"server.{name}"] = 0.0  # no HTTP server in this workload
    totals = traced.get("flow_totals", {})
    for name in ("luts", "slices", "axt"):
        figures[f"flow.{name}_total"] = float(totals.get(name, 0))
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace and args.workload != "serve_http":
        import spans

        recorder = spans.Recorder()
        recorder.install()
        recorder.active = True
    workload = build(args)
    traced = figures = None

    try:
        workload.setup()
        emit({"event": "ready", "setup_s": getattr(workload, "setup_sample", None)})
        if args.mode == "setup":
            return 0
        workload.prepare()
        if recorder is None:
            outcome = workload.measure(args.seconds)
            if args.trace:  # serve_http traces inside its own server process
                traced = workload.measure(args.seconds, traced=True)
                figures = workload.traced_figures(outcome, traced)
        else:
            setup_spans = recorder.spans
            recorder.active = False
            recorder.uninstall()
            outcome = workload.measure(args.seconds)
            recorder.install()
            window = {}

            def mark(label):
                # The traced window: the whole pass, unless the workload
                # narrows it to its low- and high-rate phases.
                if label == "start":
                    recorder.reset()
                    window["start"] = spans.registry_counters()
                    recorder.active = True
                else:
                    recorder.active = False
                    window["end"] = spans.registry_counters()

            mark("start")
            traced = workload.measure(args.seconds, mark)
            if recorder.active:
                mark("end")
            figures = traced_figures(recorder, setup_spans, window, outcome, traced)
    finally:
        workload.close()
    passes = [outcome] + ([traced] if traced is not None else [])
    rss = getattr(workload, "server_rss_mb", None) or peak_rss_mb()
    if figures is not None:
        # The tails and the capacity of the untraced pass, reported without a bound.
        figures.update({name: outcome["e2e"][name] for name in UNTRACED_PER_LAYER})
    emit({
        "event": "result",
        "attempted": sum(item["attempted"] for item in passes),
        "failed": sum(item["failed"] for item in passes) + int(workload.check_failed),
        "e2e": dict(outcome["e2e"], peak_rss_mb=rss),
        "e2e_raw": dict(outcome["e2e_raw"], peak_rss_mb=rss),
        "layers": figures,
        "backends": backend_stamp(),
        "log": outcome.get("log", ""),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
