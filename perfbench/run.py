"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no probe attached.
``--trace 1`` runs the workload twice in one process, untraced and then with
the span recorder patched into every layer, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced CPU µs per op).

Every run checks the program's outputs (invariants, not fingerprints) and
exits 1 if a check fails.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, with the metrics
``BENCHMARK.json`` lists for the mode.  Everything else
(host block, parameters, sample counts) is printed before it and written,
with the recorded spans, under ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = "perfbench-out"


def metrics_of(section: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of every metric ``BENCHMARK.json`` lists under
    ``section`` (``end_to_end`` or ``per_layer``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def no_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0, for the layers a workload never runs."""
    return dict.fromkeys((name for name, _ in metrics_of("per_layer")), 0.0)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def core_layers(rec, ops: int, writes: int, reads: int) -> Dict[str, float]:
    """Per-layer metrics of the protocol layers both backends share."""
    us = 1e6
    detect = rec.calls("core.detection.detect")
    levels = rec.calls("core.detection.current_level")
    started = (rec.calls("core.resolution.start_background")
               + rec.calls("core.resolution.start_active"))
    return {
        "core.middleware.read.self_us_per_op":
            per_op(rec.self_seconds("core.middleware.read") * us, reads),
        "core.middleware.write.self_us_per_op":
            per_op(rec.self_seconds("core.middleware.write") * us, writes),
        "core.detection.detect.calls_per_op": per_op(detect, ops),
        "core.detection.detect.self_us_per_op":
            per_op(rec.self_seconds("core.detection.detect") * us, ops),
        "core.detection.ingest_digest.calls_per_op":
            per_op(rec.calls("core.detection.ingest_digest"), ops),
        "core.detection.ingest_digest.self_us_per_op":
            per_op(rec.self_seconds("core.detection.ingest_digest") * us, ops),
        "core.detection.current_level.calls_per_op": per_op(levels, ops),
        "core.detection.current_level.self_us_per_op":
            per_op(rec.self_seconds("core.detection.current_level") * us, ops),
        "core.detection.evals_per_write": per_op(detect + levels, writes),
        "core.quantify.calls_per_op":
            per_op(rec.calls("core.quantify.consistency_level"), ops),
        "core.resolution.rounds_started": started,
        "core.resolution.self_us_per_op":
            per_op(rec.self_seconds("core.resolution") * us, ops),
        "runtime.digest_cache.self_us_per_op":
            per_op(rec.self_seconds("runtime.digest_cache") * us, ops),
        "overlay.temperature.self_us_per_op":
            per_op(rec.self_seconds("overlay.temperature") * us, ops),
        "overlay.two_layer.self_us_per_op":
            per_op(rec.self_seconds("overlay.two_layer") * us, ops),
        "overlay.gossip.self_us_per_op":
            per_op(rec.self_seconds("overlay.gossip") * us, ops),
        "overlay.ransub.self_us_per_op":
            per_op(rec.self_seconds("overlay.ransub") * us, ops),
        "sim.engine.self_us_per_op":
            per_op(rec.self_seconds("sim.engine") * us, ops),
        "sim.network.send.self_us_per_op":
            per_op(rec.self_seconds("sim.network.send") * us, ops),
        "sim.network.deliver.self_us_per_op":
            per_op(rec.self_seconds("sim.network.deliver") * us, ops),
        "transport.endpoint.deliver.self_us_per_op":
            per_op(rec.self_seconds("transport.endpoint.deliver") * us, ops),
        "transport.endpoint.rpc_timeouts":
            rec.calls("transport.endpoint.rpc_timeout"),
        "versioning.merge.calls_per_op":
            per_op(rec.calls("versioning.merge"), ops),
        "versioning.self_us_per_op":
            per_op(rec.self_seconds("versioning") * us, ops),
        "store.append.calls_per_op": per_op(rec.calls("store.append"), ops),
        "store.self_us_per_op": per_op(rec.self_seconds("store") * us, ops),
        "live.wire.frames": rec.calls("live.wire.encode"),
        "live.wire.encode_us_per_frame":
            per_op(rec.self_seconds("live.wire.encode") * us,
                   rec.calls("live.wire.encode")),
        "live.wire.decode_us_per_frame":
            per_op(rec.self_seconds("live.wire.decode") * us,
                   rec.calls("live.wire.decode")),
        "live.wire.bytes_per_frame":
            per_op(rec.frame_bytes, rec.calls("live.wire.encode")),
        "live.transport.send.self_us_per_op":
            per_op(rec.self_seconds("live.transport") * us, ops),
    }


# --------------------------------------------------------------------------
# sim workloads
# --------------------------------------------------------------------------

def _digest_counts(d) -> Tuple[int, int]:
    hits = sum(rt.digests.hits for rt in d.runtimes.values())
    misses = sum(rt.digests.misses for rt in d.runtimes.values())
    return hits, misses


def sim_layers(run, rec, before: Dict[str, object]) -> Dict[str, float]:
    d = run.deployment
    a, b = run.start, run.end
    ops, writes, reads = b.ops - a.ops, b.writes - a.writes, b.reads - a.reads
    metrics = no_layer_metrics()
    metrics.update(core_layers(rec, ops, writes, reads))
    completed = sum(1 for managed in d.objects.values()
                    for r in managed.resolutions
                    if r.started_at >= run.measure_from)
    started = metrics["core.resolution.rounds_started"]
    hits, misses = _digest_counts(d)
    hits -= before["hits"]
    misses -= before["misses"]
    stats = d.network.stats
    sent = sum(stats.sent.values()) - before["sent"]
    delivered = sum(stats.delivered.values()) - before["delivered"]
    metrics.update({
        "core.resolution.rounds_completed": completed,
        "core.resolution.completed_ratio": per_op(completed, started),
        "runtime.digest_cache.hit_rate": per_op(hits, hits + misses),
        "sim.engine.events_per_op": per_op(b.events - a.events, ops),
        "sim.network.sent": sent,
        "sim.network.delivered": delivered,
        "sim.network.delivered_ratio": per_op(delivered, sent),
        "store.entries_folded":
            d.traffic.entries_folded - before["folded"],
        "store.peak_retained_entries": d.traffic.peak_retained_entries,
        "scenarios.fault_actions": run.fault_actions() - before["faults"],
        "perfbench.clients.retries_per_write":
            per_op(d.traffic.write_retries - before["retries"], writes),
        "perfbench.clients.failovers":
            d.traffic.failovers - before["failovers"],
    })
    for reason in ("loss", "src-down", "dst-down", "departed"):
        metrics[f"sim.network.dropped.{reason}"] = (
            stats.drop_reasons.get(reason, 0) - before["drops"].get(reason, 0))
    return metrics


def sim_snapshot(run) -> Dict[str, object]:
    d = run.deployment
    hits, misses = _digest_counts(d)
    stats = d.network.stats
    return {"hits": hits, "misses": misses,
            "sent": sum(stats.sent.values()),
            "delivered": sum(stats.delivered.values()),
            "drops": dict(stats.drop_reasons),
            "folded": d.traffic.entries_folded,
            "faults": run.fault_actions(),
            "retries": d.traffic.write_retries,
            "failovers": d.traffic.failovers}


def run_sim(w, seed: int, seconds: float, trace: bool, report: dict):
    from perfbench import simload
    from perfbench.spans import SpanRecorder

    if not trace:
        setup_s, run = simload.start(w, seed)
        run.warm_up()
        run.measure(seconds)
        summary = simload.summarize(run)
        problems = simload.check(run)
        summary["failed"] += run.deployment.traffic.writes_pending
        report["summary"] = summary
        metrics = {
            "ops_per_s": summary["ops_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "msgs_per_op": summary["msgs_per_op"],
            "bytes_per_op": summary["bytes_per_op"],
            "resolution_delay_p50_s": summary["resolution_delay_p50_s"],
            "resolution_delay_p90_s": summary["resolution_delay_p90_s"],
        }
        return problems, summary["ops"], summary["failed"], metrics

    # untraced reference pass, then the same seed with the recorder patched in
    _, plain = simload.start(w, seed)
    plain.warm_up()
    plain.measure(seconds / 2)
    untraced = simload.summarize(plain)
    problems = simload.check(plain)
    plain = None
    rec = SpanRecorder()
    try:
        rec.install()
        _, run = simload.start(w, seed)
        run.warm_up()
        rec.reset()
        before = sim_snapshot(run)
        run.measure(seconds / 2)
        rec.active = False
        summary = simload.summarize(run)
        metrics = sim_layers(run, rec, before)
        problems += simload.check(run)
        summary["failed"] += run.deployment.traffic.writes_pending
    finally:
        rec.restore()
    trace_overhead(metrics, untraced, summary)
    report["summary"] = summary
    report["untraced_summary"] = untraced
    report["spans"] = write_spans(rec, report)
    return problems, summary["ops"], summary["failed"], metrics


def trace_overhead(metrics, untraced, traced) -> None:
    plain_us = untraced["cpu_s"] / untraced["ops"] * 1e6
    traced_us = traced["cpu_s"] / traced["ops"] * 1e6
    metrics["perfbench.untraced_us_per_op"] = plain_us
    metrics["perfbench.traced_us_per_op"] = traced_us
    metrics["perfbench.trace_overhead_us_per_op"] = traced_us - plain_us


def write_spans(rec, report) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{report['workload']}"
                                 f"-s{report['seed']}.jsonl")
    rec.write(path)
    return path


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def run_all(names: List[str], args: argparse.Namespace) -> int:
    """Run every workload, one child process each, and sum up."""
    import subprocess

    results = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print(f"== {name} (exit {child.returncode})")
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except ValueError:
            results[name] = None
        if child.returncode != 0:
            results[name] = None
    print(json.dumps(results))
    return 0 if all(results.values()) else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing "
              f"({os.path.join(SRC, 'repro')})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    from perfbench.host import PROBE_REF_S, host_block

    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_block(), "params": w.params()}
    print(f"host: {json.dumps(report['host'])}")
    print(f"workload {w.name}: {json.dumps(report['params'])}")
    if w.kind == "sim":
        problems, attempted, failed, metrics = run_sim(
            w, args.seed, args.seconds, bool(args.trace), report)
    else:
        from perfbench import liveload

        problems, attempted, failed, metrics = liveload.run(
            w, args.seed, args.seconds, bool(args.trace), report)
    if not args.trace:
        # set-up is CPU-bound too: scale it by the probe taken just before
        report["setup_s_raw"] = metrics["setup_s"]
        metrics["setup_s"] *= PROBE_REF_S / (report["host"]["probe_ms"] / 1e3)
    wanted = metrics_of("per_layer" if args.trace else "end_to_end")
    unlisted = set(metrics) - {name for name, _ in wanted}
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unlisted)}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in wanted},
    }
    report["checks"] = problems
    report["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{w.name}-s{args.seed}"
                                    f"-t{args.trace}.json"),
              "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, default=str)
    for key, value in report.get("summary", {}).items():
        print(f"  {key}: {value}")
    if "setup_s_raw" in report:
        print(f"  setup_s_raw: {report['setup_s_raw']}")
    for name, unit in wanted:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
