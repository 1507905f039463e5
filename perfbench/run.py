"""Benchmark: time to an exact verdict on ordsplit's documents.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

One caller in a closed loop, in this process: the next query starts when
the previous verdict returns (no threads, no worker processes; set-up time
is taken in fresh child processes started one at a time).  A run repeats
passes over the workload's documents for ``--seconds``; every verdict of
every pass is checked against an answer known in advance.

End-to-end times are in reference seconds (speed.py): each timed interval
is scaled by the machine's speed sampled during it, so that how busy the
machine's neighbours were cancels out; then the median over the run's
passes is taken.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run spends half its time on
untraced passes, then wraps ordsplit's layers from outside (tracer.py) and
reports per-layer calls and self times.  The lines before it are a
human-readable account.  The exit code is 0 only when every verdict agrees
with its known answer.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
MIN_PASSES = 2


def _import_ordsplit():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ordsplit
    except ImportError as exc:
        sys.exit(f"cannot import ordsplit from {ROOT / 'src'}: {exc}")
    if Path(ordsplit.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"ordsplit was imported from {ordsplit.__file__}, not from this checkout")


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class SetupProbe:
    """Reference seconds to import ordsplit and parse the documents, in a fresh process."""

    def __init__(self, invocations):
        self.payload = json.dumps([inv.text for inv in invocations])
        self.times: list[float] = []
        self._probe()  # may write bytecode caches, so it is not counted
        self.times.clear()

    def _probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=self.payload, capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        self.times.append(float(proc.stdout.strip()))

    def due(self, elapsed: float, seconds: float) -> None:
        """Probe when the run has reached the next of SETUP_PROBES even steps."""
        if len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * seconds / SETUP_PROBES:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return self.times


def run_passes(workloads, invocations, seconds: float, tracer=None, on_pass=None, probe=None,
               meter=None):
    # Set-up probes are spread over the run, between passes, so that a slow
    # spell of the machine reaches only some of them.
    passes = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() < started + seconds:
        if probe:
            probe.due(perf_counter() - started, seconds)
        if tracer:
            tracer.reset()
        p = workloads.run_pass(invocations, tracer, meter)
        passes.append(p)
        if on_pass:
            on_pass(p)
    return passes


def check_passes(passes, reference: dict) -> list[str]:
    problems = []
    for p in passes:
        for label, qid, op, _, result in p.samples:
            if result == "failed":
                problems.append(f"{label}:{qid} ({op}) contradicts its known answer or raised")
        for label, text in p.reports.items():
            if text != reference[label]:
                problems.append(f"{label}: report differs from ordsplit.document.run's")
    return sorted(set(problems))


def to_reference(passes, meter) -> None:
    """Rewrite the passes' seconds as reference seconds; after meter.stop()."""
    for p in passes:
        p.wall_s = meter.reference_seconds(*p.marks)
        p.samples = [
            (label, qid, op, meter.reference_seconds(*marks), result)
            for (label, qid, op, _, result), marks in zip(p.samples, p.sample_marks)
        ]


def median_per_query(passes) -> dict:
    """(label, query id, op) -> the query's median seconds over the passes."""
    times: dict = {}
    for p in passes:
        for label, qid, op, dt, _ in p.samples:
            times.setdefault((label, qid, op), []).append(dt)
    return {key: statistics.median(v) for key, v in times.items()}


def end_to_end(passes, setup: list[float]) -> dict:
    samples = [s for p in passes for s in p.samples]
    query_ms = [dt * 1000 for dt in median_per_query(passes).values()]
    p90 = query_ms[0]
    if len(query_ms) > 1:
        p90 = statistics.quantiles(query_ms, n=10, method="inclusive")[-1]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "query_ms_p50": (statistics.median(query_ms), "ms"),
        "query_ms_p90": (p90, "ms"),
        "decided_ratio": (sum(1 for s in samples if s[4] == "decided") / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_workload_detail(workloads, name: str, invocations, passes) -> None:
    """Workload-specific figures, printed by name with their unit."""
    times = median_per_query(passes)
    samples = [s for p in passes for s in p.samples]
    failed = sum(1 for s in samples if s[4] == "failed")
    print(f"queries per pass: {len(passes[0].samples)} (the query_ms sample count); "
          f"passes: {len(passes)}; verdicts checked: {len(samples)}; "
          f"failed_ratio: {failed / len(samples):.4f}")
    for inv in invocations:
        # For the catalog these are default_s and doubled_s.
        label_s = statistics.median(
            sum(s[3] for s in p.samples if s[0] == inv.label) for p in passes
        )
        print(f"{inv.label}_s: {label_s:.4f} s (its queries, median pass); "
              f"report sha256 {workloads.sha256(passes[0].reports[inv.label])}")
    if name == "random-documents":
        for inv in invocations:
            part = [s for s in samples if s[0] == inv.label]
            undecided = sum(1 for s in part if s[4] == "undecided")
            print(f"{inv.label}: {len(part) // len(passes)} queries per pass, "
                  f"undecided ratio {undecided / len(part):.4f}")
        return  # hundreds of generated queries; the summary above covers them
    sizes = workloads.sweep_window_sizes() if name == "pullback-sweep" else {}
    if sizes:
        k3 = times[("sweep", "k3", "pullback_strong")]
        k10 = times[("sweep", "k10", "pullback_strong")]
        print(f"k3_ms: {k3 * 1000:.3f} ms; k10_ms: {k10 * 1000:.3f} ms; "
              f"window_growth: {k10 / k3:.3f}")
    print(f"{'label':<8} {'query':<28} {'op':<22} {'median_ms':>10}" + ("  window" if sizes else ""))
    for (label, qid, op), dt in times.items():
        extra = f"  {sizes[qid]}" if sizes else ""
        print(f"{label:<8} {qid:<28} {op:<22} {dt * 1000:>10.3f}{extra}")


def traced_run(workloads, tracer_mod, name, invocations, seconds):
    """Untraced passes, then traced ones; per-layer figures and the overhead."""
    untraced = run_passes(workloads, invocations, seconds / 2)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    folds = []

    def fold(p):
        calls, selft = tracer.fold()
        folds.append((calls, selft, dict(tracer.counters), len(tracer.nid)))

    try:
        traced = run_passes(workloads, invocations, seconds / 2, tracer, fold)
    finally:
        tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}.tsv.gz"
    written = tracer.write_spans(spans_path)

    # Counts are the same in every pass; times are the fastest pass's.
    spans = tracer_mod.span_names()
    calls = {s: min(f[0].get(s, 0) for f in folds) for s in spans}
    selft = {s: min(f[1].get(s, 0.0) for f in folds) for s in spans}
    print(f"{'span':<44} {'calls':>10} {'self_s':>12}")
    for span in spans:
        print(f"{span:<44} {calls[span]:>10.0f} {selft[span]:>12.6f}")
    metrics = {f"{s}.calls": (calls[s], "count") for s in spans}
    for span in tracer_mod.SELF_TIME_SPANS:
        metrics[f"{span}.self_s"] = (selft[span], "s")
    for layer in tracer_mod.SELF_TIME_LAYERS:
        total = sum(v for s, v in selft.items() if s.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (total, "s")
    for counter in tracer_mod.counter_names():
        metrics[counter] = (min(f[2].get(counter, 0) for f in folds), "count")
    untraced_wall = min(p.wall_s for p in untraced)
    traced_wall = min(p.wall_s for p in traced)
    metrics["trace.spans"] = (min(f[3] for f in folds), "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    if name == "pullback-sweep":
        items = ", ".join(f"{q}: {n}" for q, n in tracer.items_by_query.items())
        print(f"groups.window_elements.items by query, last pass: {items}")
    print(f"untraced wall_s {untraced_wall:.4f} s over {len(untraced)} passes; traced "
          f"wall_s {traced_wall:.4f} s over {len(traced)} passes; "
          f"{written} spans of the last pass in {spans_path.relative_to(ROOT)}")
    missing = [s for s in workloads.MUST_REACH[name] if not calls[s]]
    return untraced + traced, metrics, missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("catalog", "pullback-sweep", "random-documents"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_ordsplit()
    import tracer as tracer_mod
    import workloads
    import speed

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    invocations = workloads.WORKLOADS[args.workload](args.seed)
    reference = workloads.reference_reports(invocations)

    missing = []
    if args.trace:
        passes, metrics, missing = traced_run(
            workloads, tracer_mod, args.workload, invocations, args.seconds
        )
    else:
        probe = SetupProbe(invocations)
        meter = speed.SpeedMeter()
        meter.start()
        try:
            passes = run_passes(workloads, invocations, args.seconds, probe=probe, meter=meter)
        finally:
            meter.stop()
        to_reference(passes, meter)
        print(f"speed meter: {len(meter.samples)} kernel samples, median "
              f"{statistics.median(meter.samples) * 1e6:.1f} us against the reference "
              f"{speed.REFERENCE_S * 1e6:.1f} us")
        setup = probe.finish()
        print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)}")
        metrics = end_to_end(passes, setup)
    problems = check_passes(passes, reference)
    problems += [f"traced span {s} recorded no call" for s in missing]
    if {k: u for k, (_, u) in metrics.items()} != declared_metrics(args.trace):
        problems.append("metrics printed differ from those BENCHMARK.json lists")

    print_workload_detail(workloads, args.workload, invocations, passes)
    for key, (value, unit) in metrics.items():
        print(f"{key:<48} {value:>14.6f} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    samples = [s for p in passes for s in p.samples]
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s[4] == "failed"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
