"""Per-layer metrics from the traced run's spans.

The metric catalogue, and which end-to-end metric each should move,
is in perfbench/README.md.  A layer a workload never reaches reads 0.
"""

import statistics
from typing import Dict, Iterable, List, Optional

from repro.obs.profile import STAGES

from perfbench.tracer import Span

#: Machine configuration labels (see ``tracer._config_label``).
SIM_LABELS = ("base", "srt", "srt-ptsq", "lockstep", "crt", "srt-recovery")

#: Span name -> phase of an operation tree; spans of other names take
#: the phase of their nearest ancestor, and the root's own phase is
#: "unattributed".
PHASES = {
    "isa.generate": "generate",
    "core.build": "build",
    "core.warm": "warm",
    "core.run": "loop",
    "core.classify": "classify",
    "campaign.store": "store",
}
PHASE_NAMES = ("generate", "build", "warm", "loop", "classify", "store")

#: Root spans of one workload operation (tracer and workloads agree).
OP_ROOTS = ("bench.run", "bench.campaign", "serve.pool.execute")


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, inclusive method (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _named(spans: Iterable[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def phase_of(span: Span) -> Optional[str]:
    """Phase of ``span`` in its operation tree (None = unattributed)."""
    while span is not None:
        phase = PHASES.get(span.name)
        if phase is not None:
            return phase
        span = span.parent
    return None


def phase_split(spans: List[Span]) -> Dict[str, float]:
    """Self time by phase over the operation trees among ``spans``.

    The values, ``unattributed`` included, sum to the roots' total
    duration (``total``) because self times telescope.
    """
    roots = {id(span) for span in spans
             if span.parent is None and span.name in OP_ROOTS}
    split = {phase: 0.0 for phase in PHASE_NAMES}
    split["unattributed"] = 0.0
    split["total"] = 0.0
    for span in spans:
        if id(span.root()) not in roots:
            continue
        if span.parent is None:
            split["total"] += span.duration
        split[phase_of(span) or "unattributed"] += span.self_s
    return split


def counts(spans: Iterable[Span]) -> Dict[str, int]:
    """The exact counts: identical work must give identical values."""
    spans = list(spans)
    runs = _named(spans, "core.run")
    return {
        "isa.generate.calls": len(_named(spans, "isa.generate")),
        "core.golden.calls": len(_named(spans, "core.golden")),
        "sim.cycles_simulated": sum(s.attrs["cycles"] for s in runs),
        "sim.instrs_committed": sum(s.attrs["instrs"] for s in runs),
    }


def repeat_problem(window: List[Span]) -> Optional[str]:
    """Why the traced operations' exact counts differ, if they do.

    Every operation index (a sim-core pass, a campaign) repeats the
    same work, so its counts must repeat exactly.
    """
    by_op: Dict[int, List[Span]] = {}
    for span in window:
        op = span.root().attrs.get("op")
        if op is not None:
            by_op.setdefault(op, []).append(span)
    per_op = [counts(spans) for _, spans in sorted(by_op.items())]
    for index, values in enumerate(per_op[1:], start=1):
        if values != per_op[0]:
            return (f"exact counts of traced operation {index} "
                    f"{values} differ from operation 0 {per_op[0]}")
    return None


def common(window: List[Span], census: List[Span], plain_rate: float,
           traced_rate: float, wall: float) -> Dict[str, float]:
    """Metrics every workload reports.

    ``window`` is the traced window's spans, ``census`` the spans of a
    fixed unit of work (the kept set-up plus the first traced
    operation, or serve-mix's census misses) for the exact counts,
    ``wall`` the window's duration.
    """
    metrics: Dict[str, float] = {}
    runs = _named(window, "core.run")
    for label in SIM_LABELS:
        chosen = [s for s in runs if s.attrs.get("label") == label]
        metrics[f"sim.{label}.cycles_per_s"] = _ratio(
            sum(s.attrs["cycles"] for s in chosen),
            sum(s.self_s for s in chosen))
    exact = counts(census)
    metrics["sim.cycles_simulated"] = exact["sim.cycles_simulated"]
    metrics["sim.instrs_committed"] = exact["sim.instrs_committed"]
    metrics["core.warm.self_frac"] = _ratio(
        sum(s.self_s for s in _named(window, "core.warm")), wall)
    executor = _named(window, "isa.executor")
    metrics["isa.executor.steps_per_s"] = _ratio(
        sum(s.attrs["steps"] for s in executor),
        sum(s.duration for s in executor))
    metrics["core.classify.ms_per_task"] = 1e3 * _mean(
        [s.duration for s in _named(window, "core.classify")])
    metrics["core.golden.calls"] = exact["core.golden.calls"]
    generated = _named(census, "isa.generate")
    metrics["isa.generate.ms_per_program"] = 1e3 * _mean(
        [s.duration for s in _named(census + window, "isa.generate")])
    metrics["isa.generate.calls"] = len(generated)
    metrics["isa.generate.useful_ratio"] = _ratio(
        len({s.attrs["program"] for s in generated}), len(generated))
    tasks = [1e3 * s.duration for s in _named(window, "campaign.task")]
    metrics["campaign.task.p50_ms"] = percentile(tasks, 50)
    metrics["campaign.task.p90_ms"] = percentile(tasks, 90)
    split = phase_split(window)
    for phase in PHASE_NAMES:
        metrics[f"campaign.{phase}.self_frac"] = _ratio(split[phase],
                                                        split["total"])
    metrics["campaign.unattributed_frac"] = _ratio(split["unattributed"],
                                                   split["total"])
    metrics["trace.overhead_frac"] = _ratio(plain_rate, traced_rate) - 1.0
    return metrics


def serve(window: List[Span], miss_latencies: List[float],
          rejected: int) -> Dict[str, float]:
    """serve-mix metrics; other workloads report them as 0."""
    gets = _named(window, "serve.cache.get")
    pools = _named(window, "serve.pool.execute")
    metrics = {
        "serve.cache.get_ms": 1e3 * _mean([s.duration for s in gets]),
        "serve.cache.put_ms": 1e3 * _mean(
            [s.duration for s in _named(window, "serve.cache.put")]),
        "serve.cache.hit_ratio": _ratio(
            sum(1 for s in gets if s.attrs.get("hit")), len(gets)),
        "serve.pool.execute_p50_ms": percentile(
            [1e3 * s.duration for s in pools], 50),
        "serve.miss_p50_ms": percentile(
            [1e3 * value for value in miss_latencies], 50),
        "serve.rejected": rejected,
    }
    # Queue wait: from the end of a job's missing cache probe to the
    # start of its execution.
    probe_end = {s.attrs["key"]: s.end for s in gets
                 if not s.attrs.get("hit")}
    metrics["serve.queue_wait_p50_ms"] = percentile(
        [1e3 * (s.start - probe_end[s.attrs["key"]]) for s in pools
         if s.attrs["key"] in probe_end], 50)
    # Unattributed: request time no server-side span of the same job
    # covers (HTTP, admission, event loop, thread hand-offs).
    server_side = {}
    for span in window:
        if span.parent is None and span.name.startswith("serve."):
            server_side.setdefault(span.attrs["key"], []).append(span)
    total = uncovered = 0.0
    for request in _named(window, "bench.request"):
        covered = sum(
            max(0.0, min(s.end, request.end) - max(s.start, request.start))
            for s in server_side.get(request.attrs["key"], ()))
        total += request.duration
        uncovered += max(0.0, request.duration - covered)
    metrics["serve.unattributed_frac"] = _ratio(uncovered, total)
    return metrics


def serve_absent() -> Dict[str, float]:
    return {name: 0.0 for name in serve([], [], 0)}


def stage_absent() -> Dict[str, float]:
    return {f"pipeline.{stage}.self_frac": 0.0 for stage in STAGES}
