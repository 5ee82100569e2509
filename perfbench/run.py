"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sim-core --seed 0 --seconds 45 --trace 0

Run from the root of a checkout: the program is imported from its
``src/`` and nothing else.  Progress, the output digest and a summary
go to standard output, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Spans of a traced run are written to ``.perfbench/``.  See
perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def declared_metrics(kind: str) -> Dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, the ones a plain or a traced run prints."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def pin_to_one_cpu() -> None:
    """Keep this process and every thread it starts on one CPU.

    The interpreter lock lets one thread run Python at a time, so the
    program loses little; what goes is each hand-off between threads
    on different CPUs of a shared VM, whose cost follows the load of
    the VM's neighbours.  Over the same four seeds, serve-mix hits read
    2.7-3.3 ms unpinned and 2.1-2.8 ms pinned.  Work spread over
    several CPUs would not show a gain here.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def load_reference(workload: str, seed: int) -> Dict[str, str]:
    """Committed digests of ``workload`` at ``seed`` (empty if none)."""
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if data["seed"] != seed:
        return {}
    return data["workloads"].get(workload, {})


def stable_digest(digests: Dict[str, str]) -> str:
    """One digest over the identities every run of a seed produces
    (each serve client's later misses depend on timing)."""
    from perfbench.workloads import digest

    return digest({identity: value for identity, value in digests.items()
                   if not identity.startswith("miss/")
                   or identity.endswith("/0")})


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale=None, reference: Optional[Dict[str, str]] = None,
            out: Path = OUT) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Run ``workload`` once; return the result object and the digest
    of every operation identity."""
    from perfbench import workloads
    from perfbench.layers import percentile
    from perfbench.tracer import Tracer

    if reference is None:
        reference = load_reference(workload, seed)
    workdir = out / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(seed=seed, seconds=seconds,
                            scale=scale or workloads.Scale(),
                            workdir=workdir, reference=reference,
                            tracer=Tracer() if trace else None)
    try:
        report = workloads.RUNNERS[workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = report.tally
    attempted = sum(t.attempted for t in report.tallies)
    failed = sum(t.failed for t in report.tallies)
    errors = [e for t in report.tallies for e in t.errors]
    for error in errors[:20]:
        print(f"FAILED {error}")
    print(f"digest {workload} seed={seed} {stable_digest(ctx.digests)} "
          f"({len(ctx.digests)} identities, "
          f"{sum(1 for i in ctx.digests if i in reference)} checked "
          f"against the committed reference)")
    (out / f"digests-{workload}-seed{seed}.json").write_text(
        json.dumps(ctx.digests, indent=1, sort_keys=True) + "\n")
    latencies = [1e3 * value for value in tally.latencies]
    print(f"error_rate {failed / attempted if attempted else 1.0:.6f} "
          f"({failed}/{attempted}); {len(tally.units())} units; op "
          f"latency ms over {len(latencies)} samples, pooled: " + ", ".join(
              f"p{q} {percentile(latencies, q):.2f}"
              for q in (50, 75, 90, 95, 99)))
    if trace:
        spans = out / f"spans-{workload}-seed{seed}.jsonl"
        ctx.tracer.dump(spans)
        print(f"spans {len(ctx.tracer.spans)} -> {spans}")
        values = report.layers
        units = declared_metrics("per_layer")
    else:
        values = {
            "setup_s": statistics.median(report.setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_s": tally.work_per_s,
            "op_p50_ms": tally.op_ms(50),
            "op_p75_ms": tally.op_ms(75),
        }
        units = declared_metrics("end_to_end")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }, ctx.digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-core", "campaign-inject", "serve-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    _bootstrap()
    OUT.mkdir(exist_ok=True)
    result, _ = measure(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
