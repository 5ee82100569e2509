"""The benchmark's three workloads, driven through public entry points.

Each workload has a set-up (repeated, so its median is reported), a
timed window of operations, and an output check.  An operation's
output is reduced to a sha256 digest under an identity that names the
same work in every run of the same seed: a digest that differs from
an earlier one of the same identity in this run (determinism), or from
the committed reference for the reference seed, makes the operation
fail.

In the traced mode (``trace=True``) a workload runs its set-up traced,
then a plain stretch of operations (for the tracing overhead), then a
traced window whose spans give the per-layer metrics.  See
perfbench/README.md for the metric catalogue.
"""

import gc
import hashlib
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.engine import CampaignEngine
from repro.campaign.spec import CampaignSpec
from repro.core import machine as core_machine
from repro.core.config import MachineConfig
from repro.isa import generator
from repro.obs.profile import STAGES, StageProfiler
from repro.serve.api import BackgroundServer
from repro.serve.client import ServeClient
from repro.serve.jobs import JobSpec

from perfbench import layers
from perfbench.tracer import Span, Tracer

WORKLOADS = ("sim-core", "campaign-inject", "serve-mix")

#: Seeds of the discarded set-up repeats start here, far from the
#: seeds the workloads derive from ``--seed``.
SHADOW_SEED = 10_000_000


@dataclass(frozen=True)
class Scale:
    """Input sizes; the benchmark runs ``Scale()``, its tests ``TINY``."""

    sim_instructions: int = 1500
    sim_warmup: int = 2000
    campaign_injections: int = 2
    #: Generated instances of each campaign program (gcc@0, gcc@1, ...).
    campaign_instances: int = 4
    campaign_instructions: int = 300
    campaign_warmup: int = 900
    serve_instructions: int = 300
    serve_warmup: int = 900
    serve_campaign_injections: int = 2
    serve_hits_per_miss: int = 20
    setup_repeats: int = 3


TINY = Scale(sim_instructions=60, sim_warmup=100, campaign_injections=1,
             campaign_instances=1,
             campaign_instructions=60, campaign_warmup=100,
             serve_instructions=60, serve_warmup=100,
             serve_campaign_injections=1, serve_hits_per_miss=3,
             setup_repeats=1)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Tally:
    """Operations of one window: counts, digests, work and latencies.

    The window is cut into units (a sim-core pass, a campaign, a
    serve-mix round).  ``work_per_s`` is the work of the whole units
    over their wall time; ``op_ms`` is a median over the units, so a
    few seconds of host slow-down move one unit, not the result.
    """

    reference: Dict[str, str]
    digests: Dict[str, str]
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: (end time, work, latency in seconds or None) of each operation.
    records: List[Tuple[float, float, Optional[float]]] = field(
        default_factory=list)
    #: (start, end) perf_counter times of each finished unit.
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: (start, end) of stretches inside units that their wall time
    #: leaves out: a sim-core run's heap collection, build and warm-up.
    excluded: List[Tuple[float, float]] = field(default_factory=list)
    _open: float = 0.0
    #: serve-mix only: latency of each cache-missing job, seconds.
    miss_latencies: List[float] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, identity: str, value: str) -> Optional[str]:
        """None if ``value`` equals the first digest of ``identity`` in
        this run and its committed reference, if any; else why not."""
        with self.lock:
            first = self.digests.setdefault(identity, value)
        if first != value:
            return (f"{identity}: digest {value[:12]} differs from an "
                    f"earlier run of the same work {first[:12]}")
        expected = self.reference.get(identity)
        if expected is not None and expected != value:
            return (f"{identity}: digest {value[:12]} differs from the "
                    f"committed reference {expected[:12]}")
        return None

    def record(self, ops: int, error: Optional[str] = None) -> None:
        with self.lock:
            self.attempted += ops
            if error is not None:
                self.failed += ops
                if len(self.errors) < 20:
                    self.errors.append(error)

    def add(self, work: float, latency: Optional[float] = None) -> None:
        with self.lock:
            self.records.append((time.perf_counter(), work, latency))

    def begin(self) -> None:
        self._open = time.perf_counter()

    def end(self) -> None:
        self.intervals.append((self._open, time.perf_counter()))

    def units(self) -> List[Tuple[float, float, List[float]]]:
        """(work, wall seconds, latencies) of each unit."""
        units = []
        for start, end in self.intervals:
            inside = [r for r in self.records if start < r[0] <= end]
            skipped = sum(e - s for s, e in self.excluded
                          if start <= s and e <= end)
            units.append((sum(r[1] for r in inside), end - start - skipped,
                          [r[2] for r in inside if r[2] is not None]))
        return units

    @property
    def wall(self) -> float:
        """The units' whole duration, excluded stretches included."""
        return sum(end - start for start, end in self.intervals)

    @property
    def latencies(self) -> List[float]:
        return [r[2] for r in self.records if r[2] is not None]

    @property
    def work_per_s(self) -> float:
        """Work of the whole units per second of their wall time.

        Not a median of per-unit rates: serve-mix rounds differ in
        content (each miss is a fresh program), and the median of their
        rates spread twice as wide over seeds as the total.
        """
        units = self.units()
        wall = sum(wall for _, wall, _ in units)
        return sum(work for work, _, _ in units) / wall if wall > 0 else 0.0

    def op_ms(self, q: int) -> float:
        """Median over units of the units' ``q``-th latency percentile."""
        values = [layers.percentile(latencies, q)
                  for _, _, latencies in self.units() if latencies]
        return 1e3 * statistics.median(values) if values else 0.0


@dataclass
class Context:
    seed: int
    seconds: float
    scale: Scale
    workdir: Path
    reference: Dict[str, str]
    tracer: Optional[Tracer] = None
    digests: Dict[str, str] = field(default_factory=dict)

    def tally(self) -> Tally:
        # Every window shares one digest map, so a traced operation is
        # held to the digest its plain twin produced.
        return Tally(reference=self.reference, digests=self.digests)


@dataclass
class Report:
    setup_s: List[float]
    #: The measured window's operations.
    tally: Tally
    #: Every tally of the run (set-up checks, plain and traced windows);
    #: ``attempted`` and ``failed`` sum over them.
    tallies: List[Tally]
    #: Traced mode only: the per-layer metrics.
    layers: Dict[str, float] = field(default_factory=dict)


def _timed_setups(ctx: Context, setup: Callable[[int], object],
                  close: Callable[[object], None]
                  ) -> Tuple[List[float], object, int]:
    """Run ``setup(seed)`` ``setup_repeats`` times; keep the last state.

    The program memoises per-process work keyed by its inputs (the
    generator's validity gate), so every repeat but the last sets up
    from its own shadow seed: each repeat pays the same cold costs, and
    only the kept one uses the workload seed.  Returns the set-up
    times, the kept state, and the index of the kept set-up's first
    span (the census starts there).
    """
    times: List[float] = []
    state = None
    mark = 0
    for repeat in range(ctx.scale.setup_repeats):
        if state is not None:
            close(state)
        last = repeat == ctx.scale.setup_repeats - 1
        seed = ctx.seed if last else SHADOW_SEED + 1_000 * ctx.seed + repeat
        mark = len(ctx.tracer.spans) if ctx.tracer else 0
        started = time.perf_counter()
        state = setup(seed)
        times.append(time.perf_counter() - started)
    return times, state, mark


def _whole_units(tally: Tally, seconds: float,
                 unit: Callable[[int], object]) -> int:
    """Run ``unit(0)``, ``unit(1)``, ... while the next one is expected
    to end less than half a unit past ``seconds``; at least one."""
    deadline = time.perf_counter() + seconds
    count = 0
    last = 0.0
    while count == 0 or time.perf_counter() + last / 2 < deadline:
        tally.begin()
        started = time.perf_counter()
        unit(count)
        last = time.perf_counter() - started
        tally.end()
        count += 1
    return count


def _first_op(spans: List[Span]) -> List[Span]:
    """Spans of the lowest-numbered operation among ``spans``."""
    ops = [s.root().attrs.get("op") for s in spans]
    first = min((op for op in ops if op is not None), default=None)
    return [s for s, op in zip(spans, ops) if op is not None and op == first]


def _run(ctx: Context, setup: Callable[[int, Tally], object],
         window: Callable[[object, Tally, float, int], int],
         close: Callable[[object], None] = lambda state: None,
         census: Callable[[List[Span]], List[Span]] = _first_op,
         plain_seconds: float = 0.0,
         extra: Optional[Callable[[object, List[Span], Tally],
                                  Dict[str, float]]] = None) -> Report:
    """Set-ups, then the plain window; in traced mode, set-ups traced,
    a plain stretch of ``plain_seconds`` (0: one operation) and the
    traced window.

    ``window(state, tally, seconds, first_op)`` runs operations for
    ``seconds`` and returns how many it started.
    """
    checks = ctx.tally()
    tracer = ctx.tracer
    if tracer is not None:
        tracer.install()
    setup_s, state, census_mark = _timed_setups(
        ctx, lambda seed: setup(seed, checks), close)
    try:
        if tracer is None:
            tally = ctx.tally()
            window(state, tally, ctx.seconds, 0)
            return Report(setup_s, tally, [checks, tally])
        setup_spans = tracer.spans[census_mark:]
        tracer.uninstall()
        ctx.tracer = None
        started = time.perf_counter()
        plain = ctx.tally()
        ops = window(state, plain, plain_seconds, 0)
        ctx.tracer = tracer
        tally = ctx.tally()
        mark = len(tracer.spans)
        with tracer.installed():
            window(state, tally,
                   max(0.0, started + ctx.seconds - time.perf_counter()),
                   ops)
        spans = tracer.spans[mark:]
        problem = layers.repeat_problem(spans)
        if problem is not None:
            tally.record(1, problem)
        metrics = layers.common(spans, setup_spans + census(spans),
                                plain.work_per_s, tally.work_per_s,
                                tally.wall)
        if extra is not None:
            metrics.update(extra(state, spans, tally))
        return Report(setup_s, tally, [checks, plain, tally], metrics)
    finally:
        ctx.tracer = tracer
        if tracer is not None:
            tracer.uninstall()
        close(state)


# ---------------------------------------------------------------------------
# sim-core: make_machine(...).run(...) over the paper's configurations
# ---------------------------------------------------------------------------

SIM_PROGRAMS = ("gcc", "applu", "swim")
#: Generated instances of each program; ``gcc@1`` is the second.  How
#: many cycles a run takes, and what each costs, follow the generated
#: program (one seed's applu ran 1717 cycles where others ran ~450),
#: so a pass spreads its configurations over two instances of each.
SIM_INSTANCES = 2
#: (label, machine kind, MachineConfig overrides).  Lockstep runs with
#: the default 8-cycle checker (the paper's Lock8).
SIM_CONFIGS = (
    ("base", "base", {}),
    ("srt", "srt", {}),
    ("srt-ptsq", "srt", {"per_thread_store_queues": True}),
    ("lockstep", "lockstep", {}),
    ("crt", "crt", {}),
    ("srt-recovery", "srt", {"recovery_enabled": True}),
)
#: (identity, kind, overrides, program instances): configuration i runs
#: on instance i mod SIM_INSTANCES of each program.
SIM_RUNS = tuple(
    [(f"{label}/{program}@{i % SIM_INSTANCES}", kind, overrides,
      (f"{program}@{i % SIM_INSTANCES}",))
     for i, (label, kind, overrides) in enumerate(SIM_CONFIGS)
     for program in SIM_PROGRAMS]
    + [(f"{kind}/gcc+swim@{i}", kind, {}, (f"gcc@{i}", f"swim@{i}"))
       for i, kind in enumerate(("srt", "crt"))])


def sim_programs(seed: int) -> Dict[str, object]:
    """Every program instance of ``seed``, by name."""
    return {f"{name}@{i}": generator.generate_benchmark(
                name, seed=seed * SIM_INSTANCES + i)
            for name in SIM_PROGRAMS for i in range(SIM_INSTANCES)}


def _sim_machine(programs, run):
    _, kind, overrides, names = run
    return core_machine.make_machine(
        kind, MachineConfig(**overrides), [programs[n] for n in names])


def _sim_payload(machine, result, instructions: int) -> Tuple[dict, Optional[str]]:
    payload = {"result": result.to_dict(),
               "machine_stats": machine.machine_stats()}
    problem = None
    if result.termination.value != "done":
        problem = f"termination {result.termination.value}"
    elif result.fault_events:
        problem = f"{len(result.fault_events)} fault events on a clean run"
    elif any(t.retired != instructions for t in result.threads):
        problem = "a thread missed its retirement target"
    return payload, problem


def _sim_op(ctx: Context, programs, run, tally: Tally, op: int) -> None:
    identity = run[0]
    instructions = ctx.scale.sim_instructions
    # Each run starts from a collected heap, so a full collection left
    # over from earlier runs does not land in this one's time.
    prepared = time.perf_counter()
    gc.collect()

    def warmed():
        # make_machine(...).run(n, warmup=w) is warm(w), then run(n);
        # only the cycle loop is timed, so work_per_s is cycles per
        # second of the loop.  Build and warm-up take no cycles, and
        # timed with them the rate followed the seed's programs more.
        machine = _sim_machine(programs, run)
        machine.warm(ctx.scale.sim_warmup)
        return machine, time.perf_counter()

    try:
        if ctx.tracer is not None:
            with ctx.tracer.span("bench.run", op=op, identity=identity):
                machine, started = warmed()
                result = machine.run(max_instructions=instructions)
        else:
            machine, started = warmed()
            result = machine.run(max_instructions=instructions)
    except Exception as error:  # an operation failure, not a crash
        tally.record(1, f"{identity}: {type(error).__name__}: {error}")
        return
    elapsed = time.perf_counter() - started
    tally.excluded.append((prepared, started))
    payload, problem = _sim_payload(machine, result, instructions)
    if problem is None:
        problem = tally.check(identity, digest(payload))
    else:
        problem = f"{identity}: {problem}"
    tally.record(1, problem)
    # Host time per thousand simulated cycles: a run's length follows
    # its generated program, so raw run times would vary with the seed.
    tally.add(result.cycles, elapsed * 1_000 / max(result.cycles, 1))


def _sim_window(ctx: Context, programs, tally: Tally, seconds: float,
                first_op: int) -> int:
    """Whole passes over SIM_RUNS for about ``seconds``.

    A pass is never cut short, so every window weighs the
    configurations alike.
    """
    return _whole_units(tally, seconds, lambda unit: [
        _sim_op(ctx, programs, run, tally, first_op + unit)
        for run in SIM_RUNS])


def _sim_profile(ctx: Context, programs, tally: Tally) -> Dict[str, float]:
    """Stage split of the cycle loop via the public StageProfiler.

    Each profiled run must reproduce the plain run's digest; the split
    is reported only if every one does.
    """
    seconds = {stage: 0.0 for stage in STAGES}
    total = 0.0
    for run in SIM_RUNS:
        profiler = StageProfiler()
        machine = _sim_machine(programs, run)
        result = profiler.run(machine,
                              max_instructions=ctx.scale.sim_instructions,
                              warmup=ctx.scale.sim_warmup)
        payload, problem = _sim_payload(machine, result,
                                        ctx.scale.sim_instructions)
        problem = problem or tally.check(run[0], digest(payload))
        if problem is not None:
            tally.record(1, f"profiled {run[0]}: {problem}")
            return layers.stage_absent()
        for stage in STAGES:
            seconds[stage] += profiler.seconds[stage]
        total += profiler.total_s
    return {f"pipeline.{stage}.self_frac": seconds[stage] / total
            for stage in STAGES}


def run_sim_core(ctx: Context) -> Report:
    def setup(seed: int, checks: Tally):
        return sim_programs(seed)

    def extra(programs, spans: List[Span], tally: Tally):
        # After the traced window, untraced: the profiler times itself.
        metrics = _sim_profile(ctx, programs, tally)
        metrics.update(layers.serve_absent())
        return metrics

    return _run(ctx, setup,
                lambda programs, tally, seconds, first: _sim_window(
                    ctx, programs, tally, seconds, first),
                extra=extra)


# ---------------------------------------------------------------------------
# campaign-inject: CampaignEngine(spec, dir, jobs=1).run()
# ---------------------------------------------------------------------------

def campaign_spec(ctx: Context) -> CampaignSpec:
    # Task cost follows the generated program (one seed's applu ran
    # injections 1.5x slower than another's), so a campaign spans
    # several instances of each program to average that out.
    return CampaignSpec(kinds=("base", "srt", "lockstep", "crt"),
                        workloads=tuple(
                            f"{name}@{instance}"
                            for name in ("gcc", "applu")
                            for instance in range(
                                ctx.scale.campaign_instances)),
                        models=("transient-result", "stuck-unit"),
                        injections=ctx.scale.campaign_injections,
                        seed=ctx.seed,
                        instructions=ctx.scale.campaign_instructions,
                        warmup=ctx.scale.campaign_warmup)


def _campaign_setup(ctx: Context, seed: int) -> CampaignSpec:
    """Validate the spec and run a campaign of one task per program, so
    lazy imports and first-use costs are paid before the window."""
    spec = campaign_spec(ctx)
    warm = CampaignSpec(kinds=("srt",), workloads=spec.workloads,
                        models=("transient-result",), injections=1,
                        seed=seed, instructions=spec.instructions,
                        warmup=spec.warmup)
    out_dir = ctx.workdir / f"setup-{seed}"
    CampaignEngine(warm, out_dir, jobs=1).run()
    shutil.rmtree(out_dir)
    return spec.validate()


def _campaign_op(ctx: Context, spec: CampaignSpec, tally: Tally,
                 op: int) -> None:
    from repro.campaign import worker

    total = spec.total_tasks()
    out_dir = ctx.workdir / f"campaign-{op}"
    execute_task = worker.execute_task

    # Two clock reads per injection: the plain run's only probe.
    def timed_task(*args, **kwargs):
        begun = time.perf_counter()
        try:
            return execute_task(*args, **kwargs)
        finally:
            tally.add(1, time.perf_counter() - begun)

    worker.execute_task = timed_task
    try:
        if ctx.tracer is not None:
            with ctx.tracer.span("bench.campaign", op=op):
                summary = CampaignEngine(spec, out_dir, jobs=1).run()
        else:
            summary = CampaignEngine(spec, out_dir, jobs=1).run()
        blob = (out_dir / "results.jsonl").read_bytes()
    except Exception as error:  # an operation failure, not a crash
        tally.record(total, f"campaign: {type(error).__name__}: {error}")
        return
    finally:
        worker.execute_task = execute_task
        shutil.rmtree(out_dir, ignore_errors=True)
    records = blob.count(b"\n")
    if summary["state"] != "complete" or records != total:
        problem = (f"campaign: state {summary['state']}, "
                   f"{records} records for {total} tasks")
    else:
        problem = tally.check("campaign/results.jsonl",
                              hashlib.sha256(blob).hexdigest())
    tally.record(total, problem)


def _campaign_window(ctx: Context, spec: CampaignSpec, tally: Tally,
                     seconds: float, first_op: int) -> int:
    """Whole campaigns for about ``seconds``."""
    return _whole_units(tally, seconds, lambda unit: _campaign_op(
        ctx, spec, tally, first_op + unit))


def run_campaign_inject(ctx: Context) -> Report:
    def extra(spec, spans: List[Span], tally: Tally):
        metrics = layers.stage_absent()
        metrics.update(layers.serve_absent())
        return metrics

    return _run(ctx, lambda seed, checks: _campaign_setup(ctx, seed),
                lambda spec, tally, seconds, first: _campaign_window(
                    ctx, spec, tally, seconds, first),
                extra=extra)


# ---------------------------------------------------------------------------
# serve-mix: a BackgroundServer driven in a closed loop by two clients
# ---------------------------------------------------------------------------

SERVE_CLIENTS = 2
#: Per client, the run specs primed in set-up and repeated as hits.
SERVE_PRIMED = (("base", "gcc"), ("srt", "applu"))
#: Miss index of each client's first traced miss.  The plain stretch
#: before the traced window runs a timing-dependent number of rounds,
#: so the traced misses start at this fixed, even index instead: the
#: census (one run and one campaign miss per client) is the same work
#: in every traced run of a seed.  Indices stay below the client
#: stride of the miss seeds (10_000).
TRACED_MISS = 5_000


def _prime_params(ctx: Context, client: int, index: int,
                  seed: Optional[int] = None) -> Dict[str, object]:
    kind, program = SERVE_PRIMED[index]
    seed = ctx.seed if seed is None else seed
    return {"kind": kind, "benchmarks": [program],
            "instructions": ctx.scale.serve_instructions,
            "warmup": ctx.scale.serve_warmup,
            "seed": seed * 100_000 + 10 * client + index}


def _miss_job(ctx: Context, client: int, index: int
              ) -> Tuple[str, Dict[str, object]]:
    """The ``index``-th cache-missing job of ``client``: a fresh seed,
    alternating a small run and a small campaign.  The clients start
    on different types, so every round has one miss of each."""
    seed = ctx.seed * 100_000 + 1_000 + client * 10_000 + index
    if (index + client) % 2 == 0:
        return "run", {"kind": "srt", "benchmarks": ["gcc"],
                       "instructions": ctx.scale.serve_instructions,
                       "warmup": ctx.scale.serve_warmup, "seed": seed}
    return "campaign", {"kinds": ["srt"], "workloads": ["gcc"],
                        "models": ["transient-result"],
                        "injections": ctx.scale.serve_campaign_injections,
                        "instructions": ctx.scale.serve_instructions,
                        "warmup": ctx.scale.serve_warmup,
                        "seed": seed, "jobs": 1}


@dataclass
class _Server:
    handle: BackgroundServer
    client: ServeClient
    workdir: Path
    #: Next miss index per client (fresh seeds never repeat).
    next_miss: List[int] = field(default_factory=lambda: [0] * SERVE_CLIENTS)


def _job_payload(server: _Server, response: Dict[str, object]
                 ) -> Dict[str, object]:
    job = server.client.result(response["job"]["id"])["job"]
    result = dict(job["result"])
    if "artifact_dir" in result:  # absolute path of this run's workdir
        result["artifact_dir"] = os.path.relpath(result["artifact_dir"],
                                                 server.workdir)
    return result


def _wait_done(server: _Server, response: Dict[str, object]) -> None:
    state = response["job"]["state"]
    if state not in ("done", "failed", "cancelled"):
        state = server.client.wait_for(response["job"]["id"],
                                       timeout=120)["job"]["state"]
    if state != "done":
        raise RuntimeError(f"job {response['job']['id']} ended {state}: "
                           f"{response['job'].get('error')}")


def _serve_setup(ctx: Context, seed: int, checks: Tally) -> _Server:
    """Start a daemon and prime its cache (checked at the workload seed)."""
    workdir = ctx.workdir / f"serve-{seed}"
    handle = BackgroundServer(workdir=str(workdir), max_queue=16,
                              max_running=2, campaign_jobs=1)
    handle.__enter__()
    # retries=0: a 429 or a transport error is a failed operation.
    client = ServeClient(handle.url, retries=0)
    server = _Server(handle, client, workdir)
    submitted = {(c, i): client.submit("run",
                                       _prime_params(ctx, c, i, seed),
                                       client=f"c{c}")
                 for c in range(SERVE_CLIENTS)
                 for i in range(len(SERVE_PRIMED))}
    for (c, i), response in submitted.items():
        _wait_done(server, response)
        value = digest(_job_payload(server, response))
        if seed == ctx.seed:
            checks.record(1, checks.check(f"prime/c{c}/{i}", value))
    return server


def _close_server(server: _Server) -> None:
    server.handle.__exit__(None, None, None)


def _serve_hit(ctx: Context, server: _Server, client: int, primed: int,
               tally: Tally) -> None:
    identity = f"prime/c{client}/{primed}"
    params = _prime_params(ctx, client, primed)
    started = time.perf_counter()
    try:
        response = server.client.submit("run", params, client=f"c{client}")
        if not response["job"]["cache_hit"]:
            raise RuntimeError("a primed spec missed the cache")
        _wait_done(server, response)
        payload = _job_payload(server, response)
    except Exception as error:  # an operation failure, not a crash
        tally.record(1, f"{identity}: {type(error).__name__}: {error}")
        return
    ended = time.perf_counter()
    if ctx.tracer is not None:
        ctx.tracer.record("bench.request", started, ended, hit=True,
                          key=JobSpec.build("run", params).cache_key())
    tally.record(1, tally.check(identity, digest(payload)))
    tally.add(1, ended - started)


def _serve_miss(ctx: Context, server: _Server, client: int,
                tally: Tally) -> None:
    miss = server.next_miss[client]
    server.next_miss[client] += 1
    identity = f"miss/c{client}/{miss}"
    job_type, params = _miss_job(ctx, client, miss)
    started = time.perf_counter()
    try:
        response = server.client.submit(job_type, params, client=f"c{client}")
        _wait_done(server, response)
        payload = _job_payload(server, response)
    except Exception as error:  # an operation failure, not a crash
        tally.record(1, f"{identity}: {type(error).__name__}: {error}")
        return
    ended = time.perf_counter()
    if ctx.tracer is not None:
        ctx.tracer.record("bench.request", started, ended, hit=False,
                          key=JobSpec.build(job_type, params).cache_key())
    tally.record(1, tally.check(identity, digest(payload)))
    tally.add(1)
    with tally.lock:
        tally.miss_latencies.append(ended - started)


def _serve_client_loop(ctx: Context, server: _Server, client: int,
                       tally: Tally, rounds: threading.Barrier,
                       in_flight: threading.Lock,
                       stop: threading.Event) -> None:
    """One closed-loop client, in rounds shared with the other client:
    one cache-missing job, then ``serve_hits_per_miss`` requests for
    the client's primed specs.

    The barriers keep the hits of both clients apart from the misses'
    compute: a hit that overlaps a GIL-holding miss waits out thread
    switches, which made free-running hit latency bimodal run to run.
    ``in_flight`` keeps one hit at a time: two clients' hits racing
    for the interpreter lock on a two-core host made the hit p50
    spread past a third of its median from run to run.
    """
    hits = 0
    while not stop.is_set():
        _serve_miss(ctx, server, client, tally)
        rounds.wait(timeout=150)
        for _ in range(ctx.scale.serve_hits_per_miss):
            with in_flight:
                _serve_hit(ctx, server, client, hits % len(SERVE_PRIMED),
                           tally)
            hits += 1
        rounds.wait(timeout=150)


def _serve_window(ctx: Context, server: _Server, tally: Tally,
                  seconds: float, min_rounds: int = 1) -> int:
    """Whole rounds for ``seconds`` (at least ``min_rounds``)."""
    tally.begin()
    started = time.perf_counter()
    stop = threading.Event()
    phase = [0]

    def end_of_phase() -> None:
        # Runs once per barrier trip, so both clients see one decision.
        phase[0] += 1
        if phase[0] % 2 == 1:
            return
        tally.end()
        if (phase[0] >= 2 * min_rounds
                and time.perf_counter() >= started + seconds):
            stop.set()
        else:
            gc.collect()  # between rounds, as before each sim-core run
            tally.begin()

    rounds = threading.Barrier(SERVE_CLIENTS, action=end_of_phase)
    in_flight = threading.Lock()
    threads = [threading.Thread(
        target=_serve_client_loop, name=f"perfbench-client-{c}",
        args=(ctx, server, c, tally, rounds, in_flight, stop))
        for c in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            rounds.abort()
            raise RuntimeError(f"{thread.name} did not finish")
    return 0


def _serve_census(ctx: Context, spans: List[Span]) -> List[Span]:
    """Spans of each client's first two traced misses (a run job and a
    campaign job, at the fixed indices ``TRACED_MISS`` and the next)."""
    keys = {JobSpec.build(*_miss_job(ctx, client, index)).cache_key()
            for client in range(SERVE_CLIENTS)
            for index in (TRACED_MISS, TRACED_MISS + 1)}
    return [span for span in spans if span.attr("key") in keys]


def _serve_traced_window(ctx: Context, server: _Server, tally: Tally,
                         seconds: float) -> int:
    if max(server.next_miss) > TRACED_MISS:
        raise RuntimeError(f"the plain stretch ran past miss {TRACED_MISS}")
    server.next_miss = [TRACED_MISS] * SERVE_CLIENTS
    return _serve_window(ctx, server, tally, seconds, min_rounds=2)


def run_serve_mix(ctx: Context) -> Report:
    def window(server: _Server, tally: Tally, seconds: float,
               first: int) -> int:
        if ctx.tracer is not None:
            return _serve_traced_window(ctx, server, tally, seconds)
        return _serve_window(ctx, server, tally, seconds)

    def extra(server: _Server, spans: List[Span], tally: Tally):
        counters = server.handle.server.scheduler.counters.to_dict()
        metrics = layers.serve(spans, tally.miss_latencies,
                               counters["rejected"])
        metrics.update(layers.stage_absent())
        return metrics

    return _run(ctx, lambda seed, checks: _serve_setup(ctx, seed, checks),
                window, close=_close_server,
                census=lambda spans: _serve_census(ctx, spans),
                plain_seconds=ctx.seconds / 4, extra=extra)


RUNNERS = {
    "sim-core": run_sim_core,
    "campaign-inject": run_campaign_inject,
    "serve-mix": run_serve_mix,
}
