"""The four benchmark workloads, each a closed loop with one caller.

Every workload function takes the seed, the number of seconds to
measure and an optional :class:`~perfbench.tracer.Tracer`.  Untraced, it
times items only.  Traced, it alternates untraced and traced items (or
passes, or batches) so the tracing overhead is measured in the same
run, and reports per-layer metrics from the traced ones.

Layer boundaries are the program's public functions.  ``*_LAYERS``
lists ``(metric name, module, function)``; a span's self time is what
the metric reports, per item.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench import checks, inputs
from perfbench.checks import Oracle
from perfbench.setup_probe import build
from perfbench.speed import Speedometer
from perfbench.tracer import Tracer

#: SHA-256 of ``render_report(full_reproduction("full"))`` on a correct
#: program.  The report is byte-stable: it carries verdicts and counts,
#: never timings.
REPRODUCE_SHA256 = "55925355cfee0709bf9abd09954ebda93f293d7fcbcafd797ca744b66cb2dcd0"

#: Memo tables whose hit ratios the traced runs report.
CACHES = (
    "membership",
    "extension_pairs",
    "augment",
    "last_writer_row",
    "lc_row_set",
    "sc_row_sets",
    "topological_sorts",
    "canonical_form",
)

REPRODUCE_LAYERS = [
    ("analysis.lattice_s", "repro.analysis.lattice", "compute_lattice"),
    ("runtime.parallel.thm23_s", "repro.runtime.parallel", "parallel_thm23_counts"),
    ("analysis.open_problem_s", "repro.analysis.open_problems", "explore_star_vs_lc"),
]

HIER_LAYERS = [
    ("runtime.scheduler.schedule_ms", "repro.runtime.scheduler", "work_stealing_schedule"),
    ("runtime.executor.execute_ms", "repro.runtime.executor", "execute"),
    ("verify.streaming.check_ms", "repro.verify.streaming", "StreamingLCVerifier.check_trace"),
]

#: Parent-side serve boundaries (the worker process is not instrumented).
#: ``_dispatch`` is private, but it is exactly a batch's pool phase:
#: with one worker its time is the worker's checks plus the hand-off.
SERVE_LAYERS = [
    ("serve.parse_ms", "repro.serve.service", "parse_request_ex"),
    ("io.load_ms", "repro.io", "load_trace"),
    ("serve.fingerprint_ms", "repro.serve.service", "request_fingerprint"),
    ("dag.enumerate.canonical_ms", "repro.dag.enumerate", "canonical_form"),
    ("serve.dispatch_ms", "repro.serve.service", "TraceCheckService._dispatch"),
]

#: The worker's check, replayed in this process on the same documents.
CHECK_LAYERS = [
    ("serve.check_replay_ms", "repro.serve.service", "check_document"),
    ("verify.streaming_ms", "repro.verify.streaming", "StreamingLCVerifier.check_trace"),
    ("verify.lc_ms", "repro.verify.checker", "trace_admits_lc"),
    ("verify.sc_ms", "repro.verify.checker", "trace_admits_sc"),
]

SERVE_BATCH = {"serve-unique": 100, "serve-litmus": 100}

#: Untraced hier-sim runs measure whole passes until at least this many
#: cells, so ``item_tail_ms`` is always a p95 with ten cells beyond it.
HIER_MIN_ITEMS = 200


@dataclass
class Outcome:
    """What one measured run produced."""

    #: Untraced item latencies as measured, and for each the window
    #: (``perf_counter`` start and end) whose host speed scales it.
    raw_latencies_ms: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: The measured phase: untraced items, or batches on serve.
    measured: list[tuple[float, float]] = field(default_factory=list)
    #: Latencies and measured seconds scaled to reference host speed
    #: by :meth:`scale` (see :mod:`perfbench.speed`).
    latencies_ms: list[float] = field(default_factory=list)
    measured_s: float = 0.0
    #: Simulated memory-system events of the untraced items (hier-sim).
    events: int = 0
    attempted: int = 0
    #: Items whose output check failed: a wrong output or an error.
    failed: int = 0
    #: Smallest item count the run guarantees; fixes the tail percentile.
    min_items: int = 1
    #: Peak resident set (MB) when ``min_items`` untraced items were
    #: done: a fixed amount of work, so a longer run does not move it.
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def timed(self, t0: float, t1: float, latencies_ms: list[float] | None = None) -> None:
        """Keep an untraced item that ran from ``t0`` to ``t1``, or a
        batch that did, with its items' latencies."""
        self.measured.append((t0, t1))
        for latency in [1e3 * (t1 - t0)] if latencies_ms is None else latencies_ms:
            self.raw_latencies_ms.append(latency)
            self.windows.append((t0, t1))

    def scale(self, meter: Speedometer) -> None:
        """Fill the scaled figures from the host speed ``meter`` saw."""
        factor = {w: meter.scale(*w) for w in self.measured}
        self.latencies_ms = [v * factor[w] for v, w in zip(self.raw_latencies_ms, self.windows)]
        self.measured_s = sum((t1 - t0) * factor[t0, t1] for t0, t1 in self.measured)

    def items_done(self, others_mb: Callable[[], float] = lambda: 0.0) -> None:
        """Read the peak RSS, plus ``others_mb()`` of the program's other
        processes, once ``min_items`` untraced items are done."""
        if not self.peak_rss_mb and len(self.raw_latencies_ms) >= self.min_items:
            self.peak_rss_mb = _peak_rss_mb() + others_mb()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _per_item(tracer: Tracer, name: str, items: int, scale: float = 1.0) -> float:
    return tracer.self_time.get(name, 0.0) * scale / items if items else 0.0


def _hit_ratios(info: dict[str, dict[str, int]]) -> dict[str, float]:
    out = {}
    for name in CACHES:
        c = info.get(name, {"hits": 0, "misses": 0})
        lookups = c["hits"] + c["misses"]
        out[f"cache.{name}.hit_ratio"] = c["hits"] / lookups if lookups else 0.0
    return out


def _overhead(traced: list[float], plain: list[float]) -> float:
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


def run_reproduce(seed: int, seconds: float, tracer: Tracer | None = None) -> Outcome:
    """Cold ``full_reproduction("full")`` per item.

    The item has no inputs, so ``seed`` changes nothing; the caches are
    cleared before every item, as every fresh process starts cold.
    """
    from repro.runtime.parallel import sweep_cache_info

    objs = build("reproduce")
    run, render, clear = (
        objs["full_reproduction"],
        objs["render_report"],
        objs["clear_sweep_caches"],
    )
    # At least three items, which at 8-9 s each fill a 15 s run: when
    # host speed decided between two items and three, the maximum (the
    # tail) spread by 10% over ten seeds.
    out = Outcome(min_items=3)
    plain: list[float] = []
    traced: list[float] = []
    ratios: list[dict[str, float]] = []
    start = time.perf_counter()
    while (
        len(plain) + len(traced) < out.min_items
        or time.perf_counter() - start < seconds
        or (tracer is not None and not traced)
    ):
        use_trace = tracer is not None and len(plain) > len(traced)
        clear()
        with tracer.instrument(REPRODUCE_LAYERS) if use_trace else nullcontext():
            with tracer.span("reproduce.item") if use_trace else nullcontext():
                t0 = time.perf_counter()
                report = run("full")
                t1 = time.perf_counter()
        if not use_trace:
            out.timed(t0, t1)
        (traced if use_trace else plain).append(t1 - t0)
        out.attempted += 1
        out.items_done()
        ratios.append(_hit_ratios(sweep_cache_info()))
        digest = hashlib.sha256(render(report).encode()).hexdigest()
        if not report.ok or digest != REPRODUCE_SHA256:
            out.fail(f"reproduce: ok={report.ok} sha256={digest[:16]}")
    if tracer is not None:
        _reproduce_layers(out, tracer, traced, plain, ratios)
    return out


def _reproduce_layers(
    out: Outcome,
    tracer: Tracer,
    traced: list[float],
    plain: list[float],
    ratios: list[dict[str, float]],
) -> None:
    n = len(traced)
    layers = out.layers
    for name, _module, _fn in REPRODUCE_LAYERS:
        layers[name] = _per_item(tracer, name, n)
    layers["reproduce.other_s"] = _per_item(tracer, "reproduce.item", n)
    item = sum(traced) / n
    layers["trace.coverage_share"] = 1.0 - layers["reproduce.other_s"] / item
    layers["trace.overhead_share"] = _overhead(traced, plain)
    for key in ratios[0]:
        layers[key] = statistics.median(r[key] for r in ratios)
    (_lc_in_nn, nn_minus_lc, stuck), _stats = tracer.results["runtime.parallel.thm23_s"]
    star = tracer.results["analysis.open_problem_s"]
    layers["thm23.nn_minus_lc"] = nn_minus_lc
    layers["thm23.stuck"] = stuck
    layers["open_problem.pairs_compared"] = star.pairs_compared
    layers["constructibility.rounds"] = star.rounds
    layers["constructibility.pruned_pairs"] = star.pruned_pairs
    layers.update(decompose_open_problem(star.max_nodes))


def decompose_open_problem(max_nodes: int) -> dict[str, float]:
    """Split the NW* open problem into its model layers, cold each time.

    A separate pass after the items: per-pair calls are too many to
    wrap without distorting them, so each stage is timed whole and the
    stages beneath it are subtracted.
    """
    from repro.models import LC, NW, Universe
    from repro.models.constructibility import constructible_version
    from repro.runtime.parallel import clear_sweep_caches

    universe = Universe(max_nodes=max_nodes, locations=("x",), include_nop=False)

    def timed(fn: Any) -> tuple[Any, float]:
        clear_sweep_caches()
        t0 = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - t0

    pairs, enumerate_s = timed(lambda: sum(1 for _ in universe.pairs()))
    members, materialize_s = timed(
        lambda: sum(1 for c, p in universe.pairs() if NW.contains(c, p))
    )
    result, version_s = timed(lambda: constructible_version(NW, universe))
    sound = range(result.sound_max_nodes + 1)
    _, sound_enumerate_s = timed(
        lambda: sum(1 for n in sound for _ in universe.pairs(n))
    )
    _, compare_s = timed(
        lambda: sum(1 for n in sound for c, p in universe.pairs(n) if LC.contains(c, p))
    )
    return {
        "models.universe.enumerate_s": enumerate_s,
        "models.dag_consistency.nw_membership_s": materialize_s - enumerate_s,
        "models.constructibility.fixpoint_s": version_s - materialize_s,
        "models.location_consistency.lc_compare_s": compare_s - sound_enumerate_s,
        "models.universe.pairs": pairs,
        "models.nw.members": members,
    }


# ----------------------------------------------------------------------
# hier-sim
# ----------------------------------------------------------------------


def _cell_signature(mem: Any, events: int) -> tuple:
    st = mem.stats
    return (
        events,
        tuple((ls.fetches, ls.hits, ls.writebacks, ls.evictions) for ls in st.levels),
        st.memory_fetches,
        st.writebacks,
        st.false_sharing_total,
        st.data_messages,
        st.control_messages,
    )


def run_hier(seed: int, seconds: float, tracer: Tracer | None = None) -> Outcome:
    """Whole passes over the seeded grid of cells.

    A cell is ``work_stealing_schedule`` → ``execute`` on a
    ``HierarchicalBackerMemory`` → ``StreamingLCVerifier.check_trace``.
    Every cell must verify, and every later pass must reproduce the
    first pass's simulated statistics exactly.
    """
    from repro.runtime import executor, hierarchy, scheduler
    from repro.runtime.hier_sweep import _simulated_ops, fault_probe
    from repro.verify import streaming

    shapes = build("hier-sim")["shapes"]
    cells = inputs.hier_grid(seed)
    writes = {
        id(c.comp): sum(1 for u in c.comp.nodes() if c.comp.op(u).is_write)
        for c in cells
    }
    reference: dict[str, tuple] = {}
    out = Outcome(min_items=HIER_MIN_ITEMS)
    plain: list[float] = []
    traced: list[float] = []
    first_pass: list[tuple] = []
    start = time.perf_counter()
    passes = 0
    while (
        (tracer is None and len(plain) < out.min_items)
        or time.perf_counter() - start < seconds
        or (tracer is not None and not traced)
    ):
        use_trace = tracer is not None and passes % 2 == 1
        with tracer.instrument(HIER_LAYERS) if use_trace else nullcontext():
            for cell in cells:
                with tracer.span("hier.item") if use_trace else nullcontext():
                    t0 = time.perf_counter()
                    schedule = scheduler.work_stealing_schedule(
                        cell.comp, cell.procs, rng=cell.schedule_seed
                    )
                    mem = hierarchy.HierarchicalBackerMemory(shapes[cell.shape])
                    trace = executor.execute(schedule, mem)
                    violation = streaming.StreamingLCVerifier.check_trace(trace)
                    t1 = time.perf_counter()
                (traced if use_trace else plain).append(t1 - t0)
                out.attempted += 1
                events = _simulated_ops(mem, len(trace.reads), writes[id(cell.comp)])
                if not use_trace:
                    out.timed(t0, t1)
                    out.events += events
                signature = _cell_signature(mem, events)
                if passes == 0:
                    first_pass.append((signature, violation is None))
                if violation is not None:
                    out.fail(f"{cell.label}: faithful run rejected: {violation.reason}")
                elif reference.setdefault(cell.label, signature) != signature:
                    out.fail(f"{cell.label}: simulated statistics changed")
        passes += 1
        out.items_done()
    rejected = 0
    for shape in shapes.values():
        for level in range(1, shape.depth + 1):
            for mode in ("reconcile", "flush"):
                record = fault_probe(shape, level, mode)
                out.attempted += 1
                if record["lc_verified"] or not record["violation"]:
                    out.fail(f"{shape.name} L{level} dropped {mode} not rejected")
                else:
                    rejected += 1
    if tracer is not None:
        n = len(traced)
        for name, _module, _fn in HIER_LAYERS:
            out.layers[name] = _per_item(tracer, name, n, 1e3)
        check_s = tracer.self_time["verify.streaming.check_ms"]
        out.layers["verify.streaming.share"] = check_s / sum(traced)
        covered = sum(tracer.self_time[name] for name, _m, _f in HIER_LAYERS)
        out.layers["trace.coverage_share"] = covered / sum(traced)
        out.layers["trace.overhead_share"] = _overhead(traced, plain)
        out.layers["hier.sim_events_per_s"] = out.events / sum(plain)
        out.layers.update(_hier_counts(first_pass, rejected))
    return out


def _hier_counts(first_pass: list[tuple], rejected: int) -> dict[str, float]:
    counts: dict[str, float] = {
        "hier.events": 0,
        "hier.store_fetches": 0,
        "hier.writebacks": 0,
        "hier.false_sharing": 0,
        "hier.data_messages": 0,
        "hier.control_messages": 0,
        "hier.verified_cells": 0,
        "hier.probes_rejected": rejected,
    }
    hits = [0, 0, 0]
    probes = [0, 0, 0]
    for (events, levels, store, writebacks, fs, data, control), ok in first_pass:
        counts["hier.events"] += events
        counts["hier.store_fetches"] += store
        counts["hier.writebacks"] += writebacks
        counts["hier.false_sharing"] += fs
        counts["hier.data_messages"] += data
        counts["hier.control_messages"] += control
        counts["hier.verified_cells"] += ok
        for k, (fetches, level_hits, _wb, _ev) in enumerate(levels):
            hits[k] += level_hits
            probes[k] += level_hits + fetches
    for k in range(3):
        counts[f"hier.L{k + 1}.hit_ratio"] = hits[k] / probes[k] if probes[k] else 0.0
    return counts


# ----------------------------------------------------------------------
# serve-unique and serve-litmus
# ----------------------------------------------------------------------


def _worker_state() -> tuple[float, dict[str, dict[str, int]]]:
    """Run in the service's pool worker: its peak RSS (MB) and the
    hit counts of its memo tables."""
    from repro.runtime.parallel import sweep_cache_info

    return _peak_rss_mb(), sweep_cache_info()


def run_serve(
    workload: str, seed: int, seconds: float, tracer: Tracer | None = None
) -> Outcome:
    """Batches through an in-process ``TraceCheckService(jobs=1)``.

    One client (this process) and one pool worker, free to run on any
    CPU.  An item's latency runs from batch submission to its
    ``on_result`` callback.  Every verdict is checked against
    :class:`~perfbench.checks.Oracle` on the same document, and against
    what the document is known to be.  An error response fails too.
    """
    from repro.runtime.parallel import clear_sweep_caches, sweep_cache_info
    from repro.serve import service as service_module

    clear_sweep_caches()  # start cold, as a fresh service process does
    docs_source = (
        inputs.UniqueDocs(seed) if workload == "serve-unique" else inputs.LitmusDocs(seed)
    )
    size = SERVE_BATCH[workload]
    out = Outcome(min_items=4 * size)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    records: list[dict] = []  # untraced items, for the service-run metrics
    counts = {"serve.rejected": 0, "serve.witnesses": 0}
    replay_items = 0
    worker_s_traced = 0.0
    batches = 0
    with Oracle() as oracle:
        service = build(workload)["service"]

        def worker() -> tuple[float, dict[str, dict[str, int]]]:
            # With one worker, every task submitted lands on it.
            return service._ensure_pool().submit(_worker_state).result()

        try:
            while (
                (tracer is None and len(out.raw_latencies_ms) < out.min_items)
                or sum(plain_walls) + sum(traced_walls) < seconds
                or (tracer is not None and not traced_walls)
            ):
                docs = docs_source.batch(size)
                stamps: dict[int, float] = {}
                use_trace = tracer is not None and batches % 2 == 1
                with tracer.instrument(SERVE_LAYERS) if use_trace else nullcontext():
                    t0 = time.perf_counter()
                    results = service.check_batch(
                        [d.line for d in docs],
                        on_result=lambda item: stamps.__setitem__(
                            item.index, time.perf_counter()
                        ),
                    )
                    t1 = time.perf_counter()
                latencies = [1e3 * (stamps[r.index] - t0) for r in results]
                (traced_walls if use_trace else plain_walls).append(t1 - t0)
                if not use_trace:
                    out.timed(t0, t1, latencies)
                out.attempted += len(docs)
                expected = oracle.verdicts([d.doc for d in docs])
                for r, latency in zip(results, latencies):
                    doc = docs[r.index]
                    # As a client reading the NDJSON stream would see it.
                    verdict = json.loads(json.dumps(r.verdict))
                    if not verdict.get("ok"):
                        out.fail(f"item {r.index}: service error {verdict.get('error')}")
                        continue
                    if use_trace and not r.cached:
                        worker_s_traced += verdict["seconds"]
                        with tracer.instrument(CHECK_LAYERS):
                            service_module.check_document(doc.doc, service.options)
                        replay_items += 1
                    problem = checks.verdict_problem(doc, verdict, expected[r.index], r.cached)
                    if problem:
                        out.fail(f"item {r.index}: {problem}")
                    if batches < 2:
                        counts["serve.rejected"] += verdict["admitted"] is False
                        counts["serve.witnesses"] += bool(
                            verdict.get("witness") or verdict.get("sc_witness")
                        )
                    if not use_trace:
                        records.append(
                            {
                                "latency": latency,
                                "cached": r.cached,
                                "seconds": verdict["seconds"],
                                "sc_skipped": verdict["verdicts"].get("sc") is None,
                            }
                        )
                batches += 1
                out.items_done(lambda: worker()[0])
            worker_caches = worker()[1]
        finally:
            service.close()
    if tracer is None:
        return out
    n_traced = len(traced_walls) * size
    layers = out.layers
    for name, _module, _fn in SERVE_LAYERS:
        layers[name] = _per_item(tracer, name, n_traced, 1e3)
    # The pool phase minus the worker's own check time: the hand-off.
    layers["serve.dispatch_ms"] -= 1e3 * worker_s_traced / n_traced
    for name, _module, _fn in CHECK_LAYERS:
        layers[name] = _per_item(tracer, name, replay_items, 1e3)
    misses = [r for r in records if not r["cached"]]
    hits = [r for r in records if r["cached"]]
    layers["serve.check_ms"] = (
        1e3 * sum(r["seconds"] for r in misses) / len(misses) if misses else 0.0
    )
    layers["serve.worker_busy_share"] = sum(r["seconds"] for r in misses) / sum(plain_walls)
    layers["serve.item_wait_ms"] = (
        statistics.median(r["latency"] - 1e3 * r["seconds"] for r in misses) if misses else 0.0
    )
    layers["serve.cache_hit_ms"] = (
        statistics.median(r["latency"] for r in hits) if hits else 0.0
    )
    layers["serve.dedupe_hit_ratio"] = len(hits) / len(records)
    layers["serve.sc_skipped_ratio"] = sum(r["sc_skipped"] for r in records) / len(records)
    covered = sum(tracer.self_time.get(name, 0.0) for name, _m, _f in SERVE_LAYERS)
    layers["trace.coverage_share"] = covered / sum(traced_walls)
    per_item_traced = sum(traced_walls) / (len(traced_walls) * size)
    per_item_plain = sum(plain_walls) / (len(plain_walls) * size)
    layers["trace.overhead_share"] = per_item_traced / per_item_plain - 1.0
    layers.update(counts)
    # The memo tables live in the worker, which runs every check; the
    # canonical form is the one the parent's fingerprint consults.
    layers.update(_hit_ratios(worker_caches))
    canonical = "cache.canonical_form.hit_ratio"
    layers[canonical] = _hit_ratios(sweep_cache_info())[canonical]
    return out


WORKLOADS = {
    "reproduce": run_reproduce,
    "hier-sim": run_hier,
    "serve-unique": lambda seed, seconds, tracer=None: run_serve(
        "serve-unique", seed, seconds, tracer
    ),
    "serve-litmus": lambda seed, seconds, tracer=None: run_serve(
        "serve-litmus", seed, seconds, tracer
    ),
}
