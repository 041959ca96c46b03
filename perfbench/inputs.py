"""Seeded inputs for the benchmark workloads.

Everything here runs before any timer starts.  The program under test
receives only what these functions build: computations for the
hierarchy simulator, and ``repro/trace`` JSON documents for the
trace-checking service.  The same seed always gives the same inputs.

Fault-injected documents are rejected *by construction*: each holds a
masked write (a read of ``l`` observes ``v`` although some write ``w``
of ``l`` satisfies ``v ≺ w ≺ read``, or observes ⊥ below a write), which
no topological sort can explain, so every location-consistency checker
must reject it.  The criterion is evaluated here on the dag alone,
never by asking the checkers under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.core import Computation, R, W
from repro.core.ops import N
from repro.dag import Dag
from repro.io import dump_trace
from repro.runtime import BackerMemory, execute
from repro.runtime.scheduler import work_stealing_schedule

HIER_PRESETS = ("l1", "l1l2", "l1l2l3")
HIER_PROCS = (2, 4)
HIER_SCHEDULE_SEEDS = 2


@dataclass(frozen=True)
class HierCell:
    """One hierarchy-simulator grid cell."""

    program: str
    comp: Computation
    shape: str
    procs: int
    schedule_seed: int

    @property
    def label(self) -> str:
        return (
            f"{self.program}-{self.comp.num_nodes}/{self.shape}/"
            f"p{self.procs}/s{self.schedule_seed}"
        )


def hier_programs() -> list[tuple[str, Computation]]:
    """The four bundled programs, each at three fixed mid sizes.

    Sizes run from about 200 to 1500 nodes, where one cell takes 3–60
    ms; the CLI's full-size grid (stencil 24×24 alone takes 16 s) is far
    too long for a timed run.  Three sizes per program spread the cell
    times evenly, so the median cell sits in a dense part of the
    distribution instead of in a gap between two clusters, where timing
    noise would flip it between them.  The sizes do not depend on the
    seed, so every seed's grid costs the same.
    """
    from repro.lang.programs import (
        fib_computation,
        racy_counter_computation,
        stencil_computation,
        tree_sum_computation,
    )

    return [
        *(("racy", racy_counter_computation(a, b)[0]) for a, b in ((12, 8), (16, 10), (20, 12))),
        *(("fib", fib_computation(k)[0]) for k in (10, 11, 12)),
        *(("tree-sum", tree_sum_computation(k)[0]) for k in (192, 256, 384)),
        *(("stencil", stencil_computation(a, b)[0]) for a, b in ((8, 6), (10, 6), (10, 8))),
    ]


def hier_grid(seed: int) -> list[HierCell]:
    """programs × presets × procs × schedule seeds, in a seeded order;
    the seed draws the schedule seeds and the order."""
    rng = random.Random(f"hier-grid-{seed}")
    cells = [
        HierCell(program, comp, shape, procs, rng.randrange(1 << 30))
        for program, comp in hier_programs()
        for procs in HIER_PROCS
        for _ in range(HIER_SCHEDULE_SEEDS)
        for shape in HIER_PRESETS
    ]
    rng.shuffle(cells)
    return cells


# ----------------------------------------------------------------------
# Trace documents for the service
# ----------------------------------------------------------------------


@dataclass
class Doc:
    """One request line plus what the benchmark knows about it.

    ``faulty`` documents carry a masked write and must be rejected with
    a witness; faithful BACKER documents must be admitted by LC.
    ``relabelled`` marks a repeat of an earlier document with its node
    ids permuted.
    """

    line: str
    doc: dict
    nodes: int
    faulty: bool
    relabelled: bool = False


def _random_computation(
    rng: random.Random, n: int, locations: list[str]
) -> Computation:
    """A random dag of ``n`` nodes with 1–2 predecessors drawn from a
    short window (long, moderately parallel dags) and random ops."""
    edges = set()
    for v in range(1, n):
        for _ in range(rng.randint(1, 2)):
            u = rng.randint(max(0, v - 6), v - 1)
            edges.add((u, v))
    ops = []
    for _ in range(n):
        x = rng.random()
        loc = rng.choice(locations)
        ops.append(W(loc) if x < 0.4 else R(loc) if x < 0.92 else N)
    return Computation(Dag(n, sorted(edges)), ops)


def has_masked_write(doc: dict) -> bool:
    """True iff some read observes a value a dag-ordered write masks.

    Works on the document alone: a read of ``l`` at ``u`` observing
    ``v`` is masked if a write ``w`` of ``l`` has ``w ≺ u`` and either
    ``v`` is ⊥ or ``v ≺ w``.
    """
    comp = doc["computation"]
    n = comp["num_nodes"]
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in comp["edges"]:
        succ[u].append(v)
        pred[v].append(u)
    order = _topological(n, pred, succ)
    anc = [0] * n
    for v in order:
        for u in pred[v]:
            anc[v] |= anc[u] | (1 << u)
    writers: dict[str, int] = {}
    for u, op in enumerate(comp["ops"]):
        if op["kind"] == "W":
            key = json.dumps(op["loc"], sort_keys=True)
            writers[key] = writers.get(key, 0) | (1 << u)
    for event in doc["reads"]:
        u, seen = event["node"], event["observed"]
        below = anc[u] & writers.get(json.dumps(event["loc"], sort_keys=True), 0)
        if not below:
            continue
        if seen is None:
            return True
        # Some write below u lies strictly above the observed writer.
        w = below
        while w:
            low = w & -w
            if anc[low.bit_length() - 1] >> seen & 1:
                return True
            w ^= low
    return False


def _topological(n: int, pred: list[list[int]], succ: list[list[int]]) -> list[int]:
    indeg = [len(p) for p in pred]
    ready = [u for u in range(n) if indeg[u] == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return order


def backer_doc(
    rng: random.Random, n: int, locations: list[str], faulty: bool
) -> Doc:
    """A BACKER execution of a random computation, as a request line.

    Faulty documents drop reconciles and flushes and are redrawn until
    the trace holds a masked write, so the fault is visible by
    construction.
    """
    for _ in range(200):
        comp = _random_computation(rng, n, locations)
        procs = rng.randint(2, 4)
        schedule = work_stealing_schedule(comp, procs, rng=rng.randrange(1 << 30))
        if faulty:
            memory = BackerMemory(
                drop_reconcile_probability=0.6,
                drop_flush_probability=0.6,
                rng=rng.randrange(1 << 30),
            )
        else:
            memory = BackerMemory()
        doc = dump_trace(execute(schedule, memory))
        if not faulty or has_masked_write(doc):
            return Doc(json.dumps(doc), doc, n, faulty)
    raise RuntimeError("could not draw a fault-injected trace with a masked write")


def relabel(doc: dict, perm: list[int]) -> dict:
    """The same trace with node ``u`` renamed ``perm[u]``."""
    comp = doc["computation"]
    n = comp["num_nodes"]
    ops: list = [None] * n
    proc_of: list = [None] * n
    start_of: list = [None] * n
    for u in range(n):
        ops[perm[u]] = comp["ops"][u]
        proc_of[perm[u]] = doc["proc_of"][u]
        start_of[perm[u]] = doc["start_of"][u]
    return {
        **doc,
        "computation": {
            **comp,
            "edges": sorted([perm[u], perm[v]] for u, v in comp["edges"]),
            "ops": ops,
        },
        "proc_of": proc_of,
        "start_of": start_of,
        "reads": [
            {
                "node": perm[e["node"]],
                "loc": e["loc"],
                "observed": None if e["observed"] is None else perm[e["observed"]],
            }
            for e in doc["reads"]
        ],
    }


class UniqueDocs:
    """Distinct mid-size BACKER traces, 50–400 nodes, 20% faulty.

    Every document names its own locations (``d<index>.<k>``), so no two
    are isomorphic and every request misses the verdict cache and the
    worker's memo tables.
    """

    FAULT_SHARE = 0.2

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-unique-{seed}")
        self.count = 0

    def batch(self, size: int) -> list[Doc]:
        # Sizes evenly spread over 50–400 and a fixed faulty share in
        # every batch, in a seeded order: the seed draws the documents,
        # not the batch's mix, so no seed's batches are dearer than
        # another's.
        rng = self.rng
        sizes = [50 + 350 * (2 * i + 1) // (2 * size) for i in range(size)]
        rng.shuffle(sizes)
        faulty = set(rng.sample(range(size), round(self.FAULT_SHARE * size)))
        out = []
        for i, n in enumerate(sizes):
            locations = [f"d{self.count}.{k}" for k in range(rng.randint(2, 6))]
            out.append(backer_doc(rng, n, locations, i in faulty))
            self.count += 1
        return out


class LitmusDocs:
    """Small traces, 4–12 nodes over one or two locations.

    Each batch is half fresh documents and half repeats of earlier ones,
    alternately exact and with node ids permuted, so the service's
    canonical fingerprint and verdict cache (with witness remapping) are
    exercised alongside the exact SC search.  A fifth of the fresh
    documents are fault-injected.  Sizes cycle through 4–12 for fresh
    and repeated documents alike: the brute-force fingerprint tries
    7! node orders at 7 nodes against 4! at 4, so drawing sizes at
    random would make one seed's batches measurably dearer than
    another's.
    """

    SIZES = tuple(range(4, 13))
    FAULT_SHARE = 0.2

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve-litmus-{seed}")
        self.by_size: dict[int, list[Doc]] = {n: [] for n in self.SIZES}
        self.count = 0

    def _sizes(self, k: int) -> list[int]:
        sizes = [self.SIZES[(self.count + i) % len(self.SIZES)] for i in range(k)]
        self.count += k
        return sizes

    def batch(self, size: int) -> list[Doc]:
        rng = self.rng
        fresh = self._sizes(size - size // 2)
        faulty = set(rng.sample(range(len(fresh)), round(self.FAULT_SHARE * len(fresh))))
        out = []
        for i, n in enumerate(fresh):
            doc = backer_doc(rng, n, ["x", "y"][: rng.randint(1, 2)], i in faulty)
            self.by_size[n].append(doc)
            out.append(doc)
        for i, n in enumerate(self._sizes(size // 2)):
            base = rng.choice(self.by_size[n])
            if i % 2:
                perm = list(range(n))
                rng.shuffle(perm)
                doc = relabel(base.doc, perm)
                out.append(Doc(json.dumps(doc), doc, n, base.faulty, True))
            else:
                out.append(base)
        rng.shuffle(out)
        return out
