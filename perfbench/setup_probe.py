"""The program's own set-up for one workload, timed in a fresh interpreter.

Run as ``python perfbench/setup_probe.py <workload>`` with ``src`` on
``PYTHONPATH``; prints ``{"setup_s": ..., "t0": ..., "t1": ...}``, the
set-up time and its start and end on ``time.perf_counter``, so the
caller can scale it by the host speed its probes saw in that window
(see ``speed.py``).  Set-up is importing what the workload uses plus
building the program objects; for the serve workloads it includes the
service's first pool round trip.  The benchmark's own input generation
is not part of it.  ``build`` is also what the measuring process calls,
untimed, before its items.
"""

from __future__ import annotations

import json
import sys
import time

_T0 = time.perf_counter()

PING = json.dumps(
    {
        "format": "repro/trace",
        "version": 1,
        "computation": {
            "format": "repro/computation",
            "version": 1,
            "num_nodes": 2,
            "edges": [[0, 1]],
            "ops": [{"kind": "W", "loc": "x"}, {"kind": "R", "loc": "x"}],
        },
        "memory": "backer",
        "num_procs": 1,
        "proc_of": [0, 0],
        "start_of": [0, 1],
        "reads": [{"node": 1, "loc": "x", "observed": 0}],
    }
)


def build(workload: str) -> dict:
    """Import and construct what ``workload`` runs; return the objects."""
    if workload == "reproduce":
        from repro.analysis import lattice, open_problems, report  # noqa: F401
        from repro.analysis.reproduce import full_reproduction, render_report
        from repro.models import Universe
        from repro.runtime.parallel import clear_sweep_caches

        universes = [
            Universe(max_nodes=3, locations=("x",)),
            Universe(max_nodes=4, locations=("x",), include_nop=False),
            Universe(max_nodes=5, locations=("x",), include_nop=False),
        ]
        return {
            "full_reproduction": full_reproduction,
            "render_report": render_report,
            "clear_sweep_caches": clear_sweep_caches,
            "universes": universes,
        }
    if workload == "hier-sim":
        from repro.runtime.hierarchy import HierarchicalBackerMemory, HierarchyConfig
        from repro.runtime.hier_sweep import fault_probe  # noqa: F401
        from repro.runtime.executor import execute  # noqa: F401
        from repro.runtime.scheduler import work_stealing_schedule  # noqa: F401
        from repro.verify.streaming import StreamingLCVerifier  # noqa: F401

        shapes = {
            name: HierarchyConfig.preset(name) for name in ("l1", "l1l2", "l1l2l3")
        }
        for shape in shapes.values():
            HierarchicalBackerMemory(shape)
        return {"shapes": shapes}
    if workload in ("serve-unique", "serve-litmus"):
        from repro.serve import CheckOptions, TraceCheckService

        service = TraceCheckService(options=CheckOptions(), jobs=1)
        (result,) = service.check_batch([PING], label="setup")
        if not result.verdict.get("admitted"):
            raise RuntimeError(f"set-up round trip failed: {result.verdict}")
        return {"service": service}
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    objects = build(sys.argv[1])
    t1 = time.perf_counter()
    service = objects.get("service")
    if service is not None:
        service.close()
    print(json.dumps({"setup_s": t1 - _T0, "t0": _T0, "t1": t1}))


if __name__ == "__main__":
    main()
