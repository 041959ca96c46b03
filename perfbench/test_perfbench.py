"""Tests for the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``
(under a minute; the serve tests start a one-worker pool each).
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from perfbench import checks, inputs, run, speed, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SLEEP_S = 0.02


def _small_hier_grid(monkeypatch: pytest.MonkeyPatch) -> None:
    grid = inputs.hier_grid

    monkeypatch.setattr(inputs, "hier_grid", lambda seed: grid(seed)[:8])
    monkeypatch.setattr(workloads, "HIER_MIN_ITEMS", 8)


def _small_batches(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setitem(workloads.SERVE_BATCH, "serve-unique", 30)
    monkeypatch.setitem(workloads.SERVE_BATCH, "serve-litmus", 40)


def _slow_canonical_form(monkeypatch: pytest.MonkeyPatch) -> None:
    """Add a fixed sleep to ``repro.dag.enumerate.canonical_form``."""
    from repro.dag import enumerate as dag_enumerate

    original = dag_enumerate.canonical_form

    def slow(dag):
        time.sleep(SLEEP_S)
        return original(dag)

    monkeypatch.setattr(dag_enumerate, "canonical_form", slow)


def _declared_layers() -> set[str]:
    return {m["name"] for m in run.spec()["per_layer"]}


def test_benchmark_json_matches_the_workloads():
    declared = run.spec()
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    listed = [w["name"] for w in declared["workloads"]]
    assert listed == [w for w in workloads.WORKLOADS if w != "serve-litmus"]
    boundaries = (
        workloads.REPRODUCE_LAYERS,
        workloads.HIER_LAYERS,
        workloads.SERVE_LAYERS,
        workloads.CHECK_LAYERS,
    )
    assert {name for layers in boundaries for name, _m, _f in layers} <= _declared_layers()


def test_serve_litmus_is_listed_once_the_service_fingerprints_it():
    """``serve-litmus`` stays out of ``BENCHMARK.json`` only while
    ``request_fingerprint`` raises on some of its documents (it compares
    ``None`` with an int when a read observes ⊥).  Once that is fixed,
    this test fails until the workload is listed again."""
    from repro.io import load_trace
    from repro.serve.service import CheckOptions, request_fingerprint

    failing = 0
    for doc in inputs.LitmusDocs(0).batch(100):
        try:
            request_fingerprint(load_trace(doc.doc), CheckOptions())
        except TypeError:
            failing += 1
    listed = "serve-litmus" in {w["name"] for w in run.spec()["workloads"]}
    assert listed == (failing == 0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert run.tail(values, 1000) == (99.0, 990.0)
    assert run.tail(values[:200], 200) == (95.0, 190.0)
    assert run.tail(values[:150], 150) == (90.0, 135.0)
    assert run.tail([5.0, 7.0], 2) == (100.0, 7.0)


def test_inputs_repeat_per_seed_and_unique_docs_are_distinct():
    a = inputs.UniqueDocs(4).batch(40)
    b = inputs.UniqueDocs(4).batch(40)
    assert [d.line for d in a] == [d.line for d in b]
    assert len({d.line for d in a}) == len(a)
    assert all(50 <= d.nodes <= 400 for d in a)
    assert [d.faulty for d in a] == [inputs.has_masked_write(d.doc) for d in a]
    litmus = inputs.LitmusDocs(4).batch(200)
    assert [d.line for d in litmus] == [d.line for d in inputs.LitmusDocs(4).batch(200)]
    assert any(d.relabelled for d in litmus)
    assert all(4 <= d.nodes <= 12 for d in litmus)
    assert inputs.hier_grid(4) == inputs.hier_grid(4)


def test_checks_reject_invalid_witnesses():
    doc = inputs.LitmusDocs(2).batch(1)[0].doc
    n = doc["computation"]["num_nodes"]
    assert checks.sc_order_problem(doc, list(range(n))[:-1])
    assert checks.lc_witness_problem(doc, {"node": n, "loc": "'x'", "blocks": []})
    assert checks.lc_witness_problem(doc, None)


def test_wrong_verdict_raises_failed_share(monkeypatch):
    """A service that admits everything must show up as failed items."""
    from repro.serve import service

    _small_batches(monkeypatch)
    monkeypatch.setattr(service, "_admitted", lambda verdicts: True)
    out = workloads.run_serve("serve-litmus", 1, 0.5)
    assert out.failed / out.attempted > 0.05


def test_error_response_is_a_wrong_output(monkeypatch):
    """An error from the service is a failed item and makes the run wrong."""
    from repro.serve import service

    fingerprint = service.request_fingerprint

    def broken(obj, options):
        key, perm = fingerprint(obj, options)
        if len(perm) > 2:  # every document but the set-up round trip's
            raise TypeError("injected")
        return key, perm

    _small_batches(monkeypatch)
    monkeypatch.setattr(service, "request_fingerprint", broken)
    out = workloads.run_serve("serve-unique", 1, 0.1)
    assert out.failed == out.attempted > 0


def test_probe_speed_ignores_the_measured_process():
    """The probes' kernel time must not follow what the measured process
    does: idle and heap-churning windows, interleaved so host drift
    falls on both alike, must read the same speed."""
    windows: dict[str, list[tuple[float, float]]] = {"idle": [], "churn": []}
    with speed.Speedometer() as meter:
        for _ in range(5):
            t0 = time.perf_counter()
            time.sleep(0.4)
            windows["idle"].append((t0, time.perf_counter()))
            t0 = time.perf_counter()
            heap: dict = {}
            while time.perf_counter() - t0 < 0.4:
                for i in range(20000):
                    heap[i, len(heap)] = [i] * 4
            windows["churn"].append((t0, time.perf_counter()))
            del heap
    factor = {k: statistics.median(meter.scale(*w) for w in v) for k, v in windows.items()}
    assert 0.85 < factor["churn"] / factor["idle"] < 1.15


def test_unrejected_fault_probe_is_a_failure(monkeypatch):
    from repro.verify.streaming import StreamingLCVerifier

    _small_hier_grid(monkeypatch)
    monkeypatch.setattr(StreamingLCVerifier, "check_trace", classmethod(lambda cls, t: None))
    out = workloads.run_hier(1, 0.1)
    assert out.failed == 12


def test_exact_counts_repeat(monkeypatch):
    _small_hier_grid(monkeypatch)
    _small_batches(monkeypatch)
    hier = [workloads.run_hier(2, 0.1, Tracer()).layers for _ in range(2)]
    keys = [k for k in hier[0] if k.startswith("hier.") and k != "hier.sim_events_per_s"]
    assert [{k: h[k] for k in keys} for h in hier][0] == {k: hier[1][k] for k in keys}
    assert hier[0]["hier.verified_cells"] == 8 and hier[0]["hier.probes_rejected"] == 12
    serve = [workloads.run_serve("serve-litmus", 2, 0.5, Tracer()).layers for _ in range(2)]
    for key in ("serve.rejected", "serve.witnesses"):
        assert serve[0][key] == serve[1][key] > 0
    assert set(hier[0]) | set(serve[0]) <= _declared_layers()


def test_sleep_is_attributed_to_its_layer_and_workload(monkeypatch):
    """A fixed sleep in ``canonical_form`` lands in that layer's self time,
    raises serve-litmus latency, and leaves serve-unique (which never
    canonicalizes: every dag is above the brute-force limit) flat."""
    _small_batches(monkeypatch)
    base_tracer = Tracer()
    workloads.run_serve("serve-litmus", 3, 1.0, base_tracer)
    base_litmus = workloads.run_serve("serve-litmus", 3, 1.5)
    base_unique = workloads.run_serve("serve-unique", 3, 1.5)
    with monkeypatch.context() as m:
        _slow_canonical_form(m)
        tracer = Tracer()
        workloads.run_serve("serve-litmus", 3, 1.0, tracer)
        slow_litmus = workloads.run_serve("serve-litmus", 3, 1.5)
        unique_tracer = Tracer()
        workloads.run_serve("serve-unique", 3, 0.5, unique_tracer)
        slow_unique = workloads.run_serve("serve-unique", 3, 1.5)

    def per_call(t: Tracer, layer: str) -> float:
        return t.self_time[layer] / t.calls[layer]

    canonical = "dag.enumerate.canonical_ms"
    fingerprint = "serve.fingerprint_ms"
    assert per_call(tracer, canonical) - per_call(base_tracer, canonical) > 0.9 * SLEEP_S
    assert per_call(tracer, fingerprint) - per_call(base_tracer, fingerprint) < 0.1 * SLEEP_S

    def p50(out):
        return statistics.median(out.raw_latencies_ms)

    assert p50(slow_litmus) > 1.15 * p50(base_litmus)
    assert unique_tracer.calls.get(canonical, 0) == 0
    assert 0.7 < p50(slow_unique) / p50(base_unique) < 1.3


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hier-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
