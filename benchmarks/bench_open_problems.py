"""Section 7's open problem — what are NW* and WN*?

The paper leaves the constructible versions of NW and WN
uncharacterized ("It is known that LC ⊆ WN* and that LC ⊆ NW*, but we
do not know whether these inclusions are strict").  This bench computes
the bounded greatest fixpoints and reports what they say:

* ``LC ⊆ NW*`` holds on every fragment (forced by Theorem 9.3; checked
  anyway), and pairs in ``NW* \\ LC`` *persist* as the bound grows
  (checked up to n ≤ 6) —
  bounded-universe evidence that **LC ⊊ NW* is strict**.  The smallest
  persistent candidate has 3 nodes: a read observing a concurrent write
  followed by a ⊥-read, which no augmentation can kill because the
  final node may keep observing that write.
* Under this library's (formal-table) reading WN is constructible, so
  ``WN* = WN ⊋ LC`` resolves outright, witnessed by Figure 3's pair.

Legacy pytest-benchmark suite: intentionally *not* registered in
``registry.py`` (no ``run(check, quick)`` entrypoint), so ``repro
bench`` and the perf ledger skip it; run it directly with
``pytest benchmarks/bench_open_problems.py``.
"""

from repro.analysis.open_problems import explore_star_vs_lc, render_star_report
from repro.models import LC, NW, WN, Universe, find_nonconstructibility_witness
from repro.paperfigures import figure3_pair


def test_nw_star_vs_lc(benchmark):
    universe = Universe(max_nodes=4, locations=("x",), include_nop=False)
    report = benchmark.pedantic(
        explore_star_vs_lc, args=(NW, universe), rounds=1
    )
    print()
    print(render_star_report(report))
    # LC ⊆ NW* must hold (Theorem 9.3).
    assert not report.soundness_violations
    # The strictness candidates exist already at 3 nodes.
    assert report.strictness_candidates
    assert min(c.num_nodes for c, _ in report.strictness_candidates) == 3


def test_nw_star_candidates_persist_at_larger_bound(benchmark):
    """The 3-node candidates survive the n ≤ 5 universe's pruning too —
    the evidence that LC ⊊ NW* is not an artifact of a tiny bound."""
    universe = Universe(max_nodes=5, locations=("x",), include_nop=False)
    report = benchmark.pedantic(
        explore_star_vs_lc, args=(NW, universe), rounds=1
    )
    print()
    print(render_star_report(report))
    assert not report.soundness_violations
    assert report.strictness_candidates
    assert min(c.num_nodes for c, _ in report.strictness_candidates) == 3
    # And at this bound the fixpoint genuinely pruned something, so the
    # persistence is meaningful.
    assert report.pruned_pairs > 0


def test_nw_star_candidates_persist_at_six_nodes(benchmark):
    """One bound further: n ≤ 6, sound to 5 nodes (319,363 pairs
    compared).  The 3-node candidates still survive."""
    universe = Universe(max_nodes=6, locations=("x",), include_nop=False)
    report = benchmark.pedantic(
        explore_star_vs_lc, args=(NW, universe), rounds=1
    )
    print()
    print(render_star_report(report))
    assert not report.soundness_violations
    assert report.strictness_candidates
    assert min(c.num_nodes for c, _ in report.strictness_candidates) == 3
    assert (report.rounds, report.pruned_pairs) == (2, 396)
    assert report.pairs_compared == 319363


def test_wn_star_resolution(benchmark):
    """WN* = WN under the formal predicate table, and LC ⊊ WN strictly."""
    universe = Universe(max_nodes=3, locations=("x",))

    def check():
        closed = find_nonconstructibility_witness(WN, universe) is None
        comp, phi = figure3_pair()
        return closed, WN.contains(comp, phi), LC.contains(comp, phi)

    closed, in_wn, in_lc = benchmark.pedantic(check, rounds=1)
    assert closed, "WN must be augmentation-closed (constructible)"
    assert in_wn and not in_lc, "Figure 3 witnesses LC ⊊ WN = WN*"
    print()
    print("WN* = WN (constructible under the formal table); LC ⊊ WN* "
          "witnessed by Figure 3's pair")
