"""Tests for constructibility (Section 3) and Theorem 23 machinery."""

import random

import pytest
from hypothesis import given, settings

from repro import obs

from repro.core import N, ObserverFunction, R, W
from repro.models import (
    LC,
    NN,
    NW,
    SC,
    WN,
    WW,
    ExplicitModel,
    Universe,
    augmentation_closed_at,
    augmentation_extensions,
    can_extend_to_augmentation,
    constructible_version,
    find_nonconstructibility_witness,
    is_constructible_prefix_definition,
)
from repro.paperfigures import figure4_blocking_ops, figure4_pair
from tests.conftest import computations_with_observer


class TestAugmentationExtensions:
    def test_all_extensions_valid_and_extend(self):
        comp, phi = figure4_pair()
        for o in (R("x"), W("x"), N):
            for aug, phi2 in augmentation_extensions(comp, phi, o):
                assert aug.is_extension_of(comp, o)
                assert phi2.extends(phi)
                # Re-validate Definition 2 explicitly.
                ObserverFunction(
                    aug, {loc: phi2.row(loc) for loc in phi2.locations}
                )

    def test_write_forces_self_observation(self):
        comp, phi = figure4_pair()
        exts = list(augmentation_extensions(comp, phi, W("x")))
        final = comp.num_nodes
        assert all(phi2.value("x", final) == final for _, phi2 in exts)
        assert len(exts) == 1

    def test_read_candidates(self):
        comp, phi = figure4_pair()
        exts = list(augmentation_extensions(comp, phi, R("x")))
        finals = {phi2.value("x", comp.num_nodes) for _, phi2 in exts}
        assert finals == {None, 0, 1}  # ⊥ and the two writes


class TestFigure4:
    """The paper's non-constructibility argument for NN, mechanically."""

    def test_pair_is_nn_member(self):
        comp, phi = figure4_pair()
        assert NN.contains(comp, phi)

    def test_non_write_augmentations_stuck(self):
        comp, phi = figure4_pair()
        for o in figure4_blocking_ops():
            assert not can_extend_to_augmentation(NN, comp, phi, o)

    def test_write_augmentation_fine(self):
        comp, phi = figure4_pair()
        assert can_extend_to_augmentation(NN, comp, phi, W("x"))

    def test_augmentation_closed_at_reports_blocker(self):
        comp, phi = figure4_pair()
        blocker = augmentation_closed_at(NN, comp, phi, [R("x"), N, W("x")])
        assert blocker == R("x")

    def test_lc_not_stuck_anywhere_nearby(self):
        comp, phi = figure4_pair()
        # The pair is not in LC, but every LC pair on this computation
        # extends fine.
        for psi in LC.observers(comp):
            assert (
                augmentation_closed_at(LC, comp, psi, [R("x"), W("x"), N])
                is None
            )


class TestWitnessSearch:
    def test_nn_witness_found(self):
        u = Universe(max_nodes=4, locations=("x",), include_nop=False)
        wit = find_nonconstructibility_witness(NN, u)
        assert wit is not None
        assert NN.contains(wit.comp, wit.phi)
        assert not can_extend_to_augmentation(
            NN, wit.comp, wit.phi, wit.blocking_op
        )

    def test_nw_witness_found(self):
        u = Universe(max_nodes=4, locations=("x",), include_nop=False)
        wit = find_nonconstructibility_witness(NW, u)
        assert wit is not None

    def test_sc_lc_ww_closed(self):
        u = Universe(max_nodes=3, locations=("x",))
        for m in (SC, LC, WW):
            assert find_nonconstructibility_witness(m, u) is None, m.name

    def test_wn_closed_documented_deviation(self):
        """WN under the paper's formal predicate table is constructible:
        the all-⊥ extension always works (see KNOWN_DEVIATIONS)."""
        u = Universe(max_nodes=3, locations=("x",))
        assert find_nonconstructibility_witness(WN, u) is None

    @given(computations_with_observer(max_nodes=4))
    @settings(max_examples=40, deadline=None)
    def test_wn_bottom_extension_always_works(self, pair):
        """The proof object behind the WN deviation, property-tested."""
        comp, phi = pair
        if WN.contains(comp, phi):
            for o in (R("x"), W("x"), N):
                assert can_extend_to_augmentation(WN, comp, phi, o)


class TestTheorem12:
    """Augmentation closure ⟺ literal Definition 6, for monotonic models."""

    @given(computations_with_observer(max_nodes=3))
    @settings(max_examples=15, deadline=None)
    def test_prefix_definition_matches_augmentation_for_nn(self, pair):
        comp, _ = pair
        # Def 6 restricted to prefixes of `comp`: if some prefix pair is
        # stuck (cannot extend to full comp), then some pair must also
        # fail a one-step augmentation somewhere inside comp's universe.
        # We check the cheap direction: augmentation-closure of all
        # sub-prefix pairs implies the prefix definition holds.
        alphabet = [R("x"), W("x"), N]
        all_closed = True
        for mask in comp.prefix_masks():
            prefix, _old = comp.restrict(mask)
            for phi in NN.observers(prefix):
                if augmentation_closed_at(NN, prefix, phi, alphabet) is not None:
                    all_closed = False
        if all_closed:
            # Every extension chain can be completed step by step; the
            # literal prefix check on `comp` must succeed for any prefix
            # reachable by extension — only guaranteed when each single
            # extension is coverable, which augmentation-closure plus
            # monotonicity gives (Theorems 10 and 12).
            assert is_constructible_prefix_definition(NN, comp)

    def test_prefix_definition_detects_fig4(self):
        comp, phi = figure4_pair()
        aug = comp.augment(R("x"))
        assert not is_constructible_prefix_definition(NN, aug)

    def test_prefix_definition_passes_for_lc_on_fig4(self):
        comp, _ = figure4_pair()
        aug = comp.augment(R("x"))
        assert is_constructible_prefix_definition(LC, aug)


class TestConstructibleVersion:
    def test_nn_star_on_tiny_universe(self):
        u = Universe(max_nodes=3, locations=("x",), include_nop=False)
        res = constructible_version(NN, u)
        assert res.sound_max_nodes == 2
        # On sizes ≤ 2, NN* must coincide with LC (Theorem 23).
        for n in range(res.sound_max_nodes + 1):
            for comp in u.computations_of_size(n):
                for phi in u.observers(comp):
                    assert res.model.contains(comp, phi) == LC.contains(
                        comp, phi
                    )

    def test_ww_star_is_ww(self):
        u = Universe(max_nodes=3, locations=("x",), include_nop=False)
        res = constructible_version(WW, u)
        assert res.pruned_pairs == 0

    def test_result_reports_rounds(self):
        u = Universe(max_nodes=2, locations=("x",))
        res = constructible_version(LC, u)
        assert res.rounds >= 1
        assert res.pruned_pairs == 0

    def test_nn_star_figures_at_five_nodes(self):
        """EXPERIMENTS.md's Theorem 23 row: 2 rounds, 24 pairs pruned."""
        u = Universe(max_nodes=5, locations=("x",), include_nop=False)
        res = constructible_version(NN, u)
        assert (res.rounds, res.pruned_pairs) == (2, 24)

    def test_frontier_is_never_enumerated(self, monkeypatch):
        """Only sizes below the frontier are enumerated; frontier pairs
        are looked up in Δ, and ``model_pairs`` is not used at all."""
        u = Universe(max_nodes=4, locations=("x",), include_nop=False)
        sizes = []
        real = Universe.computations_of_size

        def spy(self, n, mask_range=None):
            sizes.append(n)
            return real(self, n, mask_range)

        def forbidden(*args, **kwargs):
            raise AssertionError("constructible_version materialized Δ")

        monkeypatch.setattr(Universe, "computations_of_size", spy)
        monkeypatch.setattr(Universe, "model_pairs", forbidden)
        res = constructible_version(NW, u)
        assert sorted(sizes) == [0, 1, 2, 3]
        assert max(c.num_nodes for c in res.model.computations()) == 3

    def test_frontier_answered_by_delta(self):
        u = Universe(max_nodes=3, locations=("x",), include_nop=False)
        res = constructible_version(NN, u)
        for comp in u.computations_of_size(3):
            assert set(res.model.observers(comp)) == set(NN.observers(comp))
            for phi in u.observers(comp):
                assert res.model.contains(comp, phi) == NN.contains(comp, phi)
        # Outside the universe nothing is a member, frontier size or not.
        comp = next(u.computations_of_size(3)).augment(R("x"))
        assert not any(
            res.model.contains(comp, phi) for phi in u.observers(comp)
        )
        nop_comp = Universe(max_nodes=3, locations=("x",)).computations_of_size(3)
        outside = next(c for c in nop_comp if N in c.ops)
        assert not any(
            res.model.contains(outside, phi) for phi in u.observers(outside)
        )

    def test_one_span_per_level(self):
        u = Universe(max_nodes=4, locations=("x",), include_nop=False)
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            with obs.span("root"):
                res = constructible_version(NW, u)
            (root,) = obs.get().roots
        finally:
            obs.disable()
            obs.reset()
        levels = root.children
        assert [sp.name for sp in levels] == ["constructibility.level"] * 4
        assert [sp.attrs["n"] for sp in levels] == [3, 2, 1, 0]
        assert sum(sp.attrs["pruned"] for sp in levels) == res.pruned_pairs
        assert sum(sp.attrs["pairs"] for sp in levels) == sum(
            1 for n in range(4) for c, p in u.pairs(n) if NW.contains(c, p)
        )
        assert levels[0].attrs["frontier_checks"] > 0
        assert all(sp.attrs["frontier_checks"] == 0 for sp in levels[1:])


def round_robin_constructible_version(model, universe):
    """The round-robin greatest-fixpoint sweep, kept as a test oracle.

    Materializes Δ over the whole universe, then re-tests every pair
    below the frontier against the current survivors until a sweep
    removes nothing.  Returns ``(survivors, rounds, pruned_pairs)``.
    """
    members = {}
    for comp, phi in universe.model_pairs(model):
        members.setdefault(comp, set()).add(phi)

    def survives(comp, phi):
        return all(
            any(
                phi2 in members.get(aug, ())
                for aug, phi2 in augmentation_extensions(comp, phi, o)
            )
            for o in universe.alphabet
        )

    pruned_total = 0
    rounds = 0
    while True:
        rounds += 1
        removed_this_round = 0
        for comp in list(members):
            if comp.num_nodes >= universe.max_nodes:
                continue
            keep = {phi for phi in members[comp] if survives(comp, phi)}
            removed_this_round += len(members[comp]) - len(keep)
            members[comp] = keep
        pruned_total += removed_this_round
        if removed_this_round == 0:
            break
    survivors = ExplicitModel(
        (comp, phi) for comp, phis in members.items() for phi in phis
    )
    return survivors, rounds, pruned_total


DIFF_UNIVERSES = [
    Universe(4, ("x",), include_nop=False),
    Universe(3, ("x", "y"), include_nop=False),
]


def with_holes(model, universe, seed, rate=0.1):
    """``model`` on ``universe`` with a seeded random ``rate`` of its
    pairs dropped — pruning then cascades over several rounds."""
    rng = random.Random(seed)
    return ExplicitModel(
        (pair for pair in universe.model_pairs(model) if rng.random() >= rate),
        name=f"{model.name} with holes (seed {seed})",
    )


class TestAgainstRoundRobinOracle:
    """The one-pass Δ* matches the round-robin sweep on every pair."""

    def assert_same(self, model, universe):
        survivors, rounds, pruned = round_robin_constructible_version(
            model, universe
        )
        res = constructible_version(model, universe)
        assert (res.rounds, res.pruned_pairs) == (rounds, pruned)
        for comp, phi in universe.pairs():
            assert res.model.contains(comp, phi) == survivors.contains(
                comp, phi
            ), (comp, phi)
        return rounds

    @pytest.mark.parametrize("universe", DIFF_UNIVERSES, ids=["n4x", "n3xy"])
    @pytest.mark.parametrize("model", [NN, NW, WW, LC], ids=lambda m: m.name)
    def test_zoo_models(self, model, universe):
        self.assert_same(model, universe)

    @pytest.mark.parametrize("universe", DIFF_UNIVERSES, ids=["n4x", "n3xy"])
    def test_models_with_holes(self, universe):
        rounds = [
            self.assert_same(with_holes(base, universe, seed), universe)
            for base in (NN, NW, WW)
            for seed in range(3)
        ]
        assert max(rounds) >= 3, rounds


class TestTheorem23OneStep:
    """Every NN pair outside LC is pruned by ONE augmentation step.

    This is the mechanical core of the Theorem 23 benchmark: combined
    with LC ⊆ NN and LC's augmentation closure it pins NN* = LC.
    """

    @given(computations_with_observer(max_nodes=4))
    @settings(max_examples=60, deadline=None)
    def test_nn_minus_lc_is_stuck(self, pair):
        comp, phi = pair
        if NN.contains(comp, phi) and not LC.contains(comp, phi):
            assert (
                augmentation_closed_at(NN, comp, phi, [R("x"), N])
                is not None
            )

    @given(computations_with_observer(max_nodes=4))
    @settings(max_examples=60, deadline=None)
    def test_lc_never_stuck_in_lc(self, pair):
        comp, phi = pair
        if LC.contains(comp, phi):
            assert (
                augmentation_closed_at(LC, comp, phi, [R("x"), W("x"), N])
                is None
            )
