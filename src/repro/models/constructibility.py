"""Constructibility (Section 3) and constructible versions (Definition 8).

A model Δ is *constructible* (Definition 6) when every observer function
for a prefix extends to the full computation: an online algorithm never
gets "stuck" having produced an observer function it cannot continue.
Theorem 12 reduces checking constructibility of a *monotonic* model to
its closure under single-node *augmentation* (Definition 11): only the
extension by a final node that succeeds everything must be checkable.

This module provides:

* :func:`augmentation_extensions` — the Φ' candidates for ``aug_o(C)``
  extending a given Φ (only the final node's row entries are free).
* :func:`can_extend_to_augmentation` / :func:`augmentation_closed_at` —
  the Theorem-12 one-step test at a single pair.
* :func:`find_nonconstructibility_witness` — search a bounded universe
  for a pair that cannot be extended (e.g. rediscovers Figure 4 for NN).
* :func:`constructible_version` — the bounded-universe greatest-fixpoint
  computation of Δ* (Definition 8), used by the Theorem 23 benchmark to
  verify ``NN* = LC`` and by the Section 7 open-problem exploration.
* :func:`is_constructible_prefix_definition` — the literal Definition 6
  check over all prefixes of a computation (exponential; used in tests to
  validate the Theorem 12 reduction).

Soundness of the bounded Δ*
---------------------------
Δ* is the union of all constructible models inside Δ, equivalently the
greatest fixpoint of the pruning operator

    ``P(Δ)(C) = {Φ ∈ Δ(C) : ∀o ∈ O, ∃Φ' ∈ Δ(aug_o(C)) with Φ'|C = Φ}``

(for monotonic Δ, by Theorem 12).  Restricted to computations of at most
``n`` nodes, augmentations of size-``n`` computations fall outside the
universe, so frontier (size-``n``) pairs are kept *optimistically*: the
bounded Δ* answers them with Δ itself.  Because ``aug_o(C)`` always has
``|C| + 1`` nodes, a pair below the frontier depends only on pairs one
size up, so :func:`constructible_version` decides each pair once, from
size ``n - 1`` down to 0, and never enumerates the frontier: its pairs
are only looked up, as augmentations of size-``n - 1`` members.  The
result is exact for sizes ``≤ n - 1`` relative to the optimistic
frontier, which is the sound bound it reports.

The reported ``rounds`` are those of the equivalent round-robin sweep,
which re-tests every pair against the previous round's survivors until
nothing changes.  That sweep removes a pair ``p`` in round

    ``R(p) = min over o of (1 + max over Δ-members e of ext(p, o) of R(e))``

(an empty max is 0; frontier pairs and survivors have ``R = ∞``), so it
runs ``max finite R + 1`` rounds, or 1 when nothing is pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import inf
from typing import Iterable, Iterator

from repro import _caching, obs
from repro.core.computation import Computation
from repro.core.observer import ObserverFunction
from repro.core.ops import Op, Location
from repro.models.base import ExplicitModel, MemoryModel, cached_membership
from repro.models.universe import Universe

__all__ = [
    "augmentation_extensions",
    "can_extend_to_augmentation",
    "augmentation_closed_at",
    "find_nonconstructibility_witness",
    "constructible_version",
    "ConstructibleVersionResult",
    "is_constructible_prefix_definition",
]


def augmentation_extensions(
    comp: Computation, phi: ObserverFunction, o: Op
) -> Iterator[tuple[Computation, ObserverFunction]]:
    """All valid observer functions for ``aug_o(comp)`` restricting to ``phi``.

    The augmented computation adds one node ``f = final(C)`` succeeding
    every node; an extension Φ' must agree with Φ on old nodes, so only
    the values ``Φ'(l, f)`` are free.  Candidates per location: ``f``
    itself if ``o`` writes the location (condition 2.3), else ``⊥`` or
    any write to the location (``f`` succeeds everything, so condition
    2.2 — ``¬(f ≺ w)`` — never prunes).
    """
    aug = comp.augment(o)
    f = comp.num_nodes
    locs = tuple(
        sorted(set(aug.locations) | set(phi.locations), key=repr)
    )
    cands: list[list[int | None]] = []
    for loc in locs:
        if o.writes(loc):
            cands.append([f])
        else:
            cands.append([None] + aug.writers(loc))
    for choice in product(*cands):
        mapping = {
            loc: phi.row(loc) + (choice[i],) for i, loc in enumerate(locs)
        }
        yield aug, ObserverFunction(aug, mapping, validate=False)


@lru_cache(maxsize=1 << 15)
def _extension_pairs(
    comp: Computation, phi: ObserverFunction, o: Op
) -> tuple[tuple[Computation, ObserverFunction], ...]:
    """Materialized, memoized :func:`augmentation_extensions`.

    The candidate extensions of a pair are model-independent, but every
    model's augmentation-closure test regenerates them; sweeping several
    models over one universe (the Figure 1 battery) hits this cache once
    per model after the first.  Extension counts are tiny (``⊥`` plus the
    writers per location), so materializing is cheap; only intended for
    the small computations of enumeration universes.
    """
    return tuple(augmentation_extensions(comp, phi, o))


def can_extend_to_augmentation(
    model: MemoryModel, comp: Computation, phi: ObserverFunction, o: Op
) -> bool:
    """True iff some Φ' ∈ Δ(aug_o(C)) restricts to Φ.

    Models with a proved closed-form answer (SC and LC override
    ``augmentation_extends``) skip the candidate search; the test suite
    checks those shortcuts against this generic search on whole
    universes.  With caching disabled both shortcuts and memoization are
    bypassed, preserving the baseline code path for benchmarks.
    """
    if not _caching.ENABLED:
        return any(
            model.contains(aug, phi2)
            for aug, phi2 in augmentation_extensions(comp, phi, o)
        )
    fast = model.augmentation_extends
    if fast is not None:
        return fast(comp, phi, o)
    return any(
        cached_membership(model, aug, phi2)
        for aug, phi2 in _extension_pairs(comp, phi, o)
    )


def augmentation_closed_at(
    model: MemoryModel,
    comp: Computation,
    phi: ObserverFunction,
    alphabet: Iterable[Op],
) -> Op | None:
    """Theorem 12's condition at one pair.

    Returns ``None`` if Φ extends to ``aug_o(C)`` within the model for
    every ``o`` in the alphabet, else the first failing ``o`` (a
    non-constructibility certificate for monotonic models).
    """
    for o in alphabet:
        if not can_extend_to_augmentation(model, comp, phi, o):
            return o
    return None


@dataclass(frozen=True)
class NonconstructibilityWitness:
    """A certificate that a (monotonic) model is not constructible.

    ``(comp, phi)`` is in the model, but no observer function for
    ``comp.augment(blocking_op)`` extending ``phi`` is.
    """

    comp: Computation
    phi: ObserverFunction
    blocking_op: Op


def find_nonconstructibility_witness(
    model: MemoryModel, universe: Universe
) -> NonconstructibilityWitness | None:
    """Search a bounded universe for a Theorem-12 failure.

    Returns the first witness in enumeration order (smallest computation
    first), or ``None`` if the model is augmentation-closed on the whole
    universe.  For monotonic models, a witness proves non-constructibility
    outright; absence of a witness is evidence (and, combined with a
    pencil-and-paper closure argument like Theorem 19's, proof) of
    constructibility.
    """
    for comp, phi in universe.model_pairs(model):
        bad = augmentation_closed_at(model, comp, phi, universe.alphabet)
        if bad is not None:
            return NonconstructibilityWitness(comp, phi, bad)
    return None


@dataclass
class ConstructibleVersionResult:
    """Output of :func:`constructible_version`.

    Attributes
    ----------
    model:
        The bounded Δ*: the surviving pairs of every size below the
        frontier, stored explicitly, plus Δ itself on frontier
        (size-``max_nodes``) computations of the universe, which are
        kept optimistically.  ``model.computations()`` lists only the
        stored sizes.
    sound_max_nodes:
        Sizes up to this bound are decided: the greatest fixpoint over
        the universe's alphabet/locations given the optimistic
        frontier.  The frontier itself is not pruned.
    rounds:
        Length of the equivalent round-robin pruning sweep (every round
        re-tests every pair against the previous round's survivors),
        counting the final sweep that removes nothing.
    pruned_pairs:
        Total number of pairs removed from the original model.
    """

    model: ExplicitModel
    sound_max_nodes: int
    rounds: int
    pruned_pairs: int


class _BoundedStar(ExplicitModel):
    """Explicit pairs below the frontier, Δ on the universe's frontier."""

    def __init__(
        self,
        pairs: Iterable[tuple[Computation, ObserverFunction]],
        base: MemoryModel,
        universe: Universe,
        name: str,
    ) -> None:
        super().__init__(pairs, name=name)
        self._base = base
        self._universe = universe

    def contains(self, comp: Computation, phi: ObserverFunction) -> bool:
        if comp.num_nodes < self._universe.max_nodes:
            return super().contains(comp, phi)
        return comp in self._universe and cached_membership(
            self._base, comp, phi
        )

    def observers(
        self,
        comp: Computation,
        locations: Iterable[Location] | None = None,
    ) -> Iterator[ObserverFunction]:
        if comp.num_nodes < self._universe.max_nodes:
            return super().observers(comp)
        return MemoryModel.observers(self, comp)


def constructible_version(
    model: MemoryModel, universe: Universe, name: str | None = None
) -> ConstructibleVersionResult:
    """Compute Δ* on a bounded universe by greatest-fixpoint pruning.

    One pass from size ``max_nodes - 1`` down to 0: a pair's extensions
    all sit one size up and are already decided, and frontier
    extensions are looked up in Δ itself, so only sizes below the
    frontier are ever enumerated.  Each pruned pair is given the round
    ``R`` in which the round-robin sweep would remove it (see the module
    docstring), which is what ``rounds`` reports.

    Requires ``model`` to be monotonic for the Theorem-12 augmentation
    test to coincide with Definition 6 (all models shipped in this
    package are; see the monotonicity tests).
    """
    alphabet = universe.alphabet
    max_n = universe.max_nodes
    kept: list[tuple[Computation, ObserverFunction]] = []
    # Round of every Δ pair one size up (inf = survives); None until the
    # first level, whose extensions are frontier pairs looked up in Δ.
    above: dict[Computation, dict[ObserverFunction, float]] | None = None
    frontier_checks = 0

    def round_above(aug: Computation, phi2: ObserverFunction) -> float | None:
        nonlocal frontier_checks
        if above is not None:
            return above.get(aug, {}).get(phi2)
        frontier_checks += 1
        return inf if cached_membership(model, aug, phi2) else None

    def removal_round(comp: Computation, phi: ObserverFunction) -> float:
        best = inf
        for o in alphabet:
            latest: float = 0
            for aug, phi2 in _extension_pairs(comp, phi, o):
                r = round_above(aug, phi2)
                if r is not None and r > latest:
                    latest = r
                    if r == inf:
                        break
            best = min(best, latest + 1)
            if best == 1:
                break
        return best

    pruned_total = 0
    last_round = 0
    for n in range(max_n - 1, -1, -1):
        with obs.span("constructibility.level", n=n) as sp:
            level: dict[Computation, dict[ObserverFunction, float]] = {}
            pairs = pruned = 0
            for comp, phi in universe.pairs(n):
                if not model.contains(comp, phi):
                    continue
                r = removal_round(comp, phi)
                level.setdefault(comp, {})[phi] = r
                pairs += 1
                if r == inf:
                    kept.append((comp, phi))
                else:
                    pruned += 1
                    last_round = max(last_round, int(r))
            if sp is not None:
                sp.attrs.update(
                    pairs=pairs, pruned=pruned, frontier_checks=frontier_checks
                )
            pruned_total += pruned
            above = level
            frontier_checks = 0

    return ConstructibleVersionResult(
        model=_BoundedStar(
            kept, model, universe, name or f"({model.name})* on n<={max_n}"
        ),
        sound_max_nodes=max_n - 1,
        rounds=last_round + 1,
        pruned_pairs=pruned_total,
    )


def is_constructible_prefix_definition(
    model: MemoryModel, comp: Computation
) -> bool:
    """Literal Definition 6, restricted to prefixes of one computation.

    For every prefix ``C`` of ``comp`` (via every downset of its dag,
    renumbered) and every Φ ∈ Δ(C), some Φ' ∈ Δ(comp) must restrict to
    Φ.  Exponential in every direction; used in tests on tiny
    computations to validate Theorem 12's reduction.
    """
    full_mask = (1 << comp.num_nodes) - 1
    full_observers = [
        phi for phi in ObserverFunction.enumerate_all(comp)
        if model.contains(comp, phi)
    ]
    for mask in comp.prefix_masks():
        if mask == full_mask:
            continue
        prefix, old_ids = comp.restrict(mask)
        for phi in ObserverFunction.enumerate_all(prefix):
            if not model.contains(prefix, phi):
                continue
            # Does some full observer restrict (under old_ids) to phi?
            ok = False
            for phi_full in full_observers:
                locs = set(phi.locations) | set(phi_full.locations) | set(
                    comp.locations
                )
                if all(
                    phi_full.value(loc, old) == _transport(
                        phi.value(loc, new), old_ids
                    )
                    for loc in locs
                    for new, old in enumerate(old_ids)
                ):
                    ok = True
                    break
            if not ok:
                return False
    return True


def _transport(v: int | None, old_ids: list[int]) -> int | None:
    """Map a prefix-local observer value back to full-computation ids."""
    return None if v is None else old_ids[v]
