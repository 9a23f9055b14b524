"""Edit-distance-one graceful neighbors via single sign flips.

Every gracefully labeled conjugate of a base digraph decomposes as
id + (-1)^p * gamma; flipping one bit of p (when the flipped step stays in
range) yields another gracefully labeled digraph that differs from that
conjugate in at most one image, hence sits at edge edit distance at most one
from the base.  The brute-force oracle enumerates conjugates directly and
patches one value at a time, so the completeness of the flip generator is
measured, never assumed.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from gracelab.digraph import (
    FunctionalDigraph,
    Permutation,
    _first_conjugators,
    _labels_are_graceful,
    conjugate_tables,
)
from gracelab.expansion import GracefulExpansion, decompose, expand

__all__ = [
    "ExpansionFamily",
    "NeighborReport",
    "completeness_check",
    "edit_distance_at_most",
    "expansion_family",
    "neighbors_bruteforce",
    "neighbors_via_expansion",
    "single_sign_flip",
]


class ExpansionFamily(namedtuple("ExpansionFamily", "base members")):
    """Per-gamma parametrizations (sigma_gamma, p_gamma) of one base digraph."""

    __slots__ = ()

    def __new__(
        cls,
        base: FunctionalDigraph,
        # each member is (gamma, sigma_gamma, p_gamma)
        members: tuple[tuple[Permutation, Permutation, tuple[int, ...]], ...],
    ) -> "ExpansionFamily":
        for gamma, sigma, p in members:
            got = expand(GracefulExpansion(sigma, gamma, p))
            if got != base:
                raise ValueError(
                    f"family member gamma={gamma.format()} expands to "
                    f"{got.format()}, not the base {base.format()}"
                )
        return super().__new__(cls, base, members)


def expansion_family(base: FunctionalDigraph) -> ExpansionFamily:
    """Build the family from the distinct gracefully labeled conjugates.

    Each such conjugate H = sigma f sigma^(-1) decomposes as
    id + (-1)^p * gamma, and conjugating back by sigma^(-1) re-expands to the
    base.  One member is kept per distinct gamma = |H - id|: the one that
    the lexicographically first sigma of S_n yields.  The labeling search
    of gracelab.digraph finds every distinct H; for each, the least sigma
    reaching it is recovered, and per gamma the H with the least such sigma
    is kept, so only the kept H are decomposed.
    """
    best: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for t, s in _first_conjugators(base.values).items():
        gamma = tuple(abs(v - i) for i, v in enumerate(t))
        if gamma not in best or s < best[gamma][0]:
            best[gamma] = (s, t)
    members = []
    for gamma in sorted(best):
        s, t = best[gamma]
        e = decompose(FunctionalDigraph(t))
        members.append((e.gamma, Permutation(s).inverse(), e.p))
    return ExpansionFamily(base, tuple(members))


def single_sign_flip(e: GracefulExpansion, j: int) -> GracefulExpansion | None:
    """Flip bit j of p; returns None when the flipped step leaves [0, n)."""
    n = e.n
    if not 0 <= j < n:
        raise ValueError(f"flip index {j} outside [0, {n})")
    flipped = (1 + e.p[j]) % 2
    step = e.gamma.values[j]
    t = j - step if flipped else j + step
    if not 0 <= t < n:
        return None
    p = e.p[:j] + (flipped,) + e.p[j + 1 :]
    return GracefulExpansion(e.sigma, e.gamma, p)


def neighbors_via_expansion(fam: ExpansionFamily) -> list[FunctionalDigraph]:
    """All digraphs id + (-1)^p' * gamma over valid single flips, deduplicated
    and sorted; flips that reproduce a conjugate of the base stay in."""
    n = fam.base.n
    identity = Permutation.identity(n)
    found: set[tuple[int, ...]] = set()
    for gamma, _sigma, p in fam.members:
        e = GracefulExpansion(identity, gamma, p)
        for j in range(n):
            flipped = single_sign_flip(e, j)
            if flipped is not None:
                found.add(expand(flipped).values)
    return [FunctionalDigraph(t) for t in sorted(found)]


def edit_distance_at_most(
    g: FunctionalDigraph, h: FunctionalDigraph, k: int
) -> bool:
    """True iff h agrees with some conjugate of g outside <= k positions."""
    if g.n != h.n:
        raise ValueError("digraphs must share a vertex count")
    target = h.values
    return any(
        sum(a != b for a, b in zip(t, target)) <= k
        for t in conjugate_tables(g.values)
    )


def neighbors_bruteforce(g: FunctionalDigraph) -> list[FunctionalDigraph]:
    """Oracle: every gracefully labeled digraph at edit distance <= 1,
    built by patching one image of each conjugate of g."""
    n = g.n
    found: set[tuple[int, ...]] = set()
    for conjugate in set(conjugate_tables(g.values)):
        table = list(conjugate)
        for j in range(n):
            original = table[j]
            for v in range(n):
                table[j] = v
                t = tuple(table)
                if _labels_are_graceful(t):
                    found.add(t)
            table[j] = original
    return [FunctionalDigraph(t) for t in sorted(found)]


class NeighborReport(NamedTuple):
    generated: tuple[FunctionalDigraph, ...]
    oracle: tuple[FunctionalDigraph, ...]
    missing: tuple[FunctionalDigraph, ...]
    extra: tuple[FunctionalDigraph, ...]


def completeness_check(fam: ExpansionFamily) -> NeighborReport:
    """Measure the flip generator against the brute-force oracle.

    missing = oracle \\ generated, extra = generated \\ oracle; the report
    states what was found, it does not assert that missing is empty.
    """
    generated = neighbors_via_expansion(fam)
    oracle = neighbors_bruteforce(fam.base)
    generated_set = {g.values for g in generated}
    oracle_set = {g.values for g in oracle}
    missing = [FunctionalDigraph(t) for t in sorted(oracle_set - generated_set)]
    extra = [FunctionalDigraph(t) for t in sorted(generated_set - oracle_set)]
    return NeighborReport(
        generated=tuple(generated),
        oracle=tuple(oracle),
        missing=tuple(missing),
        extra=tuple(extra),
    )
