"""Edit-distance-one graceful neighbors via single sign flips.

Every gracefully labeled conjugate f of a base digraph decomposes as
id + (-1)^p * gamma; flipping bit j of p moves f(j) to 2j - f(j), and when
that stays in [0, n) it yields another gracefully labeled digraph that
differs from f in at most one image, hence sits at edge edit distance at
most one from the base.  The brute-force oracle enumerates conjugates
directly and patches one value at a time, so the completeness of the flip
generator is measured, never assumed.
"""

from __future__ import annotations

from collections import namedtuple

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


def neighbors_via_expansion(fam: ExpansionFamily) -> list[FunctionalDigraph]:
    """All digraphs id + (-1)^p' * gamma over valid single flips, deduplicated
    and sorted; flips that reproduce a conjugate of the base stay in.

    Each member's table is t(j) = j + (-1)^p(j) * gamma(j); flipping bit j
    of p moves t(j) to 2j - t(j), and the flip is valid when that stays in
    [0, n)."""
    n = fam.base.n
    found: set[tuple[int, ...]] = set()
    for gamma, _sigma, p in fam.members:
        t = [j - g if bit else j + g for j, g, bit in zip(range(n), gamma.values, p)]
        for j, v in enumerate(t):
            if 0 <= 2 * j - v < n:
                t[j] = 2 * j - v
                found.add(tuple(t))
                t[j] = v
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


class NeighborReport(namedtuple("NeighborReport", "generated oracle missing extra")):
    """Tuples of FunctionalDigraphs: the flip generator's neighbors, the
    oracle's, and the two differences."""

    __slots__ = ()


def completeness_check(fam: ExpansionFamily) -> NeighborReport:
    """Measure the flip generator against the brute-force oracle.

    missing = oracle \\ generated, extra = generated \\ oracle; the report
    states what was found, it does not assert that missing is empty.
    """
    generated = neighbors_via_expansion(fam)
    oracle = neighbors_bruteforce(fam.base)
    generated_set, oracle_set = set(generated), set(oracle)
    return NeighborReport(
        generated=tuple(generated),
        oracle=tuple(oracle),
        missing=tuple(g for g in oracle if g not in generated_set),
        extra=tuple(g for g in generated if g not in oracle_set),
    )
