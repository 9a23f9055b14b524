"""Exhaustive small-n sweep of the star-sequence inclusion conjecture.

The conjecture: every induced subtractive edge label sequence of a constant
function (a star) appears among the label sequences realized by relabelings
of every functional tree class.  Classes are conjugation orbits of
functional trees; representatives are the lexicographically least value
tables of their orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gracelab.digraph import (
    FunctionalDigraph,
    conjugate_tables,
    functional_trees,
    is_functional_tree,
)

__all__ = [
    "ConjectureReport",
    "TreeClass",
    "check_conjecture_42",
    "class_sequences",
    "star_sequences",
    "tree_classes",
]


@dataclass(frozen=True)
class TreeClass:
    """A conjugation orbit of functional trees: canonical representative,
    size and, when read off the orbit by tree_classes, the label sequences
    its tables realize (a sorted tuple: smaller than a set, which matters
    while tree_classes still holds every tree it has seen)."""

    representative: FunctionalDigraph
    size: int
    sequences: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not is_functional_tree(self.representative):
            raise ValueError("representative is not a functional tree")


def star_sequences(n: int) -> list[tuple[int, ...]]:
    """Distinct label sequences of the constant functions; there are ceil(n/2)
    because c and n-1-c mirror each other."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sorted({tuple(sorted(abs(c - i) for i in range(n))) for c in range(n)})


def _orbit(values: tuple[int, ...]) -> set[tuple[int, ...]]:
    return set(conjugate_tables(values))


def _sequences(orbit: set[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    return frozenset(
        tuple(sorted(abs(v - i) for i, v in enumerate(table))) for table in orbit
    )


def tree_classes(n: int) -> list[TreeClass]:
    """One canonical representative per conjugation orbit of functional trees.

    Trees come from the pruned search digraph.functional_trees; each unseen
    tree contributes its whole orbit at once, so canonicalization costs n!
    per class, not per tree.  Each class keeps the label sequences of that
    orbit, so class_sequences does not walk it again; classes share one
    tuple per distinct sequence (247 distinct among 7444 kept at n=7).
    """
    seen: set[tuple[int, ...]] = set()
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    classes: list[TreeClass] = []
    for values in functional_trees(n):
        if values in seen:
            continue
        orbit = _orbit(values)
        seen.update(orbit)
        sequences = tuple(sorted(shared.setdefault(s, s) for s in _sequences(orbit)))
        classes.append(TreeClass(FunctionalDigraph(min(orbit)), len(orbit), sequences))
    classes.sort(key=lambda c: c.representative.values)
    return classes


def class_sequences(t: TreeClass) -> frozenset[tuple[int, ...]]:
    """All label sequences realized over the relabelings of the class,
    read off the distinct tables of its orbit (kept by tree_classes)."""
    if t.sequences is not None:
        return frozenset(t.sequences)
    return _sequences(_orbit(t.representative.values))


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    classes: tuple[TreeClass, ...]
    missing: tuple[tuple[FunctionalDigraph, tuple[int, ...]], ...]

    @property
    def holds(self) -> bool:
        return not self.missing

    @property
    def class_size_total(self) -> int:
        return sum(c.size for c in self.classes)


def check_conjecture_42(n: int) -> ConjectureReport:
    """For every tree class, is every star sequence realized?  Any missing
    (class representative, sequence) pair is listed; an empty list means the
    conjecture holds at this n."""
    stars = star_sequences(n)
    classes = tree_classes(n)
    missing = []
    for t in classes:
        realized = class_sequences(t)
        for seq in stars:
            if seq not in realized:
                missing.append((t.representative, seq))
    return ConjectureReport(n=n, classes=tuple(classes), missing=tuple(missing))
