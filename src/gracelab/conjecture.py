"""Exhaustive small-n sweep of the star-sequence inclusion conjecture.

The conjecture: every induced subtractive edge label sequence of a constant
function (a star) appears among the label sequences realized by relabelings
of every functional tree class.  Classes are conjugation orbits of
functional trees; representatives are the lexicographically least value
tables of their orbits.

check_conjecture_42 sweeps tree shapes: one non-decreasing parent array per
rooted-tree shape (tree_shapes) and its class size by orbit-stabilizer.
The shapes are grouped by free tree, and each free tree gets one witness
per star sequence (realizes): the first hit of the labeling search of
gracelab.digraph, given the sequence as its target, re-checked by reading
off the edge labels.  tree_classes and class_sequences walk each class's
n! orbit instead; they stay as the oracle for the shape sweep, and the two
share only the edge-label definition.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterator, Sequence

from gracelab.digraph import (
    FunctionalDigraph,
    _hits,
    _structure,
    conjugate_tables,
    functional_trees,
    is_functional_tree,
)

__all__ = [
    "ConjectureReport",
    "TreeClass",
    "check_conjecture_42",
    "class_sequences",
    "free_tree_count",
    "realizes",
    "rooted_tree_count",
    "star_sequences",
    "tree_classes",
    "tree_shapes",
]


class TreeClass(namedtuple("TreeClass", "representative size")):
    """A conjugation orbit of functional trees: its canonical representative
    and its size."""

    __slots__ = ()

    def __new__(cls, representative: FunctionalDigraph, size: int) -> "TreeClass":
        if not is_functional_tree(representative):
            raise ValueError("representative is not a functional tree")
        return super().__new__(cls, representative, size)


def star_sequences(n: int) -> list[tuple[int, ...]]:
    """Distinct label sequences of the constant functions; there are ceil(n/2)
    because c and n-1-c mirror each other."""
    if n < 1:
        raise ValueError("need n >= 1")
    return sorted({tuple(sorted(abs(c - i) for i in range(n))) for c in range(n)})


def _orbit(values: tuple[int, ...]) -> set[tuple[int, ...]]:
    return set(conjugate_tables(values))


def tree_classes(n: int) -> list[TreeClass]:
    """One canonical representative per conjugation orbit of functional trees.

    Oracle only: the CLI sweep (check_conjecture_42) takes its classes from
    tree_shapes and decides each sequence with realizes; this orbit walk is
    what the tests compare those against.  Trees come from the pruned search
    digraph.functional_trees; each unseen tree contributes its whole orbit
    at once, so canonicalization costs n! per class, not per tree.
    """
    seen: set[tuple[int, ...]] = set()
    classes: list[TreeClass] = []
    for values in functional_trees(n):
        if values in seen:
            continue
        orbit = _orbit(values)
        seen.update(orbit)
        classes.append(TreeClass(FunctionalDigraph(min(orbit)), len(orbit)))
    classes.sort(key=lambda c: c.representative.values)
    return classes


def class_sequences(t: TreeClass) -> frozenset[tuple[int, ...]]:
    """All label sequences realized over the relabelings of the class,
    read off the distinct tables of its orbit.

    Oracle only, like tree_classes: the CLI sweep decides each sequence
    with realizes instead."""
    return frozenset(
        tuple(sorted(abs(v - i) for i, v in enumerate(table)))
        for table in _orbit(t.representative.values)
    )


# --- shape sweep ---------------------------------------------------------------


def rooted_tree_count(n: int) -> int:
    """OEIS A000081, the number of unlabeled rooted trees on n vertices, by
    the Euler-transform recurrence
    a(m+1) = (1/m) * sum_{k=1..m} (sum_{d | k} d * a(d)) * a(m-k+1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    a = [0, 1]
    for m in range(1, n):
        total = sum(
            sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[m - k + 1]
            for k in range(1, m + 1)
        )
        a.append(total // m)
    return a[n]


def free_tree_count(n: int) -> int:
    """OEIS A000055, the number of unlabeled free trees on n vertices, by
    Otter's formula t(x) = r(x) - (r(x)^2 - r(x^2)) / 2, where r(x) counts
    rooted trees (rooted_tree_count)."""
    r = rooted_tree_count
    pairs = sum(r(i) * r(n - i) for i in range(1, n))
    if n % 2 == 0:
        pairs -= r(n // 2)
    return r(n) - pairs // 2


def _ordered_parent_arrays(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the tables with f(0) = 0 and f(i-1) <= f(i) < i for i >= 1,
    lexicographically; there are Catalan(n-1) of them."""
    values = [0] * n

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(values)
            return
        for v in range(values[i - 1], i):
            values[i] = v
            yield from extend(i + 1)

    return extend(1)


def tree_shapes(n: int) -> list[TreeClass]:
    """One TreeClass per conjugation orbit of functional trees on Z_n, in
    the order of their representatives, without walking any orbit.

    The least table of an orbit is a non-decreasing parent array.  Fixed
    position by position, its entry 0 is 0 (the root takes label 0), and
    entry i is least when label i goes to a child of the least label that
    still has an unlabeled child; that label is below i and never
    decreases.  So the first array of each shape (AHU code of the root, from
    digraph._structure) in lexicographic order is the orbit's least table.
    The class size is n! / |Aut| (orbit-stabilizer).  |Aut| is the product
    of m! over each run of m twins (siblings of one shape, marked by
    _structure), so it is the product of every vertex's place in its run.
    Its elements are the twin swaps that the labeling search skips.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ids: dict[tuple[int, ...], int] = {}
    seen: set[int] = set()
    classes = []
    for values in _ordered_parent_arrays(n):
        _, _, code, twin = _structure(values, ids)
        if code[0] in seen:
            continue
        seen.add(code[0])
        run = [1] * n  # each vertex's place in its run of twins
        for w, u in enumerate(twin):  # u < w, so run[u] is already final
            if u >= 0:
                run[w] = run[u] + 1
        size = math.factorial(n) // math.prod(run)
        classes.append(TreeClass(FunctionalDigraph(values), size))
    return classes


def realizes(g: FunctionalDigraph, target: Sequence[int]) -> bool:
    """True iff some relabeling sigma g sigma^(-1) of the functional tree g
    has edge_labels equal to sorted(target).

    The labeling search of gracelab.digraph, given the sorted target,
    stops at its first witness; it finds none unless the target has
    exactly one 0, the root's loop.  The witness counts only after
    digraph._hits reads the conjugated table's edge labels back and
    compares them with the target.
    """
    if not is_functional_tree(g):
        raise ValueError("realizes needs a functional tree")
    n = g.n
    target = tuple(sorted(target))
    if len(target) != n or not 0 <= target[0] <= target[-1] < n:
        raise ValueError(f"not a label sequence on Z_{n}: {target!r}")
    return next(_hits(g.values, target), None) is not None


def _free_tree_key(values: tuple[int, ...], ids: dict[tuple[int, ...], int]) -> int:
    """A code of the free tree under a functional tree given as a parent
    array (f(0) = 0 and f(i) < i for i >= 1, as every class representative
    is): the least AHU code, numbered in ids, of the tree rerooted at each
    of its centroids.  An isomorphism of free trees maps centroids onto
    centroids, so with one ids dict two shapes get the same key exactly
    when they share a free tree."""
    n = len(values)
    size = [1] * n  # vertices in each in-subtree
    big = [0] * n  # the largest in-subtree of a child
    for v in range(n - 1, 0, -1):
        u = values[v]
        size[u] += size[v]
        big[u] = max(big[u], size[v])
    codes = []
    for c in range(n):
        if 2 * max(big[c], n - size[c]) <= n:  # c is a centroid
            rerooted = list(values)  # reverse the path from c to the root
            rerooted[c] = c
            u, w = c, values[c]
            while w != u:
                rerooted[w], u, w = u, w, values[w]
            codes.append(_structure(tuple(rerooted), ids)[2][c])
    return min(codes)


class ConjectureReport(namedtuple("ConjectureReport", "classes missing violations")):
    """The TreeClasses at n, the (representative, sequence) pairs missing, and
    the failed invariants of the class list."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not self.missing

    @property
    def class_size_total(self) -> int:
        return sum(c.size for c in self.classes)


def _violations(n: int, classes: Sequence[TreeClass], free_trees: int) -> tuple[str, ...]:
    """The invariants of a class list that fail: A000081 classes in
    A000055 free trees, with sizes that sum to Cayley's n^(n-1)."""
    found = []
    expected = rooted_tree_count(n)
    if len(classes) != expected:
        found.append(f"classes {len(classes)} != A000081({n}) = {expected}")
    expected = free_tree_count(n)
    if free_trees != expected:
        found.append(f"free trees {free_trees} != A000055({n}) = {expected}")
    total = sum(c.size for c in classes)
    if total != n ** (n - 1):
        found.append(f"class_size_total {total} != n^(n-1) = {n ** (n - 1)}")
    return tuple(found)


def check_conjecture_42(n: int) -> ConjectureReport:
    """For every tree class, is every star sequence realized?  Any missing
    (class representative, sequence) pair is listed; an empty list means the
    conjecture holds at this n.  Classes come from the shape sweep, and
    each star sequence is decided once per free tree, on its first class:
    an edge label |sigma(u) - sigma(v)| has no direction and the loop always
    takes label 0, so the rootings of one free tree realize the same label
    sequences.  The class count, the free-tree count and the size total
    are checked against A000081, A000055 and n^(n-1)."""
    stars = star_sequences(n)
    classes = tree_shapes(n)
    ids: dict[tuple[int, ...], int] = {}
    keys = [_free_tree_key(t.representative.values, ids) for t in classes]
    realized: dict[int, list[bool]] = {}
    for t, key in zip(classes, keys):
        if key not in realized:
            realized[key] = [realizes(t.representative, seq) for seq in stars]
    missing = tuple(
        (t.representative, seq)
        for t, key in zip(classes, keys)
        for seq, ok in zip(stars, realized[key])
        if not ok
    )
    return ConjectureReport(tuple(classes), missing, _violations(n, classes, len(realized)))
