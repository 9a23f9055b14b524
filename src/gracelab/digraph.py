"""Functional directed graphs on Z_n and their induced subtractive edge labels.

A function f: Z_n -> Z_n is stored as its length-n value table; the digraph
G_f has edge set {(i, f(i))}, so every vertex has out-degree one and loops
are allowed.  The induced subtractive label of the edge (i, f(i)) is
|f(i) - i|.  A value table is *gracefully labeled* when its label multiset is
exactly {0, 1, ..., n-1}, and *graceful* when some conjugate relabeling
sigma f sigma^(-1) is gracefully labeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Permutation",
    "FunctionalDigraph",
    "all_value_tables",
    "complement",
    "edge_labels",
    "functional_trees",
    "graceful_tables",
    "grl_set",
    "is_graceful",
    "is_gracefully_labeled",
    "is_functional_tree",
    "relabel",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of Z_n onto itself, stored as its image tuple."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if sorted(self.values) != list(range(n)):
            raise ValueError(f"not a permutation of Z_{n}: {self.values!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the comma-separated image list, e.g. ``0,2,1``."""
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed permutation text: {text!r}") from None
        return cls(values)

    def format(self) -> str:
        return ",".join(str(v) for v in self.values)

    def __call__(self, i: int) -> int:
        return self.values[i]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values):
            inv[v] = i
        return Permutation(tuple(inv))

    def sign(self) -> int:
        """Signature: +1 for even permutations, -1 for odd ones."""
        seen = [False] * self.n
        sign = 1
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = self.values[v]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign


@dataclass(frozen=True)
class FunctionalDigraph:
    """A function on Z_n given by its value table; edges are (i, f(i))."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if n == 0:
            raise ValueError("a functional digraph needs at least one vertex")
        for i, v in enumerate(self.values):
            if not 0 <= v < n:
                raise ValueError(f"vertex {i} maps to {v}, outside [0, {n})")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def parse(cls, text: str) -> "FunctionalDigraph":
        """Parse the ``n:f0,f1,...,f(n-1)`` text form, e.g. ``6:0,0,0,0,3,3``."""
        head, sep, body = text.partition(":")
        if not sep:
            raise ValueError(f"malformed digraph text (missing ':'): {text!r}")
        try:
            n = int(head)
            values = tuple(int(part) for part in body.split(","))
        except ValueError:
            raise ValueError(f"malformed digraph text: {text!r}") from None
        if len(values) != n:
            raise ValueError(
                f"digraph text declares n={n} but lists {len(values)} values"
            )
        return cls(values)

    def format(self) -> str:
        return f"{self.n}:" + ",".join(str(v) for v in self.values)


def all_value_tables(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all n^n value tables on Z_n in lexicographic order."""
    return itertools.product(range(n), repeat=n)


def edge_labels(g: FunctionalDigraph) -> tuple[int, ...]:
    """Non-decreasing sequence of the labels |f(i) - i| over all vertices."""
    return tuple(sorted(abs(v - i) for i, v in enumerate(g.values)))


def _labels_are_graceful(values: tuple[int, ...]) -> bool:
    # Bitmask check that {|f(i)-i|} = {0, ..., n-1}; cheap enough to sit in
    # the n! conjugation scan loops.
    seen = 0
    for i, v in enumerate(values):
        bit = 1 << abs(v - i)
        if seen & bit:
            return False
        seen |= bit
    return True


def is_gracefully_labeled(g: FunctionalDigraph) -> bool:
    """True iff edge_labels(g) is exactly (0, 1, ..., n-1)."""
    return _labels_are_graceful(g.values)


def is_functional_tree(g: FunctionalDigraph) -> bool:
    """True iff the (n-1)-fold iterate of f collapses Z_n to one vertex.

    That vertex is the root and necessarily carries a loop.
    """
    image = set(range(g.n))
    for _ in range(g.n - 1):
        if len(image) == 1:
            break
        image = {g.values[v] for v in image}
    return len(image) == 1


# --- pruned oracle generators ----------------------------------------------
#
# Both generators assign f(0), f(1), ... in turn, trying values in increasing
# order, so they yield exactly the tables that the itertools.product filter
# would keep, in the same lexicographic order.  They prune on the definitions
# alone (the label bitmask; the cycle structure of a tree), never on the
# gamma/sign-pattern theory, so the oracles built on them stay independent of
# the fast paths they check.


def functional_trees(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the n^(n-1) functional-tree value tables on Z_n, lexicographically.

    An assignment f(i) = v is pruned when it adds a second loop, or when the
    path v, f(v), f(f(v)), ... through assigned vertices returns to i (a
    cycle of length >= 2).  A complete table with no such cycle and one loop
    is a tree, and every unpruned partial table extends to one, so the search
    has no dead ends.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    values = [0] * n
    start = [0] * n  # next value to try at each position
    root = -1  # the vertex carrying the loop, once one is assigned
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(values)
            i -= 1
            continue
        if root == i:
            root = -1
        v = start[i]
        while v < n:
            if v == i:
                if root < 0:
                    break
            else:
                w = v
                while w < i and values[w] != w:
                    w = values[w]
                if w != i:
                    break
            v += 1
        if v == n:
            i -= 1
            continue
        values[i] = v
        if v == i:
            root = i
        start[i] = v + 1
        i += 1
        if i < n:
            start[i] = 0


def graceful_tables(n: int, fix0: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the gracefully labeled value tables on Z_n, lexicographically.

    An assignment f(i) = v is pruned when the label |v - i| is already used,
    tracked in a bitmask.  With fix0, only tables with f(0) = 0 are searched.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    values = [0] * n
    start = [0] * n
    used = 0
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(values)
            i -= 1
            continue
        if start[i]:  # coming back: release the label of the last try
            used &= ~(1 << abs(values[i] - i))
        v = start[i]
        end = 1 if fix0 and i == 0 else n
        while v < end and used >> abs(v - i) & 1:
            v += 1
        if v >= end:
            i -= 1
            continue
        values[i] = v
        used |= 1 << abs(v - i)
        start[i] = v + 1
        i += 1
        if i < n:
            start[i] = 0


def relabel(g: FunctionalDigraph, s: Permutation) -> FunctionalDigraph:
    """Conjugate the underlying function: i -> s(f(s^(-1)(i)))."""
    if s.n != g.n:
        raise ValueError(f"permutation on Z_{s.n} cannot relabel a digraph on Z_{g.n}")
    out = [0] * g.n
    for j, v in enumerate(g.values):
        out[s.values[j]] = s.values[v]
    return FunctionalDigraph(tuple(out))


def is_graceful(g: FunctionalDigraph) -> bool:
    """True iff some relabeling of g is gracefully labeled (factorial search)."""
    n = g.n
    vals = g.values
    for s in itertools.permutations(range(n)):
        seen = 0
        for j in range(n):
            label = s[vals[j]] - s[j]
            if label < 0:
                label = -label
            bit = 1 << label
            if seen & bit:
                break
            seen |= bit
        else:
            return True
    return False


def grl_set(g: FunctionalDigraph) -> list[FunctionalDigraph]:
    """All distinct gracefully labeled conjugates of g, lexicographically sorted.

    Distinctness is by value-table equality, which quotients away the
    automorphisms of g without computing them.
    """
    n = g.n
    vals = g.values
    found: set[tuple[int, ...]] = set()
    for s in itertools.permutations(range(n)):
        table = [0] * n
        for j, v in enumerate(vals):
            table[s[j]] = s[v]
        t = tuple(table)
        if _labels_are_graceful(t):
            found.add(t)
    return [FunctionalDigraph(t) for t in sorted(found)]


def complement(g: FunctionalDigraph) -> FunctionalDigraph:
    """The complementary labeling i -> n-1-f(n-1-i); an involution."""
    n = g.n
    return FunctionalDigraph(tuple(n - 1 - g.values[n - 1 - i] for i in range(n)))
