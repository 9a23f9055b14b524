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
from collections import namedtuple
from operator import add
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

__all__ = [
    "Permutation",
    "FunctionalDigraph",
    "all_value_tables",
    "complement",
    "conjugate_tables",
    "edge_labels",
    "functional_trees",
    "graceful_tables",
    "grl_set",
    "is_graceful",
    "is_gracefully_labeled",
    "is_functional_tree",
    "relabel",
    "tree_folds",
]

T = TypeVar("T")


class Permutation(namedtuple("Permutation", "values")):
    """A bijection of Z_n onto itself, stored as its image tuple."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "Permutation":
        n = len(values)
        if sorted(values) != list(range(n)):
            raise ValueError(f"not a permutation of Z_{n}: {values!r}")
        return super().__new__(cls, values)

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def format(self) -> str:
        return ",".join(map(str, self.values))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values):
            inv[v] = i
        return Permutation(tuple(inv))


class FunctionalDigraph(namedtuple("FunctionalDigraph", "values")):
    """A function on Z_n given by its value table; edges are (i, f(i))."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "FunctionalDigraph":
        n = len(values)
        if n == 0:
            raise ValueError("a functional digraph needs at least one vertex")
        for i, v in enumerate(values):
            if not 0 <= v < n:
                raise ValueError(f"vertex {i} maps to {v}, outside [0, {n})")
        return super().__new__(cls, values)

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
        return f"{self.n}:" + ",".join(map(str, self.values))


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
# Both searches assign f(0), f(1), ... in turn, trying values in increasing
# order, so they visit exactly the tables that the itertools.product filter
# would keep, in the same lexicographic order.  They prune on the definitions
# alone (the label bitmask; the cycle structure of a tree), never on the
# gamma/sign-pattern theory, so the oracles built on them stay independent of
# the fast paths they check.


def tree_folds(rows: Sequence[Sequence[T]], op: Callable[[T, T], T]) -> Iterator[T]:
    """Yield op(...op(op(rows[0][f(0)], rows[1][f(1)]), ...), rows[n-1][f(n-1)])
    for every functional tree f on Z_n, n = len(rows), lexicographically in f.

    op must be associative: the last vertices' terms are folded together
    before the fold over the first vertices meets them, and each is
    shared by many trees.  Integer addition and multiplication and tuple
    or string concatenation all are.

    The search is one recursive generator: it assigns f(0), ..., f(n-4)
    in turn, each in increasing order, and passes the fold over the
    assigned vertices down the recursion, so each search node costs one
    op.  An assignment f(i) = v is pruned when it adds a second loop, or
    when the path v, f(v), f(f(v)), ... through assigned vertices returns
    to i (a cycle of length >= 2).  Every unpruned partial table extends
    to a tree, so the search has no dead ends.  The paths are tracked as
    sets: reach[u], for the loop and for each unassigned u, is the bitmask
    of the vertices whose path ends at u, so the cycle test is one bit of
    reach[i].  f(i) = v joins reach[i] to the reach of the vertex t where
    v's path ends (t = i for the loop), and the recursion restores reach[t]
    when it returns.  The last three vertices are placed from one cache.
    Once f(0), ..., f(n-4) are set, every path ends at n-3, n-2, n-1 or
    the loop, so the reaches of the open vertices x, ..., n-1 decide which
    f(x) close no cycle and add no second loop, and each f(x) = v leaves
    the reaches of x+1, ..., n-1 (reach[x] joins the one that holds v, if
    one does).  The cache is keyed by that tuple of reaches.  For x = n-1
    it holds the allowed rows[n-1][f(n-1)]; for x = n-2 the allowed
    (f(n-2), f(n-1)) in lexicographic order as the folded values
    op(rows[n-2][f(n-2)], rows[n-1][f(n-1)]); for x = n-3 the allowed v
    in order as rows[n-3][v] beside the pair entry that v leaves.  So a
    search leaf folds op(acc, rows[n-3][v]) once per v and then one op
    per tree (at n = 3 nothing is assigned, and the fold starts at
    rows[0][v]; at n = 1 and n = 2 the first vertex's entry holds the
    folds).  A leaf's folds are one run of C iterators, and the runs are
    chained, so no tree passes through a Python frame.
    """
    if not rows:
        raise ValueError("need n >= 1")
    return itertools.chain.from_iterable(_tree_fold_runs(rows, op))


def _tree_fold_runs(
    rows: Sequence[Sequence[T]], op: Callable[[T, T], T]
) -> Iterator[Iterable[T]]:
    """The folds of tree_folds, one run per leaf of its search."""
    n = len(rows)
    full = (1 << n) - 1
    tails: dict[tuple[int, ...], Any] = {}

    def tail(x: int, reaches: tuple[int, ...]) -> Any:
        # The cache entry of the open vertices x, ..., n-1, whose reaches
        # are reaches; callers look it up in tails first.  The reaches are
        # disjoint, so their sum is their union, which misses a vertex once
        # a loop is set.
        rx, rest = reaches[0], reaches[1:]
        rooted = sum(reaches) != full
        heads, entries = [], []
        for v in range(n):
            if rx >> v & 1 and (v != x or rooted):
                continue
            heads.append(rows[x][v])
            if rest:  # x's reach joins the reach that holds v, if one does
                joined = tuple([r | rx if r >> v & 1 else r for r in rest])
                entries.append(tails.get(joined) or tail(x + 1, joined))
        if x == n - 1:
            entry = heads
        elif x == n - 2:
            entry = [op(head, t) for head, ts in zip(heads, entries) for t in ts]
        else:
            entry = heads, entries
        tails[reaches] = entry
        return entry

    reach = [1 << u for u in range(n)]
    if n < 3:
        yield tail(0, tuple(reach))
        return
    k = n - 3  # the search assigns f(0), ..., f(k-1)
    values = [0] * k
    repeat, chain = itertools.repeat, itertools.chain.from_iterable

    def search(i: int, acc: T, rooted: bool) -> Iterator[Iterable[T]]:
        # f(0), ..., f(i-1) are set, acc is their fold (i >= 1), and rooted
        # tells whether one of them is the loop
        if i == k:
            key = tuple(reach[k:])
            heads, entries = tails.get(key) or tail(k, key)
            if k:
                heads = map(op, repeat(acc), heads)
            yield chain(map(map, repeat(op), map(repeat, heads), entries))
            return
        ri = reach[i]
        for v in range(n):
            if ri >> v & 1 and (v != i or rooted):
                continue
            values[i] = v
            t = v  # where the path from v ends: the loop or an unassigned vertex
            while t < i and values[t] != t:
                t = values[t]
            kept = reach[t]
            reach[t] |= ri
            fold = op(acc, rows[i][v]) if i else rows[0][v]
            yield from search(i + 1, fold, rooted or v == i)
            reach[t] = kept

    yield from search(0, rows[0][0], False)


def functional_trees(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the n^(n-1) functional-tree value tables on Z_n, lexicographically:
    tree_folds with the one-tuple (v,) as the weight of each edge (i, v)."""
    return tree_folds([[(v,) for v in range(n)]] * n, add)


def graceful_tables(n: int, fix0: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the gracefully labeled value tables on Z_n, lexicographically.

    An assignment f(i) = v is pruned when the label |v - i| is already used,
    tracked in a bitmask.  The last vertex is forced: one label L is left,
    so f(n-1) = n-1-L.  With fix0, only tables with f(0) = 0 are searched.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    last = n - 1
    full = (1 << n) - 1
    values = [0] * n

    def extend(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == last:
            values[i] = n - (full ^ used).bit_length()
            yield tuple(values)
            return
        for v in range(1 if fix0 and not i else n):
            bit = 1 << abs(v - i)
            if used & bit:
                continue
            values[i] = v
            yield from extend(i + 1, used | bit)

    yield from extend(0, 0)


def _conjugate(values: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The table of sigma f sigma^(-1): table[sigma(j)] = sigma(f(j))."""
    table = [0] * len(values)
    for j, v in enumerate(values):
        table[sigma[j]] = sigma[v]
    return tuple(table)


def relabel(g: FunctionalDigraph, s: Permutation) -> FunctionalDigraph:
    """Conjugate the underlying function: i -> s(f(s^(-1)(i)))."""
    if s.n != g.n:
        raise ValueError(f"permutation on Z_{s.n} cannot relabel a digraph on Z_{g.n}")
    return FunctionalDigraph(_conjugate(g.values, s.values))


def conjugate_tables(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield sigma f sigma^(-1) for every sigma in S_n, in the order of
    itertools.permutations (repeats included).

    The plain definition with no pruning: the oracles use it, never the
    pruned search below.
    """
    for s in itertools.permutations(range(len(values))):
        yield _conjugate(values, s)


# --- pruned labeling search ------------------------------------------------
#
# A conjugate sigma f sigma^(-1) has the edge label |sigma(f(v)) - sigma(v)|
# at vertex sigma(v).  The search assigns sigma one vertex at a time and
# takes each edge label from a label-count target as soon as both endpoints
# are placed: one of each label asks for gracefully labeled conjugates,
# realizes (gracelab.conjecture) for one label sequence.  Cycle vertices go
# first (shortest cycles first, each in order around the cycle), then every
# in-tree depth-first, siblings in the order _structure sorts them (by
# shape code), so each tree edge is labeled when its tail is placed; the
# vertex that closes a cycle completes two edges, which may take the same
# label twice.  Candidates are tried largest needed label first, which
# finds a first hit fast; depth-first placement keeps the full
# enumerations (grl_set, expansion_family) smaller than breadth-first
# would.  Four more cuts, each from the definitions alone:
# - label 0 comes from loops only, so the search needs exactly one loop
#   and a target with exactly one 0;
# - twins, off-cycle siblings whose in-subtrees have the same shape (marked
#   by _structure), take sigma values that run toward their parent's:
#   decreasing below a parent in the lower half of the labels, increasing
#   below one in the upper half.  The first twin takes the label farthest
#   from its parent's, so the next has room between them.  With one fixed
#   direction the first twin below a parent in one half leaves no room for
#   the next, and a first hit on a star takes exponential time: rooted at
#   its centre for increasing twins, at a leaf for decreasing ones.
#   Swapping two twin subtrees is an automorphism of f that keeps the
#   parent's sigma, so, fixed from the cycles down, every distinct
#   conjugate table is still reached;
# - a partial sigma is dropped when some label L still needed has no pair
#   of labels x, x + L left that an unplaced edge could join;
# - sigma and n-1-sigma give the same edge labels, and twin swaps fix the
#   loop, so the loop takes only the lower half of the labels and each hit
#   is yielded with its complement, except when the loop sits on the middle
#   label (odd n): the search reaches that complement by itself.
# So no sigma is yielded twice, and on a tree, whose automorphisms the twin
# swaps generate, no conjugate table either.
# The search never uses gamma or sign patterns, and the oracles never use
# the search.


def _structure(
    values: tuple[int, ...],
    ids: dict[tuple[int, ...], int] | None = None,
) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """Cycles (each in order v, f(v), ...), off-cycle in-neighbours, an
    AHU shape code per vertex (equal codes mean isomorphic in-subtrees),
    and the twin of each vertex: the sibling just before it with the same
    code, or -1.

    Each vertex's in-neighbours are sorted by code, ties by vertex, so
    twins sit in runs.  Codes are numbered in ids (sorted child codes ->
    code); pass one dict to several calls to make their codes comparable
    across tables."""
    n = len(values)
    state = [0] * n  # 0 unvisited, 1 on the current walk, 2 finished
    cycles: list[list[int]] = []
    for start in range(n):
        walk = []
        v = start
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = values[v]
        if state[v] == 1:
            cycles.append(walk[walk.index(v) :])
        for u in walk:
            state[u] = 2
    top_down = [v for cycle in cycles for v in cycle]
    on_cycle = set(top_down)
    children: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        if u not in on_cycle:
            children[values[u]].append(u)
    for v in top_down:  # grows while it is read: a breadth-first order
        top_down.extend(children[v])
    if ids is None:
        ids = {}
    code = [0] * n
    twin = [-1] * n
    shape = code.__getitem__
    for v in reversed(top_down):
        kids = children[v]
        kids.sort(key=shape)
        code[v] = ids.setdefault(tuple(map(shape, kids)), len(ids))
        u = -1  # the sibling before w in kids, -1 before the first
        for w in kids:
            if u >= 0 and code[u] == code[w]:
                twin[w] = u
            u = w
    return cycles, children, code, twin


def _labelings(
    values: tuple[int, ...], need: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Yield sigma (sigma[v] is the label of vertex v) for conjugates
    sigma f sigma^(-1) with need[L] edges of label L for every L, each
    sigma once; every such conjugate table comes from at least one yielded
    sigma, and from exactly one when f is a tree.  Yields nothing unless f
    has exactly one loop and need[0] == 1."""
    n = len(values)
    if need[0] != 1 or sum(1 for v, w in enumerate(values) if v == w) != 1:
        return
    cycles, children, _, twin = _structure(values)
    order = [v for cycle in sorted(cycles, key=len) for v in cycle]

    def visit(v: int) -> None:
        for u in children[v]:
            order.append(u)
            visit(u)

    for c in order[:]:
        visit(c)
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k
    # partners[k]: the placed endpoints of the non-loop edges completed at
    # position k (two at the vertex that closes a cycle).  A placed vertex
    # is open, with an unplaced neighbour, until position last[v]; so which
    # vertices open and close at each position does not depend on sigma.
    partners: list[list[int]] = [[] for _ in range(n)]
    last = pos[:]
    for x, y in enumerate(values):
        if x != y:
            u, k = (x, pos[y]) if pos[x] < pos[y] else (y, pos[x])
            partners[k].append(u)
            last[u] = max(last[u], k)
    closes: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if last[v] > pos[v]:
            closes[last[v]].append(v)
    sigma = [0] * n
    left = list(need)  # edges still to take each label
    left[0] = 0  # the loop's edge takes the one 0

    def place(k: int, free: int, needed: int, o: int) -> Iterator[tuple[int, ...]]:
        # Positions below k are placed: free holds the labels not taken,
        # needed those with left > 0 and o those of the open vertices.
        if k == n:
            yield tuple(sigma)
            if 2 * sigma[order[0]] != n - 1:  # the loop is not on the middle label
                yield tuple(n - 1 - x for x in sigma)
            return
        v = order[k]
        opens = last[v] > k
        ps = partners[k]
        if not ps:  # the loop, on the lower half, or the first vertex of a cycle
            for a in range(n if k else (n + 1) // 2):
                if free >> a & 1:
                    sigma[v] = a
                    p = o | 1 << a if opens else o
                    yield from place(k + 1, free ^ 1 << a, needed, p)
            return
        b = sigma[ps[0]]
        prev = twin[v]
        lo, hi = -1, n
        if prev >= 0:  # twins run toward their parent's label b
            if 2 * b < n:
                hi = sigma[prev]
            else:
                lo = sigma[prev]
        w = ps[1] if len(ps) > 1 else -1  # the other end of the edge closing a cycle
        rest = needed
        while rest:  # largest needed label first
            label = rest.bit_length() - 1
            rest ^= 1 << label
            for a in (b - label, b + label):
                if not (lo < a < hi and free >> a & 1):
                    continue
                c = abs(a - sigma[w]) if w >= 0 else 0  # that edge's label
                if c and left[c] <= (c == label):
                    continue  # no count left for it
                sigma[v] = a
                left[label] -= 1
                now = needed if left[label] else needed ^ 1 << label
                if c:
                    left[c] -= 1
                    if not left[c]:
                        now ^= 1 << c
                # Each label still needed wants an unplaced edge between
                # labels x and x + L: both free, or one free, one open.
                f = free ^ 1 << a
                p = o | 1 << a if opens else o
                for u in closes[k]:
                    p ^= 1 << sigma[u]
                reach = f | p
                unmet = now
                while unmet:
                    top = unmet.bit_length() - 1
                    if not (f & (reach >> top) | p & (f >> top)):
                        break
                    unmet ^= 1 << top
                if not unmet:
                    yield from place(k + 1, f, now, p)
                left[label] += 1
                if c:
                    left[c] += 1

    yield from place(0, (1 << n) - 1, sum(1 << x for x in range(n) if left[x]), 0)


def _least_conjugator(
    values: tuple[int, ...],
    table: tuple[int, ...],
    sigma: tuple[int, ...],
    code: list[int],
) -> tuple[int, ...]:
    """The lexicographically least sigma' with sigma' f sigma'^(-1) == table,
    given one such sigma and the shape codes of f (from _structure).

    sigma'(0), sigma'(1), ... are fixed in turn, each at the least label of
    matching shape whose forced images sigma'(f^k(j)) = table^k(label) are
    consistent.  A consistent partial map between f-closed parts with
    matching shapes always extends to the whole, so no choice is undone.
    """
    n = len(values)
    label_code = [0] * n
    for v in range(n):
        label_code[sigma[v]] = code[v]
    out = [-1] * n
    owner = [-1] * n  # label -> vertex
    for j in range(n):
        if out[j] >= 0:
            continue
        for a in range(n):
            if owner[a] >= 0 or label_code[a] != code[j]:
                continue
            trail = []
            x, b = j, a
            while out[x] < 0 and owner[b] < 0 and label_code[b] == code[x]:
                out[x] = b
                owner[b] = x
                trail.append(x)
                x, b = values[x], table[b]
            if out[x] == b:
                break
            for x in trail:
                owner[out[x]] = -1
                out[x] = -1
        else:
            raise ValueError("table is not a conjugate of the digraph")
    return tuple(out)


def _hits(
    values: tuple[int, ...], target: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(sigma f sigma^(-1), sigma) for each sigma of the labeling search
    for the sorted label sequence target (labels in Z_n), conjugated once
    and read back: a hit whose table's sorted edge labels are not the
    target is dropped, and a sigma that is not a permutation of Z_n raises
    ValueError."""
    need = [target.count(label) for label in range(len(values))]
    for sigma in _labelings(values, need):
        Permutation(sigma)  # raises ValueError unless sigma permutes Z_n
        table = _conjugate(values, sigma)
        if tuple(sorted(abs(v - i) for i, v in enumerate(table))) == target:
            yield table, sigma


def _first_conjugators(
    values: tuple[int, ...],
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each distinct gracefully labeled conjugate table of f to the
    lexicographically least sigma with sigma f sigma^(-1) == table, the
    same from whichever hit reaches the table."""
    code = _structure(values)[2]
    firsts: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t, s in _hits(values, tuple(range(len(values)))):
        if t not in firsts:  # cycle rotations reach one table several times
            firsts[t] = _least_conjugator(values, t, s, code)
    return firsts


def is_graceful(g: FunctionalDigraph) -> bool:
    """True iff some relabeling of g is gracefully labeled; the labeling
    search stops at its first hit that reads back gracefully labeled."""
    return next(_hits(g.values, tuple(range(g.n))), None) is not None


def grl_set(g: FunctionalDigraph) -> list[FunctionalDigraph]:
    """All distinct gracefully labeled conjugates of g, lexicographically sorted.

    On a tree the labeling search reaches each table once; otherwise it may
    reach one from several sigma (automorphisms other than twin swaps, such
    as cycle rotations), and the set keeps each once.
    """
    found = {t for t, _ in _hits(g.values, tuple(range(g.n)))}
    return [FunctionalDigraph(t) for t in sorted(found)]


def complement(g: FunctionalDigraph) -> FunctionalDigraph:
    """The complementary labeling i -> n-1-f(n-1-i); an involution."""
    n = g.n
    return FunctionalDigraph(tuple(n - 1 - g.values[n - 1 - i] for i in range(n)))
