"""The benchmark's own functional-digraph mathematics.

Nothing here imports gracelab: these routines make the workload inputs and
check the program's outputs, so they must not share code with it.  A value
table ``f`` is a tuple with ``f[i]`` the image of vertex ``i``.
"""

from __future__ import annotations

import math
from collections import Counter

# OEIS A000081: unlabeled rooted trees on n nodes, n = 1, 2, ...  A rooted
# tree with a loop at its root is one conjugation class of functional trees.
ROOTED_TREES = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766)


def is_graceful_labeling(f) -> bool:
    """The labels |f(i) - i| are exactly 0, 1, ..., n-1."""
    return sorted(abs(v - i) for i, v in enumerate(f)) == list(range(len(f)))


def is_tree(f) -> bool:
    """Exactly one fixed point, and every vertex reaches it."""
    n = len(f)
    roots = [i for i in range(n) if f[i] == i]
    if len(roots) != 1:
        return False
    for v in range(n):
        for _ in range(n):
            v = f[v]
        if v != roots[0]:
            return False
    return True


def graceful_tables(n: int, fixed_zero: bool = False):
    """Yield every gracefully labeled value table on Z_n, pruning a branch
    as soon as it repeats a label."""
    f = [0] * n

    def place(i: int, used: int):
        if i == n:
            yield tuple(f)
            return
        for v in ((0,) if i == 0 and fixed_zero else range(n)):
            bit = 1 << abs(v - i)
            if not used & bit:
                f[i] = v
                yield from place(i + 1, used | bit)

    yield from place(0, 0)


def has_isolated_vertex(f) -> bool:
    """Some vertex is fixed and no other vertex maps to it."""
    indegree = Counter(f)
    return any(f[v] == v and indegree[v] == 1 for v in range(len(f)))


def cycles(f) -> list[list[int]]:
    """The cycles of f, each listed in the order f walks it, starting at its
    smallest vertex."""
    n = len(f)
    state = [0] * n  # 0 new, 1 on the current walk, 2 done
    out = []
    for start in range(n):
        walk = []
        v = start
        while state[v] == 0:
            state[v] = 1
            walk.append(v)
            v = f[v]
        if state[v] == 1:
            cyc = walk[walk.index(v):]
            k = cyc.index(min(cyc))
            out.append(cyc[k:] + cyc[:k])
        for w in walk:
            state[w] = 2
    return out


def _tree_codes(f, on_cycle):
    # AHU codes of the trees hanging from each vertex, with the sizes of
    # their automorphism groups; children are the off-cycle preimages.
    n = len(f)
    children = [[] for _ in range(n)]
    for v in range(n):
        if not on_cycle[v]:
            children[f[v]].append(v)
    code: dict[int, str] = {}
    autos: dict[int, int] = {}

    def visit(v: int) -> None:
        for c in children[v]:
            visit(c)
        kids = sorted(code[c] for c in children[v])
        code[v] = "(" + "".join(kids) + ")"
        a = math.prod(autos[c] for c in children[v])
        for m in Counter(kids).values():
            a *= math.factorial(m)
        autos[v] = a

    for v in range(n):
        if on_cycle[v]:
            visit(v)
    return code, autos


def _components(f):
    on_cycle = [False] * len(f)
    cycs = cycles(f)
    for cyc in cycs:
        for v in cyc:
            on_cycle[v] = True
    code, autos = _tree_codes(f, on_cycle)
    comps = []
    for cyc in cycs:
        seq = [code[v] for v in cyc]
        k = len(seq)
        rotations = [tuple(seq[r:] + seq[:r]) for r in range(k)]
        canon = min(rotations)
        symmetries = rotations.count(canon)
        comps.append((canon, symmetries * math.prod(autos[v] for v in cyc)))
    return comps


def canonical_form(f) -> tuple:
    """Isomorphism invariant of the functional digraph: equal exactly when
    two tables are conjugate."""
    return tuple(sorted(canon for canon, _ in _components(f)))


def automorphism_count(f) -> int:
    """Number of permutations s with s f s^-1 = f."""
    comps = _components(f)
    total = 1
    for canon, count in Counter(canon for canon, _ in comps).items():
        aut = next(a for c, a in comps if c == canon)
        total *= math.factorial(count) * aut**count
    return total


def within_one_image_of_conjugate(h, g) -> bool:
    """h agrees with some conjugate of g outside at most one vertex."""
    target = canonical_form(g)
    if canonical_form(h) == target:
        return True
    indeg_g = sorted(Counter(g)[v] for v in range(len(g)))
    indeg_h = Counter(h)
    n = len(h)
    edited = list(h)
    for j in range(n):
        old = h[j]
        for w in range(n):
            if w == old:
                continue
            indeg_h[old] -= 1
            indeg_h[w] += 1
            if sorted(indeg_h[v] for v in range(n)) == indeg_g:
                edited[j] = w
                if canonical_form(edited) == target:
                    return True
                edited[j] = old
            indeg_h[old] += 1
            indeg_h[w] -= 1
    return False


def lcg_matrix(n: int, seed: int, lo: int, hi: int) -> list[list[int]]:
    """The program's documented seeded matrix, rebuilt from its published
    recurrence: state' = (6364136223846793005 * state + 1442695040888963407)
    mod 2^64, entry = lo + ((state' >> 33) mod (hi - lo + 1)), row-major."""
    state = seed % (1 << 64)
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (6364136223846793005 * state + 1442695040888963407) % (1 << 64)
            row.append(lo + (state >> 33) % (hi - lo + 1))
        out.append(row)
    return out


def bareiss_det(matrix) -> int:
    """Fraction-free Gaussian elimination over the integers."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def tree_theorem_sum(a) -> int:
    """Sum over roots i of a[i][i] times the i-th principal minor of the
    out-degree Laplacian diag(a 1) - a: the weighted count of functional
    trees by the directed matrix tree theorem."""
    n = len(a)
    lap = [
        [(sum(a[i]) - a[i][i] if i == j else -a[i][j]) for j in range(n)]
        for i in range(n)
    ]
    total = 0
    for r in range(n):
        minor = [[lap[i][j] for j in range(n) if j != r] for i in range(n) if i != r]
        total += a[r][r] * bareiss_det(minor)
    return total


def whitty_determinant(a) -> int:
    """a[0][0] times det of (Upsilon - Lambda) without row and column 0, with
    Lambda[i][j] = a[min(p, i)][max(p, i)] for p = i + j - n in [0, n) and
    Upsilon[i][j] = a[min(i, q)][max(i, q)] for q = n + i - j in [0, n)."""
    n = len(a)

    def entry(p: int, i: int) -> int:
        return a[min(p, i)][max(p, i)] if 0 <= p < n else 0

    minor = [
        [entry(n + i - j, i) - entry(i + j - n, i) for j in range(1, n)]
        for i in range(1, n)
    ]
    return a[0][0] * bareiss_det(minor)
