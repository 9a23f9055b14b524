"""Sign-pattern expansions of graceful labelings.

Every gracefully labeled value table factors as f(i) = i + (-1)^p(i) * g(i)
where g = |f - id| is a permutation and p is a bit vector; conjugating by a
permutation sigma gives the general expansion.  This module enumerates and
counts the permutations g ("valid gammas") that admit at least one in-range
sign choice at every vertex, enumerates the odd signed permutations that
generate gracefully labeled digraphs fixing 0, and brute-forces the count
tau_n of gracefully labeled digraphs without isolated vertices.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import getitem
from typing import Sequence

from gracelab.digraph import (
    FunctionalDigraph,
    Permutation,
    graceful_tables,
    is_gracefully_labeled,
)

__all__ = [
    "GracefulExpansion",
    "IdentityCheck",
    "SignedPermutation",
    "count_valid_gammas",
    "decompose",
    "enumerate_sp",
    "enumerate_valid_gammas",
    "enumerate_valid_gammas_by_filter",
    "expand",
    "is_valid_gamma",
    "sp_sum_identity_check",
    "tau_bounds",
    "tau_bruteforce",
    "valid_gammas",
]

class GracefulExpansion(namedtuple("GracefulExpansion", "sigma gamma p")):
    """Triple (sigma, gamma, p) parametrizing a graceful labeling."""

    __slots__ = ()

    def __new__(
        cls, sigma: Permutation, gamma: Permutation, p: tuple[int, ...]
    ) -> "GracefulExpansion":
        n = sigma.n
        if gamma.n != n or len(p) != n:
            raise ValueError("sigma, gamma, and p must share one length")
        if any(bit not in (0, 1) for bit in p):
            raise ValueError("p must be a bit vector")
        return super().__new__(cls, sigma, gamma, p)

    @property
    def n(self) -> int:
        return self.sigma.n


def expand(e: GracefulExpansion) -> FunctionalDigraph:
    """Build the digraph f(sigma(j)) = sigma(j + (-1)^p(j) * gamma(j)).

    Raises ValueError naming the first index whose signed step leaves Z_n.
    """
    n = e.n
    out = [0] * n
    for j in range(n):
        step = e.gamma.values[j]
        t = j - step if e.p[j] else j + step
        if not 0 <= t < n:
            raise ValueError(f"sign pattern sends index {j} to {t}, outside [0, {n})")
        out[e.sigma.values[j]] = e.sigma.values[t]
    return FunctionalDigraph(tuple(out))


def decompose(g: FunctionalDigraph) -> GracefulExpansion:
    """Recover (id, gamma, p) with gamma = |f - id| from a gracefully labeled g.

    Ties at the fixed point take p = 0, so expand(decompose(g)) == g exactly.
    """
    if not is_gracefully_labeled(g):
        raise ValueError(f"not gracefully labeled: {g.format()}")
    gamma = tuple(abs(v - i) for i, v in enumerate(g.values))
    p = tuple(0 if v >= i else 1 for i, v in enumerate(g.values))
    return GracefulExpansion(Permutation.identity(g.n), Permutation(gamma), p)


def is_valid_gamma(gamma: Permutation) -> bool:
    """gamma(0) = 0 and every other index admits an in-range signed step."""
    if gamma.values[0] != 0:
        return False
    n = gamma.n
    return all(v <= i or v < n - i for i, v in enumerate(gamma.values) if i >= 1)


def enumerate_valid_gammas_by_filter(n: int) -> list[Permutation]:
    """Reference enumeration: filter all of S_n; the test oracle."""
    if n < 2:
        raise ValueError("need n >= 2")
    perms = (Permutation((0,) + rest) for rest in itertools.permutations(range(1, n)))
    return list(filter(is_valid_gamma, perms))


def _values(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def valid_gammas(n: int) -> str:
    """Every valid gamma on Z_n as one text, a line per gamma in
    Permutation.format's form, in ascending order of g.

    Index i >= 1 may take the values 1..max(i, n-1-i).  Indices 1, 2, ...
    are assigned in turn, each trying the values left in increasing order,
    so each set of values left has one ordered list of completions and the
    gammas come out sorted.  From index n // 2 - 1 on those lists are
    memoized, keyed by the bitmask of the values left, each as one block of
    lines: a block is its children's blocks with each line prefixed by the
    child's value, and each head above that index is prefixed onto its block
    the same way, so the string routines copy the text and no object is made
    per gamma.

    The signature of a set of values is the sum of (n+1)^v over it.  n
    values give each base-(n+1) digit a count of at most n, so a gamma is a
    permutation of Z_n exactly when its signature is the sum of (n+1)^k over
    k < n.  A block at the last index checks each value it lists against the
    signature of its mask; every other block checks that the value placed
    before each child plus the child's signature is the signature of its
    mask; and each head checks that its signature plus its block's is that
    sum, also when the block was built for another head.  So every listed
    gamma is checked; else ValueError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    top = n - 1
    texts = ["0", *(",%d" % v for v in range(1, n))]
    weights = [(n + 1) ** v for v in range(n)]
    target = sum(weights)
    allowed = [(2 << max(i, top - i)) - 2 for i in range(n)]  # values 1..max as bits
    memo: dict[int, tuple[str, int]] = {}
    out: list[str] = []

    def fault(gamma: str) -> ValueError:
        return ValueError(f"not a permutation of Z_{n}: {gamma}")

    def completions(i: int, left: int, head: str) -> tuple[str, int]:
        # head: the text of indices 0..i-1 on the first path to left, for errors
        done = memo.get(left)
        if done is None:
            sig = sum(w for v, w in enumerate(weights) if left >> v & 1)
            if i == top:
                vs = _values(left)
                bad = next((v for v in vs if weights[v] != sig), None)
                if bad is not None:
                    raise fault(head + texts[bad])
                text = "\n".join([texts[v] for v in vs])
            else:
                blocks = []
                for v in _values(left & allowed[i]):
                    piece = texts[v]
                    block, rest = completions(i + 1, left & ~(1 << v), head + piece)
                    if weights[v] + rest != sig:
                        raise fault(head + piece + block.partition("\n")[0])
                    if block:  # "" is a block of no lines, not of one empty line
                        blocks.append(piece + block.replace("\n", "\n" + piece))
                text = "\n".join(blocks)
            memo[left] = done = text, sig
        return done

    def extend(i: int, left: int, head: str, sig: int) -> None:
        if i < n // 2 - 1:
            for v in _values(left & allowed[i]):
                extend(i + 1, left & ~(1 << v), head + texts[v], sig + weights[v])
            return
        block, rest = completions(i, left, head)
        if sig != target - rest:
            raise fault(head + block.partition("\n")[0])
        if block:
            out.append(head + block.replace("\n", "\n" + head))

    extend(1, (1 << n) - 2, texts[0], weights[0])
    memo.clear()  # the closures form a cycle that would keep the memo alive
    return "\n".join(out)


def enumerate_valid_gammas(n: int) -> list[Permutation]:
    """Enumerate the valid gammas as Permutations, in ascending order.

    A parse of valid_gammas, the one enumeration, whose permutation check
    runs (ValueError otherwise) before any Permutation is built.  The CLI
    prints that text as it is.
    """
    return [
        Permutation(tuple(map(int, line.split(","))))
        for line in valid_gammas(n).split("\n")
    ]


def count_valid_gammas(n: int) -> int:
    """Closed form floor((n-1)/2)! * ceil((n-1)/2)!."""
    if n < 2:
        raise ValueError("need n >= 2")
    return math.factorial((n - 1) // 2) * math.factorial(n // 2)


class SignedPermutation(namedtuple("SignedPermutation", "images")):
    """An odd bijection g of (-n, n) with i + g(i) in [0, n) for i >= 0.

    Oddness g(-i) = -g(i) forces g(0) = 0 and makes the restriction of
    i -> i + g(i) to [0, n) a gracefully labeled value table fixing 0.
    Stored as the image tuple of (-n+1, ..., n-1).
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> "SignedPermutation":
        m = len(images)
        if m % 2 == 0:
            raise ValueError("image tuple must cover -n+1..n-1, an odd count")
        n = (m + 1) // 2
        if sorted(images) != list(range(-n + 1, n)):
            raise ValueError(f"not a bijection of (-{n}, {n}): {images!r}")
        self = super().__new__(cls, images)
        for i in range(n):
            if self.g(-i) != -self.g(i):
                raise ValueError("not odd: g(-i) != -g(i)")
        for i in range(n):
            if not 0 <= i + self.g(i) < n:
                raise ValueError(f"i + g(i) leaves [0, {n}) at i={i}")
        return self

    @property
    def n(self) -> int:
        return (len(self.images) + 1) // 2

    def g(self, i: int) -> int:
        return self.images[i + self.n - 1]

    def to_digraph(self) -> FunctionalDigraph:
        return FunctionalDigraph(tuple(i + self.g(i) for i in range(self.n)))

    def format(self) -> str:
        return ",".join(map(str, self.images))


def enumerate_sp(n: int) -> list[SignedPermutation]:
    """All signed permutations per the invariants above, sorted by image tuple.

    For i >= 1, |g(i)| is a valid gamma and g(i) one of its in-range signed
    steps, so the list is enumerate_valid_gammas(n) times the sign choices
    at each index; g(-i) = -g(i) fills the lower half.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return [SignedPermutation((0,))]
    upper = []  # (g(1), ..., g(n-1))
    for gamma in enumerate_valid_gammas(n):
        steps = [
            [s for s in (m, -m) if 0 <= i + s < n] for i, m in enumerate(gamma.values)
        ]
        upper.extend(itertools.product(*steps[1:]))
    return sorted(
        SignedPermutation(tuple(-g for g in reversed(up)) + (0,) + up) for up in upper
    )


class IdentityCheck(namedtuple("IdentityCheck", "left right")):
    """The two sides of an identity computed two ways."""

    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.left == self.right


def sp_sum_identity_check(
    sps: Sequence[SignedPermutation], matrix: Sequence[Sequence[int]]
) -> IdentityCheck:
    """Signed-permutation entry-product sum vs the brute-force graceful sum,
    for the n x n matrix A.

    left  = sum over sps of prod_i A[i, i+g(i)]
    right = sum over gracefully labeled f with f(0) = 0 of prod_i A[i, f(i)],
    the right side enumerated by the label-bitmask search
    digraph.graceful_tables(n, fix0=True).  The identity holds when sps is
    enumerate_sp(n); the caller passes the list it has already enumerated.
    """
    n = len(matrix)
    left = sum(
        math.prod(map(getitem, matrix, (i + sp.g(i) for i in range(n)))) for sp in sps
    )
    right = sum(
        math.prod(map(getitem, matrix, values))
        for values in graceful_tables(n, fix0=True)
    )
    return IdentityCheck(left, right)


def tau_bounds(n: int) -> tuple[int, int]:
    """Lower/upper bounds for the count of gracefully labeled digraphs
    without isolated vertices: c*2 and c*n*2^ceil((n-1)/2) for
    c = floor((n-1)/2)! * ceil((n-1)/2)!."""
    if n < 2:
        raise ValueError("need n >= 2")
    c = count_valid_gammas(n)
    return 2 * c, c * n * 2 ** (n // 2)


def tau_bruteforce(n: int) -> int:
    """Count gracefully labeled value tables with no isolated vertex.

    A vertex v is isolated when f(v) = v and no other vertex maps to v;
    a gracefully labeled table has exactly one fixed point c, and c is
    isolated exactly when it is its own only preimage, values.count(c) == 1.
    The tables come from the label-bitmask search digraph.graceful_tables,
    not from the gamma expansion.
    """
    count = 0
    for values in graceful_tables(n):
        fixed = next(i for i, v in enumerate(values) if v == i)
        if values.count(fixed) > 1:
            count += 1
    return count
