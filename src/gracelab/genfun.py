"""Generating functions for induced subtractive edge label sequences.

F counts all functional digraphs on Z_n by label sequence, encoding a
sequence with b_i copies of label i as the exponent sum(b_i * (n+1)^i);
P does the same for functional trees in base n.  F is a product of row sums
of a symbolic monomial matrix; P is the directed-matrix-tree-theorem
determinant form.  Both come with direct enumeration oracles (all n^n
functions for F, the functional trees for P), plus structural property
checkers that compare the claimed extremal degrees against the enumerated
truth.

P needs one cofactor, not one per root.  The matrix X with entries
x^(n^|i-j|) is symmetric, so its Laplacian diag(X * 1) - X has zero row and
column sums, and all its principal cofactors are equal: re-rooting a tree
reverses the edges on one path, which keeps every label |i - f(i)|.  X is
also Toeplitz, so the Laplacian commutes with the reversal i -> n-1-i, and
that cofactor splits into two determinants of half the size (compute_P).

The three brute-force scans (compute_F_bruteforce, compute_P_bruteforce and
the tree side of tdmtt_check) split by the value of f(0) from n = 7 on:
the calling process takes one share and forked workers, one per further
usable CPU, take the others (_shares).  Results are combined exactly, in a
fixed order, so they never depend on the number of CPUs.
"""

from __future__ import annotations

import itertools
import marshal
import math
import os
from collections import Counter, namedtuple
from functools import reduce
from operator import add, mul
from typing import Callable, NoReturn, Sequence, TypeVar

from gracelab.digraph import tree_folds
from gracelab.expansion import IdentityCheck
# Unused here, but bench/test_bench.py checks that a traced pass restores it.
from gracelab.digraph import is_functional_tree  # noqa: F401
from gracelab.polyring import SparsePoly

__all__ = [
    "ClaimCheck",
    "PropertyReport",
    "build_F_matrix",
    "build_P_matrix",
    "check_F_properties",
    "check_P_properties",
    "compute_F",
    "compute_F_bruteforce",
    "compute_P",
    "compute_P_bruteforce",
    "decode_exponent",
    "det_poly",
    "det_via_minor_expansion",
    "encode_sequence",
    "graceful_coefficient_F",
    "monomial_matrix",
    "tdmtt_check",
]

T = TypeVar("T")

PolyMatrix = tuple[tuple[SparsePoly, ...], ...]


def monomial_matrix(n: int, base: int) -> PolyMatrix:
    """Symmetric n x n matrix with entry (i, j) = x^(base^|i-j|)."""
    if n < 1:
        raise ValueError("need n >= 1")
    powers = [base**d for d in range(n)]
    return tuple(
        tuple(SparsePoly.monomial(powers[abs(i - j)]) for j in range(n))
        for i in range(n)
    )


def build_F_matrix(n: int) -> PolyMatrix:
    """The matrix generating F: entries x^((n+1)^|i-j|)."""
    return monomial_matrix(n, n + 1)


def build_P_matrix(n: int) -> PolyMatrix:
    """The matrix generating P: entries x^(n^|i-j|)."""
    return monomial_matrix(n, n)


def compute_F(n: int) -> SparsePoly:
    """Product over rows of the row sums of build_F_matrix(n).

    Equals the determinant of diag(X * 1) and therefore the sum of one
    monomial per function on Z_n, grouped by label sequence.
    """
    result = SparsePoly.one()
    for row in build_F_matrix(n):
        result = result * reduce(add, row)
    return result


def _label_powers(n: int, base: int) -> list[list[int]]:
    """rows[i][v] = base^|v - i|: the exponent term of the edge (i, v)."""
    return [[base ** abs(v - i) for v in range(n)] for i in range(n)]


# --- brute-force scans split by f(0) ----------------------------------------
#
# Each oracle scan below is cut into w shares, share k holding the tables
# with f(0) = k (mod w), run side by side by _shares.  The results are
# added up exactly, in share order, so no result depends on w; and the
# split cuts only the enumeration space, so each oracle still shares
# nothing with its fast path.

# A fork round trip costs a few milliseconds, so only a scan of at least
# about 10^5 tables (n^(n-1) at n = 7) is split.
_SPLIT_FROM_N = 7


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(part: Callable[[int, int], T], n: int) -> list[T]:
    """[part(k, w) for k in range(w)], computed side by side: share 0 in
    this process, each other share in a forked child.

    w = min(usable CPUs, n), or 1 below n = _SPLIT_FROM_N or without
    os.fork.  A share's result must be an int or a plain dict of int to
    int, which marshal writes (it refuses a Counter).  Every child is
    reaped, its pipe read to the end first, even when share 0 raises.  A
    child that fails, or sends bytes that do not unmarshal, raises
    RuntimeError here.
    """
    w = min(_usable_cpus(), n) if n >= _SPLIT_FROM_N and hasattr(os, "fork") else 1
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for k in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _run_share(part, k, w, write)
            os.close(write)
            children.append((pid, read))
        results = [part(0, w)]
    finally:
        sent = [_reap(pid, read) for pid, read in children]
    for k, (status, data) in enumerate(sent, 1):
        if status:
            raise RuntimeError(f"share {k} of {w}: worker exited with status {status}")
        try:
            results.append(marshal.loads(data))
        except (EOFError, ValueError, TypeError):
            raise RuntimeError(f"share {k} of {w}: worker sent no readable result") from None
    return results


def _run_share(part: Callable[[int, int], object], k: int, w: int, write: int) -> NoReturn:
    # In the child: exit status 0 once the result is written, 1 on any
    # exception.  os._exit never returns into the caller's code and never
    # flushes the stdio the child inherited.
    status = 1
    try:
        data = marshal.dumps(part(k, w))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read: int) -> tuple[int, bytes]:
    """A child's exit status and what it wrote, read to the end first so
    that a child blocked on a full pipe can finish."""
    with open(read, "rb") as pipe:
        data = pipe.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data


def _merged(counts: list[dict[int, int]]) -> SparsePoly:
    # SparsePoly adds the coefficients of repeated exponents
    return SparsePoly([term for share in counts for term in share.items()])


def _f0_mask(k: int, w: int, n: int) -> int:
    """Bitmask of the f(0) values of share k of w: k, k + w, ... below n."""
    return sum(1 << v for v in range(k, n, w))


def compute_F_bruteforce(n: int) -> SparsePoly:
    """Oracle: scan all n^n functions and sum their label-sequence monomials.

    Choosing one term per row of _label_powers is choosing f, so the
    product over rows visits every function once, and the sum of its
    choice is that function's exponent.  The rows are split at n // 2:
    each head sum (a choice of f(0), ..., f(n//2 - 1)) is added to every
    tail sum, one addition per function, and one Counter counts the
    exponents as they come.  Share k of the scan (_shares) takes only the
    first-row terms f(0) = k, k + w, ...
    """
    rows = _label_powers(n, n + 1)

    def part(k: int, w: int) -> dict[int, int]:
        share = [rows[0][k::w], *rows[1:]]
        heads = map(sum, itertools.product(*share[: n // 2]))
        tails = map(sum, itertools.product(*share[n // 2 :]))
        return dict(Counter(itertools.starmap(add, itertools.product(heads, tails))))

    return _merged(_shares(part, n))


def encode_sequence(labels: Sequence[int], base: int) -> int:
    """Exponent sum(b_i * base^i) where b_i is the multiplicity of label i."""
    n = len(labels)
    for label in labels:
        if not 0 <= label < n:
            raise ValueError(f"label {label} outside [0, {n})")
    return sum(base**label for label in labels)


def decode_exponent(e: int, base: int, n: int) -> tuple[int, ...]:
    """Invert encode_sequence; requires the base-`base` digits to sum to n."""
    if e < 0:
        raise ValueError("negative exponent")
    labels = []
    rest = e
    for label in range(n):
        rest, b = divmod(rest, base)
        labels.extend([label] * b)
    if rest != 0 or len(labels) != n:
        raise ValueError(f"not a label-sequence exponent for n={n}, base={base}: {e}")
    return tuple(labels)


def graceful_coefficient_F(n: int) -> int:
    """Number of gracefully labeled functional digraphs on Z_n, read off F."""
    return compute_F(n).coefficient(encode_sequence(range(n), n + 1))


def _in_entry_ring(matrix: Sequence[Sequence[object]], poly: SparsePoly):
    """poly in the ring of the matrix entries: an int exactly when every
    entry is an int (the empty matrix counts as all-int), else poly itself.

    Computations over int and SparsePoly entries alike lift every entry to
    a polynomial (an int becomes a constant) and hand the result back
    through this one rule; an all-int matrix gives a constant polynomial.
    """
    if all(isinstance(entry, int) for row in matrix for entry in row):
        return poly.coefficient(0)
    return poly


def det_via_minor_expansion(matrix: Sequence[Sequence[T]]) -> T:
    """Exact determinant by Laplace expansion, row by row over column sets.

    Rows are consumed bottom-up: level k holds, for every k-column tuple,
    the minor on the last k rows and those columns, so the work is 2^n
    subproblems instead of the n! of the plain permutation sum.  Level k is
    built from level k - 1 alone by expanding along row n - k, the i-th
    column with sign (-1)^i, and then level k - 1 is dropped: at most two
    levels are alive at once.  Each minor is one SparsePoly.sum_of_products:
    its signed entry * subminor products go straight into one fresh dict.

    The same expansion serves SparsePoly and int matrices: every nonzero
    entry is read as the polynomial 1 * entry, and the determinant is
    returned by _in_entry_ring, so an int matrix gives an int.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    unit = SparsePoly.one()
    minors: dict[tuple[int, ...], SparsePoly] = {(): unit}
    for k in range(1, n + 1):
        row = [unit * entry if entry else None for entry in matrix[n - k]]
        minors = {
            cols: SparsePoly.sum_of_products(
                (-1 if i % 2 else 1, row[c], minors[cols[:i] + cols[i + 1 :]])
                for i, c in enumerate(cols)
                if row[c] is not None
            )
            for cols in itertools.combinations(range(n), k)
        }
    return _in_entry_ring(matrix, minors[tuple(range(n))])


def det_poly(matrix: Sequence[Sequence[SparsePoly]]) -> SparsePoly:
    """Exact determinant of a matrix of sparse polynomials (the empty
    matrix counts as all-int: its determinant is the int 1)."""
    return det_via_minor_expansion(matrix)


def _row_sum_laplacian(matrix: Sequence[Sequence[T]]) -> list[list[T]]:
    # diag(M * 1) - M over any ring: diagonal gets the full row sum.
    out: list[list[T]] = []
    for i, row in enumerate(matrix):
        row_sum = reduce(add, row)
        out.append(
            [row_sum - entry if i == j else -entry for j, entry in enumerate(row)]
        )
    return out


def compute_P(n: int) -> SparsePoly:
    """Functional-tree generating function from two half-size determinants.

    The directed matrix tree theorem gives P as the sum over roots i of
    X[i,i] * det L^(i), where L = diag(X * 1) - X and L^(i) drops row and
    column i.  X is symmetric, so L has zero column sums as well as zero row
    sums, and then all n principal cofactors det L^(i) equal one tau
    (Kirchhoff).  Every X[i,i] is x, so P = n * x * tau.  In terms of trees:
    an edge label |i - f(i)| does not depend on the edge's direction, so
    re-rooting a tree keeps its label sequence.

    X is also symmetric Toeplitz, so L commutes with the reversal
    i -> n-1-i.  With h = n // 2 and i, j < h, L splits into the blocks
    S[i][j] = L[i][j] + L[i][n-1-j] and T[i][j] = L[i][j] - L[i][n-1-j]:
      odd n:  the reversal fixes the middle vertex m = h, and
              tau = det L^(m) = det S * det T;
      even n: det(L + J) = n^2 * tau (J all ones) splits into
              det(S + 2J) * det T, and S is symmetric with zero row sums, so
              det(S + 2J) = 2 * h^2 * det S^(h-1); hence tau =
              det S^(h-1) * det T / 2, and P = h * x * det S^(h-1) * det T
              needs no division.
    Both blocks have at most h rows; nearly all the work is the one product.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    matrix = build_P_matrix(n)
    laplacian = _row_sum_laplacian(matrix)
    h = n // 2
    sym = [[row[j] + row[n - 1 - j] for j in range(h)] for row in laplacian[:h]]
    anti = [[row[j] - row[n - 1 - j] for j in range(h)] for row in laplacian[:h]]
    if n % 2:
        scale, det_sym = n, det_poly(sym)
    else:
        scale, det_sym = h, det_poly([row[:-1] for row in sym[:-1]])
    return SparsePoly.sum_of_products([(scale, matrix[0][0] * det_sym, det_poly(anti))])


def compute_P_bruteforce(n: int) -> SparsePoly:
    """Oracle: enumerate the functional trees directly, sum their monomials.

    The trees come from the pruned search digraph.tree_folds, which uses
    only the cycle/loop definition of a tree and adds up each tree's edge
    terms as it goes; share k (_shares) searches the trees with f(0) = k,
    k + w, ...
    """
    rows = _label_powers(n, n)

    def part(k: int, w: int) -> dict[int, int]:
        return dict(Counter(tree_folds(rows, add, _f0_mask(k, w, n))))

    return _merged(_shares(part, n))


def tdmtt_check(matrix: Sequence[Sequence[int]]) -> IdentityCheck:
    """Directed matrix tree theorem on an integer matrix.

    left  = sum over roots i of A[i,i] * det L^(i), L = diag(A * 1) - A,
            as one determinant by exact minor expansion: L has zero row
            sums, so L * adj(L) = 0 and each row of cofactors of L is
            constant, C[i][i] = C[i][0].  Expanding along column 0 then
            gives the sum as det of L with column 0 replaced by the
            diagonal A[0][0], ..., A[n-1][n-1];
    right = sum over functional trees f of prod_i A[i, f(i)], enumerated
            by the pruned search digraph.tree_folds, split by f(0) as the
            tree oracle is (_shares).
    """
    laplacian = _row_sum_laplacian(matrix)
    left = det_via_minor_expansion(
        [[matrix[i][i], *row[1:]] for i, row in enumerate(laplacian)]
    )
    n = len(matrix)

    def part(k: int, w: int) -> int:
        return sum(tree_folds(matrix, mul, _f0_mask(k, w, n)))

    right = sum(_shares(part, n))
    return IdentityCheck(left, right)


# --- structural property checks -------------------------------------------

class ClaimCheck(namedtuple("ClaimCheck", "claim predicted computed status")):
    """One claim, its predicted and computed values as text, and its status:
    "pass", "fail" or "discrepancy"."""

    __slots__ = ()


class PropertyReport(namedtuple("PropertyReport", "which n checks")):
    """The ClaimChecks of F or P at one n."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_doc(self) -> dict:
        # _asdict does not recurse, and json would print a nested check as a list
        checks = [c._asdict() for c in self.checks]
        return {**self._asdict(), "checks": checks, "ok": self.ok}


def _check(claim: str, predicted: int, computed: int, *, hard: bool) -> ClaimCheck:
    if predicted == computed:
        status = "pass"
    else:
        status = "fail" if hard else "discrepancy"
    return ClaimCheck(claim, str(predicted), str(computed), status)


def f_extremal_sequence(n: int) -> tuple[int, ...]:
    """Label sequence of maximal F-exponent: every vertex takes the largest
    reachable label max(i, n-1-i)."""
    return tuple(sorted(max(i, n - 1 - i) for i in range(n)))


def p_extremal_sequence(n: int) -> tuple[int, ...]:
    """Tree variant of the extremal sequence: one label n-1 edge of the
    extremal two-cycle is replaced by the root loop (label 0)."""
    if n < 2:
        raise ValueError("need n >= 2")
    labels = sorted(max(i, n - 1 - i) for i in range(1, n - 1))
    return tuple(sorted([0] + labels + [n - 1]))


def f_statement_degree(n: int) -> int:
    """Max-degree formula as printed in the F degree claim (known to start
    its sum one index late; reported, never asserted).  With h = n // 2 the
    even and odd cases differ only by the middle term (n+1)^h for odd n."""
    h = n // 2
    return n % 2 * (n + 1) ** h + 2 * sum((n + 1) ** (h + i) for i in range(1, h))


def _p_printed_degree(n: int, top: int) -> int:
    # Both printed P formulas: the odd-n middle term n^h, the given top
    # term, and the doubled tail, with h = n // 2.
    h = n // 2
    return n % 2 * n**h + top + 2 * sum(n ** (h + i) for i in range(1, h - 1))


def p_statement_degree(n: int) -> int:
    """Max-degree formula as printed in the P degree claim."""
    return _p_printed_degree(n, n ** (n - 1))


def p_proof_display_degree(n: int) -> int:
    """The other printed P max-degree candidate, with n-1 where the statement
    has n^(n-1); reported alongside it."""
    return _p_printed_degree(n, n - 1)


def check_F_properties(n: int) -> PropertyReport:
    """Degree and size claims for F against the brute-force polynomial."""
    poly = compute_F_bruteforce(n)
    checks = [
        _check("min_degree", n, poly.min_degree(), hard=True),
        _check("min_degree_coefficient", 1, poly.coefficient(n), hard=True),
        _check(
            "max_degree_extremal_sequence",
            encode_sequence(f_extremal_sequence(n), n + 1),
            poly.max_degree(),
            hard=True,
        ),
        _check(
            "max_degree_statement_formula",
            f_statement_degree(n),
            poly.max_degree(),
            hard=False,
        ),
    ]
    bound = math.comb(2 * n - 1, n)
    checks.append(
        ClaimCheck(
            "term_count_bound",
            f"<= {bound}",
            str(poly.term_count()),
            "pass" if poly.term_count() <= bound else "fail",
        )
    )
    return PropertyReport("F", n, tuple(checks))


def check_P_properties(n: int) -> PropertyReport:
    """Degree claims for P against the brute-force polynomial."""
    poly = compute_P_bruteforce(n)
    checks = [
        _check("min_degree", n * (n - 1) + 1, poly.min_degree(), hard=True),
        _check(
            "max_degree_extremal_sequence",
            encode_sequence(p_extremal_sequence(n), n),
            poly.max_degree(),
            hard=True,
        ),
        _check(
            "max_degree_statement_formula",
            p_statement_degree(n),
            poly.max_degree(),
            hard=False,
        ),
        _check(
            "max_degree_proof_display_formula",
            p_proof_display_degree(n),
            poly.max_degree(),
            hard=False,
        ),
    ]
    return PropertyReport("P", n, tuple(checks))
