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

One coefficient is read in a truncated ring (label_ring): each label d's
power x^(base^d) becomes its own variable y_d, every y_d whose label is not
in the sequence is sent to 0, and every other y_d is kept up to its count.
That map is a ring homomorphism, so the same constructions (row_sum_product
for F, matrix_tree_sum for P) run on the mapped matrix and keep the
sequence's coefficient, while no polynomial they build holds more than
prod(k_d + 1) terms, k_d the count of label d.  The asserted counts F(1) and
P(1) come from the same constructions on the matrix of ones (value_at_one).

The three brute-force scans (compute_F_bruteforce, compute_P_bruteforce and
the tree side of tdmtt_check) each run in the calling process.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import reduce
from operator import add, mul
from typing import Callable, Sequence, TypeVar

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
    "label_ring",
    "matrix_tree_sum",
    "monomial_matrix",
    "row_sum_product",
    "sequence_coefficient",
    "tdmtt_check",
    "value_at_one",
]

T = TypeVar("T")

PolyMatrix = tuple[tuple[SparsePoly, ...], ...]


def _toeplitz(images: Sequence[SparsePoly]) -> PolyMatrix:
    """Symmetric n x n matrix with entry (i, j) = images[|i-j|], n = len(images)."""
    n = len(images)
    return tuple(tuple(images[abs(i - j)] for j in range(n)) for i in range(n))


def monomial_matrix(n: int, base: int) -> PolyMatrix:
    """Symmetric n x n matrix with entry (i, j) = x^(base^|i-j|)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _toeplitz([SparsePoly({base**d: 1}) for d in range(n)])


def build_F_matrix(n: int) -> PolyMatrix:
    """The matrix generating F: entries x^((n+1)^|i-j|)."""
    return monomial_matrix(n, n + 1)


def build_P_matrix(n: int) -> PolyMatrix:
    """The matrix generating P: entries x^(n^|i-j|)."""
    return monomial_matrix(n, n)


def row_sum_product(
    matrix: Sequence[Sequence[SparsePoly]], within: tuple[int, int] | None = None
) -> SparsePoly:
    """F's construction: the product over rows of the row sums of a
    symmetric Toeplitz matrix, each product truncated by `within` (see
    SparsePoly.sum_of_products).

    Rows i and n-1-i have the same sum, so the rows go in mirror pairs,
    outermost first, each pair's sum taken once and multiplied in twice,
    and the middle row of odd n comes last.  The row sum, with at most n
    terms, is the outer factor of each product and the partial product the
    inner one, so each inner loop runs long.
    """
    n = len(matrix)
    result = SparsePoly({0: 1})
    for i in range((n + 1) // 2):
        row_sum = reduce(add, matrix[i])
        for _ in range(1 if 2 * i + 1 == n else 2):
            result = SparsePoly.sum_of_products([(1, row_sum, result)], within)
    return result


def compute_F(n: int) -> SparsePoly:
    """Product over rows of the row sums of build_F_matrix(n).

    Equals the determinant of diag(X * 1) and therefore the sum of one
    monomial per function on Z_n, grouped by label sequence.
    """
    return row_sum_product(build_F_matrix(n))


def _label_powers(n: int, base: int) -> list[list[int]]:
    """rows[i][v] = base^|v - i|: the exponent term of the edge (i, v)."""
    return [[base ** abs(v - i) for v in range(n)] for i in range(n)]


def compute_F_bruteforce(n: int) -> SparsePoly:
    """Oracle: scan all n^n functions and sum their label-sequence monomials.

    Choosing one term per row of _label_powers is choosing f, so the
    product over rows visits every function once, and the sum of its
    choice is that function's exponent.  With h = n // 2, heads lists the
    sums of the choices of f(0), ..., f(h-1).  Row n-1-i read backwards is
    row i (the mirror (i, v) -> (n-1-i, n-1-v) keeps |v - i|), so the sums
    over the last h rows are heads again, in another order, and for odd n
    the middle row h is a palindrome.  Hence

        F = sum over m, i, j of x^(heads[i] + rows[h][m] + heads[j]),

    and each addition stands for a class of up to four functions fixed by
    the indices alone: a pair i < j counts twice and i == j once; a middle
    value m < h counts twice (m and n-1-m) and the centre m == h once.
    Even n has no middle row: one class, the term 0.  A Counter counts the
    exponents as they come, one per addition, with no merge by exponent
    before the count; the weights then scale the counts.
    """
    rows = _label_powers(n, n + 1)
    h = n // 2
    heads = list(map(sum, itertools.product(*rows[:h])))
    if n % 2:
        middles = [(rows[h][m], 2 if m < h else 1) for m in range(h + 1)]
    else:
        middles = [(0, 1)]
    total = Counter()
    for term, weight in middles:
        shifted = [s + term for s in heads]
        above = Counter(
            itertools.chain.from_iterable(
                map(add, itertools.repeat(s), shifted[i + 1 :])
                for i, s in enumerate(heads)
            )
        )
        for e, c in above.items():
            total[e] += 2 * weight * c
        for e, c in Counter(map(add, heads, shifted)).items():
            total[e] += weight * c
    return SparsePoly(total)


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


def label_ring(labels: Sequence[int]) -> tuple[list[SparsePoly], int, tuple[int, int]]:
    """The truncated ring that reads the coefficient of one label sequence.

    Write y_d for x^(base^d), the term of label d in F (base n+1) and P
    (base n) alike.  No term the constructions build counts a label base
    times (F's terms hold at most n labels, P's at most n - 1 of one kind),
    so no digit carries and the y_d act as independent variables.  The map
    that sends y_d to 0 for every label d not in the sequence, and y_d^c to
    0 for c above d's count k_d, is a ring homomorphism, and the sequence's
    own monomial, prod y_d^k_d, survives it.  So a construction run on the
    mapped matrix yields the coefficient of that monomial unchanged.

    In the image, y_d^c is the exponent c << s_d: label d owns a field of
    b + 1 bits at bit s_d, with b = k_d.bit_length().  A product of two
    kept terms has c <= 2 k_d < 2^(b+1) there, so no field carries into the
    next, and c + 2^b - 1 - k_d sets the field's top bit exactly when
    c > k_d.  Summed over the fields, those offsets and top bits are the
    (offset, guard) truncation that SparsePoly.sum_of_products applies.

    Returns the image of y_d for d = 0..n-1 (n = len(labels)), the
    sequence's exponent in the ring, and (offset, guard).
    """
    n = len(labels)
    counts = Counter(labels)
    for label in counts:
        if not 0 <= label < n:
            raise ValueError(f"label {label} outside [0, {n})")
    images: list[SparsePoly] = []
    target = offset = guard = shift = 0
    for d in range(n):
        k = counts[d]
        if not k:
            images.append(SparsePoly({}))
            continue
        b = k.bit_length()
        images.append(SparsePoly({1 << shift: 1}))
        target += k << shift
        offset += ((1 << b) - 1 - k) << shift
        guard += 1 << (shift + b)
        shift += b + 1
    return images, target, (offset, guard)


def sequence_coefficient(construct: Callable[..., SparsePoly], labels: Sequence[int]) -> int:
    """The coefficient of one label sequence in construct's polynomial
    (row_sum_product for F, matrix_tree_sum for P), read in label_ring."""
    images, target, within = label_ring(labels)
    return construct(_toeplitz(images), within).coefficient(target)


def value_at_one(construct: Callable[..., SparsePoly], n: int) -> SparsePoly:
    """construct's polynomial at x = 1: the same construction on the n x n
    matrix of ones, in the integers (as constant polynomials)."""
    return construct(_toeplitz([SparsePoly({0: 1})] * n))


def graceful_coefficient_F(n: int) -> int:
    """Number of gracefully labeled functional digraphs on Z_n, read off F."""
    return sequence_coefficient(row_sum_product, range(n))


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


def det_via_minor_expansion(
    matrix: Sequence[Sequence[T]], within: tuple[int, int] | None = None
) -> T:
    """Exact determinant by Laplace expansion, row by row over column sets.

    Rows are consumed bottom-up: level k holds, for every k-column tuple,
    the minor on the last k rows and those columns, so the work is 2^n
    subproblems instead of the n! of the plain permutation sum.  Level k is
    built from level k - 1 alone by expanding along row n - k, the i-th
    column with sign (-1)^i, and then level k - 1 is dropped: at most two
    levels are alive at once.  Each minor is one SparsePoly.sum_of_products:
    its signed entry * subminor products go straight into one fresh dict,
    truncated by `within`.  A level keeps only its nonzero minors, and a
    column set with no nonzero subminor builds nothing: in a truncated ring
    (label_ring) whole diagonals of the matrix can be zero.

    The same expansion serves SparsePoly and int matrices: every nonzero
    entry is read as the polynomial 1 * entry, and the determinant is
    returned by _in_entry_ring, so an int matrix gives an int.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    unit = SparsePoly({0: 1})
    minors: dict[tuple[int, ...], SparsePoly] = {(): unit}
    for k in range(1, n + 1):
        row = [unit * entry if entry else None for entry in matrix[n - k]]
        level = {}
        for cols in itertools.combinations(range(n), k):
            minor = SparsePoly.sum_of_products(
                (
                    (-1 if i % 2 else 1, row[c], sub)
                    for i, c in enumerate(cols)
                    if row[c] is not None
                    and (sub := minors.get(cols[:i] + cols[i + 1 :])) is not None
                ),
                within,
            )
            if minor:
                level[cols] = minor
        minors = level
    return _in_entry_ring(matrix, minors.get(tuple(range(n)), SparsePoly({})))


def det_poly(
    matrix: Sequence[Sequence[SparsePoly]], within: tuple[int, int] | None = None
) -> SparsePoly:
    """Exact determinant of a matrix of sparse polynomials (the empty
    matrix counts as all-int: its determinant is the int 1)."""
    return det_via_minor_expansion(matrix, within)


def _row_sum_laplacian(matrix: Sequence[Sequence[T]]) -> list[list[T]]:
    # diag(M * 1) - M over any ring: diagonal gets the full row sum.
    out: list[list[T]] = []
    for i, row in enumerate(matrix):
        row_sum = reduce(add, row)
        out.append(
            [row_sum - entry if i == j else -entry for j, entry in enumerate(row)]
        )
    return out


def matrix_tree_sum(
    matrix: Sequence[Sequence[SparsePoly]], within: tuple[int, int] | None = None
) -> SparsePoly:
    """P's construction: the functional-tree sum of a symmetric Toeplitz
    matrix X from two half-size determinants, each product truncated by
    `within` (see SparsePoly.sum_of_products).

    The directed matrix tree theorem gives P as the sum over roots i of
    X[i,i] * det L^(i), where L = diag(X * 1) - X and L^(i) drops row and
    column i.  X is symmetric, so L has zero column sums as well as zero row
    sums, and then all n principal cofactors det L^(i) equal one tau
    (Kirchhoff).  Every X[i,i] is X[0,0] (x, in P), so P = n * x * tau.  In
    terms of trees: an edge label |i - f(i)| does not depend on the edge's
    direction, so re-rooting a tree keeps its label sequence.

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
    n = len(matrix)
    if n < 2:
        raise ValueError("need n >= 2")
    h = n // 2
    laplacian = _row_sum_laplacian(matrix[:h])  # the rows S and T read
    sym = [[row[j] + row[n - 1 - j] for j in range(h)] for row in laplacian]
    anti = [[row[j] - row[n - 1 - j] for j in range(h)] for row in laplacian]
    if n % 2:
        scale, det_sym = n, det_poly(sym, within)
    else:
        scale, det_sym = h, det_poly([row[:-1] for row in sym[:-1]], within)
    # L holds no X[i,i] (its diagonal is the row sum less X[i,i]), so det_sym
    # holds no power of X[0,0]: X[0,0] * det_sym needs no truncation
    return SparsePoly.sum_of_products(
        [(scale, matrix[0][0] * det_sym, det_poly(anti, within))], within
    )


def compute_P(n: int) -> SparsePoly:
    """Functional-tree generating function: matrix_tree_sum of
    build_P_matrix(n), from two half-size determinants."""
    return matrix_tree_sum(build_P_matrix(n))


def compute_P_bruteforce(n: int) -> SparsePoly:
    """Oracle: enumerate the functional trees directly, sum their monomials.

    The trees come from the pruned search digraph.tree_folds, which uses
    only the cycle/loop definition of a tree and adds up each tree's edge
    terms as it goes.
    """
    return SparsePoly(Counter(tree_folds(_label_powers(n, n), add)))


def tdmtt_check(matrix: Sequence[Sequence[int]]) -> IdentityCheck:
    """Directed matrix tree theorem on an integer matrix.

    left  = sum over roots i of A[i,i] * det L^(i), L = diag(A * 1) - A,
            as one determinant by exact minor expansion: L has zero row
            sums, so L * adj(L) = 0 and each row of cofactors of L is
            constant, C[i][i] = C[i][0].  Expanding along column 0 then
            gives the sum as det of L with column 0 replaced by the
            diagonal A[0][0], ..., A[n-1][n-1];
    right = sum over functional trees f of prod_i A[i, f(i)], enumerated
            by the pruned search digraph.tree_folds.
    """
    laplacian = _row_sum_laplacian(matrix)
    left = det_via_minor_expansion(
        [[matrix[i][i], *row[1:]] for i, row in enumerate(laplacian)]
    )
    return IdentityCheck(left, sum(tree_folds(matrix, mul)))


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
