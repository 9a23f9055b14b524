"""Whitty's determinantal identity for gracefully labeled functional trees.

Two banded matrices Lambda and Upsilon are filled from a symmetric weight
matrix A; the product A[0,0] * det((Upsilon - Lambda)[1:,1:]) expands into
one signed term per gracefully labeled value table fixing 0, and the
non-tree terms cancel, leaving a signed sum over gracefully labeled
functional trees rooted at 0.

Each surviving tree term carries the sign of the signed permutation
f - id: the signature of the label permutation |f - id| times
(-1)^(number of descents f(i) < i).  The calibration record documents the
conventions under which the two sides agree; its global sign epsilon is
fixed at +1, and the check asserts equality under it with nothing fitted.
The weaker per-tree sign reading (label-permutation signature alone) is
computed too, and whether it matches is reported, because it does not
reproduce the determinant beyond n = 2.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import product
from typing import Sequence, TypeVar

from gracelab.digraph import (
    FunctionalDigraph,
    _cycle_sign,
    graceful_tables,
    is_functional_tree,
    is_gracefully_labeled,
)
from gracelab.genfun import _in_entry_ring, det_via_minor_expansion
from gracelab.polyring import SparsePoly

__all__ = [
    "CALIBRATION",
    "Calibration",
    "WhittyCheck",
    "WhittyMatrices",
    "build_whitty",
    "sign_factor",
    "symbolic_matrix",
    "tree_sign",
    "whitty_check",
    "whitty_lhs",
]

T = TypeVar("T")


class WhittyMatrices(namedtuple("WhittyMatrices", "lam upsilon")):
    """The banded matrices; entries whose A-index leaves [0, n) are zero."""

    __slots__ = ()


def build_whitty(matrix: Sequence[Sequence[T]]) -> WhittyMatrices:
    """Fill Lambda[i,j] = A[min(i+j-n, i), max(i+j-n, i)] (nonzero only for
    i+j >= n) and Upsilon[i,j] = A[min(i, n+i-j), max(i, n+i-j)] (nonzero
    only for j > i)."""
    n = len(matrix)
    if n < 2 or any(len(row) != n for row in matrix):
        raise ValueError("need a square matrix with n >= 2")
    zero = 0 * matrix[0][0]
    lam = []
    ups = []
    for i in range(n):
        lam_row = []
        ups_row = []
        for j in range(n):
            a = i + j - n
            lam_row.append(matrix[min(a, i)][max(a, i)] if 0 <= a < n else zero)
            b = n + i - j
            ups_row.append(matrix[min(i, b)][max(i, b)] if 0 <= b < n else zero)
        lam.append(tuple(lam_row))
        ups.append(tuple(ups_row))
    return WhittyMatrices(tuple(lam), tuple(ups))


def whitty_lhs(matrix: Sequence[Sequence[T]]) -> T:
    """A[0,0] times the determinant of the trailing (n-1) x (n-1) minor of
    Upsilon - Lambda (row and column 0 dropped)."""
    n = len(matrix)
    w = build_whitty(matrix)
    minor = [
        [w.upsilon[i][j] - w.lam[i][j] for j in range(1, n)] for i in range(1, n)
    ]
    return matrix[0][0] * det_via_minor_expansion(minor)


def sign_factor(g: FunctionalDigraph) -> int:
    """Signature of the label permutation i -> |f(i) - i|."""
    if not is_gracefully_labeled(g):
        raise ValueError(f"not gracefully labeled: {g.format()}")
    return _cycle_sign([abs(v - i) for i, v in enumerate(g.values)])


def _descent_parity(values: tuple[int, ...]) -> int:
    # (-1)^(number of descents f(i) < i)
    return -1 if sum(1 for i, v in enumerate(values) if v < i) % 2 else 1


def tree_sign(g: FunctionalDigraph) -> int:
    """Sign with which a gracefully labeled tree term occurs in the
    determinant: sign_factor(g) * (-1)^(#descents)."""
    return sign_factor(g) * _descent_parity(g.values)


def _signed_tree_sums(matrix: Sequence[Sequence[T]]) -> tuple[T, T]:
    # Whitty's tree side, both readings in one walk: the sum over the
    # gracefully labeled functional trees f rooted at 0 of
    # prod A[min(i, f(i)), max(i, f(i))], signed once by sign_factor(f)
    # (the label-signature reading) and once by tree_sign(f) (the reading
    # the determinant side reproduces).  These trees are the tables with
    # f(0) = 0 and label multiset Z_n whose iterate collapses to a point.
    # Cell (i, j) is read once, from A[min(i, j), max(i, j)], as its
    # (exponent, coefficient) terms (an int c is c * x^0).  A tree's entry
    # product is expanded one term per entry; each expanded term is one
    # exponent sum and one coefficient product, added with its sign into
    # one exponent dict per reading.
    n = len(matrix)
    cells = [
        [(SparsePoly.one() * matrix[min(i, j)][max(i, j)]).items() for j in range(n)]
        for i in range(n)
    ]
    label, descent = Counter(), Counter()
    tables = map(FunctionalDigraph, graceful_tables(n, fix0=True))
    for g in filter(is_functional_tree, tables):
        s, parity = sign_factor(g), _descent_parity(g.values)
        for t in product(*[row[v] for row, v in zip(cells, g.values)]):
            exponents, coefficients = zip(*t)
            e, c = sum(exponents), math.prod(coefficients)
            label[e] += s * c
            descent[e] += s * parity * c
    return tuple(_in_entry_ring(matrix, SparsePoly(d)) for d in (label, descent))


def symbolic_matrix(n: int) -> tuple[tuple[SparsePoly, ...], ...]:
    """Symmetric matrix of distinct indeterminate entries.

    Upper-triangle cell k carries the monomial x^((n+1)^k); any product of
    up to n entries then has collision-free exponents (base-(n+1) digits
    count cell multiplicities).
    """
    cells: dict[tuple[int, int], SparsePoly] = {}
    k = 0
    for i in range(n):
        for j in range(i, n):
            cells[(i, j)] = SparsePoly.monomial((n + 1) ** k)
            k += 1
    return tuple(
        tuple(cells[(min(i, j), max(i, j))] for j in range(n)) for i in range(n)
    )


def _column_reversal_parity(n: int) -> int:
    # The printed minor indexes columns by n - label; re-reading them in
    # ascending label order reverses n-1 columns.
    return -1 if ((n - 1) // 2) % 2 else 1


class Calibration(
    namedtuple(
        "Calibration", "epsilon minor_convention column_order rhs_sign_convention"
    )
):
    __slots__ = ()


# The conventions under which the two sides agree; the global sign is
# fixed at +1, never fitted.
CALIBRATION = Calibration(
    epsilon=1,
    minor_convention="drop row and column 0 of the 0-indexed build",
    column_order=(
        "minor columns reread in ascending edge-label order "
        "(printed column j carries label n-j), i.e. the printed "
        "determinant times (-1)^floor((n-1)/2)"
    ),
    rhs_sign_convention=(
        "sign_factor(f) * (-1)^#descents per tree; the plain "
        "sign_factor reading is reported separately"
    ),
)


class WhittyCheck(
    namedtuple(
        "WhittyCheck",
        "lhs rhs equal_up_to_calibrated_sign calibration column_reversal_parity "
        "label_signature_reading_agrees",
    )
):
    __slots__ = ()


def whitty_check(matrix: Sequence[Sequence[T]]) -> WhittyCheck:
    """Compare both sides of the identity under the fixed conventions.

    lhs is the printed determinant side; rhs the descent-signed tree sum.
    Equality is asserted as lhs * (-1)^floor((n-1)/2) == rhs, the printed
    determinant read in label column order with epsilon = +1.  The
    label-signature-only reading of the tree sum is evaluated, and only
    whether it matches lhs up to sign is kept.
    """
    lhs = whitty_lhs(matrix)
    label_reading, rhs = _signed_tree_sums(matrix)
    parity = _column_reversal_parity(len(matrix))
    return WhittyCheck(
        lhs=lhs,
        rhs=rhs,
        equal_up_to_calibrated_sign=lhs * parity == rhs,
        calibration=CALIBRATION,
        column_reversal_parity=parity,
        label_signature_reading_agrees=lhs in (label_reading, -label_reading),
    )
