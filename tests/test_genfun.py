import itertools
import math
import os
from operator import add

import pytest

from gracelab import genfun
from gracelab.digraph import (
    FunctionalDigraph,
    all_value_tables,
    functional_trees,
    is_gracefully_labeled,
    tree_folds,
)
from gracelab.genfun import (
    build_F_matrix,
    build_P_matrix,
    check_F_properties,
    check_P_properties,
    compute_F,
    compute_F_bruteforce,
    compute_P,
    compute_P_bruteforce,
    decode_exponent,
    det_poly,
    det_via_minor_expansion,
    encode_sequence,
    f_extremal_sequence,
    graceful_coefficient_F,
    monomial_matrix,
    p_extremal_sequence,
    tdmtt_check,
)
from gracelab.polyring import SparsePoly
from gracelab.seeds import Lcg, integer_matrix


def leibniz_det(matrix, zero, one):
    """n!-permutation-sum determinant; the oracle for det_via_minor_expansion."""
    n = len(matrix)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = one
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


def _nonzero(gen):
    return (1 + gen.below(9)) * (1 - 2 * gen.below(2))


def sparse_matrices(pattern, seed):
    """An int matrix and a monomial matrix, zero exactly where pattern is 0."""
    gen = Lcg(seed)
    ints = [[_nonzero(gen) if keep else 0 for keep in row] for row in pattern]
    zero = SparsePoly.zero()
    polys = [
        [SparsePoly.monomial(gen.below(40), _nonzero(gen)) if keep else zero for keep in row]
        for row in pattern
    ]
    return ints, polys


def p_laplacian(n):
    """L = diag(X * 1) - X for the P matrix X, built here from its definition."""
    x = build_P_matrix(n)
    zero = SparsePoly.zero()
    laplacian = []
    for i in range(n):
        row_sum = zero
        for entry in x[i]:
            row_sum = row_sum + entry
        laplacian.append(
            [row_sum - x[i][j] if i == j else zero - x[i][j] for j in range(n)]
        )
    return laplacian


def p_laplacian_cofactor(n, root):
    """det of the P Laplacian with row and column `root` dropped."""
    minor = [
        [entry for j, entry in enumerate(row) if j != root]
        for i, row in enumerate(p_laplacian(n))
        if i != root
    ]
    return det_poly(minor)


def reversal_blocks(n):
    """S = A + B and T = A - B for the P Laplacian in the block form
    [[A, B], [B, A]] that the reversal i -> n-1-i gives it, h = n // 2."""
    laplacian = p_laplacian(n)
    h = n // 2
    sym = [[laplacian[i][j] + laplacian[i][n - 1 - j] for j in range(h)] for i in range(h)]
    anti = [[laplacian[i][j] - laplacian[i][n - 1 - j] for j in range(h)] for i in range(h)]
    return sym, anti


def all_roots_P(n):
    """The directed matrix-tree sum over every root: sum_i X[i,i] * det L^(i)."""
    x = build_P_matrix(n)
    total = SparsePoly.zero()
    for i in range(n):
        total = total + x[i][i] * p_laplacian_cofactor(n, i)
    return total


def is_tree_table(values):
    from gracelab.digraph import is_functional_tree

    return is_functional_tree(FunctionalDigraph(values))


def label_monomials(tables, base):
    """The plain per-table loop: one monomial x^(sum base^|f(i)-i|) per table."""
    counts = {}
    for values in tables:
        e = sum(base ** abs(v - i) for i, v in enumerate(values))
        counts[e] = counts.get(e, 0) + 1
    return SparsePoly(counts)


@pytest.mark.parametrize(
    "build, n, floor",
    [
        (lambda n: monomial_matrix(n, 2), 0, 1),
        (compute_P, 1, 2),
        (p_extremal_sequence, 1, 2),
    ],
    ids=["monomial_matrix", "compute_P", "p_extremal_sequence"],
)
def test_n_below_the_floor_is_rejected(build, n, floor):
    with pytest.raises(ValueError, match=f"need n >= {floor}"):
        build(n)


class TestSeededMatrices:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Lcg(-1)

    def test_empty_entry_range_rejected(self):
        with pytest.raises(ValueError, match="empty entry range"):
            integer_matrix(2, 0, 5, 4)


class TestMatrixBuild:
    def test_n2_entries(self):
        m = build_F_matrix(2)
        assert m[0][0] == SparsePoly.monomial(1)
        assert m[0][1] == SparsePoly.monomial(3)

    def test_n3_corner(self):
        assert build_F_matrix(3)[0][2] == SparsePoly.monomial(16)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_symmetric(self, n):
        m = build_F_matrix(n)
        for i in range(n):
            for j in range(n):
                assert m[i][j] == m[j][i]


class TestComputeF:
    def test_n1(self):
        assert compute_F(1) == SparsePoly.monomial(1)

    def test_n2_expansion(self):
        assert compute_F(2) == SparsePoly([(2, 1), (4, 2), (6, 1)])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_bruteforce(self, n):
        assert compute_F(n) == compute_F_bruteforce(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_total_count(self, n):
        assert compute_F(n).eval_at_one() == n**n

    # The scan splits the rows at n // 2: n = 1 has an empty head, n = 2 a
    # one-row tail, n = 7 an odd split.
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bruteforce_is_the_per_table_sum(self, n):
        assert compute_F_bruteforce(n) == label_monomials(all_value_tables(n), n + 1)

    def test_diagonal_determinant_form(self):
        # det(diag(X*1)) of the row-sum diagonal equals the row-sum product
        for n in range(1, 5):
            matrix = build_F_matrix(n)
            zero = SparsePoly.zero()
            diag = []
            for i in range(n):
                row_sum = zero
                for entry in matrix[i]:
                    row_sum = row_sum + entry
                diag.append(
                    [row_sum if i == j else zero for j in range(n)]
                )
            assert det_poly(diag) == compute_F(n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exponent_digit_sums(self, n):
        for e, _ in compute_F(n).items():
            digits = []
            rest = e
            while rest:
                rest, d = divmod(rest, n + 1)
                digits.append(d)
            assert sum(digits) == n

    def test_identity_function_is_unique_minimum(self):
        for n in range(2, 6):
            assert compute_F(n).coefficient(n) == 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_term_count_bound(self, n):
        assert compute_F(n).term_count() <= math.comb(2 * n - 1, n)


class TestEncodeDecode:
    def test_six_vertex_sequence(self):
        assert encode_sequence((0, 1, 1, 2, 2, 3), 7) == 456

    def test_graceful_three(self):
        assert encode_sequence((0, 1, 2), 4) == 21

    def test_graceful_closed_form(self):
        for n in range(1, 8):
            assert encode_sequence(range(n), n + 1) == ((n + 1) ** n - 1) // n

    def test_decode_inverts_encode(self):
        for n in range(1, 7):
            for labels in itertools.combinations_with_replacement(range(n), n):
                e = encode_sequence(labels, n + 1)
                assert decode_exponent(e, n + 1, n) == labels

    def test_decode_rejects_bad_digit_sum(self):
        # digits of 5 in base 4 are (1, 1), summing to 2, not n=3
        with pytest.raises(ValueError, match="not a label-sequence exponent"):
            decode_exponent(5, 4, 3)

    def test_decode_rejects_overflow_exponent(self):
        with pytest.raises(ValueError, match="not a label-sequence exponent"):
            decode_exponent(4**5, 4, 3)

    def test_decode_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            decode_exponent(-1, 4, 3)

    def test_encode_rejects_out_of_range_label(self):
        with pytest.raises(ValueError, match="outside"):
            encode_sequence((0, 3, 1), 4)


class TestGracefulCoefficient:
    def test_small_values(self):
        assert graceful_coefficient_F(2) == 2
        assert graceful_coefficient_F(3) == 6

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_direct_count(self, n):
        direct = sum(
            1
            for values in all_value_tables(n)
            if is_gracefully_labeled(FunctionalDigraph(values))
        )
        assert graceful_coefficient_F(n) == direct


class TestDeterminant:
    def test_identity_matrix(self):
        one = SparsePoly.one()
        zero = SparsePoly.zero()
        m = [[one if i == j else zero for j in range(4)] for i in range(4)]
        assert det_poly(m) == one

    def test_two_by_two(self):
        a, b, c, d = (SparsePoly.monomial(e) for e in (1, 2, 5, 9))
        got = det_poly([[a, b], [c, d]])
        assert got == a * d - b * c

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_leibniz_on_random_monomials(self, seed):
        gen = Lcg(seed)
        for size in (4, 5):
            m = [
                [SparsePoly.monomial(gen.below(40), 1 + gen.below(5)) for _ in range(size)]
                for _ in range(size)
            ]
            zero, one = SparsePoly.zero(), SparsePoly.one()
            assert det_poly(m) == leibniz_det(m, zero, one)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_matches_leibniz_on_integers(self, seed):
        m = integer_matrix(5, seed, -9, 9)
        assert det_via_minor_expansion(m) == leibniz_det(m, 0, 1)

    @pytest.mark.parametrize("seed", (3, 4))
    def test_matches_leibniz_on_multi_term_polynomials(self, seed):
        # entries with several signed terms exercise cancellation inside the
        # minor expansion
        gen = Lcg(seed)
        m = [
            [
                SparsePoly(
                    (gen.below(12), gen.below(9) - 4) for _ in range(3)
                )
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        zero, one = SparsePoly.zero(), SparsePoly.one()
        assert det_poly(m) == leibniz_det(m, zero, one)

    # The expansion builds every k-column minor on the last k rows, also
    # those a zero entry keeps the sum from reaching; these patterns put
    # zeros in every position, and in whole rows, columns and triangles.
    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_sparse_patterns_match_leibniz(self, n, seed):
        gen = Lcg(100 + seed)
        pattern = [[gen.below(2) for _ in range(n)] for _ in range(n)]
        ints, polys = sparse_matrices(pattern, seed)
        det = det_via_minor_expansion(ints)
        assert type(det) is int
        assert det == leibniz_det(ints, 0, 1)
        zero, one = SparsePoly.zero(), SparsePoly.one()
        assert det_poly(polys) == leibniz_det(polys, zero, one)

    @pytest.mark.parametrize("shape", ("zero_row", "zero_column", "upper", "lower"))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_structured_sparsity_matches_leibniz(self, n, shape):
        keep = {
            "zero_row": lambda i, j: i != n // 2,
            "zero_column": lambda i, j: j != n // 2,
            "upper": lambda i, j: i <= j,
            "lower": lambda i, j: i >= j,
        }[shape]
        pattern = [[keep(i, j) for j in range(n)] for i in range(n)]
        ints, polys = sparse_matrices(pattern, n)
        zero, one = SparsePoly.zero(), SparsePoly.one()
        det = det_via_minor_expansion(ints)
        det_p = det_poly(polys)
        assert det == leibniz_det(ints, 0, 1)
        assert det_p == leibniz_det(polys, zero, one)
        if shape.startswith("zero"):
            assert det == 0 and not det_p
        else:
            assert det == math.prod(ints[i][i] for i in range(n))
            assert det_p == math.prod((polys[i][i] for i in range(n)), start=one)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_integer_matrix_gives_an_int(self, seed):
        det = det_via_minor_expansion(integer_matrix(4, seed, -9, 9))
        assert type(det) is int

    def test_constant_polynomial_matrix_gives_a_polynomial(self):
        two, three = SparsePoly.monomial(0, 2), SparsePoly.monomial(0, 3)
        assert det_poly([[two, three], [three, two]]) == SparsePoly.monomial(0, -5)
        # the result is an int only when every entry is one
        for matrix in ([[two, three], [three, two]], [[2, 3], [3, two]]):
            det = det_via_minor_expansion(matrix)
            assert type(det) is SparsePoly and det == SparsePoly.monomial(0, -5)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            det_via_minor_expansion([[1, 2]])

    def test_empty_matrix_is_all_int(self):
        det = det_via_minor_expansion([])
        assert type(det) is int and det == 1

    def test_total_cancellation_stores_nothing(self):
        a = SparsePoly([(1, 1), (0, 1)])
        b = SparsePoly([(3, 2), (1, -1)])
        det = det_poly([[a, b], [a, b]])
        assert not det and det.term_count() == 0

    def test_partial_cancellation_stores_no_zero_coefficient(self):
        # (x^2 + x) * 1 - x * x = x: the x^2 terms cancel
        x = SparsePoly.monomial(1)
        m = [[SparsePoly([(2, 1), (1, 1)]), x], [x, SparsePoly.one()]]
        det = det_poly(m)
        assert det.items() == [(1, 1)]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_laplacian_determinant_stores_no_zero_coefficient(self, n):
        # zero row sums: the full P Laplacian is singular, every term cancels
        assert det_poly(p_laplacian(n)).term_count() == 0
        cofactor = p_laplacian_cofactor(n, 0)
        assert all(c != 0 for _, c in cofactor.items())


class TestComputeP:
    def test_n2(self):
        assert compute_P(2) == SparsePoly.monomial(3, 2)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_principal_cofactors_of_the_laplacian_are_equal(self, n):
        cofactors = [p_laplacian_cofactor(n, root) for root in range(n)]
        assert all(c == cofactors[0] for c in cofactors)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_all_roots_sum(self, n):
        assert compute_P(n) == all_roots_P(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_one_plain_cofactor(self, n):
        x = SparsePoly.monomial(1)
        assert compute_P(n) == n * x * p_laplacian_cofactor(n, n - 1)

    @pytest.mark.parametrize("n", range(2, 11, 2))
    def test_even_symmetric_block_is_a_laplacian(self, n):
        # what det(S + 2J) = 2 h^2 det S^(k) rests on, for every k
        sym, _ = reversal_blocks(n)
        h = n // 2
        assert all(sym[i][j] == sym[j][i] for i in range(h) for j in range(h))
        assert not any(sum(row, SparsePoly.zero()) for row in sym)
        cofactors = [
            det_poly([[e for j, e in enumerate(row) if j != k] for i, row in enumerate(sym) if i != k])
            for k in range(h)
        ]
        assert all(c == cofactors[0] for c in cofactors)

    @pytest.mark.parametrize("n", range(3, 10, 2))
    def test_odd_middle_cofactor_factors(self, n):
        sym, anti = reversal_blocks(n)
        assert p_laplacian_cofactor(n, n // 2) == det_poly(sym) * det_poly(anti)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_bruteforce(self, n):
        assert compute_P(n) == compute_P_bruteforce(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_tree_count(self, n):
        assert compute_P(n).eval_at_one() == n ** (n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bruteforce_is_the_per_tree_sum(self, n):
        trees = (t for t in all_value_tables(n) if is_tree_table(t))
        assert compute_P_bruteforce(n) == label_monomials(trees, n)

    def test_min_degree_n3(self):
        assert compute_P(3).min_degree() == 7

    @pytest.mark.parametrize("n", range(2, 7))
    def test_min_degree_attained_by_path(self, n):
        # the path f(i) = max(0, i-1) has one loop and n-1 label-1 edges
        path = tuple(max(0, i - 1) for i in range(n))
        exponent = sum(n ** abs(v - i) for i, v in enumerate(path))
        assert exponent == n * (n - 1) + 1 == compute_P(n).min_degree()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exponent_digit_sums_with_unit_root(self, n):
        # trees carry exactly one loop, so the base-n units digit is 1
        for e, _ in compute_P(n).items():
            digits = []
            rest = e
            while rest:
                rest, d = divmod(rest, n)
                digits.append(d)
            assert sum(digits) == n
            assert digits[0] == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_graceful_tree_coefficient(self, n):
        direct = sum(
            1
            for values in all_value_tables(n)
            if is_gracefully_labeled(FunctionalDigraph(values))
            and is_tree_table(values)
        )
        e = encode_sequence(range(n), n)
        assert compute_P_bruteforce(n).coefficient(e) == direct


class TestTdmtt:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_all_ones_gives_cayley_count(self, n):
        check = tdmtt_check([[1] * n] * n)
        assert check.left == check.right == n ** (n - 1)

    def test_two_by_two_primes(self):
        check = tdmtt_check([[2, 3], [5, 7]])
        assert check.left == check.right == 2 * 5 + 3 * 7

    @pytest.mark.parametrize("n", range(3, 8))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_random_matrices(self, n, seed):
        assert tdmtt_check(integer_matrix(n, seed, 1, 50)).equal

    @pytest.mark.parametrize(
        "matrix",
        [integer_matrix(n, seed, 1, 50) for n in range(1, 7) for seed in range(4)]
        + [[[0, 3, 0, 1], [2, 0, 5, 0], [0, 0, 4, 7], [6, 1, 0, 0]]],
    )
    def test_left_side_is_the_all_roots_sum(self, matrix):
        # sum_i A[i,i] * det of the i-th principal minor of diag(A * 1) - A
        n = len(matrix)
        laplacian = [
            [sum(row) - row[j] if i == j else -row[j] for j in range(n)]
            for i, row in enumerate(matrix)
        ]
        left = 0
        for root in range(n):
            minor = [
                [entry for j, entry in enumerate(row) if j != root]
                for i, row in enumerate(laplacian)
                if i != root
            ]
            left += matrix[root][root] * leibniz_det(minor, 0, 1)
        assert tdmtt_check(matrix).left == left

    @pytest.mark.parametrize("n", range(2, 6))
    def test_right_side_is_the_per_tree_product_sum(self, n):
        matrix = integer_matrix(n, 4, 1, 50)
        right = 0
        for values in all_value_tables(n):
            if is_tree_table(values):
                term = 1
                for i, v in enumerate(values):
                    term *= matrix[i][v]
                right += term
        assert tdmtt_check(matrix).right == right


class TestPropertyReports:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_f_report_asserted_claims_pass(self, n):
        report = check_F_properties(n)
        assert report.ok
        by_claim = {c.claim: c for c in report.checks}
        assert by_claim["min_degree"].status == "pass"
        assert by_claim["min_degree_coefficient"].status == "pass"
        assert by_claim["max_degree_extremal_sequence"].status == "pass"
        assert by_claim["term_count_bound"].status == "pass"

    def test_f_statement_formula_known_discrepancy_at_n2(self):
        # the printed degree formula gives an empty sum at n=2; the extremal
        # sequence {1, 1} gives the true degree 6
        report = check_F_properties(2)
        by_claim = {c.claim: c for c in report.checks}
        row = by_claim["max_degree_statement_formula"]
        assert row.status == "discrepancy"
        assert row.predicted == "0"
        assert row.computed == "6"

    @pytest.mark.parametrize("n", range(2, 6))
    def test_p_report_asserted_claims_pass(self, n):
        report = check_P_properties(n)
        assert report.ok
        by_claim = {c.claim: c for c in report.checks}
        assert by_claim["min_degree"].status == "pass"
        assert by_claim["max_degree_extremal_sequence"].status == "pass"

    def test_p_statement_formulas_known_discrepancies_at_n3(self):
        # statement formula misses the root-loop digit (12 vs 13); the
        # variant printed with n-1 in place of n^(n-1) is further off (5)
        report = check_P_properties(3)
        by_claim = {c.claim: c for c in report.checks}
        statement = by_claim["max_degree_statement_formula"]
        assert (statement.predicted, statement.computed, statement.status) == (
            "12",
            "13",
            "discrepancy",
        )
        display = by_claim["max_degree_proof_display_formula"]
        assert (display.predicted, display.status) == ("5", "discrepancy")

    def test_extremal_sequences_are_label_multisets(self):
        assert f_extremal_sequence(2) == (1, 1)
        assert f_extremal_sequence(3) == (1, 2, 2)
        assert p_extremal_sequence(2) == (0, 1)
        assert p_extremal_sequence(4) == (0, 2, 2, 3)

    def test_report_doc_shape(self):
        doc = check_F_properties(3).to_doc()
        assert doc["which"] == "F"
        assert doc["ok"] is True
        assert {"claim", "predicted", "computed", "status"} == set(
            doc["checks"][0]
        )


class TestSplitScans:
    """The brute-force scans split by f(0) across forked workers
    (genfun._shares); the split must never change a result."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def patch(count):
            monkeypatch.setattr(genfun, "_usable_cpus", lambda: count)

        return patch

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("split", (2, 3))
    def test_one_cpu_gives_what_the_split_gives(self, cpus, split):
        # the split is forced with a patched CPU count, so that it runs on
        # a one-CPU host as well
        matrix = integer_matrix(7, 1, 1, 50)
        scans = (
            lambda: compute_F_bruteforce(7),
            lambda: compute_P_bruteforce(7),
            lambda: tdmtt_check(matrix),
        )
        cpus(split)
        shared = [scan() for scan in scans]
        cpus(1)
        assert [scan() for scan in scans] == shared
        assert shared[0] == compute_F(7) and shared[1] == compute_P(7)
        assert shared[2].equal
        self.assert_no_child_left()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tree_shares_partition_the_trees_in_order(self, n):
        trees = list(functional_trees(n))
        rows = [[(v,) for v in range(n)]] * n
        for w in range(1, n + 1):
            for k in range(w):
                share = tree_folds(rows, add, genfun._f0_mask(k, w, n))
                assert list(share) == [t for t in trees if t[0] % w == k]

    @pytest.mark.parametrize("n", (1, 6))
    def test_small_scans_run_in_process(self, monkeypatch, cpus, n):
        cpus(2)

        def fork():
            raise AssertionError("forked below the split size")

        monkeypatch.setattr(os, "fork", fork)
        assert genfun._shares(lambda k, w: (k, w), n) == [(0, 1)]

    def test_shares_come_back_in_order(self, cpus):
        cpus(3)
        assert genfun._shares(lambda k, w: {k: w}, 7) == [{0: 3}, {1: 3}, {2: 3}]
        self.assert_no_child_left()

    def test_a_share_larger_than_a_pipe_buffer_comes_back_whole(self, cpus):
        cpus(2)
        big = {e: e * e for e in range(100_000)}  # about 1 MiB of marshal bytes
        assert genfun._shares(lambda k, w: big if k else 0, 7) == [0, big]
        self.assert_no_child_left()

    def test_a_raising_worker_raises_here(self, cpus):
        cpus(2)

        def part(k, w):
            if k:
                raise ValueError("share failed")
            return 0

        with pytest.raises(RuntimeError, match="share 1 of 2: worker exited with status 1"):
            genfun._shares(part, 7)
        self.assert_no_child_left()

    @pytest.mark.parametrize("data", (b"", b"\xff", genfun.marshal.dumps(10**30)[:-1]))
    def test_unreadable_bytes_raise_here(self, cpus, monkeypatch, data):
        # the worker writes data and exits 0
        cpus(2)

        def run_share(part, k, w, write):
            os.write(write, data)
            os._exit(0)

        monkeypatch.setattr(genfun, "_run_share", run_share)
        with pytest.raises(RuntimeError, match="share 1 of 2: worker sent no readable"):
            genfun._shares(lambda k, w: 0, 7)
        self.assert_no_child_left()

    def test_share_zero_raising_still_reaps_every_worker(self, cpus):
        cpus(3)

        def part(k, w):
            if not k:
                raise ValueError("share 0 failed")
            return k

        with pytest.raises(ValueError, match="share 0 failed"):
            genfun._shares(part, 7)
        self.assert_no_child_left()
