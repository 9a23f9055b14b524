import itertools
import math

import pytest

from gracelab.digraph import (
    FunctionalDigraph,
    all_value_tables,
    graceful_tables,
    is_functional_tree,
    is_gracefully_labeled,
)
from gracelab.polyring import SparsePoly
from gracelab.seeds import integer_matrix
from gracelab.whitty import (
    CALIBRATION,
    WhittyCheck,
    _cycle_sign,
    _signed_tree_sums,
    build_whitty,
    sign_factor,
    symbolic_matrix,
    tree_sign,
    whitty_check,
    whitty_lhs,
)


def rooted_graceful_trees(n):
    out = []
    for values in all_value_tables(n):
        if values[0] != 0:
            continue
        g = FunctionalDigraph(values)
        if is_gracefully_labeled(g) and is_functional_tree(g):
            out.append(g)
    return out


def integer_entries(n, start=2):
    # distinct integers in the upper triangle; the lower triangle is unread
    value = start
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = value
            value += 1
    return matrix


def general_entries(n):
    # two-term polynomials in the upper triangle, with a zero polynomial, a
    # zero int and a nonzero int between them; exponents repeat across
    # cells, so different trees can share (and cancel) a term.  Every tree
    # reads cells (0, 0) and (0, n - 1), which are never zero.
    matrix = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            kind = k % 7 if (i, j) not in ((0, 0), (0, n - 1)) else 0
            if kind == 3:
                matrix[i][j] = SparsePoly({})
            elif kind == 5:
                matrix[i][j] = 0
            elif kind == 6:
                matrix[i][j] = -2
            else:
                matrix[i][j] = SparsePoly({k % 4: 1 + k % 3, 2 + k % 5: -1})
            k += 1
    return matrix


class TestBuild:
    def test_n2_lambda_entry(self):
        a = integer_entries(2)
        w = build_whitty(a)
        assert w.lam[1][1] == a[0][1]
        assert w.upsilon[1][1] == 0  # computed A-index 2 is out of range

    def test_n3_upsilon_entries(self):
        a = integer_entries(3)
        w = build_whitty(a)
        assert w.upsilon[0][1] == a[0][2]
        assert w.upsilon[0][2] == a[0][1]
        assert w.upsilon[1][2] == a[1][2]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_band_structure(self, n):
        # Lambda is supported on i+j >= n, Upsilon strictly above the diagonal
        a = integer_entries(n)
        w = build_whitty(a)
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    assert w.lam[i][j] == 0
                else:
                    assert w.lam[i][j] != 0
                if j <= i:
                    assert w.upsilon[i][j] == 0
                else:
                    assert w.upsilon[i][j] != 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            build_whitty([[1, 2, 3], [4, 5, 6]])


class TestSignFactor:
    def test_sign_of_identity_and_swap(self):
        assert _cycle_sign((0, 1, 2, 3)) == 1
        assert _cycle_sign((1, 0, 2, 3)) == -1

    def test_cycle_sign_is_the_inversion_parity(self):
        # the cycle walk agrees with inversion-count parity on all of S_1..S_5
        for n in range(1, 6):
            for s in itertools.permutations(range(n)):
                inversions = sum(1 for j in range(n) for i in range(j) if s[i] > s[j])
                assert _cycle_sign(s) == (-1) ** inversions

    def test_star2(self):
        assert sign_factor(FunctionalDigraph((0, 0))) == 1

    def test_path3(self):
        # |f - id| = (0, 1, 2), the identity permutation
        assert sign_factor(FunctionalDigraph((0, 2, 0))) == 1

    def test_always_a_sign(self):
        for n in range(1, 6):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                if is_gracefully_labeled(g):
                    assert sign_factor(g) in (-1, 1)
                    assert tree_sign(g) in (-1, 1)

    def test_rejects_non_graceful(self):
        with pytest.raises(ValueError, match="not gracefully labeled"):
            sign_factor(FunctionalDigraph((0, 1)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_inversion_count_sign(self, n):
        # every gracefully labeled table, against (-1)^#inversions of its
        # label permutation and (-1)^#descents f(i) < i counted here
        tables = list(graceful_tables(n))
        assert tables
        for values in tables:
            labels = [abs(v - i) for i, v in enumerate(values)]
            inversions = sum(
                1 for j in range(n) for i in range(j) if labels[i] > labels[j]
            )
            descents = sum(1 for i, v in enumerate(values) if v < i)
            g = FunctionalDigraph(values)
            assert sign_factor(g) == (-1) ** inversions
            assert tree_sign(g) == (-1) ** (inversions + descents)


class TestRhs:
    def test_n1_is_corner_entry(self):
        assert _signed_tree_sums([[7]])[0] == 7

    def test_n2_single_tree(self):
        a = integer_entries(2)
        # unique gracefully labeled tree rooted at 0 is f = (0, 0), sign +1
        assert _signed_tree_sums(a)[0] == a[0][0] * a[0][1]

    def test_n3_all_ones_counts_trees_with_sign(self):
        # both rooted graceful trees have identity label permutation
        assert _signed_tree_sums([[1] * 3] * 3)[0] == 2

    def test_term_count_matches_tree_count(self):
        for n in range(2, 6):
            rhs = _signed_tree_sums(symbolic_matrix(n))[1]
            assert rhs.term_count() == len(rooted_graceful_trees(n))

    def test_int_entries_give_ints(self):
        a = integer_matrix(5, 1, 1, 100)
        label, descent = _signed_tree_sums(a)
        assert type(label) is int
        assert type(descent) is int
        assert type(whitty_lhs(a)) is int
        assert type(_signed_tree_sums(symbolic_matrix(5))[0]) is SparsePoly

    def test_each_reading_copies_no_running_total(self, monkeypatch):
        # each reading is one sum_of_products: no partial sum is ever copied
        calls = []
        plus = SparsePoly._plus

        def counted(self, other, sign):
            calls.append(sign)
            return plus(self, other, sign)

        monkeypatch.setattr(SparsePoly, "_plus", counted)
        _signed_tree_sums(symbolic_matrix(7))
        assert calls == []

    def test_one_sign_factor_per_tree(self, monkeypatch):
        # one cycle walk per tree, on that tree's label permutation; the
        # gracefulness check of sign_factor is not repeated
        from gracelab import whitty

        calls = []

        def counted(values):
            calls.append(tuple(values))
            return _cycle_sign(values)

        def refused(g):
            raise AssertionError("sign_factor called by the tree walk")

        monkeypatch.setattr(whitty, "_cycle_sign", counted)
        monkeypatch.setattr(whitty, "sign_factor", refused)
        _signed_tree_sums(symbolic_matrix(6))
        trees = rooted_graceful_trees(6)
        labels = [tuple(abs(v - i) for i, v in enumerate(g.values)) for g in trees]
        assert sorted(calls) == sorted(labels)

    def test_no_polynomial_product_per_tree(self, monkeypatch):
        # each cell is lifted to its terms once; a tree's entry product is
        # int arithmetic, so the polynomial products are at most n^2
        # (164 trees at n=7)
        n = 7
        calls = []
        sum_of_products = SparsePoly.sum_of_products.__func__

        def counted(cls, terms):
            calls.append(1)
            return sum_of_products(cls, terms)

        monkeypatch.setattr(SparsePoly, "sum_of_products", classmethod(counted))
        _signed_tree_sums(symbolic_matrix(n))
        assert len(calls) <= n * n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_general_entries_match_the_per_tree_sums(self, n):
        matrix = general_entries(n)
        label = descent = SparsePoly({})
        for values in graceful_tables(n, fix0=True):
            g = FunctionalDigraph(values)
            if not is_functional_tree(g):
                continue
            term = SparsePoly({0: 1}) * math.prod(
                matrix[min(i, v)][max(i, v)] for i, v in enumerate(values)
            )
            label += term * sign_factor(g)
            descent += term * tree_sign(g)
        assert label and descent
        assert _signed_tree_sums(matrix) == (label, descent)

    @pytest.mark.parametrize("n, trees", [(9, 4020), (10, 23576)])
    def test_symbolic_term_counts(self, n, trees):
        # one signed monomial per gracefully labeled tree rooted at 0
        for reading in _signed_tree_sums(symbolic_matrix(n)):
            assert reading.term_count() == trees
            assert all(c in (-1, 1) for _, c in reading.items())


class TestWhittyCheck:
    def test_calibration_is_fixed_and_positive(self, capsys):
        # the check record carries no copy of the constant the CLI writes
        import json

        from gracelab import cli

        assert CALIBRATION.epsilon == 1
        assert cli.run(["whitty", "--n", "3", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["calibration"] == CALIBRATION._asdict()

    def test_negated_determinant_fails(self, monkeypatch, capsys):
        # epsilon is not fitted, so a globally negated determinant side
        # cannot pass as a sign convention
        from gracelab import cli, whitty

        det = whitty.det_via_minor_expansion
        monkeypatch.setattr(whitty, "det_via_minor_expansion", lambda m: -det(m))
        for n in range(2, 7):
            assert not whitty_check(symbolic_matrix(n)).equal_up_to_calibrated_sign
        capsys.readouterr()
        assert cli.run(["whitty", "--n", "4", "--symbolic"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "epsilon: +1" in lines
        assert "pass: false" in lines

    def test_nothing_is_fitted_or_read_privately(self):
        # no cached fit in whitty, and the CLI takes the column reversal
        # parity from the check record
        import ast
        import inspect

        from gracelab import cli, whitty

        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(whitty))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "functools" not in imported
        assert "_column_reversal_parity" not in inspect.getsource(cli)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_check_carries_the_column_reversal_parity(self, n):
        from gracelab.whitty import _column_reversal_parity

        check = whitty_check(integer_entries(n))
        assert check.column_reversal_parity == _column_reversal_parity(n)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_numeric_matrices(self, n, seed):
        check = whitty_check(integer_matrix(n, seed, 1, 100))
        assert check.equal_up_to_calibrated_sign

    @pytest.mark.parametrize("n", range(2, 9))
    def test_symbolic_exact(self, n):
        check = whitty_check(symbolic_matrix(n))
        assert check.equal_up_to_calibrated_sign

    def test_symbolic_n6_term_multisets(self):
        # 21 distinct indeterminates; the signed term multisets agree exactly
        from gracelab.whitty import _column_reversal_parity

        matrix = symbolic_matrix(6)
        lhs = whitty_lhs(matrix) * _column_reversal_parity(6)
        rhs = _signed_tree_sums(matrix)[1]
        assert lhs == rhs
        assert sorted(c for _, c in lhs.items()) == sorted(
            c for _, c in rhs.items()
        )

    def test_keeps_only_whether_the_label_signature_reading_agrees(self):
        assert WhittyCheck._fields == (
            "lhs",
            "rhs",
            "equal_up_to_calibrated_sign",
            "column_reversal_parity",
            "label_signature_reading_agrees",
        )

    def test_label_signature_reading_only_matches_at_n2(self):
        # the label-signature sign reading cannot reproduce the determinant
        # side beyond n=2: the two n=3 trees carry identity label
        # permutations yet opposite determinant signs
        assert whitty_check(symbolic_matrix(2)).label_signature_reading_agrees
        assert not whitty_check(symbolic_matrix(3)).label_signature_reading_agrees

    def test_n7_cancellation_of_non_trees(self):
        # at n=7 four gracefully labeled non-trees fix 0; the determinant
        # cancels them, leaving exactly one signed monomial per rooted tree
        from gracelab.whitty import _column_reversal_parity

        matrix = symbolic_matrix(7)
        lhs = whitty_lhs(matrix) * _column_reversal_parity(7)
        assert lhs == _signed_tree_sums(matrix)[1]
        assert lhs.term_count() == len(rooted_graceful_trees(7)) == 164

    @pytest.mark.parametrize("n", range(2, 7))
    def test_column_reversal_parity_is_the_reversal_determinant(self, n):
        # rereading the minor columns right-to-left multiplies the printed
        # determinant by exactly (-1)^floor((n-1)/2)
        from gracelab.genfun import det_via_minor_expansion
        from gracelab.whitty import _column_reversal_parity

        a = integer_entries(n)
        w = build_whitty(a)
        minor = [
            [w.upsilon[i][j] - w.lam[i][j] for j in range(1, n)] for i in range(1, n)
        ]
        reversed_minor = [row[::-1] for row in minor]
        det = det_via_minor_expansion(minor)
        det_reversed = det_via_minor_expansion(reversed_minor)
        assert det_reversed == _column_reversal_parity(n) * det


class TestLhsMonomialsAreRootedTrees:
    def test_symbolic_lhs_decodes_to_rooted_graceful_trees(self):
        for n in range(2, 6):
            matrix = symbolic_matrix(n)
            cells = {}
            k = 0
            for i in range(n):
                for j in range(i, n):
                    cells[k] = (i, j)
                    k += 1
            expected = {
                frozenset_edges(g.values) for g in rooted_graceful_trees(n)
            }
            seen = set()
            for exponent, coefficient in whitty_lhs(matrix).items():
                assert coefficient in (-1, 1)
                edges = []
                rest = exponent
                idx = 0
                while rest:
                    rest, d = divmod(rest, n + 1)
                    edges.extend([cells[idx]] * d)
                    idx += 1
                assert len(edges) == n
                # the undirected edge multiset is a gracefully labeled tree
                # hanging on a loop at 0
                labels = sorted(abs(i - j) for i, j in edges)
                assert labels == list(range(n))
                assert (0, 0) in edges
                seen.add(frozenset(edges))
            assert seen == expected


def frozenset_edges(values):
    return frozenset((min(i, v), max(i, v)) for i, v in enumerate(values))
