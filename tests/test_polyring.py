from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracelab.polyring import SparsePoly


def poly_of(*pairs):
    """The polynomial summing c * x^e over the (e, c) pairs."""
    terms = Counter()
    for exponent, coefficient in pairs:
        terms[exponent] += coefficient
    return SparsePoly(terms)


small_polys = st.builds(
    lambda pairs: poly_of(*pairs),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**40), st.integers(-50, 50)),
        max_size=6,
    ),
)


class TestConstruction:
    def test_a_mapping_is_the_only_spelling(self):
        # zero is SparsePoly({}), x^e is SparsePoly({e: 1}), k * p is p * k
        for name in ("zero", "one", "monomial", "scale"):
            assert not hasattr(SparsePoly, name)
        with pytest.raises(TypeError):
            SparsePoly([(1, 2)])
        with pytest.raises(TypeError):
            SparsePoly()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            SparsePoly({-1: 1})
        with pytest.raises(ValueError, match="negative exponent: -1"):
            SparsePoly({2: 1, -1: 0})

    def test_zero_coefficients_dropped(self):
        assert poly_of((3, 0), (1, 2)).items() == [(1, 2)]


class TestArithmetic:
    def test_cancellation(self):
        p = poly_of((3, 1), (1, 1))
        q = poly_of((1, -1))
        assert (p + q).items() == [(3, 1)]

    def test_product_difference_of_squares(self):
        p = poly_of((1, 1), (0, 1))
        q = poly_of((1, 1), (0, -1))
        assert (p * q).items() == [(0, -1), (2, 1)]

    def test_monomial_exponent_law(self):
        a, b = 7, 12
        assert SparsePoly({a: 1}) * SparsePoly({b: 1}) == SparsePoly({a + b: 1})

    def test_subtraction_gives_zero(self):
        p = poly_of((4, 9), (1, -3))
        assert not p - p

    def test_int_scaling_on_either_side(self):
        p = poly_of((2, 3), (0, -1))
        assert (p * -2).items() == [(0, 2), (2, -6)]
        assert (-2 * p) == p * -2
        assert -p == p * -1 and (-p).items() == [(0, 1), (2, -3)]
        assert not p * 0 and not 0 * p

    def test_int_scaling_leaves_the_operand_unchanged(self):
        p = poly_of((2, 3))
        p * 5
        5 * p
        assert p.items() == [(2, 3)]

    def test_subtraction_leaves_both_operands_unchanged(self):
        p, q = poly_of((1, 2), (3, 1)), poly_of((1, 2), (4, 5))
        assert (p - q).items() == [(3, 1), (4, -5)]
        assert p.items() == [(1, 2), (3, 1)] and q.items() == [(1, 2), (4, 5)]

    def test_sum_of_products_matches_the_operators(self):
        a, b = poly_of((1, 1), (0, 2)), poly_of((2, -1), (0, 1))
        c, d = poly_of((3, 1)), poly_of((0, 4), (1, -3))
        got = SparsePoly.sum_of_products([(1, a, b), (-1, c, d), (1, b, b)])
        assert got == a * b - c * d + b * b

    def test_sum_of_products_drops_cancelled_terms(self):
        a, b = poly_of((1, 1), (0, 2)), poly_of((2, -1), (0, 1))
        got = SparsePoly.sum_of_products([(1, a, b), (-1, b, a)])
        assert not got and got.items() == []
        assert not SparsePoly.sum_of_products([])

    @settings(max_examples=60, derandomize=True)
    @given(small_polys, small_polys, small_polys, st.integers(0, 2**12), st.integers(1, 2**12))
    def test_within_keeps_exactly_the_passing_terms(self, p, q, r, offset, guard):
        # the truncation is the plain sum with the failing exponents dropped
        within = (offset, guard)
        plain = SparsePoly.sum_of_products([(1, p, q), (-1, q, r)])
        kept = {e: c for e, c in plain.items() if not (e + offset) & guard}
        assert SparsePoly.sum_of_products([(1, p, q), (-1, q, r)], within) == SparsePoly(kept)

    def test_within_truncates_one_bit_field(self):
        # y = x^1 in a two-bit field kept up to y^1: offset 0, guard bit 1,
        # so (1 + y)^2 = 1 + 2y + y^2 loses y^2
        one_plus_y = poly_of((0, 1), (1, 1))
        got = SparsePoly.sum_of_products([(1, one_plus_y, one_plus_y)], (0, 2))
        assert got == poly_of((0, 1), (1, 2))


class TestQueries:
    def test_eval_at_one(self):
        assert poly_of((3, 1), (1, 2)).eval_at_one() == 3

    def test_coefficient_lookup(self):
        p = poly_of((3, 1), (1, 2))
        assert p.coefficient(1) == 2
        assert p.coefficient(7) == 0

    def test_big_exponents(self):
        p = poly_of((10**30, 1), (4, 1))
        assert p.min_degree() == 4
        assert p.max_degree() == 10**30

    def test_degree_of_zero_raises(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            SparsePoly({}).min_degree()
        with pytest.raises(ValueError, match="zero polynomial"):
            SparsePoly({}).max_degree()

    def test_term_count(self):
        assert poly_of((1, 1), (5, 2), (9, -1)).term_count() == 3

    def test_columns_are_the_items_as_two_lists(self):
        p = poly_of((6, 1), (2, -3), (10**30, 2))
        assert p.columns() == ([2, 6, 10**30], [-3, 1, 2])
        assert list(zip(*p.columns())) == p.items()
        assert SparsePoly({}).columns() == ([], [])


class TestRingAxioms:
    @given(small_polys, small_polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(small_polys, small_polys, small_polys)
    def test_addition_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(small_polys, small_polys)
    @settings(max_examples=50)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=30)
    def test_multiplication_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=50)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(small_polys)
    def test_identities(self, p):
        assert p + SparsePoly({}) == p
        assert p * SparsePoly({0: 1}) == p
        assert not p + (-p)

    @given(small_polys, small_polys)
    @settings(max_examples=50)
    def test_eval_at_one_is_multiplicative(self, p, q):
        assert (p * q).eval_at_one() == p.eval_at_one() * q.eval_at_one()


class TestSerialization:
    def test_pairs_are_decimal_strings_ascending(self):
        p = poly_of((6, 1), (2, 1), (4, 2))
        assert p.to_pairs() == [["2", "1"], ["4", "2"], ["6", "1"]]

    @pytest.mark.parametrize(
        "poly, text",
        [
            (SparsePoly({}), "SparsePoly({})"),
            (SparsePoly({0: -3}), "SparsePoly({0: -3})"),
            (SparsePoly({4: 1}), "SparsePoly({4: 1})"),
            (poly_of((0, 5), (1, 1), (3, -2)), "SparsePoly({0: 5, 1: 1, 3: -2})"),
        ],
        ids=["zero", "constant", "monomial", "mixed"],
    )
    def test_repr(self, poly, text):
        assert repr(poly) == text

    @given(small_polys)
    def test_repr_is_the_constructor_call(self, p):
        assert eval(repr(p), {"SparsePoly": SparsePoly}) == p


class TestNonPolynomialOperands:
    """Only a SparsePoly adds to or subtracts from a SparsePoly, and only
    a SparsePoly or an int multiplies one; nothing else compares equal."""

    @pytest.mark.parametrize(
        "combine",
        [lambda p: p + 1, lambda p: p - 1, lambda p: p * "x"],
        ids=["p + 1", "p - 1", "p * 'x'"],
    )
    def test_operator_raises_type_error(self, combine):
        with pytest.raises(TypeError):
            combine(SparsePoly({0: 1}))

    def test_equality_with_an_int_is_false(self):
        assert (SparsePoly({}) == 0) is False
