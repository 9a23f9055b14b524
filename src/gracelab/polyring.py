"""Exact sparse univariate polynomials with big-integer exponents.

Exponents grow like (n+1)^(n-1) in the label-sequence generating functions,
so both exponents and coefficients are plain Python ints (arbitrary
precision).  Values are immutable; arithmetic returns fresh polynomials and
cancellation never leaves a stored zero coefficient.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["SparsePoly"]


class SparsePoly:
    """Finite map from non-negative exponent to nonzero integer coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int]):
        if any(exponent < 0 for exponent in terms):
            raise ValueError(f"negative exponent: {min(terms)}")
        self._terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def _wrap(cls, terms: dict[int, int]) -> "SparsePoly":
        # Results of arithmetic: the dict is fresh and holds no zero
        # coefficient, so __init__'s validation and copy are skipped.
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    def items(self) -> list[tuple[int, int]]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        terms = self._terms
        return [(e, terms[e]) for e in sorted(terms)]

    def columns(self) -> tuple[list[int], list[int]]:
        """The exponents in ascending order and their coefficients in the
        same order: items() as two lists, with no pair built per term."""
        terms = self._terms
        exponents = sorted(terms)
        return exponents, list(map(terms.__getitem__, exponents))

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def term_count(self) -> int:
        return len(self._terms)

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def min_degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return min(self._terms)

    def max_degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._plus(other, 1)

    def _plus(self, other: "SparsePoly", sign: int) -> "SparsePoly":
        # self + sign * other in one pass over other's terms.
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + sign * c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SparsePoly._wrap(out)

    def __neg__(self) -> "SparsePoly":
        return self * -1

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._plus(other, -1)

    def __mul__(self, other: "SparsePoly | int") -> "SparsePoly":
        if isinstance(other, int):
            # an integer multiple; a factor of 0 leaves no stored zero
            terms = self._terms.items() if other else ()
            return SparsePoly._wrap({e: other * c for e, c in terms})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly.sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(
        cls,
        terms: Iterable[tuple[int, "SparsePoly", "SparsePoly"]],
        within: tuple[int, int] | None = None,
    ) -> "SparsePoly":
        """Sum of sign * a * b over (sign, a, b) triples, built in one fresh
        dict: no polynomial per product and no copy per partial sum.  Zero
        coefficients are dropped once, at the end.  This is the only product
        loop: a * b is the single triple (1, a, b).

        within = (offset, guard) truncates: a product term x^e is summed
        only if (e + offset) & guard == 0, and any other is skipped before
        it is stored.  genfun.label_ring builds the pair for exponents that
        hold one bit field per variable, so that the test drops exactly the
        terms with a variable above its bound."""
        out: dict[int, int] = {}
        get = out.get
        if within is None:
            for sign, a, b in terms:
                b_terms = b._terms.items()
                for e1, c1 in a._terms.items():
                    c1 *= sign
                    for e2, c2 in b_terms:
                        e = e1 + e2
                        out[e] = get(e, 0) + c1 * c2
        else:
            offset, guard = within
            for sign, a, b in terms:
                b_terms = b._terms.items()
                for e1, c1 in a._terms.items():
                    c1 *= sign
                    top = e1 + offset
                    for e2, c2 in b_terms:
                        if not (top + e2) & guard:
                            e = e1 + e2
                            out[e] = get(e, 0) + c1 * c2
        return cls._wrap({e: c for e, c in out.items() if c})

    def to_pairs(self) -> list[list[str]]:
        """[exponent, coefficient] decimal-string pairs, ascending exponent:
        the JSON form the CLI writes for a polynomial's terms."""
        return [[str(e), str(c)] for e, c in self.items()]

    def __repr__(self) -> str:
        return f"SparsePoly({dict(self.items())!r})"
