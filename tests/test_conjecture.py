import math

import pytest

from gracelab.conjecture import (
    TreeClass,
    check_conjecture_42,
    class_sequences,
    star_sequences,
    tree_classes,
)
from gracelab.digraph import FunctionalDigraph, edge_labels


class TestStarSequences:
    def test_n4(self):
        assert star_sequences(4) == [(0, 1, 1, 2), (0, 1, 2, 3)]

    def test_n2(self):
        assert star_sequences(2) == [(0, 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_is_half_n_rounded_up(self, n):
        assert len(star_sequences(n)) == (n + 1) // 2

    def test_members_are_constant_function_labelings(self):
        n = 5
        expected = {edge_labels(FunctionalDigraph((c,) * n)) for c in range(n)}
        assert set(star_sequences(n)) == expected


class TestTreeClasses:
    # conjugation orbits of functional trees = rooted unlabeled trees
    ROOTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_class_counts(self, n):
        assert len(tree_classes(n)) == self.ROOTED_TREE_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sizes_sum_to_cayley_count(self, n):
        assert sum(c.size for c in tree_classes(n)) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sizes_divide_group_order(self, n):
        for c in tree_classes(n):
            assert math.factorial(n) % c.size == 0

    def test_representatives_are_canonical(self):
        from gracelab.conjecture import _orbit

        for c in tree_classes(4):
            orbit = _orbit(c.representative.values)
            assert c.representative.values == min(orbit)
            assert len(orbit) == c.size

    def test_rejects_non_tree_representative(self):
        with pytest.raises(ValueError):
            TreeClass(FunctionalDigraph((1, 0)), 1)


class TestClassSequences:
    def test_star_class_matches_star_sequences(self):
        n = 4
        star_class = next(
            c
            for c in tree_classes(n)
            if (0,) * n in {t for t in _orbit_values(c)}
        )
        assert class_sequences(star_class) == set(star_sequences(n))

    def test_path3_contains_both_star_sequences(self):
        path_class = next(
            c for c in tree_classes(3) if c.representative.values == (0, 0, 1)
        )
        assert set(star_sequences(3)) <= class_sequences(path_class)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_kept_sequences_are_the_orbit_sequences(self, n):
        from gracelab.conjecture import _orbit

        for c in tree_classes(n):
            from_orbit = {
                tuple(sorted(abs(v - i) for i, v in enumerate(table)))
                for table in _orbit(c.representative.values)
            }
            assert class_sequences(c) == from_orbit

    def test_class_built_without_sequences_reads_its_orbit(self):
        path = TreeClass(FunctionalDigraph((0, 0, 1)), 6)
        assert path.sequences is None
        assert class_sequences(path) == {(0, 1, 1), (0, 1, 2)}

    def test_contains_graceful_sequence_iff_graceful(self):
        from gracelab.digraph import is_graceful

        for c in tree_classes(4):
            has_graceful = (0, 1, 2, 3) in class_sequences(c)
            assert has_graceful == is_graceful(c.representative)


def _orbit_values(tree_class):
    from gracelab.conjecture import _orbit

    return _orbit(tree_class.representative.values)


class TestConjectureSweep:
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_holds_at_small_n(self, n):
        report = check_conjecture_42(n)
        assert report.holds
        assert report.missing == ()

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_class_bookkeeping(self, n):
        report = check_conjecture_42(n)
        assert report.class_size_total == n ** (n - 1)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_empty_report_implies_all_classes_graceful(self, n):
        report = check_conjecture_42(n)
        if report.holds:
            graceful_sequence = tuple(range(n))
            for c in report.classes:
                assert graceful_sequence in class_sequences(c)
