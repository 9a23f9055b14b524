import itertools
import math

import pytest

from gracelab import conjecture, digraph
from gracelab.conjecture import (
    ConjectureReport,
    TreeClass,
    _orbit,
    check_conjecture_42,
    class_sequences,
    free_tree_count,
    realizes,
    rooted_tree_count,
    star_sequences,
    tree_classes,
    tree_shapes,
)
from gracelab.digraph import FunctionalDigraph, Permutation, edge_labels, relabel

# OEIS A000081 and A000055, n = 1..10
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


@pytest.mark.parametrize(
    "build", [star_sequences, rooted_tree_count, free_tree_count, tree_shapes]
)
def test_n_below_one_is_rejected(build):
    with pytest.raises(ValueError, match="need n >= 1"):
        build(0)


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
        # against every relabeling sigma f sigma^(-1), read by edge_labels
        for c in tree_classes(n):
            from_relabelings = {
                edge_labels(relabel(c.representative, Permutation(sigma)))
                for sigma in itertools.permutations(range(n))
            }
            assert class_sequences(c) == from_relabelings

    def test_class_built_without_sequences_reads_its_orbit(self):
        path = TreeClass(FunctionalDigraph((0, 0, 1)), 6)
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

    def test_report_keeps_no_n(self):
        # the CLI writes the n it was given; the report carries only results
        assert ConjectureReport._fields == ("classes", "missing", "violations")

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_empty_report_implies_all_classes_graceful(self, n):
        report = check_conjecture_42(n)
        if report.holds:
            graceful_sequence = tuple(range(n))
            for c in report.classes:
                assert graceful_sequence in class_sequences(c)


def orbit_missing(n):
    """The orbit sweep: missing (representative, star sequence) pairs."""
    return tuple(
        (c.representative, seq)
        for c in tree_classes(n)
        for seq in star_sequences(n)
        if seq not in class_sequences(c)
    )


class TestTreeShapes:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_representatives_and_sizes_match_the_orbit_walk(self, n):
        shapes = tree_shapes(n)
        orbits = tree_classes(n)
        assert [c.representative for c in shapes] == [c.representative for c in orbits]
        assert [c.size for c in shapes] == [c.size for c in orbits]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_representative_is_the_least_orbit_table(self, n):
        for c in tree_shapes(n):
            orbit = _orbit(c.representative.values)
            assert c.representative.values == min(orbit)
            assert c.size == len(orbit)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_class_counts_are_a000081(self, n):
        assert rooted_tree_count(n) == A000081[n - 1]
        assert len(tree_shapes(n)) == A000081[n - 1]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sizes_sum_to_cayley_count(self, n):
        assert sum(c.size for c in tree_shapes(n)) == n ** (n - 1)

    def test_shapes_carry_no_orbit_sequences(self):
        assert TreeClass._fields == ("representative", "size")
        assert all(len(c) == 2 for c in tree_shapes(5))


class TestRealizes:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_the_orbit_sequences(self, n):
        classes = tree_classes(n)
        every = set().union(*(class_sequences(c) for c in classes))
        for c in classes:
            realized = class_sequences(c)
            for seq in every:
                assert realizes(c.representative, seq) == (seq in realized)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_star_cannot_realize_the_path_sequence(self, n):
        path_sequence = (0,) + (1,) * (n - 1)
        unrealized = [
            c.representative
            for c in tree_shapes(n)
            if not realizes(c.representative, path_sequence)
        ]
        star = FunctionalDigraph((0,) * n)
        path = FunctionalDigraph((0,) + tuple(range(n - 1)))
        assert star in unrealized
        assert path not in unrealized

    def test_any_root_and_label_order(self):
        # the path 0 <- 1 <- 2 rooted at 2, target given unsorted
        assert realizes(FunctionalDigraph((1, 2, 2)), (2, 0, 1))

    def test_a_witness_counts_only_after_the_recheck(self, monkeypatch):
        g = FunctionalDigraph((0, 0, 0))
        assert realizes(g, (0, 1, 2))
        monkeypatch.setattr(
            digraph, "_labelings", lambda values, need: iter([(1, 0, 2)])
        )
        # centre labeled 1: the conjugate 3:1,1,1 has labels 0,1,1
        assert not realizes(g, (0, 1, 2))

    @pytest.mark.parametrize("target", [(1, 1, 2), (0, 0, 2)])
    def test_a_target_without_exactly_one_zero_is_not_realized(self, target):
        # label 0 comes from the root's loop only
        assert realizes(FunctionalDigraph((0, 0, 0)), target) is False

    def test_rejects_a_bad_target_and_a_non_tree(self):
        with pytest.raises(ValueError):
            realizes(FunctionalDigraph((0, 0, 0)), (0, 1))
        with pytest.raises(ValueError):
            realizes(FunctionalDigraph((0, 0, 0)), (0, 1, 3))
        with pytest.raises(ValueError):
            realizes(FunctionalDigraph((1, 0)), (0, 1))


class TestShapeSweep:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_orbit_sweep(self, n):
        report = check_conjecture_42(n)
        assert list(report.classes) == tree_classes(n)
        assert report.missing == orbit_missing(n)
        assert report.violations == ()

    def test_walks_no_orbit(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the shape sweep walked an orbit")

        for name in ("conjugate_tables", "tree_classes", "class_sequences"):
            monkeypatch.setattr(conjecture, name, forbidden)
        assert check_conjecture_42(6).holds

    @pytest.mark.parametrize("n", range(1, 11))
    def test_free_tree_counts_are_a000055(self, n):
        assert free_tree_count(n) == A000055[n - 1]
        ids = {}
        shapes = tree_shapes(n)
        keys = {conjecture._free_tree_key(c.representative.values, ids) for c in shapes}
        assert len(keys) == A000055[n - 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_sharing_a_key_share_their_orbit_sequences(self, n):
        ids = {}
        by_key = {}
        for c in tree_classes(n):
            key = conjecture._free_tree_key(c.representative.values, ids)
            by_key.setdefault(key, []).append(class_sequences(c))
        assert len(by_key) == A000055[n - 1]
        for sequences in by_key.values():
            assert all(s == sequences[0] for s in sequences)

    def test_decides_each_star_sequence_once_per_free_tree(self, monkeypatch):
        calls = []
        real = conjecture.realizes

        def counted(g, target):
            calls.append(g)
            return real(g, target)

        monkeypatch.setattr(conjecture, "realizes", counted)
        assert check_conjecture_42(7).holds
        assert len(calls) == A000055[6] * len(star_sequences(7))

    def test_dropped_class_breaks_both_invariants(self, monkeypatch):
        shapes = tree_shapes(5)
        monkeypatch.setattr(conjecture, "tree_shapes", lambda n: shapes[1:])
        report = check_conjecture_42(5)
        assert report.holds
        assert report.violations == (
            "classes 8 != A000081(5) = 9",
            f"class_size_total {5**4 - shapes[0].size} != n^(n-1) = 625",
        )
