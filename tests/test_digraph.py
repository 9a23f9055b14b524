import itertools
import subprocess
import sys
from operator import add, mul
from pathlib import Path

import pytest

from gracelab.digraph import (
    FunctionalDigraph,
    Permutation,
    all_value_tables,
    complement,
    conjugate_tables,
    edge_labels,
    functional_trees,
    graceful_tables,
    grl_set,
    is_graceful,
    is_gracefully_labeled,
    is_functional_tree,
    relabel,
    tree_folds,
)
from gracelab import digraph
from gracelab.conjecture import realizes, star_sequences, tree_shapes
from gracelab.digraph import _conjugate, _labelings, _labels_are_graceful


def D(*values):
    return FunctionalDigraph(tuple(values))


class TestEdgeLabels:
    def test_six_vertex_tree(self):
        assert edge_labels(D(0, 0, 0, 0, 3, 3)) == (0, 1, 1, 2, 2, 3)

    def test_identity_function(self):
        assert edge_labels(D(0, 1, 2, 3)) == (0, 0, 0, 0)

    def test_constant_zero(self):
        assert edge_labels(D(0, 0, 0)) == (0, 1, 2)

    def test_label_count_and_range(self):
        for n in range(1, 5):
            for values in all_value_tables(n):
                labels = edge_labels(FunctionalDigraph(values))
                assert len(labels) == n
                assert all(0 <= l < n for l in labels)
                assert list(labels) == sorted(labels)


class TestGracefullyLabeled:
    def test_star_is_gracefully_labeled(self):
        assert is_gracefully_labeled(D(0, 0, 0))

    def test_repeated_labels_rejected(self):
        assert not is_gracefully_labeled(D(0, 0, 0, 0, 3, 3))

    def test_path_shape(self):
        # labels |0-0|, |2-1|, |0-2| = 0, 1, 2
        assert is_gracefully_labeled(D(0, 2, 0))

    def test_equivalent_to_full_label_set(self):
        for n in range(1, 5):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                expected = edge_labels(g) == tuple(range(n))
                assert is_gracefully_labeled(g) == expected


class TestFunctionalTree:
    def test_six_vertex_tree(self):
        assert is_functional_tree(D(0, 0, 0, 0, 3, 3))

    def test_two_cycle_is_not_a_tree(self):
        assert not is_functional_tree(D(1, 0))

    def test_path(self):
        assert is_functional_tree(D(0, 0, 1))

    def test_single_loop(self):
        assert is_functional_tree(D(0))

    def test_invariant_under_relabeling(self):
        for values in all_value_tables(4):
            g = FunctionalDigraph(values)
            expected = is_functional_tree(g)
            for s in itertools.permutations(range(4)):
                assert is_functional_tree(relabel(g, Permutation(s))) == expected


class TestOracleGenerators:
    """The pruned generators against the plain n^n filters they replace."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_functional_trees_match_the_filter(self, n):
        expected = [
            v for v in all_value_tables(n) if is_functional_tree(FunctionalDigraph(v))
        ]
        assert list(functional_trees(n)) == expected

    def test_functional_trees_at_four_search_levels(self):
        # strictly increasing, all trees and n^(n-1) of them (Cayley): so
        # exactly the filter's output, without the 7^7-table scan
        n = 7
        trees = list(functional_trees(n))
        assert all(s < t for s, t in zip(trees, trees[1:]))
        assert all(is_functional_tree(FunctionalDigraph(t)) for t in trees)
        assert len(trees) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_graceful_tables_match_the_filter(self, n):
        expected = [v for v in all_value_tables(n) if _labels_are_graceful(v)]
        assert list(graceful_tables(n)) == expected
        assert list(graceful_tables(n, fix0=True)) == [v for v in expected if v[0] == 0]

    @pytest.mark.parametrize(
        "n, count", enumerate((1, 2, 6, 20, 84, 392, 2136, 12752, 85584), start=1)
    )
    def test_graceful_table_count(self, n, count):
        assert sum(1 for _ in graceful_tables(n)) == count

    @pytest.mark.parametrize(
        "n, tables, trees",
        zip(
            range(1, 11),
            (1, 1, 2, 4, 12, 40, 168, 784, 4272, 25504),
            # G(n), the number of monomials of the Whitty determinant
            (1, 1, 2, 4, 12, 40, 164, 752, 4020, 23576),
        ),
    )
    def test_fix0_table_and_tree_counts(self, n, tables, trees):
        fixing_zero = list(graceful_tables(n, fix0=True))
        assert len(fixing_zero) == tables
        assert sum(is_functional_tree(FunctionalDigraph(v)) for v in fixing_zero) == trees

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cayley_count(self, n):
        assert sum(1 for _ in functional_trees(n)) == n ** (n - 1)
        assert sum(tree_folds([[1] * n] * n, mul)) == n ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fix0_tables_fix_zero(self, n):
        tables = list(graceful_tables(n, fix0=True))
        assert tables
        assert all(t[0] == 0 for t in tables)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tree_folds_keep_the_edge_order(self, n):
        # concatenation does not commute, so each fold must take the edges
        # of its tree in vertex order, trees in lexicographic order
        tags = [[f"{i}>{v};" for v in range(n)] for i in range(n)]
        expected = [
            "".join(tags[i][v] for i, v in enumerate(values))
            for values in functional_trees(n)
        ]
        assert list(tree_folds(tags, add)) == expected

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            next(tree_folds([], add))
        with pytest.raises(ValueError):
            next(functional_trees(0))
        with pytest.raises(ValueError):
            next(graceful_tables(0))


class TestRelabel:
    def test_identity_is_noop(self):
        g = D(0, 0, 0, 0, 3, 3)
        assert relabel(g, Permutation.identity(6)) == g

    def test_reversal_of_star(self):
        assert relabel(D(0, 0, 0), Permutation((2, 1, 0))) == D(2, 2, 2)

    def test_inverse_law(self):
        for values in all_value_tables(4):
            g = FunctionalDigraph(values)
            for s in itertools.permutations(range(4)):
                perm = Permutation(s)
                assert relabel(relabel(g, perm), perm.inverse()) == g

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            relabel(D(0, 0), Permutation((0, 1, 2)))


class TestIsGraceful:
    def test_constant_one_is_graceful(self):
        assert is_graceful(D(1, 1, 1))

    def test_two_cycle_is_not(self):
        # both labels are 1 under either relabeling
        assert not is_graceful(D(1, 0))

    def test_single_loop(self):
        assert is_graceful(D(0))

    def test_agrees_with_grl_nonempty(self):
        for n in range(1, 5):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                assert is_graceful(g) == bool(grl_set(g))


def spider(legs, length):
    """A loop at 0 and legs paths of length vertices, each hanging from 0."""
    values = [0]
    for _ in range(legs):
        values.append(0)
        values.extend(range(len(values) - 1, len(values) + length - 2))
    return tuple(values)


def rerooted(values, root):
    """The same free tree with its loop moved to root: the edges on the path
    from root to the old loop turn around."""
    out = list(values)
    prev, v = root, root
    while True:
        out[v], nxt = prev, values[v]
        if nxt == v:
            return tuple(out)
        prev, v = v, nxt


class TestFirstHit:
    """is_graceful stops at the search's first hit, so on trees with many
    twins (sibling subtrees of one shape) the twin order decides whether
    that hit comes at once or after an exponential walk.  Twins below a
    parent in the lower half of the labels and twins below one in the upper
    half need opposite orders: a star or spider rooted at its centre has
    the first kind, rooted at a leaf the second.  Each run is a fresh
    process with a deadline, so a regression fails instead of hanging the
    suite."""

    @pytest.mark.parametrize(
        "values",
        [(0,) * 24, rerooted((0,) * 28, 1), spider(6, 3), rerooted(spider(8, 3), 3)],
        ids=["star-24", "star-28-at-a-leaf", "spider-6x3", "spider-8x3-at-a-leg-end"],
    )
    def test_first_hit_is_fast(self, values):
        src = Path(digraph.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from gracelab.digraph import FunctionalDigraph, is_graceful; "
            f"print(is_graceful(FunctionalDigraph({values!r})))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")

    def test_the_shapes(self):
        spider_6x3 = D(*spider(6, 3))
        assert spider_6x3.n == 19 and is_functional_tree(spider_6x3)
        # the centre has six children, each the top of a path of 3
        assert spider_6x3.values.count(0) == 7
        assert all(spider_6x3.values.count(v) <= 1 for v in range(1, 19))
        assert rerooted((0,) * 5, 1) == (1, 1, 0, 0, 0)
        assert rerooted(spider(2, 2), 2) == (1, 2, 2, 0, 3)
        assert rerooted(spider(8, 3), 3)[:4] == (1, 2, 3, 3)


# The conjugate-search benchmark's random 10-vertex trees, seeds 1-10.
BENCH_TREES = [
    (8, 4, 2, 0, 5, 2, 8, 9, 2, 6),
    (7, 7, 4, 1, 7, 7, 0, 7, 9, 1),
    (3, 5, 3, 5, 0, 5, 8, 2, 5, 8),
    (5, 9, 9, 7, 9, 2, 7, 7, 7, 3),
    (3, 0, 8, 3, 0, 3, 0, 8, 5, 3),
    (7, 6, 6, 5, 7, 4, 5, 7, 6, 4),
    (8, 2, 8, 9, 8, 9, 7, 5, 7, 9),
    (7, 8, 8, 7, 6, 8, 3, 7, 6, 6),
    (6, 7, 5, 8, 2, 5, 5, 0, 5, 6),
    (2, 7, 8, 1, 7, 5, 1, 5, 3, 8),
]


class TestTwins:
    """_structure sorts each vertex's off-cycle in-neighbours by shape code
    and marks twins, the siblings of equal code, once for both the labeling
    search and the class sizes of the shape sweep.  Swapping two twins'
    in-subtrees, vertex for vertex in the search's depth-first placement
    order, is an automorphism."""

    @staticmethod
    def check(values):
        n = len(values)
        cycles, children, code, twin = digraph._structure(values)
        on_cycle = {v for cycle in cycles for v in cycle}
        expected = [-1] * n
        for v, kids in enumerate(children):
            off_cycle = [u for u in range(n) if values[u] == v and u not in on_cycle]
            assert sorted(kids) == off_cycle
            assert [code[u] for u in kids] == sorted(code[u] for u in kids)
            for u, w in zip(kids, kids[1:]):
                if code[u] == code[w]:
                    expected[w] = u
        assert twin == expected

        def placed(v):
            out = [v]
            for u in children[v]:
                out += placed(u)
            return out

        for w, u in enumerate(twin):
            if u < 0:
                continue
            swap = list(range(n))
            for x, y in zip(placed(u), placed(w), strict=True):
                swap[x], swap[y] = y, x
            assert _conjugate(values, tuple(swap)) == values

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_value_table(self, n):
        for values in all_value_tables(n):
            self.check(values)

    @pytest.mark.parametrize("values", BENCH_TREES, ids=lambda v: ",".join(map(str, v)))
    def test_benchmark_trees(self, values):
        assert is_functional_tree(FunctionalDigraph(values))
        self.check(values)

    def test_a_run_of_twins(self):
        # the star's leaves form one run; the path has no twins
        assert digraph._structure((0,) * 5)[3] == [-1, -1, 1, 2, 3]
        assert digraph._structure((0, 0, 1, 2))[3] == [-1] * 4


class TestGrlSet:
    def test_star_has_two_members(self):
        members = grl_set(D(0, 0, 0, 0, 0))
        assert [m.values for m in members] == [(0, 0, 0, 0, 0), (4, 4, 4, 4, 4)]

    def test_two_cycle_empty(self):
        assert grl_set(D(1, 0)) == []

    def test_star3_members(self):
        # oracle: filter the 27 functions on Z_3 for gracefully labeled
        # conjugates of the star
        star = D(0, 0, 0)
        conjugates = set()
        for s in itertools.permutations(range(3)):
            conjugates.add(relabel(star, Permutation(s)).values)
        expected = sorted(
            t for t in conjugates if is_gracefully_labeled(FunctionalDigraph(t))
        )
        assert [m.values for m in grl_set(star)] == expected == [(0, 0, 0), (2, 2, 2)]

    def test_every_member_gracefully_labeled(self):
        for values in all_value_tables(4):
            for m in grl_set(FunctionalDigraph(values)):
                assert is_gracefully_labeled(m)


class TestHitsAreReadBack:
    """One read-back, digraph._hits, serves is_graceful, grl_set,
    _first_conjugators and conjecture.realizes.  A hit of the labeling
    search counts only after its conjugate table reads back gracefully
    labeled, so a search that first yields a sigma whose conjugate is not
    gracefully labeled changes no answer; a sigma that is not a
    permutation raises; and each hit is conjugated once."""

    @pytest.fixture
    def bogus_first(self, monkeypatch):
        real = digraph._labelings

        def patch(sigma):
            def labelings(values, need):
                yield sigma
                yield from real(values, need)

            monkeypatch.setattr(digraph, "_labelings", labelings)

        return patch

    def test_is_graceful_on_the_three_cycle(self, bogus_first):
        # the identity keeps 3:1,2,0, whose labels are 1,1,2
        bogus_first((0, 1, 2))
        assert not is_graceful(D(1, 2, 0))

    def test_grl_set_of_the_five_star(self, bogus_first):
        # sigma(0) = 2 gives 5:2,2,2,2,2, whose labels are 2,1,0,1,2
        bogus_first((2, 0, 1, 3, 4))
        members = [m.format() for m in grl_set(D(0, 0, 0, 0, 0))]
        assert members == ["5:0,0,0,0,0", "5:4,4,4,4,4"]

    def test_first_conjugators_of_the_five_star(self, bogus_first):
        bogus_first((2, 0, 1, 3, 4))
        tables = set(digraph._first_conjugators((0, 0, 0, 0, 0)))
        assert tables == {(0, 0, 0, 0, 0), (4, 4, 4, 4, 4)}

    @pytest.mark.parametrize(
        "consumer",
        [
            is_graceful,
            grl_set,
            lambda g: digraph._first_conjugators(g.values),
            lambda g: realizes(g, range(g.n)),
        ],
        ids=["is_graceful", "grl_set", "_first_conjugators", "realizes"],
    )
    def test_a_non_permutation_raises(self, bogus_first, consumer):
        # conjugating the 5-star by the constant 0 writes 5:0,0,0,0,0, which
        # reads back gracefully labeled, so only the permutation check stops it
        bogus_first((0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="not a permutation of Z_5"):
            consumer(D(0, 0, 0, 0, 0))

    @pytest.mark.parametrize("text", ["5:0,0,0,0,0", "7:0,0,0,1,2,4,5", "6:0,0,1,1,2,2"])
    def test_grl_set_conjugates_each_hit_once(self, monkeypatch, text):
        real_labelings, real_conjugate = digraph._labelings, digraph._conjugate
        counts = {"hits": 0, "conjugations": 0}

        def labelings(values, need):
            for sigma in real_labelings(values, need):
                counts["hits"] += 1
                yield sigma

        def conjugate(values, sigma):
            counts["conjugations"] += 1
            return real_conjugate(values, sigma)

        monkeypatch.setattr(digraph, "_labelings", labelings)
        monkeypatch.setattr(digraph, "_conjugate", conjugate)
        assert grl_set(FunctionalDigraph.parse(text))
        assert counts["conjugations"] == counts["hits"] > 0


class TestLeastConjugator:
    def test_one_least_conjugator_per_table(self, monkeypatch):
        # a loop and a 4-cycle: the search reaches each of the 24 gracefully
        # labeled conjugate tables from each of the 4 rotations of the cycle
        values = FunctionalDigraph.parse("9:0,2,3,4,1,0,5,6,7").values
        real = digraph._least_conjugator
        calls = []

        def least_conjugator(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(digraph, "_least_conjugator", least_conjugator)
        hits = [t for t, _ in digraph._hits(values, tuple(range(9)))]
        firsts = digraph._first_conjugators(values)
        assert (len(hits), len(set(hits)), len(calls)) == (96, 24, 24)
        assert sorted(calls) == sorted(firsts) == sorted(set(hits))

    def test_a_table_outside_the_orbit_raises(self):
        # the 3-cycle 3:1,2,0 is no conjugate of the 3-star
        code = digraph._structure((0, 0, 0))[2]
        with pytest.raises(ValueError, match="not a conjugate"):
            digraph._least_conjugator((0, 0, 0), (1, 2, 0), (0, 1, 2), code)


def scan_conjugates(values):
    """Reference: sigma f sigma^-1 for every sigma of S_n, a plain n! scan."""
    n = len(values)
    for s in itertools.permutations(range(n)):
        table = [0] * n
        for j, v in enumerate(values):
            table[s[j]] = s[v]
        yield tuple(table)


def conjugation_classes(n):
    """(representative, orbit) for every conjugation class of tables on Z_n."""
    seen = set()
    for values in all_value_tables(n):
        if values not in seen:
            orbit = set(scan_conjugates(values))
            seen |= orbit
            yield values, orbit


class TestConjugateTables:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_the_plain_scan(self, n):
        for values in all_value_tables(n):
            assert list(conjugate_tables(values)) == list(scan_conjugates(values))


class TestConjugationSearch:
    """The pruned conjugation search behind is_graceful and grl_set against
    the plain n! scan.  The graceful conjugates are shared by a whole
    conjugation class, so the scan runs once per class and every table of
    the class is searched."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_plain_scan_on_every_table(self, n):
        for rep, orbit in conjugation_classes(n):
            expected = sorted({t for t in scan_conjugates(rep) if _labels_are_graceful(t)})
            for values in orbit:
                g = FunctionalDigraph(values)
                assert [m.values for m in grl_set(g)] == expected
                assert is_graceful(g) == bool(expected)

    def test_star_on_twelve_vertices(self):
        # 11! automorphisms: only a search that quotients them finishes
        members = grl_set(FunctionalDigraph((0,) * 12))
        assert [m.values for m in members] == [(0,) * 12, (11,) * 12]

    def test_two_fixed_points_on_twelve_vertices(self):
        # two loops both carry label 0, so no conjugate is gracefully labeled
        g = FunctionalDigraph.parse("12:0,0,1,3,3,4,5,6,7,8,9,10")
        assert not is_graceful(g)
        assert grl_set(g) == []


class TestLabelCountSearch:
    """The labeling search for any label-count target against the plain n!
    scan filtered by edge labels, on every conjugation class with n <= 5
    (trees, cycles, zero or several loops) and every label sequence that
    some table on Z_n has.  Repeated labels include the two edges a
    vertex completes when it closes a cycle."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_the_filtered_scan_on_every_class(self, n):
        sequences = sorted({edge_labels(FunctionalDigraph(t)) for t in all_value_tables(n)})
        for rep, orbit in conjugation_classes(n):
            by_labels = {}
            for t in orbit:
                by_labels.setdefault(edge_labels(FunctionalDigraph(t)), set()).add(t)
            one_loop = sum(1 for i, v in enumerate(rep) if i == v) == 1
            for seq in sequences:
                need = [seq.count(label) for label in range(n)]
                reached = {_conjugate(rep, s) for s in _labelings(rep, need)}
                if one_loop and need[0] == 1:
                    assert reached == by_labels.get(seq, set()), (rep, seq)
                else:
                    assert reached == set(), (rep, seq)


class TestEachSigmaOnce:
    """The labeling search yields each sigma once: the complement n-1-sigma
    of a hit whose loop sits on the middle label (odd n) is reached by the
    search itself, not yielded again.  On a tree the twin swaps are all the
    automorphisms, so each conjugate table is reached once as well.  The
    star sequences include the graceful one, 0, 1, ..., n-1."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_rooted_shape(self, monkeypatch, n):
        real = digraph._labelings
        sigmas = []

        def labelings(values, need):
            for sigma in real(values, need):
                sigmas.append(sigma)
                yield sigma

        monkeypatch.setattr(digraph, "_labelings", labelings)
        for t in tree_shapes(n):
            for target in star_sequences(n):
                sigmas.clear()
                hits = digraph._hits(t.representative.values, target)
                tables = [table for table, _ in hits]
                assert len(set(sigmas)) == len(sigmas) > 0, (t, target)
                assert len(set(tables)) == len(tables), (t, target)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_value_table(self, n):
        targets = [[seq.count(label) for label in range(n)] for seq in star_sequences(n)]
        for values in all_value_tables(n):
            for need in targets:
                sigmas = list(_labelings(values, need))
                assert len(set(sigmas)) == len(sigmas), (values, need)


class TestComplement:
    def test_star3(self):
        assert complement(D(0, 0, 0)) == D(2, 2, 2)

    def test_involution(self):
        for n in range(1, 6):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                assert complement(complement(g)) == g

    def test_preserves_graceful_labeling(self):
        for n in range(1, 6):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                assert is_gracefully_labeled(complement(g)) == is_gracefully_labeled(g)


class TestFixedPointInvariant:
    def test_exactly_one_fixed_point_when_gracefully_labeled(self):
        for n in range(1, 6):
            for values in all_value_tables(n):
                if is_gracefully_labeled(FunctionalDigraph(values)):
                    assert sum(1 for i, v in enumerate(values) if v == i) == 1


class TestTextFormat:
    def test_parse_format_round_trip(self):
        text = "6:0,0,0,0,3,3"
        assert FunctionalDigraph.parse(text).format() == text

    def test_out_of_range_entry_names_index(self):
        with pytest.raises(ValueError, match="vertex 2 maps to 7"):
            FunctionalDigraph.parse("3:0,1,7")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="declares n=4"):
            FunctionalDigraph.parse("4:0,1,2")

    def test_missing_separator(self):
        with pytest.raises(ValueError, match="missing ':'"):
            FunctionalDigraph.parse("0,1,2")

    def test_malformed_number(self):
        with pytest.raises(ValueError, match="malformed"):
            FunctionalDigraph.parse("3:0,x,2")

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            FunctionalDigraph(())


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert p.inverse().values == (1, 2, 0)

    def test_format(self):
        assert Permutation((0, 2, 1)).format() == "0,2,1"
