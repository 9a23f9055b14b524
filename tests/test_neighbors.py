import pytest

import itertools

from gracelab.digraph import (
    FunctionalDigraph,
    Permutation,
    functional_trees,
    graceful_tables,
    is_gracefully_labeled,
    relabel,
)
from gracelab.expansion import GracefulExpansion, decompose, expand
from gracelab.neighbors import (
    completeness_check,
    edit_distance_at_most,
    expansion_family,
    neighbors_bruteforce,
    neighbors_via_expansion,
)


def star(n):
    return FunctionalDigraph((0,) * n)


def flip_by_definition(gamma, p, j):
    """The single sign flip from its definition: expand id + (-1)^p' * gamma
    with bit j of p flipped, or None when that expansion leaves Z_n."""
    flipped = p[:j] + (1 - p[j],) + p[j + 1 :]
    try:
        return expand(GracefulExpansion(Permutation.identity(len(p)), gamma, flipped))
    except ValueError:
        return None


def neighbors_by_definition(fam):
    found = set()
    for gamma, _sigma, p in fam.members:
        for j in range(len(p)):
            g = flip_by_definition(gamma, p, j)
            if g is not None:
                found.add(g)
    return sorted(found)


class TestFlipsAgainstTheDefinition:
    """neighbors_via_expansion, which moves f(j) to 2j - f(j) in each
    member's table, against flips made by expand on the flipped bit."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_table(self, n):
        for values in itertools.product(range(n), repeat=n):
            fam = expansion_family(FunctionalDigraph(values))
            assert neighbors_via_expansion(fam) == neighbors_by_definition(fam)

    def test_every_member_on_six_vertices(self):
        # A member is fixed by its gracefully labeled table H, and the family
        # of H itself holds H for gamma = |H - id| (sigma = id comes first),
        # so these families hold every member any base on Z_6 can have.
        members = set()
        for values in graceful_tables(6):
            fam = expansion_family(FunctionalDigraph(values))
            members.update((gamma, p) for gamma, _sigma, p in fam.members)
            assert neighbors_via_expansion(fam) == neighbors_by_definition(fam)
        assert len(members) == 392

    @pytest.mark.parametrize("text", ["10:8,4,2,0,5,2,8,9,2,6", "10:0,0,0,0,0,0,0,0,0,0"])
    def test_ten_vertices(self, text):
        fam = expansion_family(FunctionalDigraph.parse(text))
        assert fam.members
        assert neighbors_via_expansion(fam) == neighbors_by_definition(fam)


class TestExpansionFamily:
    def test_star5_family_gammas(self):
        fam = expansion_family(star(5))
        gammas = {gamma.values: p for gamma, _sigma, p in fam.members}
        assert set(gammas) == {(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)}
        assert gammas[(0, 1, 2, 3, 4)] == (0, 1, 1, 1, 1)
        assert gammas[(4, 3, 2, 1, 0)] == (0, 0, 0, 0, 0)

    def test_members_expand_to_base(self):
        # validated by the dataclass itself; re-check one member explicitly
        fam = expansion_family(star(4))
        gamma, sigma, p = fam.members[0]
        assert expand(GracefulExpansion(sigma, gamma, p)) == star(4)

    def test_non_graceful_base_has_empty_family(self):
        fam = expansion_family(FunctionalDigraph((1, 0)))
        assert fam.members == ()

    @pytest.mark.parametrize(
        "text",
        [
            *(star(n).format() for n in range(1, 9)),
            # rigid trees: no automorphism but the identity
            "5:0,0,1,2,3",
            "6:0,0,1,1,3,4",
            "6:0,0,1,2,2,4",
            "7:0,0,0,1,2,4,5",
        ],
    )
    def test_equals_decompose_every_conjugate(self, text):
        base = FunctionalDigraph.parse(text)
        n = base.n
        members = {}
        for s in itertools.permutations(range(n)):
            h = relabel(base, Permutation(s))
            if is_gracefully_labeled(h):
                e = decompose(h)
                members.setdefault(e.gamma.values, (e.gamma, Permutation(s).inverse(), e.p))
        expected = tuple(members[k] for k in sorted(members))
        assert expected
        assert expansion_family(base).members == expected


def graceful_hits(values):
    """(sigma, sigma f sigma^-1) for every sigma of S_n whose conjugate is
    gracefully labeled, in lexicographic sigma order: a plain n! scan."""
    n = len(values)
    hits = []
    for s in itertools.permutations(range(n)):
        table = [0] * n
        for j, v in enumerate(values):
            table[s[j]] = s[v]
        if is_gracefully_labeled(FunctionalDigraph(tuple(table))):
            hits.append((s, tuple(table)))
    return hits


def first_member_per_gamma(hits):
    """The member rule: per gamma, the member from the first sigma of hits."""
    first = {}
    for s, table in hits:
        first.setdefault(tuple(abs(v - i) for i, v in enumerate(table)), (s, table))
    members = []
    for gamma in sorted(first):
        s, table = first[gamma]
        e = decompose(FunctionalDigraph(table))
        members.append((e.gamma, Permutation(s).inverse(), e.p))
    return tuple(members)


class TestFamilyAgainstTheScan:
    """expansion_family, sigma included, against the member rule applied to
    a plain scan of S_n."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_table(self, n):
        for values in itertools.product(range(n), repeat=n):
            expected = first_member_per_gamma(graceful_hits(values))
            assert expansion_family(FunctionalDigraph(values)).members == expected

    def test_every_functional_tree_on_six_vertices(self):
        # The scan runs once per conjugation class.  For a tree
        # g = tau r tau^-1 of the class of r, sigma g sigma^-1 equals
        # rho r rho^-1 with rho = sigma tau, so g's hits are r's hits with
        # sigma = rho tau^-1, re-sorted into lexicographic sigma order.
        seen = set()
        for rep in functional_trees(6):
            if rep in seen:
                continue
            tau = {}
            for s in itertools.permutations(range(6)):
                tau.setdefault(relabel(FunctionalDigraph(rep), Permutation(s)).values, s)
            seen |= set(tau)
            hits = graceful_hits(rep)
            for g, t in tau.items():
                t_inv = Permutation(t).inverse().values
                reindexed = sorted(
                    (tuple(rho[t_inv[j]] for j in range(6)), table) for rho, table in hits
                )
                expected = first_member_per_gamma(reindexed)
                assert expansion_family(FunctionalDigraph(g)).members == expected
        assert len(seen) == 6**5


class TestNeighborsViaExpansion:
    def test_star5_reproduces_worked_example(self):
        generated = neighbors_via_expansion(expansion_family(star(5)))
        assert [g.values for g in generated] == [
            (0, 0, 0, 0, 0),
            (0, 0, 4, 0, 0),
            (0, 2, 0, 0, 0),
            (4, 4, 0, 4, 4),
            (4, 4, 4, 2, 4),
            (4, 4, 4, 4, 4),
        ]

    def test_star5_identity_branch_formula(self):
        # flips of the identity gamma yield g(i) = i + (-1)^p'(i) * i:
        # exactly one doubled vertex j in {1, 2}
        generated = {g.values for g in neighbors_via_expansion(expansion_family(star(5)))}
        for j in (1, 2):
            g = tuple(2 * j if i == j else 0 for i in range(5))
            assert g in generated

    def test_star5_reversal_branch_formula(self):
        # flips of the reversal gamma yield g(j) = 2j - (n-1) for j in {2, 3, 4}
        generated = {g.values for g in neighbors_via_expansion(expansion_family(star(5)))}
        for j in (2, 3, 4):
            g = tuple(2 * j - 4 if i == j else 4 for i in range(5))
            assert g in generated

    @pytest.mark.parametrize("n", range(2, 7))
    def test_outputs_gracefully_labeled(self, n):
        for g in neighbors_via_expansion(expansion_family(star(n))):
            assert is_gracefully_labeled(g)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_outputs_within_distance_one(self, n):
        base = star(n)
        for g in neighbors_via_expansion(expansion_family(base)):
            assert edit_distance_at_most(base, g, 1)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_flip_count_bound_per_gamma(self, n):
        # at most ceil((n-1)/2) digraph-changing valid flips per gamma
        fam = expansion_family(star(n))
        identity = Permutation.identity(n)
        for gamma, _sigma, p in fam.members:
            base_digraph = expand(GracefulExpansion(identity, gamma, p))
            changing = 0
            for j in range(n):
                flipped = flip_by_definition(gamma, p, j)
                if flipped is not None and flipped != base_digraph:
                    changing += 1
            assert changing <= n // 2  # ceil((n-1)/2)

    def test_generated_includes_grl(self):
        from gracelab.digraph import grl_set

        for n in range(2, 7):
            generated = {g.values for g in neighbors_via_expansion(expansion_family(star(n)))}
            for member in grl_set(star(n)):
                assert member.values in generated


class TestEditDistance:
    def test_reflexive(self):
        g = FunctionalDigraph((0, 0, 1))
        assert edit_distance_at_most(g, g, 0)

    def test_single_change_from_star(self):
        assert edit_distance_at_most(
            FunctionalDigraph((0, 0, 0)), FunctionalDigraph((0, 0, 1)), 1
        )

    def test_symmetric_on_samples(self):
        import itertools

        tables = list(itertools.product(range(3), repeat=3))
        for a in tables:
            for b in tables:
                g, h = FunctionalDigraph(a), FunctionalDigraph(b)
                for k in (0, 1):
                    assert edit_distance_at_most(g, h, k) == edit_distance_at_most(
                        h, g, k
                    )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            edit_distance_at_most(star(2), star(3), 1)


class TestBruteforceOracle:
    def test_star3(self):
        got = [g.values for g in neighbors_bruteforce(star(3))]
        assert got == [
            (0, 0, 0),
            (0, 2, 0),
            (1, 1, 0),
            (2, 0, 2),
            (2, 1, 1),
            (2, 2, 2),
        ]

    def test_outputs_gracefully_labeled(self):
        for g in neighbors_bruteforce(star(4)):
            assert is_gracefully_labeled(g)

    def test_closed_under_complement(self):
        from gracelab.digraph import complement

        for n in (3, 4, 5):
            base = star(n)
            mirror = {g.values for g in neighbors_bruteforce(complement(base))}
            for g in neighbors_bruteforce(base):
                assert complement(g).values in mirror


class TestCompletenessCheck:
    # The flip generator provably misses some neighbors of the star: a star
    # re-centered on an interior vertex c needs its missing large label
    # restored by the one edited edge, and no single sign flip of a star
    # expansion produces it.  The oracle measures this honestly.
    EXPECTED_MISSING = {
        3: [(1, 1, 0), (2, 1, 1)],
        4: [(2, 2, 2, 0), (3, 1, 1, 1)],
        5: [(3, 3, 3, 3, 0), (4, 1, 1, 1, 1)],
        6: [(4, 4, 4, 4, 4, 0), (5, 1, 1, 1, 1, 1)],
    }

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_star_missing_sets_are_measured_and_stable(self, n):
        report = completeness_check(expansion_family(star(n)))
        assert [g.values for g in report.missing] == self.EXPECTED_MISSING[n]

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_no_extras(self, n):
        report = completeness_check(expansion_family(star(n)))
        assert report.extra == ()

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_generated_subset_of_oracle(self, n):
        report = completeness_check(expansion_family(star(n)))
        oracle = {g.values for g in report.oracle}
        assert {g.values for g in report.generated} <= oracle

    def test_missing_members_really_are_neighbors(self):
        # each missing digraph is gracefully labeled and within distance one,
        # so it is a genuine counterexample to flip-completeness
        base = star(5)
        report = completeness_check(expansion_family(base))
        for g in report.missing:
            assert is_gracefully_labeled(g)
            assert edit_distance_at_most(base, g, 1)
