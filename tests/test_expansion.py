import itertools

import pytest

from gracelab import expansion
from gracelab.digraph import (
    FunctionalDigraph,
    Permutation,
    all_value_tables,
    complement,
    is_gracefully_labeled,
)
from gracelab.expansion import (
    GracefulExpansion,
    SignedPermutation,
    count_valid_gammas,
    decompose,
    enumerate_sp,
    enumerate_valid_gammas,
    enumerate_valid_gammas_by_filter,
    expand,
    is_valid_gamma,
    sp_sum_identity_check,
    tau_bounds,
    tau_bruteforce,
    valid_gammas,
)
from gracelab.seeds import integer_matrix


def identity_expansion(gamma, p):
    n = len(p)
    return GracefulExpansion(Permutation.identity(n), Permutation(gamma), tuple(p))


@pytest.mark.parametrize(
    "build",
    [
        enumerate_valid_gammas_by_filter,
        valid_gammas,
        count_valid_gammas,
        tau_bounds,
    ],
    ids=[
        "enumerate_valid_gammas_by_filter", "valid_gammas", "count_valid_gammas", "tau_bounds"
    ],
)
def test_n_below_two_is_rejected(build):
    with pytest.raises(ValueError, match="need n >= 2"):
        build(1)


class TestExpand:
    def test_all_minus_gives_star(self):
        e = identity_expansion((0, 1, 2), (0, 1, 1))
        assert expand(e).values == (0, 0, 0)

    def test_mixed_signs(self):
        e = identity_expansion((0, 1, 2), (0, 0, 1))
        assert expand(e).values == (0, 2, 0)

    def test_identity_sigma_always_gracefully_labeled(self):
        # with sigma = id and gamma fixing 0, |f - id| = gamma, a permutation
        for gamma in enumerate_valid_gammas(5):
            for bits in itertools.product((0, 1), repeat=4):
                e = identity_expansion(gamma.values, (0,) + bits)
                try:
                    g = expand(e)
                except ValueError:
                    continue
                assert is_gracefully_labeled(g)

    def test_range_violation_names_index(self):
        e = identity_expansion((0, 1, 2), (0, 0, 0))
        with pytest.raises(ValueError, match="index 2 to 4"):
            expand(e)

    def test_conjugated_expansion_matches_relabeled_identity_expansion(self):
        from gracelab.digraph import relabel

        sigma = Permutation((2, 0, 1))
        e_id = identity_expansion((0, 1, 2), (0, 1, 1))
        e = GracefulExpansion(sigma, e_id.gamma, e_id.p)
        assert expand(e) == relabel(expand(e_id), sigma)


class TestDecompose:
    def test_star3(self):
        e = decompose(FunctionalDigraph((0, 0, 0)))
        assert e.gamma.values == (0, 1, 2)
        assert e.p == (0, 1, 1)

    def test_path3(self):
        e = decompose(FunctionalDigraph((0, 2, 0)))
        assert e.gamma.values == (0, 1, 2)
        assert e.p == (0, 0, 1)

    def test_rejects_non_graceful(self):
        with pytest.raises(ValueError, match="not gracefully labeled"):
            decompose(FunctionalDigraph((0, 1)))

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                if is_gracefully_labeled(g):
                    e = decompose(g)
                    assert e.sigma == Permutation.identity(n)
                    assert expand(e) == g

    def test_gamma_always_admits_in_range_signs(self):
        # |f(i)-i| <= i or < n-i at every index; gamma(0) = 0 (and hence
        # membership in the valid-gamma family) additionally needs f(0) = 0
        for n in range(1, 6):
            for values in all_value_tables(n):
                g = FunctionalDigraph(values)
                if is_gracefully_labeled(g):
                    gamma = decompose(g).gamma
                    assert all(
                        v <= i or v < n - i for i, v in enumerate(gamma.values)
                    )
                    if values[0] == 0:
                        assert is_valid_gamma(gamma)


class TestValidGamma:
    @pytest.mark.parametrize(
        "values,expected",
        [((0, 1, 2), True), ((0, 2, 1), False), ((0, 1), True)],
    )
    def test_examples(self, values, expected):
        assert is_valid_gamma(Permutation(values)) == expected

    def test_nonzero_at_origin_invalid(self):
        assert not is_valid_gamma(Permutation((1, 0, 2)))


class TestEnumerateValidGammas:
    def test_n3(self):
        assert [g.values for g in enumerate_valid_gammas(3)] == [(0, 1, 2)]

    def test_n4(self):
        assert [g.values for g in enumerate_valid_gammas(4)] == [
            (0, 1, 2, 3),
            (0, 2, 1, 3),
        ]

    def test_n5(self):
        assert [g.values for g in enumerate_valid_gammas(5)] == [
            (0, 1, 2, 3, 4),
            (0, 2, 1, 3, 4),
            (0, 3, 1, 2, 4),
            (0, 3, 2, 1, 4),
        ]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_branching_matches_filter_oracle(self, n):
        assert enumerate_valid_gammas(n) == enumerate_valid_gammas_by_filter(n)

    def test_branching_matches_filter_oracle_n9(self):
        # the largest filter-feasible size: 362880 permutations scanned
        assert enumerate_valid_gammas(9) == enumerate_valid_gammas_by_filter(9)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_tuples_match_filter_oracle_in_order(self, n):
        oracle = enumerate_valid_gammas_by_filter(n)
        lines = valid_gammas(n).split("\n")
        assert lines == [g.format() for g in oracle]
        tuples = [tuple(map(int, line.split(","))) for line in lines]
        assert tuples == [g.values for g in oracle]
        assert all(is_valid_gamma(Permutation(values)) for values in tuples)

    @pytest.mark.parametrize("n", [10, 11])
    def test_listing_past_the_filter_oracle(self, n):
        # most heads here reuse a memoized block of another head
        lines = valid_gammas(n).split("\n")
        assert len(lines) == count_valid_gammas(n)
        values = [tuple(map(int, line.split(","))) for line in lines]
        assert all(sorted(gamma) == list(range(n)) for gamma in values)
        assert all(is_valid_gamma(Permutation(gamma)) for gamma in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_a_tuple_that_is_no_permutation_raises(self, monkeypatch):
        # a kernel that never takes value 1 out of the values left repeats it
        values = expansion._values
        monkeypatch.setattr(expansion, "_values", lambda mask: values(mask | 0b10))
        with pytest.raises(ValueError, match=r"not a permutation of Z_5: 0,1,1"):
            enumerate_valid_gammas(5)

    def test_a_block_that_places_a_value_not_left_raises(self, monkeypatch):
        # a kernel that lists nothing for two values and repeats value 1
        # among three or more: at n = 7 a block places 1 before a child
        # block of no lines, which no last-index check sees
        values = expansion._values

        def faulty(mask):
            count = mask.bit_count()
            return values(mask) if count == 1 else [] if count == 2 else values(mask | 0b10)

        monkeypatch.setattr(expansion, "_values", faulty)
        with pytest.raises(ValueError, match=r"not a permutation of Z_7: 0,1,1$"):
            valid_gammas(7)

    def test_a_head_that_repeats_a_value_raises(self, monkeypatch):
        # index 1 is also offered value 0, and index 2 nothing on the values
        # that head leaves: its block lists no line, so only the head's own
        # signature check sees the repeated 0 (without it the listing
        # silently shrinks to 18 of the 36 gammas)
        values = expansion._values

        def faulty(mask):
            if mask == 0b0111110:
                return [0, *values(mask)]
            return [] if mask == 0b0011110 else values(mask)

        monkeypatch.setattr(expansion, "_values", faulty)
        with pytest.raises(ValueError, match=r"not a permutation of Z_7: 00$"):
            valid_gammas(7)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_count_matches_enumeration(self, n):
        assert len(enumerate_valid_gammas(n)) == count_valid_gammas(n)

    def test_counts(self):
        assert [count_valid_gammas(n) for n in (5, 6, 7)] == [4, 12, 36]

    def test_every_graceful_decomposition_fixing_zero_is_valid(self):
        for values in all_value_tables(5):
            if values[0] != 0:
                continue
            g = FunctionalDigraph(values)
            if is_gracefully_labeled(g):
                assert is_valid_gamma(decompose(g).gamma)


class TestSignedPermutations:
    def test_n2_forced(self):
        sps = enumerate_sp(2)
        assert len(sps) == 1
        assert sps[0].g(1) == -1

    def test_n3_matches_brute_force(self):
        # oracle: the 27 functions on Z_3 with f(0)=0 that are gracefully labeled
        expected = {
            values
            for values in all_value_tables(3)
            if values[0] == 0 and is_gracefully_labeled(FunctionalDigraph(values))
        }
        got = {sp.to_digraph().values for sp in enumerate_sp(3)}
        assert got == expected
        assert len(got) == 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_set_equality_with_graceful_fixing_zero(self, n):
        expected = {
            values
            for values in all_value_tables(n)
            if values[0] == 0 and is_gracefully_labeled(FunctionalDigraph(values))
        }
        sps = enumerate_sp(n)
        assert {sp.to_digraph().values for sp in sps} == expected
        images = [sp.images for sp in sps]
        assert images == sorted(set(images))  # sorted by image tuple, no repeats

    def test_every_member_gracefully_labeled_fixing_zero(self):
        for n in range(2, 7):
            for sp in enumerate_sp(n):
                g = sp.to_digraph()
                assert g.values[0] == 0
                assert is_gracefully_labeled(g)

    def test_complement_moves_fixed_point_to_top(self):
        for n in range(2, 6):
            for sp in enumerate_sp(n):
                c = complement(sp.to_digraph())
                assert is_gracefully_labeled(c)
                assert c.values[n - 1] == n - 1

    def test_oddness_validated(self):
        with pytest.raises(ValueError, match="not odd"):
            SignedPermutation((0, 1, -1))  # g(0) = 1 breaks g(-i) = -g(i)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            SignedPermutation((0, 0, 0))

    def test_gammas_come_only_from_enumerate_valid_gammas(self, monkeypatch):
        # one call of the wrapper, and the kernel runs only inside it
        n = 6
        expected = enumerate_sp(n)
        calls = []
        kernel, wrapper = expansion.valid_gammas, expansion.enumerate_valid_gammas

        def counted_kernel(*args):
            calls.append("valid_gammas")
            return kernel(*args)

        def counted_wrapper(m):
            calls.append(("enumerate_valid_gammas", m))
            return wrapper(m)

        monkeypatch.setattr(expansion, "valid_gammas", counted_kernel)
        monkeypatch.setattr(expansion, "enumerate_valid_gammas", counted_wrapper)
        assert enumerate_sp(n) == expected
        assert calls == [("enumerate_valid_gammas", n), "valid_gammas"]

    def test_n1_is_the_zero_map_and_n0_is_rejected(self):
        assert enumerate_sp(1) == [SignedPermutation((0,))]
        with pytest.raises(ValueError, match="need n >= 1"):
            enumerate_sp(0)

    def test_rejects_out_of_range_sum(self):
        with pytest.raises(ValueError, match="leaves"):
            SignedPermutation((-1, 0, 1))  # odd, but 1 + g(1) = 2 is out of range

    def test_serialization(self):
        sp = enumerate_sp(2)[0]
        assert sp.format() == "1,0,-1"


class TestSpSumIdentity:
    def test_all_ones_n3(self):
        check = sp_sum_identity_check(enumerate_sp(3), [[1] * 3] * 3)
        assert check.left == check.right == 2

    def test_all_ones_n4(self):
        check = sp_sum_identity_check(enumerate_sp(4), [[1] * 4] * 4)
        assert check.left == check.right == 4

    def test_primes_n2(self):
        check = sp_sum_identity_check(enumerate_sp(2), [[2, 3], [5, 7]])
        assert check.left == check.right == 2 * 5

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_random_matrices(self, n, seed):
        check = sp_sum_identity_check(enumerate_sp(n), integer_matrix(n, seed, 1, 100))
        assert check.equal


class TestTau:
    @pytest.mark.parametrize(
        "n,expected", [(3, (2, 6)), (4, (4, 32)), (5, (8, 80))]
    )
    def test_bounds(self, n, expected):
        assert tau_bounds(n) == expected

    def test_small_counts(self):
        taus = [2, 6, 16, 60, 256, 1336, 7744, 50612]
        assert [tau_bruteforce(n) for n in range(2, 10)] == taus

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_definition(self, n):
        # gracefully labeled, and the fixed point has another preimage
        expected = 0
        for values in all_value_tables(n):
            if is_gracefully_labeled(FunctionalDigraph(values)):
                fixed = next(i for i, v in enumerate(values) if v == i)
                if any(v == fixed and i != fixed for i, v in enumerate(values)):
                    expected += 1
        assert tau_bruteforce(n) == expected

    @pytest.mark.parametrize("n", range(2, 8))
    def test_brute_force_within_bounds(self, n):
        lower, upper = tau_bounds(n)
        assert lower <= tau_bruteforce(n) <= upper

    @pytest.mark.parametrize("n", range(2, 7))
    def test_count_is_even(self, n):
        # complement pairs graphs with distinct fixed points
        assert tau_bruteforce(n) % 2 == 0
