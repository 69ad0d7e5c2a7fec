import time
import tracemalloc

import numpy as np
import pytest
from itertools import combinations, groupby, product
from math import comb, factorial

from signotopes import (
    SignFunction,
    TernaryColoring,
    block_coloring,
    completions,
    compositions,
    is_monotone,
    reduction,
    sign,
    zero_lower_bound,
)
from signotopes.core import TABLE_CAP, colex_layout
from signotopes.errors import InvalidArgument, NoReduction, TooLarge


def ref_compositions(m, parts=None):
    """Compositions by recursion on the first part, in lexicographic order."""
    if parts == 0 or (parts is not None and parts > m):
        return
    if parts == 1 or m == 1:
        if parts in (None, 1):
            yield (m,)
        return
    for first in range(1, m):
        rest = parts - 1 if parts is not None else None
        for tail in ref_compositions(m - first, rest):
            yield (first,) + tail
    if parts is None:
        yield (m,)


def is_base_form(sigma):
    """(p, 1) with p > 1, or (1, ..., 1, 2)."""
    if len(sigma) == 2 and sigma[0] > 1 and sigma[1] == 1:
        return True
    return len(sigma) >= 2 and sigma[-1] == 2 and all(p == 1 for p in sigma[:-1])


def reduction_step(sigma):
    """Trim the last part: decrement it if > 1, drop it if 1."""
    if sigma == (1,):
        raise NoReduction("cannot step below (1)")
    if sigma[-1] > 1:
        return sigma[:-1] + (sigma[-1] - 1,)
    return sigma[:-1]


def ref_reduction(sigma):
    """Reduction steps until a base form."""
    while not is_base_form(sigma):
        sigma = reduction_step(sigma)
    return sigma


def clause_sign(sigma):
    """The recursive sign definition applied clause by clause."""
    total = sum(sigma)
    if total == 3:
        return {(1, 2): -1, (2, 1): 1}.get(sigma)
    if len(sigma) >= 2 and sigma == (1,) * (len(sigma) - 1) + (2,):
        return -1 if total % 2 == 1 else 1
    if len(sigma) == 2 and sigma == (total - 1, 1) and total - 1 > 1:
        return 1 if total % 2 == 1 else -1
    if len(sigma) == 1 or all(p == 1 for p in sigma):
        return None
    return clause_sign(reduction_step(sigma))


def ref_block_color(r, h, edge):
    """The block coloring's three rules for one edge, recursing by hand."""
    if h == 1:
        return 0
    m = r ** (h - 1)
    blocks = [(v - 1) // m for v in edge]
    inner = tuple(v - b * m for v, b in zip(edge, blocks))
    if blocks[0] == blocks[-1]:
        return ref_block_color(r, h - 1, inner)
    if all(a < b for a, b in zip(blocks, blocks[1:])):
        alternating = sum(inner[1::2]) - sum(inner[0::2])
        return (alternating > 0) - (alternating < 0)
    return sign(tuple(len(list(run)) for _, run in groupby(blocks)))


class TestCompositions:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_total_count(self, m):
        assert sum(1 for _ in compositions(m)) == 2 ** (m - 1)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_count_per_part_number(self, m):
        for k in range(1, m + 1):
            got = list(compositions(m, k))
            assert len(got) == comb(m - 1, k - 1)
            assert all(len(s) == k and sum(s) == m for s in got)

    def test_negative_part_count_is_refused(self):
        with pytest.raises(InvalidArgument):
            list(compositions(3, -1))

    def test_distinct_and_positive(self):
        got = list(compositions(7))
        assert len(set(got)) == len(got)
        assert all(min(s) >= 1 for s in got)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_the_recursive_order(self, m):
        for parts in [None, *range(m + 2)]:
            assert list(compositions(m, parts)) == list(ref_compositions(m, parts))

    def test_long_compositions_stay_off_the_call_stack(self):
        assert next(compositions(5000)) == (1,) * 5000
        assert next(compositions(5000, 2)) == (1, 4999)

    def test_part_count_memory_does_not_grow_with_m(self):
        tracemalloc.start()
        try:
            first = next(compositions(TABLE_CAP, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == (1, TABLE_CAP - 1)
        assert peak < 64 * 1024  # a pool of all TABLE_CAP - 1 candidate ends traced 108 MB

    def test_totals_up_to_table_cap(self):
        assert len(next(compositions(TABLE_CAP))) == TABLE_CAP
        for m, parts in [(TABLE_CAP + 1, None), (TABLE_CAP + 1, 2), (10 ** 5000, 1)]:
            with pytest.raises(TooLarge, match="table cap"):
                next(compositions(m, parts))


class TestReduction:
    def test_examples(self):
        assert reduction((2, 2)) == (2, 1)
        assert reduction((1, 3)) == (1, 2)
        assert reduction((1, 1, 2)) == (1, 1, 2)

    def test_no_reduction(self):
        for sigma in [(1, 1, 1), (4,), (1,), (1, 1)]:
            with pytest.raises(NoReduction):
                reduction(sigma)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_reduction_lands_on_a_base_form(self, m):
        for sigma in compositions(m):
            if len(sigma) == 1 or all(p == 1 for p in sigma):
                continue
            base = reduction(sigma)
            assert is_base_form(base)
            # re-walk the step chain: exactly one base form is passed
            walk = sigma
            seen = []
            while True:
                if is_base_form(walk):
                    seen.append(walk)
                if len(walk) == 1 and walk[0] == 1:
                    break
                walk = reduction_step(walk)
            assert seen[:1] == [base]

    def test_invalid_parts(self):
        with pytest.raises(InvalidArgument):
            reduction((2, 0))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_closed_form_matches_the_step_loop(self, m):
        for sigma in compositions(m):
            if len(sigma) == 1 or all(p == 1 for p in sigma):
                with pytest.raises(NoReduction):
                    reduction(sigma)
            else:
                assert reduction(sigma) == ref_reduction(sigma)

    def test_long_compositions_reduce_at_once(self):
        start = time.perf_counter()
        assert reduction((1, 10 ** 7)) == (1, 2)
        assert sign((1, 10 ** 7)) == sign((1, 2))
        assert reduction((10 ** 7, 1, 5)) == (10 ** 7, 1)
        assert time.perf_counter() - start < 1


class TestSign:
    def test_spot_values(self):
        assert sign((1, 2)) == -1
        assert sign((2, 1)) == 1
        assert sign((1, 1, 2)) == 1
        assert sign((3, 1)) == -1
        assert sign((2, 2)) == 1

    def test_none_exactly_for_degenerate_shapes(self):
        for m in (3, 4, 5, 6):
            for sigma in compositions(m):
                expected_none = len(sigma) == 1 or all(p == 1 for p in sigma)
                assert (sign(sigma) is None) == expected_none

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_matches_clause_recursion(self, m):
        for sigma in compositions(m):
            assert sign(sigma) == clause_sign(sigma)

    def test_small_total_rejected(self):
        with pytest.raises(InvalidArgument):
            sign((2,))


class TestBlockColoring:
    def test_base_case_single_zero_edge(self):
        t = block_coloring(3, 1)
        assert t.fun.color_string() == "0"
        assert t.zero_positions == (0,)

    def test_transversal_tie_example(self):
        t = block_coloring(3, 2)
        assert t.fun.color((1, 5, 7)) == 0  # offsets (1,2,1): 2 == 1+1

    def test_composition_sign_example(self):
        t = block_coloring(3, 2)
        assert t.fun.color((1, 2, 4)) == 1  # blocks give (2,1), a positive shape

    def test_block_boundary_offsets(self):
        # vertices 3 and 4 straddle the first block boundary of [9]
        t = block_coloring(3, 2)
        assert t.fun.color((3, 4, 9)) == -1  # offsets (3,1,3): 1 < 3+3
        assert t.fun.color((1, 6, 7)) == 1   # offsets (1,3,1): 3 > 1+1

    def test_zero_census_r3_h2(self):
        t = block_coloring(3, 2)
        assert len(t.zero_positions) == 6
        assert len(t.transversal_zero_positions()) == 3

    def test_zero_census_r4_h2(self):
        t = block_coloring(4, 2)
        assert len(t.zero_positions) == 48
        assert len(t.transversal_zero_positions()) == 44
        # tie-count oracle: quadruples over [4]^4 with alternating sums equal
        ties = sum(
            1 for a, b, c, d in product(range(1, 5), repeat=4) if a + c == b + d
        )
        assert ties == 44

    def test_transversal_zeros_r3_h3_against_enumeration(self):
        t = block_coloring(3, 3)
        ties = sum(
            1 for a, b, c in product(range(1, 10), repeat=3) if a + c == b
        )
        assert len(t.transversal_zero_positions()) == ties

    def test_block_restriction_recurses(self):
        for r, h in [(3, 2), (3, 3)]:
            t = block_coloring(r, h)
            sub = block_coloring(r, h - 1)
            m = r ** (h - 1)
            for block in range(r):
                shift = block * m
                for edge in map(tuple, colex_layout(m, r).edges.tolist()):
                    shifted = tuple(v + shift for v in edge)
                    assert t.fun.color(shifted) == sub.fun.color(edge)

    @pytest.mark.parametrize("r,h", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_matches_scalar_reference(self, r, h):
        n = r ** h
        colex = sorted(combinations(range(1, n + 1), r), key=lambda e: e[::-1])
        want = [ref_block_color(r, h, edge) for edge in colex]
        assert block_coloring(r, h).fun.colors.tolist() == want

    def test_parameter_validation(self):
        with pytest.raises(InvalidArgument):
            block_coloring(2, 2)
        with pytest.raises(TooLarge):
            block_coloring(3, 4)

    def test_huge_height_is_refused_before_forming_the_power(self):
        start = time.perf_counter()
        for h in (21, 22, 10 ** 6):  # 3^21 vertices goes through check_size
            with pytest.raises(TooLarge, match="table cap"):
                block_coloring(3, h)
        for r in (2 ** 22, 10 ** 5000):  # r^h >= 2^22 > TABLE_CAP without forming it
            with pytest.raises(TooLarge, match="table cap"):
                block_coloring(r, 1)
        assert time.perf_counter() - start < 1


class TestCompletions:
    def test_zero_free_input_yields_itself(self):
        binary = SignFunction.constant(3, 4)
        t = TernaryColoring(
            SignFunction(3, 4, binary.colors, ternary_allowed=True),
            r=3, h=1, n=4, m=4, zero_positions=(),
        )
        out = list(completions(t))
        assert out == [binary]

    def test_all_mode_exhaustive_and_monotone(self):
        t = block_coloring(3, 2)
        out = list(completions(t, mode="all"))
        assert len(out) == 64
        assert len(set(out)) == 64
        assert all(c.is_binary for c in out)
        assert all(is_monotone(c) for c in out)

    def test_sample_mode_reproducible(self):
        t = block_coloring(4, 2)
        a = list(completions(t, mode="sample", count=10, seed=42))
        b = list(completions(t, mode="sample", count=10, seed=42))
        c = list(completions(t, mode="sample", count=10, seed=43))
        assert a == b
        assert a != c
        assert all(is_monotone(x) for x in a)
        # the sample count is refused over TABLE_CAP before the first draw
        assert next(completions(t, mode="sample", count=TABLE_CAP, seed=42)) == a[0]
        with pytest.raises(TooLarge, match="table cap"):
            next(completions(t, mode="sample", count=TABLE_CAP + 1, seed=42))

    def test_all_mode_cap(self):
        t = block_coloring(4, 2)  # 48 zeros
        with pytest.raises(TooLarge):
            next(completions(t, mode="all"))
        # 2^21 <= TABLE_CAP < 2^22: 21 zeros are admitted, 22 refused
        for n, zeros, admitted in [(7, 21, True), (8, 22, False)]:
            colors = np.full(comb(n, 2), -1, dtype=np.int8)
            colors[:zeros] = 0
            fun = SignFunction(2, n, colors, ternary_allowed=True)
            t = TernaryColoring(fun, r=2, h=1, n=n, m=n, zero_positions=tuple(range(zeros)))
            if admitted:
                assert next(completions(t, mode="all")) == SignFunction.constant(2, n)
            else:
                with pytest.raises(TooLarge, match="table cap"):
                    next(completions(t, mode="all"))

    def test_bad_mode(self):
        t = block_coloring(3, 2)
        with pytest.raises(InvalidArgument):
            next(completions(t, mode="weird"))
        with pytest.raises(InvalidArgument):
            next(completions(t, mode="sample", count=0))
        with pytest.raises(InvalidArgument, match="seed >= 0"):
            next(completions(t, mode="sample", count=1, seed=-1))


class TestZeroLowerBound:
    def test_formula_values(self):
        assert zero_lower_bound(3, 2) == 1
        assert zero_lower_bound(4, 2) == 1
        assert zero_lower_bound(3, 3) == 4

    def test_formula_shape(self):
        for r, h in [(3, 2), (3, 3), (4, 2), (5, 2)]:
            m = r ** (h - 1)
            half = (m + 1) // 2
            exact = (half ** (r - 1) - half) / factorial(r)
            assert zero_lower_bound(r, h) - 1 < exact <= zero_lower_bound(r, h)

    def test_bound_respected_by_construction(self):
        for r, h in [(3, 2), (3, 3), (4, 2)]:
            t = block_coloring(r, h)
            assert len(t.transversal_zero_positions()) >= zero_lower_bound(r, h)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            zero_lower_bound(3, 1)
        # refused once (r-1)(h-1) bits(r) > TABLE_CAP; for r = 3 that is h > 677,041
        assert 2 * 677_040 * 2 <= TABLE_CAP < 2 * 677_041 * 2
        for r, h in [(10 ** 5, 2), (3, 10 ** 5), (3, 677_041)]:
            assert zero_lower_bound(r, h) > 0
        for r, h in [(10 ** 6, 2), (3, 677_042), (10 ** 5000, 10 ** 5000)]:
            with pytest.raises(TooLarge, match="table cap"):
                zero_lower_bound(r, h)
