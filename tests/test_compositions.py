import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from importlib import import_module
from itertools import combinations, groupby, product
from math import comb, factorial

from signotopes import (
    SignFunction,
    TernaryColoring,
    block_coloring,
    colex_rank,
    completions,
    compositions,
    is_monotone,
    monotone_violation,
    random_monotone_coloring,
    reduction,
    sign,
    transitive_violation,
    zero_lower_bound,
)
from signotopes.compositions import _can_change_twice
from signotopes.core import TABLE_CAP, colex_layout
from signotopes.errors import InvalidArgument, NoReduction, TernaryNotAllowed, TooLarge


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


class TestIntegerArguments:
    """Parts, r and h are read as integers: a float is refused, as by
    ``compositions``, and a numpy integer gives the Python integer's result."""

    @pytest.mark.parametrize("function,args", [
        (sign, ((1.5, 1.5),)),  # -1 before
        (reduction, ((2.5, 1),)),  # (2.5, 1) before
        (zero_lower_bound, (3, 2.5)),  # 1.0 before
        (zero_lower_bound, (3.0, 2)),
        (block_coloring, (3, 2.0)),
        (block_coloring, (3.0, 2)),
    ])
    def test_floats_are_refused(self, function, args):
        with pytest.raises(TypeError):
            function(*args)

    @pytest.mark.parametrize("function,args", [
        (sign, ((1, 1, 2),)),
        (reduction, ((3, 1, 2),)),
        (zero_lower_bound, (3, 3)),
        (block_coloring, (3, 2)),
    ])
    def test_numpy_integers_give_the_python_result(self, function, args):
        as_numpy = [tuple(map(np.int64, a)) if isinstance(a, tuple) else np.int64(a) for a in args]
        assert repr(function(*as_numpy)) == repr(function(*args))


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

    @pytest.mark.parametrize("position,match", [
        (-1, "zero position -1 out of range 0..83"),
        (84, "zero position 84 out of range 0..83"),
        ("repeat", "repeated"),
    ])
    def test_transversal_zeros_refuse_bad_positions(self, position, match):
        t = block_coloring(3, 2)
        zeros = t.zero_positions
        zeros = (zeros[0], *zeros) if position == "repeat" else (*zeros[:-1], position)
        bad = TernaryColoring(t.fun, r=3, h=2, n=9, m=3, zero_positions=zeros)
        with pytest.raises(InvalidArgument, match=match):
            bad.transversal_zero_positions()

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

    def test_largest_block_coloring_stays_small(self):
        block_coloring(5, 2)  # builds the cached (25, 5) layout
        tracemalloc.start()
        try:
            t = block_coloring(5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t.zero_positions) == 260
        assert peak < 4_000_000  # int64 working arrays traced 7.27 MB, int16 ones 2.8 MB

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

    def test_a_zero_outside_the_fill_positions_is_refused(self):
        # every completion is built unscanned, so the template is checked once per call
        t = block_coloring(3, 2)
        for zeros in (t.zero_positions[1:], t.zero_positions[:-1]):
            partial = TernaryColoring(t.fun, r=3, h=2, n=9, m=3, zero_positions=zeros)
            for mode, count in (("all", 0), ("sample", 3)):
                with pytest.raises(TernaryNotAllowed, match="^0 entries require ternary_allowed=True$"):
                    next(completions(partial, mode=mode, count=count))

    def test_bad_mode(self):
        t = block_coloring(3, 2)
        with pytest.raises(InvalidArgument):
            next(completions(t, mode="weird"))
        with pytest.raises(InvalidArgument):
            next(completions(t, mode="sample", count=0))
        with pytest.raises(InvalidArgument, match="seed >= 0"):
            next(completions(t, mode="sample", count=1, seed=-1))


def hand_built(r, n, colors, zeros):
    """A TernaryColoring of the given colors, filled at the given positions."""
    fun = SignFunction(r, n, np.asarray(colors, dtype=np.int8), ternary_allowed=True)
    return TernaryColoring(fun, r=r, h=1, n=n, m=n, zero_positions=tuple(zeros))


def fresh_violations(c):
    """The violations of a new SignFunction of the same colors, decided from scratch."""
    fresh = SignFunction(c.r, c.n, c.colors)
    return monotone_violation(fresh), transitive_violation(fresh)


@st.composite
def templates(draw):
    """Small hand-built templates: a monotone or random binary fixed part, and up
    to six distinct positions to fill, each holding -1, 0 or +1 in the template."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r, 9))
    size = comb(n, r)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        colors = random_monotone_coloring(r, n, int(rng.integers(2 ** 16)), max_edges=200).colors.copy()
    else:
        colors = rng.choice((-1, 1), size=size).astype(np.int8)
    zeros = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=min(size, 6)))
    colors[zeros] = rng.choice((-1, 0, 0, 1), size=len(zeros))
    return hand_built(r, n, colors, zeros)


def ref_rows(colors, n, r, zeros):
    """Per (r+1)-subset in colex order, naively: the subset, whether a face is
    among ``zeros``, whether it breaks monotonicity and whether transitivity."""
    zeros = set(zeros)
    out = []
    for s in sorted(combinations(range(1, n + 1), r + 1), key=lambda e: e[::-1]):
        faces = [colex_rank(s[:j] + s[j + 1:]) for j in range(r, -1, -1)]
        seq = [colors[f] for f in faces]
        twice = sum(a != b for a, b in zip(seq, seq[1:])) > 1
        out.append((s, bool(zeros.intersection(faces)), twice, twice and seq[0] == seq[-1]))
    return out


def first(rows, keep=lambda row: True, column=2):
    return next((i for i, row in enumerate(rows) if row[column] and keep(row)), -1)


#: (r, n, edges colored + on an all - coloring, edges to fill, premise over the
#: completions' rows).  Premises name where the first violation lies: among the
#: subsets with a face to fill (touched) or the others (untouched).
PLANTED = {
    "untouched only": (2, 5, [(1, 3)], [(4, 5)], all, lambda rows: (
        first(rows, lambda row: not row[1]) >= 0 > first(rows, lambda row: row[1]))),
    "touched only": (2, 5, [], [(1, 3)], any, lambda rows: (
        first(rows, lambda row: row[1]) >= 0 > first(rows, lambda row: not row[1]))),
    "untouched first": (2, 5, [(1, 3)], [(3, 5)], any, lambda rows: (
        0 <= first(rows, lambda row: not row[1]) < first(rows, lambda row: row[1]))),
    "touched first": (2, 5, [(3, 5)], [(1, 3)], any, lambda rows: (
        0 <= first(rows, lambda row: row[1]) < first(rows, lambda row: not row[1]))),
    "transitive after monotone": (3, 5, [(1, 2, 4), (2, 3, 4), (1, 2, 5)], [(1, 3, 5)], any,
                                  lambda rows: 0 <= first(rows) < first(rows, column=3)),
    # the first filling breaks {1, 2, 3}, the second nothing: each filling must
    # get its own violations, not the first one's
    "flagged, then clean": (2, 5, [(1, 2), (2, 3)], [(1, 3)], lambda seen: seen == [True, False],
                            lambda rows: first(rows) >= 0),
}


class TestDecidedCompletions:
    """Completions arrive with their predicates decided from the subsets their
    fills touch; the answers must be those of a coloring checked from scratch."""

    @given(templates())
    @example(hand_built(2, 3, [1, 1, -1], [0, 1]))  # the template's +1 fills break nothing
    @settings(max_examples=80, deadline=None)
    def test_matches_a_fresh_check(self, t):
        filled = [*completions(t, mode="all"), *completions(t, mode="sample", count=5, seed=3)]
        assert len(filled) == 2 ** len(t.zero_positions) + 5
        for c in filled:
            assert (monotone_violation(c), transitive_violation(c)) == fresh_violations(c)
            assert is_monotone(c) == (monotone_violation(c) is None)

    @pytest.mark.parametrize("case", sorted(PLANTED))
    def test_planted_violations(self, case):
        r, n, plus, fill, quantifier, premise = PLANTED[case]
        colors = np.full(comb(n, r), -1, dtype=np.int8)
        colors[[colex_rank(e) for e in plus]] = 1
        zeros = [colex_rank(e) for e in fill]
        colors[zeros] = 0
        seen = []
        for c in completions(hand_built(r, n, colors, zeros)):
            rows = ref_rows(c.colors.tolist(), n, r, zeros)
            want = tuple(rows[i][0] if i >= 0 else None for i in (first(rows), first(rows, column=3)))
            assert (monotone_violation(c), transitive_violation(c)) == want
            seen.append(premise(rows))
        assert len(seen) == 2 ** len(zeros) and quantifier(seen)

    def test_block_colorings(self):
        every = list(completions(block_coloring(3, 2), mode="all"))
        assert len(every) == 64
        sampled = list(completions(block_coloring(5, 2), mode="sample", count=200, seed=11))
        for c in every + sampled:
            assert fresh_violations(c) == (None, None)
            assert monotone_violation(c) is None and transitive_violation(c) is None

    @pytest.mark.parametrize("r,h", [(3, 3), (5, 2)])  # (5, 2): blocks 17..25 are streamed
    @pytest.mark.parametrize("pick", [min, max])
    def test_flipped_template_edge_is_found_in_each_completion(self, r, h, pick):
        t = block_coloring(r, h)
        colors = t.fun.colors.copy()
        colors[pick(set(range(len(colors))) - set(t.zero_positions))] *= -1
        flipped = hand_built(r, t.n, colors, t.zero_positions)
        for c in completions(flipped, mode="sample", count=10, seed=2):
            assert monotone_violation(c) is not None
            assert (monotone_violation(c), transitive_violation(c)) == fresh_violations(c)


def changes_twice_somehow(row):
    """Whether some -1/+1 filling of the 0 entries of ``row`` changes sign twice."""
    free = [i for i, color in enumerate(row) if color == 0]
    for signs in product((-1, 1), repeat=len(free)):
        filled = list(row)
        for i, s in zip(free, signs):
            filled[i] = s
        if sum(a != b for a, b in zip(filled, filled[1:])) > 1:
            return True
    return False


class TestFillingDecision:
    """``completions`` checks every filling in full exactly when some filling
    of the 0 entries can make a touched subset change sign twice."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_brute_force(self, k):
        rows = np.array(list(product((-1, 0, 1), repeat=k)), dtype=np.int8)
        want = np.array([changes_twice_somehow(row) for row in rows.tolist()])
        assert [_can_change_twice(row[None]) for row in rows] == want.tolist()
        assert _can_change_twice(rows) == want.any()
        assert not _can_change_twice(rows[~want])


def reference_completions(t, mode="all", count=0, seed=0):
    """Completions one filling at a time: a draw of z fills, a copy of the
    template and a full check of a fresh coloring per filling."""
    z = len(t.zero_positions)
    zeros = list(t.zero_positions)
    if mode == "all":
        fills = (((word >> np.arange(z)) & 1).astype(np.int8) for word in range(2 ** z))
    else:
        rng = np.random.default_rng(seed)
        fills = (rng.integers(0, 2, size=z, dtype=np.int8) for _ in range(count))
    base = np.asarray(t.fun.colors)
    for fill in fills:
        colors = base.copy()
        colors[zeros] = 2 * fill - 1
        fun = SignFunction(t.r, t.n, colors)
        fun._violations  # decided from scratch, and stored
        yield fun


def same_as_reference(t, mode, count=0, seed=0):
    """Assert that ``completions`` yields the reference's colors with the same
    stored violation ranks; returns the number of yields."""
    got = list(completions(t, mode, count, seed))
    want = list(reference_completions(t, mode, count, seed))
    assert len(got) == len(want) == (2 ** len(t.zero_positions) if mode == "all" else count)
    for a, b in zip(got, want):
        assert np.array_equal(a.colors, b.colors)
        assert vars(a)["_violations"] == vars(b)["_violations"]  # stored, not decided on read
    return len(got)


def with_zeros(z):
    """A monotone (3, 8) coloring with its first z edges to fill."""
    colors = random_monotone_coloring(3, 8, 5, max_edges=200).colors.copy()
    colors[:z] = 0
    return hand_built(3, 8, colors, range(z))


def flipped_half(r, h):
    """``block_coloring(r, h)`` with the first half of its fixed signs flipped."""
    t = block_coloring(r, h)
    colors = t.fun.colors.copy()
    fixed = np.flatnonzero(colors)
    colors[fixed[:len(fixed) // 2]] *= -1
    return hand_built(r, t.n, colors, t.zero_positions)


@pytest.fixture
def full_checks(monkeypatch):
    """Counts the full checks (`core._first_violations` calls) made while
    ``completions`` runs, not those of the reference or of the test itself."""
    core = import_module("signotopes.core")
    inside = import_module("signotopes.compositions").completions.__code__
    check = core._first_violations
    calls = [0]

    def counted(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not inside:
            frame = frame.f_back
        calls[0] += frame is not None
        return check(*args)

    monkeypatch.setattr(core, "_first_violations", counted)
    return calls


class TestBlockCompletions:
    """``completions`` draws fillings a block at a time and checks in full the
    first, or each when a filling can break a touched subset; it must yield what
    the one-filling-at-a-time loop yields, violation ranks included."""

    @pytest.mark.parametrize("r,h", [(3, 2), (3, 3), (4, 2), (5, 2)])
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 1000])
    def test_sample_mode_across_block_edges(self, r, h, count):
        same_as_reference(block_coloring(r, h), "sample", count, seed=count)

    @pytest.mark.parametrize("z", [0, 5, 6, 7, 8])  # 1, 32, 64, 128 and 256 fillings
    def test_all_mode_across_block_edges(self, z):
        same_as_reference(with_zeros(z), "all")
        same_as_reference(with_zeros(z), "sample", 65, seed=z)

    def test_all_mode_of_a_block_coloring(self):
        same_as_reference(block_coloring(3, 2), "all")

    @pytest.mark.parametrize("case", sorted(PLANTED))
    def test_planted_violations(self, case):
        r, n, plus, fill, _, _ = PLANTED[case]
        colors = np.full(comb(n, r), -1, dtype=np.int8)
        colors[[colex_rank(e) for e in plus]] = 1
        zeros = [colex_rank(e) for e in fill]
        colors[zeros] = 0
        t = hand_built(r, n, colors, zeros)
        same_as_reference(t, "all")
        same_as_reference(t, "sample", 65, seed=1)

    @pytest.mark.parametrize("r,h,mode,count", [
        (3, 2, "all", 0), (3, 3, "sample", 65), (4, 2, "sample", 65), (5, 2, "sample", 65)])
    def test_every_filling_of_a_flipped_template_is_checked_alone(
            self, full_checks, r, h, mode, count):
        yields = same_as_reference(flipped_half(r, h), mode, count, seed=4)
        assert full_checks[0] == yields

    def test_block_colorings_need_no_per_filling_check(self, full_checks):
        for r, h in [(3, 2), (3, 3), (4, 2), (5, 2)]:
            full_checks[0] = 0
            assert all(is_monotone(c) for c in completions(block_coloring(r, h), "sample", 65, 4))
            assert full_checks[0] == 1  # the first filling's, which the other 64 share

    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5, 7, 54, 260])
    def test_one_block_draw_is_the_per_sample_stream(self, z):
        count = 65
        block = np.random.default_rng(9).integers(
            0, 2, size=(count, -(-z // 4) * 4), dtype=np.int8)[:, :z]
        rng = np.random.default_rng(9)
        each = np.array([rng.integers(0, 2, size=z, dtype=np.int8) for _ in range(count)])
        assert np.array_equal(block, each), (
            f"numpy no longer draws int8 values in [0, 2) four to a 32-bit word (z = {z}): "
            "completions' block draws no longer give the per-sample stream")

    def test_streaming_working_set_does_not_grow_with_count(self):
        t = block_coloring(5, 2)
        next(completions(t, "sample", 1, 1))  # builds the cached layouts
        peaks = []
        for count in (200, 2000):
            tracemalloc.start()
            try:
                for _ in completions(t, "sample", count, 1):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]  # both traced 1.38 MB, as one filling at a time did


class TestCompletionRefusals:
    """Every refusal of ``completions`` comes before any work on the template."""

    @pytest.fixture
    def no_template_work(self, monkeypatch):
        def touched(*args):
            raise AssertionError("template work before a refusal")
        # the package's ``compositions`` is the function, so the module is imported by name
        monkeypatch.setattr(import_module("signotopes.compositions"), "_touched", touched)

    def test_the_stub_stands_in_for_template_work(self, no_template_work):
        with pytest.raises(AssertionError, match="template work"):
            next(completions(block_coloring(3, 2), mode="sample", count=1))

    @pytest.mark.parametrize("kwargs,error,match", [
        ({"mode": "weird"}, InvalidArgument, "mode must be"),
        ({"mode": "sample", "count": 0}, InvalidArgument, "count >= 1"),
        ({"mode": "sample", "count": 1, "seed": -1}, InvalidArgument, "seed >= 0"),
        ({"mode": "sample", "count": TABLE_CAP + 1}, TooLarge, "table cap"),
        ({"mode": "all"}, TooLarge, "table cap"),
    ])
    def test_argument_refusals(self, no_template_work, kwargs, error, match):
        t = block_coloring(4, 2)  # 48 zeros: mode "all" is over the cap
        with pytest.raises(error, match=match):
            next(completions(t, **kwargs))

    @pytest.mark.parametrize("position,match", [
        (-1, "zero position -1 out of range 0..83"),
        (84, "zero position 84 out of range 0..83"),
        pytest.param(10 ** 5000, "<16610-bit number> out of range", id="huge"),
        ("repeat", "repeated"),
    ])
    @pytest.mark.parametrize("mode", ["all", "sample"])
    def test_position_refusals(self, no_template_work, position, match, mode):
        t = block_coloring(3, 2)
        zeros = t.zero_positions
        zeros = (zeros[0], *zeros) if position == "repeat" else (*zeros[:-1], position)
        bad = TernaryColoring(t.fun, r=3, h=2, n=9, m=3, zero_positions=zeros)
        with pytest.raises(InvalidArgument, match=match):
            next(completions(bad, mode=mode, count=1))


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
