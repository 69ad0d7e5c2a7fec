import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations, product
from math import comb

from signotopes import (
    SignFunction,
    block_coloring,
    colex_rank,
    completions,
    dumps,
    is_monotone,
    is_transitive,
    link_sequence,
    loads,
    monotone_violation,
    read_file,
    tower_coloring,
    transitive_violation,
    write_file,
)
from signotopes.core import MAX_FILE_BYTES, TABLE_CAP, _capped_comb, check_size, colex_layout
from signotopes.errors import InvalidEdge, ParseError, TernaryNotAllowed, TooLarge


# -- reference implementations kept deliberately naive ------------------------

def ref_colex_order(n, r):
    """Colex order on increasing tuples = lex order on reversed tuples."""
    return sorted(combinations(range(1, n + 1), r), key=lambda e: tuple(reversed(e)))


def ref_deletion_sequence(color_of, subset):
    """Colors of the r-subsets of `subset`, largest element deleted first."""
    out = []
    for i in range(len(subset) - 1, -1, -1):
        out.append(color_of[subset[:i] + subset[i + 1:]])
    return out


def ref_first_violation(color_of, n, r, transitive=False):
    """Colex-first (r+1)-subset that breaks monotonicity (or transitivity)."""
    for s in ref_colex_order(n, r + 1):
        seq = ref_deletion_sequence(color_of, s)
        if transitive:
            if seq[0] == seq[-1] and any(v != seq[0] for v in seq):
                return s
        elif sum(1 for a, b in zip(seq, seq[1:]) if a != b) > 1:
            return s
    return None


def reference_sign_changes(c):
    """The whole-table kernel: per (r+1)-subset in colex order, does its deletion
    sequence change sign twice, and do its first and last colors agree?"""
    table = colex_layout(c.n, c.r + 1).deletion
    first = prev = c.colors[table[:, 0]]
    once, twice = np.zeros((2, len(table)), dtype=bool)
    for column in table.T[1:]:
        cur = c.colors[column]
        changed = cur != prev
        twice |= once & changed
        once |= changed
        prev = cur
    return twice, first == prev


def reference_violations(c):
    """First monotone and first transitive violation, off the whole-table kernel."""
    twice, ends_agree = reference_sign_changes(c)
    edges = colex_layout(c.n, c.r + 1).edges
    return tuple(tuple(edges[rows[0]].tolist()) if len(rows) else None
                 for rows in (np.flatnonzero(twice), np.flatnonzero(twice & ends_agree)))


def ref_is_monotone(color_of, n, r):
    return ref_first_violation(color_of, n, r) is None


def ref_is_transitive(color_of, n, r):
    return ref_first_violation(color_of, n, r, transitive=True) is None


def all_colorings(n, r):
    edges = list(combinations(range(1, n + 1), r))
    for bits in product((-1, 1), repeat=len(edges)):
        yield dict(zip(edges, bits))


def from_color_of(color_of, n, r):
    colors = [color_of[e] for e in ref_colex_order(n, r)]
    return SignFunction(r, n, np.array(colors, dtype=np.int8))


EXAMPLE_134 = SignFunction.from_string(3, 4, "-+-+")  # transitive, not monotone


class TestColex:
    def test_first_subset(self):
        assert colex_rank((1, 2, 3)) == 0

    def test_spot_values(self):
        assert colex_rank((2, 3, 4)) == 3
        assert colex_rank((1, 3)) == 1

    @pytest.mark.parametrize("n,r", [(4, 3), (5, 2), (6, 3), (7, 4)])
    def test_matches_reference_order(self, n, r):
        for want, edge in enumerate(ref_colex_order(n, r)):
            assert colex_rank(edge, n) == want
        assert list(map(tuple, colex_layout(n, r).edges.tolist())) == ref_colex_order(n, r)

    def test_round_trip_small_grid(self):
        # each row of the layout's edge table has its index as its rank
        for n in range(1, 10):
            for r in range(1, n + 1):
                edges = colex_layout(n, r).edges.tolist()
                assert len(edges) == comb(n, r)
                assert [colex_rank(edge, n) for edge in edges] == list(range(len(edges)))

    @given(st.sets(st.integers(1, 12), min_size=1, max_size=5))
    def test_round_trip_property(self, vertices):
        edge = tuple(sorted(vertices))
        n = edge[-1]
        assert tuple(colex_layout(n, len(edge)).edges[colex_rank(edge, n)].tolist()) == edge

    @given(st.integers(1, 8).flatmap(lambda r: st.lists(
        st.sets(st.integers(1, 10 ** 30), min_size=r, max_size=r), min_size=2, max_size=2)))
    def test_large_ranks_follow_colex_order(self, pair):
        # colex order is lex order on the reversed tuples (ref_colex_order)
        a, b = (tuple(sorted(s)) for s in pair)
        assert (colex_rank(a) < colex_rank(b)) == (a[::-1] < b[::-1])

    def test_rank_of_a_huge_vertex(self):
        # the rank sums C(v_i - 1, i) exactly, however large the vertex
        assert colex_rank((10 ** 12 + 1,)) == 10 ** 12
        assert colex_rank((2, 3, 10 ** 12)) == 1 + 1 + comb(10 ** 12 - 1, 3)

    def test_rejects_bad_tuples(self):
        with pytest.raises(InvalidEdge):
            colex_rank((2, 2, 3))
        with pytest.raises(InvalidEdge):
            colex_rank((3, 1))
        with pytest.raises(InvalidEdge):
            colex_rank((1, 2, 9), n=4)
        with pytest.raises(InvalidEdge):
            colex_rank(())


class TestSizeLimit:
    def test_capped_comb_is_comb_clipped_past_the_cap(self):
        for n in range(30):
            for k in range(-1, n + 2):
                exact = comb(n, k) if k >= 0 else 0
                for cap in (0, 1, 7, 1000, 10 ** 6):
                    assert _capped_comb(n, k, cap) == min(exact, cap + 1)

    def test_check_size_matches_the_exact_entry_count(self):
        for r in range(2, 9):
            for n in range(r, 200):
                entries = max(k * comb(n + 1, k) for k in (r - 1, r, r + 1))
                if entries > TABLE_CAP:
                    with pytest.raises(TooLarge, match="table cap"):
                        check_size(r, n)
                else:
                    check_size(r, n)

    def test_vertex_limits(self):
        for r, n in [(2, 175), (3, 64), (4, 37), (5, 27), (6, 23)]:
            check_size(r, n)
            with pytest.raises(TooLarge):
                check_size(r, n + 1)

    def test_astronomical_sizes_are_refused_without_printing_them(self):
        with pytest.raises(TooLarge, match="bit number"):
            check_size(3, 10 ** 5000)


class TestSignFunction:
    def test_validation(self):
        with pytest.raises(InvalidEdge):
            SignFunction(1, 3, np.array([1, 1, 1], dtype=np.int8))
        with pytest.raises(InvalidEdge):
            SignFunction(2, 1, np.array([], dtype=np.int8))
        with pytest.raises(InvalidEdge):
            SignFunction(2, 3, np.array([1, 1], dtype=np.int8))
        with pytest.raises(InvalidEdge):
            SignFunction(2, 3, np.array([1, 2, 1], dtype=np.int8))
        with pytest.raises(InvalidEdge, match="illegal color character 'x'"):
            SignFunction.from_string(3, 4, "x---")
        for chars, bad in [("-\u00e9--", "'\u00e9'"), ("--\ud800-", "'\\\\ud800'")]:
            with pytest.raises(InvalidEdge, match=f"illegal color character {bad}"):
                SignFunction.from_string(3, 4, chars)
        for color in (2, 300, -10 ** 5000):
            with pytest.raises(InvalidEdge, match="illegal color value"):
                SignFunction.constant(3, 4, color)
        with pytest.raises(TernaryNotAllowed):
            SignFunction(2, 3, np.array([1, 0, 1], dtype=np.int8))
        SignFunction(2, 3, np.array([1, 0, 1], dtype=np.int8), ternary_allowed=True)
        # values are checked as given, before the int8 cast could wrap or truncate them
        for colors, message in [(np.array([255, 257, 1]), "illegal color value 255"),
                                (np.array([1, 255, 1], dtype=np.uint8), "illegal color value 255"),
                                ([1.7, -1.2, 1], "must be integers, got dtype float64"),
                                ([1.0, -1.0, 1.0], "must be integers, got dtype float64"),
                                ([float("nan"), 1, 1], "must be integers, got dtype float64"),
                                ([True, False, True], "must be integers, got dtype bool")]:
            with pytest.raises(InvalidEdge, match=message):
                SignFunction(2, 3, colors, ternary_allowed=True)
        assert SignFunction(2, 3, np.array([1, -1, 1], dtype=np.int64)).colors.dtype == np.int8
        for r, n, message in [(3, -4, "need n >= r, got n=-4, r=3"),
                              (3, 2, "need n >= r, got n=2, r=3"),
                              (1, 3, "uniformity must be >= 2, got 1")]:
            with pytest.raises(InvalidEdge, match=message):
                SignFunction.constant(r, n)
            with pytest.raises(InvalidEdge, match=message):
                SignFunction(r, n, np.array([], dtype=np.int8))

    @pytest.mark.parametrize("ternary", [False, True])
    def test_validation_messages(self, ternary):
        # int8 colors are checked by one byte scan, other dtypes before their cast;
        # the messages, and the first illegal value in index order, are those of
        # the separate range check and zero scan this replaced
        cases = [(np.array(colors, dtype=dtype), InvalidEdge, f"illegal color value {value}")
                 for value in (2, -2, 127, -128)
                 for colors, dtype in [([1, value, 1], np.int8), ([value, 0, -1], np.int8)]]
        cases += [
            (np.array([0, 5, 1], dtype=np.int8), InvalidEdge, "illegal color value 5"),
            (np.array([1, -7, 0], dtype=np.int8), InvalidEdge, "illegal color value -7"),
            (np.array([0, -3, 9], dtype=np.int8), InvalidEdge, "illegal color value -3"),
            (np.array([1, 9, 3, 9, 1, 9], dtype=np.int8)[::2], InvalidEdge,
             "illegal color value 3"),
            (np.array([1, 255, 1], dtype=np.int16), InvalidEdge, "illegal color value 255"),
            (np.array([1, 256, 1], dtype=np.int16), InvalidEdge, "illegal color value 256"),
            (np.array([0, -255, 1], dtype=np.int16), InvalidEdge, "illegal color value -255"),
            (np.array([1, -32768, 1], dtype=np.int16), InvalidEdge, "illegal color value -32768"),
            (np.array([0, 65535, 1], dtype=np.uint16), InvalidEdge, "illegal color value 65535"),
            (np.array([1, 257, 1], dtype=np.uint16), InvalidEdge, "illegal color value 257"),
            (np.array([1, -1, 300], dtype=">i4"), InvalidEdge, "illegal color value 300"),
            (np.array([[1, 1, 1]], dtype=np.int8), InvalidEdge,
             "expected 3 colors for r=2, n=3, got shape (1, 3)"),
            (np.array([[1], [1], [1]], dtype=np.int8), InvalidEdge,
             "expected 3 colors for r=2, n=3, got shape (3, 1)"),
            (np.array(1, dtype=np.int8), InvalidEdge, "expected 3 colors for r=2, n=3, got shape ()"),
            ([1, 2 ** 70, 1], InvalidEdge, "colors must be integers, got dtype object"),
        ]
        for colors, kind, message in cases:
            with pytest.raises(kind) as raised:
                SignFunction(2, 3, colors, ternary_allowed=ternary)
            assert type(raised.value) is kind and str(raised.value) == message
        for colors in (np.array([1, 0, 1], dtype=np.int8), np.array([0, 1, 1], dtype=np.uint16),
                       np.array([1, -1, 0], dtype=">i4"), [1, 0, -1]):
            if ternary:
                c = SignFunction(2, 3, colors, ternary_allowed=True)
                assert 0 in c.colors.tolist() and not c.is_binary and c.colors.dtype == np.int8
            else:
                with pytest.raises(TernaryNotAllowed, match="^0 entries require ternary_allowed=True$"):
                    SignFunction(2, 3, colors)
        for colors in (np.array([1, -1, 1], dtype=np.int16),
                       np.array([1, 1, 1], dtype=np.uint8), np.array([-1, 1, -1], dtype=">i4"),
                       np.array([1, 9, -1, 9, 1, 9], dtype=np.int8)[::2]):
            c = SignFunction(2, 3, colors, ternary_allowed=ternary)
            assert c.is_binary and c.colors.dtype == np.int8
            assert c.colors.tolist() == np.asarray(colors).tolist()

    def test_colors_are_a_read_only_copy(self):
        for dtype in (np.int8, np.int64):
            given_colors = np.array([1, -1, 1], dtype=dtype)
            c = SignFunction(2, 3, given_colors)
            given_colors[:] = 5
            assert c.colors.tolist() == [1, -1, 1]
            assert not c.colors.flags.writeable
            with pytest.raises(ValueError):
                c.colors[0] = -1

    def test_vertex_cap(self):
        with pytest.raises(TooLarge):
            SignFunction.constant(3, 65)
        SignFunction.constant(2, 70)

    @pytest.mark.parametrize("r,n", [(2, 175), (3, 64), (4, 37)])
    def test_table_cap_boundary(self, r, n):
        assert SignFunction.constant(r, n).n == n
        with pytest.raises(TooLarge):
            SignFunction.constant(r, n + 1)

    def test_refused_constant_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                SignFunction.constant(2, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_immutability(self):
        c = SignFunction.constant(3, 4)
        with pytest.raises(ValueError):
            c.colors[0] = 1

    def test_color_lookup(self):
        assert EXAMPLE_134.color((1, 2, 3)) == -1
        assert EXAMPLE_134.color((1, 2, 4)) == 1
        with pytest.raises(InvalidEdge):
            EXAMPLE_134.color((1, 2))

    def test_equality_ignores_ternary_flag(self):
        a = SignFunction.constant(3, 4)
        b = SignFunction(3, 4, a.colors, ternary_allowed=True)
        assert a == b and hash(a) == hash(b)


class TestLinkSequence:
    def test_pair_example(self):
        color_of = {(1, 2): 1, (1, 3): 1, (2, 3): -1}
        c = from_color_of(color_of, 3, 2)
        assert link_sequence(c, (1, 2, 3)) == (1, 1, -1)

    def test_all_minus(self):
        c = SignFunction.constant(3, 5)
        assert link_sequence(c, (1, 3, 4, 5)) == (-1, -1, -1, -1)

    def test_known_non_monotone_example(self):
        assert link_sequence(EXAMPLE_134, (1, 2, 3, 4)) == (-1, 1, -1, 1)

    def test_wrong_size(self):
        with pytest.raises(InvalidEdge):
            link_sequence(EXAMPLE_134, (1, 2, 3))

    def test_zero_entries_rejected(self):
        c = SignFunction(3, 4, np.array([0, 1, 1, 1], dtype=np.int8), ternary_allowed=True)
        with pytest.raises(TernaryNotAllowed):
            link_sequence(c, (1, 2, 3, 4))


class TestPredicates:
    def test_example_not_monotone_with_witness(self):
        assert not is_monotone(EXAMPLE_134)
        assert monotone_violation(EXAMPLE_134) == (1, 2, 3, 4)

    def test_example_is_transitive(self):
        assert is_transitive(EXAMPLE_134)
        assert transitive_violation(EXAMPLE_134) is None

    @pytest.mark.parametrize("r,n", [(3, 6), (2, 9), (4, 8), (3, 12), (3, 20)])
    def test_witnesses_are_tuples_of_python_ints(self, r, n):
        # the witnesses go into JSON manifests and messages as they are
        rng = np.random.default_rng(n)
        c = SignFunction(r, n, rng.choice((-1, 1), size=comb(n, r)).astype(np.int8))
        for witness in (monotone_violation(c), transitive_violation(c)):
            assert type(witness) is tuple and len(witness) == r + 1
            assert all(type(v) is int for v in witness)
            assert list(witness) == sorted(set(witness)) and witness[-1] <= n
        assert colex_rank(monotone_violation(c), n) == c._violations[0]

    def test_constant_colorings(self):
        for color in (-1, 1):
            c = SignFunction.constant(3, 6, color)
            assert is_monotone(c) and is_transitive(c)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_counts_against_reference(self, r):
        n = r + 1
        mono = trans = 0
        for color_of in all_colorings(n, r):
            c = from_color_of(color_of, n, r)
            assert is_monotone(c) == ref_is_monotone(color_of, n, r)
            assert is_transitive(c) == ref_is_transitive(color_of, n, r)
            mono += is_monotone(c)
            trans += is_transitive(c)
        assert mono == 2 * r + 2
        assert trans == 2 ** r + 2

    def test_agrees_with_reference_on_k25(self):
        for color_of in all_colorings(5, 2):
            c = from_color_of(color_of, 5, 2)
            assert is_monotone(c) == ref_is_monotone(color_of, 5, 2)

    def test_monotone_implies_transitive_exhaustive(self):
        for r in (2, 3, 4):
            for color_of in all_colorings(r + 1, r):
                c = from_color_of(color_of, r + 1, r)
                if is_monotone(c):
                    assert is_transitive(c)

    def test_monotone_implies_transitive_sampled(self):
        from signotopes import random_monotone_coloring

        for r, n in [(3, 6), (3, 7), (4, 6), (4, 7)]:
            for seed in range(25):
                c = random_monotone_coloring(r, n, seed)
                assert is_monotone(c)
                assert is_transitive(c)

    @given(st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=60)
    def test_color_swap_preserves_predicates(self, word):
        colors = [(1 if (word >> i) & 1 else -1) for i in range(10)]
        c = SignFunction(3, 5, np.array(colors, dtype=np.int8))
        assert is_monotone(c) == is_monotone(c.swapped())
        assert is_transitive(c) == is_transitive(c.swapped())

    def test_ternary_rejected(self):
        c = SignFunction(3, 4, np.array([0, 1, 1, 1], dtype=np.int8), ternary_allowed=True)
        with pytest.raises(TernaryNotAllowed):
            is_monotone(c)
        with pytest.raises(TernaryNotAllowed):
            is_transitive(c)

    def test_trivial_n_equals_r(self):
        assert is_monotone(SignFunction.constant(3, 3))
        for r in range(2, 6):  # no (r+1)-subsets, so nothing to violate
            for color in (-1, 1):
                c = SignFunction.constant(r, r, color)
                assert monotone_violation(c) is None and transitive_violation(c) is None

    # (colors, monotone witness, transitive witness) at (3, 6), as the uncached scan gave them
    WITNESSES = [("+----+++----+---++--", (1, 2, 3, 5), (1, 2, 3, 5)),
                 ("++++++-++-+-----+-++", (2, 3, 4, 5), (1, 3, 5, 6)),
                 ("+-+-++++++++++++++--", (1, 2, 3, 4), None),
                 ("+++-++-+++++-+-+----", None, None)]

    @pytest.mark.parametrize("chars,mono,trans", WITNESSES)
    def test_cached_witnesses_do_not_depend_on_call_order(self, chars, mono, trans):
        first, second = SignFunction.from_string(3, 6, chars), SignFunction.from_string(3, 6, chars)
        assert transitive_violation(first) == trans and monotone_violation(first) == mono
        assert monotone_violation(second) == mono and transitive_violation(second) == trans
        assert is_monotone(first) == (mono is None) and is_transitive(first) == (trans is None)

    @pytest.mark.parametrize("chars", [w[0] for w in WITNESSES])
    def test_cached_state_is_invisible(self, chars):
        checked, fresh = SignFunction.from_string(3, 6, chars), SignFunction.from_string(3, 6, chars)
        is_monotone(checked), is_transitive(checked)
        again = pickle.loads(pickle.dumps(checked))
        for other in (fresh, again):
            assert other == checked and hash(other) == hash(checked)
            assert monotone_violation(other) == monotone_violation(checked)
            assert transitive_violation(other) == transitive_violation(checked)
        assert fresh.color_string() == checked.color_string() == again.color_string()
        assert dumps(again) == dumps(fresh)

    def test_ternary_refusal_is_not_cached(self):
        c = SignFunction(3, 4, np.array([0, 1, 1, 1], dtype=np.int8), ternary_allowed=True)
        for check in (is_monotone, transitive_violation, is_monotone):
            with pytest.raises(TernaryNotAllowed):
                check(c)

    def test_checked_colorings_keep_no_arrays(self):
        # A checked coloring keeps its two violation ranks, not the C(n, r+1)-entry
        # arrays they come from: 17,550 entries for each completion here, which for a
        # thousand held completions comes to 35 MB.  The bound is the 3.15 MB traced
        # before the ranks were cached, with 0.85 MB to spare.
        t = block_coloring(3, 3)
        is_monotone(next(completions(t, mode="sample", count=1, seed=0)))  # builds the tables
        tracemalloc.start()
        try:
            held = list(completions(t, mode="sample", count=1000, seed=1))
            for c in held:
                assert is_monotone(c) and is_transitive(c)
                assert monotone_violation(c) is None and transitive_violation(c) is None
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 4_000_000
        assert [k for k, v in vars(held[0]).items() if isinstance(v, np.ndarray)] == ["colors"]

    @pytest.mark.parametrize("r,n", [(r, n) for r in range(2, 6) for n in range(r + 1, 10)])
    def test_first_violation_matches_reference_scan(self, r, n):
        from signotopes import random_monotone_coloring

        rng = np.random.default_rng(1000 * r + n)
        edges = ref_colex_order(n, r)
        samples = []
        for seed in range(4):
            colors = random_monotone_coloring(r, n, seed, max_edges=200).colors.copy()
            flips = rng.choice(len(edges), size=min(1 + seed % 3, len(edges)), replace=False)
            colors[flips] *= -1
            samples.append(colors)
        samples += [rng.choice((-1, 1), size=len(edges)).astype(np.int8) for _ in range(3)]
        for colors in samples:
            c = SignFunction(r, n, colors)
            color_of = dict(zip(edges, colors.tolist()))
            want = ref_first_violation(color_of, n, r), ref_first_violation(color_of, n, r, True)
            assert (monotone_violation(c), transitive_violation(c)) == want
            assert reference_violations(c) == want

    def test_change_counts_fit_in_a_byte(self):
        # rows are counted in uint8: a row of r + 1 faces changes sign r times at
        # most, and r = 175 is the largest check_size admits (63 with a row at all)
        check_size(175, 175)
        for r, n in ((176, 176), (64, 65)):
            with pytest.raises(TooLarge):
                check_size(r, n)
        r, n = 63, 64
        row = colex_layout(n, r + 1).deletion[0]
        for flips in (63, 62, 2, 1):  # the row's one (r+1)-subset changes sign flips times
            colors = np.empty(n, dtype=np.int8)
            colors[row] = [(-1) ** (min(j, flips) + 1) for j in range(r + 1)]
            c = SignFunction(r, n, colors)
            mono, trans = monotone_violation(c), transitive_violation(c)
            assert (mono, trans) == reference_violations(c)
            assert (mono is None) == (flips < 2)

    # Sizes whose blocks past the split h = core._head(r, n) are checked one at a time.
    STREAMED = [(3, 40), (3, 64), (4, 30), (2, 175)]

    @staticmethod
    def block_edge(rng, r, v):
        """The colex rank of a random r-subset with largest vertex v."""
        return int(rng.integers(comb(v - 1, r), comb(v, r)))

    @staticmethod
    def consecutive_faces(r, a, faces):
        """The colex ranks of the given faces of {a, ..., a + r}, face j deleting
        its (r+1-j)-th smallest element: in a constant coloring, flipping them
        changes the deletion sequence of that (r+1)-subset alone."""
        s = tuple(range(a, a + r + 1))
        return [colex_rank(s[:r - j] + s[r - j + 1:]) for j in faces]

    @pytest.mark.parametrize("r,n", STREAMED)
    def test_first_violation_past_the_split_matches_whole_table_kernel(self, r, n):
        from signotopes.core import _head

        h = _head(r, n)
        assert h < n
        rng = np.random.default_rng(100 * r + n)
        layout = colex_layout(n, r)
        smallest = rng.choice((-1, 1), size=n + 1).astype(np.int8)
        bases = [np.full(comb(n, r), -1, dtype=np.int8),
                 smallest[layout.edges[:, 0]]]  # colored by the smallest vertex: monotone
        if r == 3:
            bases.append(tower_coloring(3, 6).colors[:comb(n, 3)].copy())  # the tower on [n]
        samples = []
        for base in bases:
            samples.append(base)
            for v in (r + 2, h, h + 1, (h + 1 + n) // 2, n):  # head, first streamed, middle, last
                for k in range(1, 4):
                    colors = base.copy()
                    colors[[self.block_edge(rng, r, v) for _ in range(k)]] *= -1
                    samples.append(colors)
        for v in (h + 1, n):
            # Constant but for {1, ..., r-1, v}: the first row of block v, {1, ..., r, v},
            # is the first violation of both kinds.
            colors = np.full(comb(n, r), -1, dtype=np.int8)
            colors[colex_rank((*range(1, r), v))] = 1
            assert reference_violations(SignFunction(r, n, colors)) == ((*range(1, r + 1), v),) * 2
            samples.append(colors)
        if r >= 3:
            # Constant but for two planted subsets: {a, ..., a+r} with faces 1 and r flipped
            # changes sign three times between unequal ends, a monotone violation only, and
            # {b, ..., b+r} with face 1 flipped is a transitive one, in a later block.
            for a, b in ((1, h), (h - r, h + 2), (h + 1 - r, n - r)):
                colors = np.full(comb(n, r), -1, dtype=np.int8)
                colors[self.consecutive_faces(r, a, (1, r)) + self.consecutive_faces(r, b, (1,))] = 1
                c = SignFunction(r, n, colors)
                assert reference_violations(c) == (tuple(range(a, a + r + 1)),
                                                   tuple(range(b, b + r + 1)))
                samples.append(colors)
        for colors in samples:
            c = SignFunction(r, n, colors)
            assert (monotone_violation(c), transitive_violation(c)) == reference_violations(c)


class TestFileFormat:
    def test_example_serialization(self):
        assert dumps(EXAMPLE_134) == "MONO 1\nr=3 n=4\n-+-+\n"

    def test_ternary_single_edge(self):
        c = SignFunction(3, 3, np.array([0], dtype=np.int8), ternary_allowed=True)
        assert dumps(c) == "MONO 1\nr=3 n=3\n0\n"
        assert loads(dumps(c)) == c

    @given(st.integers(0, 2 ** 10 - 1), st.sampled_from([(2, 5), (3, 5), (4, 6)]))
    @settings(max_examples=60)
    def test_round_trip(self, word, shape):
        r, n = shape
        colors = [(1 if (word >> (i % 10)) & 1 else -1) for i in range(comb(n, r))]
        c = SignFunction(r, n, np.array(colors, dtype=np.int8))
        assert loads(dumps(c)) == c

    def test_file_round_trip(self, tmp_path):
        target = tmp_path / "example.mono"
        write_file(EXAMPLE_134, target)
        assert read_file(target) == EXAMPLE_134
        assert target.read_bytes() == b"MONO 1\nr=3 n=4\n-+-+\n"

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("MONO 2\nr=3 n=4\n-+-+\n", 1, 1),
            ("MONO 1\nr=3, n=4\n-+-+\n", 2, 1),
            ("MONO 1\nr=3 n=4\n-+-\n", 3, 4),
            ("MONO 1\nr=3 n=4\n-+x+\n", 3, 3),
            ("MONO 1\nr=3 n=4\n-+-\u00e9\n", 3, 4),
            ("MONO 1\nr=3 n=4\n-\ud800-+\n", 3, 2),
            ("MONO 1\nr=3 n=4\n\U0001f600+-+-\n", 3, 1),
            ("MONO 1\nr=3 n=4\n-+-+\njunk\n", 4, 1),
            # past C(n, r) nothing is decoded: the length is the error
            ("MONO 1\nr=3 n=4\n-+-+x\n", 3, 6),
        ],
    )
    def test_parse_errors_carry_position(self, text, line, col):
        with pytest.raises(ParseError) as err:
            loads(text)
        assert err.value.line == line
        assert err.value.column == col

    # int() reads any Unicode decimal digit; the header admits ASCII ones only.
    @pytest.mark.parametrize("header", ["r=\u0663 n=\u0665", "r=\uff13 n=\uff15"],
                             ids=["arabic-indic", "fullwidth"])
    def test_non_ascii_header_digits_are_refused(self, header):
        with pytest.raises(ParseError) as err:
            loads(f"MONO 1\n{header}\n----------\n")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_long_colors_line_is_measured_not_decoded(self):
        text = "MONO 1\nr=2 n=3\n" + "-" * 10**7 + "\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.line, err.value.column) == (3, 10**7 + 1)
        # The split lines copy the text once; decoding all of it traced 95 MB.
        assert peak < len(text) + (1 << 20)

    def test_trailing_content_after_many_newlines_is_found_without_splitting(self):
        text = "MONO 1\nr=2 n=3\n---" + "\n" * 10**7 + "x"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="unexpected trailing content 'x'") as err:
                loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.line, err.value.column) == (10**7 + 3, 1)
        # Splitting at every newline traced 161 MB: one string per empty line.
        assert peak < len(text) + (1 << 20)

    def test_file_longer_than_any_coloring_is_refused_unread(self, tmp_path):
        # (8, 20) has the most colors of any admitted (r, n): 125,970.
        assert len(dumps(SignFunction.constant(8, 20))) <= MAX_FILE_BYTES
        head = b"MONO 1\nr=2 n=3\n"
        target = tmp_path / "long.mono"
        target.write_bytes(head + b"-" * (MAX_FILE_BYTES + 1 - len(head)))
        with pytest.raises(TooLarge):
            read_file(target)
        target.write_bytes(head + b"-" * (MAX_FILE_BYTES - len(head)))
        with pytest.raises(ParseError, match="expected 3 colors"):
            read_file(target)


class TestSymmetries:
    def test_reversal_is_involution(self):
        c = EXAMPLE_134
        assert c.reversed_order().reversed_order() == c

    def test_reversal_preserves_monotonicity(self):
        from signotopes import enumerate_monotone

        for c in enumerate_monotone(3, 5):
            assert is_monotone(c.reversed_order())


class TestDerivedColorings:
    """`SignFunction._derived` stores colors the package derived as -1/+1 without
    scanning them; each use is checked here against the public constructor."""

    @pytest.fixture
    def derived(self, monkeypatch):
        """Every `_derived` call also builds `SignFunction(r, n, colors)`, which
        validates, and compares; the (r, n) of each call are returned."""
        original = SignFunction._derived
        calls = []

        def checked(cls, r, n, colors):
            public = SignFunction(r, n, colors)
            out = original(r, n, colors)
            assert out == public and hash(out) == hash(public)
            assert out.is_binary and not out.ternary_allowed and out.colors.dtype == np.int8
            assert not out.colors.flags.writeable
            calls.append((r, n))
            return out

        monkeypatch.setattr(SignFunction, "_derived", classmethod(checked))
        return calls

    @pytest.mark.parametrize("r,n,count", [(3, 6, 908), (4, 6, 148)])
    def test_enumerated_leaves_and_their_projections(self, derived, r, n, count):
        from signotopes import enumerate_monotone, projection_signature

        found = list(enumerate_monotone(r, n))
        assert derived == [(r, n)] * count == [(c.r, c.n) for c in found]
        for c in found:
            sig = projection_signature(c)
            assert [q.n for q in sig] == list(range(r - 1, n))
        assert len(derived) == count * (n - r + 2)

    @pytest.mark.parametrize("r,n", [(3, 8), (4, 7)])
    def test_samples_and_their_projections(self, derived, r, n):
        from signotopes import projection_signature, random_monotone_coloring

        for seed in range(200):
            c = random_monotone_coloring(r, n, seed)
            assert derived[-1] == (r, n)
            sig = projection_signature(c)
            assert derived[-len(sig):] == [(r - 1, i - 1) for i in range(r, n + 1)]
        assert len(derived) == 200 * (n - r + 2)

    def test_signs_from_wiring(self, derived):
        from signotopes import enumerate_monotone, signs_from_wiring, wiring_diagram

        colorings = list(enumerate_monotone(3, 6)) + [tower_coloring(3, 6)]
        derived.clear()
        for c in colorings:
            assert signs_from_wiring(wiring_diagram(c)) == c
        assert derived == [(c.r, c.n) for c in colorings]

    @pytest.mark.parametrize("r,h,count", [(3, 3, 200), (5, 2, 20)])
    def test_completions(self, derived, r, h, count):
        t = block_coloring(r, h)
        filled = list(completions(t, mode="sample", count=count, seed=5))
        assert derived == [(r, r ** h)] * count and len(set(filled)) == count
        assert all(is_monotone(c) for c in filled)

    def test_derived_colorings_take_no_more_memory_than_checked_ones(self):
        # their fields are set as the dataclass sets them, without an instance dict
        from signotopes import enumerate_monotone

        arrays = [c.colors for c in enumerate_monotone(3, 6)]

        def traced(build):
            tracemalloc.start()
            try:
                held = [build(colors) for colors in arrays]
                return tracemalloc.get_traced_memory()[0] / len(held)
            finally:
                tracemalloc.stop()

        public = traced(lambda colors: SignFunction(3, 6, colors))
        assert traced(lambda colors: SignFunction._derived(3, 6, colors.copy())) <= public

    def test_derived_colors_are_not_shared_with_the_work_buffer(self):
        t = block_coloring(3, 2)
        filled = list(completions(t))
        assert len({c.colors.tobytes() for c in filled}) == len(filled) == 64
        assert all(not c.colors.flags.writeable for c in filled)
