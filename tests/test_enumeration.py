import dataclasses
import itertools
import json
import os
import random
import time
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from math import comb, factorial, log2, prod

from signotopes import (
    SignFunction,
    brute_force_monotone_count,
    brute_force_transitive_count,
    count_monotone,
    enumerate_monotone,
    find_avoiding_coloring,
    is_monotone,
    longest_mono_paths,
    project,
    projection_signature,
    ramsey_number,
    random_monotone_coloring,
    tow,
)
from signotopes import enumeration
from signotopes.core import TABLE_CAP, colex_layout
from signotopes.enumeration import AtLeast, CountReport, _extend, _join, _search, _search_tables
from signotopes.errors import InvalidArgument, TooLarge

EXAMPLE_134 = SignFunction.from_string(3, 4, "-+-+")


class TestEnumerate:
    def test_single_edge(self):
        got = list(enumerate_monotone(3, 3))
        assert len(got) == 2

    @pytest.mark.parametrize(
        "r,n",
        [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6)],
    )
    def test_agrees_with_brute_force(self, r, n):
        got = list(enumerate_monotone(r, n))
        assert all(is_monotone(c) for c in got)
        assert len(set(got)) == len(got)
        assert len(got) == brute_force_monotone_count(r, n)

    def test_small_complete_counts(self):
        for r in range(3, 6):
            assert len(list(enumerate_monotone(r, r + 1))) == 2 * r + 2

    def test_golden_count_k36_against_brute_force(self):
        # 20 edges, well inside the 2^C(n,r) filtering oracle's 21
        assert brute_force_monotone_count(3, 6) == 908
        assert count_monotone(3, 6).count == 908
        with pytest.raises(TooLarge, match="beyond brute force"):
            brute_force_monotone_count(2, 8)  # 28 edges
        # 2^21 <= TABLE_CAP < 2^22: 21 edges are walked, 22 and more refused
        assert 2 ** 21 <= TABLE_CAP < 2 ** 22
        assert brute_force_monotone_count(20, 21) == 42
        assert brute_force_transitive_count(20, 21) == 2 ** 20 + 2
        for r in (21, 22, 23):
            for count in (brute_force_monotone_count, brute_force_transitive_count):
                with pytest.raises(TooLarge, match="beyond brute force"):
                    count(r, r + 1)
        for r, n in [(1, 5), (3, 2), (0, 3), (2, -1), (10 ** 5000, 3), (3, -10 ** 5000)]:
            for count in (brute_force_monotone_count, brute_force_transitive_count):
                with pytest.raises(InvalidArgument, match="need 2 <= r <= n"):
                    count(r, n)

    def test_pair_count_equals_factorial(self):
        # frozen from brute force; coincides with the permutation count
        assert len(list(enumerate_monotone(2, 4))) == 24
        assert 24 == factorial(4)

    def test_swap_and_reversal_are_involutions_on_the_set(self):
        colorings = set(enumerate_monotone(3, 5))
        assert {c.swapped() for c in colorings} == colorings
        assert {c.reversed_order() for c in colorings} == colorings
        assert sum(1 for c in colorings if c.swapped() == c) == 0

    def test_prefix_split_partitions_the_search(self):
        full = set(enumerate_monotone(3, 5))
        split = set()
        for a in (-1, 1):
            for b in (-1, 1):
                split |= set(enumerate_monotone(3, 5, prefix=(a, b)))
        assert split == full

    def test_inconsistent_full_prefix_yields_nothing(self):
        # edges 12, 13, 23 colored -, +, -: the sequence of {1, 2, 3} changes sign twice
        assert list(enumerate_monotone(2, 3, prefix=(-1, 1, -1))) == []
        assert len(list(enumerate_monotone(2, 3, prefix=(-1, 1, 1)))) == 1

    def test_edge_cap_is_overridable(self):
        with pytest.raises(TooLarge):
            next(enumerate_monotone(2, 13))
        assert next(enumerate_monotone(2, 13, max_edges=100)) is not None

    def test_node_budget(self):
        with pytest.raises(TooLarge):
            list(enumerate_monotone(3, 5, max_nodes=10))

    def test_deep_search_stays_off_the_call_stack(self):
        # 1,225 edges: one stack frame per edge would pass the recursion limit
        assert is_monotone(next(enumerate_monotone(2, 50, max_edges=2000)))

    def test_argument_validation(self):
        with pytest.raises(InvalidArgument):
            list(enumerate_monotone(1, 3))
        with pytest.raises(InvalidArgument):
            list(enumerate_monotone(3, 2))
        with pytest.raises(InvalidArgument):
            list(enumerate_monotone(3, 4, prefix=(0, 1)))


class TestRandomColoring:
    def test_deterministic_and_monotone(self):
        a = random_monotone_coloring(3, 7, 11)
        b = random_monotone_coloring(3, 7, 11)
        assert a == b and is_monotone(a)
        assert random_monotone_coloring(3, 7, 12) != a


class TestCount:
    def test_exact_small_values(self):
        assert count_monotone(3, 4).count == 8
        assert count_monotone(3, 5).count == 62
        assert count_monotone(2, 5).count == 120

    def test_report_fields(self):
        rep = count_monotone(3, 4)
        assert rep.upper_exponent == 16.0
        assert rep.exponent == log2(8) / 16  # log2(count) / n^(r-1)
        assert rep.bounds_ok
        assert rep.nodes > 0 and rep.seconds >= 0

    def test_pair_counts_skip_bounds(self):
        rep = count_monotone(2, 5)
        assert rep.upper_exponent is None and rep.bounds_ok

    def test_worker_count_does_not_change_result(self):
        assert count_monotone(3, 5, workers=2).count == 62

    def test_worker_count_does_not_change_nodes(self):
        serial = count_monotone(3, 6)
        split = count_monotone(3, 6, workers=2)
        assert (split.count, split.nodes) == (serial.count, serial.nodes)
        assert serial.count == 908

    def test_node_budget_does_not_depend_on_workers(self):
        nodes = count_monotone(3, 5).nodes
        for workers in (1, 2, 3):
            assert count_monotone(3, 5, max_nodes=nodes, workers=workers).count == 62
            with pytest.raises(TooLarge):
                count_monotone(3, 5, max_nodes=nodes - 1, workers=workers)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_is_refused(self, workers):
        with pytest.raises(InvalidArgument):
            count_monotone(3, 4, workers=workers)

    def test_brute_force_transitive_matches_closed_form(self):
        for r in (2, 3, 4, 5, 6):
            assert brute_force_transitive_count(r, r + 1) == 2 ** r + 2


JOIN_SIZES = [(r, n) for r in range(2, 7) for n in range(r, 10) if comb(n, r) <= 35]


def last_extend_of_s3_9():
    """(rows, traced peak) of the last extend of S_3(9), which builds the
    616,472 colorings of [8] with the first edge minus."""
    inf = float("inf")
    table, nodes = (1, [0]), [0]
    for m in range(4, 8):
        table = _extend(table, [(list(p), bits) for p, bits in _join(3, m, table, nodes, inf)])
    leaves = [(list(p), bits) for p, bits in _join(3, 8, table, nodes, inf)]
    tracemalloc.start()
    try:
        size, _ = _extend(table, leaves)
        return size, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_join(r, n, table, nodes, limit, masks=None, steps=None):
    """`_join` as a hook on the engine, deciding each p-edge row by row:
    every row's head masked by its sign pattern, then, by the color of
    the row's first edge, one column ANDed into one color's bitset."""
    size, plus = table
    full = (1 << size) - 1
    pattern = _search_tables(r - 1, n - 1)[2][0].pattern
    runs = [[] for _ in range(comb(n - 1, r - 1))]
    for u, row in enumerate(colex_layout(n - 1, r).deletion.tolist()):
        runs[row[-1]].append((row[:-1], plus[u], full ^ plus[u]))
    edges = len(runs)
    bits = [(full, full)] * (edges + 1)

    def hook(k, colors, mask):
        valid_minus = valid_plus = bits[k][colors[k - 1] > 0]
        if masks:
            valid_minus &= masks[k][0]
            valid_plus &= masks[k][1]
        mask = 3
        for head, col_plus, col_minus in runs[k]:
            mask &= pattern.get(tuple(colors[t] for t in head), 0)
            if colors[head[0]] > 0:
                valid_minus &= col_plus
            else:
                valid_plus &= col_minus
        bits[k + 1] = valid_minus, valid_plus
        mask &= (valid_minus != 0) | (valid_plus != 0) << 1
        if k + 1 < edges:
            nodes[0] += 4 * ((mask & 1 and valid_minus.bit_count())
                             + (mask >> 1 and valid_plus.bit_count()))
            if nodes[0] > limit:
                raise TooLarge(f"search exceeded node budget {limit}")
        return mask

    if steps is None:
        steps = [0, 0]
    for colors in _search(r - 1, n - 1, steps, hook=hook):
        steps[1] += 1
        yield colors, bits[edges][colors[-1] > 0]


def join_outcome(join, r, n, table, masks=None, start=0):
    """Every yield of ``join`` with the node count at it, then the final
    node count and the walk's steps."""
    nodes, steps = [start], [0, 0]
    yields = [(tuple(p), bits, nodes[0])
              for p, bits in join(r, n, table, nodes, float("inf"), masks, steps)]
    return yields, nodes[0], steps


def join_tables(r, n):
    """The join's input tables, the colorings of [m-1] with the first edge
    minus, for m = r+1..n."""
    table = (1, [0])
    for m in range(r + 1, n + 1):
        yield m, table
        if m < n:
            table = _extend(table, [(list(p), bits) for p, bits in _join(r, m, table, [0],
                                                                         float("inf"))])


class TestJoinAgainstReference:
    """`_join`, whose filter runs inside the engine's level step off the
    cached decisions, against the per-row hook it replaced: the same
    yields in the same order, with the same bitsets, node counts at every
    yield and at the end, and the same steps."""

    @pytest.mark.parametrize("r,n", JOIN_SIZES)
    def test_tables_with_and_without_masks(self, r, n):
        draw = random.Random(r * 100 + n)
        for m, table in join_tables(r, n):
            full = (1 << table[0]) - 1
            masks = [(draw.randint(0, full) | draw.randint(0, full), draw.randint(0, full))
                     for _ in range(comb(m - 1, r - 1))]
            for kind in (None, masks):
                want = join_outcome(reference_join, r, m, table, kind, start=7)
                assert join_outcome(_join, r, m, table, kind, start=7) == want

    def test_bands_of_a_first_avoider(self, monkeypatch):
        join, calls = enumeration._join, []

        def recorded(r, n, table, nodes, limit, masks=None, steps=None):
            calls.append((r, n, table, masks))
            return join(r, n, table, nodes, limit, masks, steps)

        monkeypatch.setattr(enumeration, "_join", recorded)
        assert find_avoiding_coloring(3, 9, 5, max_edges=84)[0] is not None
        assert len(calls) > 20 and sum(table[0] > 1 for _, _, table, _ in calls) > 5
        for r, n, table, masks in calls:
            assert join_outcome(join, r, n, table, masks) == \
                join_outcome(reference_join, r, n, table, masks)


def interleaved(walks):
    """Each `_join` walk of ``walks`` = [(r, n, table, masks, start)], all
    started at once and resumed one leaf at a time in turn, as
    `join_outcome` reports it."""
    states = []
    for r, n, table, masks, start in walks:
        nodes, steps = [start], [0, 0]
        states.append((_join(r, n, table, nodes, float("inf"), masks, steps), nodes, steps, []))
    live = list(states)
    while live:
        for state in list(live):
            walk, nodes, _, yields = state
            if (leaf := next(walk, None)) is None:
                live.remove(state)
            else:
                yields.append((tuple(leaf[0]), leaf[1], nodes[0]))
    return [(yields, nodes[0], steps) for _, nodes, steps, yields in states]


class TestPausedWalks:
    """A `_join` walk keeps its state, its rows per color and its node
    count, in its own generator: paused between leaves while other walks
    run, as `_first_avoider` pauses a band's walk and hands it on, it
    yields what it yields alone."""

    def test_interleaved_walks_yield_what_they_yield_alone(self):
        draw = random.Random(5)
        tables = dict(join_tables(3, 7))
        size, plus = tables[7]
        half = (size // 2, enumeration._bits(plus, 0, size // 2))  # same (r, n), other rows
        full = (1 << size) - 1
        masks = [tuple(full ^ sum({1 << draw.randrange(size) for _ in range(9)}) for _ in "-+")
                 for _ in range(comb(6, 2))]  # nine rows fewer per p-edge and color
        walks = [(3, 7, tables[7], None, 0), (3, 7, half, None, 7), (3, 6, tables[6], None, 0),
                 (2, 6, dict(join_tables(2, 6))[6], None, 3), (3, 7, tables[7], masks, 0)]
        alone = [join_outcome(_join, r, n, table, kind, start)
                 for r, n, table, kind, start in walks]
        assert all(len(yields) > 5 for yields, _, _ in alone)
        assert interleaved(walks) == alone
        assert interleaved(walks[::-1]) == alone[::-1]

    @pytest.mark.parametrize("r,n", [(3, 7), (4, 7), (2, 6)])
    def test_a_budget_cut_leaves_the_reference_count(self, r, n):
        table = dict(join_tables(r, n))[n]
        _, total, _ = join_outcome(reference_join, r, n, table)
        for limit in (total // 3, total - 1):
            cut = []
            for join in (_join, reference_join):
                nodes, leaves = [0], []
                with pytest.raises(TooLarge):
                    for p, bits in join(r, n, table, nodes, limit):
                        leaves.append((tuple(p), bits))
                cut.append((leaves, nodes[0]))
            assert cut[0] == cut[1] and cut[0][1] > limit


class TestCountJoin:
    """The extension join against the backtracking engine it replaced."""

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("r,n", JOIN_SIZES)
    def test_matches_engine_leaves_and_nodes(self, r, n, split):
        # split: the last stage's rows go to 3 workers, unevenly where 3 does not divide them
        nodes = [0]
        leaves = sum(1 for _ in _search(r, n, nodes))
        rep = count_monotone(r, n, workers=3 if split else 1)
        assert (rep.count, rep.nodes) == (leaves, nodes[0])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_pair_counts_are_factorials(self, n):
        assert count_monotone(2, n).count == factorial(n)

    def test_pair_counts_split_over_workers(self):
        serial = count_monotone(2, 7)
        split = count_monotone(2, 7, workers=2)
        assert (split.count, split.nodes) == (serial.count, serial.nodes)
        assert serial.count == 5040

    @pytest.mark.parametrize("r,n,workers", [(2, 3, 4), (3, 4, 3), (3, 5, 9)])
    def test_more_workers_than_table_rows(self, r, n, workers):
        # the last stage's table has 1, 1 and 4 rows: one job per row, none empty
        serial = count_monotone(r, n)
        split = count_monotone(r, n, workers=workers)
        assert (split.count, split.nodes) == (serial.count, serial.nodes)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # the last stage's 454 rows make 454 jobs; an in-process pool records its size
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = count_monotone(3, 7)
        split = count_monotone(3, 7, workers=5000)
        assert (split.count, split.nodes) == (serial.count, serial.nodes)
        assert sizes == [3]

    def test_node_budget_raises_before_the_last_stage(self):
        # S_3(8) takes 29,888,526 nodes; the n = 9 stage starts at 2 * S_3(8) more
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            count_monotone(3, 9, max_edges=84, max_nodes=30_000_000)
        assert time.perf_counter() - start < 2

    def test_extend_packs_one_column_at_a_time(self):
        # Spreading the p-columns as one dense bool matrix traced 21.5 MB.
        size, peak = last_extend_of_s3_9()
        assert size == 1_232_944 // 2  # S_3(8), halved by the color swap
        assert peak < 14 << 20

    def test_extend_indexes_rows_once_in_int32(self):
        # 7.44 MB with one int32 row index sized by the popcount sum; an int64
        # array per leaf and their concatenation traced 10.3 MB.
        assert last_extend_of_s3_9()[1] < 7.5 * 2**20

    def test_argument_validation(self):
        with pytest.raises(InvalidArgument):
            count_monotone(1, 3)
        with pytest.raises(InvalidArgument):
            count_monotone(3, 2)
        with pytest.raises(InvalidArgument):
            count_monotone(3, 5, max_nodes=-1)
        with pytest.raises(TooLarge):
            count_monotone(3, 9)


class TestProjection:
    def test_all_minus(self):
        p = project(SignFunction.constant(3, 4), 4)
        assert p == SignFunction.constant(2, 3)

    def test_known_example_projects_to_non_monotone(self):
        p = project(EXAMPLE_134, 4)
        assert p.color_string() == "+-+"
        assert not is_monotone(p)

    def test_projections_of_monotone_are_monotone(self):
        for c in enumerate_monotone(3, 5):
            for i in range(3, 6):
                assert is_monotone(project(c, i))

    def test_signature_shape_and_injectivity(self):
        c = SignFunction.constant(3, 3)
        assert len(projection_signature(c)) == 1
        sigs = {
            tuple(p.colors.tobytes() for p in projection_signature(c))
            for c in enumerate_monotone(3, 4)
        }
        assert len(sigs) == 8

    # a numpy i gave a projection whose n was numpy.int64, which json refuses
    def test_numpy_integer_vertex(self):
        c = random_monotone_coloring(3, 6, 0)
        p = project(c, np.int64(5))
        assert type(p.n) is int and p == project(c, 5)
        assert json.dumps({"n": p.n}) == '{"n": 4}'
        with pytest.raises(TypeError):
            project(c, 5.0)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            project(SignFunction.constant(2, 4), 3)
        with pytest.raises(InvalidArgument):
            project(SignFunction.constant(3, 4), 5)
        with pytest.raises(InvalidArgument):
            project(SignFunction.constant(3, 4), 2)


class TestRamsey:
    def test_pair_paths_match_square_formula(self):
        assert ramsey_number(2, 3, 6).number == 5

    def test_triple_paths_match_binomial_formula(self):
        report = ramsey_number(3, 4, 8)
        assert report.number == 7
        assert report.witness is not None and report.witness.n == 6
        assert is_monotone(report.witness)
        assert longest_mono_paths(report.witness).best < 4

    def test_trivial_length(self):
        report = ramsey_number(3, 3, 5)
        assert report.number == 3  # a single edge is always monochromatic
        assert report.witness is None

    def test_unresolved_reports_lower_bound(self):
        report = ramsey_number(3, 5, 6)
        assert report.number is None
        assert report.lower_bound == 7
        assert report.witness is not None and report.witness.n == 6
        assert longest_mono_paths(report.witness).best < 5

    def test_avoider_search_finds_valid_witnesses(self):
        avoider, _ = find_avoiding_coloring(2, 4, 3)
        assert avoider is not None
        assert is_monotone(avoider)
        assert longest_mono_paths(avoider).best < 3

    def test_deep_avoider_search(self):
        avoider, _ = find_avoiding_coloring(2, 46, 47, max_edges=2000)
        assert avoider is not None and is_monotone(avoider)
        assert longest_mono_paths(avoider).best < 47

    def test_node_budget_covers_the_whole_run(self):
        # n = 4..8 take 7 + 13 + 49 + 181 + 790 nodes; none alone exceeds 800
        assert ramsey_number(2, 4, 8, max_nodes=1040).nodes == 1040
        with pytest.raises(TooLarge):
            ramsey_number(2, 4, 8, max_nodes=1039)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            ramsey_number(3, 2, 5)
        with pytest.raises(InvalidArgument):
            ramsey_number(1, 3, 2)  # no vertex count to search, still rejected
        for n_max in (-2, 3):  # below m: nothing to search, no bound to report
            with pytest.raises(InvalidArgument):
                ramsey_number(3, 4, n_max)
        with pytest.raises(InvalidArgument):
            find_avoiding_coloring(1, 4, 2)
        with pytest.raises(InvalidArgument):
            find_avoiding_coloring(3, 2, 3)
        with pytest.raises(InvalidArgument, match="need m >= r"):
            find_avoiding_coloring(3, 5, 2)

    def test_path_length_is_an_integer(self):
        # 3.5 ran as m = 4 and 4.2 as m = 5 before: refused now
        for r, n, m in [(2, 5, 3.5), (3, 6, 4.2)]:
            with pytest.raises(TypeError):
                find_avoiding_coloring(r, n, m)
        with pytest.raises(TypeError):
            ramsey_number(2, 3.5, 8)
        assert find_avoiding_coloring(2, 5, np.int64(4)) == find_avoiding_coloring(2, 5, 4)

    def test_avoider_search_can_fail(self):
        # every monotone coloring of pairs on 5 vertices has a monochromatic 3-vertex path
        assert find_avoiding_coloring(2, 5, 3) == (None, 110)


def box_permutations(n, side):
    """Permutations of [n] with no increasing or decreasing run of side + 1.

    By Schensted's theorem: the sum of (f^lam)^2 over the partitions lam
    of n inside a side x side box, f^lam by the hook-length formula.
    """
    def shapes(rest, rows, largest):
        if rest == 0:
            yield ()
        elif rows > 0:
            for part in range(min(rest, largest), 0, -1):
                for tail in shapes(rest - part, rows - 1, part):
                    yield (part,) + tail

    total = 0
    for lam in shapes(n, side, side):
        cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
        hooks = prod(lam[i] - j + cols[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
        total += (factorial(n) // hooks) ** 2
    return total


def path_pruner(r, n, m):
    """Engine hook allowing the colors of edge k that close no monochromatic
    m-vertex path: the path-pruned engine, the reference the band join of
    Ramsey search reproduces.  One pass over the windows that can precede
    k gives the longest path ending at k for both colors; both are kept."""
    preds = windows(r, n)
    longest = [(0, 0)] * len(preds)  # per edge: (if colored -1, if colored +1)

    def hook(k, colors, mask):
        to_minus = to_plus = r
        for p in preds[k]:
            if colors[p] > 0:
                if longest[p][1] >= to_plus:
                    to_plus = longest[p][1] + 1
            elif longest[p][0] >= to_minus:
                to_minus = longest[p][0] + 1
        longest[k] = to_minus, to_plus
        return mask & ((to_minus < m) | (to_plus < m) << 1)

    return hook


def pruned_leaves(r, n, m):
    return sum(1 for _ in _search(r, n, [0], hook=path_pruner(r, n, m)))


class TestPathPruner:
    """Exhaustive leaf counts of the engine with the path pruner hooked in."""

    @pytest.mark.parametrize("n,count", [(6, 306), (7, 882), (8, 1_764), (9, 1_764), (10, 0)])
    def test_pairs_match_schensted(self, n, count):
        # for r = 2 a monochromatic monotone path is a monotone subsequence
        assert box_permutations(n, 3) == count
        assert pruned_leaves(2, n, 4) == count

    @pytest.mark.parametrize("r,m,n,count", [
        (3, 4, 6, 20), (3, 5, 6, 778), (4, 5, 6, 46), (2, 4, 7, 882),
    ])
    def test_matches_filtered_enumeration(self, r, m, n, count):
        kept = sum(1 for c in enumerate_monotone(r, n) if longest_mono_paths(c).best < m)
        assert kept == pruned_leaves(r, n, m) == count

    @pytest.mark.parametrize("r,m,n,count", [(3, 5, 7, 15_904), (4, 6, 7, 7_082)])
    def test_baseline_counts(self, r, m, n, count):
        assert pruned_leaves(r, n, m) == count


def reference_consistent(colors, constraint_ranks):
    changes = 0
    prev = colors[constraint_ranks[0]]
    for t in constraint_ranks[1:]:
        cur = colors[t]
        if cur != prev:
            changes += 1
            if changes > 1:
                return False
            prev = cur
    return True


def reference_constraints(r, n):
    """The rows of the (r+1)-subset deletion table, listed under their last entry."""
    constraints = [[] for _ in range(comb(n, r))]
    for row in colex_layout(n, r + 1).deletion.tolist():
        constraints[row[-1]].append(row)
    return constraints


def windows(r, n):
    """Per edge, the first column of each deletion row listed under it: the
    windows that can precede the edge in a monotone path."""
    return [[row[0] for row in rows] for rows in reference_constraints(r, n)]


def reference_search(r, n, nodes, *, max_nodes=None, prefix=(), rng=None, hook=None):
    """The engine before the per-level color masks: every attempt runs the
    constraint rows of its edge, then ``hook(k, colors) -> bool``."""
    edge_count = comb(n, r)
    constraints = reference_constraints(r, n)
    colors = [0] * edge_count

    def fits(k, col):
        colors[k] = col
        for cr in constraints[k]:
            if not reference_consistent(colors, cr):
                return False
        return hook is None or hook(k, colors)

    if not all(fits(k, col) for k, col in enumerate(prefix)):
        return
    limit = float("inf") if max_nodes is None else max_nodes
    count = nodes[0]
    stack = []
    k = len(prefix)
    while True:
        if k == edge_count:
            nodes[0] = count
            yield colors
        else:
            first = 1 if rng is not None and rng.random() < 0.5 else -1
            stack += ((k, -first), (k, first))
        while stack:
            k, col = stack.pop()
            count += 1
            if count > limit:
                raise TooLarge(f"search exceeded node budget {max_nodes}")
            if fits(k, col):
                k += 1
                break
        else:
            nodes[0] = count
            return


def reference_path_pruner(r, n, m):
    """The pruner before both colors were decided in one pass."""
    preds = windows(r, n)
    plen = [0] * len(preds)

    def hook(k, colors):
        col = colors[k]
        longest = r
        for p in preds[k]:
            if colors[p] == col and plen[p] >= longest:
                longest = plen[p] + 1
        plen[k] = longest
        return longest < m

    return hook


def walk(search, r, n, **kwargs):
    """Every leaf in order with the node count at its yield, then the final
    count, or the leaves seen before TooLarge and None."""
    nodes = [0]
    leaves = []
    try:
        for colors in search(r, n, nodes, **kwargs):
            leaves.append((tuple(colors), nodes[0]))
    except TooLarge:
        return leaves, None
    return leaves, nodes[0]


def same_walk(r, n, m=None, seed=None, **kwargs):
    """Walk both engines, the path pruner hooked in when ``m`` is given."""
    walks = [
        walk(search, r, n, hook=pruner(r, n, m) if m else None,
             rng=None if seed is None else random.Random(seed), **kwargs)
        for search, pruner in [(_search, path_pruner), (reference_search, reference_path_pruner)]
    ]
    assert walks[0] == walks[1]
    return walks[0]


ENGINE_SIZES = [(2, 6), (3, 6), (4, 6), (4, 7), (5, 7)]


class TestEngineAgainstReference:
    """The per-level mask engine walks the tree of the per-attempt engine:
    the same leaves in the same order, and the same node count at every
    yield, at the end and at the budget's cut-off."""

    @pytest.mark.parametrize("r,n", ENGINE_SIZES)
    def test_exhaustive(self, r, n):
        leaves, nodes = same_walk(r, n)
        rep = count_monotone(r, n)
        assert (len(leaves), nodes) == (rep.count, rep.nodes)

    @pytest.mark.parametrize("r,n", ENGINE_SIZES)
    def test_random_prefixes(self, r, n):
        draw = random.Random(r * 100 + n)
        inconsistent = 0
        for _ in range(12):
            prefix = [draw.choice((-1, 1)) for _ in range(draw.randint(0, comb(n, r)))]
            leaves, _ = same_walk(r, n, prefix=prefix)
            inconsistent += not leaves
        assert inconsistent > 0  # some draws pin a non-monotone start

    def test_numpy_prefix(self):
        prefix = np.array([-1, 1, 1, 1], dtype=np.int8)
        assert same_walk(3, 6, prefix=prefix)[0]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("r,n", [(2, 6), (3, 6), (4, 6)])
    def test_seeded_order(self, r, n, seed):
        same_walk(r, n, seed=seed)
        same_walk(r, n, m=r + 2, seed=seed)

    @pytest.mark.parametrize("r,n,ms", [
        (2, 7, (3, 4, 5)), (3, 6, (4, 5, 6)), (3, 7, (4, 5)), (4, 7, (5, 6)), (5, 7, (6, 7)),
    ])
    def test_path_pruner(self, r, n, ms):
        for m in ms:
            same_walk(r, n, m=m)
            same_walk(r, n, m=m, prefix=(-1, 1, 1))

    @pytest.mark.parametrize("r,n,m", [(3, 6, None), (2, 7, 4), (4, 6, 5)])
    def test_node_budget_cut_off(self, r, n, m):
        leaves, total = same_walk(r, n, m=m)
        assert same_walk(r, n, m=m, max_nodes=total) == (leaves, total)
        for budget in (total - 1, total // 2, total // 7, 1, 0):
            cut, end = same_walk(r, n, m=m, max_nodes=budget)
            assert end is None and cut == [leaf for leaf in leaves if leaf[1] <= budget]

    def test_large_rank_builds_no_exponential_table(self):
        # The pattern table holds the 2r heads with at most one sign
        # change, not all 2^r, and no decision is cached before a walk,
        # so a large r costs nothing before the walk.
        _, _, decisions = _search_tables(150, 150)
        assert len(decisions[0].pattern) == 300 and decisions == [{}]
        assert sum(1 for _ in _search(150, 150, [0])) == 2
        assert decisions == [{(): (3, (), ())}]  # the one edge has no row
        assert len(list(enumerate_monotone(30, 30))) == 2
        assert find_avoiding_coloring(30, 30, 30) is not None
        assert ramsey_number(30, 30, 30).number == 30
        with pytest.raises(TooLarge):  # its join walks rank 29 on [30]
            count_monotone(30, 31, max_nodes=10**5)


def cached_decisions(r, sizes):
    """How many decisions the tables of rank r on each of ``sizes`` hold."""
    return sum(len(d) for n in sizes for d in _search_tables(r, n)[2])


def reference_decision(r, lo, rows, key):
    """Each row of the level allows the colors that change its sign at most
    once, and the ranks follow the colors of the rows' first edges."""
    assert len(key) == r * len(rows)
    heads = [key[i:i + r] for i in range(0, len(key), r)]
    mask = sum(bit for bit, col in ((1, -1), (2, 1))
               if all(reference_consistent(head + (col,), range(r + 1)) for head in heads))
    ranks = [tuple(u for u, head in enumerate(heads, lo) if head[0] * sign > 0)
             for sign in (1, -1)]
    return mask, *ranks


class TestDecisionCache:
    @pytest.mark.parametrize("r,n", ENGINE_SIZES)
    def test_every_decision_matches_its_rows(self, r, n):
        assert sum(1 for _ in _search(r, n, [0])) == count_monotone(r, n).count
        starts, _, decisions = _search_tables(r, n)
        rows = reference_constraints(r, n)
        assert sum(map(len, decisions)) > 0
        for k, decided in enumerate(decisions):
            for key, decision in decided.items():
                assert decision == reference_decision(r, starts[k], rows[k], key)

    @pytest.mark.parametrize("r,n", ENGINE_SIZES)
    def test_a_miss_stores_exactly_the_key_read(self, r, n):
        starts, readers, decisions = _search_tables(r, n)
        rows = reference_constraints(r, n)
        draw = random.Random(r * 100 + n)
        for _ in range(5):
            colors = [draw.choice((-1, 1)) for _ in readers]
            for k, decided in enumerate(decisions):
                decided.clear()
                key = readers[k](colors)
                decision = decided[key]
                assert dict(decided) == {key: decision}
                assert decision == reference_decision(r, starts[k], rows[k], key)
        # a walk from empty tables stores exactly the keys its readers read
        read, kept = [set() for _ in readers], readers[:]

        def recorded(colors, k, reader):
            key = reader(colors)
            read[k].add(key)
            return key

        readers[:] = [partial(recorded, k=k, reader=reader) for k, reader in enumerate(kept)]
        try:
            for decided in decisions:
                decided.clear()
            same_walk(r, n)
        finally:
            readers[:] = kept
        assert [set(decided) for decided in decisions] == read

    @pytest.mark.parametrize("r,n", ENGINE_SIZES)
    def test_a_second_walk_adds_no_entry(self, r, n):
        _, _, decisions = _search_tables(r, n)
        walk(_search, r, n)
        held = [dict(decided) for decided in decisions]
        # the same walk, a seeded one over the same tree, a pruned one within it
        walk(_search, r, n)
        walk(_search, r, n, rng=random.Random(r + n))
        walk(_search, r, n, hook=path_pruner(r, n, r + 2))
        assert [dict(decided) for decided in decisions] == held

    def test_a_second_count_adds_no_entry(self):
        count_monotone(3, 7)
        held = cached_decisions(2, range(3, 7))
        assert held > 0
        count_monotone(3, 7)
        assert cached_decisions(2, range(3, 7)) == held


def engine_first_avoider(r, n, m, max_nodes=None):
    """The reference: the engine's first leaf on [n] with the path pruner."""
    nodes = [0]
    leaf = next(_search(r, n, nodes, max_nodes=max_nodes, hook=path_pruner(r, n, m)), None)
    return (None if leaf is None else list(leaf)), nodes[0]


def band_first_avoider(r, n, m, **kwargs):
    found, nodes = find_avoiding_coloring(r, n, m, max_edges=2000, **kwargs)
    return (None if found is None else found.colors.tolist()), nodes


AVOIDER_SIZES = [(r, n, m) for r in range(2, 6) for m in range(r, r + 4)
                 for n in range(r, (8 if r < 4 else 7) + 1)] + [(30, 30, 30), (30, 30, 31)]


def reference_ends(r, constraints, colors):
    """Per edge, the longest monochromatic path ending there in its color."""
    ends = []
    for k, rows in enumerate(constraints):
        ends.append(max([r] + [ends[row[0]] + 1 for row in rows if colors[row[0]] == colors[k]]))
    return ends


LEVEL_SIZES = [(r, n, m) for r in range(2, 6) for m in range(r, r + 4)
               for n in range(r, (8 if r == 2 else 7) + 1)]


def check_levels(r, n, m):
    """Check `_avoiders` on [n] against the engine below the first edge
    minus; returns the kinds of batch ("one row", "rows") whose non-first
    leaves had their count checked."""
    # a pinned edge is not counted: the engine's count at each of these
    # leaves is one more, for its attempt of -1 at the first edge
    leaves, _ = walk(_search, r, n, hook=path_pruner(r, n, m), prefix=(-1,))
    leaves = [(colors, nodes + 1) for colors, nodes in leaves]
    _, total = walk(_search, r, n, hook=path_pruner(r, n, m))
    # a count walks the chain of batches below again: every yield is
    # counted up to 100 leaves, evenly spread ones beyond
    step = max(1, len(leaves) // 100)
    constraints = reference_constraints(r, n)
    spent = [0]
    seen, counts, later, source = [], {}, set(), None
    for band, rows, plus, ends in enumeration._levels(r, n, m, float("inf"), spent, [0]):
        size = len(band.plus)
        for flags, row_ends, row in zip(plus, ends, rows):
            seen.append(tuple((flags * 2 - 1).tolist()))
            first_leaf = source != (band, row)
            source = band, row
            if len(seen) % step == 0:
                assert row_ends.tolist() == reference_ends(r, constraints, seen[-1])
                last = list(seen[-1][comb(n - 1, r):])
                counts[len(seen) - 1] = spent[0] + band.count(int(row), last)
                if not first_leaf:
                    later.add("one row" if size == 1 else "rows")
    assert seen == [colors for colors, _ in leaves]
    assert counts == {i: leaves[i][1] for i in counts}
    assert 2 * spent[0] - 2 == total  # the color swap: the root's two attempts, two halves
    return later


def colex_subsets(n, r):
    """The r-subsets of range(n) in colex order."""
    return sorted(itertools.combinations(range(n), r), key=lambda s: s[::-1])


def reference_longest(r, k, plus, ends):
    """Per color, row and p-edge S of rank r-1 on [k-1], the longest
    monochromatic path ending at S + {k} in that color: r, or one more
    than the longest end at a window {a} + S of c of that color, taken
    row by row."""
    windows = colex_subsets(k - 1, r)
    at = {s: i for i, s in enumerate(colex_subsets(k - 1, r - 1))}
    longest = np.full((2, len(plus), len(at)), r, dtype=int)
    for row in range(len(plus)):
        for t, window in enumerate(windows):
            color, s = int(plus[row, t]), at[window[1:]]
            longest[color, row, s] = max(longest[color, row, s], int(ends[row, t]) + 1)
    return longest


class TestBandMasks:
    """A band's masks, from its hot edges, and the ends `grown` returns,
    against the window maxima taken row by row."""

    @pytest.mark.parametrize("r", range(2, 6))
    def test_masks_and_grown_ends_match_window_maxima(self, r):
        draw = np.random.default_rng(r)
        for m in range(r, r + 4):
            for k in range(r, r + 4):
                for size in (1, 5, 70):  # 70: past one 64-bit word per column
                    edges, p_edges = comb(k - 1, r), comb(k - 1, r - 1)
                    plus = draw.random((size, edges)) < 0.5
                    ends = draw.integers(r, m + 2, size=(size, edges)).astype(np.uint8)
                    band = enumeration._Band(r, k, m, None, np.arange(size, dtype=np.int32),
                                             plus, ends)
                    longest = reference_longest(r, k, plus, ends)
                    want = [tuple(sum(1 << i for i in range(size) if longest[x, i, s] < m)
                                  for x in (0, 1)) for s in range(p_edges)]
                    assert band.masks == want
                    assert band.table == (size, [sum(1 << i for i in range(size) if plus[i, t])
                                                 for t in range(edges)])
                    full = (1 << size) - 1
                    for s, p_edge in enumerate(colex_subsets(k - 1, r - 1)):
                        if m == r:
                            assert band.masks[s] == (0, 0)
                        elif 0 in p_edge:  # no window {a} + S: every row may take both
                            assert band.masks[s] == (full, full)
                    rows = np.sort(draw.integers(0, size, size=2 * size)).astype(np.int32)
                    p = draw.random((len(rows), p_edges)) < 0.5
                    got_plus, got_ends = band.grown(rows, p)
                    assert got_plus.tolist() == np.concatenate((plus[rows], p), axis=1).tolist()
                    assert got_ends.dtype == np.uint8
                    assert got_ends.tolist() == [
                        ends[i].tolist() + [int(longest[int(x), i, s]) for s, x in enumerate(q)]
                        for i, q in zip(rows, p)]


class TestLevels:
    """`_avoiders` yields the avoiders on [n] whose first edge is minus in
    the engine's order, each with its path ends and the engine's count at
    its yield, and leaves the root's two attempts and the total of the
    half below -1 in ``spent``: the engine's exhaustive total is
    2 * spent - 2."""

    @pytest.mark.parametrize("r,n,m", LEVEL_SIZES)
    def test_every_yield(self, r, n, m):
        check_levels(r, n, m)

    # A leaf's count is found by walking its row's band up to its colors:
    # the checked yields include later leaves of one-row and of larger batches.
    @pytest.mark.parametrize("r,n,m", [(2, 5, 4), (3, 6, 5), (4, 6, 6), (5, 7, 7)])
    def test_later_leaves_of_both_batch_kinds(self, r, n, m):
        assert check_levels(r, n, m) == {"one row", "rows"}

    # A band's leaves become row flags a block of rows at a time, at most
    # TABLE_CAP / 8 flags per block: under a small cap, batches yield several.
    # A byte range of the leaves' bitsets with no bit set yields no block:
    # (2, 7, 4), (2, 8, 4) and (2, 9, 4) have 3, 1 and 18 such ranges here.
    @pytest.mark.parametrize("r,n,m", [(2, 8, 5), (3, 7, 5), (4, 7, 6),
                                       (2, 7, 4), (2, 8, 4), (2, 9, 4)])
    def test_blocks_of_rows_under_a_small_cap(self, monkeypatch, r, n, m):
        monkeypatch.setattr(enumeration, "TABLE_CAP", 256)
        avoiders, batches = enumeration._avoiders, []

        def recorded(*args):
            for block in avoiders(*args):
                batches.append(block[0])
                assert len(block[1]) > 0
                yield block

        monkeypatch.setattr(enumeration, "_avoiders", recorded)
        check_levels(r, n, m)
        assert any(a is b for a, b in zip(batches, batches[1:]))


def overrun_in_level(monkeypatch, r, k, batch):
    """Make the walk of the ``batch``-th batch of the level on [k] raise
    TooLarge after its last leaf; returns the batches cut.  Only the
    walks `_batches` yields count, not the walks of a leaf's count."""
    batches = enumeration._batches
    cut = []

    def budgeted(walk):
        yield from walk
        cut.append(batch)
        raise TooLarge("search exceeded node budget")

    def numbered(r_, k_, *args):
        for i, (band, walk) in enumerate(batches(r_, k_, *args), 1):
            yield band, budgeted(walk) if (r_, k_, i) == (r, k, batch) else walk

    monkeypatch.setattr(enumeration, "_batches", numbered)
    return cut


class TestFirstAvoiderByBandJoin:
    """`find_avoiding_coloring` walks the edges through vertex n as a join
    per batch of avoiders on [n-1], which come off the same join one
    vertex down; its leaf, node count and budget cut-off are the
    engine's."""

    @pytest.mark.parametrize("r,n,m", AVOIDER_SIZES)
    def test_same_leaf_and_nodes(self, r, n, m):
        leaf, total = engine_first_avoider(r, n, m)
        assert band_first_avoider(r, n, m) == (leaf, total)
        assert band_first_avoider(r, n, m, max_nodes=total) == (leaf, total)

    def test_sizes_cover_both_outcomes(self):
        found = [engine_first_avoider(r, n, m)[0] is not None for r, n, m in AVOIDER_SIZES]
        assert 0 < found.count(False) < found.count(True)

    # The row that extends is the 11th, 6th, 2nd and 2nd avoider on
    # [n-1]; on 5 vertices no avoider extends, nor on [r] when m = r.
    @pytest.mark.parametrize("r,n,m", [(2, 8, 4), (3, 6, 4), (3, 7, 5), (4, 6, 5), (2, 5, 3),
                                       (2, 2, 2), (30, 30, 30)])
    def test_node_budget(self, r, n, m):
        leaf, total = engine_first_avoider(r, n, m)
        for budget in (total - 1, total // 2, 1, 0):
            with pytest.raises(TooLarge):
                engine_first_avoider(r, n, m, max_nodes=budget)
            with pytest.raises(TooLarge):
                band_first_avoider(r, n, m, max_nodes=budget)

    # [r] with m > r is an ordinary level: its first leaf, the edge -1,
    # costs one node, which a budget of 0 does not cover.
    @pytest.mark.parametrize("r", range(2, 6))
    def test_node_budget_on_r_vertices(self, r):
        with pytest.raises(TooLarge):
            find_avoiding_coloring(r, r, r + 1, max_nodes=0)
        found, nodes = find_avoiding_coloring(r, r, r + 1, max_nodes=1)
        assert (found.colors.tolist(), nodes) == ([-1], 1)

    def test_budget_bounds_the_engine_on_n_minus_1(self):
        # 60,158,006 nodes without a budget; the levels below [11] run out
        # of this one after a few batches each
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            find_avoiding_coloring(3, 11, 5, max_edges=165, max_nodes=10**4)
        assert time.perf_counter() - start < 2

    def test_budget_stops_the_levels_early(self, monkeypatch):
        # Without a budget (3, 11, 5) walks the bands of 39 batches, 9 of
        # them through 11, and 14 more for the answer's count; a budget of
        # 10^4 passes a lower bound on the engine's count before any band
        # through 10 is walked.
        join = enumeration._join
        walked = []

        def counted(r, k, *args, **kwargs):
            walked.append(k)
            return join(r, k, *args, **kwargs)

        monkeypatch.setattr(enumeration, "_join", counted)
        with pytest.raises(TooLarge, match="node budget 10000"):
            find_avoiding_coloring(3, 11, 5, max_edges=165, max_nodes=10**4)
        assert 0 < max(walked) <= 9

    # The color swap maps the tree below +1 onto the tree below -1, so a
    # refutation walks the bands of the first edge's -1 half alone.
    @pytest.mark.parametrize("r,n,m,total", [(2, 10, 4, 259_590), (3, 7, 4, 4_690)])
    def test_refutation_walks_no_row_with_the_first_edge_plus(self, monkeypatch, r, n, m, total):
        join = enumeration._join
        walked = []

        def checked(r_, k, table, *args, **kwargs):
            size, plus = table
            assert plus[:1] in ([], [0])  # [r-1] has no edge; above it, no row colors it plus
            walked.append((k, size))
            return join(r_, k, table, *args, **kwargs)

        monkeypatch.setattr(enumeration, "_join", checked)
        assert band_first_avoider(r, n, m) == (None, total)
        assert max(walked)[0] == n and sum(size for _, size in walked) > n

    def test_overrun_after_the_extending_row_is_no_answer(self, monkeypatch):
        # c*, the first avoider on [n-1] that extends, comes off the
        # level's 2nd, 2nd and 6th batch, whose walk raising leaves no
        # answer.  Every batch on [n] is cut from one block, so the batch
        # after c*'s is never walked: its running out of budget leaves
        # c*'s first leaf the answer.
        for r, n, m, batch in [(2, 7, 4, 3), (2, 9, 5, 3), (3, 10, 5, 7)]:
            expected = band_first_avoider(r, n, m)
            if r == 2:
                assert expected == engine_first_avoider(r, n, m)
            else:
                assert expected[1] == 1_456_213  # the engine's, pinned in test_golden.py
            with monkeypatch.context() as patch:
                cut = overrun_in_level(patch, r, n - 1, batch - 1)
                with pytest.raises(TooLarge):
                    band_first_avoider(r, n, m)
            assert cut == [batch - 1]
            with monkeypatch.context() as patch:
                cut = overrun_in_level(patch, r, n - 1, batch)
                assert band_first_avoider(r, n, m) == expected
            assert cut == []

    def test_overrun_before_any_row_extends_raises(self, monkeypatch):
        # c* comes off the 4th batch on [7] (of 8 rows) and on [8] (of 12
        # rows); a batch of several rows yields nothing when its walk raises.
        for r, n, m, batch in [(2, 8, 4, 3), (2, 8, 4, 4), (3, 9, 5, 4)]:
            with monkeypatch.context() as patch:
                cut = overrun_in_level(patch, r, n - 1, batch)
                with pytest.raises(TooLarge):
                    band_first_avoider(r, n, m)
            assert cut == [batch]

    def test_no_walk_sees_its_masks_change(self, monkeypatch):
        # a walk reads its masks on entering each p-edge, so every walk,
        # those of a leaf's count included, must read one fixed list
        join = enumeration._join

        def watched(r, n, table, nodes, limit, masks=None, steps=None):
            start = list(masks)
            for leaf in join(r, n, table, nodes, limit, masks, steps):
                assert masks == start
                yield leaf
            assert masks == start

        monkeypatch.setattr(enumeration, "_join", watched)
        for r, n, m in [(2, 8, 4), (3, 10, 5), (4, 8, 5), (4, 9, 6)]:
            assert band_first_avoider(r, n, m)[0] is not None
        assert ramsey_number(2, 4, 12).nodes == 266_296

    def test_first_leaf_of_a_large_band(self):
        # p has rank 29 and its one deletion row comes last: the engine's
        # first leaf is 31 nodes deep, an exhaustive walk of the band 2^30.
        assert band_first_avoider(30, 31, 31) == engine_first_avoider(30, 31, 31)
        assert band_first_avoider(2, 46, 47) == engine_first_avoider(2, 46, 47)
        assert find_avoiding_coloring(3, 6, 3) == (None, 2)  # m = r: no edge is allowed


def search_outcome(r, n, m, budget):
    """A search's leaf and node count, or its TooLarge message."""
    try:
        return band_first_avoider(r, n, m, max_nodes=budget)
    except TooLarge as error:
        return str(error)


def joins_made(monkeypatch, search, *args):
    """How many `_join` walks ``search(*args)`` makes, those of its counts included."""
    join = enumeration._join
    walks = [0]

    def counted(*args, **kwargs):
        walks[0] += 1
        return join(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_join", counted)
        search(*args)
    return walks[0]


def bands_through(monkeypatch, k, search, *args, **caps):
    """The sizes of the tables whose bands through vertex k ``search``
    walks before it runs out of budget, which it must."""
    join = enumeration._join
    sizes = []

    def recorded(r, k_, table, *args, **kwargs):
        if k_ == k:
            sizes.append(table[0])
        return join(r, k_, table, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_join", recorded)
        with pytest.raises(TooLarge, match="node budget"):
            search(*args, **caps)
    return sizes


def plain_doubling(rows, leaves, nodes, steps):
    return 2


class TestBatchSchedule:
    """A batch grows by its band walk's engine nodes per p-node while the
    walk yields fewer p's than the batch has rows.  Band totals are
    popcount sums and the budget is checked only between batches, so the
    schedule never changes a leaf, a node count or a TooLarge."""

    @pytest.mark.parametrize("r", range(2, 5))
    def test_doubling_gives_the_same_outcomes(self, monkeypatch, r):
        cases = [(r, n, m, budget) for m in range(r, r + 4) for n in range(r, 10)
                 for budget in (None, 0, 1, 50, 3000)]
        grown = [search_outcome(*case) for case in cases]
        monkeypatch.setattr(enumeration, "_growth", plain_doubling)
        assert [search_outcome(*case) for case in cases] == grown

    def test_sharing_walks_fewer_bands_than_doubling(self, monkeypatch):
        grown = joins_made(monkeypatch, band_first_avoider, 3, 10, 5)
        monkeypatch.setattr(enumeration, "_growth", plain_doubling)
        assert grown < joins_made(monkeypatch, band_first_avoider, 3, 10, 5)


def ramsey_outcome(r, m, n_max, **caps):
    """A run's number, lower bound, witness bytes and nodes, or its TooLarge message."""
    try:
        rep = ramsey_number(r, m, n_max, **caps)
    except TooLarge as error:
        return str(error)
    witness = None if rep.witness is None else (rep.witness.n, rep.witness.colors.tobytes())
    return rep.number, rep.lower_bound, witness, rep.nodes


def reference_ramsey(r, m, n_max, max_nodes=None, **caps):
    """`ramsey_number` as one fresh search per vertex count, each given
    what the earlier ones left of the budget."""
    total, witness = 0, None
    for n in range(m, n_max + 1):
        left = None if max_nodes is None else max_nodes - total
        try:
            found, nodes = find_avoiding_coloring(r, n, m, max_nodes=left, **caps)
        except TooLarge as error:  # a search names its own budget, the run the whole one
            return str(error).replace(f"budget {left}", f"budget {max_nodes}")
        total += nodes
        if found is None:
            return n, n, witness, total
        witness = n, found.colors.tobytes()
    return None, n_max + 1, witness, total


RAMSEY_BUDGETS = [None, 0, 1, 50, 1_039, 1_040, 3_000, 10**5]


class TestRamseyChain:
    """`ramsey_number` keeps one set of levels across every vertex count,
    and reports what one fresh search per vertex count would: the same
    number, bound, witness and nodes, or the same TooLarge."""

    @pytest.mark.parametrize("r", range(2, 6))
    def test_same_outcomes_as_fresh_searches(self, r):
        cases = [(m, n_max, budget) for m in range(r, r + 4) for n_max in range(m, 10)
                 for budget in RAMSEY_BUDGETS]
        outcomes = {"number": 0, "unresolved": 0, "budget": 0}
        for m, n_max, budget in cases:
            expected = reference_ramsey(r, m, n_max, max_nodes=budget, max_edges=2000)
            assert ramsey_outcome(r, m, n_max, max_nodes=budget, max_edges=2000) == expected
            if isinstance(expected, str):
                outcomes["budget"] += 1
            else:
                outcomes["unresolved" if expected[0] is None else "number"] += 1
        assert all(outcomes.values())

    # C(9, 3) = 84 edges pass the default cap of 64: the run stops on
    # entering [9] as the fresh search on [9] would, after [6]..[8], unless
    # the budget runs out first.
    def test_edge_cap_on_entering_a_vertex_count(self):
        budgets = (None, 100)
        outcomes = [ramsey_outcome(3, 6, 9, max_nodes=budget) for budget in budgets]
        assert outcomes == [reference_ramsey(3, 6, 9, max_nodes=budget) for budget in budgets]
        assert "more than 64 edges" in outcomes[0] and outcomes[1].endswith("node budget 100")

    # Past the budget the run stops where the fresh search on [10] would,
    # after the same walks through vertex 10: none while what [4]..[9]
    # leave of it is less than the levels below [10] spent before the
    # first such walk, between 3,000 and 10,000 nodes.
    @pytest.mark.parametrize("left", [0, 3_000, 10_000, 10**5])
    def test_budget_stops_where_the_fresh_search_would(self, monkeypatch, left):
        before = ramsey_number(2, 4, 9).nodes  # n = 4..9, as in ramsey_number(2, 4, 12)
        chained = bands_through(monkeypatch, 10, ramsey_number, 2, 4, 12, max_nodes=before + left)
        assert chained == bands_through(monkeypatch, 10, find_avoiding_coloring, 2, 10, 4,
                                        max_nodes=left)
        assert (len(chained) > 0) == (left >= 10_000)

    # The step hands on the level from the witness's block; once the level
    # above takes the next one, nothing may keep the first for the rest of
    # the run (1.6 MB more traced peak in ramsey_number(3, 5, 11) when it did).
    def test_a_block_taken_again_is_let_go(self):
        nodes, spent = [0], [0]
        below = enumeration._levels(2, 4, 4, float("inf"), spent, nodes)
        found, again = enumeration._first_avoider(2, 5, 4, nodes, float("inf"), spent, below)
        band, _, plus, _ = next(again)
        assert found.colors.tolist() == (plus[0] * 2 - 1).tolist()
        plus, band = weakref.ref(plus), weakref.ref(band)
        assert next(again) is not None  # the level above takes its next block
        assert plus() is None
        while next(again)[0] is band():  # then the blocks of the next batch
            pass
        assert band() is None

    # The step pauses its batch's walk at the first leaf; the level it hands
    # on resumes it with that leaf in front, so it neither drops nor repeats
    # a row, and leaves the same spent once walked to the end.
    @pytest.mark.parametrize("r,n,m", LEVEL_SIZES)
    def test_the_level_handed_on_is_the_level_from_scratch(self, r, n, m):
        def blocks(level):
            return [(rows.tolist(), plus.tolist(), ends.tolist()) for _, rows, plus, ends in level]

        spent = [0]
        expected = blocks(enumeration._levels(r, n, m, float("inf"), spent, [0]))
        nodes, handed = [0], [0]
        below = enumeration._levels(r, n - 1, m, float("inf"), handed, nodes)
        found, level = enumeration._first_avoider(r, n, m, nodes, float("inf"), handed, below)
        assert blocks(level) == expected
        assert handed == spent
        if expected:
            assert found.colors.tolist() == [2 * flag - 1 for flag in expected[0][1][0]]
        else:
            assert found is None

    def test_the_chain_walks_fewer_bands_than_fresh_searches(self, monkeypatch):
        # n = 4..10: six first avoiders and the refutation on [10]
        chained = joins_made(monkeypatch, ramsey_number, 2, 4, 12)
        fresh = sum(joins_made(monkeypatch, find_avoiding_coloring, 2, n, 4) for n in range(4, 11))
        assert chained < fresh


class TestSearchCaps:
    """Both caps of a search are read as integers, so NaN or a fraction
    cannot switch a limit off or be reported as a budget."""

    NAN = float("nan")
    CALLS = [
        lambda **caps: find_avoiding_coloring(3, 8, 5, **caps),
        lambda **caps: ramsey_number(3, 4, 8, **caps),
        lambda **caps: count_monotone(3, 7, **caps),
        lambda **caps: next(enumerate_monotone(3, 12, **caps)),
    ]

    @pytest.mark.parametrize("call", range(len(CALLS)))
    @pytest.mark.parametrize("caps", [{"max_nodes": NAN}, {"max_nodes": 2.5},
                                      {"max_edges": NAN}, {"max_edges": 220.0}])
    def test_non_integer_caps_are_refused(self, call, caps):
        with pytest.raises(TypeError):
            self.CALLS[call](**caps)

    @pytest.mark.parametrize("call", range(len(CALLS)))
    def test_a_bool_budget_is_reported_as_its_integer(self, call):
        calls = self.CALLS[:3] + [lambda **caps: next(enumerate_monotone(3, 7, **caps))]
        with pytest.raises(TooLarge, match="node budget 1$"):
            calls[call](max_nodes=True)

    # 2.5 and NaN passed the workers >= 1 check and failed in `range` once
    # every stage was built; no join may run before the refusal now
    @pytest.mark.parametrize("workers", [2.5, NAN])
    def test_non_integer_workers_are_refused_first(self, monkeypatch, workers):
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran before workers was read")

        monkeypatch.setattr(enumeration, "_join", unreachable)
        with pytest.raises(TypeError):
            count_monotone(3, 9, max_edges=84, workers=workers)

    # np.int64 workers cut the rows at np.int64 bounds, and `_bits` overflowed
    def test_numpy_integer_workers_give_the_serial_result(self):
        serial = count_monotone(3, 7)
        assert timeless(count_monotone(3, 7, workers=np.int64(2))) == timeless(serial)

    def test_numpy_integer_caps_are_read_as_integers(self):
        with pytest.raises(TooLarge, match="node budget 10$"):
            find_avoiding_coloring(3, 8, 5, max_nodes=np.int64(10))
        found, nodes = find_avoiding_coloring(2, 9, 4, max_edges=np.int64(36))
        assert (found.colors.tolist(), nodes) == band_first_avoider(2, 9, 4)


def timeless(result):
    """A result's repr, with a CountReport's time set to 0."""
    if isinstance(result, CountReport):
        result = dataclasses.replace(result, seconds=0.0)
    return repr(result)


INTEGER_CALLS = [
    (count_monotone, (3, 5)),
    (lambda r, n: list(enumerate_monotone(r, n)), (3, 5)),
    (find_avoiding_coloring, (3, 6, 4)),
    (ramsey_number, (3, 4, 8)),
]


class TestIntegerArguments:
    """r, n, m and n_max are read as integers: a float is refused, and a
    numpy integer gives the Python integer's result."""

    @pytest.mark.parametrize("function,args", INTEGER_CALLS)
    def test_numpy_integers_give_the_python_result(self, function, args):
        assert timeless(function(*map(np.int64, args))) == timeless(function(*args))

    @pytest.mark.parametrize("function,args", INTEGER_CALLS)
    def test_floats_are_refused(self, function, args):
        for at in range(len(args)):
            with pytest.raises(TypeError):
                function(*args[:at], float(args[at]), *args[at + 1:])

    def test_count_report_dumps_to_json(self):
        report = dataclasses.asdict(count_monotone(np.int64(3), np.int64(5)))
        assert json.loads(json.dumps(report))["count"] == 62


class TestTow:
    def test_values(self):
        assert tow(1, 7) == 7
        assert tow(2, 10) == 1024
        assert tow(3, 4) == 65536

    def test_nonpositive_arguments(self):
        assert tow(2, 0) == 1
        assert abs(tow(3, -1) - 2 ** 0.5) < 1e-12

    def test_symbolic_overflow(self):
        assert tow(4, 4) == 2 ** 65536
        out = tow(5, 4)
        assert out == AtLeast(TABLE_CAP)
        assert f"2^{TABLE_CAP}" in repr(out)
        assert tow(3, 21) == 2 ** 2 ** 21  # the cap is TABLE_CAP >= 2^21 bits
        assert tow(3, 22) == AtLeast(TABLE_CAP)
        # -5 climbs through floats to 129211.8, and 2^129211.8 is past the float range
        for h, x in [(10, -5), (2, 2000.5), (2, -10 ** 5000)]:
            with pytest.raises(TooLarge, match="float range"):
                tow(h, x)
        assert tow(2, -2000) == 0.0

    def test_numpy_integers_do_not_wrap(self):
        # computed in the numpy type, 2^64 and 2^40 wrapped to 0
        for h, x in [(3, np.int64(6)), (2, np.int32(40)), (4, np.int64(4)), (2, np.uint8(3))]:
            out = tow(h, x)
            assert type(out) is int and out == tow(h, int(x))
        assert tow(5, np.int64(4)) == AtLeast(TABLE_CAP)
        assert tow(2, np.float64(0.5)) == 2 ** 0.5  # a float stays a float

    def test_numpy_floats_are_read_as_python_floats(self):
        # numpy's power neither raises OverflowError nor leaves float32's range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h, x in [(2, np.float64(2000.5)), (2, np.float32(1500.5)), (10, np.float64(-5))]:
                with pytest.raises(TooLarge, match="float range"):
                    tow(h, x)
            for h, x in [(2, np.float32(200.5)), (2, np.float16(20.5)), (3, np.float64(3.5))]:
                out = tow(h, x)
                assert type(out) is float and out == tow(h, float(x))
            assert tow(2, np.float32(200.5)) == 2 ** 200.5

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            tow(0, 3)
        with pytest.raises(InvalidArgument):  # NaN never passes the cap: refused, not iterated
            tow(10**7, float("nan"))
