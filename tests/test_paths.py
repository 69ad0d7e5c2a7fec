import numpy as np
import pytest
from itertools import combinations

from signotopes import (
    SignFunction,
    contains_path,
    enumerate_monotone,
    longest_mono_paths,
    random_monotone_coloring,
)
from signotopes.errors import InvalidArgument, TernaryNotAllowed


def oracle_longest(c):
    """Try every vertex subset; a subset is a path when all windows agree."""
    best = {-1: c.r - 1, 1: c.r - 1}
    for size in range(c.r, c.n + 1):
        for subset in combinations(range(1, c.n + 1), size):
            windows = {c.color(subset[i: i + c.r]) for i in range(size - c.r + 1)}
            if len(windows) == 1:
                col = windows.pop()
                best[col] = max(best[col], size)
    return best[-1], best[1]


def windows_ok(c, witness, color):
    return all(
        c.color(witness[i: i + c.r]) == color
        for i in range(len(witness) - c.r + 1)
    )


class TestLongestPaths:
    def test_all_minus_spans_everything(self):
        rep = longest_mono_paths(SignFunction.constant(3, 6))
        assert rep.best_minus == 6
        assert rep.witness_minus == (1, 2, 3, 4, 5, 6)
        assert rep.best_plus == 2  # no plus edge: base case r-1

    def test_three_vertex_pair_example(self):
        c = SignFunction(2, 3, np.array([1, 1, -1], dtype=np.int8))
        rep = longest_mono_paths(c)
        assert (rep.best_minus, rep.best_plus) == (2, 2)

    def test_exhaustive_against_oracle_pairs(self):
        for c in enumerate_monotone(2, 5):
            rep = longest_mono_paths(c)
            assert (rep.best_minus, rep.best_plus) == oracle_longest(c)

    def test_exhaustive_against_oracle_triples(self):
        for c in enumerate_monotone(3, 5):
            rep = longest_mono_paths(c)
            assert (rep.best_minus, rep.best_plus) == oracle_longest(c)

    @pytest.mark.parametrize("r,n", [(2, 8), (3, 7), (4, 7)])
    def test_random_against_oracle(self, r, n):
        for seed in range(40):
            c = random_monotone_coloring(r, n, seed)
            rep = longest_mono_paths(c)
            assert (rep.best_minus, rep.best_plus) == oracle_longest(c)

    def test_witnesses_are_valid_paths(self):
        for seed in range(30):
            c = random_monotone_coloring(3, 7, seed)
            rep = longest_mono_paths(c)
            for witness, best, color in [
                (rep.witness_minus, rep.best_minus, -1),
                (rep.witness_plus, rep.best_plus, 1),
            ]:
                assert len(witness) == best
                assert list(witness) == sorted(set(witness))
                if best >= c.r:
                    assert windows_ok(c, witness, color)

    def test_deterministic(self):
        c = random_monotone_coloring(3, 7, 123)
        assert longest_mono_paths(c) == longest_mono_paths(c)

    def test_ternary_rejected(self):
        c = SignFunction(3, 4, np.array([0, 1, 1, 1], dtype=np.int8), ternary_allowed=True)
        with pytest.raises(TernaryNotAllowed):
            longest_mono_paths(c)

    @pytest.mark.parametrize("r,n", [(2, 9), (3, 6), (3, 64), (4, 7)])
    def test_cached_layout_reads_are_views(self, r, n):
        # the per-(r, n) cache holds views into the shared layout, no per-edge objects
        from signotopes.core import colex_layout
        from signotopes.paths import _views

        longest_mono_paths(SignFunction.constant(r, n))
        before, last, suffixes = _views(r, n)
        table = colex_layout(n, r).deletion
        for view, owner in ((before, table), (last, table),
                            (suffixes, colex_layout(n, r - 1).edges)):
            assert isinstance(view, np.ndarray) and view.dtype != object
            assert np.shares_memory(view, owner) and not view.flags.writeable
        assert before.tolist() == table[:, 0].tolist() and last.tolist() == table[:, -1].tolist()


class TestSymmetries:
    def test_color_swap_exchanges_lengths(self):
        for seed in range(20):
            c = random_monotone_coloring(3, 7, seed)
            rep = longest_mono_paths(c)
            swapped = longest_mono_paths(c.swapped())
            assert (rep.best_minus, rep.best_plus) == (swapped.best_plus, swapped.best_minus)
            assert rep.witness_minus == swapped.witness_plus

    def test_reversal_preserves_lengths(self):
        for seed in range(20):
            c = random_monotone_coloring(3, 7, seed)
            rep = longest_mono_paths(c)
            rev = longest_mono_paths(c.reversed_order())
            assert (rep.best_minus, rep.best_plus) == (rev.best_minus, rev.best_plus)
            # the mirrored witness is a maximal path of the original
            mirrored = tuple(sorted(c.n + 1 - v for v in rev.witness_minus))
            assert len(mirrored) == rep.best_minus
            if rep.best_minus >= c.r:
                assert windows_ok(c, mirrored, -1)


class TestContainsPath:
    def test_all_minus(self):
        assert contains_path(SignFunction.constant(3, 5), 5)

    def test_too_long_never_contained(self):
        for seed in range(5):
            c = random_monotone_coloring(3, 6, seed)
            assert not contains_path(c, 7)

    # a numpy m gave numpy.bool, and a fractional one was compared as it was
    def test_m_is_read_as_an_integer(self):
        c = SignFunction.constant(3, 5)
        assert contains_path(c, np.int64(5)) is True
        assert contains_path(c, np.int64(6)) is False
        for m in (4.5, 5.0, float("nan")):
            with pytest.raises(TypeError):
                contains_path(c, m)

    def test_m_below_r_rejected(self):
        with pytest.raises(InvalidArgument):
            contains_path(SignFunction.constant(3, 5), 2)

    def test_tower_coloring_has_no_eight_vertex_path(self):
        from signotopes import tower_coloring

        assert not contains_path(tower_coloring(3, 3), 8)
