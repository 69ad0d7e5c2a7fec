"""Differential tests of the colex layout against per-tuple constructions."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from signotopes import SignFunction, colex_rank, link_sequence, tower_coloring
from signotopes.core import colex_layout
from signotopes.enumeration import _search_tables, project

SIZES = [(n, k) for n in range(1, 10) for k in range(2, 7)]


def reference_search_tables(r, n):
    """The per-subset construction the search used before the layout."""
    edges = sorted(combinations(range(1, n + 1), r), key=lambda e: e[::-1])
    constraints = [[] for _ in edges]
    for s in combinations(range(1, n + 1), r + 1):
        ranks = tuple(colex_rank(s[:pos] + s[pos + 1:], n) for pos in range(r, -1, -1))
        constraints[ranks[-1]].append(ranks)
    preds = tuple(
        tuple(colex_rank((u,) + edge[:-1], n) for u in range(1, edge[0])) for edge in edges
    )
    return constraints, preds


def faces(edge):
    """Ranks of the faces of an increasing tuple, largest element deleted first."""
    return [colex_rank(edge[:i] + edge[i + 1:]) for i in range(len(edge) - 1, -1, -1)]


@pytest.mark.parametrize("n,k", SIZES)
def test_layout_matches_per_tuple_order(n, k):
    lay = colex_layout(n, k)
    want = sorted(combinations(range(1, n + 1), k), key=lambda e: e[::-1])
    assert [tuple(e) for e in lay.edges.tolist()] == want
    assert [colex_rank(e, n) for e in want] == list(range(comb(n, k)))
    assert lay.rank(lay.edges).tolist() == list(range(comb(n, k)))
    assert lay.deletion.tolist() == [faces(e) for e in want]


@pytest.mark.parametrize("n,k", [(n, k) for n, k in SIZES if k >= 3 and n >= k])
def test_deletion_rows_are_link_sequences(n, k):
    rng = np.random.default_rng(n * 10 + k)
    c = SignFunction(k - 1, n, rng.choice((-1, 1), size=comb(n, k - 1)))
    lay = colex_layout(n, k)
    for edge, row in zip(lay.edges.tolist(), lay.deletion.tolist()):
        assert link_sequence(c, edge) == tuple(c.colors[row].tolist())


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 10) for r in range(1, 6) if n >= r])
def test_search_tables_match_reference(n, r):
    starts, readers, decisions = _search_tables(r, n)
    constraints, want_preds = reference_search_tables(r, n)
    table = [tuple(row) for row in colex_layout(n, r + 1).deletion.tolist()]
    assert len(starts) == len(constraints) + 1 and starts[-1] == len(table)
    assert [table[lo:hi] for lo, hi in zip(starts, starts[1:])] == constraints
    # The windows of the tests' path pruner, the first column of each deletion
    # row listed under its last, are the edges that can precede each edge.
    windows = [[] for _ in constraints]
    for row in table:
        windows[row[-1]].append(row[0])
    assert windows == [list(p) for p in want_preds]
    # One reader per edge reads every head of its run, row after row, rank 1
    # included, as one tuple: a one-column run's too, and () for an empty run.
    probe = list(range(comb(n, r)))
    assert [reader(probe) for reader in readers] == [
        tuple(t for row in rows for t in row[:-1]) for rows in constraints]
    assert len(decisions) == len(readers)


def test_tables_are_read_only():
    lay = colex_layout(6, 3)
    for table in (lay.edges, lay.deletion):
        with pytest.raises(ValueError):
            table[0, 0] = 7


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_reversal_is_the_rank_of_the_mirrored_edge(r):
    for n in (r, r + 1, 7, 9, 12):
        lay = colex_layout(n, r)
        want = [colex_rank(tuple(n + 1 - v for v in reversed(e)), n) for e in lay.edges.tolist()]
        assert lay.reversal.tolist() == want == lay.rank(n + 1 - lay.edges[:, ::-1]).tolist()
        assert (lay.reversal[lay.reversal] == np.arange(comb(n, r))).all()
        with pytest.raises(ValueError):
            lay.reversal[0] = 1


@pytest.mark.parametrize("n,k", [(6, 3), (9, 4), (12, 5), (64, 4)])
def test_deletion_table_is_column_major(n, k):
    # The predicates read one contiguous column at a time.
    deletion = colex_layout(n, k).deletion
    assert deletion.flags.f_contiguous
    assert all(deletion[:, j].flags.c_contiguous for j in range(k))


def reference_projection(c, i):
    lower = sorted(combinations(range(1, i), c.r - 1), key=lambda e: e[::-1])
    return [int(c.colors[colex_rank(e + (i,), c.n)]) for e in lower]


def test_project_tower_is_the_block_slice():
    c = tower_coloring(3, 6)
    for i in range(3, 65):
        assert project(c, i).colors.tolist() == reference_projection(c, i)


@pytest.mark.parametrize("r,n", [(3, 7), (4, 7), (3, 10)])
def test_project_is_the_block_slice(r, n):
    rng = np.random.default_rng(r * 100 + n)
    c = SignFunction(r, n, rng.choice((-1, 1), size=comb(n, r)))
    for i in range(r, n + 1):
        assert project(c, i).colors.tolist() == reference_projection(c, i)
