"""Backtracking enumeration, counting, projections, and Ramsey search.

Every search runs on one iterative engine, `_search`, which assigns
edges in colex order.  Of the r-subsets of an (r+1)-subset, the one
without the smallest element comes last, so on entering its level the
engine reads the other r colors of every such row and decides, once,
which colors it may take: one reader per level reads them, and the
tuple read indexes that level's table of decisions, which fills itself
on a miss: a 2-bit mask, the AND of each row's mask from a table of
sign patterns, and which rows' heads start +1 and which -1.  Every leaf
is monotone, and each monotone coloring is reached exactly once.  When
the engine walks the extensions of a table of colorings one vertex
down for `_join`, it runs the join's bitset filter in the same step,
ANDing the columns of the rows the decision names; each color carries
its bitset of valid rows, on the stack too, and a prefix is pinned
before the walk.  The engine and the join read one cached table per
(r, n), `_search_tables`: deletion runs, readers and decision tables.

Counting does not walk the engine's tree.  The edges containing vertex
n come last in colex order, so a monotone coloring of [n] is a pair
(c, p): c a monotone coloring of [n-1], p(S) = color(S + {n}) a
coloring of rank r-1 (the one-element extension of Felsner and Weil,
*Sweeps, arrangements and signotopes*, 2001).  `_join` walks p on the
engine and keeps the set of valid c's as a bitset; the counts of
consistent partial colorings it sees give the engine's node total
exactly, without visiting the nodes.  The color swap pairs the monotone
colorings without fixed points, so the join keeps only those coloring
the first edge minus and doubles the count.

Ramsey search runs wholly on that join.  Its answer is the first leaf
of the path-pruned engine, the engine with a hook that forbids the
colors closing a monochromatic m-vertex path, but that engine is never
run: every band is walked as a join, one vertex at a time.  A path
through vertex k enters its last window from a window of [k-1], so
which colors p may take there, and how long a path each color ends, are
fixed by c alone: p may color S + {k} x only in the rows with no window
{a} + S of color x ending a path of m-1 or more vertices (`_Band`).
From the one coloring of [r-1], which has no edge, each level k walks
the band through k once per batch of avoiders on [k-1] and yields the
avoiders on [k] in the engine's order, a block at a time.  One walk of
p serves every row of its batch, so batches grow,
from one row, by the engine nodes per p-node of the last walk, at
least twice, while that walk yields fewer p's than it has rows, and
twice otherwise; no output depends on the batch sizes, since band
totals are popcount sums and the budget is checked only between
batches.  Every batch is cut from one block of the level below, whose
stream each level takes as an argument and asks for its next block only
once every row of the last one has been walked: the search stops at
the first row that extends, no level walks a batch past it, and a
budget overrun anywhere arrives between batches.  [r] is an ordinary
level: its one band gives the edge -1, then +1, or neither when m = r.
The color swap maps avoiders to avoiders and the engine's tree onto
itself, so the first leaf, if any, lies below the edge -1, and the
tree below +1 repeats the node total below -1: [r] yields the edge -1
alone, and a search without a leaf reports 2 * spent - 2 nodes, where
``spent`` counts the root's two attempts and the half below -1.  The
leaf is the engine's, and so is the node count, taken from the search's
start, where the edgeless [r-1] counts 0: ``spent``, the popcount
totals of the batches walked whole at every level, all walked by the
engine before its leaf, plus the chain of avoiders above the leaf, each
the leaf of its row's band whose p is its own last colors: per chain
band, 2 per row before the chain row, those rows' total, and the chain
row's band alone up to the leaf.  No walk's masks change while it runs.

One step, `_first_avoider`, finds the first avoider on [n], for
`find_avoiding_coloring` and for every vertex count of `ramsey_number`
alike.  It walks the bands through vertex n, a batch at a time, up to
the first leaf, then the rows below that leaf's lowest row on their
own, until such a walk yields nothing, and takes the top band's rows
before the answer from that walk.  It then hands on the level on [n]:
the paused walk, its first leaf put back in front, and the batches
after it.  `ramsey_number` feeds that level to the step on [n+1], so
its levels, from [r] up, live across its vertex counts.  The search on
[n+1] from scratch walks whole the same batches at every level below
its leaf, so ``spent``, shared by every vertex count, is its own, and
each vertex count reports the fresh search's nodes.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb, factorial, log2
from numbers import Integral, Real
from operator import index, itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (TABLE_CAP, SignFunction, _brief, _capped_comb, _require_binary, check_size,
                   colex_layout)
from .errors import InvalidArgument, TooLarge

#: Default cap on the number of edges the backtracking search will handle.
SEARCH_EDGE_CAP = 64

# Colorings as bitset columns: (row count, per edge the rows that color it plus).
_Table = tuple[int, list[int]]


class _Decisions(dict):
    """One level's decisions by what its reader reads, each computed on a
    miss from the level's rank ``r``, its run start ``lo`` and the shared
    ``pattern`` (`_search_tables`): the colors its edge may take, the AND
    of each head's pattern mask, then the ranks of the rows whose head
    starts +1 and of those whose head starts -1."""

    __slots__ = ("r", "lo", "pattern")

    def __init__(self, r: int, lo: int, pattern: dict):
        self.r, self.lo, self.pattern = r, lo, pattern

    def __missing__(self, key: tuple) -> tuple[int, tuple, tuple]:
        mask, plus, minus = 3, [], []
        for u, at in enumerate(range(0, len(key), self.r), self.lo):
            mask &= self.pattern.get(key[at:at + self.r], 0)
            (plus if key[at] > 0 else minus).append(u)
        decision = self[key] = mask, tuple(plus), tuple(minus)
        return decision


@lru_cache(maxsize=None)
def _search_tables(r: int, n: int) -> tuple[list[int], list[Callable], list[_Decisions]]:
    """(starts, readers, decisions): the (r+1)-subset deletion table of [n]
    has its rows grouped by their last column, the colex-largest r-subset
    k, into the runs ``starts[k]:starts[k + 1]`` (deleting the smallest
    element keeps colex order).  ``readers[k]`` reads the heads of k's
    run, each row's r edges before k, row after row, as one tuple: () for
    an empty run.  ``decisions[k]`` maps what it reads to k's decision,
    filling itself on a miss.  The ``pattern`` they share maps the 2r
    heads with at most one sign change to the colors k may take (bit 0:
    -1, bit 1: +1), both or the head's last; a missing head allows none,
    and at rank 1 every head allows both (one edge never changes sign)."""
    table = colex_layout(n, r + 1).deletion
    starts = np.searchsorted(table[:, -1], np.arange(comb(n, r) + 1)).tolist()
    heads = table[:, :-1].ravel().tolist()
    pattern = {head: 3 if j in (0, r) else 1 << (head[-1] > 0)
               for j in range(r + 1) for a in (-1, 1) for head in [(a,) * j + (-a,) * (r - j)]}
    readers = []
    for lo, hi in zip(starts, starts[1:]):
        columns = heads[lo * r:hi * r]
        if len(columns) > 1:
            readers.append(itemgetter(*columns))
        elif columns:
            readers.append(lambda colors, get=itemgetter(*columns): (get(colors),))
        else:
            readers.append(lambda colors: ())
    return starts, readers, [_Decisions(r, lo, pattern) for lo in starts[:-1]]


def _check_limits(r: int, n: int, max_edges: int, max_nodes: int | None) -> float:
    """Admit (r, n) and the caps for a search, before any work, and return
    the node limit: ``inf`` when ``max_nodes`` is None, else ``max_nodes``
    as a Python integer.  A float cap, NaN included, raises TypeError."""
    if not 2 <= r <= n:
        raise InvalidArgument(f"need 2 <= r <= n, got r={_brief(r)}, n={_brief(n)}")
    max_edges = index(max_edges)
    limit = float("inf") if max_nodes is None else index(max_nodes)
    if max_edges < 0 or limit < 0:
        raise InvalidArgument(f"need both caps >= 0, got {_brief((max_edges, max_nodes))}")
    if _capped_comb(n, r, max_edges) > max_edges:
        raise TooLarge(f"r={_brief(r)}, n={_brief(n)} has more than {_brief(max_edges)} "
                       f"edges (search cap); pass max_edges explicitly to override")
    check_size(r, n)
    return limit


def _search(
    r: int,
    n: int,
    nodes: list[int],
    *,
    max_nodes: int | None = None,
    prefix: Sequence[int] = (),
    rng: random.Random | None = None,
    join: tuple | None = None,
    hook: Callable[[int, list[int], int], int] | None = None,
) -> Iterator[list[int]]:
    """Depth-first search yielding the shared color list at every leaf.

    The caller has admitted (r, n) and checked ``prefix``.  A leaf is a
    full consistent coloring; copy what you keep.  Entering level k
    decides once which colors edge k may take, as a mask (bit 0: -1,
    bit 1: +1), in one subscript: the level's table of decisions, which
    fills itself on a miss, at what its reader reads, the heads of the
    deletion rows ending at k (`_search_tables`).  If a color is left,
    ``join`` = (plus, minus, masks, rows, counter, limit), `_join`'s
    state, filters its bitsets: each color's valid rows are the path's
    (``rows`` at k = 0) ANDed with ``masks[k]``, if there are masks, and
    the columns of the rows the decision names, ``minus[u]`` for a head
    starting -1, ``plus[u]`` for one starting +1.  A color with no row
    left is not allowed; a color carries its rows, on the stack too, and
    a leaf yields (colors, its rows).  Below the last edge four times
    their popcounts go to ``counter[0]``, through a local written back
    at every yield, the end and TooLarge, past ``limit``.  Otherwise
    ``hook(k, colors, mask)``, the tests' reference pruner, narrows the
    mask.  ``prefix`` pins the first edges before the walk, uncounted;
    one outside its mask yields nothing, and a join walk pins none.
    Each level tries -1 before +1 unless ``rng`` swaps them, one
    ``rng.random()`` per non-leaf level entered.  ``nodes[0]`` adds up
    attempts, each counted before its mask test, is current at every
    yield and at the end, and past ``max_nodes`` raises TooLarge; a
    level's first color is attempted on entry, the second stacked.
    """
    edge_count = comb(n, r)
    _, readers, decisions = _search_tables(r, n)
    colors = [0] * edge_count
    for k, col in enumerate(prefix):
        mask = decisions[k][readers[k](colors)][0]
        if mask and hook is not None:
            mask = hook(k, colors, mask)
        if not mask >> (col > 0) & 1:
            return
        colors[k] = col
    plus, minus, masks, valid, counter, cap = join or ((), (), (), 0, [0], 0)
    added = counter[0]
    limit = float("inf") if max_nodes is None else max_nodes
    count = nodes[0]
    stack: list[tuple[int, int, int]] = []  # untried (edge, color, valid rows or mask bit)
    k = len(prefix)
    while True:
        if k == edge_count:
            nodes[0], counter[0] = count, added
            yield colors if join is None else (colors, valid)
        else:
            mask, plus_rows, minus_rows = decisions[k][readers[k](colors)]
            if mask and hook is not None:
                mask = hook(k, colors, mask)
            ok_minus, ok_plus = mask & 1, mask & 2
            if mask and join is not None:
                ok_minus = ok_plus = valid
                if masks:
                    ok_minus, ok_plus = valid & masks[k][0], valid & masks[k][1]
                for u in plus_rows:
                    ok_minus &= plus[u]
                for u in minus_rows:
                    ok_plus &= minus[u]
                ok_minus, ok_plus = mask & 1 and ok_minus, mask >> 1 and ok_plus
                if k + 1 < edge_count:
                    added += 4 * ((ok_minus and ok_minus.bit_count())
                                  + (ok_plus and ok_plus.bit_count()))
                    if added > cap:
                        counter[0] = added
                        raise TooLarge(f"search exceeded node budget {cap}")
            if rng is not None and rng.random() < 0.5:
                stack.append((k, -1, ok_minus))
                col, ok = 1, ok_plus
            else:
                stack.append((k, 1, ok_plus))
                col, ok = -1, ok_minus
            count += 1
            if count > limit:
                raise TooLarge(f"search exceeded node budget {max_nodes}")
            if ok:
                colors[k], valid = col, ok
                k += 1
                continue
        while stack:
            k, col, ok = stack.pop()
            count += 1
            if count > limit:
                raise TooLarge(f"search exceeded node budget {max_nodes}")
            if ok:
                colors[k], valid = col, ok
                k += 1
                break
        else:
            nodes[0], counter[0] = count, added
            return


def enumerate_monotone(
    r: int,
    n: int,
    *,
    prefix: Sequence[int] = (),
    max_edges: int = SEARCH_EDGE_CAP,
    max_nodes: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[SignFunction]:
    """Yield every monotone coloring of the r-subsets of [n] exactly once.

    ``prefix`` pins the colors of the first ``len(prefix)`` edges, so
    only the colorings extending it are yielded; a prefix that is itself
    inconsistent yields nothing.  ``rng`` randomizes the color order per
    node, which turns "first leaf" into a seeded random monotone
    coloring.  ``max_nodes`` bounds the number of attempted assignments
    (TooLarge beyond).
    """
    r, n = index(r), index(n)
    limit = _check_limits(r, n, max_edges, max_nodes)
    if len(prefix) > comb(n, r) or any(v not in (-1, 1) for v in prefix):
        raise InvalidArgument(f"prefix must be over -1/+1 with length <= {comb(n, r)}")
    for colors in _search(r, n, [0], max_nodes=limit, prefix=prefix, rng=rng):
        yield SignFunction._derived(r, n, np.array(colors, dtype=np.int8))


def random_monotone_coloring(r: int, n: int, seed: int, **kwargs) -> SignFunction:
    """First leaf of a seed-randomized search: a reproducible random sample.

    It is not uniform.  At (3, 8), seeds 0..999 give a longest
    monochromatic path of 4 vertices in 703 samples, against the exact
    fraction 469,520 / 1,232,944 = 0.381 of all monotone colorings: the
    first leaf leans toward short paths.
    """
    rng = random.Random(seed)
    return next(enumerate_monotone(r, n, rng=rng, **kwargs))


@dataclass(frozen=True)
class CountReport:
    """Exact monotone-coloring count with its exponent and upper bound.

    ``exponent`` = log2(count) / n^(r-1) is the paper's 2^(n^(r-1)/r^Θ(r))
    seen on data.  For r >= 3, ``bounds_ok`` checks the count against
    2^upper_exponent = 2^(2^(r-2) n^(r-1)/(r-1)!).  ``nodes`` is the backtracking engine's
    count of attempted assignments, 2 * sum(P_d) over the depths d below
    C(n, r) with P_d consistent partial colorings, which the counting
    join computes without visiting them.
    """

    r: int
    n: int
    count: int
    nodes: int
    seconds: float
    exponent: float
    upper_exponent: float | None
    bounds_ok: bool


def _unpack(bits: int, size: int) -> np.ndarray:
    """Bitset to a 0/1 array, bit i at index i."""
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


def _pack(flags: np.ndarray) -> int:
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _bits(columns: Sequence[int], lo: int, hi: int) -> list[int]:
    """Bits lo..hi-1 of each bitset, renumbered from 0: rows lo..hi-1 of
    a table's columns."""
    low = (1 << (hi - lo)) - 1
    return [col >> lo & low for col in columns]


def _add_nodes(nodes: list[int], amount: int, limit: float) -> None:
    nodes[0] += amount
    if nodes[0] > limit:
        raise TooLarge(f"search exceeded node budget {limit}")


def _join(
    r: int,
    n: int,
    table: _Table,
    nodes: list[int],
    limit: float,
    masks: list[tuple[int, int]] | None = None,
    steps: list[int] | None = None,
) -> Iterator[tuple[list[int], int]]:
    """Walk the extensions p of the monotone rank-r colorings of [n-1].

    ``table`` = (size, plus) lists those colorings c as bitset columns:
    bit i of ``plus[t]`` is set when row i colors edge t plus.  The
    engine walks p, a rank-(r-1) coloring of [n-1], in colex order.  For
    an r-subset U of [n-1] the deletion sequence of U + {n} is
    (c(U), p's deletion sequence of U); the engine completes the latter
    at p's edge U - min(U).  If it then changes sign, it ends in p's
    color there, so c(U) must be the opposite one.  Entering that edge,
    the engine decides both its colors in one pass (`_search`, whose
    cached decision names the rows U and whether p's deletion sequence
    of U starts +1 or -1): each color's bitset of rows still valid is
    ANDed with the columns it needs, a color whose bitset is empty is
    not allowed, and the others ride on the engine's stack with their
    bitsets, so walks pause and resume alone.  ``masks``, if given, holds
    per p-edge the rows allowed to color it -1 and +1, ANDed in as well,
    and must not change during the walk.  ``steps``, if given, counts in
    ``steps[0]`` the attempts of the walk of p itself (for a one-row
    table, the engine's attempts in that row's band) and in ``steps[1]``
    its yields.  Yields (p's shared color list, the bitset of its last
    color) for every full p.

    A depth-j bitset counts the consistent partial colorings of [n] on
    the first C(n-1, r) + j edges that extend a row.  The table holds
    only colorings with the first edge minus, so for each interior
    depth four times its popcount, the engine's attempted assignments
    there for these colorings and their color swaps, goes to
    ``nodes[0]``, current at every yield and end; past ``limit``, TooLarge.
    """
    size, plus = table
    full = (1 << size) - 1
    if steps is None:
        steps = [0, 0]
    # Row u of p's deletion table is the r-subset U of [n-1] of rank u: the column of c(U).
    join = (plus, [full ^ col for col in plus], masks, full, nodes, limit)
    for leaf in _search(r - 1, n - 1, steps, join=join):
        steps[1] += 1
        yield leaf


def _leaf_rows(size: int, leaves: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """The rows of each leaf bitset in turn, as one int32 array allocated
    once from the popcount sum, and the popcounts."""
    counts = [bits.bit_count() for bits in leaves]
    rows = np.empty(sum(counts), dtype=np.int32)
    at = 0
    for bits, count in zip(leaves, counts):
        rows[at:at + count] = np.flatnonzero(_unpack(bits, size))
        at += count
    return rows, counts


def _extend(table: _Table, leaves: list[tuple[list[int], int]]) -> _Table:
    """The table of the pairs (c, p) at the join's leaves, grouped by p."""
    size, plus = table
    rows, counts = _leaf_rows(size, [bits for _, bits in leaves])
    p_plus = np.array([p for p, _ in leaves], dtype=np.int8).T > 0  # (p-edges, leaves)
    return len(rows), ([_pack(_unpack(col, size)[rows]) for col in plus]  # one column at a time
                       + [_pack(np.repeat(col, counts)) for col in p_plus])


def _join_worker(args) -> tuple[int, int]:
    """Count the pairs over one slice of table rows; returns (count, nodes added)."""
    r, n, table, nodes, limit = args
    total = [nodes]
    count = sum(bits.bit_count() for _, bits in _join(r, n, table, total, limit))
    return count, total[0] - nodes


def count_monotone(
    r: int,
    n: int,
    *,
    max_edges: int = SEARCH_EDGE_CAP,
    max_nodes: int | None = None,
    workers: int = 1,
) -> CountReport:
    """Count monotone colorings exactly by extension join.

    The color swap pairs the monotone colorings without fixed points, so
    only those coloring the first edge {1..r} minus are built, and the
    count is doubled.  From the one such coloring of [r], stage
    m = r+1..n joins the colorings of [m-1], a bitset table built by the
    previous stage, with their extensions (see `_join`); the last stage
    only counts.  ``nodes`` is the engine's total of attempted
    assignments, what exhaustive search would report: 2 * sum(P_d) over
    depths d < C(n, r), where P_d counts the consistent partial
    colorings of the first d edges, or 2 + 4 * sum(P_d / 2) over d >= 1
    by the swap; ``max_nodes`` raises TooLarge as soon as the running
    sum passes it.  ``workers`` splits the last stage's table rows into
    contiguous slices, one job each, run by at most ``os.cpu_count()``
    processes.  Counts and node totals are sums of popcounts, so neither
    they nor whether ``max_nodes`` is exceeded depend on the worker count.
    """
    r, n = index(r), index(n)
    limit = _check_limits(r, n, max_edges, max_nodes)
    workers = index(workers)
    if workers < 1:
        raise InvalidArgument(f"need workers >= 1, got {_brief(workers)}")
    start = time.perf_counter()
    table: _Table = (1, [0])  # [r] with its one edge minus
    nodes = [0]
    _add_nodes(nodes, 2, limit)  # both colors of the first edge
    for m in range(r + 1, n):
        _add_nodes(nodes, 4 * table[0], limit)
        table = _extend(table, [(list(p), bits) for p, bits in _join(r, m, table, nodes, limit)])
    size, plus = table
    count = size
    if n > r:
        _add_nodes(nodes, 4 * size, limit)
        jobs = min(workers, size)
        bounds = [size * i // jobs for i in range(jobs + 1)]
        args = [(r, n, (hi - lo, _bits(plus, lo, hi)), nodes[0], limit)
                for lo, hi in zip(bounds, bounds[1:])]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
                parts = list(pool.map(_join_worker, args))
        else:
            parts = list(map(_join_worker, args))
        count = sum(p[0] for p in parts)
        _add_nodes(nodes, sum(p[1] for p in parts), limit)
    count *= 2  # the color swap is an involution without fixed points
    seconds = time.perf_counter() - start
    upper_exponent = 2 ** (r - 2) * n ** (r - 1) / factorial(r - 1) if r >= 3 else None
    ok = upper_exponent is None or log2(count) <= upper_exponent + 1e-9
    return CountReport(r, n, count, nodes[0], seconds, log2(count) / n ** (r - 1),
                       upper_exponent, ok)


def brute_force_monotone_count(r: int, n: int) -> int:
    """Independent oracle: filter all 2^C(n,r) colorings, vectorized."""
    return _brute_force_count(r, n, transitive=False)


def brute_force_transitive_count(r: int, n: int) -> int:
    return _brute_force_count(r, n, transitive=True)


def _brute_force_count(r: int, n: int, transitive: bool) -> int:
    if not 2 <= r <= n:
        raise InvalidArgument(f"need 2 <= r <= n, got r={_brief(r)}, n={_brief(n)}")
    edge_count = _capped_comb(n, r, TABLE_CAP.bit_length())
    if 2 ** edge_count > TABLE_CAP:
        raise TooLarge(f"over {TABLE_CAP} colorings (the table cap) is beyond brute force")
    idx = colex_layout(n, r + 1).deletion
    shifts = np.arange(edge_count, dtype=np.uint32)
    total = 0
    block = 1 << 14
    for start in range(0, 2 ** edge_count, block):
        words = np.arange(start, min(start + block, 2 ** edge_count), dtype=np.uint32)
        colors = (((words[:, None] >> shifts) & 1) * 2 - 1).astype(np.int8)
        seq = colors[:, idx]
        if transitive:
            applies = seq[:, :, 0] == seq[:, :, -1]
            uniform = (seq == seq[:, :, :1]).all(axis=2)
            good = (~applies | uniform).all(axis=1)
        else:
            changes = (seq[:, :, 1:] != seq[:, :, :-1]).sum(axis=2)
            good = (changes <= 1).all(axis=1)
        total += int(good.sum())
    return total


def project(c: SignFunction, i: int) -> SignFunction:
    """Restrict to edges whose largest vertex is i, dropping i.

    The result colors the (r-1)-subsets of [i-1]; projections of a
    monotone coloring are monotone.
    """
    return _projections(c, (i,))[0]


def projection_signature(c: SignFunction) -> tuple[SignFunction, ...]:
    """All projections (i = r..n).  Distinct colorings never share one:
    every edge is recoverable from the projection onto its largest vertex.
    """
    return _projections(c, range(c.r, c.n + 1))


def _projections(c: SignFunction, vertices) -> tuple[SignFunction, ...]:
    """The projections onto each i in ``vertices``, from one check of c;
    each i is read as an integer, so a float raises TypeError."""
    r, n = c.r, c.n
    if r < 3:
        raise InvalidArgument("projection needs uniformity >= 3")
    _require_binary(c)
    out = []
    for i in map(index, vertices):
        if not r <= i <= n:
            raise InvalidArgument(f"need r <= i <= n, got i={_brief(i)}")
        out.append(SignFunction._derived(r - 1, i - 1, c.colors[comb(i - 1, r):comb(i, r)]))
    return tuple(out)


@dataclass(frozen=True)
class RamseyReport:
    """Outcome of a monotone Ramsey search.

    ``number`` is the least N at which every monotone coloring contains a
    monochromatic monotone path on ``m`` vertices, or None when the search
    was capped first — then ``lower_bound`` says the number is at least
    that much, and ``witness`` is an avoiding coloring on the largest
    vertex count searched.  When resolved, ``witness`` avoids on N-1.
    """

    r: int
    m: int
    number: int | None
    lower_bound: int
    witness: SignFunction | None
    nodes: int


def _columns(flags: np.ndarray) -> list[int]:
    """The columns of a (rows, columns) bool matrix as bitsets, bit i of
    column t set when ``flags[i, t]``; up to 64 rows take one list call."""
    packed = np.packbits(flags, axis=0, bitorder="little")  # (bytes, columns)
    words = np.zeros((flags.shape[1], -(-len(packed) // 8) * 8), dtype=np.uint8)
    words[:, :len(packed)] = packed.T
    if words.shape[1] == 8:
        return words.view("<u8").ravel().tolist()
    return [int.from_bytes(word.tobytes(), "little") for word in words]


@lru_cache(maxsize=None)
def _windows(r: int, k: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """For the p-edges S of rank r-1 on [k-1]: which have a run in p's
    deletion table (a p-edge containing 1 has no window), where each
    such run starts, and per edge of c on [k-1], the p-edge whose run
    holds it, a window {a} + S."""
    starts = np.array(_search_tables(r - 1, k - 1)[0])
    used = starts[:-1] < starts[1:]
    lo = starts[:-1][used]
    used.flags.writeable = lo.flags.writeable = False  # shared by every caller
    return used, lo, tuple(np.repeat(np.arange(len(used)), np.diff(starts)).tolist())


def _longest_through(r: int, k: int, plus: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """For rows c on [k-1] given as plus flags and ``ends`` (the longest
    monochromatic path ending at each edge, in its color), the longest
    ending at each p-edge S + {k} if it is colored -1 and if +1:
    (2, rows, p-edges).  Such a path enters from a window {a} + S of c of
    that color, the run of S in p's deletion table, so it is
    max(r, 1 + the run's longest end in that color)."""
    used, lo, _ = _windows(r, k)
    longest = np.zeros((2, len(plus), len(used)), dtype=ends.dtype)
    for color, flags in enumerate((~plus, plus)):
        longest[color][:, used] = np.maximum.reduceat(np.where(flags, ends, 0), lo, axis=1)
    np.maximum(longest, r - 1, out=longest)
    longest += 1
    return longest


class _Band:
    """A batch of avoiders on [k-1], rows of one block that the level
    below yielded, whose band through vertex k is walked as one join.
    It owns the rows' plus flags and ends, the table and per-p-edge
    masks the walk reads (see `_join`), ``below``, the band of the level
    below the block came from (None for the edgeless [r-1]), and
    ``rows``, where each row lies in it.  The engine's count
    at a leaf is ``spent``, the bands of every batch walked whole at
    every level, plus the chain's own nodes, which `count` takes down
    the chain of bands the leaf came from to the edgeless [r-1], finding
    each avoider on it among its row's leaves by its own colors.  Its
    masks come from one `_columns` call over plus and hot (end >= m-1)
    flags: no row gives a p-edge S color x next to a hot x-window {a} + S."""

    def __init__(self, r: int, k: int, m: int, below: _Band | None, rows: np.ndarray,
                 plus: np.ndarray, ends: np.ndarray):
        self.r, self.k, self.below, self.rows = r, k, below, rows
        self.plus, self.ends = plus, ends
        columns = _columns(np.concatenate((plus, ends >= m - 1), axis=1))
        used, _, owner = _windows(r, k)
        hot = [[0, 0] for _ in used]  # per p-edge, the rows with a hot window colored -1, +1
        for s, col, flags in zip(owner, columns, columns[len(owner):]):
            if flags:
                hot[s][0] |= flags & ~col
                hot[s][1] |= flags & col
        top = (1 << len(plus)) - 1 if m > r else 0  # a p-edge ends a path of r vertices
        self.table: _Table = (len(plus), columns[:len(owner)])
        self.masks = [(top & ~to_minus, top & ~to_plus) for to_minus, to_plus in hot]

    def walk(self, lo: int, hi: int, nodes: list[int], steps: list[int] | None = None):
        """The `_join` walk of rows lo..hi-1 alone, renumbered from 0."""
        table = (hi - lo, _bits(self.table[1], lo, hi))
        masks = [tuple(_bits(pair, lo, hi)) for pair in self.masks]
        return _join(self.r, self.k, table, nodes, float("inf"), masks, steps)

    def count(self, i: int, p: list[int], walked: list[int] | None = None) -> int:
        """The engine's nodes on the chain of the leaf p of row i's band,
        past ``spent``: 2 * i, the join nodes of the rows before row i
        (``walked``, their walk's node list, if the caller walked them),
        row i's walk alone, the engine's walk of its band, up to p, and
        the same one band down for row i's avoider, by its last colors."""
        steps = [0, 0]
        next(leaf for leaf, _ in self.walk(i, i + 1, [0], steps) if leaf == p)
        if walked is None:
            walked = [0]
            for _ in self.walk(0, i, walked) if i else ():
                pass
        entry = 2 * i
        if self.below is not None:
            last = (self.plus[i, comb(self.k - 2, self.r):] * 2 - 1).tolist()
            entry += self.below.count(int(self.rows[i]), last)
        return entry + walked[0] // 2 + steps[0]

    def grown(self, rows: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``rows``, sorted, extended by the p's with plus flags
        ``p``: the plus flags and ends of the avoiders on [k].  The new
        ends are `_longest_through`'s at p's colors, taken once per row;
        they fit in uint8, since check_size keeps n below 256."""
        distinct = rows[rows != np.concatenate(([-1], rows[:-1]))]
        longest = _longest_through(self.r, self.k, self.plus[distinct], self.ends[distinct])
        at = np.searchsorted(distinct, rows)  # each row's place among the distinct rows
        at_p = longest[p.view(np.int8), at[:, None], np.arange(p.shape[1])]
        return (np.concatenate((self.plus[rows], p), axis=1),
                np.concatenate((self.ends[rows], at_p), axis=1))


def _batches(r: int, k: int, m: int, limit: float, spent: list[int], nodes: list[int],
             blocks: Iterator[tuple]):
    """The avoiders on [k-1] in engine order, in batches of at most
    TABLE_CAP colors, each cut from one of ``blocks``, the blocks on
    [k-1] as `_avoiders` yields them, with the walk of each batch's band
    through vertex k: yields (`_Band`, the `_join` walk).  A caller that
    resumes has walked the band to the end, and its total goes to
    ``spent[0]``.  The first batch is one row, and `_growth` sizes each
    next one from the last walk; no output depends on the sizes, since
    band totals are popcount sums and the budget is checked only between
    batches.  TooLarge is raised once ``nodes[0]``, the engine's count
    at the search's start, plus ``spent[0]`` pass ``limit``: the engine
    walks every band ``spent`` holds before its leaf, and reports
    2 * spent - 2 >= spent without one.  The next block is taken only
    when every row of the last one has been walked, so the level below
    raises its own TooLarge between batches too: a search within the
    budget ends among the rows already yielded."""
    # at least 1, since check_size admitted (r, n); on [r-1], C(r-1, r) = 0: no edge
    cap = TABLE_CAP // (comb(k - 1, r) or 1)
    size = 1
    for below, rows, plus, ends in blocks:
        lo = 0
        while lo < len(rows):
            hi = lo + size
            band = _Band(r, k, m, below, rows[lo:hi], plus[lo:hi], ends[lo:hi])
            walked, steps = [0], [0, 0]
            yield band, _join(r, k, band.table, walked, float("inf"), band.masks, steps)
            spent[0] += 2 * band.table[0] + walked[0] // 2
            if nodes[0] + spent[0] > limit:
                raise TooLarge(f"search exceeded node budget {limit}")
            lo, size = hi, min(size * _growth(band.table[0], steps[1], walked[0] // 2, steps[0]),
                               cap)


def _growth(rows: int, leaves: int, nodes: int, steps: int) -> int:
    """How many times larger than a batch of ``rows`` rows the next one
    is: the engine nodes per p-node of its band walk, ``nodes`` over
    ``steps`` attempts of p, at least 2, while the walk yielded fewer
    p's (``leaves``) than rows, else 2.  One walk of p serves every row,
    so a walk that shares much calls for a larger batch; the leaf
    condition keeps a level's blocks, and memory, from growing with it."""
    return max(2, nodes // steps) if leaves < rows else 2


def _avoiders(batches: Iterator[tuple]):
    """The avoiders on [k] whose first edge is minus, in the path-pruned
    engine's order, as nonempty blocks (band, rows, plus, ends): the
    `_Band` whose walk found them, the rows of that band they extend,
    one per avoider, and the avoiders' plus flags and path ends, grown
    once per block.  ``batches`` is the level's batch walks, the bands
    through vertex k of the avoiders on [k-1] (`_batches`, or what
    `_first_avoider` hands on).

    Each batch of avoiders on [k-1] walks its band through vertex k once
    (`_batches` gives the walk, with the masks its hot edges give,
    and sizes the batches by how much their walks share, which changes
    neither the avoiders, their order nor any count),
    and its leaves come out sorted by row, then by p in walk order, which
    is the engine's own order of p: one `unpackbits` turns the leaves'
    bitsets into flags, at most TABLE_CAP / 8 of them per block of rows
    (unless 8 rows per leaf pass it), and the flags read by row give
    both; a byte range of the bitsets with no bit set yields no block.
    On [r-1] the one coloring has no edge, so [r] is an ordinary
    level: its band walks p = -1, then +1, each ending a path of r
    vertices, but yields -1 alone, since the color swap maps the
    avoiders below +1 onto those below -1.  An exhaustive walk thus adds
    to ``spent`` the root's two attempts and the engine's nodes below -1
    alone: half the engine's total, plus one.
    """
    for band, walk in batches:
        if leaves := [(list(p), bits) for p, bits in walk if band.k > band.r or p[0] < 0]:
            width = -(-band.table[0] // 8)
            raw = b"".join(bits.to_bytes(width, "little") for _, bits in leaves)
            raw = np.frombuffer(raw, dtype=np.uint8).reshape(len(leaves), width)
            flags = np.array([p for p, _ in leaves], dtype=np.int8) > 0
            # a byte per flag, TABLE_CAP bits' worth per block: blocks of TABLE_CAP
            # bytes read 1.4 MB more peak RSS in find_avoiding_coloring(3, 11, 5)
            step = max(1, TABLE_CAP // 64 // len(leaves))  # bytes of each leaf's bitset
            for lo in range(0, width, step):
                if not raw[:, lo:lo + step].any():
                    continue
                block = np.unpackbits(raw[:, lo:lo + step], axis=1, bitorder="little").T
                rows, which = block.nonzero()  # sorted by row, then by leaf
                del block  # not held across the yield
                rows = rows.astype(np.int32) + 8 * lo
                yield band, rows, *band.grown(rows, flags[which])


def _levels(r: int, k: int, m: int, limit: float, spent: list[int], nodes: list[int]):
    """The blocks of avoiders on [k], level by level from the one
    coloring of [r-1], which has no edge."""
    blocks = iter([(None, np.zeros(1, dtype=np.int32), np.zeros((1, 0), dtype=bool),
                    np.zeros((1, 0), dtype=np.uint8))])
    for level in range(r, k + 1):
        blocks = _avoiders(_batches(r, level, m, limit, spent, nodes, blocks))
    return blocks


def _first_avoider(r: int, n: int, m: int, nodes: list[int], limit: float, spent: list[int],
                   blocks: Iterator[tuple]) -> tuple[SignFunction | None, Iterator[tuple]]:
    """The path-pruned engine's first leaf on [n], with ``nodes[0]``
    advanced by its count from the search's start, and the level on [n]
    (`_avoiders`); None, with the exhaustive total, and no level when
    there is no leaf.  ``blocks`` gives the avoiders on [n-1]
    (`_avoiders`), ``spent`` the totals of the bands already walked
    whole below them, ``nodes[0]`` the count before the search.  Past
    ``limit`` raises TooLarge, as the engine would: ``spent`` may have
    grown since ``nodes[0]`` last did, so that is checked first.

    The leaf lies in the band of the first avoider c on [n-1] in engine
    order that extends, the edgeless coloring of [r-1] when n = r: the
    engine walks the whole band of every avoider before c, and the same
    holds one vertex down for every avoider on the way.  Only avoiders
    with the first edge minus are walked: the color swap puts the first
    leaf below -1, and makes the tree below +1 as large as the tree
    below -1, so the exhaustive total is 2 * spent - 2 (the root's two
    attempts counted once).  One `_join` walk of the band decides every
    row of a batch of the avoiders on [n-1] that `_batches` yields.  Its
    first leaf's lowest row extends; the rows below it alone can lower
    the answer, so they are walked on their own, and so on until such a
    walk yields no leaf, whose total is then the top band's rows before
    c (`_Band.count`).  The batch's own walk pauses at its first leaf,
    and no later batch, here or below, is walked; a batch where no row
    extends adds its band total to ``spent``.  The level handed on
    resumes that walk, its first leaf put back in front, and then the
    batches after it, so it yields what the level on [n] from scratch
    yields, and leaves the same ``spent``.  The leaf need not be copied:
    its colors are `_search`'s own list, which changes only when the
    walk resumes, after `_avoiders` has copied them.
    """
    if nodes[0] + spent[0] > limit:
        raise TooLarge(f"search exceeded node budget {limit}")
    batches = _batches(r, n, m, limit, spent, nodes, blocks)
    for band, walk in batches:
        if (head := next(walk, None)) is None:
            continue
        below = iter([head])
        while (leaf := next(below, None)) is not None:  # then the rows below its lowest row, alone
            (p, bits), walked = leaf, [0]
            first, p = (bits & -bits).bit_length() - 1, list(p)
            below = band.walk(0, first, walked) if first else iter(())
        _add_nodes(nodes, spent[0] + band.count(first, p, walked), limit)
        colors = (band.plus[first] * 2 - 1).tolist() + p
        # iter([x]), not [x]: chain keeps its arguments to the end, a spent list iterator lets x go
        level = _avoiders(chain(iter([(band, chain(iter([head]), walk))]), batches))
        return SignFunction(r, n, np.array(colors, dtype=np.int8)), level
    _add_nodes(nodes, 2 * spent[0] - 2, limit)
    return None, iter(())


def find_avoiding_coloring(
    r: int,
    n: int,
    m: int,
    *,
    max_edges: int = SEARCH_EDGE_CAP,
    max_nodes: int | None = None,
) -> tuple[SignFunction | None, int]:
    """A monotone coloring of K^r_n without monochromatic m-vertex paths.

    The path-pruned engine's first leaf, found by the band join (module
    docstring): the levels [r]..[n-1], then the one step on [n] that
    `ramsey_number` takes at every vertex count.  Returns (coloring or
    None, node count).
    """
    r, n, m = index(r), index(n), index(m)
    if m < r:
        raise InvalidArgument(f"need m >= r, got m={_brief(m)}, r={_brief(r)}")
    limit = _check_limits(r, n, max_edges, max_nodes)
    nodes, spent = [0], [0]
    blocks = _levels(r, n - 1, m, limit, spent, nodes)
    return _first_avoider(r, n, m, nodes, limit, spent, blocks)[0], nodes[0]


def ramsey_number(
    r: int,
    m: int,
    n_max: int,
    *,
    max_edges: int = SEARCH_EDGE_CAP,
    max_nodes: int | None = None,
) -> RamseyReport:
    """Least N forcing monochromatic m-vertex paths, searched up to n_max;
    ``max_nodes`` bounds the whole run, summed over every vertex count.

    Every n = m..n_max takes the same step as `find_avoiding_coloring`,
    `_first_avoider`, on one set of levels from [r] up: the step on [n]
    stops at its first leaf and hands on the level on [n], which feeds
    the step on [n+1].  Each n reports what a fresh search would: the
    fresh search walks whole the same batches at every level below its
    leaf, the batch of the last witness among them, so the ``spent`` the
    levels share is the fresh search's, and the witness's count is
    ``spent`` plus its chain (`_Band.count`), or 2 * spent - 2 when the
    level yields nothing.  Budget checks count from the total of the
    earlier vertex counts: ``spent`` changes only between batches, each
    change is checked, and the step checks once more on entering each n,
    which covers the changes made before it, so the run raises TooLarge
    exactly when one of its fresh searches would.
    """
    r, m, n_max = index(r), index(m), index(n_max)
    if not 2 <= r <= m <= n_max:
        raise InvalidArgument(f"need 2 <= r <= m <= n_max, got {_brief((r, m, n_max))}")
    limit = _check_limits(r, m, max_edges, max_nodes)
    nodes, spent = [0], [0]
    blocks, witness = _levels(r, m - 1, m, limit, spent, nodes), None
    for n in range(m, n_max + 1):
        _check_limits(r, n, max_edges, max_nodes)
        found, blocks = _first_avoider(r, n, m, nodes, limit, spent, blocks)
        if found is None:
            return RamseyReport(r, m, n, n, witness, nodes[0])
        witness = found
    return RamseyReport(r, m, None, n_max + 1, witness, nodes[0])


@dataclass(frozen=True)
class AtLeast:
    """A tower value too large to materialize: the value is >= 2^bits."""

    bits: int

    def __repr__(self) -> str:
        return f"AtLeast(2^{self.bits})"


def tow(h: int, x):
    """Iterated exponentiation: height-1 applications of 2^_ to x.

    Exact when every intermediate fits in TABLE_CAP bits; otherwise a
    symbolic AtLeast(TABLE_CAP), meaning the value is at least 2^TABLE_CAP.
    Accepts nonpositive x (the intermediate values then pass through
    floats), which keeps size invariants checkable at small parameters;
    a float intermediate that would leave the float range raises TooLarge.
    An integer x is read with `operator.index` and any other real with
    `float`, so a numpy integer does not wrap and a numpy float neither
    rounds to its own range nor overflows to inf.
    """
    if h < 1 or x != x:  # x != x: NaN, which never passes the cap
        raise InvalidArgument(f"need height >= 1 and x not NaN, got h={_brief(h)}, x={_brief(x)}")
    val = index(x) if isinstance(x, Integral) else float(x) if isinstance(x, Real) else x
    for _ in range(h - 1):
        if val > TABLE_CAP:
            return AtLeast(TABLE_CAP)
        try:
            val = 2 ** val
        except OverflowError:
            raise TooLarge(f"2^{_brief(val)} leaves the float range") from None
    return val
