"""Integer compositions, their signs, and the block-recursive coloring.

A composition of m is an ordered tuple of positive parts summing to m.
Repeatedly trimming the last part (decrement if > 1, drop if 1) reaches
one of two base forms, (1, ..., 1, 2) or (p, 1) with p > 1, unless the
composition is all ones or a single part.  The sign of a composition is
the sign of that base form, and a base form's sign depends only on the
parity of its total: (1, ..., 1, 2) is negative for odd totals, (p, 1)
is positive for odd totals, and both flip for even totals.  This single
parity rule reproduces every explicitly stated case and is pinned by
tests on all compositions of 3, 4, and 5.

``block_coloring(r, h)`` colors the r-subsets of [r^h] with -, 0, +:
split the vertices into r consecutive blocks of size r^(h-1); an edge
inside one block recurses, an edge hitting every block once compares the
alternating sums of its within-block positions (0 on a tie), and every
other edge gets the sign of its block occupancy composition.  Every way
of replacing the 0 entries by signs yields a monotone coloring.

``completions`` fills the zeros and yields each coloring with both
predicates already decided.  A filling can change only the (r+1)-subsets
with a face among the zeros: 1,296 of the 17,550 at (r, h) = (3, 3), 576 of
4,368 at (4, 2) and 5,200 of 177,100 at (5, 2).  One decision per call,
before the first filling, asks whether some filling can make one of these
touched subsets change sign twice: with every fill position read as 0,
whether a row of their colors can spell a, -a, a at three increasing
positions, for a = -1 or +1, where a 0 can hold either sign.  When none can,
as in every block coloring, a filling breaks the predicates only on
untouched subsets, whose colors the template fixes (a transitive violation
changes sign twice as well), so all fillings of the call share their
violation ranks: the first is checked in full, and its answer is stored on
the rest.  When one can, every filling is checked in full by its own
``SignFunction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import factorial
from operator import index
from typing import Iterator, Sequence

import numpy as np

from .core import TABLE_CAP, SignFunction, _brief, check_size, colex_layout
from .errors import InvalidArgument, NoReduction, TooLarge

Composition = tuple[int, ...]

#: Fillings that `completions` draws or forms with one numpy call: a sample
#: block is one row per filling, padded to whole 32-bit words of the generator,
#: so it is the same stream as one draw per sample.  A completion took 7.6 us
#: with blocks of 1 filling, 3.8 with 8, 3.2 with 64 and 3.1 with 1,024, at
#: (r, h) = (3, 3) on 2 vCPUs; 64 keeps a block at 64 bytes per zero.
_BLOCK = 64


def compositions(m: int, parts: int | None = None) -> Iterator[Composition]:
    """All compositions of m (into the given number of parts, if set), in
    lexicographic order; m over TABLE_CAP is refused before the first.

    There are C(m-1, k-1) compositions into k parts and 2^(m-1) overall.
    m and parts are read with ``operator.index``, so a float raises TypeError.
    """
    m, parts = index(m), None if parts is None else index(parts)
    if m < 1 or (parts is not None and parts < 0):
        raise InvalidArgument(f"need m >= 1 and parts >= 0, got (m, parts) = {_brief((m, parts))}")
    if m > TABLE_CAP:
        raise TooLarge(f"compositions of m={_brief(m)} exceed the table cap {TABLE_CAP}")
    if parts is None:  # digit j of w is 1 when a part ends at j: counting down is lexicographic
        for w in range(2 ** (m - 1) - 1, -1, -1):
            yield tuple(len(run) + 1 for run in f"{w:0{m}b}"[1:].split("1"))
    elif 0 < parts <= m:  # the ends of the first parts-1 parts, stepped in lexicographic order
        ends = list(range(1, parts))
        while True:
            yield tuple(b - a for a, b in zip((0, *ends), (*ends, m)))
            # step the last end below its largest value, m - parts + 1 + i; those after follow it
            i = next((i for i in reversed(range(parts - 1)) if ends[i] < m - parts + 1 + i), -1)
            if i < 0:
                return
            ends[i:] = range(ends[i] + 1, ends[i] + parts - i)


def _validate(sigma: Sequence[int]) -> Composition:
    sigma = tuple(map(index, sigma))
    if not sigma or any(p < 1 for p in sigma):
        raise InvalidArgument(f"composition parts must be positive, got {_brief(sigma)}")
    return sigma


def reduction(sigma: Sequence[int]) -> Composition:
    """The unique base form reached by reduction steps.

    Exists exactly when sigma is neither all ones nor a single part; a
    base form is its own reduction.  Steps only trim the end, so it is
    read off the front: (sigma_1, 1), or 1s up to the first part > 1, then 2.
    """
    sigma = _validate(sigma)
    if len(sigma) == 1 or all(p == 1 for p in sigma):
        raise NoReduction(f"{_brief(sigma)} has no reduction")
    j = next(i for i, p in enumerate(sigma) if p > 1)
    return (sigma[0], 1) if j == 0 else (1,) * j + (2,)


def sign(sigma: Sequence[int]) -> int | None:
    """-1, +1, or None for the two signless shapes (all ones, single part)."""
    sigma = _validate(sigma)
    total = sum(sigma)
    if total < 3:
        raise InvalidArgument(f"signs are defined for totals >= 3, got {_brief(total)}")
    if len(sigma) == 1 or all(p == 1 for p in sigma):
        return None
    base = reduction(sigma)
    base_total = sum(base)
    if base[-1] == 2:  # (1, ..., 1, 2)
        return -1 if base_total % 2 == 1 else 1
    return 1 if base_total % 2 == 1 else -1  # (p, 1)


@dataclass(frozen=True)
class TernaryColoring:
    """A three-valued coloring of the block construction; `completions` fills its zeros."""

    fun: SignFunction

    @property
    def r(self) -> int:
        return self.fun.r

    @property
    def n(self) -> int:
        return self.fun.n

    @property
    def zero_positions(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.fun.colors == 0).tolist())

    def transversal_zero_positions(self) -> tuple[int, ...]:
        """Zero edges not inside one top-level block: n // r vertices, or n when n = r."""
        zeros = np.flatnonzero(self.fun.colors == 0)
        m = self.n // self.r if self.n > self.r else self.n
        blocks = (colex_layout(self.n, self.r).edges[zeros] - 1) // m
        return tuple(zeros[blocks[:, 0] != blocks[:, -1]].tolist())


def block_coloring(r: int, h: int) -> TernaryColoring:
    """The recursive block coloring on r^h vertices, one array statement per rule."""
    r, h = index(r), index(h)
    if r < 3 or h < 1:
        raise InvalidArgument(f"need r >= 3 and h >= 1, got r={_brief(r)}, h={_brief(h)}")
    if h * (r.bit_length() - 1) >= TABLE_CAP.bit_length():  # r^h >= 2^(h(bits(r) - 1)) > cap
        raise TooLarge(f"r^h for r={_brief(r)}, h={_brief(h)} exceeds the table cap {TABLE_CAP}")
    n = r ** h
    check_size(r, n)
    if h == 1:
        return TernaryColoring(SignFunction(r, n, np.zeros(1, dtype=np.int8), ternary_allowed=True))

    sub = block_coloring(r, h - 1)
    m = r ** (h - 1)
    # int16 throughout: n <= 27 and the shape codes below r^r <= 3,125 once h >= 2
    shifted = colex_layout(n, r).edges.astype(np.int16) - 1
    blocks, inner = np.divmod(shifted, m)
    del shifted
    inner += 1
    inside = blocks[:, 0] == blocks[:, -1]
    across = (np.diff(blocks, axis=1) > 0).all(axis=1)
    mixed = ~(inside | across)
    colors = np.empty(len(blocks), dtype=np.int8)
    colors[inside] = sub.fun.colors[colex_layout(m, r).rank(inner[inside])]
    colors[across] = np.sign(inner[across, 1::2].sum(axis=1) - inner[across, 0::2].sum(axis=1))
    blocks = blocks[mixed]
    _, first, shape = np.unique(blocks @ r ** np.arange(r, dtype=np.int16),
                                return_index=True, return_inverse=True)
    signs = [sign([len(list(run)) for _, run in groupby(row)]) for row in blocks[first].tolist()]
    colors[mixed] = np.array(signs, dtype=np.int8)[shape]
    return TernaryColoring(SignFunction(r, n, colors, ternary_allowed=True))


def completions(
    t: TernaryColoring,
    mode: str = "all",
    count: int = 0,
    seed: int = 0,
) -> Iterator[SignFunction]:
    """Binary colorings obtained by filling every 0 of ``t.fun`` with - or +,
    each with the template's r and n.

    ``mode="all"`` walks all 2^z fillings (z = number of zeros), refused
    when 2^z exceeds TABLE_CAP; ``mode="sample"`` draws ``count``
    fillings, at most TABLE_CAP, from a PCG64 generator seeded with
    ``seed``, reproducibly; both refusals come before any work.

    Each coloring arrives with both predicates decided (module docstring):
    when some filling can make a subset with a face among the zeros change
    sign twice, each coloring is checked in full; otherwise the first is,
    and the later ones share its answer.  Sampled fillings are drawn 64 at
    a time, as the same stream as one ``integers(0, 2, size=z, dtype=int8)``
    call per sample.
    """
    zeros = np.flatnonzero(t.fun.colors == 0)
    z = len(zeros)
    if mode == "all":
        if z >= TABLE_CAP.bit_length():  # 2^z > TABLE_CAP
            raise TooLarge(f"{z} zeros means 2^{z} completions, "
                           f"over the table cap {TABLE_CAP}; use sampling")
    elif mode == "sample":
        if count < 1 or seed < 0:
            raise InvalidArgument(
                f"sample mode needs count >= 1 and seed >= 0, got {_brief((count, seed))}")
        if count > TABLE_CAP:
            raise TooLarge(f"{_brief(count)} samples exceed the table cap {TABLE_CAP}")
    else:
        raise InvalidArgument(f"mode must be 'all' or 'sample', got {mode!r}")
    colors = np.array(t.fun.colors)  # the work buffer each fill is written into
    check_each = _can_change_twice(colors[_touched(t.r, t.n, zeros)])
    total = 2 ** z if mode == "all" else count
    rng = np.random.default_rng(seed) if mode == "sample" else None
    shared = None  # the violations of the first filling
    for start in range(0, total, _BLOCK):
        size = min(_BLOCK, total - start)
        if rng is None:
            fills = (np.arange(start, start + size)[:, None] >> np.arange(z) & 1).astype(np.int8)
        else:  # 4 int8 draws per 32-bit word: whole words per row keep each sample's stream
            fills = rng.integers(0, 2, size=(size, -(-z // 4) * 4), dtype=np.int8)[:, :z]
        for fill in 2 * fills - 1:
            colors[zeros] = fill
            fun = SignFunction._derived(t.r, t.n, colors.copy())  # the buffer is written again
            if check_each or shared is None:
                shared = fun._violations  # decided in full and stored
            else:
                object.__setattr__(fun, "_violations", shared)
            yield fun


def _touched(r: int, n: int, zeros: np.ndarray) -> np.ndarray:
    """The faces of the (r+1)-subsets with a face among the edges ``zeros``,
    one row per subset and zero face, so a subset with several zero faces
    repeats, each row in deletion order (largest vertex deleted first).
    Each zero edge lies in n - r of them, so there are z(n-r) rows."""
    edges = colex_layout(n, r).edges[zeros]
    outside = np.ones((len(zeros), n + 1), dtype=bool)
    outside[:, 0] = False
    outside[np.arange(len(zeros))[:, None], edges] = False
    row, extra = np.nonzero(outside)
    sets = np.sort(np.column_stack([edges[row], extra]), axis=1)
    return np.column_stack([colex_layout(n, r).rank(np.delete(sets, r - j, axis=1))
                            for j in range(r + 1)])


def _can_change_twice(rows: np.ndarray) -> bool:
    """Whether some filling of the 0 entries of ``rows``, each -1, 0 or +1,
    makes a row change sign twice: for a = -1 or +1, whether a row spells
    a, -a, a at three increasing positions, where an entry can hold a unless
    it is -a."""
    for a in (-1, 1):
        first = np.logical_or.accumulate(rows != -a, axis=1)  # a, up to each column
        then = np.logical_or.accumulate(first[:, :-1] & (rows[:, 1:] != a), axis=1)  # a, -a
        if (then[:, :-1] & (rows[:, 2:] != -a)).any():
            return True
    return False


def zero_lower_bound(r: int, h: int) -> int:
    """Guaranteed number of cross-block zero edges of the block coloring."""
    r, h = index(r), index(h)
    if r < 3 or h < 2:
        raise InvalidArgument(f"need r >= 3 and h >= 2, got r={_brief(r)}, h={_brief(h)}")
    if (r - 1) * (h - 1) * r.bit_length() > TABLE_CAP:  # bounds the bits of half^(r-1)
        raise TooLarge(f"r={_brief(r)}, h={_brief(h)} needs over {TABLE_CAP} bits (table cap)")
    m = r ** (h - 1)
    half = (m + 1) // 2
    numerator = half ** (r - 1) - half
    return -(-numerator // factorial(r))
