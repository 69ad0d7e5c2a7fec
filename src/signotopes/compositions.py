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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .core import TABLE_CAP, SignFunction, _brief, check_size, colex_layout
from .errors import InvalidArgument, NoReduction, TooLarge

#: Exhaustive completion is refused above this many 0 entries.
ALL_COMPLETIONS_CAP = 20

Composition = tuple[int, ...]


def compositions(m: int, parts: int | None = None) -> Iterator[Composition]:
    """All compositions of m (into the given number of parts, if set).

    There are C(m-1, k-1) compositions into k parts and 2^(m-1) overall.
    """
    if m < 1 or (parts is not None and parts < 0):
        raise InvalidArgument(f"need m >= 1 and parts >= 0, got m={m}, parts={parts}")
    if parts == 0 or (parts is not None and parts > m):
        return
    if parts == 1 or m == 1:
        if parts in (None, 1):
            yield (m,)
        return
    for first in range(1, m):
        rest = parts - 1 if parts is not None else None
        for tail in compositions(m - first, rest):
            yield (first,) + tail
    if parts is None:
        yield (m,)


def _validate(sigma: Sequence[int]) -> Composition:
    sigma = tuple(sigma)
    if not sigma or any(p < 1 for p in sigma):
        raise InvalidArgument(f"composition parts must be positive, got {sigma}")
    return sigma


def is_base_form(sigma: Sequence[int]) -> bool:
    sigma = _validate(sigma)
    if len(sigma) == 2 and sigma[0] > 1 and sigma[1] == 1:
        return True
    return len(sigma) >= 2 and sigma[-1] == 2 and all(p == 1 for p in sigma[:-1])


def reduction_step(sigma: Sequence[int]) -> Composition:
    sigma = _validate(sigma)
    if len(sigma) == 1 and sigma[0] == 1:
        raise NoReduction("cannot step below (1)")
    if sigma[-1] > 1:
        return sigma[:-1] + (sigma[-1] - 1,)
    return sigma[:-1]


def reduction(sigma: Sequence[int]) -> Composition:
    """The unique base form reached by reduction steps.

    Exists exactly when sigma is neither all ones nor a single part; a
    base form is its own reduction.
    """
    sigma = _validate(sigma)
    if len(sigma) == 1 or all(p == 1 for p in sigma):
        raise NoReduction(f"{sigma} has no reduction")
    while not is_base_form(sigma):
        sigma = reduction_step(sigma)
    return sigma


def sign(sigma: Sequence[int]) -> int | None:
    """-1, +1, or None for the two signless shapes (all ones, single part)."""
    sigma = _validate(sigma)
    total = sum(sigma)
    if total < 3:
        raise InvalidArgument(f"signs are defined for totals >= 3, got {total}")
    if len(sigma) == 1 or all(p == 1 for p in sigma):
        return None
    base = reduction(sigma)
    base_total = sum(base)
    if base[-1] == 2:  # (1, ..., 1, 2)
        return -1 if base_total % 2 == 1 else 1
    return 1 if base_total % 2 == 1 else -1  # (p, 1)


@dataclass(frozen=True)
class TernaryColoring:
    """A three-valued coloring produced by the block construction."""

    fun: SignFunction
    r: int
    h: int
    n: int
    m: int
    zero_positions: tuple[int, ...]

    def transversal_zero_positions(self) -> tuple[int, ...]:
        """Zero edges not contained in a single top-level block."""
        zeros = np.asarray(self.zero_positions, dtype=np.int64)
        blocks = (colex_layout(self.n, self.r).edges[zeros] - 1) // self.m
        return tuple(zeros[blocks[:, 0] != blocks[:, -1]].tolist())


def block_coloring(r: int, h: int) -> TernaryColoring:
    """The recursive block coloring on r^h vertices, one array statement per rule."""
    if r < 3 or h < 1:
        raise InvalidArgument(f"need r >= 3 and h >= 1, got r={r}, h={h}")
    if h >= TABLE_CAP.bit_length():  # r^h >= 2^h: refused without forming r^h
        raise TooLarge(f"r^h vertices for h={_brief(h)} exceed the table cap {TABLE_CAP}")
    n = r ** h
    check_size(r, n)
    if h == 1:
        fun = SignFunction(r, n, np.zeros(1, dtype=np.int8), ternary_allowed=True)
        return TernaryColoring(fun, r, h, n, n, (0,))

    sub = block_coloring(r, h - 1)
    m = r ** (h - 1)
    edges = colex_layout(n, r).edges
    blocks = (edges - 1) // m
    inner = edges - blocks * m
    inside = blocks[:, 0] == blocks[:, -1]
    across = (np.diff(blocks, axis=1) > 0).all(axis=1)
    mixed = ~(inside | across)
    colors = np.empty(len(edges), dtype=np.int8)
    colors[inside] = sub.fun.colors[colex_layout(m, r).rank(inner[inside])]
    colors[across] = np.sign(inner[across, 1::2].sum(axis=1) - inner[across, 0::2].sum(axis=1))
    _, first, shape = np.unique(blocks[mixed] @ r ** np.arange(r),
                                return_index=True, return_inverse=True)
    signs = [sign([len(list(run)) for _, run in groupby(row)])
             for row in blocks[mixed][first].tolist()]
    colors[mixed] = np.array(signs, dtype=np.int8)[shape]
    fun = SignFunction(r, n, colors, ternary_allowed=True)
    return TernaryColoring(fun, r, h, n, m, tuple(np.flatnonzero(colors == 0).tolist()))


def completions(
    t: TernaryColoring,
    mode: str = "all",
    count: int = 0,
    seed: int = 0,
) -> Iterator[SignFunction]:
    """Binary colorings obtained by filling every 0 with - or +.

    ``mode="all"`` walks all 2^z fillings (z = number of zeros, capped);
    ``mode="sample"`` draws ``count`` fillings from a PCG64 generator
    seeded with ``seed``, reproducibly.
    """
    zeros = np.array(t.zero_positions, dtype=np.int64)
    base = np.asarray(t.fun.colors)
    if mode == "all":
        if len(zeros) > ALL_COMPLETIONS_CAP:
            raise TooLarge(
                f"{len(zeros)} zeros means 2^{len(zeros)} completions "
                f"(cap 2^{ALL_COMPLETIONS_CAP}); use sampling"
            )
        for word in range(2 ** len(zeros)):
            colors = base.copy()
            fills = ((word >> np.arange(len(zeros))) & 1).astype(np.int8)
            colors[zeros] = 2 * fills - 1
            yield SignFunction(t.r, t.n, colors)
    elif mode == "sample":
        if count < 1 or seed < 0:
            raise InvalidArgument(
                f"sample mode needs count >= 1 and seed >= 0, got count={count}, seed={seed}")
        rng = np.random.default_rng(seed)
        for _ in range(count):
            colors = base.copy()
            colors[zeros] = 2 * rng.integers(0, 2, size=len(zeros), dtype=np.int8) - 1
            yield SignFunction(t.r, t.n, colors)
    else:
        raise InvalidArgument(f"mode must be 'all' or 'sample', got {mode!r}")


def zero_lower_bound(r: int, h: int) -> int:
    """Guaranteed number of cross-block zero edges of the block coloring."""
    if r < 3 or h < 2:
        raise InvalidArgument(f"need r >= 3 and h >= 2, got r={r}, h={h}")
    m = r ** (h - 1)
    half = (m + 1) // 2
    numerator = half ** (r - 1) - half
    return -(-numerator // factorial(r))
