"""Wiring diagrams for 3-uniform monotone colorings.

A monotone coloring of triples encodes a simple arrangement of n
pseudolines: wires enter at the left in label order and every pair
crosses exactly once.  The color of the triple i < j < k fixes the order
of its three crossings along the sweep: minus means (i,j) then (i,k)
then (j,k), plus means the reverse, so each wire meets the other two in
increasing (minus) or decreasing (plus) label order.  Summed over the
triples, these give each wire's local sequence, and the sweep performs
crossings that are next in the local sequences of both their wires.  A
diagram is (n, sweep); the one walk that validates a sweep derives its
trace, and the converse map then lists each pair's crossing step by
colex rank and reads (i, j, k) as minus iff wire k meets i before j.  The
convention is pinned by the round-trip tests, since flipping it breaks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .core import (TABLE_CAP, SignFunction, _brief, _capped_comb, check_size, colex_layout,
                   monotone_violation)
from .errors import InvalidArgument, InvalidWiring, NotMonotone, NotRealizable, TooLarge

Crossing = tuple[int, int]


@dataclass(frozen=True)
class WiringDiagram:
    """A sweep: all C(n,2) crossings in left-to-right order."""

    n: int
    sweep: tuple[Crossing, ...]

    @cached_property
    def trace(self) -> tuple[tuple[int, ...], ...]:
        """``trace[t]``: the top-to-bottom wire order after t crossings; validates the sweep.

        Its (C(n,2)+1)·n positions are refused over TABLE_CAP before the walk.
        """
        n = self.n
        if n < 1:
            raise InvalidWiring(f"need at least one wire, got n={_brief(n)}")
        if (_capped_comb(n, 2, TABLE_CAP) + 1) * n > TABLE_CAP:
            raise TooLarge(f"the trace of {_brief(n)} wires holds more than the table cap "
                           f"{TABLE_CAP} positions")
        if len(self.sweep) != comb(n, 2):
            raise InvalidWiring(f"expected {_brief(comb(n, 2))} crossings, got {len(self.sweep)}")
        order = list(range(1, n + 1))
        where = list(range(-1, n))  # where[wire]: its index in order
        trace = [tuple(order)]
        for step, pair in enumerate(self.sweep):
            try:  # unpacking refuses a triple, a list index refuses 1.0
                a, b = pair
                pa, pb = (where[a], where[b]) if 1 <= a < b <= n else (None, None)
            except (TypeError, ValueError):
                pa = None
            if pa is None:
                raise InvalidWiring(f"step {step}: bad crossing {_brief(pair)}")
            # a < b have not crossed yet exactly while a is directly above b.
            if pb != pa + 1:
                raise InvalidWiring(f"step {step}: wire {b} is not directly below {a} in {order}")
            order[pa], order[pb] = order[pb], order[pa]
            where[a], where[b] = pb, pa
            trace.append(tuple(order))
        return tuple(trace)


@lru_cache(maxsize=None)
def _pair_ranks(n: int) -> tuple[range, ...]:
    """``[b][a]``: the colex rank a + b(b-3)/2 of a < b <= n as a Python int, for any int type."""
    return tuple(range(b * (b - 3) // 2, comb(b, 2)) for b in range(n + 1))


def _triples(c: SignFunction) -> np.ndarray:
    """The colex triples of a monotone coloring of triples."""
    if c.r != 3:
        raise InvalidArgument(f"wiring diagrams need uniformity 3, got r={c.r}")
    witness = monotone_violation(c)
    if witness is not None:
        raise NotMonotone(f"input is not monotone, witness {witness}")
    return colex_layout(c.n, 3).edges


def crossing_constraints(c: SignFunction) -> dict[Crossing, set[Crossing]]:
    """Successor sets of the crossing precedence relation."""
    triples = _triples(c)
    succ: dict[Crossing, set[Crossing]] = {p: set() for p in combinations(range(1, c.n + 1), 2)}
    for (i, j, k), color in zip(triples.tolist(), c.colors.tolist()):
        chain = ((i, j), (i, k), (j, k)) if color < 0 else ((j, k), (i, k), (i, j))
        succ[chain[0]].add(chain[1])
        succ[chain[1]].add(chain[2])
    return succ


def is_acyclic(succ: dict[Crossing, set[Crossing]]) -> bool:
    indeg = {p: 0 for p in succ}
    for targets in succ.values():
        for q in targets:
            indeg[q] += 1
    ready = [p for p, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        p = ready.pop()
        seen += 1
        for q in succ[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                ready.append(q)
    return seen == len(succ)


@lru_cache(maxsize=None)
def _meeting_tables(n: int) -> np.ndarray:
    """Read-only int16 a * n + b (n <= 64), per triple and wire a, b met second: minus, plus."""
    edges = colex_layout(n, 3).edges.astype(np.int16) - 1
    tables = edges * n + np.stack([edges[:, [2, 2, 1]], edges[:, [1, 0, 0]]])
    tables.setflags(write=False)
    return tables


def wiring_diagram(c: SignFunction) -> WiringDiagram:
    """Sweep realizing the crossing constraints of a monotone coloring.

    Greedy and deterministic: at each step the lexicographically smallest
    crossing that is next for both of its wires is performed; those are
    exactly the adjacent crossings whose constraints are met.  A crossing
    (a, b) changes only the pairs of a or b, so the next scan starts at wire
    min(a, next(a), next(b)).  Failure to finish would contradict the
    correspondence between monotone colorings and sweeps: NotRealizable.
    """
    _triples(c)  # refuses r != 3 and non-monotone input
    n = c.n
    # before[a * n + b]: how many wires a meets before b; n on the diagonal.
    second = np.where((c.colors < 0)[:, None], *_meeting_tables(n))
    before = np.bincount(second.ravel(), minlength=n * n)
    before[::n + 1] = n
    # Row a lists the wires a meets in order, then a itself as an end marker.
    meets = [iter(row) for row in np.argsort(before.reshape(n, n), axis=1).tolist()]
    after = [next(row) for row in meets]  # after[a]: the wire a meets next
    sweep: list[Crossing] = []
    a = 0
    for _ in range(comb(n, 2)):
        for a in range(a, n):
            b = after[a]
            if b > a and after[b] == a:
                break
        else:
            raise NotRealizable(f"stuck after {len(sweep)} of {comb(n, 2)} crossings; "
                                f"this contradicts monotonicity of the input")
        after[a], after[b] = next(meets[a]), next(meets[b])
        sweep.append((a + 1, b + 1))
        a = min(a, after[a], after[b])
    return WiringDiagram(n, tuple(sweep))


def signs_from_wiring(w: WiringDiagram) -> SignFunction:
    """Colors from crossing order: (i,j,k) is minus iff k meets i before j."""
    check_size(3, max(w.n, 3))  # before the O(n^3) trace that validation derives
    w.trace  # deriving the trace validates the sweep
    if w.n < 3:
        raise InvalidArgument(f"need at least 3 wires to read signs, got {w.n}")
    ranks, steps = _pair_ranks(w.n), [0] * len(w.sweep)
    for t, (a, b) in enumerate(w.sweep):
        steps[ranks[b][a]] = t  # steps[k]: the step of the pair of rank k
    step, faces = np.array(steps), colex_layout(w.n, 3).deletion
    # Columns 1 and 2 of the triple deletion table are the pairs (i,k) and (j,k).
    minus = step[faces[:, 1]] < step[faces[:, 2]]
    return SignFunction._derived(3, w.n, np.where(minus, np.int8(-1), np.int8(1)))


def sweep_text(w: WiringDiagram) -> str:
    """One crossing per line, 'i j', in sweep order."""
    return "".join(f"{i} {j}\n" for i, j in w.sweep)


# -- rendering ----------------------------------------------------------------

_WIRE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#17becf", "#7f7f7f")
_SLOT = 40
_GAP = 30
_MARGIN = 40


def render_svg(w: WiringDiagram) -> str:
    """Deterministic SVG: one polyline per wire, one glyph per crossing.

    A wire runs level between its crossings, so each level run of its points
    is one join of the columns' ``"x,"`` strings on its height's string.
    """
    w.trace  # deriving the trace validates the sweep
    slots = len(w.sweep)
    width = 2 * _MARGIN + _SLOT * max(slots, 1)
    height = 2 * _MARGIN + _GAP * (w.n - 1)
    xs = [_MARGIN + _SLOT * t for t in range(slots + 1)] + [_MARGIN + _SLOT * slots + _SLOT // 2]
    heads = [f"{x}," for x in xs]
    names = [str(_MARGIN + _GAP * track) for track in range(w.n)]

    # runs[wire]: (first column, track) of each level run; a crossing moves a down, b up.
    track = list(range(-1, w.n))
    runs = [[(0, wire - 1)] for wire in range(w.n + 1)]
    glyphs = []
    for t, (a, b) in enumerate(w.sweep, start=1):
        track[a] += 1
        track[b] -= 1
        runs[a].append((t, track[a]))
        runs[b].append((t, track[b]))
        gx, gy = xs[t] - _SLOT // 2, (2 * _MARGIN + _GAP * (track[a] + track[b])) // 2
        glyphs.append(f'<circle class="crossing" cx="{gx}" cy="{gy}" r="3" fill="black"/>')

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for wire in range(1, w.n + 1):
        starts = runs[wire] + [(len(xs), None)]
        pts = " ".join((names[k] + " ").join(heads[s:e]) + names[k]
                       for (s, k), (e, _) in zip(starts, starts[1:]))
        color = _WIRE_COLORS[(wire - 1) % len(_WIRE_COLORS)]
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{_MARGIN - 14}" y="{_MARGIN + _GAP * (wire - 1) + 4}" '
            f'font-size="12" font-family="monospace">{wire}</text>'
        )
    lines.append('<g class="crossings">')
    lines += glyphs
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
