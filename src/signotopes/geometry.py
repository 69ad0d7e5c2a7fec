"""Wiring diagrams for 3-uniform monotone colorings.

A monotone coloring of triples encodes a simple arrangement of n
pseudolines: wires enter at the left in label order and every pair
crosses exactly once.  The color of the triple i < j < k fixes the order
of its three crossings along the sweep: minus means (i,j) then (i,k)
then (j,k), plus means the reverse.  These precedence chains always
admit an adjacent-swap sweep for monotone inputs; the converse map reads
the color of (i, j, k) off whether wire k meets i before j.  The
convention is pinned by the round-trip tests, since flipping it breaks
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import SignFunction, check_size, colex_layout, monotone_violation
from .errors import InvalidArgument, InvalidWiring, NotMonotone, NotRealizable

Crossing = tuple[int, int]


@dataclass(frozen=True)
class WiringDiagram:
    """A sweep: all C(n,2) crossings in left-to-right order.

    ``trace[t]`` is the top-to-bottom wire order after the first t
    crossings; the final order is the reverse of the initial one.
    """

    n: int
    sweep: tuple[Crossing, ...]
    trace: tuple[tuple[int, ...], ...]


def crossing_constraints(c: SignFunction) -> dict[Crossing, set[Crossing]]:
    """Successor sets of the crossing precedence relation."""
    if c.r != 3:
        raise InvalidArgument(f"wiring diagrams need uniformity 3, got r={c.r}")
    witness = monotone_violation(c)
    if witness is not None:
        raise NotMonotone(f"input is not monotone, witness {witness}")
    succ: dict[Crossing, set[Crossing]] = {
        pair: set() for pair in combinations(range(1, c.n + 1), 2)
    }
    for (i, j, k), color in zip(colex_layout(c.n, 3).edges.tolist(), c.colors.tolist()):
        if color < 0:
            chain = ((i, j), (i, k), (j, k))
        else:
            chain = ((j, k), (i, k), (i, j))
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


def wiring_diagram(c: SignFunction) -> WiringDiagram:
    """Sweep realizing the crossing constraints of a monotone coloring.

    Greedy and deterministic: at each step the lexicographically
    smallest crossing that is both unconstrained and currently adjacent
    is performed.  Failure to finish would contradict the correspondence
    between monotone colorings and sweeps, so it raises NotRealizable.
    """
    succ = crossing_constraints(c)
    indeg = {p: 0 for p in succ}
    for targets in succ.values():
        for q in targets:
            indeg[q] += 1
    order = list(range(1, c.n + 1))
    done: set[Crossing] = set()
    sweep: list[Crossing] = []
    trace = [tuple(order)]
    total = comb(c.n, 2)
    while len(sweep) < total:
        best: Crossing | None = None
        best_pos = -1
        for pos in range(c.n - 1):
            a, b = order[pos], order[pos + 1]
            pair = (a, b) if a < b else (b, a)
            if pair in done or indeg[pair]:
                continue
            if best is None or pair < best:
                best, best_pos = pair, pos
        if best is None:
            raise NotRealizable(
                f"stuck after {len(sweep)} of {total} crossings; "
                f"this contradicts monotonicity of the input"
            )
        order[best_pos], order[best_pos + 1] = order[best_pos + 1], order[best_pos]
        done.add(best)
        for q in succ[best]:
            indeg[q] -= 1
        sweep.append(best)
        trace.append(tuple(order))
    return WiringDiagram(c.n, tuple(sweep), tuple(trace))


def validate_wiring(w: WiringDiagram) -> None:
    if w.n < 1:
        raise InvalidWiring(f"need at least one wire, got n={w.n}")
    if len(w.sweep) != comb(w.n, 2):
        raise InvalidWiring(
            f"expected {comb(w.n, 2)} crossings, got {len(w.sweep)}"
        )
    order = list(range(1, w.n + 1))
    seen: set[Crossing] = set()
    for step, pair in enumerate(w.sweep):
        if len(pair) != 2 or not (1 <= pair[0] < pair[1] <= w.n):
            raise InvalidWiring(f"step {step}: bad crossing {pair!r}")
        if pair in seen:
            raise InvalidWiring(f"step {step}: pair {pair} crosses twice")
        seen.add(pair)
        pos = order.index(pair[0])
        neighbors = set()
        if pos > 0:
            neighbors.add(order[pos - 1])
        if pos < w.n - 1:
            neighbors.add(order[pos + 1])
        if pair[1] not in neighbors:
            raise InvalidWiring(
                f"step {step}: wires {pair} are not adjacent (order {order})"
            )
        q = order.index(pair[1])
        order[pos], order[q] = order[q], order[pos]


def signs_from_wiring(w: WiringDiagram) -> SignFunction:
    """Colors from crossing order: (i,j,k) is minus iff k meets i before j."""
    validate_wiring(w)
    if w.n < 3:
        raise InvalidArgument(f"need at least 3 wires to read signs, got {w.n}")
    check_size(3, w.n)
    position = np.empty(len(w.sweep), dtype=np.int64)
    position[colex_layout(w.n, 2).rank(w.sweep)] = np.arange(len(w.sweep))
    # Columns 1 and 2 of the triple deletion table are the pairs (i,k) and (j,k).
    faces = position[colex_layout(w.n, 3).deletion]
    return SignFunction(3, w.n, np.where(faces[:, 1] < faces[:, 2], -1, 1))


def sweep_text(w: WiringDiagram) -> str:
    """One crossing per line, 'i j', in sweep order."""
    return "".join(f"{i} {j}\n" for i, j in w.sweep)


def parse_sweep_text(n: int, text: str) -> WiringDiagram:
    sweep = []
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidWiring(f"bad sweep line {line!r}")
        a, b = int(parts[0]), int(parts[1])
        sweep.append((min(a, b), max(a, b)))
    order = list(range(1, n + 1))
    trace = [tuple(order)]
    w = WiringDiagram(n, tuple(sweep), ())
    validate_wiring(w)
    for a, b in sweep:
        pa, pb = order.index(a), order.index(b)
        order[pa], order[pb] = order[pb], order[pa]
        trace.append(tuple(order))
    return WiringDiagram(n, tuple(sweep), tuple(trace))


# -- rendering ----------------------------------------------------------------

_WIRE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                "#8c564b", "#17becf", "#7f7f7f")
_SLOT = 40
_GAP = 30
_MARGIN = 40


def render_svg(w: WiringDiagram) -> str:
    """Deterministic SVG: one polyline per wire, one glyph per crossing."""
    validate_wiring(w)
    slots = len(w.sweep)
    width = 2 * _MARGIN + _SLOT * max(slots, 1)
    height = 2 * _MARGIN + _GAP * (w.n - 1)

    def x(t: int) -> int:
        return _MARGIN + _SLOT * t

    def y(track: int) -> int:
        return _MARGIN + _GAP * track

    tracks = {wire: w.trace[0].index(wire) for wire in range(1, w.n + 1)}
    points = {wire: [(x(0), y(tracks[wire]))] for wire in tracks}
    glyphs = []
    for t, pair in enumerate(w.sweep, start=1):
        for wire in range(1, w.n + 1):
            track = w.trace[t].index(wire)
            points[wire].append((x(t), y(track)))
        mid_y = (y(w.trace[t].index(pair[0])) + y(w.trace[t].index(pair[1]))) // 2
        glyphs.append((x(t) - _SLOT // 2, mid_y))
    end_x = x(slots) + _SLOT // 2
    for wire in range(1, w.n + 1):
        points[wire].append((end_x, points[wire][-1][1]))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for wire in range(1, w.n + 1):
        pts = " ".join(f"{px},{py}" for px, py in points[wire])
        color = _WIRE_COLORS[(wire - 1) % len(_WIRE_COLORS)]
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{_MARGIN - 14}" y="{y(tracks[wire]) + 4}" '
            f'font-size="12" font-family="monospace">{wire}</text>'
        )
    lines.append('<g class="crossings">')
    for gx, gy in glyphs:
        lines.append(f'<circle class="crossing" cx="{gx}" cy="{gy}" r="3" fill="black"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
