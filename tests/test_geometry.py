import xml.etree.ElementTree as ET
from itertools import combinations
from math import comb

import numpy as np
import pytest

from signotopes import (
    SignFunction,
    WiringDiagram,
    crossing_constraints,
    enumerate_monotone,
    is_acyclic,
    render_svg,
    signs_from_wiring,
    sweep_text,
    tower_coloring,
    wiring_diagram,
)
from signotopes.geometry import _GAP, _MARGIN, _SLOT, _WIRE_COLORS
from signotopes.errors import InvalidArgument, InvalidWiring, NotMonotone, TooLarge

EXAMPLE_134 = SignFunction.from_string(3, 4, "-+-+")


def ref_render_svg(w):
    """Point-list renderer: per-wire point lists, glyphs read back from them."""
    slots = len(w.sweep)
    width = 2 * _MARGIN + _SLOT * max(slots, 1)
    height = 2 * _MARGIN + _GAP * (w.n - 1)

    def x(t):
        return _MARGIN + _SLOT * t

    def y(track):
        return _MARGIN + _GAP * track

    points = {wire: [] for wire in range(1, w.n + 1)}
    for t, order in enumerate(w.trace):
        for track, wire in enumerate(order):
            points[wire].append((x(t), y(track)))
    glyphs = [(x(t) - _SLOT // 2, (points[a][t][1] + points[b][t][1]) // 2)
              for t, (a, b) in enumerate(w.sweep, start=1)]
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
            f'<text x="{_MARGIN - 14}" y="{points[wire][0][1] + 4}" '
            f'font-size="12" font-family="monospace">{wire}</text>'
        )
    lines.append('<g class="crossings">')
    for gx, gy in glyphs:
        lines.append(f'<circle class="crossing" cx="{gx}" cy="{gy}" r="3" fill="black"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def ref_wiring_sweep(c):
    """The greedy sweep from local sequences counted triple by triple, rescanning
    from wire 1 after every crossing for the smallest pair next to each other."""
    n = c.n
    before = [[0] * (n + 1) for _ in range(n + 1)]  # before[a][b]: wires a meets before b
    for (i, j, k), color in zip(combinations_colex(n), c.colors.tolist()):
        if color < 0:  # i, j meet the others in increasing order, k meets i then j
            before[i][k] += 1
            before[j][k] += 1
            before[k][j] += 1
        else:
            before[i][j] += 1
            before[j][i] += 1
            before[k][i] += 1
    meets = {a: sorted((b for b in range(1, n + 1) if b != a), key=lambda b: before[a][b]) + [a]
             for a in range(1, n + 1)}
    met = dict.fromkeys(meets, 0)
    sweep = []
    while len(sweep) < comb(n, 2):
        a = next(a for a in range(1, n + 1)
                 if meets[a][met[a]] > a and meets[meets[a][met[a]]][met[meets[a][met[a]]]] == a)
        b = meets[a][met[a]]
        met[a] += 1
        met[b] += 1
        sweep.append((a, b))
    return tuple(sweep)


def combinations_colex(n):
    return sorted(combinations(range(1, n + 1), 3), key=lambda e: e[::-1])


class TestConstraints:
    def test_all_minus_chain(self):
        succ = crossing_constraints(SignFunction.constant(3, 3))
        assert succ == {(1, 2): {(1, 3)}, (1, 3): {(2, 3)}, (2, 3): set()}

    def test_all_plus_reversed_chain(self):
        succ = crossing_constraints(SignFunction.constant(3, 3, 1))
        assert succ == {(2, 3): {(1, 3)}, (1, 3): {(1, 2)}, (1, 2): set()}

    def test_acyclic_for_every_monotone_coloring(self):
        for n in (4, 5):
            for c in enumerate_monotone(3, n):
                assert is_acyclic(crossing_constraints(c))

    def test_rejects_non_monotone(self):
        with pytest.raises(NotMonotone):
            crossing_constraints(EXAMPLE_134)

    def test_rejects_wrong_uniformity(self):
        with pytest.raises(InvalidArgument):
            crossing_constraints(SignFunction.constant(2, 4))

    def test_cycle_detection(self):
        assert not is_acyclic({"a": {"b"}, "b": {"a"}})


class TestWiring:
    def test_all_minus_sweep(self):
        w = wiring_diagram(SignFunction.constant(3, 3))
        assert w.sweep == ((1, 2), (1, 3), (2, 3))

    def test_sweep_structure(self):
        for c in enumerate_monotone(3, 5):
            w = wiring_diagram(c)
            assert len(w.sweep) == comb(5, 2)
            assert len(set(w.sweep)) == len(w.sweep)
            assert w.trace[0] == (1, 2, 3, 4, 5)
            assert w.trace[-1] == (5, 4, 3, 2, 1)

    def test_round_trip_exhaustive(self):
        for n in (3, 4, 5):
            for c in enumerate_monotone(3, n):
                assert signs_from_wiring(wiring_diagram(c)) == c

    def test_distinct_colorings_get_distinct_sweeps(self):
        sweeps = {wiring_diagram(c).sweep for c in enumerate_monotone(3, 5)}
        assert len(sweeps) == 62

    def test_sweep_extends_the_constraints(self):
        colorings = [c for n in range(3, 7) for c in enumerate_monotone(3, n)]
        for c in colorings + [tower_coloring(3, 5)]:
            position = {pair: t for t, pair in enumerate(wiring_diagram(c).sweep)}
            for p, later in crossing_constraints(c).items():
                assert all(position[p] < position[q] for q in later), (c.n, p)

    def test_greedy_matches_the_rescan_from_wire_one(self):
        from signotopes import random_monotone_coloring

        colorings = list(enumerate_monotone(3, 6))
        colorings += [random_monotone_coloring(3, 9, seed, max_edges=84) for seed in range(200)]
        for c in colorings + [tower_coloring(3, 6)]:
            assert wiring_diagram(c).sweep == ref_wiring_sweep(c)

    def test_mixed_example_has_a_sweep(self):
        found = 0
        for c in enumerate_monotone(3, 4):
            if c.color((1, 2, 3)) == -1 and c.color((2, 3, 4)) == 1:
                w = wiring_diagram(c)
                assert len(w.sweep) == 6
                found += 1
        assert found > 0


class TestWiringValidation:
    def test_sweep_text_round_trip(self):
        w = wiring_diagram(SignFunction.constant(3, 4))
        lines = [tuple(map(int, line.split())) for line in sweep_text(w).splitlines()]
        assert tuple(lines) == w.sweep

    def test_non_adjacent_swap_rejected(self):
        with pytest.raises(InvalidWiring):
            WiringDiagram(3, ((1, 3), (1, 2), (2, 3))).trace

    def test_repeated_pair_rejected(self):
        with pytest.raises(InvalidWiring):
            WiringDiagram(3, ((1, 2), (1, 2), (2, 3))).trace

    def test_bad_wire_count_and_crossings_rejected(self):
        with pytest.raises(InvalidWiring, match="at least one wire"):
            WiringDiagram(0, ()).trace
        for pair in [(2, 1), (1, 9)]:
            with pytest.raises(InvalidWiring, match="bad crossing"):
                WiringDiagram(2, (pair,)).trace

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidWiring):
            WiringDiagram(3, ((1, 2),)).trace

    OK_4 = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    @pytest.mark.parametrize("sweep,message", [
        (((1, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)),
         "step 0: wire 3 is not directly below 1 in [1, 2, 3, 4]"),
        (((1, 2), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)),
         "step 1: wire 2 is not directly below 1 in [2, 1, 3, 4]"),
        (OK_4[:-1], "expected 6 crossings, got 5"),
        (((1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4)), "step 2: bad crossing (1, 5)"),
        (((0, 1),) + OK_4[1:], "step 0: bad crossing (0, 1)"),
        (((2, 1),) + OK_4[1:], "step 0: bad crossing (2, 1)"),
        (((1, 2, 3),) + OK_4[1:], "step 0: bad crossing (1, 2, 3)"),
        (((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 4)),
         "step 4: wire 4 is not directly below 3 in [3, 2, 4, 1]"),
        # non-integer wires are refused as bad crossings
        (((1.0, 2.0),) + OK_4[1:], "step 0: bad crossing (1.0, 2.0)"),
        (((1, 2), (1.5, 3)) + OK_4[2:], "step 1: bad crossing (1.5, 3)"),
        (((1, 2), (1, 3), (1, "4")) + OK_4[3:], "step 2: bad crossing (1, 4)"),
    ])
    def test_bad_sweep_messages(self, sweep, message):
        with pytest.raises(InvalidWiring) as raised:
            signs_from_wiring(WiringDiagram(4, sweep))
        assert str(raised.value) == message

    def test_numpy_and_list_wires_are_read_as_integers(self):
        want = signs_from_wiring(WiringDiagram(4, self.OK_4))
        trace = WiringDiagram(4, self.OK_4).trace
        for sweep in (tuple((np.int64(a), np.int64(b)) for a, b in self.OK_4),
                      tuple((np.uint8(a), np.int32(b)) for a, b in self.OK_4),
                      tuple(list(pair) for pair in self.OK_4)):
            w = WiringDiagram(4, sweep)
            assert signs_from_wiring(w) == want
            assert w.trace == trace and all(type(v) is int for row in w.trace for v in row)
        c = tower_coloring(3, 6)  # 64 wires: colex ranks past the range of uint8
        w = wiring_diagram(c)
        assert signs_from_wiring(WiringDiagram(64, tuple(
            (np.uint8(a), np.uint8(b)) for a, b in w.sweep))) == c
        with pytest.raises(InvalidWiring, match=r"^step 1: wire 2 is not directly below 1 in \[2, 1, 3, 4\]$"):
            WiringDiagram(4, ((np.int64(1), np.int64(2)),) * 2 + self.OK_4[2:]).trace

    def test_signs_need_three_wires(self):
        with pytest.raises(InvalidArgument):
            signs_from_wiring(WiringDiagram(2, ((1, 2),)))

    def test_size_is_checked_before_the_trace(self):
        # a valid 200-wire sweep: wire j bubbles up past wires 1..j-1
        w = WiringDiagram(200, tuple((i, j) for j in range(2, 201) for i in range(1, j)))
        with pytest.raises(TooLarge):
            signs_from_wiring(w)
        assert "trace" not in w.__dict__

    def test_trace_size_is_checked_before_the_walk(self):
        # (C(n,2)+1)·n positions: 2,664,550 at n = 175, 2,710,576 at n = 176
        def bubble(n):
            return WiringDiagram(n, tuple((i, j) for j in range(2, n + 1) for i in range(1, j)))
        assert bubble(175).trace[-1] == tuple(range(175, 0, -1))
        w = bubble(176)
        with pytest.raises(TooLarge, match="table cap"):
            w.trace
        assert "trace" not in w.__dict__


class TestSvg:
    def test_single_wire(self):
        svg = render_svg(WiringDiagram(1, ()))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == 1

    def test_crossing_glyph_count(self):
        for n in (3, 4, 5):
            w = wiring_diagram(SignFunction.constant(3, n))
            root = ET.fromstring(render_svg(w))
            glyphs = [
                e for e in root.iter()
                if e.tag.endswith("circle") and e.get("class") == "crossing"
            ]
            assert len(glyphs) == comb(n, 2)

    def test_deterministic_bytes(self):
        a = render_svg(wiring_diagram(SignFunction.constant(3, 5)))
        b = render_svg(wiring_diagram(SignFunction.constant(3, 5)))
        assert a == b

    def test_matches_point_list_reference(self):
        diagrams = [WiringDiagram(1, ()), WiringDiagram(2, ((1, 2),))]
        diagrams += [wiring_diagram(c) for n in (3, 4, 5) for c in enumerate_monotone(3, n)]
        diagrams.append(wiring_diagram(tower_coloring(3, 3)))
        for w in diagrams:
            assert render_svg(w) == ref_render_svg(w), w.sweep

    def test_wire_count(self):
        w = wiring_diagram(SignFunction.constant(3, 4))
        root = ET.fromstring(render_svg(w))
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 4
