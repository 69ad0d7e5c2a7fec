import json
import pickle
import tracemalloc
from functools import cmp_to_key
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from signotopes import (
    TowerElement,
    TowerGroundSet,
    is_monotone,
    longest_mono_paths,
    tow,
    tower_coloring,
    tower_sizes,
)
from signotopes.core import TABLE_CAP
from signotopes.errors import InvalidArgument, TooLarge


# -- reference construction: literal sets and a comparator sort ---------------
#
# Elements are represented directly: level-1 as '-'/'+', level-2 as pairs,
# level >= 3 as frozensets of lower elements.  This shares nothing with the
# packed integer encoding under test.

class RefTower:
    def __init__(self, r, n):
        self.n = n
        self.levels = {1: ["-", "+"], 2: [(2 * n - j, j + 1) for j in range(2 * n)]}
        for level in range(3, r + 1):
            classes = self.classes(level - 1)
            transversals = [frozenset(pick) for pick in product(*classes)]
            order = cmp_to_key(lambda a, b: -1 if self.less(level, a, b) else 1)
            self.levels[level] = sorted(transversals, key=order)

    def sigma(self, level, el):
        if level == 1:
            return "+" if el == "-" else "-"
        if level == 2:
            return (el[1], el[0])
        return frozenset(self.sigma(level - 1, x) for x in el)

    def is_minus(self, level, el):
        if level == 1:
            return el == "-"
        if level == 2:
            return el[0] > el[1]
        return self.levels[level - 1][0] in el  # contains the global minimum

    def classes(self, level):
        """[{minus rep, plus rep}, ...] in class order."""
        out = []
        for el in self.levels[level]:
            if self.is_minus(level, el):
                out.append((el, self.sigma(level, el)))
        return out

    def gamma(self, level, a, b):
        if level == 2:
            return "-" if a[0] < b[0] else "+"
        for minus, plus in self.classes(level - 1):
            mine = minus if minus in a else plus
            theirs = minus if minus in b else plus
            if mine != theirs:
                return theirs
        raise AssertionError("gamma of equal elements")

    def less(self, level, a, b):
        return not self.is_minus(level - 1, self.gamma(level, a, b))

    def color(self, level, edge):
        seq = list(edge)
        while level > 1:
            seq = [self.gamma(level, x, y) for x, y in zip(seq, seq[1:])]
            level -= 1
        return seq[0]


def decode(ground, el):
    """Map a packed element to its reference representation."""
    if el.level == 1:
        return "-" if el.code == 0 else "+"
    if el.level == 2:
        return ground.pair_of(el)
    return frozenset(decode(ground, TowerElement(el.level - 1, pick))
                     for pick in _picks(ground, el))


def _picks(ground, el):
    size = ground.sizes[el.level - 1]
    return [k if bit == 0 else size - 1 - k for k, bit in enumerate(ground.bits_of(el))]


@pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3)])
def test_matches_reference_construction(r, n):
    ground = TowerGroundSet(r, n)
    ref = RefTower(r, n)
    for level in range(2, r + 1):
        mine = [decode(ground, el) for el in ground.elements(level)]
        assert mine == ref.levels[level]
        for el in ground.elements(level):
            assert decode(ground, ground.sigma(el)) == ref.sigma(level, decode(ground, el))
            assert (ground.type_of(el) == -1) == ref.is_minus(level, decode(ground, el))
    for a, b in combinations(ground.elements(), 2):
        got = decode(ground, ground.gamma(a, b))
        assert got == ref.gamma(r, decode(ground, a), decode(ground, b))


@pytest.mark.parametrize("r,n", [(3, 3), (3, 4), (4, 3)])
def test_coloring_matches_reference(r, n):
    ground = TowerGroundSet(r, n)
    ref = RefTower(r, n)
    coloring = ground.coloring()
    for edge in combinations(range(1, ground.size + 1), r):
        ref_edge = [ref.levels[r][v - 1] for v in edge]
        want = 1 if ref.color(r, ref_edge) == "+" else -1
        assert coloring.color(edge) == want


class TestGroundSet:
    def test_level2_pairs_and_types(self):
        ground = TowerGroundSet(2, 3)
        pairs = [ground.pair_of(el) for el in ground.elements()]
        assert pairs == [(6, 1), (5, 2), (4, 3), (3, 4), (2, 5), (1, 6)]
        assert [ground.type_of(el) for el in ground.elements()] == [-1] * 3 + [1] * 3

    def test_integer_arguments(self):
        ground = TowerGroundSet(np.int64(3), np.int64(3))
        assert (type(ground.r), type(ground.n)) == (int, int)
        assert (ground.sizes, ground.size) == (TowerGroundSet(3, 3).sizes, 8)
        for args in [(3.0, 3), (3, 3.0)]:
            with pytest.raises(TypeError):
                TowerGroundSet(*args)

    def test_elements_are_slotted(self):
        # 2^17 elements; a per-instance __dict__ took about 129 bytes each
        tracemalloc.start()
        try:
            els = TowerGroundSet(3, 17).elements()
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(els) == 2 ** 17 and traced < 100 * len(els)
        assert pickle.loads(pickle.dumps(els[:3])) == els[:3]

    def test_eight_element_level(self):
        ground = TowerGroundSet(3, 3)
        els = ground.elements()
        assert ground.size == 8
        assert [ground.type_of(e) for e in els] == [-1] * 4 + [1] * 4
        classes = [min(e.code, ground.size - 1 - e.code) for e in els]  # class index
        assert classes == [0, 1, 2, 3, 3, 2, 1, 0]
        for i in range(8):
            assert ground.sigma(els[i]) == els[7 - i]
            assert classes[els.index(ground.sigma(els[i]))] == classes[i]
        assert ground.members_of(els[0]) == frozenset({(6, 1), (5, 2), (4, 3)})
        assert ground.members_of(els[1]) == frozenset({(6, 1), (5, 2), (3, 4)})

    def test_sizes_recurrence(self):
        assert tower_sizes(4, 3)[1:] == [2, 6, 8, 16]
        assert tower_sizes(5, 3)[1:] == [2, 6, 8, 16, 256]
        for r, n in [(3, 3), (3, 6), (4, 3), (4, 4)]:
            sizes = tower_sizes(r, n)
            assert sizes[2] == 2 * n
            assert all(sizes[k] == 2 ** (sizes[k - 1] // 2) for k in range(3, r + 1))

    def test_growth_beats_tower_function(self):
        for r, n in [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4)]:
            assert tower_sizes(r, n)[r] >= tow(r - 1, n - r)

    def test_levels_that_stop_growing_below_r_are_refused(self):
        # n <= 2 fixes the sizes at 2 or 4; a huge r is refused without looping
        assert tower_sizes(4, 2)[1:] == [2, 4, 4, 4]
        assert TowerGroundSet(4, 2).coloring().edge_count == 1
        for r, n in [(3, 1), (5, 2), (10 ** 9, 1), (10 ** 9, 2)]:
            with pytest.raises(InvalidArgument, match="stop growing"):
                tower_sizes(r, n)

    def test_caps(self):
        with pytest.raises(TooLarge):
            TowerGroundSet(5, 4)  # 2^128 elements
        with pytest.raises(TooLarge):
            tower_sizes(6, 4)  # exponent itself is astronomical
        with pytest.raises(TooLarge):
            TowerGroundSet(5, 3).coloring()  # 256 vertices, ~8.8e9 edges
        # ground sets hold at most TABLE_CAP elements
        assert TowerGroundSet(3, 21).size == 2 ** 21 <= TABLE_CAP
        assert TowerGroundSet(2, TABLE_CAP // 2).size == TABLE_CAP == 2 * 1_354_080
        for r, n in [(3, 22), (2, TABLE_CAP // 2 + 1)]:
            with pytest.raises(TooLarge, match="table cap"):
                TowerGroundSet(r, n)
        # a level has at most TABLE_CAP bits: level 4 of n has 2^(n-1) + 1
        for n in range(14, 23):
            assert tower_sizes(4, n)[4].bit_length() == 2 ** (n - 1) + 1 <= TABLE_CAP
        assert tower_sizes(5, 5)[5] == 2 ** 2 ** 15
        for r, n in [(4, 23), (6, 4)]:
            with pytest.raises(TooLarge, match="table cap"):
                tower_sizes(r, n)

    def test_sizes_read_integer_arguments(self):
        for r, n in [(3, 3.0), (3.0, 3)]:  # sizes [0, 2, 6.0, 8.0] before: refused now
            with pytest.raises(TypeError):
                tower_sizes(r, n)
            with pytest.raises(TypeError):
                TowerGroundSet(r, n)
        sizes = tower_sizes(np.int64(3), np.int64(3))
        assert sizes == [0, 2, 6, 8] and all(type(size) is int for size in sizes)

    def test_sigma_is_order_reversing_involution(self):
        ground = TowerGroundSet(3, 4)
        els = ground.elements()
        for a, b in combinations(els, 2):
            assert ground.sigma(ground.sigma(a)) == a
            assert ground.sigma(a).code > ground.sigma(b).code

    def test_order_via_gamma_equals_code_order(self):
        for r, n in [(3, 3), (3, 4), (4, 3)]:
            ground = TowerGroundSet(r, n)
            for a, b in combinations(ground.elements(), 2):
                assert ground.type_of(ground.gamma(a, b)) == 1
                assert ground.type_of(ground.gamma(b, a)) == -1

    def test_members_of_checks_the_level(self):
        ground = TowerGroundSet(3, 3)
        for bad in (TowerElement(2, 0), TowerElement(9, 0)):
            with pytest.raises(InvalidArgument):
                ground.members_of(bad)

    def test_pair_of_checks_the_level(self):
        ground = TowerGroundSet(3, 3)
        with pytest.raises(InvalidArgument, match="^pair_of needs a level-2 element, got level 3$"):
            ground.pair_of(ground.elements()[0])


class TestGamma:
    def test_figure_values(self):
        ground = TowerGroundSet(3, 3)
        b = ground.elements()
        assert ground.pair_of(ground.gamma(b[0], b[1])) == (3, 4)
        assert ground.pair_of(ground.gamma(b[1], b[2])) == (2, 5)

    def test_level2_rule(self):
        ground = TowerGroundSet(2, 3)
        els = ground.elements()  # (6,1) < (5,2) < ...
        assert ground.gamma(els[0], els[1]) == TowerElement(1, 1)
        assert ground.gamma(els[1], els[0]) == TowerElement(1, 0)

    def test_errors(self):
        ground = TowerGroundSet(3, 3)
        el = ground.elements()[0]
        with pytest.raises(InvalidArgument):
            ground.gamma(el, el)
        with pytest.raises(InvalidArgument):
            ground.gamma(el, TowerElement(2, 0))
        with pytest.raises(InvalidArgument):
            ground.gamma(TowerElement(1, 0), TowerElement(1, 1))

    def test_iteration(self):
        ground = TowerGroundSet(3, 3)
        b = ground.elements()
        assert ground.gamma_iter(b[:3], 0) == b[:3]
        assert ground.gamma_iter(b[:2], 1) == [ground.gamma(b[0], b[1])]
        assert ground.gamma_iter(b[:3], 2) == [TowerElement(1, 1)]
        with pytest.raises(InvalidArgument):
            ground.gamma_iter(b[:3], 3)
        with pytest.raises(InvalidArgument):
            ground.gamma_iter([b[0], b[0]], 1)


# Measured (best_minus, best_plus): n + 1 for r = 3, well below the bound 2n + r - 2.
LONGEST_PATHS = {(3, n): (n + 1, n + 1) for n in range(3, 7)} | {(4, 3): (6, 5)}


class TestColoring:
    def test_first_triple_is_plus(self):
        assert tower_coloring(3, 3).color((1, 2, 3)) == 1

    @pytest.mark.parametrize("r,n", [(3, 3), (3, 4), (4, 3), (3, 5), (3, 6)])
    def test_monotone_and_path_bound(self, r, n):
        c = tower_coloring(r, n)
        assert is_monotone(c)
        rep = longest_mono_paths(c)
        assert rep.best <= 2 * n + r - 2
        assert (rep.best_minus, rep.best_plus) == LONGEST_PATHS[(r, n)]

    def test_vertices_follow_element_order(self):
        ground = TowerGroundSet(3, 3)
        c = ground.coloring()
        b = ground.elements()
        want = ground.gamma_iter([b[0], b[2], b[5]], 2)[0]
        assert c.color((1, 3, 6)) == (1 if want.code else -1)


class TestVerifiers:
    def test_deletion_exhaustive_small(self):
        for r, n in [(2, 3), (3, 3)]:
            ground = TowerGroundSet(r, n)
            els = ground.elements()
            for a, b, c in product(els, repeat=3):
                if len({a.code, b.code, c.code}) == 3:
                    assert ground.check_deletion_lemma(a, b, c)

    def test_deletion_figure_case(self):
        ground = TowerGroundSet(3, 3)
        b = ground.elements()
        # gamma(B1,B2)=(3,4) and gamma(B2,B3)=(2,5) are inequivalent and the
        # second has the earlier class, so gamma(B1,B3) must equal (2,5)
        assert ground.pair_of(ground.gamma(b[0], b[2])) == (2, 5)
        assert ground.check_deletion_lemma(b[0], b[1], b[2])

    def test_replacement_exhaustive_small(self):
        for r, n in [(2, 3), (3, 3)]:
            ground = TowerGroundSet(r, n)
            els = ground.elements()
            for a, b in product(els, repeat=2):
                if a == b:
                    continue
                for a2, b2 in product(els, repeat=2):
                    assert ground.check_replacement_lemma(a, b, a2, b2)

    def test_lemmas_refuse_level_one_and_repeated_elements(self):
        ground = TowerGroundSet(3, 3)
        minus, plus = ground.elements(1)
        a, b = ground.elements()[:2]
        for call, match in [
            (lambda: ground.check_deletion_lemma(minus, plus, minus), "from level 2 upward"),
            (lambda: ground.check_replacement_lemma(minus, plus, plus, minus), "from level 2 upward"),
            (lambda: ground.check_deletion_lemma(a, b, a), "pairwise distinct"),
            (lambda: ground.check_deletion_lemma(a, a, b), "pairwise distinct"),
            (lambda: ground.check_replacement_lemma(a, a, b, b), "need a != b"),
        ]:
            with pytest.raises(InvalidArgument, match=match):
                call()

    def test_replacement_equal_branch(self):
        ground = TowerGroundSet(3, 3)
        a, b = ground.elements()[0], ground.elements()[3]
        assert ground.check_replacement_lemma(a, b, a, b)

    def test_profile_exhaustive_small(self):
        for r, n in [(2, 3), (3, 3)]:
            ground = TowerGroundSet(r, n)
            els = ground.elements()
            for s in range(3, r + 2):
                for seq in combinations(els, s):
                    assert ground.check_profile_lemma(seq)

    def test_profile_base_shape(self):
        ground = TowerGroundSet(3, 3)
        b = ground.elements()
        h = [
            ground.gamma(b[0], b[1]).code,
            ground.gamma(b[0], b[2]).code,
            ground.gamma(b[1], b[2]).code,
        ]
        rises_then_tied = h[0] <= h[1] and h[1] == h[2]
        tied_then_falls = h[0] == h[1] and h[1] >= h[2]
        assert rises_then_tied or tied_then_falls

    def test_profile_input_validation(self):
        ground = TowerGroundSet(3, 3)
        b = ground.elements()
        with pytest.raises(InvalidArgument):
            ground.check_profile_lemma([b[0], b[1]])
        with pytest.raises(InvalidArgument):
            ground.check_profile_lemma([b[2], b[1], b[0]])

    def test_random_samples_on_256_element_set(self):
        import numpy as np

        ground = TowerGroundSet(4, 4)  # 256 elements
        els = ground.elements()
        rng = np.random.default_rng(4)
        for _ in range(2000):
            i, j, k = (int(v) for v in rng.choice(256, size=3, replace=False))
            assert ground.check_deletion_lemma(els[i], els[j], els[k])
        for _ in range(2000):
            a, b = (int(v) for v in rng.choice(256, size=2, replace=False))
            a2, b2 = (int(v) for v in rng.integers(0, 256, size=2))
            assert ground.check_replacement_lemma(els[a], els[b], els[a2], els[b2])
        for _ in range(2000):
            s = int(rng.integers(3, 6))
            picks = sorted(int(v) for v in rng.choice(256, size=s, replace=False))
            assert ground.check_profile_lemma([els[v] for v in picks])

    def test_every_element_is_checked(self):
        ground = TowerGroundSet(3, 3)
        a, b, b2 = ground.elements()[:3]
        with pytest.raises(InvalidArgument):
            ground.check_profile_lemma([])
        for bad in (TowerElement(3, -1), TowerElement(3, 8), TowerElement(2, 0)):
            with pytest.raises(InvalidArgument):
                ground.check_replacement_lemma(a, b, bad, b2)
            with pytest.raises(InvalidArgument):
                ground.check_replacement_lemma(a, b, b2, bad)
            with pytest.raises(InvalidArgument):
                ground.check_deletion_lemma(a, b, bad)
            with pytest.raises(InvalidArgument):
                ground.check_profile_lemma([a, b, bad])

    def test_verifiers_reject_a_last_difference_selector(self, monkeypatch):
        # negative control: gamma picking the *last* differing class breaks every lemma
        def last_difference(self, level, a, b):
            if level == 2:
                return 1 if a < b else 0
            width, diff = self.sizes[level - 1] // 2, a ^ b
            k = width - (diff & -diff).bit_length()
            if (b >> (width - 1 - k)) & 1:
                return self.sizes[level - 1] - 1 - k
            return k

        monkeypatch.setattr(TowerGroundSet, "_gamma_code", last_difference)
        ground = TowerGroundSet(3, 4)
        els = ground.elements()
        assert not all(
            ground.check_deletion_lemma(a, b, c) for a, b, c in permutations(els, 3)
        )
        assert not all(
            ground.check_replacement_lemma(a, b, a2, b2)
            for a, b in permutations(els, 2) for a2, b2 in product(els, repeat=2)
        )
        assert not all(
            ground.check_profile_lemma(seq) for s in (3, 4) for seq in combinations(els, s)
        )


# -- reference verifiers: the bodies that computed every gamma with _gamma_code ------
#
# They read `ground._gamma_code` on every comparison and descend with new
# lists per deleted position, so they share no table with the verifiers
# under test; patching `_gamma_code` reaches both.

def ref_descend(ground, level, codes, times):
    for step in range(times):
        codes = [ground._gamma_code(level - step, x, y) for x, y in zip(codes, codes[1:])]
    return codes


def ref_deletion(ground, level, x, y, z):
    gab = ground._gamma_code(level, x, y)
    gbc = ground._gamma_code(level, y, z)
    gac = ground._gamma_code(level, x, z)
    if level == 2:
        if gab != gbc:
            return gac in (gab, gbc)
        return gac == gab == gbc
    last = ground.sizes[level - 1] - 1
    kab, kbc, kac = min(gab, last - gab), min(gbc, last - gbc), min(gac, last - gac)
    if kab != kbc:
        return gac == (gab if kab < kbc else gbc)
    return kab < kac and kbc < kac


def ref_replacement(ground, level, x, y, x2, y2):
    gab = ground._gamma_code(level, x, y)
    ok = True
    if x2 != y and x <= x2:
        ok = ok and gab >= ground._gamma_code(level, x2, y)
    if y2 != x and y <= y2:
        ok = ok and gab <= ground._gamma_code(level, x, y2)
    return ok


def ref_profile(ground, level, codes):
    s = len(codes)
    h = [ref_descend(ground, level, codes[: pos - 1] + codes[pos:], s - 2)[0]
         for pos in range(s, 0, -1)]
    odd_ok = all(h[j - 1] <= h[j] if j % 2 == 1 else h[j - 1] == h[j] for j in range(1, s))
    even_ok = all(h[j - 1] == h[j] if j % 2 == 1 else h[j - 1] >= h[j] for j in range(1, s))
    return odd_ok or even_ok


def last_difference(self, level, a, b):
    """A wrong selector: the *last* differing class, which breaks every lemma."""
    if level == 2:
        return 1 if a < b else 0
    width, diff = self.sizes[level - 1] // 2, a ^ b
    k = width - (diff & -diff).bit_length()
    if (b >> (width - 1 - k)) & 1:
        return self.sizes[level - 1] - 1 - k
    return k


@pytest.fixture(params=["first_difference", "last_difference"])
def selector(request, monkeypatch):
    """Gamma as built, or patched to the last-difference selector for every new ground set."""
    if request.param == "last_difference":
        monkeypatch.setattr(TowerGroundSet, "_gamma_code", last_difference)
    return request.param


def exhaustive_inputs(size, r):
    idx = range(size)
    quads = [ab + ab2 for ab in permutations(idx, 2) for ab2 in product(idx, repeat=2)]
    seqs = [seq for s in range(3, r + 2) for seq in combinations(idx, s)]
    return list(permutations(idx, 3)), quads, seqs


def seeded_inputs(size, r, samples, seed):
    rng = np.random.default_rng(seed)
    picks = lambda k: [tuple(int(v) for v in rng.choice(size, k, replace=False))  # noqa: E731
                       for _ in range(samples)]
    quads = [ab + tuple(int(v) for v in rng.integers(0, size, 2)) for ab in picks(2)]
    seqs = [tuple(sorted(seq[:int(rng.integers(3, r + 2))])) for seq in picks(r + 1)]
    return picks(3), quads, seqs


def assert_verdicts_match_reference(ground, level, triples, quads, seqs):
    """Each verifier's verdict equals the reference's on every input; returns the False counts."""
    el = lambda code: TowerElement(level, code)  # noqa: E731
    rejected = []
    for verifier, ref, inputs in [
        (ground.check_deletion_lemma, ref_deletion, triples),
        (ground.check_replacement_lemma, ref_replacement, quads),
        (lambda *els: ground.check_profile_lemma(els),
         lambda g, lv, *c: ref_profile(g, lv, list(c)), seqs),
    ]:
        got = [verifier(*map(el, codes)) for codes in inputs]
        want = [ref(ground, level, *codes) for codes in inputs]
        assert got == want
        rejected.append(want.count(False))
    return rejected


class TestGammaTables:
    @pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (3, 4), (4, 3)])
    def test_exhaustive_verdicts_match_reference(self, r, n, selector):
        ground = TowerGroundSet(r, n)
        rejected = assert_verdicts_match_reference(ground, r, *exhaustive_inputs(ground.size, r))
        if selector == "last_difference" and (r, n) == (3, 4):  # failing verdicts are compared too
            assert rejected == [3360, 13326, 1276]
        if selector == "first_difference":
            assert rejected == [0, 0, 0]

    @pytest.mark.parametrize("r,n,seed", [(3, 5, 11), (4, 4, 12)])
    def test_seeded_verdicts_match_reference(self, r, n, seed, selector):
        ground = TowerGroundSet(r, n)
        inputs = seeded_inputs(ground.size, r, 3000, seed)
        rejected = assert_verdicts_match_reference(ground, r, *inputs)
        assert (sum(rejected) > 0) == (selector == "last_difference")

    def test_gamma_and_iteration_read_the_table(self, selector):
        ground = TowerGroundSet(4, 3)
        for level in (2, 3, 4):
            size = ground.sizes[level]
            for a, b in permutations(range(size), 2):
                got = ground.gamma(TowerElement(level, a), TowerElement(level, b))
                assert got == TowerElement(level - 1, ground._gamma_code(level, a, b))
        for seq in combinations(range(16), 4):
            got = ground.gamma_iter([TowerElement(4, v) for v in seq], 3)
            assert [e.code for e in got] == ref_descend(ground, 4, list(seq), 3)
            assert got[0].level == 1

    def test_level_of_two_million_elements_is_read_untabulated(self):
        ground = TowerGroundSet(3, 21)
        top = ground.size - 1
        triples = [(0, 1, 2), (5, 2 ** 20, top), (top, 7, 2 ** 20 + 3), (123_456, 99, 2_000_000)]
        quads = [(0, top, 5, top), (2 ** 20, 3, 2 ** 20 + 1, 9), (top, 0, 0, top), (17, 4, 17, 4)]
        seqs = [(0, 1, 2), (3, 2 ** 19, 2 ** 20, top), (10, 11, 1_000_000, 2_000_000)]
        tracemalloc.start()
        try:
            assert_verdicts_match_reference(ground, 3, triples, quads, seqs)
            a, b = TowerElement(3, 5), TowerElement(3, top)
            assert ground.gamma(a, b) == TowerElement(2, ground._gamma_code(3, 5, top))
            assert ground.gamma_iter([a, TowerElement(3, 2 ** 20), b], 2)[0].level == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024  # a level-3 row alone would be 2^21 entries, 16 MB


def ref_gamma_code(ground, level, a, b):
    """Gamma by probing b's bit at the first differing class: the oracle for the closed form."""
    if level == 2:
        return 1 if a < b else 0
    width = ground.sizes[level - 1] // 2
    k = width - (a ^ b).bit_length()
    if (b >> (width - 1 - k)) & 1:
        return ground.sizes[level - 1] - 1 - k
    return k


class TestGammaClosedForm:
    @pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
    def test_every_pair_matches_the_bit_probe(self, r, n):
        ground = TowerGroundSet(r, n)
        for level in range(2, r + 1):
            for a, b in permutations(range(ground.sizes[level]), 2):
                assert ground._gamma_code(level, a, b) == ref_gamma_code(ground, level, a, b)

    def test_seeded_pairs_of_two_million_elements_match_the_bit_probe(self):
        ground = TowerGroundSet(3, 21)
        rng = np.random.default_rng(21)
        pairs = [tuple(int(v) for v in rng.choice(ground.size, 2, replace=False))
                 for _ in range(10_000)]
        assert all(ground._gamma_code(3, a, b) == ref_gamma_code(ground, 3, a, b) for a, b in pairs)

    def test_coloring_reads_the_one_definition(self, monkeypatch):
        built = TowerGroundSet(3, 4).coloring()
        monkeypatch.setattr(TowerGroundSet, "_gamma_code", last_difference)
        assert TowerGroundSet(3, 4).coloring() != built

    def test_one_read_on_a_fresh_ground_set_builds_nothing(self):
        # one read stores nothing; tabulating its level would trace megabytes here
        def traced_peak(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ground = TowerGroundSet(3, 10)
        a, b, c = ground.elements()[:3]
        ok, peak = traced_peak(lambda: ground.check_deletion_lemma(a, b, c))
        assert ok is True and peak < 64 * 1024
        ground = TowerGroundSet(2, 822)
        x, y = TowerElement(2, 5), TowerElement(2, 1_000)
        got, peak = traced_peak(lambda: ground.gamma(x, y))
        assert got == TowerElement(1, 1) and peak < 64 * 1024


class TestElementFields:
    """Levels and codes are read with operator.index: numpy ints work, floats do not."""

    def test_numpy_integer_codes_give_python_ints(self):
        ground = TowerGroundSet(3, 3)
        plain = [TowerElement(3, v) for v in (1, 4, 6, 7)]
        wide = [TowerElement(np.int64(3), np.int64(v)) for v in (1, 4, 6, 7)]
        for els in (wide, [TowerElement(3, np.uint8(v)) for v in (1, 4, 6, 7)]):
            assert ground.check_deletion_lemma(*els[:3]) is ground.check_deletion_lemma(*plain[:3])
            assert ground.check_replacement_lemma(*els) is ground.check_replacement_lemma(*plain)
            assert ground.check_profile_lemma(els) is ground.check_profile_lemma(plain) is True
            for got, want in [
                ([ground.gamma(els[0], els[2])], [ground.gamma(plain[0], plain[2])]),
                (ground.gamma_iter(els[:3], 2), ground.gamma_iter(plain[:3], 2)),
                (ground.gamma_iter(els[:3], 0), plain[:3]),
                (ground.gamma_iter(plain[:3], np.int64(1)), ground.gamma_iter(plain[:3], 1)),
                ([ground.sigma(els[1])], [ground.sigma(plain[1])]),
            ]:
                assert got == want
                assert all(type(e.level) is int and type(e.code) is int for e in got)
            assert ground.type_of(els[1]) == ground.type_of(plain[1]) == 1
            bits = ground.bits_of(els[1])
            assert bits == ground.bits_of(plain[1]) and all(type(b) is int for b in bits)

    def test_elements_read_the_level_as_an_integer(self):
        ground = TowerGroundSet(3, 3)
        for level, want in [(np.int64(3), 3), (np.uint8(2), 2), (True, 1)]:
            els = ground.elements(level)
            assert els == ground.elements(want) and {type(e.level) for e in els} == {int}
            json.dumps([e.level for e in els])
        with pytest.raises(TypeError):
            ground.elements(3.0)

    def test_members_of_gives_python_int_fields(self):
        ground = TowerGroundSet(4, 3)
        got = ground.members_of(TowerElement(np.int64(4), np.int64(3)))
        assert got == ground.members_of(TowerElement(4, 3))
        assert all(type(e.level) is int and type(e.code) is int for e in got)

    def test_float_fields_raise_type_error(self, monkeypatch):
        def no_gamma(*args):
            raise AssertionError("gamma reached")

        ground = TowerGroundSet(3, 3)
        monkeypatch.setattr(TowerGroundSet, "_gamma_code", no_gamma)
        a, b, c = (TowerElement(3, v) for v in (0, 2, 5))
        for bad in (TowerElement(3, 1.5), TowerElement(3.0, 1), TowerElement(3, 1.0)):
            calls = [
                lambda: ground.check_deletion_lemma(a, bad, c),
                lambda: ground.check_replacement_lemma(a, b, bad, c),
                lambda: ground.check_replacement_lemma(a, b, c, bad),
                lambda: ground.check_profile_lemma([a, bad, c]),
                lambda: ground.gamma(a, bad),
                lambda: ground.gamma_iter([a, bad, c], 1),
                lambda: ground.sigma(bad),
                lambda: ground.type_of(bad),
                lambda: ground.bits_of(bad),
            ]
            for call in calls:
                with pytest.raises(TypeError):
                    call()
