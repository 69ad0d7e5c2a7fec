"""Tower-sized ground sets and the long-path-free monotone coloring.

Level 2 of the tower is a 2n-element ordered set of pairs; level k >= 3
consists of all transversals picking one representative from each
equivalence class of level k-1, so its size squares-then-some:
N_2 = 2n and N_k = 2^(N_{k-1}/2).  Each element is stored as a single
integer code chosen so that, at every level,

  * the element order is plain integer order on codes,
  * the type flip (sigma) is the complement code N-1-code,
  * type - is the lower half, type + the upper half,
  * the class index of an element is min(code, N-1-code).

For levels >= 3 the code packs one bit per class of the level below
(0 = the class's type-minus representative is chosen, 1 = type-plus),
with class 0 at the most significant position; reading bits from class 0
makes lexicographic bit order coincide with integer order, which is why
the first property holds.  None of this is assumed silently: the
``check_*`` verifiers re-derive the defining properties at runtime.

``gamma(A, B)`` selects B's representative in the first class on which
A and B differ (one level down); iterating it elementwise across an
increasing r-tuple down to a bare sign yields the edge coloring, which
is monotone and has no monochromatic monotone path on 2n+r-1 vertices.
On codes gamma has a closed form: at level 2 it is 1 (the sign +)
exactly when A precedes B; at level k >= 3, with w = N_{k-1}/2 classes
below and p the bit length of A ^ B, the first differing class is
w - p (bit p - 1), where B picks the type-plus code w + p - 1 exactly
when A < B, and the type-minus code w - p otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, index
from typing import Iterable, Sequence

import numpy as np

from .core import TABLE_CAP, SignFunction, _brief, check_size, colex_layout
from .errors import InvalidArgument, TooLarge


def tower_sizes(r: int, n: int) -> list[int]:
    """Sizes N_1..N_r of the tower levels; index k holds N_k (index 0 unused)."""
    r, n = index(r), index(n)
    if r < 2 or n < 1:
        raise InvalidArgument(f"need r >= 2 and n >= 1, got r={_brief(r)}, n={_brief(n)}")
    sizes = [0, 2, 2 * n]
    for level in range(3, r + 1):
        exponent = sizes[-1] // 2
        if exponent >= TABLE_CAP:  # 2^exponent has exponent + 1 bits
            raise TooLarge(f"level {level} size 2^{_brief(exponent)} exceeds the table cap in bits")
        size = 2 ** exponent
        if size == sizes[-1] < r:  # n <= 2: stuck at 2 or 4, refused without r steps
            raise InvalidArgument(f"levels stop growing at {size} elements, below r={_brief(r)}")
        sizes.append(size)
    return sizes


@dataclass(frozen=True, slots=True)
class TowerElement:
    """A ground-set element: its level and its code in the element order."""

    level: int
    code: int


class TowerGroundSet:
    """The level-r ground set with its order, types, classes and gamma.

    Elements returned by :meth:`elements` are in increasing element
    order; the first half has type - and the second half type +.

    Gamma has one definition, the closed form ``_gamma_code``, which
    ``gamma``, ``gamma_iter``, ``coloring`` and the three verifiers call
    on every read.  Every admitted ground set, up to level 3 of (3, 21)
    with 2^21 elements, takes that one path, and an instance holds
    nothing but its arguments and sizes.
    """

    def __init__(self, r: int, n: int):
        self.r, self.n = index(r), index(n)
        self.sizes = tower_sizes(self.r, self.n)
        self.size = self.sizes[self.r]
        if self.size > TABLE_CAP:
            raise TooLarge(f"{_brief(self.size)} elements exceed the table cap {TABLE_CAP}")

    # -- element structure --------------------------------------------------

    def elements(self, level: int | None = None) -> list[TowerElement]:
        level = self.r if level is None else index(level)
        self._check_level(level)
        return [TowerElement(level, code) for code in range(self.sizes[level])]

    def type_of(self, el: TowerElement) -> int:
        """-1 or +1 by which half of the element order el sits in."""
        level, (code,) = self._codes([el])
        return -1 if code < self.sizes[level] // 2 else 1

    def sigma(self, el: TowerElement) -> TowerElement:
        """The order-reversing type-flipping involution."""
        level, (code,) = self._codes([el])
        return TowerElement(level, self.sizes[level] - 1 - code)

    def pair_of(self, el: TowerElement) -> tuple[int, int]:
        """Display form of a level-2 element: the pair it denotes."""
        level, (code,) = self._codes([el])
        if level != 2:
            raise InvalidArgument(f"pair_of needs a level-2 element, got level {level}")
        return (2 * self.n - code, code + 1)

    def bits_of(self, el: TowerElement) -> tuple[int, ...]:
        """Chosen-representative types per class of the level below (level >= 3)."""
        level, (code,) = self._codes([el])
        if level < 3:
            raise InvalidArgument(f"bits_of needs level >= 3, got level {level}")
        width = self.sizes[level - 1] // 2
        return tuple((code >> (width - 1 - k)) & 1 for k in range(width))

    def members_of(self, el: TowerElement) -> frozenset:
        """The transversal an element denotes: one element per lower class.

        Level-2 elements are rendered as their pairs; deeper levels as
        TowerElements.  Display/debugging only.
        """
        bits = self.bits_of(el)  # checks el and that its level is >= 3
        lower = index(el.level) - 1
        size = self.sizes[lower]
        picks = [
            TowerElement(lower, k if bit == 0 else size - 1 - k)
            for k, bit in enumerate(bits)
        ]
        if lower == 2:
            return frozenset(self.pair_of(p) for p in picks)
        return frozenset(picks)

    # -- gamma and the coloring ----------------------------------------------

    def gamma(self, a: TowerElement, b: TowerElement) -> TowerElement:
        """B's representative in the first class where A and B differ.

        One level down.  At level 2 the first (and only) lower class is
        the sign pair, and the chosen sign is + exactly when A precedes B.
        """
        level, (x, y) = self._codes([a, b])
        if level < 2:
            raise InvalidArgument("gamma is defined from level 2 upward")
        if x == y:
            raise InvalidArgument("gamma needs two distinct elements")
        return TowerElement(level - 1, self._gamma_code(level, x, y))

    def _gamma_code(self, level: int, a: int, b: int) -> int:
        """Gamma on the codes a != b of `level` >= 2, in closed form (module docstring)."""
        if level == 2:
            return 1 if a < b else 0
        w, p = self.sizes[level - 1] // 2, (a ^ b).bit_length()
        return w + p - 1 if a < b else w - p

    def gamma_iter(self, seq: Sequence[TowerElement], times: int) -> list[TowerElement]:
        """Apply gamma elementwise to consecutive entries, `times` times."""
        level, codes = self._codes(seq)
        if not 0 <= times <= min(len(codes) - 1, level - 1):
            raise InvalidArgument(
                f"iteration count {_brief(times)} outside 0..min(k-1, r-1) for "
                f"k={len(codes)}, r={level}"
            )
        if any(x == y for x, y in zip(codes, codes[1:])):
            raise InvalidArgument("consecutive entries must be distinct")
        for step in range(times):
            codes = [self._gamma_code(level - step, x, y) for x, y in zip(codes, codes[1:])]
        return [TowerElement(level - times, code) for code in codes]

    def coloring(self) -> SignFunction:
        """The edge coloring: iterate gamma down to a sign per r-subset.

        Vertex i of the result is the i-th element in the element order.
        Each level's step gathers from a local N x N array of
        ``_gamma_code`` values; ``check_size`` admits at most 64 vertices
        at r = 3 and fewer above, so no array passes 64 x 64.  Consecutive
        entries stay distinct on the way down, so the diagonal (0) is
        never read.
        """
        if self.r < 3:
            raise InvalidArgument("the coloring is defined for r >= 3")
        check_size(self.r, self.size)
        codes = colex_layout(self.size, self.r).edges - 1
        code = self._gamma_code
        for level in range(self.r, 1, -1):
            idx = range(self.sizes[level])
            gamma = np.array([[code(level, a, b) if a != b else 0 for b in idx] for a in idx])
            codes = gamma[codes[:, :-1], codes[:, 1:]]
        return SignFunction(self.r, self.size, np.where(codes[:, 0], 1, -1))

    # -- runtime verifiers for the structural facts ---------------------------

    def check_deletion_lemma(self, a: TowerElement, b: TowerElement, c: TowerElement) -> bool:
        """gamma over a detour: gamma(a,c) sits where the two-step values say.

        For levels >= 3: when gamma(a,b) and gamma(b,c) are inequivalent,
        gamma(a,c) equals whichever of them has the earlier class;
        otherwise both precede gamma(a,c) in class order.  At level 2 the
        sign of gamma(a,c) agrees with the two-step signs.
        """
        level, (x, y, z) = self._codes([a, b, c])
        if level < 2:
            raise InvalidArgument("gamma is defined from level 2 upward")
        if x == y or y == z or x == z:
            raise InvalidArgument("elements must be pairwise distinct")
        code = self._gamma_code
        gab, gbc, gac = code(level, x, y), code(level, y, z), code(level, x, z)
        if level == 2:
            if gab != gbc:
                return gac in (gab, gbc)
            return gac == gab == gbc
        last = self.sizes[level - 1] - 1
        kab, kbc, kac = min(gab, last - gab), min(gbc, last - gbc), min(gac, last - gac)
        if kab != kbc:
            return gac == (gab if kab < kbc else gbc)
        return kab < kac and kbc < kac

    def check_replacement_lemma(
        self,
        a: TowerElement,
        b: TowerElement,
        a2: TowerElement,
        b2: TowerElement,
    ) -> bool:
        """Moving one gamma argument up moves the value monotonically.

        Part one: a <= a2 implies gamma(a,b) >= gamma(a2,b); part two:
        b <= b2 implies gamma(a,b) <= gamma(a,b2).  Comparisons are in
        the element order one level down.  Parts whose distinctness
        precondition fails are skipped; all four elements are checked
        either way.
        """
        level, (x, y, x2, y2) = self._codes([a, b, a2, b2])
        if level < 2:
            raise InvalidArgument("gamma is defined from level 2 upward")
        if x == y:
            raise InvalidArgument("need a != b")
        code = self._gamma_code
        gab = code(level, x, y)
        if x2 != y and x <= x2 and gab < code(level, x2, y):
            return False
        return not (y2 != x and y <= y2 and gab > code(level, x, y2))

    def check_profile_lemma(self, seq: Sequence[TowerElement]) -> bool:
        """The deletion values of an increasing s-tuple interleave evenly.

        H lists, for each deleted position from last to first, the value
        of iterating gamma down to a single element.  The consecutive
        comparisons of H must fit one of the two templates: rises only in
        odd slots with even slots tied, or falls only in even slots with
        odd slots tied.  H is computed in two fixed buffers: deleting
        position p instead of p+1 changes only entry p of what is left.
        """
        level, codes = self._codes(seq)
        s = len(codes)
        if not 3 <= s <= level + 1:
            raise InvalidArgument(f"need 3 <= s <= r+1, got s={s}, r={level}")
        if any(map(ge, codes, codes[1:])):
            raise InvalidArgument("sequence must be strictly increasing")
        code = self._gamma_code
        rest, work, h = codes[:-1], [0] * (s - 2), []
        for pos in range(s - 1, -1, -1):
            if pos < s - 1:
                rest[pos] = codes[pos + 1]
            for i in range(s - 2):
                work[i] = code(level, rest[i], rest[i + 1])
            for step in range(1, s - 2):
                for i in range(s - 2 - step):
                    work[i] = code(level - step, work[i], work[i + 1])
            h.append(work[0])
        rises = [y - x for x, y in zip(h, h[1:])]  # slot j of the templates is rises[j - 1]
        odd, even = rises[::2], rises[1::2]
        return (min(odd) >= 0 and not any(even)) or (not any(odd) and max(even) <= 0)

    # -- internals -------------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.r:
            raise InvalidArgument(f"level {_brief(level)} outside 1..{self.r}")

    def _codes(self, els: Iterable[TowerElement]) -> tuple[int, list[int]]:
        """Level and codes of a nonempty run of valid elements: the one element check.

        Levels and codes are read with ``operator.index``, so numpy
        integers give Python ints and a float raises TypeError.
        """
        els = list(els)
        if not els:
            raise InvalidArgument("empty sequence")
        level = index(els[0].level)
        self._check_level(level)
        size = self.sizes[level]
        codes = []
        for el in els:
            if index(el.level) != level:
                raise InvalidArgument(f"levels differ: {level} vs {_brief(el.level)}")
            code = index(el.code)
            if not 0 <= code < size:
                raise InvalidArgument(
                    f"code {_brief(code)} outside level-{level} range 0..{size - 1}"
                )
            codes.append(code)
        return level, codes


def tower_coloring(r: int, n: int) -> SignFunction:
    return TowerGroundSet(r, n).coloring()
