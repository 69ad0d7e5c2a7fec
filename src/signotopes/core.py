"""Sign functions: -1/+1 colorings of the r-subsets of {1, ..., n}.

Every edge (r-subset) is addressed by its colex rank, computed as
``sum(C(v_i - 1, i))`` over the increasing tuple ``(v_1, ..., v_r)``.
:func:`colex_layout` holds that order once per (n, k): the edge array,
the deletion table (the faces of each k-subset, largest vertex deleted
first) and a vectorized rank.  Colors are stored and written to files
in this order, and the predicates, the path DP, the backtracking search,
the constructions and the wiring code all read the layout, so there is
exactly one edge order in the package.  The scalar :func:`colex_rank`
serves single tuples, such as checked input.

``TABLE_CAP`` is the one size limit: no call stores, walks or forms more
than TABLE_CAP entries, elements, colorings or bits of an integer; each
checks its arguments before any work, :func:`check_size` a coloring's.

A coloring is *monotone* when, for every (r+1)-subset, the sequence of
colors of its r-subsets (ordered by which element is deleted, largest
deleted first) changes sign at most once.  It is *transitive* when equal
colors on the two extreme r-subsets of an (r+1)-subset force all of its
r-subsets to that color.  Monotone implies transitive; for r = 2 the two
notions coincide.  Both checks read the (r+1)-subsets in colex order, block
by block, the block of v holding those whose largest vertex is v: each
r-subset of [v-1] with v appended, as in the one-element extensions of
Felsner and Weil (2001).  The small blocks are read together from one cached
(r+1)-subset deletion table; a block of ``_STREAM_ROWS`` rows or more is
read on its own, its faces gathered from a prefix of the r-subset deletion
table, and the walk stops once both first violations are known, so no
table of all C(n, r+1) subsets is formed past the small blocks.  Each
block is walked one face (column) at a time, counting per row the sign
changes seen so far: a row that changes twice breaks monotonicity, and
breaks transitivity as well when its first and last colors agree.

A :class:`SignFunction` validates its colors in one pass and stores
whether they are binary, so the operations that need a binary coloring
check it in O(1).  It decides both predicates on first use and keeps two
ints, the colex ranks of the first monotone and the first transitive
violation (-1 for none), not the two per-subset arrays they come from:
those hold C(n, r+1) entries each, 17,550 for a completion of
``block_coloring(3, 3)``, and a thousand checked completions held at
once would keep 35 MB of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import comb
from operator import index
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidEdge, ParseError, TernaryNotAllowed, TooLarge

MINUS = -1
PLUS = 1
ZERO = 0

#: The one size cap: the colex table entries of r = 3, n = 64, so the
#: r = 3 limit is exactly 64 vertices.
TABLE_CAP = 4 * comb(64 + 1, 4)

_ENCODE = np.frombuffer(b"-0+", dtype=np.uint8)  # color c is written as _ENCODE[c + 1]
_DECODE = np.full(128, 2, dtype=np.int8)  # code point p reads as _DECODE[min(p, 127)], 2 if illegal
_DECODE[_ENCODE] = (MINUS, ZERO, PLUS)


def colex_rank(vertices: Sequence[int], n: int | None = None) -> int:
    """Colex rank of a strictly increasing vertex tuple (0-based)."""
    prev = 0
    rank = 0
    for i, v in enumerate(vertices, start=1):
        if v <= prev:
            raise InvalidEdge(f"vertices must be strictly increasing, got {_brief(vertices)}")
        if n is not None and v > n:
            raise InvalidEdge(f"vertex {_brief(v)} out of range 1..{_brief(n)}")
        rank += comb(v - 1, i)
        prev = v
    if not vertices:
        raise InvalidEdge("empty vertex tuple")
    return rank


class ColexLayout:
    """The colex order of the k-subsets of [n] and the tables read off it.

    The block of vertex v, ranks C(v-1, k) .. C(v, k) - 1, lists the
    (k-1)-subsets of [v-1] in colex order with v appended, so both tables
    are filled block by block from the (n-1, k-1) layout, without a sort:

    * ``edges[t]`` is the increasing k-tuple of rank t;
    * ``deletion[t, j]`` is the rank of the (k-1)-subset left after
      deleting the (k-j)-th smallest element of edge t, so the largest
      element is deleted first and the smallest last.  Block v is
      ``[arange(C(v-1, k-1)), D[:C(v-1, k-1)] + C(v-1, k-1)]`` with D the
      (n-1, k-1) deletion table;
    * ``reversal[t]`` is the rank of edge t under the relabeling
      i -> n+1-i, an involution read by ``SignFunction.reversed_order``.

    ``deletion`` is stored column-major, so each column ``deletion[:, j]``
    (face j of every k-subset) is contiguous: the predicates gather and
    compare one column at a time, and the search and path tables read
    single columns too.  Tables are read-only and computed on first use.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.size = comb(n, k)

    def _blocks(self) -> Iterator[tuple[int, int, int, "ColexLayout"]]:
        """(v, first rank, size) of the block of v, and the (n-1, k-1) layout."""
        for v in range(self.k, self.n + 1) if self.k else ():
            sub = colex_layout(self.n - 1, self.k - 1)
            yield v, comb(v - 1, self.k), comb(v - 1, self.k - 1), sub

    @cached_property
    def edges(self) -> np.ndarray:
        out = np.empty((self.size, self.k), dtype=np.int64)
        for v, lo, width, sub in self._blocks():
            out[lo:lo + width, :-1] = sub.edges[:width]
            out[lo:lo + width, -1] = v
        out.setflags(write=False)
        return out

    @cached_property
    def deletion(self) -> np.ndarray:
        out = np.empty((self.size, self.k), dtype=np.int64, order="F")
        for _, lo, width, sub in self._blocks():
            out[lo:lo + width, 0] = np.arange(width)
            out[lo:lo + width, 1:] = sub.deletion[:width] + width
        out.setflags(write=False)
        return out

    @cached_property
    def reversal(self) -> np.ndarray:
        out = self.rank(self.n + 1 - self.edges[:, ::-1])
        out.setflags(write=False)
        return out

    @cached_property
    def _binom(self) -> np.ndarray:
        return np.array([[comb(v, j) for j in range(self.k + 1)] for v in range(self.n)])

    def rank(self, sets) -> np.ndarray:
        """Colex ranks of the rows of an (M, k) array of increasing tuples over [n]."""
        return self._binom[np.asarray(sets) - 1, np.arange(1, self.k + 1)].sum(axis=-1)


@lru_cache(maxsize=None)
def colex_layout(n: int, k: int) -> ColexLayout:
    """The shared layout of the k-subsets of [n]; every module reads this one."""
    return ColexLayout(n, k)


def _brief(x) -> str:
    """``x`` for a message, any int too long to print given by its bit length."""
    if isinstance(x, int) and x.bit_length() > 64:
        return f"<{x.bit_length()}-bit number>"
    return f"({', '.join(map(_brief, x))})" if isinstance(x, (tuple, list)) else str(x)


def _capped_comb(n: int, k: int, cap: int) -> int:
    """C(n, k), or cap + 1 once the running product C(n-k+i, i), which
    never shrinks, passes cap: a huge binomial costs a few steps."""
    k = min(k, n - k)
    value = int(k >= 0)
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > cap:
            return cap + 1
    return value


@lru_cache(maxsize=None)  # every SignFunction calls it; the admitted (r, n) are finitely many
def check_size(r: int, n: int) -> None:
    """Admit an (r, n) coloring: 2 <= r <= n, colex tables within TABLE_CAP.

    It measures ``colex_layout(n, k)`` for k = r-1, r and r+1, whose
    sub-layouts bring it to at most k * C(n+1, k) entries, each a capped
    product, so a thousand-digit argument costs a few steps.  The
    predicates read the k = r+1 table only for their small blocks and
    stream the rest (module docstring), so for them that count is an
    upper bound, not their working set; it still sets the vertex limits.
    """
    if r < 2:
        raise InvalidEdge(f"uniformity must be >= 2, got {_brief(r)}")
    if n < r:
        raise InvalidEdge(f"need n >= r, got n={_brief(n)}, r={_brief(r)}")
    if any(k * _capped_comb(n + 1, k, TABLE_CAP) > TABLE_CAP for k in (r - 1, r, r + 1)):
        raise TooLarge(f"r={_brief(r)}, n={_brief(n)} needs more colex table entries "
                       f"than the table cap {TABLE_CAP}")


@dataclass(frozen=True, eq=False)
class SignFunction:
    """A coloring of all r-subsets of [n], stored in colex order.

    ``colors`` holds one of -1, +1 (and 0 only when ``ternary_allowed``).
    Instances are immutable; r and n are read with ``operator.index``,
    and the array is a read-only copy of the one given, so they are safe
    to share across workers.  Equality compares (r, n, colors) — the
    ternary flag is a permission, not data.

    Validation is one pass: one byte scan of the int8 copy finds illegal
    values and zeros together (other dtypes are range-checked before the
    cast), and stores whether the coloring is binary.  The predicates are
    cached as two ints, ``_violations``, outside equality and hashing.
    Colors are validated once, at the boundary: the public constructor
    checks all it is given; ``_derived`` takes, unscanned, only int8 colors
    derived from validated ones or built as -1/+1 (leaves, sweep signs).
    """

    r: int
    n: int
    colors: np.ndarray
    ternary_allowed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r", index(self.r))
        object.__setattr__(self, "n", index(self.n))
        check_size(self.r, self.n)
        colors = np.asarray(self.colors)
        if colors.shape != (comb(self.n, self.r),):
            raise InvalidEdge(
                f"expected {comb(self.n, self.r)} colors for r={self.r}, n={self.n}, "
                f"got shape {colors.shape}"
            )
        if colors.dtype.kind not in "iu":
            raise InvalidEdge(f"colors must be integers, got dtype {colors.dtype}")
        if colors.dtype != np.int8:  # checked as given: the cast could wrap 255 to -1
            _check_range(colors)
        colors = colors.astype(np.int8)  # a copy: the caller may change its array later
        rest = colors.tobytes().translate(None, b"\xff\x01")  # the entries neither -1 nor +1
        if rest.strip(b"\0"):  # an illegal int8 value: name the first one
            _check_range(colors)
        if rest and not self.ternary_allowed:
            raise TernaryNotAllowed("0 entries require ternary_allowed=True")
        colors.setflags(write=False)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "_binary", not rest)

    @classmethod
    def _derived(cls, r: int, n: int, colors: np.ndarray) -> "SignFunction":
        """Derived -1/+1 int8 colors (class docstring), read-only, unscanned, not ternary."""
        self = object.__new__(cls)
        colors.setflags(write=False)
        for name, value in (("r", r), ("n", n), ("colors", colors), ("_binary", True)):
            object.__setattr__(self, name, value)  # as __init__ sets them, with no instance dict
        return self

    @classmethod
    def constant(cls, r: int, n: int, color: int = MINUS) -> "SignFunction":
        check_size(r, n)
        if color not in (MINUS, ZERO, PLUS):
            raise InvalidEdge(f"illegal color value {_brief(color)}")
        return cls(r, n, np.full(comb(n, r), color, dtype=np.int8))

    @classmethod
    def from_string(cls, r: int, n: int, chars: str) -> "SignFunction":
        colors, bad = _decode(chars)
        if bad is not None:
            raise InvalidEdge(f"illegal color character {chars[bad]!r}")
        return cls(r, n, colors, ternary_allowed=True)  # the format admits 0

    @property
    def edge_count(self) -> int:
        return len(self.colors)

    @property
    def is_binary(self) -> bool:
        return self._binary

    @cached_property
    def _violations(self) -> tuple[int, int]:
        """Colex ranks of the first (r+1)-subsets that break monotonicity and
        transitivity, -1 for none; not the per-subset arrays (module docstring)."""
        _require_binary(self)
        return _first_violations(self.r, self.n, self.colors)

    def color(self, vertices: Sequence[int]) -> int:
        if len(vertices) != self.r:
            raise InvalidEdge(f"expected an {self.r}-subset, got {_brief(vertices)}")
        return int(self.colors[colex_rank(vertices, self.n)])

    def color_string(self) -> str:
        return _ENCODE[self.colors + 1].tobytes().decode("ascii")

    def swapped(self) -> "SignFunction":
        """The coloring with - and + exchanged (0 stays 0)."""
        return SignFunction(self.r, self.n, -self.colors, self.ternary_allowed)

    def reversed_order(self) -> "SignFunction":
        """The coloring under the vertex relabeling i -> n+1-i."""
        out = self.colors[colex_layout(self.n, self.r).reversal]
        return SignFunction(self.r, self.n, out, self.ternary_allowed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignFunction):
            return NotImplemented
        return self.r == other.r and self.n == other.n and np.array_equal(self.colors, other.colors)

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.colors.tobytes()))

    def __repr__(self) -> str:
        s = self.color_string()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"SignFunction(r={self.r}, n={self.n}, {s!r})"


def _check_range(colors: np.ndarray) -> None:
    bad = (colors < -1) | (colors > 1)
    if bad.any():
        raise InvalidEdge(f"illegal color value {colors[bad][0]}")


def _require_binary(c: SignFunction) -> None:
    if not c.is_binary:
        raise TernaryNotAllowed("operation requires a coloring without 0 entries")


def link_sequence(c: SignFunction, subset: Sequence[int]) -> tuple[int, ...]:
    """Deletion color sequence of an (r+1)-subset.

    Entry j is the color of the r-subset obtained by deleting the
    (r+1-j)-th smallest element, so the largest element is deleted first
    and the smallest last.
    """
    s = tuple(subset)
    if len(s) != c.r + 1:
        raise InvalidEdge(f"expected an {c.r + 1}-subset, got {_brief(s)}")
    colex_rank(s, c.n)  # validates increasing and range
    seq = []
    for i in range(len(s) - 1, -1, -1):
        seq.append(int(c.colors[colex_rank(s[:i] + s[i + 1:], c.n)]))
    if any(v == 0 for v in seq):
        raise TernaryNotAllowed(f"subset {s} touches a 0-colored edge")
    return tuple(seq)


#: A block of (r+1)-subsets with this many rows or more is checked on its own;
#: the smaller blocks before it are read together from one cached table.  At
#: the vertex limits of r = 2..5, warm checks ran as fast with 2^11 as with 2^12
#: (2 vCPUs), and up to 1.3x slower with 2^13, 2.4x with 2^14 at r = 2.  2^12 is
#: the top of the fast range; it keeps r = 3 colorings of up to 31 vertices whole.
_STREAM_ROWS = 2 ** 12


@lru_cache(maxsize=None)
def _head(r: int, n: int) -> int:
    """The largest h <= n such that the blocks of v = r+1..h hold, each,
    C(v-1, r) < _STREAM_ROWS (r+1)-subsets; the blocks past h stream."""
    h = r
    while h < n and comb(h, r) < _STREAM_ROWS:
        h += 1
    return h


def _first_violations(r: int, n: int, colors: np.ndarray) -> tuple[int, int]:
    """Colex ranks of the first (r+1)-subsets of an (r, n) coloring that break
    monotonicity and transitivity, -1 for none, read block by block (module
    docstring)."""
    h = _head(r, n)
    mono, trans = _double_changes(colors[col] for col in colex_layout(h, r + 1).deletion.T)
    for v in range(h + 1, n + 1):
        if trans >= 0:  # a transitive violation is a monotone one: both are known
            break
        # Block v: each r-subset of [v-1] with v appended.  Deleting v leaves the
        # r-subset itself, deleting another vertex an (r-1)-subset of it plus v.
        w, lo = comb(v - 1, r), comb(v - 1, r + 1)
        block, faces = colors[w:], colex_layout(n, r).deletion[:w]
        m, t = _double_changes(chain([colors[:w]], (block[col] for col in faces.T)))
        if mono < 0 <= m:
            mono = lo + m
        if t >= 0:
            trans = lo + t
    return mono, trans


def _double_changes(columns: Iterator[np.ndarray]) -> tuple[int, int]:
    """Rows are deletion color sequences, given one face (column) at a time:
    the first row that changes sign twice, and the first that does so with
    equal first and last colors; -1 for none.  Counts changes per row, r <= 175, in uint8."""
    first = prev = next(columns)
    changes = np.zeros(len(first), dtype=np.uint8)
    for cur in columns:
        changes += cur != prev
        prev = cur
    twice = changes > 1
    if not twice.any():
        return -1, -1
    both = twice & (first == prev)
    return int(twice.argmax()), int(both.argmax()) if both.any() else -1


def _witness(c: SignFunction, row: int) -> tuple[int, ...] | None:
    """The (r+1)-subset of colex rank ``row`` as Python ints, None for -1: in
    the block of its largest vertex v, an r-subset of [v-1] with v appended."""
    if row < 0:
        return None
    v = c.r + 1
    while comb(v, c.r + 1) <= row:
        v += 1
    return (*colex_layout(c.n, c.r).edges[row - comb(v - 1, c.r + 1)].tolist(), v)


def monotone_violation(c: SignFunction) -> tuple[int, ...] | None:
    """First (in colex order) (r+1)-subset whose colors change sign twice.

    Returns None when the coloring is monotone.
    """
    return _witness(c, c._violations[0])


def is_monotone(c: SignFunction) -> bool:
    return c._violations[0] < 0


def transitive_violation(c: SignFunction) -> tuple[int, ...] | None:
    """First (in colex order) (r+1)-subset with equal end colors, not uniform."""
    return _witness(c, c._violations[1])


def is_transitive(c: SignFunction) -> bool:
    return c._violations[1] < 0


# --- file format -----------------------------------------------------------
#
# line 1: MONO 1
# line 2: r=<r> n=<n>
# line 3: C(n,r) characters over -, +, 0 in colex order
# LF line endings, trailing newline.

_HEADER_RE = re.compile(r"^r=([0-9]+) n=([0-9]+)$")  # \d would take any Unicode digit
_CONTENT_RE = re.compile(r"[^\n]+")  # one line's content
#: The longest file an admitted coloring writes: C(n, r) <= TABLE_CAP / r, r and n <= TABLE_CAP.
MAX_FILE_BYTES = len(f"MONO 1\nr={TABLE_CAP} n={TABLE_CAP}\n\n") + TABLE_CAP // 2


def _decode(chars: str) -> tuple[np.ndarray, int | None]:
    """The colors a string spells, and the index of its first illegal character."""
    points = np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    colors = _DECODE[np.minimum(points, 127)]
    bad = np.flatnonzero(colors == 2)
    return colors, int(bad[0]) if len(bad) else None


def dumps(c: SignFunction) -> str:
    return f"MONO 1\nr={c.r} n={c.n}\n{c.color_string()}\n"


def loads(text: str) -> SignFunction:
    lines = text.split("\n", 3)  # the rest stays one string: only its first content is read
    if len(lines) < 3:
        raise ParseError("expected 3 lines (magic, header, colors)", line=len(lines), column=1)
    if lines[0] != "MONO 1":
        raise ParseError(f"bad magic line {lines[0]!r}, expected 'MONO 1'", line=1, column=1)
    m = _HEADER_RE.match(lines[1])
    if not m:
        raise ParseError(f"bad header {lines[1]!r}, expected 'r=<r> n=<n>'", line=2, column=1)
    try:
        r, n = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than int() converts
        raise ParseError("header number too long", line=2, column=1) from None
    if not n >= r >= 2:
        raise ParseError(f"illegal parameters r={r}, n={n}", line=2, column=3)
    check_size(r, n)
    body = lines[2]
    expected = comb(n, r)
    colors, bad = _decode(body[:expected])  # a longer line is refused by its length
    if bad is not None:
        raise ParseError(f"illegal color character {body[bad]!r}", line=3, column=bad + 1)
    if len(body) != expected:
        raise ParseError(
            f"expected {expected} colors for r={r}, n={n}, got {len(body)}",
            line=3,
            column=len(body) + 1,
        )
    if len(lines) > 3 and (extra := _CONTENT_RE.search(lines[3])):
        raise ParseError(f"unexpected trailing content {extra.group()!r}",
                         line=4 + lines[3].count("\n", 0, extra.start()), column=1)
    return SignFunction(r, n, colors, ternary_allowed=True)  # the format admits 0


def write_file(c: SignFunction, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps(c))


def read_file(path) -> SignFunction:
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)  # one byte past the longest file is refused unread
    if len(data) > MAX_FILE_BYTES:
        raise TooLarge(f"{path} is longer than {MAX_FILE_BYTES} bytes, the longest .mono file")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte {exc.start} is not UTF-8", line=line) from None
    return loads(text)
