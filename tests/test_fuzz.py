"""Fuzzing of the ``.mono`` parser, the CLI exit-code contract and the API.

Inputs are valid files with up to three one-character edits, so most of
them are near misses that each trip one parse check; a few headers sit
at or past the table cap.  The constructor subcommands and the public
entry points get integer arguments that are either small or 100 to
3,000 digits long.
"""

import contextlib
import io
import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from signotopes import (
    SignFunction,
    TowerGroundSet,
    block_coloring,
    colex_rank,
    completions,
    compositions,
    count_monotone,
    dumps,
    enumerate_monotone,
    find_avoiding_coloring,
    loads,
    ramsey_number,
    random_monotone_coloring,
    tow,
    tower_coloring,
    tower_sizes,
    zero_lower_bound,
)
from signotopes.cli import dispatch
from signotopes.errors import ParseError, SignotopeError, TooLarge

EDIT_CHARS = "-+0\nrn= MONO1x\r"
LARGE_HEADERS = [(2, 175), (2, 176), (3, 65), (1200, 1200)]


@st.composite
def near_valid_texts(draw) -> str:
    r, n = draw(st.one_of(
        st.integers(2, 5).flatmap(lambda r: st.tuples(st.just(r), st.integers(r - 1, 8))),
        st.sampled_from(LARGE_HEADERS),
    ))
    size = comb(n, r)
    if size <= 200:
        body = draw(st.text("-+", min_size=size, max_size=size))
    else:
        body = draw(st.sampled_from("-+")) * size
    text = f"MONO 1\nr={r} n={n}\n{body}\n"
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        i = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(["", *EDIT_CHARS]))
        text = text[:i] + new + text[i + draw(st.integers(0, 1)):]
    return text


@given(near_valid_texts())
@settings(max_examples=300, deadline=None)
def test_loads_round_trips_or_raises_parse_error_or_too_large(text):
    try:
        c = loads(text)
    except (ParseError, TooLarge):
        return
    assert loads(dumps(c)) == c


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(text=near_valid_texts(), command=st.sampled_from(["verify", "path", "wiring", "project"]),
       i=st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_cli_exit_code_contract(fuzz_dir, text, command, i):
    src = fuzz_dir / "in.mono"
    src.write_bytes(text.encode())
    extra = ["--i", str(i), "--out", str(fuzz_dir / "out.mono")] if command == "project" else []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch([command, "--in", str(src), *extra])
    assert code in (0, 1, 2, 3)


# 100 to 3,000 digits, either sign: each must be refused before any work
HUGE = st.tuples(st.integers(100, 3000), st.sampled_from([1, -1]), st.integers(-3, 3)).map(
    lambda t: t[1] * 10 ** (t[0] - 1) + t[2])
# small values stay cheap: r <= 4, every other argument <= 7, and a node budget
SMALL = {"--r": st.integers(-1, 4)}
CONSTRUCTORS = {
    "tower": ("--r", "--n"),
    "comp": ("--r", "--h"),
    "count": ("--r", "--n"),
    "ramsey": ("--r", "--path", "--max"),
}


@given(command=st.sampled_from(sorted(CONSTRUCTORS)), data=st.data())
@settings(max_examples=200, deadline=None)
def test_constructor_exit_code_contract(command, data):
    argv = ["--max-nodes", "20000", command]
    for flag in CONSTRUCTORS[command]:
        small = SMALL.get(flag, st.integers(-1, 7))
        argv += [flag, str(data.draw(st.one_of(small, HUGE), label=flag))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    assert code in (0, 1, 2, 3)


NODES = 20000
BLOCKS = block_coloring(3, 2)
# each entry point with its int arguments; generators are asked for a first item
API = {
    "count_monotone": (2, lambda r, n: count_monotone(r, n, max_nodes=NODES)),
    "count_monotone(workers)": (1, lambda w: count_monotone(3, 4, workers=w)),  # one job
    "ramsey_number": (3, lambda r, m, n: ramsey_number(r, m, n, max_nodes=NODES)),
    "find_avoiding_coloring": (3, lambda r, n, m: find_avoiding_coloring(r, n, m,
                                                                         max_nodes=NODES)),
    "TowerGroundSet": (2, TowerGroundSet),
    "SignFunction.constant": (3, SignFunction.constant),
    "colex_rank": (3, lambda a, b, n: colex_rank((a, b), n)),
    "compositions": (2, lambda m, parts: next(compositions(m, parts), None)),
    "compositions(m)": (1, lambda m: next(compositions(m), None)),
    "zero_lower_bound": (2, zero_lower_bound),
    "tow": (2, tow),
    "completions(count)": (2, lambda count, seed: next(completions(BLOCKS, "sample", count, seed))),
    "block_coloring": (2, block_coloring),
    "enumerate_monotone": (2, lambda r, n: next(enumerate_monotone(r, n, max_nodes=NODES), None)),
    "random_monotone_coloring": (3, random_monotone_coloring),
    "tower_sizes": (2, tower_sizes),
    "tower_coloring": (2, tower_coloring),
}


@given(name=st.sampled_from(sorted(API)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_api_refuses_huge_arguments_with_package_errors(name, data):
    arity, call = API[name]
    args = [data.draw(st.one_of(st.integers(-1, 7), HUGE), label=f"arg {i}") for i in range(arity)]
    start = time.perf_counter()
    try:
        call(*args)
    except SignotopeError:
        pass
    assert time.perf_counter() - start < 1
