"""Fuzzing of the ``.mono`` parser and of the CLI exit-code contract.

Inputs are valid files with up to three one-character edits, so most of
them are near misses that each trip one parse check; a few headers sit
at or past the table cap.  The constructor subcommands get integer
arguments that are either small or 100 to 3,000 digits long.
"""

import contextlib
import io
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from signotopes import dumps, loads
from signotopes.cli import dispatch
from signotopes.errors import ParseError, TooLarge

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
