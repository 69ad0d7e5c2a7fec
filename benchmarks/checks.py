"""Output checks for the benchmark, with oracles written independently of the package.

Every checked call into the package is one *operation*.  The ledger counts
operations attempted and failed; an operation fails when its output misses
its check or the call raises.  The checkers are plain functions returning
``bool`` so that :func:`selftest` can feed each of them one deliberately
wrong output and confirm the ledger counts it as a failure.
"""

from __future__ import annotations

import io
import json
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np


class Ledger:
    """Attempted and failed operation counts, with the first few failures kept."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"{name}: check failed")
        return ok

    def step(self, name: str, fn, *args) -> None:
        """Run one benchmark step; an exception escaping it is one failed operation."""
        try:
            fn(*args)
        except Exception:  # the benchmark must keep counting after a broken call
            self.attempted += 1
            self._fail(f"{name}: {traceback.format_exc(limit=3)}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append(message)


# --- independent oracles ------------------------------------------------------


def rank(edge) -> int:
    """Colex rank of an increasing 1-based tuple, from the file format's definition."""
    return sum(comb(v - 1, i) for i, v in enumerate(edge, start=1))


class SmallOracle:
    """Brute-force monotonicity and longest-path oracle for one small (r, n).

    Tables are built here from ``itertools.combinations`` and :func:`rank`,
    not from the package's index tables, so a defect in those shows up.
    """

    def __init__(self, r: int, n: int):
        self.r, self.n = r, n
        self.link = np.array(
            [[rank(s[:pos] + s[pos + 1:]) for pos in range(r, -1, -1)]
             for s in combinations(range(1, n + 1), r + 1)],
            dtype=np.int64,
        ).reshape(-1, r + 1)
        self.windows = [
            (size, np.array(
                [[rank(s[i:i + r]) for i in range(size - r + 1)]
                 for s in combinations(range(1, n + 1), size)],
                dtype=np.int64,
            ))
            for size in range(r, n + 1)
        ]

    def monotone(self, colors) -> bool:
        seq = np.asarray(colors)[self.link]
        return bool(((seq[:, 1:] != seq[:, :-1]).sum(axis=1) <= 1).all())

    def longest(self, colors) -> tuple[int, int]:
        """(longest minus path, longest plus path), in vertices, by subset search."""
        colors = np.asarray(colors)
        best = {-1: min(self.n, self.r - 1), 1: min(self.n, self.r - 1)}
        for size, win in self.windows:
            vals = colors[win]
            firsts = vals[(vals == vals[:, :1]).all(axis=1), 0]
            for col in (-1, 1):
                if (firsts == col).any():
                    best[col] = size
        return best[-1], best[1]


# --- checkers -----------------------------------------------------------------


def equals(out, expected) -> bool:
    return out == expected


def at_least(out, bound) -> bool:
    return out >= bound


def witness_valid(c, witness, color: int, length: int) -> bool:
    """The witness is an increasing sequence of ``length`` vertices whose windows all have ``color``."""
    w = tuple(witness)
    if len(w) != length or any(a >= b for a, b in zip(w, w[1:])):
        return False
    if length < c.r:
        return True
    return all(c.color(w[i:i + c.r]) == color for i in range(length - c.r + 1))


def path_report_ok(c, rep, expected: tuple[int, int], bound: int) -> bool:
    """Lengths equal ``expected`` (golden or oracle), stay within ``bound``, witnesses valid."""
    return (
        (rep.best_minus, rep.best_plus) == tuple(expected)
        and max(rep.best_minus, rep.best_plus) <= bound
        and witness_valid(c, rep.witness_minus, -1, rep.best_minus)
        and witness_valid(c, rep.witness_plus, 1, rep.best_plus)
    )


def mirror_ok(c, rev, edges) -> bool:
    """Spot check of ``reversed_order``: rev(e) equals c(mirror image of e)."""
    n = c.n
    return all(
        rev.color(e) == c.color(tuple(n + 1 - v for v in reversed(e))) for e in edges
    )


def sweep_ok(w, n: int) -> bool:
    """A sweep of n wires has C(n, 2) crossings, each pair once."""
    return len(w.sweep) == comb(n, 2) and len(set(w.sweep)) == len(w.sweep)


def distinct(keys, count: int) -> bool:
    return len(set(keys)) == count


def reverify_ok(result: dict, m: int) -> bool:
    """CLI re-verification: both exit codes 0, monotone, longest path below m."""
    return (
        result["verify_exit"] == 0
        and result["monotone"] is True
        and result["path_exit"] == 0
        and max(result["lengths"]) < m
    )


def cli_reverify(dispatch, write_file, witness, workdir: str) -> dict:
    """Round a witness through ``signotopes verify`` and ``signotopes path``."""
    path = os.path.join(workdir, "witness.mono")
    write_file(witness, path)
    try:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            verify_exit = dispatch(["verify", "--in", path])
        verify = json.loads(out.getvalue())
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            path_exit = dispatch(["path", "--in", path])
        paths = json.loads(out.getvalue())
    finally:
        os.remove(path)
    return {
        "verify_exit": verify_exit,
        "monotone": verify["result"]["monotone"],
        "path_exit": path_exit,
        "lengths": [rec["length"] for rec in paths["result"]["paths"]],
    }


def selftest(pkg) -> dict:
    """Feed every checker one wrong output; each must count as a failed operation.

    ``pkg`` is the imported package, used only to build small wrong outputs.
    """
    good = pkg.SignFunction.constant(3, 5)
    bad = pkg.SignFunction.from_string(3, 4, "-+-+")  # deletion sequence changes sign 3 times
    flipped = good.swapped()
    oracle = SmallOracle(3, 4)
    wrong_rep = SimpleNamespace(best_minus=5, best_plus=2,
                                witness_minus=(1, 2, 3, 5, 4), witness_plus=(1, 2))
    cases = {
        "equals": lambda: equals(24_697, 24_698),
        "at_least": lambda: at_least(3, 4),
        "witness_valid": lambda: witness_valid(good, (1, 2, 3), 1, 3),
        "path_report_ok": lambda: path_report_ok(good, wrong_rep, (5, 2), 13),
        "mirror_ok": lambda: mirror_ok(good, flipped, [(1, 2, 3)]),
        "sweep_ok": lambda: sweep_ok(SimpleNamespace(sweep=((1, 2), (1, 2), (2, 3))), 3),
        "distinct": lambda: distinct([b"a", b"a"], 2),
        "reverify_ok": lambda: reverify_ok(
            {"verify_exit": 1, "monotone": False, "path_exit": 0, "lengths": [4, 2]}, 4),
        "oracle.monotone": lambda: oracle.monotone(bad.colors),
        "oracle.longest": lambda: equals(oracle.longest(bad.colors), (4, 4)),
    }
    ledger = Ledger()
    counted = {}
    for name, case in cases.items():
        before = ledger.failed
        ledger.record(name, case())
        counted[name] = ledger.failed == before + 1
    before = ledger.failed
    ledger.step("raises", pkg.SignFunction.constant, 3, 2)  # n < r raises InvalidEdge
    counted["exception"] = ledger.failed == before + 1
    return {"checkers": counted, "passed": all(counted.values())}
