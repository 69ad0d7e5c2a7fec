"""The four benchmark workloads.

Each workload draws its inputs from the seed, warms every layer it uses
(one call per layer at the workload's sizes, which fills the package's
cached tables), and then runs identical passes.  A pass calls public
functions of the package through the tracer and checks every output.
Why each workload exists is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import resource
import statistics
from itertools import combinations
from math import comb
from time import perf_counter

import numpy as np

from checks import (
    SmallOracle,
    at_least,
    cli_reverify,
    distinct,
    equals,
    mirror_ok,
    path_report_ok,
    rank,
    reverify_ok,
    sweep_ok,
)
from trace import BENCH

#: Golden values.  Counts follow OEIS A006245 (r = 3) and the exhaustive search;
#: Ramsey numbers follow (m-1)^2+1 for r = 2 and C(2m-4, m-2)+1 for r = 3, m = 4;
#: block zero counts were recorded from the block construction.
GOLDEN_COUNTS = {(3, 6): 908, (4, 6): 148, (3, 7): 24_698, (4, 7): 7_686}
GOLDEN_BLOCK_ZEROS = {(3, 3): 54, (4, 2): 48, (5, 2): 260}
TOWER_LONGEST = (7, 7)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Reference time run before each step, as a share of that step's last duration.
REFERENCE_SHARE = 0.1


class Reference:
    """A fixed round of work timed in small slices between the steps of a run.

    The machine's speed drifts with the load neighbours put on shared cores.
    Slices spread through the run see the same mix of fast and slow spells
    as the steps, so the run's mean pass time over the mean round time
    cancels most of that drift.  A round is interpreter-bound work in the
    style of the package (tuples, colex ranks, dicts) plus small arrays.
    """

    def __init__(self):
        self.seconds = 0.0
        self.rounds = 0

    @staticmethod
    def round() -> int:
        ranks = {}
        for c in range(3, 19):
            for b in range(2, c):
                for a in range(1, b):
                    ranks[(a, b, c)] = comb(a - 1, 1) + comb(b - 1, 2) + comb(c - 1, 3)
        arr = np.fromiter(ranks.values(), dtype=np.int64, count=len(ranks))
        return int(np.isin(arr % 5, (0, 1)).sum()) + len(ranks)

    def run(self, seconds: float) -> None:
        start = perf_counter()
        while True:
            self.round()
            self.rounds += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                self.seconds += elapsed
                return


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


class Workload:
    """Shared plumbing: steps, per-pass span summaries, share metrics."""

    name = ""
    layers: tuple[str, ...] = ()
    deterministic = False

    def __init__(self, pkg, seed: int, tracer, ledger, workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.tr = tracer
        self.ledger = ledger
        self.workdir = workdir
        self.call = tracer.call
        self.rec = ledger.record
        self.step_times: dict[str, list[float]] = {}
        self.reference: Reference | None = None

    def step(self, name: str, fn, *args) -> None:
        if self.reference is not None:
            last = self.step_times.get(name)
            self.reference.run(REFERENCE_SHARE * (last[-1] if last else 0.05))
        start = perf_counter()
        if self.tr.enabled:
            with self.tr.span(BENCH, name):
                self.ledger.step(name, fn, *args)
        else:
            self.ledger.step(name, fn, *args)
        self.step_times.setdefault(name, []).append(perf_counter() - start)

    def warm_up(self) -> dict:
        return {}

    def run_pass(self) -> None:
        raise NotImplementedError

    def traced_extras(self) -> dict:
        """Observations made once, after the traced passes."""
        return {}

    def layer_metrics(self, summaries: list[dict], setup: dict, extras: dict) -> dict:
        raise NotImplementedError

    def share_metrics(self, summaries: list[dict]) -> dict:
        out = {}
        for layer in self.layers:
            own = statistics.median(s["self"].get(layer, 0.0) for s in summaries)
            share = statistics.median(s["self"].get(layer, 0.0) / s["wall"] for s in summaries)
            out[f"self_s.{self.name}.{layer}"] = own
            out[f"share.{self.name}.{layer}"] = share
        return out

    @staticmethod
    def total(summaries: list[dict], *keys: str) -> float:
        """Median over passes of the summed duration of the given kinds of call."""
        return statistics.median(sum(s["calls"][k][0] for k in keys) for s in summaries)

    @staticmethod
    def per_call_us(summaries: list[dict], key: str) -> float:
        return statistics.median(
            1e6 * s["calls"][key][0] / s["calls"][key][1] for s in summaries
        )


class Construct(Workload):
    """One large object per step: the 64-vertex tower coloring and its companions."""

    name = "construct"
    layers = ("core", "tower", "paths", "compositions", "geometry", BENCH)
    LEMMA_SAMPLES = 2000
    COMPLETIONS = 1000
    MIRROR_EDGES = 200
    sizes = {
        "tower": {"r": 3, "n": 6, "vertices": 64, "edges": comb(64, 3)},
        "blocks": [[3, 3], [4, 2], [5, 2]],
        "transversals": [[3, 3], [4, 2]],
        "completions": {"r": 3, "h": 3, "count": COMPLETIONS},
        "lemma_ground_set": {"r": 3, "n": 5, "samples_per_lemma": LEMMA_SAMPLES},
    }

    def __init__(self, *args):
        super().__init__(*args)
        rng = _rng(self.seed, 1)
        self.completion_seed = int(rng.integers(2 ** 31))
        self.mirror_edges = [
            tuple(int(v) for v in sorted(rng.choice(np.arange(1, 65), 3, replace=False)))
            for _ in range(self.MIRROR_EDGES)
        ]
        size = 32  # N_3 of the (3, 5) ground set
        k = self.LEMMA_SAMPLES
        self.deletion = [tuple(int(v) for v in rng.choice(size, 3, replace=False)) for _ in range(k)]
        self.replacement = [
            tuple(int(v) for v in rng.choice(size, 2, replace=False))
            + tuple(int(v) for v in rng.integers(0, size, 2))
            for _ in range(k)
        ]
        self.profile = [
            sorted(int(v) for v in rng.choice(size, int(rng.integers(3, 5)), replace=False))
            for _ in range(k)
        ]

    def warm_up(self) -> dict:
        p = self.pkg
        self.ground5 = p.TowerGroundSet(3, 5)
        self.els5 = self.ground5.elements()
        self.ground5.check_deletion_lemma(*(self.els5[i] for i in self.deletion[0]))
        c = p.tower_coloring(3, 6)
        rss = peak_rss_mb()
        start = perf_counter()
        p.is_monotone(c)
        cold = perf_counter() - start
        table_mb = peak_rss_mb() - rss
        start = perf_counter()
        p.is_monotone(c)
        warm = perf_counter() - start
        p.longest_mono_paths(c)
        p.block_coloring(3, 3)
        self.svg_ref = p.render_svg(p.wiring_diagram(c))
        return {"table_build_s": cold - warm, "table_mb": table_mb}

    def run_pass(self) -> None:
        st = {}
        self.step("tower", self._tower, st)
        self.step("predicates", self._predicates, st)
        self.step("paths", self._paths, st)
        self.step("io", self._io, st)
        self.step("reverse", self._reverse, st)
        self.step("wiring", self._wiring, st)
        self.step("blocks", self._blocks, st)
        self.step("completions", self._completions, st)
        self.step("lemmas", self._lemmas)

    def _tower(self, st):
        c = st["c"] = self.call("tower", "build", self.pkg.tower_coloring, 3, 6)
        self.rec("tower.size", equals((c.n, c.edge_count), (64, comb(64, 3))))

    def _predicates(self, st):
        p, c = self.pkg, st["c"]
        mono = self.call("core", "predicates", p.is_monotone, c)
        trans = self.call("core", "predicates", p.is_transitive, c)
        witness = self.call("core", "predicates", p.monotone_violation, c)
        self.rec("core.predicates", equals((mono, trans, witness), (True, True, None)))

    def _paths(self, st):
        c = st["c"]
        rep = self.call("paths", "dp", self.pkg.longest_mono_paths, c)
        self.rec("paths.tower", path_report_ok(c, rep, TOWER_LONGEST, 2 * 6 + 3 - 2))

    def _io(self, st):
        p, c = self.pkg, st["c"]
        text = self.call("core", "io", p.dumps, c)
        back = self.call("core", "io", p.loads, text)
        self.rec("core.io", back == c and back.color_string() == c.color_string())

    def _reverse(self, st):
        c = st["c"]
        rev = self.call("core", "reverse", c.reversed_order)
        self.rec("core.reverse", mirror_ok(c, rev, self.mirror_edges))

    def _wiring(self, st):
        p, c = self.pkg, st["c"]
        w = self.call("geometry", "sweep", p.wiring_diagram, c)
        self.rec("geometry.sweep", sweep_ok(w, 64))
        back = self.call("geometry", "signs", p.signs_from_wiring, w)
        self.rec("geometry.signs", back == c)
        svg = self.call("geometry", "svg", p.render_svg, w)
        self.rec("geometry.svg", equals(svg, self.svg_ref))

    def _blocks(self, st):
        p = self.pkg
        for (r, h), zeros in GOLDEN_BLOCK_ZEROS.items():
            t = self.call("compositions", "block", p.block_coloring, r, h)
            self.rec(f"compositions.block({r},{h})", equals(len(t.zero_positions), zeros))
            st[(r, h)] = t
        for r, h in ((3, 3), (4, 2)):
            tz = self.call("compositions", "transversal", st[(r, h)].transversal_zero_positions)
            self.rec(f"compositions.transversal({r},{h})", at_least(len(tz), p.zero_lower_bound(r, h)))

    def _completions(self, st):
        p = self.pkg
        t = st[(3, 3)]
        filled = self.call(
            "compositions", "completions",
            lambda: list(p.completions(t, mode="sample", count=self.COMPLETIONS, seed=self.completion_seed)),
        )
        self.rec("compositions.completions", equals(len(filled), self.COMPLETIONS))
        for x in filled:
            self.rec("core.completion", self.call("core", "completion_check", p.is_monotone, x))

    def _lemmas(self):
        g, els = self.ground5, self.els5
        d = self.call("tower", "lemmas", lambda: [
            g.check_deletion_lemma(els[a], els[b], els[c]) for a, b, c in self.deletion])
        r = self.call("tower", "lemmas", lambda: [
            g.check_replacement_lemma(els[a], els[b], els[a2], els[b2])
            for a, b, a2, b2 in self.replacement])
        pr = self.call("tower", "lemmas", lambda: [
            g.check_profile_lemma([els[v] for v in seq]) for seq in self.profile])
        for ok in d + r + pr:
            self.rec("tower.lemma", ok)

    def layer_metrics(self, summaries, setup, extras):
        t = lambda *keys: self.total(summaries, *keys)  # noqa: E731
        predicates = t("core.predicates")
        build = t("tower.build")
        return {
            "core.table_build_s": setup["table_build_s"],
            "core.table_mb": setup["table_mb"],
            "core.predicates_s": predicates,
            "core.subsets_per_s": 3 * comb(64, 4) / predicates,
            "core.io_s": t("core.io"),
            "core.reverse_s": t("core.reverse"),
            "tower.build_s": build,
            "tower.edges_per_s": comb(64, 3) / build,
            "tower.checks_per_s": 3 * self.LEMMA_SAMPLES / t("tower.lemmas"),
            "paths.dp_s": t("paths.dp"),
            "compositions.block_s": t("compositions.block"),
            "compositions.transversal_s": t("compositions.transversal"),
            "compositions.completions_per_s": self.COMPLETIONS / t(
                "compositions.completions", "core.completion_check"),
            "geometry.sweep_s": t("geometry.sweep"),
            "geometry.signs_s": t("geometry.signs"),
            "geometry.svg_s": t("geometry.svg"),
            "geometry.svg_bytes": float(len(self.svg_ref.encode())),
        }


class Census(Workload):
    """Many small objects: every monotone coloring at (3,6) and (4,6), plus seeded samples."""

    name = "census"
    layers = ("core", "paths", "enumeration", "geometry", BENCH)
    SAMPLES = 200
    sizes = {
        "enumerate": [[3, 6], [4, 6]],
        "samples": {"(3,8)": SAMPLES, "(4,7)": SAMPLES},
    }

    def __init__(self, *args):
        super().__init__(*args)
        rng = _rng(self.seed, 2)
        self.sample_seeds = {
            (3, 8): [int(v) for v in rng.integers(0, 2 ** 31, self.SAMPLES)],
            (4, 7): [int(v) for v in rng.integers(0, 2 ** 31, self.SAMPLES)],
        }
        self.oracles = {rn: SmallOracle(*rn) for rn in ((3, 6), (4, 6), (3, 8), (4, 7))}
        self.projection_ranks = {rn: self._projection_ranks(*rn) for rn in self.oracles}

    @staticmethod
    def _projection_ranks(r: int, n: int) -> list[np.ndarray]:
        """For i = r..n, ranks of e + (i,) over the (r-1)-subsets e of [i-1] in colex order."""
        out = []
        for i in range(r, n + 1):
            subsets = sorted(combinations(range(1, i), r - 1), key=rank)
            out.append(np.array([rank(e + (i,)) for e in subsets], dtype=np.int64))
        return out

    def warm_up(self) -> dict:
        p = self.pkg
        self.rec = lambda name, ok: ok  # warm-up calls are not counted as operations
        for r, n in ((3, 6), (4, 6)):
            self._analyse(next(p.enumerate_monotone(r, n)))
        for (r, n), seeds in self.sample_seeds.items():
            self._analyse(p.random_monotone_coloring(r, n, seeds[0]))
        self.rec = self.ledger.record
        return {}

    def run_pass(self) -> None:
        for r, n in ((3, 6), (4, 6)):
            self.step(f"enumerate({r},{n})", self._enumerate, r, n)
        for r, n in self.sample_seeds:
            self.step(f"samples({r},{n})", self._samples, r, n)

    def _enumerate(self, r, n):
        p = self.pkg
        found = self.call("enumeration", "enumerate", lambda: list(p.enumerate_monotone(r, n)))
        self.rec(f"enumeration.count({r},{n})", equals(len(found), GOLDEN_COUNTS[(r, n)]))
        keys = [self._analyse(c) for c in found]
        self.rec(f"enumeration.projection_injective({r},{n})", distinct(keys, len(found)))

    def _samples(self, r, n):
        p = self.pkg
        for s in self.sample_seeds[(r, n)]:
            c = self.call("enumeration", "sample", p.random_monotone_coloring, r, n, s)
            self._analyse(c)

    def _analyse(self, c) -> bytes:
        """Predicates, path DP, projections, rebuild and (r = 3) wiring round trip of one coloring."""
        p = self.pkg
        oracle = self.oracles[(c.r, c.n)]
        mono = self.call("core", "small_check", p.is_monotone, c)
        trans = self.call("core", "small_check", p.is_transitive, c)
        self.rec("core.small_check", mono and trans and oracle.monotone(c.colors))
        rebuilt = self.call("core", "signfunction", p.SignFunction, c.r, c.n, c.colors)
        self.rec("core.signfunction", rebuilt == c)
        rep = self.call("paths", "small_dp", p.longest_mono_paths, c)
        self.rec("paths.small_dp", path_report_ok(c, rep, oracle.longest(c.colors), c.n))
        sig = self.call("enumeration", "project", p.projection_signature, c)
        ranks = self.projection_ranks[(c.r, c.n)]
        self.rec("enumeration.project", len(sig) == len(ranks) and all(
            np.array_equal(q.colors, c.colors[idx]) for q, idx in zip(sig, ranks)))
        if c.r == 3:
            w = self.call("geometry", "small_roundtrip", p.wiring_diagram, c)
            back = self.call("geometry", "small_roundtrip", p.signs_from_wiring, w)
            self.rec("geometry.small_roundtrip", sweep_ok(w, c.n) and back == c)
        return b"".join(q.colors.tobytes() for q in sig)

    def layer_metrics(self, summaries, setup, extras):
        us = lambda key: self.per_call_us(summaries, key)  # noqa: E731
        return {
            "core.small_check_us": us("core.small_check"),
            "core.signfunction_us": us("core.signfunction"),
            "paths.small_dp_us": us("paths.small_dp"),
            "enumeration.enumerate_s": self.total(summaries, "enumeration.enumerate"),
            "enumeration.sample_us": us("enumeration.sample"),
            "enumeration.project_us": us("enumeration.project"),
            "geometry.small_roundtrip_us": 2 * us("geometry.small_roundtrip"),
        }


class Count(Workload):
    """Exhaustive pruned counting, serial.  Deterministic: the seed selects nothing."""

    name = "count"
    layers = ("enumeration", BENCH)
    deterministic = True
    TARGETS = ((3, 7), (4, 7))
    sizes = {"count": [[3, 7], [4, 7]], "workers": 1}

    def warm_up(self) -> dict:
        for r, n in self.TARGETS:
            next(self.pkg.enumerate_monotone(r, n))
        return {}

    def run_pass(self) -> None:
        self.nodes = {}
        for r, n in self.TARGETS:
            self.step(f"count({r},{n})", self._count, r, n)

    def _count(self, r, n):
        rep = self.call("enumeration", f"count({r},{n})", self.pkg.count_monotone, r, n)
        self.rec(f"enumeration.count({r},{n})",
                 equals(rep.count, GOLDEN_COUNTS[(r, n)]) and rep.bounds_ok)
        self.nodes[(r, n)] = rep.nodes

    def traced_extras(self) -> dict:
        """Known defect, reported as an observation: with workers, prefix nodes go uncounted."""
        start = perf_counter()
        rep = self.pkg.count_monotone(3, 7, workers=2)
        seconds = perf_counter() - start
        self.rec("enumeration.count(3,7,workers=2)", equals(rep.count, GOLDEN_COUNTS[(3, 7)]))
        return {"w2_s": seconds, "w2_nodes": rep.nodes, "serial_nodes": self.nodes[(3, 7)]}

    def layer_metrics(self, summaries, setup, extras):
        count_s = self.total(summaries, *(f"enumeration.count({r},{n})" for r, n in self.TARGETS))
        nodes = sum(self.nodes.values())
        leaves = sum(GOLDEN_COUNTS[rn] for rn in self.TARGETS)
        return {
            "enumeration.count_s": count_s,
            "enumeration.nodes": float(nodes),
            "enumeration.leaves": float(leaves),
            "enumeration.useful_ratio": leaves / nodes,
            "enumeration.nodes_per_s": nodes / count_s,
            "enumeration.leaves_per_s": leaves / count_s,
            "enumeration.w2_speedup": self.total(summaries, "enumeration.count(3,7)") / extras["w2_s"],
            "enumeration.w2_nodes": float(extras["w2_nodes"]),
        }


class Ramsey(Workload):
    """Monotone Ramsey search with CLI re-verification.  Deterministic: the seed selects nothing."""

    name = "ramsey"
    layers = ("enumeration", "cli", BENCH)
    deterministic = True
    sizes = {
        "ramsey_number": [{"r": 2, "m": 4, "n_max": 12}, {"r": 3, "m": 4, "n_max": 8}],
        "find_avoiding_coloring": {"r": 3, "n": 10, "m": 5, "max_edges": 120},
    }

    def warm_up(self) -> dict:
        p = self.pkg
        from signotopes.cli import dispatch

        self.dispatch = dispatch
        for r, lo, hi in ((2, 4, 10), (3, 4, 7), (3, 10, 10)):
            for n in range(lo, hi + 1):
                next(p.enumerate_monotone(r, n, max_edges=120))
        cli_reverify(dispatch, p.write_file, p.SignFunction.constant(3, 5), self.workdir)
        return {}

    def run_pass(self) -> None:
        self.step("ramsey(2,4)", self._ramsey, "refute", 2, 4, 12, 10)
        self.step("ramsey(3,4)", self._ramsey, "ramsey_small", 3, 4, 8, 7)
        self.step("avoid(3,10,5)", self._avoid)

    def _reverify(self, witness, m):
        res = self.call("cli", "reverify", cli_reverify,
                        self.dispatch, self.pkg.write_file, witness, self.workdir)
        self.rec("cli.reverify", reverify_ok(res, m))

    def _ramsey(self, label, r, m, n_max, expected):
        rep = self.call("enumeration", label, self.pkg.ramsey_number, r, m, n_max)
        self.rec(f"enumeration.ramsey({r},{m})",
                 equals((rep.number, rep.witness.n), (expected, expected - 1)))
        if label == "refute":
            self.refute_nodes = rep.nodes
        self._reverify(rep.witness, m)

    def _avoid(self):
        found, nodes = self.call("enumeration", "avoid", self.pkg.find_avoiding_coloring,
                                 3, 10, 5, max_edges=120)
        self.avoid_nodes = nodes
        self.rec("enumeration.avoid", found is not None and found.n == 10)
        self._reverify(found, 5)

    def layer_metrics(self, summaries, setup, extras):
        return {
            "enumeration.refute_s": self.total(summaries, "enumeration.refute"),
            "enumeration.refute_nodes": float(self.refute_nodes),
            "enumeration.avoid_s": self.total(summaries, "enumeration.avoid"),
            "enumeration.avoid_nodes": float(self.avoid_nodes),
            "cli.reverify_s": self.total(summaries, "cli.reverify"),
        }


WORKLOADS = {w.name: w for w in (Construct, Census, Count, Ramsey)}
