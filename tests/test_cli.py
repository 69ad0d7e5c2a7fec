import json
import shlex
import time
from math import comb
from pathlib import Path

import pytest

from signotopes import SignFunction, loads, read_file, tower_coloring, write_file
from signotopes.cli import dispatch
from signotopes.core import MAX_FILE_BYTES, colex_layout

EXAMPLE_134 = SignFunction.from_string(3, 4, "-+-+")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    manifest = json.loads(captured.out) if captured.out.strip() else None
    return code, manifest, captured.err


class TestVerify:
    def test_monotone_file(self, tmp_path, capsys):
        f = tmp_path / "ok.mono"
        write_file(SignFunction.constant(3, 4), f)
        code, manifest, _ = run(capsys, "verify", "--in", str(f))
        assert code == 0
        assert manifest["result"]["monotone"] is True
        assert manifest["subcommand"] == "verify"
        assert manifest["tool_version"]

    def test_non_monotone_exits_one_with_witness(self, tmp_path, capsys):
        f = tmp_path / "bad.mono"
        write_file(EXAMPLE_134, f)
        code, manifest, err = run(capsys, "verify", "--in", str(f))
        assert code == 1
        assert manifest["result"]["monotone"] is False
        assert manifest["result"]["witness"] == [1, 2, 3, 4]
        assert manifest["result"]["transitive"] is True

    def test_non_monotone_manifest_is_pinned(self, tmp_path, capsys):
        # The 64-vertex tower coloring with three edges flipped.  The witness
        # is read off the r-subset layout of its block; the manifest, wall time
        # aside, and the note on stderr are pinned as the rank's inverse gave them.
        colors = tower_coloring(3, 6).colors.copy()
        colors[[5, 40_000, 41_000]] *= -1
        f = tmp_path / "bad64.mono"
        write_file(SignFunction(3, 64, colors), f)
        code, manifest, err = run(capsys, "verify", "--in", str(f))
        assert manifest.pop("wall_time_s") >= 0
        assert (code, manifest, err) == (1, {
            "parameters": {"in": str(f)},
            "result": {"monotone": False, "transitive": False, "witness": [1, 2, 3, 5]},
            "seed": None, "subcommand": "verify", "tool_version": "0.1.0",
        }, "not monotone: violating subset (1, 2, 3, 5)\n")

    @pytest.mark.parametrize("flips,code", [([], 0), ([39_800, 40_000, 41_000], 1)])
    def test_verify_of_the_64_vertex_tower_stays_small(self, tmp_path, cli_child_rss, flips, code):
        # Blocks 32..64 are checked one at a time, and the witness, here in block 64,
        # is read off the r-subset layout: no C(64, 4)-row table of 20 MB is formed.
        # The interpreter with numpy takes about 30 MB, the whole check about 34 MB.
        colors = tower_coloring(3, 6).colors.copy()
        colors[flips] *= -1
        write_file(SignFunction(3, 64, colors), tmp_path / "t.mono")
        exit_code, rss_mb = cli_child_rss("verify", "--in", "t.mono")
        assert exit_code == code
        assert rss_mb < 42

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        f = tmp_path / "broken.mono"
        f.write_text("MONO 1\nr=3 n=4\n-+x-\n")
        code, manifest, err = run(capsys, "verify", "--in", str(f))
        assert code == 2
        assert "usage error" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "verify", "--in", "/nonexistent.mono")
        assert code == 2

    def test_file_longer_than_any_coloring_exits_three(self, tmp_path, capsys):
        f = tmp_path / "long.mono"
        head = b"MONO 1\nr=2 n=3\n"
        f.write_bytes(head + b"-" * (MAX_FILE_BYTES + 1 - len(head)))
        code, manifest, err = run(capsys, "verify", "--in", str(f))
        assert code == 3 and manifest is None
        assert "resource cap" in err


MANIFEST_KEYS = {"subcommand", "parameters", "seed", "tool_version", "wall_time_s", "result"}


class TestManifestContract:
    @pytest.mark.parametrize("argv,want", [
        (("verify", "--in", "ok.mono"), 0),
        (("verify", "--in", "bad.mono"), 1),
        (("path", "--in", "ok.mono"), 0),
        (("tower", "--r", "3", "--n", "3"), 0),
        (("comp", "--r", "3", "--h", "2", "--verify", "sample:5:1"), 0),
        (("count", "--r", "3", "--n", "4"), 0),
        (("ramsey", "--r", "2", "--path", "3", "--max", "5"), 0),
        (("project", "--in", "bad.mono", "--i", "4", "--out", "out.mono"), 0),
        (("wiring", "--in", "ok.mono"), 0),
        (("selftest", "--only", "1"), 0),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
    def test_stdout_is_one_manifest(self, tmp_path, monkeypatch, capsys, argv, want):
        monkeypatch.chdir(tmp_path)
        write_file(SignFunction.constant(3, 4), tmp_path / "ok.mono")
        write_file(EXAMPLE_134, tmp_path / "bad.mono")
        code = dispatch(list(argv))
        out = capsys.readouterr().out
        assert code == want
        assert out.endswith("\n") and out.count("\n") == 1
        manifest = json.loads(out)
        assert isinstance(manifest, dict)
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == argv[0]


class TestPath:
    def test_manifest(self, tmp_path, capsys):
        f = tmp_path / "c.mono"
        write_file(SignFunction.constant(3, 5), f)
        code, manifest, _ = run(capsys, "path", "--in", str(f))
        assert code == 0
        paths = manifest["result"]["paths"]
        assert paths[0] == {"color": "-", "length": 5, "witness": [1, 2, 3, 4, 5]}


class TestTower:
    def test_build_verify_emit(self, tmp_path, capsys):
        f = tmp_path / "tower.mono"
        code, manifest, _ = run(
            capsys, "tower", "--r", "3", "--n", "3", "--verify", "--emit", str(f)
        )
        assert code == 0
        result = manifest["result"]
        assert result["vertices"] == 8
        assert result["monotone"] is True
        assert max(result["longest_paths"]) <= result["path_bound"] == 7
        emitted = read_file(f)
        assert emitted.n == 8 and emitted.r == 3

    def test_cap_exits_three(self, capsys):
        # 2^21 elements: the ground set fits the table cap, its coloring does not
        code, _, err = run(capsys, "tower", "--r", "3", "--n", "21")
        assert code == 3
        assert "resource cap" in err


def layout_calls():
    info = colex_layout.cache_info()
    return info.hits + info.misses


class TestVertexCapBeforeBuild:
    @pytest.mark.parametrize("argv", [
        ("tower", "--r", "3", "--n", "7"),  # 128 vertices
        ("comp", "--r", "3", "--h", "4"),  # 81 vertices
        ("comp", "--r", "4", "--h", "3"),  # 64 vertices, the r = 4 limit is 37
        ("verify", "--in", "pairs176.mono"),  # the r = 2 limit is 175
        ("verify", "--in", "r1200.mono"),  # one edge, but a 1199-column table
        ("path", "--in", "r1200.mono"),
    ])
    def test_exits_three_without_touching_the_layout(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pairs176.mono").write_text(f"MONO 1\nr=2 n=176\n{'-' * comb(176, 2)}\n")
        (tmp_path / "r1200.mono").write_text("MONO 1\nr=1200 n=1200\n-\n")
        before = layout_calls()
        code, manifest, err = run(capsys, *argv)
        assert code == 3 and manifest is None
        assert "table cap" in err
        assert layout_calls() == before

    @pytest.mark.parametrize("argv,want", [
        (("comp", "--r", "3", "--h", "100000"), 3),  # 3^100000 vertices, never formed
        (("count", "--r", "3", "--n", "1" + "0" * 2000), 3),  # C(n, 3) has 6,000 digits
        (("count", "--r", "200000", "--n", "400000"), 3),  # C(n, r) has 120,000 digits
        (("ramsey", "--r", "2", "--path", "9" * 3000, "--max", "9" * 3001), 3),
        (("tower", "--r", "2", "--n", "9" * 4000), 3),  # 2n has more digits than n
        (("verify", "--in", "n2000.mono"), 3),  # a 2,000-digit header n
        (("verify", "--in", "n5000.mono"), 2),  # more digits than int() converts
        (("tower", "--r", "200000", "--n", "2"), 2),  # the levels stop growing at 4
        (("tower", "--r", str(10 ** 9), "--n", "1"), 2),  # and at 2
    ])
    def test_huge_arguments_are_refused_at_once(self, tmp_path, monkeypatch, capsys, argv, want):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "n2000.mono").write_text(f"MONO 1\nr=3 n=1{'0' * 1999}\n-\n")
        (tmp_path / "n5000.mono").write_text(f"MONO 1\nr=3 n=1{'0' * 4999}\n-\n")
        before = layout_calls()
        start = time.perf_counter()
        code, manifest, err = run(capsys, *argv)
        assert (code, manifest) == (want, None)
        assert ("resource cap" if want == 3 else "usage error") in err
        assert time.perf_counter() - start < 1
        assert layout_calls() == before


class TestComp:
    def test_verify_all(self, tmp_path, capsys):
        f = tmp_path / "blocks.mono"
        code, manifest, _ = run(
            capsys, "comp", "--r", "3", "--h", "2", "--verify", "all",
            "--emit", str(f),
        )
        assert code == 0
        result = manifest["result"]
        assert result["zeros"] == 6
        assert result["transversal_zeros"] == 3
        assert result["completions_checked"] == 64
        assert result["completions_non_monotone"] == 0
        assert loads(f.read_text()).color((1, 5, 7)) == 0

    def test_verify_sample_records_seed(self, capsys):
        code, manifest, _ = run(
            capsys, "comp", "--r", "4", "--h", "2", "--verify", "sample:50:9",
        )
        assert code == 0
        assert manifest["seed"] == 9
        assert manifest["result"]["completions_checked"] == 50

    def test_bad_mode_exits_two(self, capsys):
        code, _, _ = run(capsys, "comp", "--r", "3", "--h", "2", "--verify", "meh")
        assert code == 2

    def test_sample_count_over_the_table_cap_exits_three(self, capsys):
        start = time.perf_counter()
        code, manifest, err = run(
            capsys, "comp", "--r", "3", "--h", "2", "--verify", "sample:1000000000000:1",
        )
        assert code == 3 and manifest is None
        assert "table cap" in err
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("spec", [f"sample:{'9' * 5000}:1", f"sample:5:{'9' * 5000}"],
                             ids=["count", "seed"])
    def test_sample_number_past_int_digits_exits_two(self, capsys, spec):
        code, manifest, err = run(capsys, "comp", "--r", "3", "--h", "2", "--verify", spec)
        assert code == 2 and manifest is None
        assert "number too long" in err

    # int() reads any Unicode decimal digit; the mode admits ASCII ones only.
    @pytest.mark.parametrize("spec", ["sample:\u0661\u0660:\u0663", "sample:\uff11\uff10:\uff13"],
                             ids=["arabic-indic", "fullwidth"])
    def test_sample_with_non_ascii_digits_exits_two(self, capsys, spec):
        code, manifest, _ = run(capsys, "comp", "--r", "3", "--h", "2", "--verify", spec)
        assert code == 2 and manifest is None


class TestCount:
    def test_count_manifest(self, capsys):
        code, manifest, _ = run(capsys, "count", "--r", "3", "--n", "4")
        assert code == 0
        assert manifest["result"]["count"] == 8
        assert manifest["result"]["bounds_ok"] is True

    def test_cap_exits_three(self, capsys):
        code, _, _ = run(capsys, "count", "--r", "2", "--n", "30")
        assert code == 3

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_node_budget_exits_three(self, capsys, workers):
        code, manifest, err = run(
            capsys, "--max-nodes", "10", "--workers", workers, "count", "--r", "3", "--n", "6"
        )
        assert code == 3 and manifest is None
        assert "node budget 10" in err


class TestRamsey:
    def test_resolved_with_witness_file(self, tmp_path, capsys):
        f = tmp_path / "witness.mono"
        code, manifest, _ = run(
            capsys, "ramsey", "--r", "2", "--path", "3", "--max", "6",
            "--witness", str(f),
        )
        assert code == 0
        assert manifest["result"]["number"] == 5
        witness = read_file(f)
        assert witness.n == 4

    def test_unresolved_reports_bound(self, capsys):
        code, manifest, _ = run(capsys, "ramsey", "--r", "2", "--path", "4", "--max", "5")
        assert code == 0
        assert manifest["result"]["number"] is None
        assert manifest["result"]["lower_bound"] == 6

    def test_node_budget_covers_the_whole_run(self, capsys):
        code, manifest, err = run(
            capsys, "--max-nodes", "800", "ramsey", "--r", "2", "--path", "4", "--max", "8"
        )
        assert code == 3 and manifest is None
        assert "node budget 800" in err

    @pytest.mark.parametrize("n_max", ["-2", "3"])
    def test_max_below_path_exits_two(self, capsys, n_max):
        code, manifest, err = run(capsys, "ramsey", "--r", "3", "--path", "4", "--max", n_max)
        assert code == 2 and manifest is None
        assert "usage error" in err and "at least" not in err

    def test_deep_search(self, capsys):
        code, manifest, _ = run(
            capsys, "--max-edges", "2000", "ramsey", "--r", "2", "--path", "47", "--max", "47"
        )
        assert code == 0
        assert manifest["result"]["lower_bound"] == 48


class TestProjectAndWiring:
    def test_project(self, tmp_path, capsys):
        src = tmp_path / "in.mono"
        dst = tmp_path / "out.mono"
        write_file(EXAMPLE_134, src)
        code, manifest, _ = run(
            capsys, "project", "--in", str(src), "--i", "4", "--out", str(dst)
        )
        assert code == 0
        assert read_file(dst).color_string() == "+-+"

    def test_wiring_outputs(self, tmp_path, capsys):
        src = tmp_path / "in.mono"
        svg = tmp_path / "out.svg"
        sweep = tmp_path / "out.txt"
        write_file(SignFunction.constant(3, 4), src)
        code, manifest, _ = run(
            capsys, "wiring", "--in", str(src), "--svg", str(svg),
            "--sweep", str(sweep),
        )
        assert code == 0
        assert manifest["result"]["crossings"] == 6
        assert svg.read_text().startswith("<?xml")
        assert len(sweep.read_text().splitlines()) == 6

    def test_wiring_rejects_non_monotone(self, tmp_path, capsys):
        src = tmp_path / "in.mono"
        write_file(EXAMPLE_134, src)
        code, _, err = run(capsys, "wiring", "--in", str(src))
        assert code == 1
        assert "verification failure" in err

    @pytest.mark.parametrize("command", ["verify", "path", "wiring", "project"])
    def test_zero_entries_are_a_usage_error(self, tmp_path, capsys, command):
        src = tmp_path / "block.mono"
        assert run(capsys, "comp", "--r", "3", "--h", "2", "--emit", str(src))[0] == 0
        extra = ["--i", "5", "--out", str(tmp_path / "out.mono")] if command == "project" else []
        code, manifest, err = run(capsys, command, "--in", str(src), *extra)
        assert code == 2 and manifest is None
        assert "usage error" in err


class TestSelftest:
    def test_single_fast_criterion(self, capsys):
        code, manifest, err = run(capsys, "selftest", "--only", "1")
        assert code == 0
        assert manifest["result"]["all_passed"] is True
        assert "PASS criterion 1" in err

    def test_unknown_criterion_exits_two(self, capsys):
        code, manifest, err = run(capsys, "selftest", "--only", "42")
        assert code == 2 and manifest is None
        assert "usage error" in err


def non_utf8_file(tmp_path):
    f = tmp_path / "latin1.mono"
    f.write_bytes(b"MONO 1\nr=3 n=4\n-\xff-+\n")
    return ["verify", "--in", str(f)]


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert dispatch([]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", [
        ("count", "--r", "3", "--n", "4"),
        ("ramsey", "--r", "2", "--path", "3", "--max", "5"),
    ], ids=["count", "ramsey"])
    @pytest.mark.parametrize("flag", ["--max-nodes", "--max-edges"])
    def test_negative_budget_exits_two(self, capsys, flag, command):
        code, manifest, err = run(capsys, flag, "-1", *command)
        assert code == 2 and manifest is None
        assert "usage error" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_exits_two(self, capsys, workers):
        code, manifest, err = run(capsys, "--workers", workers, "count", "--r", "3", "--n", "4")
        assert code == 2 and manifest is None
        assert "usage error" in err

    # int() reads any Unicode decimal digit and strips whitespace; every
    # integer option admits ASCII digits only, as the header parser does.
    @pytest.mark.parametrize("argv", [
        ["count", "--r", "\u0663", "--n", "5"],
        ["count", "--r", "3", "--n", " 5"],
        ["--max-nodes", "\uff11\uff10", "ramsey", "--r", "2", "--path", "3", "--max", "5"],
        ["--workers", "1 ", "count", "--r", "3", "--n", "4"],
    ], ids=["arabic-indic", "leading_space", "fullwidth", "trailing_space"])
    def test_integer_option_spellings_exit_two(self, capsys, argv):
        code, manifest, err = run(capsys, *argv)
        assert code == 2 and manifest is None
        assert "not an integer in ASCII digits" in err

    @pytest.mark.parametrize("argv", [
        lambda tmp: ["comp", "--r", "3", "--h", "2", "--verify", "sample:x:1"],
        lambda tmp: ["comp", "--r", "3", "--h", "2", "--verify", "sample:5:-1"],
        lambda tmp: ["verify", "--in", str(tmp)],
        non_utf8_file,
    ], ids=["non_integer_sample", "negative_seed", "directory", "not_utf8"])
    def test_bad_input_exits_two(self, tmp_path, capsys, argv):
        code, manifest, err = run(capsys, *argv(tmp_path))
        assert code == 2 and manifest is None
        assert "usage error" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The ``signotopes`` lines of README's "Command line" block, in order."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("signotopes ")]


class TestReadme:
    def test_command_line_examples_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        commands = [argv for argv in readme_commands() if argv[0] != "selftest"]
        assert len(commands) >= 5
        for argv in commands:
            assert dispatch(argv) == 0, argv
            capsys.readouterr()
