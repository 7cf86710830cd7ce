"""Command-line surface: artifacts, exit codes, reproducibility."""
import json
from pathlib import Path

import pytest

from tensorcert import cli
from tensorcert.cli import EXIT_ERROR, EXIT_OK, EXIT_UNDECIDED, _write_artifact, build_parser, main
from tensorcert.core import SamplingPattern, Shape, write_pattern
from tensorcert.montecarlo import sample_pattern
from tensorcert.oracle import section_iib_pattern, section_iib_values


@pytest.fixture
def full_cube(tmp_path):
    path = tmp_path / "full.json"
    write_pattern(SamplingPattern.full((3, 3, 3)), path)
    return str(path)


@pytest.fixture
def anchor_cube(tmp_path):
    """The four-entry (2,2,2) pattern with its observed values file."""
    pattern = section_iib_pattern()
    ppath = tmp_path / "anchors.json"
    write_pattern(pattern, ppath)
    vpath = tmp_path / "values.json"
    vpath.write_text(
        json.dumps(
            {
                "entries": [
                    {"coord": list(c), "value": v}
                    for c, v in sorted(section_iib_values().items())
                ]
            }
        )
    )
    return str(ppath), str(vpath)


def _first_entry(**change):
    """A values-file edit that changes fields of its first entry."""

    def edit(payload):
        payload["entries"][0].update(change)
        return payload

    return edit


class TestCheckFinite:
    def test_finite_artifact(self, full_cube, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["check-finite", full_cube, "--rank", "1,2", "--j", "1", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["certificate"]["verdict"] == "finite"
        assert payload["manifest"]["command"] == "check-finite"
        assert payload["manifest"]["seed"] == 0

    def test_empty_pattern_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        write_pattern(SamplingPattern.from_coords((3, 3, 3), []), path)
        code = main(["check-finite", str(path), "--rank", "1,2", "--j", "1"])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_bad_rank_list(self, full_cube):
        with pytest.raises(SystemExit) as exc:
            main(["check-finite", full_cube, "--rank", "1,x", "--j", "1"])
        assert exc.value.code.startswith("error: bad --rank list '1,x'")

    def test_byte_identical_reruns(self, full_cube, tmp_path):
        out = tmp_path / "cert.json"
        argv = ["check-finite", full_cube, "--rank", "1,2", "--j", "1", "--seed", "4", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "payload",
        [
            {"dims": [3, 3, 3], "observed": [[1, 1, 1], [1, 1.5, 2]]},
            {"dims": [3, 3, 3], "observed": [[1, 1, 1], [True, 1, 2]]},
            {"dims": [3.7, 3, 3], "observed": [[1, 1, 1]]},
        ],
        ids=["float-coordinate", "bool-coordinate", "float-dims"],
    )
    def test_non_integer_pattern_values_refused(self, payload, tmp_path, capsys):
        """A value JSON does not give as an integer is refused, naming the
        file, instead of being truncated to one."""
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "cert.json"
        code = main(["check-finite", str(path), "--rank", "1,2", "--j", "1", "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and "integers" in err
        assert not out.exists()


PATTERN_COMMANDS = [["check-finite"], ["check-unique"], ["oracle", "--generate"]]


class TestIntegerLimits:
    """Dimensions must fit int64, the index type of every numpy map; a file
    with a larger one is refused where it is read, by every command."""

    @pytest.mark.parametrize("command", PATTERN_COMMANDS, ids=lambda c: c[0])
    def test_dimension_beyond_int64_refused(self, command, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"dims": [3, 3, 100000000000000000000], '
            '"observed": [[1, 1, 1], [2, 2, 99999999999999999999], [3, 3, 5]]}'
        )
        out = tmp_path / "artifact.json"
        code = main([command[0], str(path), "--rank", "1,2", "--j", "1", *command[1:], "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {path}: every dimension must lie between 1 and 2**63 - 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", PATTERN_COMMANDS, ids=lambda c: c[0])
    def test_coordinate_beyond_int64_out_of_bounds(self, command, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text('{"dims": [3, 3, 5], "observed": [[1, 1, 1], [2, 2, 99999999999999999999]]}')
        code = main([command[0], str(path), "--rank", "1,2", "--j", "1", *command[1:]])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: coordinate (2, 2, 99999999999999999999) out of bounds for (3, 3, 5)\n"


class TestLayoutBeyondMemory:
    """Dimensions that fit int64 but whose factor layout does not fit in
    memory end in an ``error:`` line and exit 1, never a traceback."""

    @pytest.mark.parametrize("command,needed", [("check-finite", 2000000000003), ("check-unique", 3000000000006)])
    def test_certificate_commands_refuse_before_the_jacobian(self, command, needed, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [3, 3, 1000000000000], "observed": [[1,1,1],[2,2,5],[3,1,7]]}')
        out = tmp_path / "artifact.json"
        code = main([command, str(path), "--rank", "1,2", "--j", "1", "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: selection needs {needed} entries but only 3 are observed\n"
        assert not out.exists()

    def test_memory_error_reported(self, full_cube, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(cli, "generate_instance", no_memory)
        out = tmp_path / "report.json"
        code = main(["oracle", full_cube, "--rank", "1,2", "--j", "1", "--generate", "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: Unable to allocate 14.6 TiB\n"
        assert not out.exists()


class TestRankBeyondDimension:
    """Trailing ranks that do not fit the shape, a rank larger than its
    dimension or too few unfolding rows for the gauge blocks, are a failed
    precondition, refused alike by every command that takes a rank spec."""

    @pytest.mark.parametrize("command", [["check-finite"], ["check-unique"], ["oracle", "--generate"]], ids=" ".join)
    @pytest.mark.parametrize(
        "dims, rank, j, message",
        [
            ((3, 3, 3), "4", "2", "rank component 4 exceeds dimension 3"),
            ((2, 3, 3), "2,2", "1", "unfolding has fewer rows than the sum of trailing ranks"),
        ],
        ids=["rank-above-dimension", "too-few-rows"],
    )
    def test_commands_refuse(self, command, dims, rank, j, message, tmp_path, capsys):
        pattern = tmp_path / "full.json"
        write_pattern(SamplingPattern.full(dims), pattern)
        out = tmp_path / "artifact.json"
        code = main([command[0], str(pattern), *command[1:], "--rank", rank, "--j", j, "--out", str(out)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestParser:
    def test_calls_share_no_state(self, full_cube, tmp_path, capsys):
        """The reused parser gives each call fresh defaults: a second call
        without --seed and --out runs at seed 0 and writes to stdout."""
        out = tmp_path / "cert.json"
        argv = ["check-finite", full_cube, "--rank", "1,2", "--j", "1"]
        assert main(argv + ["--seed", "7", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["manifest"]["seed"] == 7
        assert capsys.readouterr().out == ""
        before = out.read_bytes()
        assert main(argv) == EXIT_OK
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert manifest["seed"] == 0 and "out" not in manifest["config"]
        assert out.read_bytes() == before

    def test_parser_built_once(self, full_cube, tmp_path):
        build_parser.cache_clear()
        out = str(tmp_path / "cert.json")
        for seed in ("1", "2", "3"):
            assert main(["check-finite", full_cube, "--rank", "1,2", "--j", "1", "--seed", seed, "--out", out]) == EXIT_OK
        assert build_parser.cache_info().misses == 1
        assert build_parser.cache_info().hits == 2

    def test_certify_function_looked_up_when_run(self, full_cube, tmp_path, monkeypatch):
        """A wrapper put on ``cli.certify_finite`` or ``cli.certify_unique``
        after the parser is built still sees every call."""
        out = str(tmp_path / "cert.json")
        assert main(["check-finite", full_cube, "--rank", "1,2", "--j", "1", "--out", out]) == EXIT_OK
        called = []
        for name in ("certify_finite", "certify_unique"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, name=name, **k: called.append(name) or real(*a, **k))
        for command in ("check-finite", "check-unique"):
            assert main([command, full_cube, "--rank", "1,2", "--j", "1", "--out", out]) == EXIT_OK
        assert called == ["certify_finite", "certify_unique"]


class TestCheckUnique:
    def test_fully_observed_unique(self, full_cube, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["check-unique", full_cube, "--rank", "1,2", "--j", "1", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["certificate"]["verdict"] == "unique"

    def test_two_completion_pattern_not_unique(self, tmp_path):
        from tensorcert.oracle import appendix_c_pattern

        pattern, _ = appendix_c_pattern()
        path = tmp_path / "matrix.json"
        write_pattern(pattern, path)
        out = tmp_path / "cert.json"
        code = main(["check-unique", str(path), "--rank", "2", "--j", "1", "--out", str(out)])
        assert code == EXIT_UNDECIDED
        payload = json.loads(out.read_text())
        assert payload["certificate"]["verdict"] != "unique"

    def test_not_finite_pattern_not_certified(self, tmp_path):
        """A pattern whose finite part is "not-finite" is answered, not left
        undecided, even though its row sets exceed the capacity-table guard."""
        path = tmp_path / "sparse666.json"
        write_pattern(sample_pattern(Shape((6, 6, 6)), 0.5, seed=5), path)
        out = tmp_path / "cert.json"
        code = main(["check-unique", str(path), "--rank", "2", "--j", "2", "--out", str(out)])
        assert code == EXIT_UNDECIDED
        payload = json.loads(out.read_text())
        assert payload["certificate"]["verdict"] == "not-certified"
        assert payload["certificate"]["finite"]["verdict"] == "not-finite"
        assert sorted(payload["manifest"]["config"]) == ["command", "j", "out", "pattern", "rank", "seed"]


class TestBounds:
    def test_csv_emitted(self, tmp_path, capsys):
        code = main(["bounds", "--d", "3", "--n", "12", "--j", "1", "--rank-range", "1:4", "--eps", "0.1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("r,")
        assert len(lines) == 5

    def test_bad_rank_range(self, capsys):
        code = main(["bounds", "--d", "3", "--n", "12", "--j", "1", "--rank-range", "14", "--eps", "0.1"])
        assert code == EXIT_ERROR
        assert "rank-range" in capsys.readouterr().err

    def test_empty_rank_range_refused(self, capsys, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["bounds", "--d", "3", "--n", "12", "--j", "1", "--rank-range", "3:1", "--eps", "0.1",
                     "--out", str(out)])
        assert code == EXIT_ERROR
        assert "invalid rank range 3:1" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "curves.csv"
        argv = ["bounds", "--d", "4", "--n", "30", "--j", "1", "--rank-range", "1:8", "--eps", "0.05", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first


class TestSimulate:
    def test_result_artifact(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--dims", "8,4", "--property", "proper1",
            "--trials", "20", "--per-column-l", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        counts = payload["result"]["counts"]
        assert counts["pass"] + counts["fail"] + counts["undecided"] == 20

    @pytest.mark.parametrize(
        "argv,flag",
        [(["--dims", "3,x"], "--dims"), (["--dims", "8,4", "--rank", "2,", "--j", "1"], "--rank")],
    )
    def test_bad_integer_list_names_its_flag(self, argv, flag, tmp_path):
        out = tmp_path / "sim.json"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *argv, "--property", "proper1", "--trials", "2", "--out", str(out)])
        assert exc.value.code.startswith(f"error: bad {flag} list")
        assert not out.exists()

    def test_negative_per_column_refused(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--dims", "8,4", "--property", "proper1",
            "--trials", "5", "--per-column-l", "-1", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        assert "per_column_l must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_key_word_refused(self, seed, capsys, tmp_path):
        """A seed is one unsigned 64-bit word of each trial's Philox key, so
        one outside [0, 2**64) is refused with an error line, not a cast
        warning or an overflow traceback."""
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--dims", "8,4", "--property", "proper1",
            "--trials", "2", "--per-column-l", "3", "--seed", seed, "--out", str(out),
        ])
        assert code == EXIT_ERROR
        assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_proper1_with_one_row_refused(self, capsys, tmp_path):
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--dims", "1,4", "--property", "proper1",
            "--trials", "2", "--per-column-l", "1", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "first dimension of at least 2" in err and "(1, 4)" in err
        assert not out.exists()

    def test_zero_per_column_fails_every_proper1_trial(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--dims", "8,4", "--property", "proper1",
            "--trials", "5", "--per-column-l", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        counts = json.loads(out.read_text())["result"]["counts"]
        assert counts == {"pass": 0, "fail": 5, "undecided": 0}

    def test_no_decided_trial_writes_strict_json(self, tmp_path):
        """Every trial undecided: the pass fraction is null, and the artifact
        parses with non-finite constants refused."""
        out = tmp_path / "sim.json"
        code = main([
            "simulate", "--dims", "3,3,3", "--property", "finiteByCertifier", "--trials", "3",
            "--p", "0.05", "--rank", "2", "--j", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-finite constant {name} in the artifact")

        result = json.loads(out.read_text(), parse_constant=refuse)["result"]
        assert result["counts"] == {"pass": 0, "fail": 0, "undecided": 3}
        assert result["fraction"] is None

    def test_non_finite_value_is_not_written(self, tmp_path):
        out = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            _write_artifact({"value": float("nan")}, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing/sim.json", "taken"])
    def test_unwritable_out_names_the_requested_path(self, target, capsys, tmp_path):
        """An --out in a missing directory, or one that is a directory, exits
        1 with an error line naming the path given, not the hidden temporary
        file beside it, and leaves no temporary file behind."""
        (tmp_path / "taken").mkdir()
        out = tmp_path / target
        code = main([
            "simulate", "--dims", "8,4", "--property", "proper1",
            "--trials", "2", "--per-column-l", "3", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(out)!r}\n"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_rank_requires_j(self, capsys):
        code = main([
            "simulate", "--dims", "3,3,3", "--property", "finiteByCertifier",
            "--trials", "2", "--p", "0.7", "--rank", "1,2",
        ])
        assert code == EXIT_ERROR
        assert "--j" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "sim.json"
        argv = [
            "simulate", "--dims", "8,4", "--property", "proper1",
            "--trials", "15", "--per-column-l", "3", "--seed", "9",
            "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first


class TestOracle:
    def test_generate_rank_report(self, full_cube, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "oracle", full_cube, "--rank", "1,2", "--j", "1", "--generate",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["report"]["verdict"] == "finite"

    def test_enumeration_from_values(self, anchor_cube, tmp_path):
        ppath, vpath = anchor_cube
        out = tmp_path / "sols.json"
        code = main([
            "oracle", ppath, "--rank", "1,1", "--j", "1",
            "--values", vpath, "--starts", "16", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["completions"]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            _first_entry(coord=[1.9, 1, 1]),
            _first_entry(coord=[True, 1, 1]),
            _first_entry(value=True),
            _first_entry(value="1e400"),
            lambda payload: {"values": payload["entries"]},
            lambda payload: payload["entries"],
        ],
        ids=["float-coordinate", "bool-coordinate", "bool-value", "string-value", "no-entries", "json-list"],
    )
    def test_malformed_values_refused(self, edit, anchor_cube, tmp_path, capsys):
        """A values file that does not give integer coordinates and finite
        numbers in an ``entries`` list is refused, naming the file, instead
        of being truncated, coerced or crashing."""
        ppath, vpath = anchor_cube
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(Path(vpath).read_text()))))
        out = tmp_path / "sols.json"
        code = main(["oracle", ppath, "--rank", "1,1", "--j", "1", "--values", str(bad), "--out", str(out)])
        assert code == EXIT_ERROR
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_no_starts_refused(self, starts, anchor_cube, tmp_path, capsys):
        """Fewer than one start is an error, not an artifact of zero starts."""
        ppath, vpath = anchor_cube
        out = tmp_path / "sols.json"
        code = main([
            "oracle", ppath, "--rank", "1,1", "--j", "1",
            "--values", vpath, "--starts", starts, "--out", str(out),
        ])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_values_or_generate_required(self, full_cube, capsys):
        code = main(["oracle", full_cube, "--rank", "1,2", "--j", "1"])
        assert code == EXIT_ERROR
        assert "--values" in capsys.readouterr().err


class TestPaperExamples:
    def test_both_reproductions_pass(self, capsys):
        code = main(["paper-examples", "--starts", "24"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    @pytest.mark.parametrize("starts", ["0", "-1"])
    def test_no_starts_refused(self, starts, capsys):
        """Fewer than one start is an error, not a FAIL about the paper."""
        code = main(["paper-examples", "--starts", starts])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "FAIL" not in captured.out
