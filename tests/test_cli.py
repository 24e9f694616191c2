"""Tests for the command-line interface (``python -m repro``)."""

import os

import pytest

from repro.cli import main

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples", "programs")

FMA_SOURCE = """
function FMA (x: num) (y: num) (z: num) : M[eps]num {
  a = mul (x, y);
  b = add (|a, z|);
  rnd b
}
"""


@pytest.fixture()
def fma_file(tmp_path):
    path = tmp_path / "fma.lnum"
    path.write_text(FMA_SOURCE)
    return str(path)


class TestCheckCommand:
    def test_check_prints_grades(self, fma_file, capsys):
        assert main(["check", fma_file]) == 0
        output = capsys.readouterr().out
        assert "FMA" in output and "eps" in output and "relative error" in output

    def test_check_single_function(self, fma_file, capsys):
        assert main(["check", fma_file, "-f", "FMA"]) == 0
        assert "FMA" in capsys.readouterr().out

    def test_check_unknown_function(self, fma_file):
        with pytest.raises(SystemExit):
            main(["check", fma_file, "-f", "nope"])

    def test_check_example_program(self, capsys):
        path = os.path.join(EXAMPLES, "horner2.lnum")
        assert main(["check", path]) == 0
        output = capsys.readouterr().out
        assert "Horner2" in output and "2*eps" in output

    def test_check_conditional_example(self, capsys):
        path = os.path.join(EXAMPLES, "pythagorean_sum.lnum")
        assert main(["check", path]) == 0
        output = capsys.readouterr().out
        assert "4*eps" in output

    def test_annotation_violation_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.lnum"
        path.write_text("function f (x: num) : M[0]num { rnd x }\n")
        assert main(["check", str(path)]) == 1

    def test_parse_error_is_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.lnum"
        path.write_text("function f (x num { rnd x }")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/does/not/exist.lnum"]) == 2

    def test_stdin_input(self, fma_file, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(FMA_SOURCE))
        assert main(["check", "-"]) == 0

    def test_binary32_instantiation_scales_the_bound(self, tmp_path, capsys):
        # The program carries no annotation, so only the instantiation changes.
        path = tmp_path / "plain.lnum"
        path.write_text("function f (x: num) (y: num) { a = mul (x, y); rnd a }\n")
        assert main(["check", str(path), "--format", "binary32"]) == 0
        output = capsys.readouterr().out
        assert "1.192e-07" in output or "1.19e-07" in output


class TestFpcoreCommand:
    def test_fpcore_example(self, capsys):
        path = os.path.join(EXAMPLES, "hypot.fpcore")
        assert main(["fpcore", path]) == 0
        output = capsys.readouterr().out
        assert "hypot" in output and "5/2*eps" in output


class TestTableCommand:
    def test_table1(self, capsys):
        assert main(["table", "table1"]) == 0
        assert "binary64" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table", "table5"]) == 0
        output = capsys.readouterr().out
        assert "squareRoot3" in output


class TestErrorPaths:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unreadable_source_is_exit_code_2(self, tmp_path, capsys):
        # A directory path opens with an OSError that is not FileNotFoundError.
        assert main(["check", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["check", "/does/not/exist.lnum"]) == 2
        assert main(["fpcore", "/does/not/exist.fpcore"]) == 2
        assert main(["validate", "/does/not/exist.lnum"]) == 2
        capsys.readouterr()

    def test_malformed_input_assignments(self, fma_file):
        # No separator at all.
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x0.1"])
        # Separator present but the value is not a rational.
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x=abc"])
        # Division by zero inside a rational literal.
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x=1/0"])

    def test_batch_failure_exit_code(self, tmp_path, capsys):
        broken = tmp_path / "broken.lnum"
        broken.write_text("function f (x num { rnd x }")
        assert main(["batch", str(broken), "--no-cache"]) == 2
        assert "failure" in capsys.readouterr().out

    def test_batch_annotation_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.lnum"
        bad.write_text("function f (x: num) : M[0]num { rnd x }\n")
        assert main(["batch", str(bad), "--no-cache"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "selection",
        [
            ["--sizes", "abc"],
            ["--families", "nope"],
            ["--sizes", "0"],
            ["--sizes", "-5"],
        ],
    )
    def test_malformed_perf_selection_is_exit_code_2(self, selection, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["perf", "--quick", "--out", str(out), *selection]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not out.exists()


class TestVersionAndWiring:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_perf_is_a_real_subparser(self):
        # The perf flags parse through the main parser (no REMAINDER hack).
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["perf", "--quick", "--sizes", "100", "--out", "/tmp/x.json"]
        )
        assert arguments.command == "perf"
        assert arguments.quick
        assert arguments.sizes == "100"

    def test_serve_and_query_parse(self):
        from repro.cli import build_parser

        serve = build_parser().parse_args(["serve", "--port", "0", "--workers", "2"])
        assert serve.command == "serve" and serve.workers == 2
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--jobs", "2"])
        assert excinfo.value.code == 2
        query = build_parser().parse_args(["query", "p.lnum", "--priority", "bulk"])
        assert query.command == "query" and query.priority == "bulk"

    def test_query_requires_paths_or_stats(self):
        with pytest.raises(SystemExit):
            main(["query"])


class TestValidateCommand:
    def test_validate_function(self, fma_file, capsys):
        code = main(
            ["validate", fma_file, "-f", "FMA", "-i", "x=0.1", "-i", "y=0.2", "-i", "z=0.3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "bound holds      : True" in output

    def test_validate_requires_all_inputs(self, fma_file):
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x=0.1"])

    def test_validate_bad_assignment(self, fma_file):
        with pytest.raises(SystemExit):
            main(["validate", fma_file, "-f", "FMA", "-i", "x:1"])

    def test_validate_bare_expression(self, tmp_path, capsys):
        path = tmp_path / "expr.lnum"
        path.write_text("s = mul (x, x); rnd s\n")
        assert main(["validate", str(path), "-i", "x=0.7"]) == 0


def _doc_sections():
    """``docs/cli.md`` split into its ``## `repro <cmd>``` sections, plus the
    text under "Shared flags"."""
    import re

    path = os.path.join(os.path.dirname(os.path.dirname(EXAMPLES)), "docs", "cli.md")
    text = open(path, encoding="utf-8").read()
    sections = {}
    shared = ""
    for chunk in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
        title, _newline, body = chunk.partition("\n")
        command = re.match(r"`repro (\w+)", title)
        if command:
            sections[command.group(1)] = body
        elif title.strip() == "Shared flags":
            shared = body
    return sections, shared


def _long_options(text):
    import re

    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


class TestDocsMatchTheParser:
    """Every subcommand section of docs/cli.md names exactly the flags its
    subparser accepts (shared flags may be documented once, up top)."""

    def _subparsers(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        raise AssertionError("no subcommands")

    def test_every_subcommand_has_a_section(self):
        sections, _shared = _doc_sections()
        assert set(sections) == set(self._subparsers())

    @pytest.mark.parametrize(
        "command",
        ["check", "fpcore", "batch", "table", "perf", "serve", "query", "validate", "tune"],
    )
    def test_section_flags_match_the_subparser(self, command):
        sections, shared = _doc_sections()
        subparser = self._subparsers()[command]
        accepted = {
            option
            for action in subparser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        named = _long_options(sections[command])
        undocumented = accepted - named - _long_options(shared)
        assert not undocumented, f"undocumented flags: {sorted(undocumented)}"
        unknown = named - accepted
        assert not unknown, f"documented flags the parser rejects: {sorted(unknown)}"
