"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import REMOVED_GLOBAL_FLAGS, main, parse_blocks, split_blocks
from repro.cobalt.dsl import ForwardPattern, PureAnalysis
from repro.il import ParseError

GOOD_COBALT = """
forward optimization cliConstProp {
  stmt(Y := C)
  followed by
  !mayDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}

analysis cliTaint {
  stmt(decl X)
  followed by
  !stmt(... := &X)
  defines
  notTainted(X)
  with witness
  notPointedTo(X)
}
"""

BAD_COBALT = """
forward optimization cliBroken {
  stmt(Y := C)
  followed by
  !syntacticDef(Y)
  until
  X := Y  =>  X := C
  with witness
  eta(Y) == C
}
"""

PROGRAM = """
main(n) {
  decl a;
  decl b;
  a := 2;
  b := a;
  return b;
}
"""


@pytest.fixture()
def cobalt_file(tmp_path):
    path = tmp_path / "opts.cobalt"
    path.write_text(GOOD_COBALT)
    return str(path)


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.il"
    path.write_text(PROGRAM)
    return str(path)


class TestBlockSplitting:
    def test_splits_two_blocks(self):
        blocks = split_blocks(GOOD_COBALT)
        assert len(blocks) == 2
        assert blocks[0].lstrip().startswith("forward optimization")
        assert blocks[1].lstrip().startswith("analysis")

    def test_parse_blocks_types(self):
        items = parse_blocks(GOOD_COBALT)
        assert isinstance(items[0], ForwardPattern)
        assert isinstance(items[1], PureAnalysis)

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="no optimization or analysis blocks"):
            split_blocks("// nothing here")


class TestMalformedInputFiles:
    """A syntax error in an input file is one ``FILE:LINE:COL: message``
    line and exit status 1, never a traceback; an ill-formed program
    (no location) is ``FILE: message``."""

    @pytest.mark.parametrize("argv,name,text,location", [
        (["check"], "bad.cobalt",
         "// two lines of header\nforward optimization x {\n  true until\n}\n",
         "3:8: expected 'followed' (got 'until')"),
        (["counterexample"], "bad.cobalt",
         "forward optimization x { true followed by true until skip => skip"
         " with witness eta }",
         "1:84: expected '(' (got '}')"),
        (["run"], "bad.il", "main(n) {\n  x ::= 1;\n}\n",
         "2:5: unexpected character ':'"),
        (["opt"], "bad.il", "main(n) { return n }",
         "1:20: expected ';' (got '}')"),
        (["run"], "bad.il", "main(n) { if n goto 9 else 0; return n; }",
         " main: statement 0 branches to invalid index 9"),
    ], ids=["check", "counterexample", "run", "opt", "ill-formed-program"])
    def test_syntax_error_is_one_located_line(self, tmp_path, capsys, argv,
                                              name, text, location):
        path = tmp_path / name
        path.write_text(text)
        extra = {"run": ["3"], "opt": ["--passes", "constProp"]}
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [str(path)] + extra.get(argv[0], []))
        assert excinfo.value.code == f"{path}:{location}"
        # ``opt`` reads its program before proving any pass.
        assert "[verify]" not in capsys.readouterr().err


class TestCheckCommand:
    def test_check_sound_file(self, cobalt_file, capsys):
        assert main(["check", cobalt_file]) == 0
        out = capsys.readouterr().out
        assert "cliConstProp: SOUND" in out
        assert "cliTaint: SOUND" in out

    def test_check_unsound_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cobalt"
        path.write_text(BAD_COBALT)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "counterexample context" in out


    def test_closed_pipe_ends_quietly(self, tmp_path):
        """``repro check FILE | head -1``: once the reader closes the pipe
        the next report's write fails, and the CLI exits without a
        traceback.  Unbuffered output and a proof per block make that
        write come after the close."""
        blocks = [GOOD_COBALT.replace("cliConstProp", f"cliConstProp{i}")
                  .replace("cliTaint", f"cliTaint{i}") for i in range(4)]
        path = tmp_path / "many.cobalt"
        path.write_text("".join(blocks))
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "check", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"cliConstProp0: SOUND")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.wait(120)
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert proc.returncode == 1


class TestWitnessInference:
    def test_infer_flag_rescues_missing_witness(self, tmp_path, capsys):
        # Correct guard/rule but a useless witness: plain check fails,
        # --infer-witness reconstructs eta(Y) == C and proves it.
        source = """
        forward optimization lazyConstProp {
          stmt(Y := C)
          followed by
          !mayDef(Y)
          until
          X := Y  =>  X := C
          with witness
          true
        }
        """
        path = tmp_path / "lazy.cobalt"
        path.write_text(source)
        assert main(["check", str(path)]) == 1
        assert main(["check", str(path), "--infer-witness"]) == 0
        out = capsys.readouterr().out
        assert "inferred witness" in out


class TestRunCommand:
    def test_run(self, program_file, capsys):
        assert main(["run", program_file, "5"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_run_stuck(self, tmp_path, capsys):
        path = tmp_path / "stuck.il"
        path.write_text("main(n) { decl x; x := 1 / n; return x; }")
        assert main(["run", str(path), "0"]) == 2


class TestOptCommand:
    def test_opt_with_trust(self, program_file, capsys):
        assert main(["opt", program_file, "--passes", "constProp", "--trust"]) == 0
        out = capsys.readouterr().out
        assert "b := 2" in out

    def test_opt_verifies_first(self, program_file, capsys):
        assert main(["opt", program_file, "--passes", "constProp"]) == 0
        err = capsys.readouterr().err
        assert "constProp: sound" in err

    def test_unknown_pass(self, program_file):
        with pytest.raises(SystemExit):
            main(["opt", program_file, "--passes", "noSuchPass", "--trust"])

    def test_engine_stats_flag(self, program_file, capsys):
        code = main(
            ["opt", program_file, "--passes", "constProp", "--trust",
             "--engine-stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "b := 2" in captured.out
        assert "engine stats:" in captured.err
        assert "worklist pops" in captured.err
        assert "hit rate" in captured.err

    def test_reference_engine_same_output(self, program_file, capsys,
                                          monkeypatch):
        """``opt`` prints what Definition 1 computes."""
        import repro.cli
        from tests.test_engine_worklist import DefinitionEngine

        assert main(["opt", program_file, "--passes", "constProp",
                     "--trust"]) == 0
        worklist_out = capsys.readouterr().out
        monkeypatch.setattr(repro.cli, "CobaltEngine", DefinitionEngine)
        assert main(["opt", program_file, "--passes", "constProp",
                     "--trust"]) == 0
        reference_out = capsys.readouterr().out
        assert worklist_out == reference_out

    def test_pipeline(self, program_file, capsys):
        code = main(
            [
                "opt",
                program_file,
                "--passes",
                "constProp,deadAssignElim",
                "--trust",
                "--iterate",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skip" in out  # a := 2 became dead and was removed


class TestCounterexampleCommand:
    def test_synthesizes_for_unsound(self, tmp_path, capsys):
        path = tmp_path / "bad.cobalt"
        path.write_text(BAD_COBALT)
        assert main(["counterexample", str(path)]) == 1
        out = capsys.readouterr().out
        assert "miscompilation found" in out


@pytest.fixture()
def small_suite(monkeypatch):
    """Shrink the shipped suite to one optimization so CLI runs are fast."""
    from repro import opts as suite

    keep = [o for o in suite.ALL_OPTIMIZATIONS if o.name == "constProp"]
    assert keep
    monkeypatch.setattr(suite, "ALL_ANALYSES", [])
    monkeypatch.setattr(suite, "ALL_OPTIMIZATIONS", keep)
    return keep


class TestJsonOutput:
    """``--json`` must emit exactly the daemon's wire schema — the CLI
    document and ``SuiteReport.to_wire()`` may not drift."""

    def test_suite_json_matches_to_wire(self, small_suite, capsys):
        import json

        from repro.api import SuiteReport, verify_suite
        from repro.service.wire import WIRE_VERSION

        assert main(["suite", "--json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["schema_version"] == WIRE_VERSION
        assert doc["kind"] == "suite-report"
        # The progress table moved to stderr: stdout is one JSON document.
        assert "SOUND" not in captured.out
        assert "constProp" in captured.err

        local = verify_suite()
        reference = local.to_wire()
        assert set(doc) == set(reference)
        decoded = SuiteReport.from_wire(doc)
        assert decoded.canonical() == local.canonical()
        assert decoded.backend == local.backend

    def test_suite_without_json_keeps_table_on_stdout(self, small_suite,
                                                      capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "constProp" in out and "SOUND" in out

    def test_cache_stats_json_document(self, tmp_path, capsys):
        import json

        from repro.service.wire import dumps, envelope
        from repro.verify.cache import SCHEMA_VERSION

        target = str(tmp_path / "cache")
        assert main(["cache", "stats", "--dir", target, "--json"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == dumps(envelope("cache-stats", {
            "location": target,
            "objects": 0,
            "schema": SCHEMA_VERSION,
        }))
        json.loads(out)  # and it is valid JSON

    def test_fuzz_json_carries_the_canonical_report(self, capsys):
        import json

        args = ["fuzz", "--kind", "axioms", "--cases", "2", "--seed", "7",
                "--no-corpus", "--quiet"]
        assert main(args) == 0
        plain = capsys.readouterr().out.strip()
        assert main(args + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "fuzz-report"
        assert doc["ok"] is True
        assert doc["seed"] == 7
        [campaign] = doc["campaigns"]
        assert campaign["kind"] == "axioms"
        assert campaign["canonical"] == plain


class TestRetiredProverFlag:
    def test_prover_alias_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["--prover", "incremental", "suite"])
        assert "--prover-mode" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kernel", "flat", "verify"],
            ["--prover-mode", "incremental", "verify"],
            ["opt", "prog.il", "--passes", "constProp", "--engine", "worklist"],
            ["--solver-session", "verify"],
            ["serve", "--batch-window", "1"],
            ["--cache-url", "http://127.0.0.1:8421", "verify"],
            ["--cache-timeout", "2", "verify"],
            ["cache", "stats", "--url", "http://127.0.0.1:8421"],
        ],
        ids=["kernel", "prover-mode", "engine", "solver-session",
             "batch-window", "cache-url", "cache-timeout", "cache-stats-url"],
    )
    def test_removed_switches_are_argparse_errors(self, argv, capsys):
        """The kernel, prover-mode, engine, solver-session, batch-window,
        cache-url, cache-timeout and cache-stats-url switches are gone:
        using one is a usage error (exit 2), never a silently ignored
        flag."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro-cobalt: error:" in err
        usage = err.split("repro-cobalt: error:")[0]
        assert "--kernel" not in usage and "--prover-mode" not in usage

    #: The external-solver flags, listed here as well as in the table so
    #: that dropping one from the table fails the test.
    EXTERNAL_SOLVER_FLAGS = ("--backend", "--solver-cmd", "--solver-timeout",
                             "--max-session-queries")

    @pytest.mark.parametrize(
        "flag", sorted(set(REMOVED_GLOBAL_FLAGS) | set(EXTERNAL_SOLVER_FLAGS))
    )
    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_removed_global_flag_is_named_with_its_replacement(
        self, flag, form, capsys
    ):
        """``--flag value verify`` must not read ``value`` as the
        subcommand ("invalid choice"): the error names the removed flag and
        what replaces it, in both spellings."""
        argv = [flag, "x", "verify"] if form == "separate" else [f"{flag}=x", "verify"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" not in err
        assert f"unrecognized arguments: {flag} (removed: " in err
        assert REMOVED_GLOBAL_FLAGS[flag] in err

    def test_external_solver_flags_point_at_the_ci_cross_check(self):
        for flag in self.EXTERNAL_SOLVER_FLAGS + ("--solver-session",):
            assert "one prover" in REMOVED_GLOBAL_FLAGS[flag]
            assert "z3 cross-check" in REMOVED_GLOBAL_FLAGS[flag]

    def test_removed_flag_after_double_dash_is_left_to_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--", "--kernel"])
        assert exc.value.code == 2
        assert "(removed:" not in capsys.readouterr().err

    def test_live_flags_sharing_a_prefix_pass_the_check(self):
        from repro.cli import build_parser, reject_removed_flags

        argv = ["--prover-stats", "--cache-dir", "d", "suite"]
        parser = build_parser()
        reject_removed_flags(parser, argv)  # no exit
        args = parser.parse_args(argv)
        assert args.prover_stats and args.cache_dir == "d"


class TestServeSubcommand:
    def test_serve_is_registered_with_defaults(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.fn is cmd_serve
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.max_jobs == 8
        assert args.burst == 20.0
