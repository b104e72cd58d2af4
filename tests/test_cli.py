import hashlib
import json
import subprocess
import sys
import textwrap

import pytest

from qisog import cli
from qisog import ideals as idl
from qisog.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_algebra(self, capsys):
        code, out, _ = run_cli(capsys, "algebra", "--p", "7")
        assert code == 0
        assert "discrd 7" in out

    def test_algebra_builds_each_order_once(self, capsys, monkeypatch):
        """The two root orders and the Bass order: three ring closures."""
        calls = []
        order_closure = idl.order_closure

        def counted(*args):
            calls.append(args)
            return order_closure(*args)

        monkeypatch.setattr(idl, "order_closure", counted)
        code, out, _ = run_cli(capsys, "algebra", "--p", "101", "--json")
        assert code == 0
        assert json.loads(out)["global_root_orders"] == 2
        assert len(calls) == 3

    def test_embed_p13(self, capsys):
        code, out, _ = run_cli(capsys, "embed", "--p", "13")
        assert code == 0
        assert "e = 2" in out and "agree" in out

    def test_brandt_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "brandt", "--p", "11", "--ell", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"p", "ell", "classes", "brandt", "unit_sizes"}
        assert doc["classes"] == 2

    def test_ssgraph(self, capsys):
        code, out, _ = run_cli(capsys, "ssgraph", "--p", "37", "--ell", "2")
        assert code == 0
        assert "connected: True" in out

    def test_ssgraph_dot(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, _, _ = run_cli(capsys, "ssgraph", "--p", "11", "--ell", "2", "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph G {")

    @pytest.mark.parametrize("p,digest", [
        (11, "62a925631eb3229d90e759f7df2c4f26f8fa7ea239678f2383506e1a12c58b71"),
        (101, "4a6af8e88666573e3b8c2c1f4157e5d3dab812e92bc8ba57b774fa4d147dfe19"),
        (499, "cef524ab27fe090754887e01afc9b770425739aed566a1a160195386e413875a"),
    ])
    def test_ssgraph_dot_bytes(self, capsys, tmp_path, p, digest):
        """The DOT file, vertices labelled by j, is byte-for-byte the pinned
        one; the digest grid writes no DOT."""
        dot = tmp_path / "g.dot"
        code, _, _ = run_cli(capsys, "ssgraph", "--p", str(p), "--ell", "2", "--dot", str(dot))
        assert code == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest

    def test_isocheck(self, capsys):
        code, out, _ = run_cli(capsys, "isocheck", "--p", "37", "--ell", "2")
        assert code == 0
        assert "isomorphic, 3 vertices" in out

    @pytest.mark.parametrize("p,ell", [(401, 2), (499, 3), (997, 2), (1009, 2)])
    def test_isocheck_settles_large_graphs(self, capsys, p, ell):
        """Dozens of vertices share one degree signature at (401, 2) and
        (499, 3), which a backtracking search on degrees alone does not get
        through; (997, 2) has 83 vertices, and (1009, 2), past the p bound
        the j-list once had, 84."""
        code, out, _ = run_cli(capsys, "isocheck", "--p", str(p), "--ell", str(ell), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] is True
        n = range(doc["curve_vertices"])
        assert sorted(map(int, doc["witness"])) == sorted(doc["witness"].values()) == list(n)

    def test_oriented(self, capsys):
        code, out, _ = run_cli(capsys, "oriented", "--p", "7", "--ell", "3", "--depth", "2")
        assert code == 0
        assert "1 local root (global)" in out
        assert "audit: pass" in out

    def test_oriented_ell2_audit_passes_unflagged(self, capsys):
        code, out, _ = run_cli(capsys, "oriented", "--p", "7", "--ell", "2", "--depth", "2",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["audit_pass"] is True and "audit_flagged" not in doc

    def test_oriented_exports(self, capsys, tmp_path):
        dot, js = tmp_path / "c.dot", tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "oriented", "--p", "7", "--ell", "3", "--depth", "1",
                             "--dot", str(dot), "--json-file", str(js))
        assert code == 0
        assert "digraph" in dot.read_text()
        doc = json.loads(js.read_text())
        assert doc["p"] == 7 and doc["ell"] == 3

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "embed.json"
        code, stdout, _ = run_cli(capsys, "embed", "--p", "13", "--json", "--out", str(out))
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["global_embedding_number"] == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("brandt", "--p", "13", "--ell", "3", "--json"),
        ("oriented", "--p", "7", "--ell", "2", "--depth", "2", "--json"),
    ])
    def test_identical_output_on_repeat(self, capsys, argv):
        a = run_cli(capsys, *argv)
        b = run_cli(capsys, *argv)
        assert a == b

    def test_no_seed_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["brandt", "--p", "13", "--ell", "3", "--seed", "1"])
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestParserBuiltOnce:
    RUNS = [("brandt", "--p", "37", "--ell", "3", "--json"),
            ("embed", "--p", "13"),
            ("brandt", "--p", "37", "--ell", "3"),
            ("oriented", "--p", "7", "--ell", "2", "--depth", "2", "--json")]

    def test_successive_calls_match_fresh_ones(self, capsys):
        """One parser serves successive calls with other subcommands and
        flags (--json on, then off), and each gives a fresh parser's output."""
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        reused = [run_cli(capsys, *argv) for argv in self.RUNS]
        assert cli.build_parser() is parser
        fresh = []
        for argv in self.RUNS:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert reused == fresh
        assert [code for code, *_ in reused] == [0] * len(self.RUNS)
        assert reused[0][1] != reused[2][1] and reused[0][1].startswith("{")


class TestExitCodes:
    def test_precondition_violation(self, capsys):
        code, _, _ = run_cli(capsys, "algebra", "--p", "8")
        assert code == 1

    def test_ell_equal_p(self, capsys):
        code, _, _ = run_cli(capsys, "brandt", "--p", "11", "--ell", "11")
        assert code == 1

    def test_default_cap_refuses_ell7_depth6(self, capsys):
        # 156865 vertices against VERTEX_CAP = 10^5, refused before the walk
        code, _, _ = run_cli(capsys, "oriented", "--p", "101", "--ell", "7", "--depth", "6")
        assert code == 2


class TestEntryPoint:
    def test_subprocess_roundtrip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qisog.cli", "algebra", "--p", "7", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["q"] == 1

    def test_each_call_logs_to_its_own_stderr(self, tmp_path):
        """Three calls in one fresh process, each under its own stderr: the
        failing call's error, the -v call's "wrote" line and nothing without
        -v, each in its own buffer; then a call under a root handler on the
        redirected stderr (perfbench/run.py's set-up) writes its error once.
        No handler is left on the qisog logger."""
        script = textwrap.dedent(f"""\
            import io, json, logging
            from contextlib import redirect_stderr, redirect_stdout
            from qisog import cli
            dot = {str(tmp_path / "g.dot")!r}
            runs = [["algebra", "--p", "4"], ["ssgraph", "--p", "11", "--ell", "2", "--dot", dot, "-v"],
                    ["ssgraph", "--p", "11", "--ell", "2", "--dot", dot]]
            codes, errs = [], []
            for argv in runs:
                errs.append(io.StringIO())
                with redirect_stdout(io.StringIO()), redirect_stderr(errs[-1]):
                    codes.append(cli.main(argv))
            sink = io.StringIO()
            logging.basicConfig(stream=sink, level=logging.WARNING)
            with redirect_stderr(sink):
                codes.append(cli.main(runs[0]))
            print(json.dumps([codes, [e.getvalue() for e in errs], sink.getvalue(),
                              logging.getLogger("qisog").handlers == []]))
            """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, errs, sink, clean = json.loads(proc.stdout)
        error = "ERROR qisog: p must be a prime > 3, got 4\n"
        assert codes == [1, 0, 0, 1]
        assert errs == [error, f"INFO qisog: wrote {tmp_path / 'g.dot'}\n", ""]
        assert sink == error and clean

    def test_subprocess_error_stream_separation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qisog.cli", "embed", "--p", "8"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == "" and "prime" in proc.stderr
