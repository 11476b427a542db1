"""CLI commands for ranking, refinement, incremental addition, sessions."""

import io

import pytest

from repro.cable.cli import CableCLI, main
from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.robustness.errors import InputError


@pytest.fixture
def cli(stdio_traces, stdio_reference):
    session = CableSession(cluster_traces(stdio_traces, stdio_reference))
    return CableCLI(session, out=io.StringIO())


def output_of(cli):
    return cli.out.getvalue()


class TestRankCommand:
    def test_lists_scored_concepts(self, cli):
        cli.run_line("rank 3")
        text = output_of(cli)
        assert "suspicious" in text
        assert text.count("score=") == 3

    def test_default_count(self, cli):
        cli.run_line("rank")
        assert output_of(cli).count("score=") == 5


class TestRefineCommand:
    def test_refine_seed(self, cli):
        before = len(cli.session.lattice)
        cli.run_line("refine seed pclose(X)")
        assert "refined" in output_of(cli)
        assert len(cli.session.lattice) >= before

    def test_refine_keeps_labels(self, cli):
        cli.run_line(f"label {cli.session.lattice.top} good all")
        cli.run_line("refine unordered")
        assert cli.session.done()

    def test_refine_inside_focus_rejected(self, cli):
        cli.run_line(f"focus {cli.session.lattice.top} unordered")
        cli.run_line("refine unordered")
        assert "error:" in output_of(cli)


    @pytest.mark.parametrize(
        "args", [["bogus"], ["seed"], ["name", "Q"], ["fa"]]
    )
    def test_bad_template_is_input_error(self, cli, args):
        with pytest.raises(InputError):
            cli._template_fa(args, cli.session.clustering.representatives)
        cli.run_line("refine " + " ".join(args))
        assert "error:" in output_of(cli)


class TestAddTracesCommand:
    def test_add_from_file(self, cli, tmp_path):
        path = tmp_path / "more.txt"
        path.write_text("popen(z9); fwrite(z9); fwrite(z9); pclose(z9)\n")
        before = cli.session.clustering.num_objects
        cli.run_line(f"addtraces {path}")
        assert cli.session.clustering.num_objects == before + 1
        assert "1 new class" in output_of(cli)

    def test_added_duplicates_join_classes(self, cli, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("popen(q1); fread(q1); pclose(q1)\n")
        before = cli.session.clustering.num_objects
        cli.run_line(f"addtraces {path}")
        assert cli.session.clustering.num_objects == before
        assert "0 new class(es)" in output_of(cli)

    def test_two_batches_then_save_and_load(self, cli, tmp_path):
        # Each batch numbers its ids on from the session's count, so the
        # saved session has no duplicate trace id and loads again.
        from repro.cable.persist import load_session

        first = tmp_path / "first.txt"
        first.write_text("popen(z9); fwrite(z9); fwrite(z9); pclose(z9)\n")
        second = tmp_path / "second.txt"
        second.write_text(
            "popen(q1); fread(q1); pclose(q1)\n"
            "popen(z8); fwrite(z8); fwrite(z8); pclose(z8)\n"
        )
        cli.run_line(f"addtraces {first}")
        cli.run_line(f"addtraces {second}")
        cli.run_line(f"label {cli.session.lattice.top} good all")
        path = tmp_path / "session.json"
        cli.run_line(f"savesession {path}")
        assert "error" not in output_of(cli)
        restored = load_session(path)
        session = cli.session
        assert restored.lattice.extent_masks == session.lattice.extent_masks
        assert restored.clustering.class_counts == session.clustering.class_counts
        assert restored.label_log == session.label_log
        assert restored.done()
        assert restored.traces_added == session.traces_added


class TestSessionPersistence:
    def test_savesession_then_reload(self, cli, tmp_path):
        path = tmp_path / "session.json"
        cli.run_line(f"label {cli.session.lattice.top} good all")
        cli.run_line(f"savesession {path}")
        assert "session saved" in output_of(cli)

        from repro.cable.persist import load_session

        restored = load_session(path)
        assert restored.done()

    def test_main_with_session_flag(self, cli, tmp_path, monkeypatch, capsys):
        path = tmp_path / "session.json"
        cli.run_line(f"savesession {path}")
        monkeypatch.setattr("sys.stdin", io.StringIO("state\nquit\n"))
        assert main(["--session", str(path)]) == 0
        captured = capsys.readouterr()
        assert "unlabeled" in captured.out

    def test_loaded_session_has_nothing_to_undo(
        self, cli, tmp_path, monkeypatch, capsys
    ):
        # Restoring saved labels is not an act the user can undo: each
        # class's label used to come back as its own undo entry.
        from repro.cable.persist import load_session

        path = tmp_path / "session.json"
        for o in range(cli.session.clustering.num_objects):
            cli.run_line(f"label {cli.session.lattice.object_concept(o)} good")
        cli.run_line(f"savesession {path}")
        restored = load_session(path)
        assert restored.done()
        before = restored.labels.as_dict(), restored.labels.unlabeled_mask
        assert not restored.labels.undo()
        assert (restored.labels.as_dict(), restored.labels.unlabeled_mask) == before
        monkeypatch.setattr("sys.stdin", io.StringIO("undo\nstate\nquit\n"))
        assert main(["--session", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nothing to undo" in out
        assert "undone" not in out

    def test_main_json_banner(self, cli, tmp_path, monkeypatch, capsys):
        import json

        path = tmp_path / "session.json"
        cli.run_line(f"savesession {path}")
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert main(["--json", "--session", str(path)]) == 0
        banner = json.loads(capsys.readouterr().out.splitlines()[0])
        assert banner["restored_from"] == str(path)
        assert banner["warnings"] == []
        assert banner["classes"] >= 1

    def test_main_json_reports_recovery_warnings(
        self, cli, tmp_path, monkeypatch, capsys
    ):
        """Backup-restore warnings reach JSON output too, not just the
        text path's stderr — a machine attaching a session must see
        them on stdout."""
        import json

        from repro.robustness.faults import flip_bit

        path = tmp_path / "session.json"
        cli.run_line(f"savesession {path}")
        cli.run_line(f"savesession {path}")  # rotates a good backup
        flip_bit(path)
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert main(["--json", "--session", str(path)]) == 0
        captured = capsys.readouterr()
        banner = json.loads(captured.out.splitlines()[0])
        assert banner["warnings"]
        assert any("backup" in w for w in banner["warnings"])
        # The text-mode warning channel stays quiet in JSON mode.
        assert "warning:" not in captured.err

    def test_main_text_recovery_warnings_on_stderr(
        self, cli, tmp_path, monkeypatch, capsys
    ):
        from repro.robustness.faults import flip_bit

        path = tmp_path / "session.json"
        cli.run_line(f"savesession {path}")
        cli.run_line(f"savesession {path}")
        flip_bit(path)
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        assert main(["--session", str(path)]) == 0
        assert "warning:" in capsys.readouterr().err

    def test_main_usage(self, capsys):
        assert main(["--help"]) == 0
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestFocusCustomFA:
    def test_focus_from_fa_file(self, cli, tmp_path, stdio_reference):
        from repro.fa.serialization import fa_to_text

        fa_file = tmp_path / "ref.fa"
        fa_file.write_text(fa_to_text(stdio_reference))
        top = cli.session.lattice.top
        cli.run_line(f"focus {top} fa {fa_file}")
        assert len(cli.stack) == 2
        assert "focused on concept" in output_of(cli)

    def test_focus_from_regex(self, cli):
        top = cli.session.lattice.top
        cli.run_line(
            f"focus {top} regex (fopen(X) | popen(X)) "
            "(fread(X) | fwrite(X))* (fclose(X) | pclose(X))?"
        )
        assert len(cli.stack) == 2
        # Every trace class must be clusterable under the regex FA.
        assert cli.stack[-1].unclustered == frozenset()
