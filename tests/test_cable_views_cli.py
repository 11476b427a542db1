"""Lattice rendering and the scriptable Cable CLI."""

import io

import pytest

from repro.cable.cli import CableCLI, build_session, main
from repro.cable.session import CableSession, SelectionError, parse_selection
from repro.cable.views import lattice_to_dot, render_lattice
from repro.core.trace_clustering import cluster_traces

from tests.conftest import STDIO_LABELED


@pytest.fixture
def session(stdio_traces, stdio_reference):
    return CableSession(cluster_traces(stdio_traces, stdio_reference))


@pytest.fixture
def cli(session):
    return CableCLI(session, out=io.StringIO())


def output_of(cli):
    return cli.out.getvalue()


class TestRendering:
    def test_render_lattice_one_line_per_concept(self, session):
        text = render_lattice(session)
        assert text.count("#") == len(session.lattice)
        assert "legend" in text

    def test_render_lattice_markers_follow_states(self, session):
        session.label_traces(session.lattice.top, "good", "all")
        lines = render_lattice(session).splitlines()
        assert all(line.startswith("*") for line in lines[:-1])

    def test_dot_output(self, session):
        dot = lattice_to_dot(session)
        assert dot.startswith("digraph")
        assert dot.count("style=filled") == len(session.lattice)
        assert "palegreen" in dot
        session.label_traces(session.lattice.top, "good", "all")
        assert "lightcoral" in lattice_to_dot(session)


class TestSelectionParsing:
    def test_defaults(self):
        assert parse_selection(None) == "all"
        assert parse_selection("all") == "all"
        assert parse_selection("unlabeled") == "unlabeled"
        assert parse_selection("=good") == ("label", "good")

    def test_garbage(self):
        with pytest.raises(SelectionError):
            parse_selection("meh")


class TestCLI:
    def test_lattice_command(self, cli):
        cli.run_line("lattice")
        assert "legend" in output_of(cli)

    def test_inspect_and_label(self, cli):
        top = cli.session.lattice.top
        cli.run_line(f"inspect {top}")
        cli.run_line(f"label {top} good all")
        assert cli.session.done()
        assert cli.session.ops.total == 2
        assert "labeled" in output_of(cli)

    def test_fa_trans_traces_commands(self, cli):
        top = cli.session.lattice.top
        for cmd in (f"fa {top}", f"trans {top}", f"traces {top}"):
            cli.run_line(cmd)
        text = output_of(cli)
        assert "accepting" in text  # from fa pretty()

    def test_state_command(self, cli):
        cli.run_line("state")
        assert "unlabeled" in output_of(cli)

    def test_good_command(self, cli):
        top = cli.session.lattice.top
        cli.run_line(f"label {top} good all")
        cli.run_line("good")
        assert "states:" in output_of(cli)

    def test_undo_command(self, cli):
        top = cli.session.lattice.top
        cli.run_line(f"label {top} good all")
        cli.run_line("undo")
        assert not cli.session.done()

    def test_focus_and_endfocus(self, cli):
        top = cli.session.lattice.top
        cli.run_line(f"focus {top} unordered")
        assert len(cli.stack) == 2
        cli.run_line(f"label {cli.session.lattice.top} good all")
        cli.run_line("endfocus")
        assert len(cli.stack) == 1
        assert cli.session.done()

    def test_one_undo_takes_back_an_endfocus(self, cli):
        top = cli.session.lattice.top
        cli.run_line(f"focus {top} unordered")
        cli.run_line(f"label {cli.session.lattice.top} good all")
        cli.run_line("endfocus")
        assert cli.session.done()
        cli.run_line("undo")
        assert cli.session.labels.as_dict() == {}

    def test_focus_seed_template(self, cli):
        top = cli.session.lattice.top
        cli.run_line(f"focus {top} seed pclose(X)")
        assert len(cli.stack) == 2

    def test_endfocus_without_focus(self, cli):
        cli.run_line("endfocus")
        assert "not in a focus session" in output_of(cli)

    def test_errors_are_reported_not_raised(self, cli):
        cli.run_line("inspect 99999")
        cli.run_line("label")
        cli.run_line("bogus-command")
        text = output_of(cli)
        assert text.count("error:") == 3

    def test_quit(self, cli):
        assert cli.run_line("quit") is False
        assert cli.run_line("inspect 0") is True

    def test_comments_and_blanks(self, cli):
        assert cli.run_line("# a comment") is True
        assert cli.run_line("") is True
        assert output_of(cli) == ""

    def test_dot_and_save(self, cli, tmp_path):
        dot_file = tmp_path / "lat.dot"
        save_file = tmp_path / "labels.tsv"
        top = cli.session.lattice.top
        cli.run_line(f"label {top} good all")
        cli.run_line(f"dot {dot_file}")
        cli.run_line(f"save {save_file}")
        assert dot_file.read_text().startswith("digraph")
        lines = save_file.read_text().splitlines()
        assert len(lines) == cli.session.clustering.num_objects
        assert all(line.startswith("good\t") for line in lines)

    def test_run_stops_at_quit(self, cli):
        cli.run(["state", "quit", "lattice"])
        assert "legend" not in output_of(cli)


class TestBuildSession:
    def test_from_trace_file(self, tmp_path):
        trace_file = tmp_path / "traces.txt"
        trace_file.write_text(
            "\n".join(text for text, _ in STDIO_LABELED) + "\n"
        )
        session = build_session(str(trace_file), None)
        assert session.clustering.num_objects == len(STDIO_LABELED)

    def test_with_fa_file(self, tmp_path, stdio_reference):
        from repro.fa.serialization import fa_to_text

        trace_file = tmp_path / "traces.txt"
        trace_file.write_text("fopen(f1); fclose(f1)\n")
        fa_file = tmp_path / "ref.fa"
        fa_file.write_text(fa_to_text(stdio_reference))
        session = build_session(str(trace_file), str(fa_file))
        assert session.clustering.reference_fa.num_transitions == 10

    def test_empty_trace_file_without_fa_is_an_input_error(self, tmp_path, capsys):
        trace_file = tmp_path / "empty.txt"
        trace_file.write_text("\n")
        assert main([str(trace_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cannot learn from an empty trace set\n"
        assert captured.out == ""


class TestLatticeTree:
    def test_layered_rendering(self, session):
        from repro.cable.views import render_lattice_tree

        text = render_lattice_tree(session)
        assert text.startswith("level 0:")
        assert text.count("#") >= len(session.lattice)
        # The top is alone on level 0; the bottom is on the deepest level.
        level0 = text.split("level 1:")[0]
        assert level0.count("traces=") == 1

    def test_levels_respect_order(self, session):
        from repro.cable.views import render_lattice_tree

        text = render_lattice_tree(session)
        # Parse levels back out and check every child is deeper than
        # some parent.
        level_of = {}
        current = None
        for line in text.splitlines():
            if line.startswith("level "):
                current = int(line.split()[1].rstrip(":"))
            elif "#" in line and "parents" in line:
                concept = int(line.split("#")[1].split()[0])
                level_of[concept] = current
        lattice = session.lattice
        for c in lattice:
            for child in lattice.children[c]:
                assert level_of[child] > level_of[c]

    def test_cli_lattice_tree_command(self, cli):
        cli.run_line("lattice tree")
        assert "level 0:" in output_of(cli)
