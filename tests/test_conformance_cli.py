"""``cable selfcheck``: formats, gating, baseline round-trips, the
``--changed`` pre-commit narrowing, per-pass timings, and the shared
baseline loader's legacy-path redirect."""

from __future__ import annotations

import io
import json
import subprocess

import pytest

from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.conformance.cli import selfcheck_main
from repro.cable.cli import main as cable_main

BAD_MODULE = (
    "def f(x):\n"
    "    try:\n"
    "        return x()\n"
    "    except Exception:\n"
    "        return None\n"
)


@pytest.fixture
def dirty_root(tmp_path):
    """A tiny package with one CC005 finding."""
    root = tmp_path / "repro"
    root.mkdir()
    (root / "leaf.py").write_text(BAD_MODULE)
    return root


#: The nine registered passes; CC004 and CC006 were folded into CC010
#: and CC011.
SURVIVING_CODES = [f"CC{n:03d}" for n in range(1, 12) if n not in (4, 6)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    status = selfcheck_main(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


class TestSelfcheckCLI:
    def test_list_passes(self):
        status, out, _ = run(["--list"])
        assert status == 0
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == SURVIVING_CODES

    def test_findings_gate_text(self, dirty_root):
        status, out, _ = run(["--root", str(dirty_root)])
        assert status == 1
        assert "CC005" in out
        assert "witness" in out
        assert "(1 new)" in out

    def test_findings_gate_json(self, dirty_root):
        status, out, _ = run(["--root", str(dirty_root), "--format", "json"])
        assert status == 1
        document = json.loads(out)
        assert document["summary"]["new_findings"] == 1
        [report] = document["reports"]
        assert report["target"] == "repro/leaf.py"
        [diag] = report["diagnostics"]
        assert diag["code"] == "CC005"
        assert diag["witness"].startswith("repro/leaf.py:")

    def test_codes_subset(self, dirty_root):
        status, _, _ = run(["--root", str(dirty_root), "--codes", "CC001"])
        assert status == 0  # CC005 finding invisible to a CC001-only run

    def test_unknown_code_is_usage_error(self, dirty_root):
        status, _, err = run(["--root", str(dirty_root), "--codes", "CC999"])
        assert status == 2
        assert "CC999" in err

    def test_update_baseline_roundtrip(self, dirty_root, tmp_path):
        baseline_path = tmp_path / "conformance.json"
        status, out, _ = run(
            [
                "--root",
                str(dirty_root),
                "--baseline",
                str(baseline_path),
                "--update-baseline",
            ]
        )
        assert status == 0 and baseline_path.exists()
        status, out, _ = run(
            ["--root", str(dirty_root), "--baseline", str(baseline_path)]
        )
        assert status == 0
        assert "(0 new)" in out and "1 baselined" in out

    def test_update_baseline_requires_path(self, dirty_root):
        status, _, err = run(["--root", str(dirty_root), "--update-baseline"])
        assert status == 2
        assert "--baseline" in err

    def test_update_baseline_keeps_reasons(self, dirty_root, tmp_path):
        baseline_path = tmp_path / "conformance.json"
        Baseline(
            {"repro/leaf.py": frozenset({"CC005@code:f"})},
            {"repro/leaf.py": {"CC005@code:f": "legacy envelope"}},
        ).save(baseline_path)
        status, _, _ = run(
            [
                "--root",
                str(dirty_root),
                "--baseline",
                str(baseline_path),
                "--update-baseline",
            ]
        )
        assert status == 0
        reloaded = Baseline.load(baseline_path)
        assert reloaded.reasons["repro/leaf.py"]["CC005@code:f"] == (
            "legacy envelope"
        )

    def test_cable_dispatch(self, capsys):
        assert cable_main(["selfcheck", "--list"]) == 0
        assert "CC011" in capsys.readouterr().out

    def test_json_reports_per_pass_seconds(self, dirty_root):
        status, out, _ = run(
            ["--root", str(dirty_root), "--format", "json"]
        )
        assert status == 1
        document = json.loads(out)
        codes = [p["code"] for p in document["passes"]]
        assert codes == SURVIVING_CODES
        for entry in document["passes"]:
            assert isinstance(entry["seconds"], float)
            assert entry["seconds"] >= 0.0
        assert document["summary"]["seconds"] >= sum(
            p["seconds"] for p in document["passes"]
        )


def _git(cwd, *argv):
    subprocess.run(
        [
            "git",
            "-c",
            "user.email=selfcheck@test",
            "-c",
            "user.name=selfcheck",
            *argv,
        ],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


class TestChangedNarrowing:
    @pytest.fixture
    def committed_root(self, tmp_path):
        """A git repo whose package has one dirty and one clean module."""
        root = tmp_path / "repro"
        root.mkdir()
        (root / "leaf.py").write_text(BAD_MODULE)
        (root / "clean.py").write_text("def g(x):\n    return x\n")
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-q", "-m", "seed")
        return root

    def test_untouched_tree_scans_nothing(self, committed_root):
        status, out, _ = run(
            ["--root", str(committed_root), "--changed", "--format", "json"]
        )
        assert status == 0
        assert json.loads(out)["summary"]["modules_scanned"] == 0

    def test_narrows_to_touched_modules(self, committed_root):
        # leaf.py carries the finding but only clean.py was edited, so
        # the pre-commit gate stays green and scans exactly one module.
        (committed_root / "clean.py").write_text(
            "def g(x):\n    return x\n\ndef h(x):\n    return x + 1\n"
        )
        status, out, _ = run(
            [
                "--root",
                str(committed_root),
                "--changed",
                "HEAD",
                "--format",
                "json",
            ]
        )
        assert status == 0
        document = json.loads(out)
        assert document["summary"]["modules_scanned"] == 1
        assert {r["target"] for r in document["reports"]} <= {
            "repro/clean.py"
        }
        # The full scan still sees leaf.py's finding.
        status, _, _ = run(["--root", str(committed_root)])
        assert status == 1

    def test_touching_the_dirty_module_gates(self, committed_root):
        (committed_root / "leaf.py").write_text(BAD_MODULE + "\n# edited\n")
        status, out, _ = run(
            ["--root", str(committed_root), "--changed"]
        )
        assert status == 1
        assert "CC005" in out

    def test_outside_a_repo_is_an_error(self, dirty_root, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(dirty_root.parent))
        monkeypatch.delenv("GIT_DIR", raising=False)
        status, _, err = run(["--root", str(dirty_root), "--changed"])
        assert status == 2
        assert "git diff failed" in err


class TestBaselineLoader:
    def test_reason_entries_suppress_and_roundtrip(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "suppressions": {
                        "t": [
                            {"fingerprint": "CC001@code:f", "reason": "why"},
                            "CC002@code:g",
                        ]
                    },
                }
            )
        )
        baseline = Baseline.load(path)
        assert baseline.suppressions["t"] == frozenset(
            {"CC001@code:f", "CC002@code:g"}
        )
        assert baseline.reasons["t"]["CC001@code:f"] == "why"
        reloaded = Baseline.load(tmp_path / "b.json")
        assert json.loads(baseline.to_json()) == json.loads(reloaded.to_json())

    def test_malformed_entry_rejected(self, tmp_path):
        from repro.robustness.errors import InputError

        path = tmp_path / "b.json"
        path.write_text(
            json.dumps({"version": 1, "suppressions": {"t": [42]}})
        )
        with pytest.raises(InputError):
            Baseline.load(path)

    def test_missing_ok_yields_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "nope.json", missing_ok=True)
        assert baseline.suppressions == {}
