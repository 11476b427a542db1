"""Concurrent save/load of one session path must never tear the file.

The served session store suspends and resumes sessions from worker
threads, so ``save_session``/``load_session`` race on shared paths as a
matter of course.  :mod:`repro.robustness.atomicio` stages every write
through a uniquely named temp file, so whatever rename lands last is a
complete, checksum-valid document — these tests hammer that property
with raw thread races and with the seeded corrupt-write chaos hook
layered on top.
"""

import os
import threading
from unittest import mock

import pytest

from repro.cable.persist import (
    load_session,
    load_session_with_recovery,
    save_session,
)
from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.robustness import SessionCorrupt, atomicio, chaos
from repro.robustness.atomicio import atomic_write_text, backup_paths

THREADS = 8
ROUNDS = 25


@pytest.fixture
def sessions(stdio_traces, stdio_reference):
    """Distinguishable sessions: one label per prospective writer."""
    out = []
    for i in range(THREADS):
        s = CableSession(cluster_traces(stdio_traces, stdio_reference))
        s.label_traces(s.lattice.top, f"writer{i}", "all")
        out.append(s)
    return out


def _race(n: int, work) -> list:
    """Run ``work(i)`` on ``n`` threads through a start barrier;
    re-raises the first worker error."""
    barrier = threading.Barrier(n)
    errors: list[BaseException] = []

    def runner(i: int) -> None:
        barrier.wait()
        try:
            work(i)
        except BaseException as exc:  # noqa: BLE001 - reported to pytest
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


def _writer_label(session: CableSession) -> str:
    return session.labels.label_of(0)


class TestConcurrentSaves:
    def test_racing_saves_leave_valid_file(self, tmp_path, sessions):
        path = tmp_path / "shared.session.json"
        errors = _race(
            THREADS,
            lambda i: [
                save_session(sessions[i], path) for _ in range(ROUNDS)
            ],
        )
        assert not errors, errors
        loaded = load_session(path)
        # The survivor is one writer's complete document.
        assert _writer_label(loaded) in {
            f"writer{i}" for i in range(THREADS)
        }
        assert loaded.clustering.num_objects == sessions[0].clustering.num_objects
        # No staging litter: every temp file was renamed or unlinked.
        assert not list(tmp_path.glob("*.tmp*"))

    def test_racing_save_and_load(self, tmp_path, sessions):
        path = tmp_path / "shared.session.json"
        save_session(sessions[0], path)

        def work(i: int) -> None:
            for _ in range(ROUNDS):
                if i % 2:
                    save_session(sessions[i], path)
                else:
                    loaded = load_session(path)
                    # Whatever snapshot we got must be complete.
                    assert _writer_label(loaded).startswith("writer")

        errors = _race(THREADS, work)
        assert not errors, errors

    def test_racing_writers_keep_backup_chain_usable(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "seed", backups=2)
        errors = _race(
            4,
            lambda i: [
                atomic_write_text(path, f"writer{i}:{r}", backups=2)
                for r in range(ROUNDS)
            ],
        )
        assert not errors, errors
        assert path.read_text().startswith(("writer", "seed"))
        for backup in backup_paths(path, 2):
            if backup.exists():
                assert backup.read_text().startswith(("writer", "seed"))


class TestRotationKeepsPath:
    def test_path_exists_at_every_rename(self, tmp_path):
        """A loader racing a save must never find the main file missing:
        rotation links it into the backup chain instead of moving it."""
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one", backups=2)
        atomic_write_text(path, "two", backups=2)
        present = []
        real_replace = os.replace

        def spying_replace(src, dst):
            present.append(path.exists())
            real_replace(src, dst)
            present.append(path.exists())

        with mock.patch.object(atomicio.os, "replace", spying_replace):
            atomic_write_text(path, "three", backups=2)
        assert present and all(present)
        assert path.read_text() == "three"
        assert [b.read_text() for b in backup_paths(path, 2)] == ["two", "one"]
        assert not list(tmp_path.glob("*.tmp*"))

    def test_copies_where_links_are_unsupported(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one", backups=2)

        def no_links(src, dst):
            raise PermissionError("hard links not supported")

        with mock.patch.object(atomicio.os, "link", no_links):
            atomic_write_text(path, "two", backups=2)
        assert path.read_text() == "two"
        assert backup_paths(path, 2)[0].read_text() == "one"
        assert not list(tmp_path.glob("*.tmp*"))


class TestChaosConcurrentSaves:
    @pytest.fixture(autouse=True)
    def _reset_chaos(self):
        yield
        chaos.reset()

    def test_seeded_corruption_recovers_or_reports(self, tmp_path, sessions):
        """With the corrupt-write hook flipping bits on a deterministic
        fraction of saves, racing writers still never produce a *torn*
        file: every load yields a checksum-valid document (possibly from
        a backup, with a warning) or the taxonomy's ``SessionCorrupt`` —
        silent garbage is the only losing outcome."""
        chaos.configure(seed=7, corrupt_rate=0.3)
        path = tmp_path / "chaotic.session.json"
        outcomes: list[str] = []
        outcome_lock = threading.Lock()

        def work(i: int) -> None:
            for _ in range(ROUNDS):
                save_session(sessions[i], path)
                try:
                    loaded, warnings = load_session_with_recovery(path)
                except SessionCorrupt:
                    with outcome_lock:
                        outcomes.append("corrupt")
                    continue
                assert _writer_label(loaded).startswith("writer")
                with outcome_lock:
                    outcomes.append("recovered" if warnings else "clean")

        errors = _race(4, work)
        assert not errors, errors
        assert outcomes.count("clean") > 0
        # seed=7 at rate 0.3 definitely corrupts some writes; the runs
        # that hit one must have recovered or raised, never torn.
        assert len(outcomes) == 4 * ROUNDS

    def test_chaos_hook_actually_fires(self, tmp_path, sessions):
        """Sanity: the seeded profile corrupts a single-writer save too,
        and recovery falls back to the backup chain."""
        chaos.configure(seed=1, corrupt_rate=1.0)
        path = tmp_path / "always.session.json"
        save_session(sessions[0], path)  # corrupted on landing
        save_session(sessions[1], path)  # rotates corrupt main to .bak
        with pytest.raises(SessionCorrupt):
            # Main and every backup are bit-flipped at rate 1.0.
            load_session(path)
