"""Crash-safe session persistence under injected faults."""

import json

import pytest

from repro.cable.persist import (
    load_session,
    load_session_with_recovery,
    save_session,
    session_from_dict,
    session_to_dict,
)
from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.robustness import SessionCorrupt
from repro.robustness.atomicio import atomic_write_text, backup_paths
from repro.robustness.faults import (
    SimulatedCrash,
    crash_on_fsync,
    crash_on_replace,
    flip_bit,
    truncate_file,
)


@pytest.fixture
def session(stdio_traces, stdio_reference):
    s = CableSession(cluster_traces(stdio_traces, stdio_reference))
    s.label_traces(s.lattice.top, "good", "all")
    return s


def _labels_of(s: CableSession) -> list:
    return [s.labels.label_of(o) for o in range(s.clustering.num_objects)]


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert not (tmp_path / "f.txt.tmp").exists()

    def test_backup_rotation(self, tmp_path):
        path = tmp_path / "f.txt"
        for content in ("one", "two", "three"):
            atomic_write_text(path, content, backups=2)
        bak, bak2 = backup_paths(path, 2)
        assert path.read_text() == "three"
        assert bak.read_text() == "two"
        assert bak2.read_text() == "one"

    def test_no_backups_mode(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "one", backups=0)
        atomic_write_text(path, "two", backups=0)
        assert path.read_text() == "two"
        assert not backup_paths(path, 1)[0].exists()


class TestSaveLoadRoundtrip:
    def test_checksummed_roundtrip(self, tmp_path, session):
        path = tmp_path / "session.json"
        save_session(session, path)
        data = json.loads(path.read_text())
        assert data["checksum"]
        restored, warnings = load_session_with_recovery(path)
        assert warnings == []
        assert _labels_of(restored) == _labels_of(session)
        assert restored.ops.labelings == session.ops.labelings

    def test_legacy_document_without_checksum(self, tmp_path, session):
        path = tmp_path / "session.json"
        data = session_to_dict(session)
        del data["checksum"]
        path.write_text(json.dumps(data))
        restored = load_session(path)
        assert _labels_of(restored) == _labels_of(session)


class TestCorruptionRecovery:
    def _save_twice(self, tmp_path, session):
        """First save carries no labels, second carries them."""
        path = tmp_path / "session.json"
        unlabeled = CableSession(session.clustering)
        save_session(unlabeled, path)
        save_session(session, path)
        return path

    def test_truncation_detected_and_recovered(self, tmp_path, session):
        path = self._save_twice(tmp_path, session)
        truncate_file(path, path.stat().st_size // 2)
        restored, warnings = load_session_with_recovery(path)
        assert any("recovered session from backup" in w for w in warnings)
        # The backup held the unlabeled first save.
        assert set(_labels_of(restored)) == {None}

    def test_bitflip_detected_by_checksum(self, tmp_path, session):
        path = self._save_twice(tmp_path, session)
        # Flip a bit inside the document body; the text stays valid JSON
        # often enough that only the checksum catches it.
        flip_bit(path, byte_index=len(path.read_bytes()) // 2)
        restored, warnings = load_session_with_recovery(path)
        assert warnings  # either checksum mismatch or JSON error
        assert restored is not None

    def test_bitflip_without_backup_raises(self, tmp_path, session):
        path = tmp_path / "session.json"
        save_session(session, path, backups=0)
        flip_bit(path)
        with pytest.raises(SessionCorrupt) as info:
            load_session(path)
        assert info.value.context["attempts"]

    def test_all_copies_corrupt_raises(self, tmp_path, session):
        path = self._save_twice(tmp_path, session)
        truncate_file(path, 10)
        for bak in backup_paths(path, 2):
            if bak.exists():
                truncate_file(bak, 10)
        with pytest.raises(SessionCorrupt):
            load_session(path)


class TestCrashDuringSave:
    def test_crash_before_rename_keeps_last_state(self, tmp_path, session):
        path = tmp_path / "session.json"
        save_session(session, path)
        before = path.read_text()
        mutated = CableSession(session.clustering)
        with pytest.raises(SimulatedCrash), crash_on_fsync():
            save_session(mutated, path)
        # The main file is untouched and still loads cleanly.
        assert path.read_text() == before
        restored, warnings = load_session_with_recovery(path)
        assert warnings == []
        assert _labels_of(restored) == _labels_of(session)

    def test_crash_during_rotation_recovers_from_backup(
        self, tmp_path, session
    ):
        path = tmp_path / "session.json"
        save_session(session, path)
        with pytest.raises(SimulatedCrash), crash_on_replace(allowed_calls=0):
            save_session(CableSession(session.clustering), path)
        restored, _warnings = load_session_with_recovery(path)
        assert _labels_of(restored) == _labels_of(session)

    def test_crash_on_final_rename_recovers_from_backup(
        self, tmp_path, session
    ):
        path = tmp_path / "session.json"
        save_session(session, path)
        # Allow the rotation, kill the rename-into-place.  Rotation links
        # the main file into the .bak instead of moving it, so the
        # previous state is still the main file and also the .bak.
        with pytest.raises(SimulatedCrash), crash_on_replace(allowed_calls=1):
            save_session(CableSession(session.clustering), path)
        restored, warnings = load_session_with_recovery(path)
        assert warnings == []
        assert _labels_of(restored) == _labels_of(session)
        backup = load_session(backup_paths(path)[0])
        assert _labels_of(backup) == _labels_of(session)


class TestValidation:
    def test_members_ids_length_mismatch(self, session):
        data = session_to_dict(session)
        data["classes"][0]["ids"] = data["classes"][0]["ids"] + ["extra"]
        data["checksum"] = None
        with pytest.raises(SessionCorrupt) as info:
            session_from_dict(data)
        assert "member(s)" in str(info.value)
        assert info.value.context["class_index"] == 0

    def test_duplicate_trace_ids_rejected(self, session):
        data = session_to_dict(session)
        dup = data["classes"][0]["ids"][0]
        data["classes"][1]["ids"][0] = dup
        data["checksum"] = None
        with pytest.raises(SessionCorrupt) as info:
            session_from_dict(data)
        assert info.value.context["trace_id"] == dup

    def test_wrong_format_marker(self):
        with pytest.raises(SessionCorrupt):
            session_from_dict({"format": "something-else"})

    def test_checksum_mismatch_reported(self, session):
        data = session_to_dict(session)
        data["checksum"] = "0" * 64
        with pytest.raises(SessionCorrupt) as info:
            session_from_dict(data)
        assert "checksum" in str(info.value)


