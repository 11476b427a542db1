"""Crash-safe session persistence under injected faults."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cable.persist import (
    _payload_text,
    load_session,
    load_session_with_recovery,
    save_session,
    session_from_dict,
    session_to_dict,
)
from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.lang.traces import parse_trace
from repro.robustness import SessionCorrupt
from repro.robustness.atomicio import (
    atomic_write_text,
    backup_paths,
    checksum_text,
)
from repro.robustness.faults import (
    SimulatedCrash,
    crash_on_fsync,
    crash_on_replace,
    flip_bit,
    truncate_file,
)
from repro.workloads.stdio import reference_fa
from tests.conftest import STDIO_LABELED


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

    def test_saved_text_is_the_compact_document(self, tmp_path, session):
        path = tmp_path / "session.json"
        save_session(session, path)
        text = path.read_text()
        assert "\n" not in text
        assert json.loads(text) == session_to_dict(session)

    def test_indented_document_loads(self, tmp_path, session):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(session_to_dict(session), indent=2))
        restored, warnings = load_session_with_recovery(path)
        assert warnings == []
        assert _labels_of(restored) == _labels_of(session)

    def test_rejected_traces_roundtrip(self, tmp_path, stdio_traces, stdio_reference):
        stray = parse_trace("fclose(f9); fopen(f9)", trace_id="stray")
        s = CableSession(cluster_traces([*stdio_traces, stray], stdio_reference))
        assert s.clustering.rejected == (stray,)
        path = tmp_path / "session.json"
        save_session(s, path)
        assert load_session(path).clustering.rejected == (stray,)

    def test_rejected_without_ids_loads(self, tmp_path, session):
        # Documents written before rejected_ids restore id-less traces.
        data = session_to_dict(session)
        del data["checksum"]
        data["rejected"] = ["fclose(X); fopen(X)"]
        del data["rejected_ids"]
        path = tmp_path / "session.json"
        path.write_text(json.dumps(data))
        restored = load_session(path)
        assert restored.clustering.rejected == (parse_trace("fclose(X); fopen(X)"),)


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

    def test_traces_added_roundtrips(self, session):
        session.traces_added += 5
        restored = session_from_dict(session_to_dict(session))
        assert restored.traces_added == session.traces_added

    def test_document_without_traces_added_counts_stored_ids(self, session):
        data = session_to_dict(session)
        del data["traces_added"], data["checksum"]
        restored = session_from_dict(data)
        assert restored.traces_added == sum(session.clustering.class_counts)
        # An older server could have stored an added id above that count
        # (its batch's lower ids were rejected): start past it.
        data["classes"][0]["ids"][0] = "added900"
        assert session_from_dict(data).traces_added == 901

    def test_wrong_format_marker(self):
        with pytest.raises(SessionCorrupt):
            session_from_dict({"format": "something-else"})

    def test_checksum_mismatch_reported(self, session):
        data = session_to_dict(session)
        data["checksum"] = "0" * 64
        with pytest.raises(SessionCorrupt) as info:
            session_from_dict(data)
        assert "checksum" in str(info.value)




def _stdio_document() -> dict:
    traces = [
        parse_trace(text, trace_id=f"t{i}")
        for i, (text, _) in enumerate(STDIO_LABELED)
    ]
    s = CableSession(cluster_traces(traces, reference_fa()))
    s.label_traces(s.lattice.top, "good", "all")
    s.label_traces(len(s.lattice) - 1, "bad", "all")
    return session_to_dict(s)


#: Arbitrary JSON values to plant into a document.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container, key) position in a JSON tree, outermost first."""
    items = (
        node.items()
        if isinstance(node, dict)
        else enumerate(node)
        if isinstance(node, list)
        else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    document = copy.deepcopy(_stdio_document())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(document))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON)
        else:
            del parent[path[-1]]
    checksum = draw(st.sampled_from(["recompute", "drop", "keep"]))
    if checksum == "drop":
        document.pop("checksum", None)
    elif checksum == "recompute":
        document.pop("checksum", None)
        document["checksum"] = checksum_text(_payload_text(document))
    return document


class TestLoaderFuzz:
    """A structurally mutated document loads as a session or fails as
    :class:`SessionCorrupt` — never as a builtin exception."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(classes=[1]),
            lambda d: d["classes"][0].update(members=[3], ids=["t0"]),
            lambda d: d.update(label_log=[["0", "good"]]),
            lambda d: d.update(label_log=[[10**6, "good"]]),
            lambda d: d.update(operations={"inspections": "1"}),
            lambda d: d.update(traces_added="12"),
            lambda d: d.update(traces_added=True),
            lambda d: d.update(traces_added=-1),
            lambda d: d.update(traces_added=1),
            lambda d: d.update(rejected="fopen(X)"),
            lambda d: d.update(rejected=[3], rejected_ids=["r0"]),
            lambda d: d.update(rejected=["fopen(X"], rejected_ids=["r0"]),
            lambda d: d.update(rejected=["fopen(X)"], rejected_ids=[]),
            lambda d: d.update(rejected=["fopen(X)"], rejected_ids=[None]),
        ],
    )
    def test_malformed_fields_are_session_corrupt(self, tmp_path, mutate):
        document = _stdio_document()
        del document["checksum"]
        mutate(document)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SessionCorrupt):
            load_session(path)

    def test_malformed_rejected_text_is_session_corrupt(self):
        document = _stdio_document()
        document.update(rejected=["fopen(X"], rejected_ids=["r0"])
        del document["checksum"]
        with pytest.raises(SessionCorrupt):
            session_from_dict(document)

    def test_undecodable_file_is_session_corrupt(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SessionCorrupt):
            load_session(path)

    @settings(max_examples=150, deadline=None)
    @given(_mutated_documents())
    def test_mutated_document_loads_or_is_corrupt(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            path.write_text(json.dumps(document))
            try:
                session = load_session(path)
            except SessionCorrupt:
                return
        assert isinstance(session, CableSession)
        n = len(session.lattice)
        assert all(0 <= concept < n for concept, _ in session.label_log)
        assert session.traces_added >= sum(session.clustering.class_counts)
