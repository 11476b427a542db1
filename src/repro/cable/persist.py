"""Saving and restoring Cable sessions, crash-safely.

A debugging session over hundreds of trace classes spans sittings; this
module serializes everything a session needs — the reference FA, the
traces (class members, so counts survive), the traces the reference FA
rejected, the labels, and the operation counters — as a single JSON
document.  Loading re-clusters deterministically, so the lattice does not
need to be stored.

Persistence is fault-tolerant:

* saves are **atomic** (write temp + fsync + rename via
  :mod:`repro.robustness.atomicio`), with the previous file rotated to
  a ``.bak`` chain, so killing the process mid-save never loses the
  last successfully saved state;
* the document embeds a SHA-256 **checksum**, so truncation and
  bit-flips are detected on load rather than producing a silently
  wrong session;
* the loader **falls back** to the newest valid backup when the main
  file is corrupt, reporting what it did, and raises
  :class:`~repro.robustness.errors.SessionCorrupt` (with the per-file
  failure reasons) only when nothing valid remains.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.fa.serialization import fa_from_text, fa_to_text
from repro.lang.traces import parse_traces
from repro.robustness.atomicio import (
    atomic_write_text,
    backup_paths,
    checksum_text,
)
from repro.robustness.errors import InputError, ReproError, SessionCorrupt

#: Format marker for forward compatibility.
FORMAT = "cable-session/1"

#: Backup generations kept by :func:`save_session`.
DEFAULT_BACKUPS = 2


def _payload_text(data: dict) -> str:
    """The canonical text the checksum covers (everything but itself)."""
    payload = {k: v for k, v in data.items() if k != "checksum"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _session_payload(session: CableSession) -> dict:
    """The JSON-serializable form of a session, without its checksum."""
    clustering = session.clustering
    classes = []
    for o, members in enumerate(clustering.class_members):
        classes.append(
            {
                # A class's members share their events, hence their text.
                "members": [str(members[0])] * len(members),
                "ids": [t.trace_id for t in members],
                "label": session.labels.label_of(o),
            }
        )
    data = {
        "format": FORMAT,
        "reference_fa": fa_to_text(clustering.reference_fa),
        "classes": classes,
        "rejected": [str(t) for t in clustering.rejected],
        "rejected_ids": [t.trace_id for t in clustering.rejected],
        "traces_added": session.traces_added,
        "label_log": [
            [concept, label] for concept, label in session.label_log
        ],
        "operations": {
            "inspections": session.ops.inspections,
            "labelings": session.ops.labelings,
        },
    }
    return data


def session_to_dict(session: CableSession) -> dict:
    """The JSON-serializable form of a session (checksum included)."""
    data = _session_payload(session)
    data["checksum"] = checksum_text(_payload_text(data))
    return data


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_label(value: object) -> bool:
    return isinstance(value, str) and value != ""


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _validate(data: dict, path: str | None = None) -> None:
    """Structural validation; raises :class:`SessionCorrupt` with the
    precise inconsistency.

    Every field :func:`session_from_dict` reads is type-checked here, so
    a malformed document fails as :class:`SessionCorrupt` rather than as
    whatever builtin exception the rebuild would trip over.
    """
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise SessionCorrupt(
            "not a cable session document",
            path=path,
            reason=f"format={data.get('format')!r}"
            if isinstance(data, dict)
            else "not a JSON object",
        )
    stored = data.get("checksum")
    if stored is not None:
        if not isinstance(stored, str):
            raise SessionCorrupt("session checksum is not a string", path=path)
        actual = checksum_text(_payload_text(data))
        if stored != actual:
            raise SessionCorrupt(
                "session checksum mismatch (truncated or corrupted file)",
                path=path,
                reason=f"stored {stored[:12]}…, computed {actual[:12]}…",
            )
    if not isinstance(data.get("reference_fa"), str):
        raise SessionCorrupt("session has no reference FA text", path=path)
    classes = data.get("classes")
    if not isinstance(classes, list):
        raise SessionCorrupt("session has no classes list", path=path)
    seen_ids: dict[str, int] = {}
    for i, entry in enumerate(classes):
        members = entry.get("members") if isinstance(entry, dict) else None
        ids = entry.get("ids") if isinstance(entry, dict) else None
        if not _is_str_list(members) or not _is_str_list(ids):
            raise SessionCorrupt(
                "class entry lacks members/ids lists of strings",
                path=path,
                class_index=i,
            )
        label = entry.get("label")
        if label is not None and not _is_label(label):
            raise SessionCorrupt(
                "class label must be null or a non-empty string",
                path=path,
                class_index=i,
            )
        if len(members) != len(ids):
            raise SessionCorrupt(
                f"class {i} has {len(members)} member(s) but "
                f"{len(ids)} id(s)",
                path=path,
                class_index=i,
                num_members=len(members),
                num_ids=len(ids),
            )
        for trace_id in ids:
            if trace_id in seen_ids:
                raise SessionCorrupt(
                    f"duplicate trace id {trace_id!r} in classes "
                    f"{seen_ids[trace_id]} and {i}",
                    path=path,
                    trace_id=trace_id,
                    class_index=i,
                )
            if trace_id:
                seen_ids[trace_id] = i
    rejected = data.get("rejected", [])
    if not _is_str_list(rejected):
        raise SessionCorrupt("rejected must be a list of trace texts", path=path)
    rejected_ids = data.get("rejected_ids", [""] * len(rejected))
    if not _is_str_list(rejected_ids) or len(rejected_ids) != len(rejected):
        raise SessionCorrupt(
            "rejected_ids must hold one string per rejected trace", path=path
        )
    traces_added = data.get("traces_added")
    if traces_added is not None and not (
        _is_int(traces_added)
        and traces_added >= sum(len(entry["ids"]) for entry in classes)
    ):
        raise SessionCorrupt(
            "traces_added must be an integer no smaller than the number "
            "of stored traces",
            path=path,
            traces_added=repr(traces_added),
        )
    label_log = data.get("label_log", [])
    if not isinstance(label_log, list) or not all(
        isinstance(act, list)
        and len(act) == 2
        and _is_int(act[0])
        and _is_label(act[1])
        for act in label_log
    ):
        raise SessionCorrupt(
            "label_log must be a list of [concept, label] pairs", path=path
        )
    operations = data.get("operations")
    if not isinstance(operations, dict) or not all(
        _is_int(operations.get(key)) and operations[key] >= 0
        for key in ("inspections", "labelings")
    ):
        raise SessionCorrupt(
            "session operations must count inspections and labelings",
            path=path,
        )


def session_from_dict(data: dict, path: str | None = None) -> CableSession:
    """Rebuild a session from :func:`session_to_dict` output.

    The document is validated first — malformed fields, length-mismatched
    or duplicated trace ids and ``label_log`` concepts outside the rebuilt
    lattice raise :class:`SessionCorrupt` instead of being silently
    zipped away or failing later.
    """
    _validate(data, path=path)
    reference = fa_from_text(data["reference_fa"])
    texts: list[str] = []
    ids: list[str] = []
    labels: list[str | None] = []
    for entry in data["classes"]:
        texts.extend(entry["members"])
        ids.extend(entry["ids"])
        labels.extend([entry.get("label")] * len(entry["ids"]))
    # Older documents predate the rejected ids; their traces get none.
    rejected_texts = data.get("rejected", [])
    rejected_ids = data.get("rejected_ids", [""] * len(rejected_texts))
    # One parse per distinct text for the whole document: every member of
    # a class has its representative's text.
    try:
        parsed = parse_traces(texts + rejected_texts, ids + rejected_ids)
    except InputError as exc:
        raise SessionCorrupt(
            "session holds a malformed trace text", path=path, reason=exc.message
        ) from exc
    traces, rejected = parsed[: len(texts)], tuple(parsed[len(texts) :])
    labels_by_key = {
        trace.key(): label
        for trace, label in zip(traces, labels)
        if label is not None
    }
    clustering = cluster_traces(traces, reference)
    session = CableSession(
        replace(clustering, rejected=clustering.rejected + rejected)
    )
    stored = data.get("traces_added")
    if stored is None:
        # Older documents predate the counter: start it past every
        # stored id, so the next added trace cannot reuse one.
        stored = max(
            [len(traces) + len(rejected)]
            + [
                int(t.trace_id[len("added"):]) + 1
                for t in traces
                if re.fullmatch(r"added\d+", t.trace_id)
            ]
        )
    session.traces_added = stored
    for o, rep in enumerate(session.clustering.representatives):
        label = labels_by_key.get(rep.key())
        if label is not None:
            session.labels.assign([o], label)
    session.ops.inspections = data["operations"]["inspections"]
    session.ops.labelings = data["operations"]["labelings"]
    # Older documents predate the act log; they restore with an empty one.
    num_concepts = len(session.lattice)
    for concept, label in data.get("label_log", []):
        if not -num_concepts <= concept < num_concepts:
            raise SessionCorrupt(
                "label_log names a concept outside the lattice",
                path=path,
                concept=concept,
                num_concepts=num_concepts,
            )
        session.label_log.append((concept % num_concepts, label))
    return session


def save_session(
    session: CableSession,
    path: str | Path,
    backups: int = DEFAULT_BACKUPS,
) -> None:
    """Atomically write ``session`` to ``path`` as checksummed JSON.

    The previous file (if any) survives as ``<path>.bak`` (up to
    ``backups`` generations), so a crash at any instant leaves a
    loadable state behind.  The file is the compact text the checksum
    covers with the checksum appended, so the document is serialized
    once; indented documents load as well.
    """
    payload = _payload_text(_session_payload(session))
    text = f'{payload[:-1]},"checksum":"{checksum_text(payload)}"}}'
    atomic_write_text(path, text, backups=backups)


def _try_load(path: Path) -> CableSession:
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SessionCorrupt(
            "cannot read session file", path=str(path), reason=str(exc)
        ) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SessionCorrupt(
            "session file is not valid JSON (truncated write?)",
            path=str(path),
            reason=str(exc),
        ) from exc
    return session_from_dict(data, path=str(path))


def load_session_with_recovery(
    path: str | Path, backups: int = DEFAULT_BACKUPS
) -> tuple[CableSession, list[str]]:
    """Load ``path``, falling back to the newest valid backup.

    Returns ``(session, warnings)`` — ``warnings`` is empty when the
    main file loaded cleanly, and otherwise says which file failed why
    and which backup was used.  Raises :class:`SessionCorrupt` when the
    main file and every backup are unreadable.
    """
    path = Path(path)
    warnings: list[str] = []
    failures: list[str] = []
    candidates = [path] + [p for p in backup_paths(path, backups) if p.exists()]
    for candidate in candidates:
        try:
            session = _try_load(candidate)
        except ReproError as exc:
            failures.append(f"{candidate}: {exc.message}")
            warnings.append(f"cannot load {candidate}: {exc.message}")
            continue
        if candidate != path:
            warnings.append(
                f"recovered session from backup {candidate} "
                "(the main file was corrupt)"
            )
        return session, warnings
    raise SessionCorrupt(
        "session file and all backups are corrupt",
        path=str(path),
        attempts=failures,
    )


def load_session(path: str | Path) -> CableSession:
    """Read a session previously written by :func:`save_session`.

    Falls back to the newest valid ``.bak`` when the main file is
    corrupt; use :func:`load_session_with_recovery` to observe the
    recovery warnings.
    """
    session, _warnings = load_session_with_recovery(path)
    return session
