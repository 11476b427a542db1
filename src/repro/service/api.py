"""The Cable verb set as JSON request handlers.

:class:`SessionService` translates between JSON payloads and the
:class:`~repro.cable.session.CableSession` API — one method per Cable
verb (inspect, label, fa, transitions, traces, flow, focus, endfocus,
addtraces, save, state, good, rank, lattice), plus the spec-level
``diff``.  It is transport-agnostic: the HTTP server calls
:meth:`handle_verb` from a request thread, the tests call it directly,
and every verb runs inside :meth:`SessionManager.run` so one session's
verbs serialize while distinct sessions proceed in parallel.

Per-request supervision rides in the payload::

    {"concept": 3, "label": "good",
     "budget": {"wall_seconds": 5.0, "max_concepts": 20000},
     "task_timeout": 2.0, "on_fault": "quarantine"}

and is plumbed through to the clustering fan-outs, so one runaway
request degrades (``BudgetExceeded`` with a resumable checkpoint)
instead of wedging the server.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.cable.focus import template_fa
from repro.cable.persist import save_session
from repro.cable.session import parse_selection
from repro.cable.views import render_lattice
from repro.fa.serialization import fa_from_text
from repro.lang.traces import parse_traces
from repro.parallel.pool import FAULT_MODES
from repro.robustness.budget import Budget
from repro.robustness.errors import InputError
from repro.service.lifecycle import SessionRecord
from repro.service.manager import SessionManager

#: The verbs :meth:`SessionService.handle_verb` dispatches.
VERBS = (
    "inspect",
    "lattice",
    "label",
    "fa",
    "transitions",
    "traces",
    "flow",
    "focus",
    "endfocus",
    "addtraces",
    "save",
    "suspend",
    "state",
    "good",
    "rank",
)


def parse_budget(raw: Any) -> Budget | None:
    """A ``Budget`` from its JSON form (``None`` passes through)."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InputError(
            "budget must be an object with wall_seconds/max_concepts/"
            "max_objects",
            budget=repr(raw),
        )
    allowed = {"wall_seconds", "max_concepts", "max_objects"}
    unknown = set(raw) - allowed
    if unknown:
        raise InputError(
            "unknown budget field(s)", fields=sorted(unknown)
        )
    try:
        return Budget(**{k: raw[k] for k in allowed if k in raw})
    except ValueError as exc:
        raise InputError("bad budget", reason=str(exc)) from exc


def _supervision(payload: dict[str, Any]) -> dict[str, Any]:
    """Extract the per-request supervision knobs from a payload."""
    on_fault = payload.get("on_fault")
    if on_fault is not None and on_fault not in FAULT_MODES:
        raise InputError(
            "on_fault must be one of: " + ", ".join(FAULT_MODES),
            on_fault=on_fault,
        )
    task_timeout = payload.get("task_timeout")
    if task_timeout is not None and (
        not isinstance(task_timeout, (int, float)) or task_timeout <= 0
    ):
        raise InputError(
            "task_timeout must be a positive number",
            task_timeout=task_timeout,
        )
    return {
        "budget": parse_budget(payload.get("budget")),
        "task_timeout": task_timeout,
        "on_fault": on_fault,
    }


def _session_id(payload: dict[str, Any]) -> str | None:
    """The optional ``session`` id from a payload, type-checked.

    Anything non-string would otherwise surface as a ``TypeError``
    deep in the manager's id validation — outside the error taxonomy,
    so the connection would drop with no HTTP response at all.
    """
    session = payload.get("session")
    if session is not None and not isinstance(session, str):
        raise InputError(
            "'session' must be a string id", session=repr(session)
        )
    return session


def _concept(payload: dict[str, Any]) -> int:
    concept = payload.get("concept")
    if not isinstance(concept, int) or isinstance(concept, bool):
        raise InputError(
            "request needs an integer 'concept'", concept=repr(concept)
        )
    return concept


class SessionService:
    """The verb layer: JSON payloads in, JSON-serializable dicts out."""

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager

    # ------------------------------------------------------------------ #
    # session management verbs
    # ------------------------------------------------------------------ #

    def create(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /sessions`` — cluster traces into a new session."""
        traces = payload.get("traces")
        if not isinstance(traces, list) or not all(
            isinstance(t, str) for t in traces
        ):
            raise InputError(
                "create needs 'traces': a list of trace strings"
            )
        fa_text = payload.get("fa")
        if fa_text is not None and not isinstance(fa_text, str):
            raise InputError(
                "create 'fa' must be FA text (a string)", fa=repr(fa_text)
            )
        record = self.manager.create(
            traces,
            fa_text,
            session_id=_session_id(payload),
            **_supervision(payload),
        )
        return self.manager.info(record.session_id)

    def attach(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /sessions/attach`` — load a persisted session file.

        The response carries any backup-recovery ``warnings`` — a
        server attaching sessions must see them in the JSON, not on a
        stderr nobody reads.
        """
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise InputError("attach needs 'path': a session file path")
        record = self.manager.attach(
            path, session_id=_session_id(payload)
        )
        return self.manager.info(record.session_id)

    def list_sessions(self) -> dict[str, Any]:
        return {"sessions": self.manager.list_sessions()}

    def info(self, session_id: str) -> dict[str, Any]:
        return self.manager.info(session_id)

    def kill(self, session_id: str) -> dict[str, Any]:
        self.manager.kill(session_id)
        return {"session": session_id, "state": "dead"}

    # ------------------------------------------------------------------ #
    # Cable verbs
    # ------------------------------------------------------------------ #

    def handle_verb(
        self, session_id: str, verb: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Dispatch one Cable verb inside the session's lock."""
        handler = getattr(self, f"_verb_{verb}", None)
        if verb not in VERBS or handler is None:
            raise InputError(
                "unknown verb", verb=verb, known=list(VERBS)
            )
        with obs.span("service.verb", verb=verb, session=session_id):
            if verb == "suspend":
                # Suspension takes the store's eviction path, not the
                # run() path (run would mark the session busy).
                return handler(session_id, payload)
            return self.manager.run(
                session_id, lambda record: handler(record, payload)
            )

    def _verb_suspend(
        self, session_id: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        suspended = self.manager.suspend(session_id)
        return {"session": session_id, "suspended": suspended}

    def _verb_inspect(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        summary = record.current.inspect(_concept(payload))
        return {
            "concept": summary.concept,
            "state": summary.state.name,
            "color": summary.state.color,
            "num_traces": summary.num_traces,
            "num_unlabeled": summary.num_unlabeled,
            "labels_present": sorted(summary.labels_present),
            "similarity": summary.similarity,
            "transitions": list(summary.transitions),
            "children": sorted(summary.children),
            "parents": sorted(summary.parents),
        }

    def _verb_lattice(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        session = record.current
        concepts = [
            {
                "concept": c,
                "state": session.concept_state(c).name,
                "extent": extent.bit_count(),
            }
            for c, extent in enumerate(session.lattice.extent_masks)
        ]
        return {
            "concepts": concepts,
            "rendered": render_lattice(session),
            "focused": record.focused,
        }

    def _verb_label(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        label = payload.get("label")
        if not isinstance(label, str) or not label:
            raise InputError("label verb needs a non-empty 'label'")
        which = parse_selection(payload.get("which"), default="unlabeled")
        labeled = record.current.label_traces(
            _concept(payload), label, which
        )
        return {"labeled": labeled, "done": record.current.done()}

    def _verb_fa(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        which = parse_selection(payload.get("which"))
        fa = record.current.show_fa(_concept(payload), which)
        return {"fa": fa.pretty()}

    def _verb_transitions(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        which = parse_selection(payload.get("which"))
        return {
            "transitions": record.current.show_transitions(
                _concept(payload), which
            )
        }

    def _verb_traces(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        which = parse_selection(payload.get("which"))
        return {
            "traces": [
                str(t)
                for t in record.current.show_traces(
                    _concept(payload), which
                )
            ]
        }

    def _verb_flow(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        from repro.analysis.semantic import label_flow_for_session

        result = label_flow_for_session(
            record.current, budget=parse_budget(payload.get("budget"))
        )
        return {"conflicts": len(result.conflicts), "flow": result.to_dict()}

    def _verb_focus(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        concept = _concept(payload)
        session = record.current
        fa = template_fa(
            payload.get("template", "unordered"),
            payload.get("arg"),
            session.show_traces(concept),
        )
        focused = session.focus(concept, fa)
        record.stack.append(focused)
        return {
            "depth": len(record.stack) - 1,
            "classes": focused.clustering.num_objects,
            "concepts": len(focused.lattice),
            "unclustered": len(focused.unclustered),
        }

    def _verb_endfocus(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        if not record.focused:
            raise InputError(
                "not in a focus session", session=record.session_id
            )
        focused = record.stack.pop()
        merged = focused.end()
        return {"merged": merged, "depth": len(record.stack) - 1}

    def _verb_addtraces(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        if record.focused:
            raise InputError(
                "end the focus session before adding traces",
                session=record.session_id,
            )
        raw = payload.get("traces")
        if not isinstance(raw, list) or not all(
            isinstance(t, str) for t in raw
        ):
            raise InputError(
                "addtraces needs 'traces': a list of trace strings"
            )
        session = record.session
        traces = parse_traces(
            raw, session.new_trace_ids(len(raw)), standardize=True
        )
        supervision = _supervision(payload)
        added = session.add_traces(
            traces,
            budget=supervision["budget"],
            task_timeout=supervision["task_timeout"],
            on_fault=supervision["on_fault"],
        )
        return {
            "added": added,
            "classes": session.clustering.num_objects,
            "concepts": len(session.lattice),
        }

    def _verb_save(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        if record.focused:
            raise InputError(
                "end the focus session before saving",
                session=record.session_id,
            )
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            raise InputError("save 'path' must be a string", path=repr(path))
        if path is None:
            target = record.path
        else:
            # Client-supplied targets go through path confinement: on a
            # non-loopback bind they must stay inside the store dir.
            target = self.manager.resolve_user_path(path)
        save_session(record.session, target)
        return {"saved": str(target)}

    def _verb_state(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        session = record.current
        return {
            "operations": {
                "total": session.ops.total,
                "inspections": session.ops.inspections,
                "labelings": session.ops.labelings,
            },
            "unlabeled": session.labels.unlabeled_mask.bit_count(),
            "classes": session.clustering.num_objects,
            "concepts": len(session.lattice),
            "done": session.done(),
            "focused": record.focused,
        }

    def _verb_good(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        label = payload.get("label", "good")
        if not isinstance(label, str) or not label:
            raise InputError("good verb needs a string 'label'")
        return {"fa": record.current.check_labeling(label).pretty()}

    def _verb_rank(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        from repro.rank.scores import rank_concepts

        count = payload.get("count", 5)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise InputError("rank 'count' must be a positive integer")
        session = record.current
        return {
            "ranked": [
                {
                    "concept": c,
                    "score": score,
                    "traces": traces,
                    "state": session.concept_state(c).name,
                }
                for c, score, traces in rank_concepts(session.clustering)[:count]
            ]
        }

    # ------------------------------------------------------------------ #
    # spec-level diff (no session involved)
    # ------------------------------------------------------------------ #

    def diff(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /diff`` — language-level spec comparison.

        Operands are catalog spec names (``{"left": "XtFree"}``) or
        inline FA text (``{"left_text": "..."}``).
        """
        from repro.analysis.semantic import diff_fas

        with obs.span("service.diff"):
            left_name, left_fa = _diff_operand(payload, "left")
            right_name, right_fa = _diff_operand(payload, "right")
            diff = diff_fas(
                left_fa,
                right_fa,
                left_name,
                right_name,
                dead_transitions=not payload.get("no_dead", False),
            )
            return {
                "diff": diff.to_dict(),
                "summary": diff.report.counts(),
            }


def _diff_operand(payload: dict[str, Any], side: str) -> tuple[str, Any]:
    """Resolve one diff operand: catalog name or inline FA text."""
    name = payload.get(side)
    text = payload.get(f"{side}_text")
    if isinstance(text, str) and text:
        return (name or f"<{side}>", fa_from_text(text))
    if isinstance(name, str) and name:
        from repro.workloads.specs_catalog import spec_by_name

        return (name, spec_by_name(name).debugged_fa())
    raise InputError(
        f"diff needs '{side}' (catalog spec name) or '{side}_text' (FA text)"
    )


__all__ = [
    "SessionService",
    "VERBS",
    "parse_budget",
    "parse_selection",
]
