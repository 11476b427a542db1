"""A scriptable command-line interface for Cable.

The original Cable was a Dotty GUI; this CLI exposes the same operations
as line commands so sessions can be run interactively or scripted (and
tested).  Start it with a trace file (one trace per line, events separated
by ``;``) and optionally a reference-FA file in the format of
:mod:`repro.fa.serialization`; without an FA, one is learned from the
traces with sk-strings — the miner-FA default of Section 2.2.

Commands::

    lattice                     show the colored lattice
    inspect N                   inspect concept N (counted operation)
    fa N [all|unlabeled|=LBL]   Show FA for a selection of concept N
    trans N [sel]               Show transitions
    traces N [sel]              Show traces
    label N LBL [sel]           Label traces (counted operation)
    focus N unordered           focus concept N under the Unordered template
    focus N seed SYMBOL         ... under the Seed-order template
    focus N name VAR            ... under the Name-projection template
    focus N fa FILE             ... under an FA loaded from FILE
    focus N regex EXPR...       ... under an FA compiled from a regex
    endfocus                    merge the focus session back
    refine TEMPLATE [ARG]       sharpen the whole lattice in place by
                                apposing the distinctions of an FA named
                                as for focus (unordered, seed SYMBOL, ...)
    rank [N]                    the N most suspicious concepts (deviance)
    flow                        label-flow analysis of this session's acts
                                (conflicts, implied/redundant labels)
    addtraces FILE              fold new traces into the session
    undo                        undo the last labeling
    state                       operation counts + labeling progress
    good [LBL]                  print the FA learned from traces labeled LBL
    dot FILE                    write the colored lattice as Graphviz dot
    save FILE                   write "<label>\\t<trace>" lines for all classes
    savesession FILE            persist the whole session as JSON
    quit

(Restore a saved session by starting the CLI with ``--session FILE``.)

``cable lint ...`` dispatches to the static spec-lint subcommand
(:mod:`repro.analysis.cli`): lint catalog specifications or FA files
without running the dynamic pipeline (``--semantic`` adds the SEM/LBL
language-level passes).  ``cable diff SPEC-A SPEC-B`` compares two
specifications at the language level and prints witness traces for each
disagreement direction (same module).  ``cable profile ...`` runs one
catalog spec (or the ``animals`` example) under full tracing and prints
a phase-time/metric table (:mod:`repro.cable.profile`).  ``cable
selfcheck`` turns the linter on the repo itself: the CC conformance
passes (:mod:`repro.analysis.conformance`) scan the source tree for the
staleness/race/plumbing bug classes and gate on
``tools/baselines/conformance.json``.  ``cable serve`` boots the
multi-tenant HTTP server (:mod:`repro.service`).

``--json`` (before the positional arguments) makes the startup banner —
including any backup-recovery warnings from ``--session FILE`` — a
single machine-readable JSON line on stdout.

Observability: ``--trace FILE`` / ``--metrics FILE`` / ``--chrome FILE``
before the positional arguments enable :mod:`repro.obs` for the whole
session — every lattice build, learner run, and counted operation is
exported when the CLI exits (equivalent to setting ``REPRO_OBS``).

Parallelism: ``--jobs N`` (also before the positional arguments) fans
the clustering relation phase out over a process pool — for the initial
build and every later ``addtraces`` — with ``0`` meaning one worker per
CPU.  See ``docs/performance.md``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from repro.cable.focus import template_fa
from repro.cable.session import CableSession, SelectionError, parse_selection
from repro.cable.views import lattice_to_dot, render_lattice
from repro.robustness.errors import InputError, ReproError
from repro.core.trace_clustering import cluster_traces
from repro.fa.automaton import FA
from repro.fa.serialization import fa_from_text
from repro.lang.traces import Trace, parse_traces
from repro.learners.sk_strings import learn_sk_strings


class CableCLI:
    """The command interpreter; one instance per top-level session."""

    def __init__(self, session: CableSession, out=None) -> None:
        self.stack: list[CableSession] = [session]
        self.out = out or sys.stdout

    @property
    def session(self) -> CableSession:
        return self.stack[-1]

    def emit(self, text: str) -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------------ #

    def run_line(self, line: str) -> bool:
        """Execute one command line; returns False on ``quit``."""
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            return True
        cmd, *args = parts
        try:
            return self._dispatch(cmd, args)
        except (
            ReproError,
            SelectionError,
            ValueError,
            KeyError,
            IndexError,
            OSError,
        ) as exc:
            # Bad inputs (including corrupt files and over-budget builds)
            # are reported, never fatal: the session stays alive.
            self.emit(f"error: {exc}")
            return True

    def _dispatch(self, cmd: str, args: list[str]) -> bool:
        if cmd in ("quit", "exit"):
            return False
        if cmd == "help":
            self.emit(__doc__ or "")
        elif cmd == "lattice":
            if args and args[0] == "tree":
                from repro.cable.views import render_lattice_tree

                self.emit(render_lattice_tree(self.session))
            else:
                self.emit(render_lattice(self.session))
        elif cmd == "inspect":
            summary = self.session.inspect(int(args[0]))
            self.emit(summary.render())
        elif cmd == "fa":
            which = parse_selection(args[1] if len(args) > 1 else None)
            self.emit(self.session.show_fa(int(args[0]), which).pretty())
        elif cmd == "trans":
            which = parse_selection(args[1] if len(args) > 1 else None)
            for t in self.session.show_transitions(int(args[0]), which):
                self.emit(f"  {t}")
        elif cmd == "traces":
            which = parse_selection(args[1] if len(args) > 1 else None)
            for t in self.session.show_traces(int(args[0]), which):
                self.emit(f"  {t}")
        elif cmd == "label":
            which = parse_selection(
                args[2] if len(args) > 2 else None, default="unlabeled"
            )
            n = self.session.label_traces(int(args[0]), args[1], which)
            self.emit(f"labeled {n} trace class(es) {args[1]!r}")
        elif cmd == "focus":
            self._focus(int(args[0]), args[1:])
        elif cmd == "refine":
            self._refine(args)
        elif cmd == "rank":
            self._rank(int(args[0]) if args else 5)
        elif cmd == "flow":
            from repro.analysis.semantic import label_flow_for_session

            result = label_flow_for_session(self.session)
            self.emit(result.report.render_text())
            if result.conflicts:
                self.emit(
                    f"{len(result.conflicts)} labeling conflict(s) — "
                    "the label store kept whichever act came last"
                )
        elif cmd == "addtraces":
            self._addtraces(args[0])
        elif cmd == "savesession":
            from repro.cable.persist import save_session

            save_session(self.session, args[0])
            self.emit(f"session saved to {args[0]}")
        elif cmd == "endfocus":
            if len(self.stack) == 1:
                self.emit("error: not in a focus session")
            else:
                focused = self.stack.pop()
                changed = focused.end()  # type: ignore[attr-defined]
                self.emit(f"focus ended; {changed} label(s) merged back")
        elif cmd == "undo":
            self.emit("undone" if self.session.labels.undo() else "nothing to undo")
        elif cmd == "state":
            ops = self.session.ops
            unlabeled = len(self.session.labels.unlabeled())
            self.emit(
                f"operations: {ops.total} "
                f"(inspect {ops.inspections}, label {ops.labelings}); "
                f"{unlabeled} trace class(es) unlabeled"
            )
        elif cmd == "good":
            label = args[0] if args else "good"
            self.emit(self.session.check_labeling(label).pretty())
        elif cmd == "dot":
            with open(args[0], "w") as fh:
                fh.write(lattice_to_dot(self.session))
            self.emit(f"wrote {args[0]}")
        elif cmd == "save":
            with open(args[0], "w") as fh:
                for o, rep in enumerate(self.session.clustering.representatives):
                    label = self.session.labels.label_of(o) or "-"
                    fh.write(f"{label}\t{rep}\n")
            self.emit(f"wrote {args[0]}")
        else:
            self.emit(f"error: unknown command {cmd!r} (try help)")
        return True

    def _template_fa(self, args: list[str], traces: Iterable[Trace]) -> FA:
        """The FA a ``focus``/``refine`` command names (``TEMPLATE
        [ARG...]``, default ``unordered``); ``fa`` reads its FA text
        from the file ARG."""
        kind = args[0] if args else "unordered"
        arg = " ".join(args[1:])
        if kind == "fa" and arg:
            with open(arg) as fh:
                arg = fh.read()
        return template_fa(kind, arg, traces)

    def _focus(self, concept: int, args: list[str]) -> None:
        fa = self._template_fa(args, self.session.show_traces(concept))
        focused = self.session.focus(concept, fa)
        if focused.unclustered:
            self.emit(
                f"note: {len(focused.unclustered)} trace class(es) rejected "
                "by the focus FA stay with the parent session"
            )
        self.stack.append(focused)
        self.emit(
            f"focused on concept {concept} "
            f"({len(focused.clustering.representatives)} trace classes, "
            f"{len(focused.lattice)} concepts)"
        )

    def _refine(self, args: list[str]) -> None:
        from repro.cable.refine import refine_session

        if len(self.stack) > 1:
            raise ValueError("end the focus session before refining")
        fa = self._template_fa(args, self.session.clustering.representatives)
        concepts = refine_session(self.session, fa)
        self.emit(f"lattice refined: now {concepts} concepts (labels kept)")

    def _rank(self, count: int) -> None:
        from repro.rank.scores import rank_concepts

        self.emit("most suspicious concepts (deviance score):")
        for c, score, traces in rank_concepts(self.session.clustering)[:count]:
            state = self.session.concept_state(c)
            self.emit(
                f"  #{c:<4d} score={score:.3f} traces={traces:<4d} [{state.name}]"
            )

    def _addtraces(self, path: str) -> None:
        if len(self.stack) > 1:
            raise ValueError("end the focus session before adding traces")
        with open(path) as fh:
            texts = [line.strip() for line in fh if line.strip()]
        traces = parse_traces(
            texts, self.session.new_trace_ids(len(texts)), standardize=True
        )
        added = self.session.add_traces(traces)
        self.emit(
            f"added {len(traces)} trace(s): {added} new class(es), "
            f"lattice now has {len(self.session.lattice)} concepts"
        )

    def run(self, lines: Iterable[str]) -> None:
        for line in lines:
            if not self.run_line(line):
                break


def build_session(
    trace_path: str,
    fa_path: str | None,
    jobs: int | None = None,
    retries: int | None = None,
    on_fault: str = "raise",
) -> CableSession:
    """Load traces (and optionally a reference FA) and build a session.

    Trace names are standardized (``X, Y, ...`` by first appearance), as
    the miner front end and the verifier both do, so traces differing
    only in concrete object ids form one class.  ``jobs`` fans the
    clustering relation phase out over a process pool and sticks to the
    session for later ``addtraces`` updates; ``retries``/``on_fault``
    supervise those fan-outs (``on_fault="quarantine"`` keeps the
    session alive when a relation evaluation is poisoned — the class
    lands in the rejected set with its exception chain).
    """
    with open(trace_path) as fh:
        texts = [line.strip() for line in fh if line.strip()]
    traces = parse_traces(texts, standardize=True)
    if fa_path:
        with open(fa_path) as fh:
            reference = fa_from_text(fh.read())
    else:
        reference = learn_sk_strings(traces, k=2, s=1.0).fa
    clustering = cluster_traces(
        traces, reference, jobs=jobs, retry=retries, on_fault=on_fault
    )
    if clustering.fault_report is not None:
        print(
            f"warning: {len(clustering.fault_report)} trace class(es) "
            "quarantined — evaluation failed; re-run with more --retries "
            "or inspect the worker traceback",
            file=sys.stderr,
        )
    return CableSession(clustering, jobs=jobs, retries=retries, on_fault=on_fault)


def _pop_global_options(
    argv: list[str],
) -> tuple[list[str], dict[str, str], int | None, int | None, str, bool]:
    """Strip leading ``--trace/--metrics/--chrome FILE``, ``--jobs N``,
    ``--retries N``, ``--on-fault MODE`` option pairs and the bare
    ``--json`` flag; returns ``(rest, obs_paths, jobs, retries,
    on_fault, json_mode)``."""
    paths: dict[str, str] = {}
    jobs: int | None = None
    retries: int | None = None
    on_fault = "raise"
    json_mode = False
    rest = list(argv)
    option_keys = {"--trace": "trace_path", "--metrics": "metrics_path",
                   "--chrome": "chrome_path"}
    flags = ("--jobs", "--retries", "--on-fault")
    while rest and (
        rest[0] == "--json"
        or (len(rest) >= 2 and (rest[0] in option_keys or rest[0] in flags))
    ):
        if rest[0] == "--json":
            json_mode = True
            del rest[:1]
            continue
        if rest[0] == "--jobs":
            try:
                jobs = int(rest[1])
            except ValueError:
                raise InputError(
                    "--jobs expects an integer (0 = one worker per CPU)",
                    value=rest[1],
                ) from None
        elif rest[0] == "--retries":
            try:
                retries = int(rest[1])
            except ValueError:
                raise InputError(
                    "--retries expects an integer (extra attempts per task)",
                    value=rest[1],
                ) from None
            if retries < 0:
                raise InputError("--retries must be >= 0", value=retries)
        elif rest[0] == "--on-fault":
            from repro.parallel.pool import FAULT_MODES

            if rest[1] not in FAULT_MODES:
                raise InputError(
                    "--on-fault expects one of: " + ", ".join(FAULT_MODES),
                    value=rest[1],
                )
            on_fault = rest[1]
        else:
            paths[option_keys[rest[0]]] = rest[1]
        del rest[:2]
    return rest, paths, jobs, retries, on_fault, json_mode


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "diff":
        from repro.analysis.cli import diff_main

        return diff_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.cable.profile import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "selfcheck":
        from repro.analysis.conformance.cli import selfcheck_main

        return selfcheck_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    try:
        argv, obs_paths, jobs, retries, on_fault, json_mode = (
            _pop_global_options(argv)
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if obs_paths:
        from repro import obs

        obs.configure(**obs_paths)
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: cable [--json] [--trace F] [--metrics F] [--chrome F] "
            "[--jobs N] [--retries N] [--on-fault raise|quarantine] "
            "TRACE_FILE [FA_FILE]  |  cable --session FILE"
            "  |  cable lint ...  |  cable diff A B  |  cable profile SPEC ..."
            "  |  cable selfcheck ...  |  cable serve ...",
            file=sys.stderr,
        )
        print(__doc__, file=sys.stderr)
        return 0 if argv else 2
    restored_from: str | None = None
    recovery_warnings: list[str] = []
    try:
        if argv[0] == "--session":
            from repro.cable.persist import load_session_with_recovery

            session, recovery_warnings = load_session_with_recovery(argv[1])
            restored_from = argv[1]
            if not json_mode:
                # JSON mode reports the warnings in the startup document
                # below — a machine attaching a session must see them on
                # stdout, not on a stderr nobody parses.
                for warning in recovery_warnings:
                    print(f"warning: {warning}", file=sys.stderr)
            session.jobs = jobs
            session.retries = retries
            session.on_fault = on_fault
        else:
            session = build_session(
                argv[0],
                argv[1] if len(argv) > 1 else None,
                jobs=jobs,
                retries=retries,
                on_fault=on_fault,
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cli = CableCLI(session)
    if json_mode:
        import json as _json

        cli.emit(
            _json.dumps(
                {
                    "classes": session.clustering.num_objects,
                    "concepts": len(session.lattice),
                    "restored_from": restored_from,
                    "warnings": recovery_warnings,
                }
            )
        )
    else:
        cli.emit(
            f"cable: {session.clustering.num_objects} trace classes, "
            f"{len(session.lattice)} concepts; type 'help' for commands"
        )
    try:
        cli.run(iter(sys.stdin.readline, ""))
    except KeyboardInterrupt:
        pass
    if obs_paths:
        from repro import obs

        obs.shutdown()  # flush the session's exporters now, not at exit
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
