"""Clustering traces with respect to a reference FA (Section 3.2).

The formal context is:

* **O** — the traces themselves (one object per identical-event class if
  ``dedup`` is on, which is how the paper ran its experiments);
* **A** — the reference FA's transitions;
* **R** — ``(o, a) ∈ R`` iff transition ``a`` lies on some accepting
  sequence of transitions for ``o`` (computed by
  :meth:`repro.fa.automaton.FA.relation`).

With this choice, ``sim(X)`` is the number of transitions all traces of X
execute in common — the paper's flexible, specification-connected
similarity measure.

Both context-building paths (:func:`cluster_traces` and
:func:`build_trace_context`) draw their attribute and object names from
the canonical helpers :func:`transition_attribute_names` and
:func:`trace_object_names`, so the same FA always yields the same
attribute universe and object names always track the *compacted* row
index — cross-path context merge/compare, lint fingerprints, and session
resume all rely on that.

The relation phase is evaluated through
:func:`repro.parallel.relation_map`: cached per FA, and fanned out over
a worker pool when ``jobs > 1``.  The supervision knobs ride along:
``retry=`` re-attempts transient relation failures,
``task_timeout=`` bounds one evaluation's wall time, and
``on_fault="quarantine"`` completes the clustering on the survivors —
poisoned classes land in ``rejected`` *and* in the clustering's
``fault_report`` (a :class:`~repro.robustness.quarantine.RejectedReport`
whose entries carry the exhausted exception chains instead of FA
diagnoses).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.core.concepts import ConceptLattice
from repro.core.context import FormalContext
from repro.core.godin import GodinLatticeBuilder, build_lattice_godin
from repro.fa.automaton import FA
from repro.lang.traces import DedupResult, Trace, TraceKey, dedup_traces
from repro.parallel.relation import RelationMapResult, relation_map
from repro.robustness.budget import Budget
from repro.robustness.errors import ClusteringError
from repro.robustness.quarantine import RejectedReport
from repro.robustness.supervise import RetryPolicy

if TYPE_CHECKING:
    from repro.analysis.diagnostics import LintReport


def transition_attribute_names(fa: FA) -> list[str]:
    """The canonical FCA attribute universe for ``fa``'s transitions.

    ``a<index>: <transition>`` — the index prefix keeps names unique even
    when two transitions render to the same text, and the index *is* the
    transition's identity as a concept attribute.  Every context built
    against ``fa`` must use exactly these names: two paths inventing
    their own schemes yield incompatible universes that break context
    merge/compare, lint fingerprints, and session resume.
    """
    return [f"a{j}: {t}" for j, t in enumerate(fa.transitions)]


def trace_object_names(traces: Sequence[Trace]) -> list[str]:
    """Canonical context object names for an already-compacted trace list.

    ``trace_id`` when present, else ``t<position>`` where ``position`` is
    the trace's index in ``traces`` — which must be the *compacted*
    (accepted-only) list, so names never drift from row indices when some
    pool traces were rejected.
    """
    return [trace.trace_id or f"t{i}" for i, trace in enumerate(traces)]


@dataclass(frozen=True)
class TraceClustering:
    """The result of clustering traces against a reference FA.

    ``lattice.context`` objects correspond one-to-one with
    ``representatives``; ``class_members[i]`` are all the traces (including
    duplicates) that representative ``i`` stands for, so labels assigned to
    an object apply to the whole identical-event class.
    """

    reference_fa: FA
    lattice: ConceptLattice
    representatives: tuple[Trace, ...]
    class_counts: tuple[int, ...]
    class_members: tuple[tuple[Trace, ...], ...]
    rejected: tuple[Trace, ...]
    lint_report: "LintReport | None" = None
    #: Execution faults quarantined under ``on_fault="quarantine"``:
    #: traces whose relation evaluation was poisoned (their members also
    #: appear in ``rejected``).  ``None`` when no faults occurred or the
    #: run was fail-fast.
    fault_report: RejectedReport | None = None

    @property
    def num_objects(self) -> int:
        return len(self.representatives)

    def traces_of(self, objects: Iterable[int]) -> list[Trace]:
        """Representative traces for a set of object indices."""
        return [self.representatives[o] for o in sorted(objects)]

    def transitions_of(self, attrs: Iterable[int]) -> list[str]:
        """Human-readable transitions for a set of attribute indices."""
        return [self.reference_fa.describe_transition(a) for a in sorted(attrs)]


def build_trace_context(
    traces: Sequence[Trace],
    reference_fa: FA,
    jobs: int | None = None,
    *,
    retry: "RetryPolicy | int | None" = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> tuple[FormalContext, list[Trace]]:
    """Build the Section 3.2 formal context for accepted traces.

    Returns the context plus the list of traces the reference FA rejects
    (which cannot be clustered under it — the caller decides whether that
    is an error or whether those traces go to a different session).
    ``jobs``/``retry``/``task_timeout``/``on_fault`` fan the relation
    phase out over a supervised worker pool (see
    :mod:`repro.parallel`); under ``on_fault="quarantine"`` traces whose
    evaluation was poisoned land in the rejected list alongside the
    semantically rejected ones.
    """
    accepted: list[Trace] = []
    rows: list[frozenset[int]] = []
    rejected: list[Trace] = []
    relations = relation_map(
        reference_fa,
        traces,
        jobs=jobs,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
    )
    if isinstance(relations, RelationMapResult):
        relations = relations.results
    for trace, rel in zip(traces, relations):
        if rel is None:
            rejected.append(trace)
        elif rel.accepted:
            accepted.append(trace)
            rows.append(rel.executed)
        else:
            rejected.append(trace)
    context = FormalContext(
        trace_object_names(accepted),
        transition_attribute_names(reference_fa),
        rows,
    )
    return context, rejected


def extend_clustering(
    clustering: TraceClustering,
    new_traces: Sequence[Trace],
    *,
    strict: bool = False,
    budget: Budget | None = None,
    jobs: int | None = None,
    retry: "RetryPolicy | int | None" = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> TraceClustering:
    """Add traces to an existing clustering, incrementally.

    Traces identical to an existing class join that class (object indices
    are stable); genuinely new classes are inserted into the lattice with
    Godin's incremental algorithm, resuming from the existing concepts —
    the update a long-lived Cable session performs when the verifier
    reports a fresh batch of violations.

    Semantics match :func:`cluster_traces`: traces whose key matches an
    already-rejected trace are skipped outright (no re-evaluation, no
    duplicate ``rejected`` entry); newly rejected classes land in
    ``rejected`` with all their members, or raise
    :class:`~repro.robustness.errors.ClusteringError` under
    ``strict=True``; a ``budget`` bounds both the relation fan-out and
    the incremental lattice insertions.  ``retry``/``task_timeout``/
    ``on_fault`` supervise the relation fan-out; under
    ``on_fault="quarantine"`` poisoned classes join ``rejected`` and the
    returned clustering's ``fault_report`` (merged with any prior one).
    """
    reference_fa = clustering.reference_fa
    by_key = {
        rep.key(): o for o, rep in enumerate(clustering.representatives)
    }
    rejected_keys = {t.key() for t in clustering.rejected}
    counts = list(clustering.class_counts)
    members = [list(m) for m in clustering.class_members]
    representatives = list(clustering.representatives)
    rejected = list(clustering.rejected)

    with obs.span("cluster.relation", traces=len(new_traces)) as relation_span:
        # Bucket: joins of existing classes, duplicates of already-rejected
        # keys (skipped), and candidates — one relation evaluation per
        # distinct unseen key.
        candidates: dict[TraceKey, list[Trace]] = {}
        skipped_rejected = 0
        for trace in new_traces:
            key = trace.key()
            existing = by_key.get(key)
            if existing is not None:
                counts[existing] += 1
                members[existing].append(trace)
            elif key in rejected_keys:
                skipped_rejected += 1
            else:
                candidates.setdefault(key, []).append(trace)

        relations = relation_map(
            reference_fa,
            [group[0] for group in candidates.values()],
            jobs=jobs,
            budget=budget,
            retry=retry,
            task_timeout=task_timeout,
            on_fault=on_fault,
        )
        if isinstance(relations, RelationMapResult):
            fault_errors = dict(relations.failures)
            relations = relations.results
        else:
            fault_errors = {}
        fresh: list[tuple[Trace, frozenset[int]]] = []
        newly_rejected: list[Trace] = []
        fault_failures: list[tuple[Trace, BaseException]] = []
        for j, ((key, group), rel) in enumerate(
            zip(candidates.items(), relations)
        ):
            if rel is None:
                rejected_keys.add(key)
                fault_failures.extend((t, fault_errors[j]) for t in group)
            elif rel.accepted:
                by_key[key] = len(representatives)
                representatives.append(group[0])
                counts.append(len(group))
                members.append(group)
                fresh.append((group[0], rel.executed))
            else:
                newly_rejected.extend(group)
                rejected_keys.add(key)
        relation_span.set(
            classes=len(candidates),
            rejected=len(newly_rejected),
            rejected_dups=skipped_rejected,
            faults=len(fault_failures),
        )

    if strict and newly_rejected:
        raise ClusteringError(
            "reference FA rejected scenario trace(s) in strict mode",
            num_rejected=len(newly_rejected),
            trace_ids=[t.trace_id or str(t) for t in newly_rejected[:10]],
        )
    rejected.extend(newly_rejected)
    rejected.extend(t for t, _ in fault_failures)
    fault_report = clustering.fault_report
    if fault_failures:
        batch_report = RejectedReport.from_failures(fault_failures)
        fault_report = (
            batch_report
            if fault_report is None
            else fault_report.merge(batch_report)
        )

    if not fresh:
        lattice = clustering.lattice
    else:
        old_context = clustering.lattice.context
        # Reuse check: the existing context must carry the canonical
        # attribute universe for this FA, or the appended rows would be
        # indexed against a different universe than the old ones.
        canonical = tuple(transition_attribute_names(reference_fa))
        if old_context.attributes != canonical:
            raise ClusteringError(
                "clustering context attributes do not match the canonical "
                "universe of its reference FA; rebuild with cluster_traces",
                num_attributes=len(old_context.attributes),
                num_transitions=reference_fa.num_transitions,
            )
        builder = GodinLatticeBuilder.from_lattice(
            clustering.lattice, budget=budget
        )
        rows = list(old_context.rows)
        names = list(old_context.objects)
        for trace, executed in fresh:
            builder.add_object(len(rows), executed)
            rows.append(executed)
            names.append(trace.trace_id or f"t{len(rows) - 1}")
        context = FormalContext(names, old_context.attributes, rows)
        lattice = builder.build(context)

    return TraceClustering(
        reference_fa=reference_fa,
        lattice=lattice,
        representatives=tuple(representatives),
        class_counts=tuple(counts),
        class_members=tuple(tuple(m) for m in members),
        rejected=tuple(rejected),
        lint_report=clustering.lint_report,
        fault_report=fault_report,
    )


def cluster_traces(
    traces: Sequence[Trace],
    reference_fa: FA,
    dedup: bool = True,
    build: Callable[[FormalContext], ConceptLattice] = build_lattice_godin,
    strict: bool = False,
    budget: Budget | None = None,
    lint: bool = False,
    jobs: int | None = None,
    retry: "RetryPolicy | int | None" = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> TraceClustering:
    """Cluster ``traces`` with respect to ``reference_fa``.

    ``dedup=True`` (the paper's setting) clusters one representative per
    identical-event class; ``build`` selects the lattice construction
    (Godin's incremental algorithm by default).

    Traces the reference FA rejects are quarantined in ``rejected`` and
    clustering proceeds on the accepted subset (graceful degradation);
    ``strict=True`` restores fail-fast behaviour by raising
    :class:`~repro.robustness.errors.ClusteringError` instead.  A
    ``budget`` bounds the relation fan-out (wall clock) and the lattice
    construction (honoured by the default Godin builder; an over-budget
    build raises :class:`~repro.robustness.errors.BudgetExceeded` with a
    resumable checkpoint).

    ``jobs`` fans the relation phase out over a process pool (``1``/
    ``None`` = serial, ``0`` = one worker per CPU); results are
    bit-identical to serial whatever the setting.
    ``retry``/``task_timeout``/``on_fault`` supervise the fan-out (see
    :func:`repro.parallel.parallel_map`): under ``on_fault="quarantine"``
    a poisoned relation evaluation does not abort the clustering —
    the class's members land in ``rejected`` and the exhausted
    exception chains in ``fault_report``.

    ``lint=True`` runs the static spec-lint passes
    (:func:`repro.analysis.lint.lint_reference`) over ``reference_fa``
    and the trace corpus *before* clustering; the report rides along on
    the result as ``lint_report``, and under ``strict=True`` lint
    *errors* abort the run with
    :class:`~repro.robustness.errors.InputError`.
    """
    lint_report: LintReport | None = None
    if lint:
        # Imported here: repro.analysis imports this package's modules.
        from repro.analysis.lint import lint_reference, raise_on_errors

        lint_report = lint_reference(reference_fa, traces)
        if strict:
            raise_on_errors(lint_report)

    with obs.span("cluster.relation", traces=len(traces)) as relation_span:
        if dedup:
            groups: DedupResult = dedup_traces(traces)
            pool = list(groups.representatives)
            counts = list(groups.counts)
            members = list(groups.members)
        else:
            pool = list(traces)
            counts = [1] * len(pool)
            members = [(t,) for t in pool]

        relations = relation_map(
            reference_fa,
            pool,
            jobs=jobs,
            budget=budget,
            retry=retry,
            task_timeout=task_timeout,
            on_fault=on_fault,
        )
        if isinstance(relations, RelationMapResult):
            fault_errors = dict(relations.failures)
            relations = relations.results
        else:
            fault_errors = {}
        accepted_idx: list[int] = []
        rejected: list[Trace] = []
        rows: list[frozenset[int]] = []
        fault_failures: list[tuple[Trace, BaseException]] = []
        for i, rel in enumerate(relations):
            if rel is None:
                fault_failures.extend(
                    (t, fault_errors[i]) for t in members[i]
                )
            elif rel.accepted:
                accepted_idx.append(i)
                rows.append(rel.executed)
            else:
                rejected.extend(members[i])
        relation_span.set(
            classes=len(pool),
            rejected=len(rejected),
            faults=len(fault_failures),
        )

    if strict and rejected:
        raise ClusteringError(
            "reference FA rejected scenario trace(s) in strict mode",
            num_rejected=len(rejected),
            trace_ids=[t.trace_id or str(t) for t in rejected[:10]],
        )
    rejected.extend(t for t, _ in fault_failures)
    fault_report = (
        RejectedReport.from_failures(fault_failures)
        if fault_failures
        else None
    )

    representatives = tuple(pool[i] for i in accepted_idx)
    context = FormalContext(
        trace_object_names(representatives),
        transition_attribute_names(reference_fa),
        rows,
    )
    if budget is not None and build is build_lattice_godin:
        lattice = build_lattice_godin(context, budget=budget)
    else:
        lattice = build(context)
    return TraceClustering(
        reference_fa=reference_fa,
        lattice=lattice,
        representatives=representatives,
        class_counts=tuple(counts[i] for i in accepted_idx),
        class_members=tuple(members[i] for i in accepted_idx),
        rejected=tuple(rejected),
        lint_report=lint_report,
        fault_report=fault_report,
    )
