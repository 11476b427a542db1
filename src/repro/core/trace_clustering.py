"""Clustering traces with respect to a reference FA (Section 3.2).

The formal context is:

* **O** — one representative per identical-event class of the traces,
  which is how the paper ran its experiments;
* **A** — the reference FA's transitions;
* **R** — ``(o, a) ∈ R`` iff transition ``a`` lies on some accepting
  sequence of transitions for ``o`` (computed by
  :meth:`repro.fa.automaton.FA.relation`).

With this choice, ``sim(X)`` is the number of transitions all traces of X
execute in common — the paper's flexible, specification-connected
similarity measure.

:func:`cluster_traces` and :func:`extend_clustering` share one body: it
splits the classes into accepted, rejected and faulted, and builds the
lattice with :func:`~repro.core.godin.build_lattice_godin`, on from the
prior lattice when extending.  Extending a clustering therefore equals
clustering all its traces at once, concept for concept.  Attribute and
object names come from the canonical helpers
:func:`transition_attribute_names` and :func:`trace_object_names`, so the
same FA always yields the same attribute universe and object names
always track the *compacted* row index — lint fingerprints and session
resume rely on that.

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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.core.concepts import ConceptLattice
from repro.core.context import FormalContext
from repro.core.godin import build_lattice_godin
from repro.fa.automaton import FA
from repro.lang.traces import Trace, dedup_traces
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


def _cluster(
    prior: TraceClustering | None,
    traces: Sequence[Trace],
    reference_fa: FA,
    *,
    strict: bool,
    budget: Budget | None,
    jobs: int | None,
    retry: "RetryPolicy | int | None",
    task_timeout: float | None,
    on_fault: str,
    lint_report: "LintReport | None",
) -> TraceClustering:
    """The one clustering body: ``prior`` (``None`` for a fresh
    clustering) extended by ``traces``.

    Each identical-event class of ``traces`` joins the prior class with
    its key, is skipped when the key was already rejected, or goes to
    the relation fan-out once.  Accepted classes become new objects, in
    first-occurrence order, and the lattice is built on from the prior
    one by :func:`build_lattice_godin`, which gives the same lattice,
    concept ids included, as clustering everything at once.
    """
    attributes = transition_attribute_names(reference_fa)
    if prior is None:
        representatives: list[Trace] = []
        counts: list[int] = []
        members: list[tuple[Trace, ...]] = []
        rejected: list[Trace] = []
        rows: list[frozenset[int]] = []
        fault_report = None
    else:
        # The appended rows must be indexed against the universe the
        # old ones were.
        old_context = prior.lattice.context
        if old_context.attributes != tuple(attributes):
            raise ClusteringError(
                "clustering context attributes do not match the canonical "
                "universe of its reference FA; rebuild with cluster_traces",
                num_attributes=len(old_context.attributes),
                num_transitions=reference_fa.num_transitions,
            )
        representatives = list(prior.representatives)
        counts = list(prior.class_counts)
        members = list(prior.class_members)
        rejected = list(prior.rejected)
        rows = list(old_context.rows)
        fault_report = prior.fault_report
    by_key = {rep.key(): o for o, rep in enumerate(representatives)}
    rejected_keys = {t.key() for t in rejected}

    with obs.span("cluster.relation", traces=len(traces)) as relation_span:
        classes = dedup_traces(traces)
        candidates: list[int] = []
        skipped_rejected = 0
        for c, rep in enumerate(classes.representatives):
            key = rep.key()
            existing = by_key.get(key)
            if existing is not None:
                counts[existing] += classes.counts[c]
                members[existing] += classes.members[c]
            elif key in rejected_keys:
                skipped_rejected += classes.counts[c]
            else:
                candidates.append(c)

        relations = relation_map(
            reference_fa,
            [classes.representatives[c] for c in candidates],
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
        newly_rejected: list[Trace] = []
        fault_failures: list[tuple[Trace, BaseException]] = []
        for j, (c, rel) in enumerate(zip(candidates, relations)):
            if rel is None:
                fault_failures.extend(
                    (t, fault_errors[j]) for t in classes.members[c]
                )
            elif rel.accepted:
                representatives.append(classes.representatives[c])
                counts.append(classes.counts[c])
                members.append(classes.members[c])
                rows.append(rel.executed)
            else:
                newly_rejected.extend(classes.members[c])
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
    rejected += newly_rejected
    rejected += (t for t, _ in fault_failures)
    if fault_failures:
        batch_report = RejectedReport.from_failures(fault_failures)
        fault_report = (
            batch_report
            if fault_report is None
            else fault_report.merge(batch_report)
        )

    if prior is not None and len(rows) == prior.num_objects:
        lattice = prior.lattice
    else:
        context = FormalContext(
            trace_object_names(representatives), attributes, rows
        )
        lattice = build_lattice_godin(
            context,
            budget=budget,
            resume_from=None if prior is None else prior.lattice,
        )
    return TraceClustering(
        reference_fa=reference_fa,
        lattice=lattice,
        representatives=tuple(representatives),
        class_counts=tuple(counts),
        class_members=tuple(members),
        rejected=tuple(rejected),
        lint_report=lint_report,
        fault_report=fault_report,
    )


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
    reports a fresh batch of violations.  The result equals
    ``cluster_traces`` of all the traces at once, concept for concept:
    the same objects, concept ids, extents, intents and covers.

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
    return _cluster(
        clustering,
        new_traces,
        clustering.reference_fa,
        strict=strict,
        budget=budget,
        jobs=jobs,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
        lint_report=clustering.lint_report,
    )


def cluster_traces(
    traces: Sequence[Trace],
    reference_fa: FA,
    *,
    strict: bool = False,
    budget: Budget | None = None,
    lint: bool = False,
    jobs: int | None = None,
    retry: "RetryPolicy | int | None" = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> TraceClustering:
    """Cluster ``traces`` with respect to ``reference_fa``.

    One representative per identical-event class is clustered (the
    paper's setting), and the lattice is built with Godin's incremental
    algorithm.

    Traces the reference FA rejects are quarantined in ``rejected`` and
    clustering proceeds on the accepted subset (graceful degradation);
    ``strict=True`` restores fail-fast behaviour by raising
    :class:`~repro.robustness.errors.ClusteringError` instead.  A
    ``budget`` bounds the relation fan-out (wall clock) and the lattice
    construction (an over-budget build raises
    :class:`~repro.robustness.errors.BudgetExceeded` with a resumable
    checkpoint).

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
    return _cluster(
        None,
        traces,
        reference_fa,
        strict=strict,
        budget=budget,
        jobs=jobs,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
        lint_report=lint_report,
    )
