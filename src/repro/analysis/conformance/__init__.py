"""Conformance codelint: the repo's static analysis turned on itself.

The paper's thesis is that structured analysis beats eyeballing for
finding specification bugs; this package applies the same philosophy to
the codebase's *own* recurring defect classes.  Each pass mechanically
enforces one architectural invariant that earlier work paid for by hand:

==========  ==========================================================
``CC001``   FA cache-staleness: language-defining attribute writes that
            bypass the ``version``-bumping ``__setattr__`` path
``CC002``   shared-state races and unpicklable captures in functions
            handed to the parallel map entry points
``CC003``   observability coverage of the declared hot-path modules
``CC005``   error-taxonomy conformance (``raise Exception``, bare
            ``except``, swallowed ``ReproError`` subclasses)
``CC007``   hardened accessors: ``*_index`` dict-comprehension lookup
            tables subscripted directly, so unknown user-supplied names
            raise bare ``KeyError`` instead of ``LookupInputError``
``CC008``   resource leaks: handles acquired into locals but not
            released on every CFG path out (flow-sensitive)
``CC009``   exception flow: non-``ReproError`` escapes from the public
            API surface, dead except arms, cause-dropping re-raises
``CC010``   supervision-parameter plumbing: ``budget=``/``strict=``/...
            accepted but not forwarded to a callee that takes them, on
            every path or on one branch; fan-out result envelopes
            stored and never read
``CC011``   lock discipline as Eraser-style per-attribute locksets:
            writes to ``_lock``-guarded state that no single lock
            serializes, or that no lock guards at all
==========  ==========================================================

CC008–CC011 are built on :mod:`repro.analysis.dataflow` (per-function
CFGs + worklist fixpoints) and report *path* witnesses — the ordered
``path:line`` steps from where the story starts to where it goes wrong.

Run it as ``cable selfcheck`` (text/JSON, exit-code gate, baseline file
under ``tools/baselines/conformance.json``); programmatic entry points
are :func:`run_conformance` and :class:`ProjectModel`.
"""

from __future__ import annotations

from repro.analysis.conformance.engine import (
    ConformancePass,
    all_passes,
    pass_by_code,
    register_pass,
    run_conformance,
)
from repro.analysis.conformance.model import ModuleInfo, ProjectModel

# Importing the pass modules registers them with the engine.
from repro.analysis.conformance import (  # noqa: F401  (registration)
    cc001_staleness,
    cc002_race,
    cc003_obs,
    cc005_errors,
    cc007_accessors,
    cc008_leaks,
    cc009_exceptions,
    cc010_flowplumbing,
    cc011_lockset,
)

__all__ = [
    "ConformancePass",
    "ModuleInfo",
    "ProjectModel",
    "all_passes",
    "pass_by_code",
    "register_pass",
    "run_conformance",
]
