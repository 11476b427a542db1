"""CC001 — FA cache-staleness: writes that bypass ``FA.__setattr__``.

:class:`repro.fa.automaton.FA` counts assignments to its
language-defining attributes in :attr:`~repro.fa.automaton.FA.version`;
:class:`repro.parallel.relation.RelationCache` drops its rows when that
counter moves.  The PR 5 staleness bug was exactly a write that dodged
the counting path — ``obj.__dict__["transitions"] = ...`` leaves the
version untouched and the cache serving rows for a language the FA no
longer accepts.

This pass flags, anywhere outside ``fa/automaton.py`` itself:

* subscript stores into ``<obj>.__dict__`` whose key is (or may be) a
  language-defining attribute or ``version``;
* ``object.__setattr__(obj, <attr>, ...)`` with such an attribute;
* in-place mutation of semantic containers — ``x.transitions.append``,
  ``x._outgoing[...] = ...``, ``x.transitions += ...`` and friends —
  except inside the owning class's own ``__init__``/``__post_init__``
  (construction happens before any cache can exist).

Reassigning the attribute (``fa.transitions = (...)``) is *not* flagged:
that is the counted path.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.conformance.engine import ConformancePass, register_pass
from repro.analysis.conformance.model import (
    MUTATING_METHODS,
    ModuleInfo,
    ProjectModel,
    enclosing_functions,
    walk_scope,
)
from repro.analysis.diagnostics import Diagnostic

#: The attributes FA.__setattr__ counts, plus the counter itself.
SEMANTIC_ATTRS = frozenset(
    {"states", "initial", "accepting", "transitions", "_outgoing", "version"}
)

#: The module allowed to touch these attributes directly.
EXEMPT_MODULE = "repro.fa.automaton"


def _const_key(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _in_constructor(qualname: str) -> bool:
    leaf = qualname.rsplit(".", 1)[-1]
    return leaf in ("__init__", "__post_init__")


@register_pass
class CacheStalenessPass(ConformancePass):
    code = "CC001"
    severity = "error"
    summary = (
        "FA language-defining attribute writes that bypass the "
        "version-bumping __setattr__ path"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
        if module.name == EXEMPT_MODULE:
            return
        # Each scope is walked exactly once: nested functions are visited
        # under their own qualname, never from the enclosing scope.
        for qualname, fn in [
            ("<module>", module.tree),
            *enclosing_functions(module.tree),
        ]:
            in_ctor = _in_constructor(qualname)
            for node in walk_scope(fn):
                yield from self._check_node(module, qualname, node, in_ctor)

    def _check_node(
        self,
        module: ModuleInfo,
        qualname: str,
        node: ast.AST,
        in_ctor: bool,
    ) -> Iterator[Diagnostic]:
        # --- __dict__[...] = ... -------------------------------------- #
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "__dict__"
                ):
                    key = _const_key(target.slice)
                    if key is None or key in SEMANTIC_ATTRS:
                        shown = key or "<dynamic key>"
                        yield self.finding(
                            module,
                            qualname,
                            node,
                            f"write to __dict__[{shown!r}] bypasses the "
                            "version-bumping __setattr__ path — cached "
                            "relation rows go stale",
                            suggestion=(
                                "assign the attribute normally (or bump "
                                "FA.version explicitly)"
                            ),
                        )
                # --- x.transitions[...] = / x.states += ... ------------ #
                yield from self._check_inplace_target(
                    module, qualname, node, target, in_ctor
                )
        # --- object.__setattr__(obj, "transitions", ...) --------------- #
        if isinstance(node, ast.Call):
            dotted = ProjectModel.dotted_name(node.func)
            if dotted == "object.__setattr__" and len(node.args) >= 2:
                key = _const_key(node.args[1])
                if key in SEMANTIC_ATTRS:
                    yield self.finding(
                        module,
                        qualname,
                        node,
                        f"object.__setattr__(..., {key!r}, ...) bypasses "
                        "FA.__setattr__ — the version counter never moves",
                        suggestion="assign the attribute normally",
                    )
            # --- x.transitions.append(...) -------------------------- #
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in SEMANTIC_ATTRS - {"version"}
                and not in_ctor
            ):
                attr = node.func.value.attr
                yield self.finding(
                    module,
                    qualname,
                    node,
                    f"in-place mutation of .{attr} via .{node.func.attr}() "
                    "never passes through __setattr__, so FA.version stays "
                    "put and relation caches keep stale rows",
                    suggestion=(
                        "build a new container and reassign the attribute "
                        "(FAs are meant to be immutable)"
                    ),
                )

    def _check_inplace_target(
        self,
        module: ModuleInfo,
        qualname: str,
        stmt: ast.stmt,
        target: ast.expr,
        in_ctor: bool,
    ) -> Iterator[Diagnostic]:
        if in_ctor:
            return
        # x.transitions[i] = ...   (subscript store into a semantic attr)
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in SEMANTIC_ATTRS - {"version"}
        ):
            attr = target.value.attr
            yield self.finding(
                module,
                qualname,
                stmt,
                f"subscript store into .{attr} mutates the container in "
                "place — FA.version never moves",
                suggestion="rebuild the container and reassign the attribute",
            )
        # x.transitions += [...]  (augmented assignment on the attribute)
        elif (
            isinstance(stmt, ast.AugAssign)
            and isinstance(target, ast.Attribute)
            and target.attr in SEMANTIC_ATTRS - {"version"}
        ):
            yield self.finding(
                module,
                qualname,
                stmt,
                f"augmented assignment to .{target.attr} mutates in place "
                "when the container is mutable — prefer an explicit rebuild "
                "and reassignment",
                severity="warning",
            )


__all__ = ["CacheStalenessPass", "SEMANTIC_ATTRS"]
