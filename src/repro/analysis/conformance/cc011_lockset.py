"""CC011 — lock discipline as Eraser-style per-attribute locksets.

A class that constructs a ``self._lock`` (or any ``*_lock``) in
``__init__`` (RelationCache, MetricsRegistry, ...) has declared its
instance state shared; every write to that state must then hold a lock,
or the lock is decoration.  A pool-shutdown deadlock and a relation
cache bug in this repository both started as "one write path that
didn't take the lock everybody else takes".

For each guarded attribute the pass asks the Eraser question: is there
*one* lock that every write site holds?  The lockset at a write is
computed flow-sensitively over the function CFG (forward/*must*
held-facts), so it understands ``lock.acquire()``/``release()`` pairs,
writes after a ``with`` block has already ended, and early exits — and
it catches the two-lock class whose attribute is written under
``_a_lock`` in one method and ``_b_lock`` in another, which is
lexically "locked everywhere" and still a race.

The repo's *lock-held helper* convention carries over
interprocedurally: a private method's entry lockset is the
intersection of the locksets held at its intra-class call sites, so a
helper only ever called under the lock (like
``RelationCache._refresh_version``) analyzes as holding it.

Findings:

* a write site whose lockset misses the candidate lockset every other
  write of that attribute agrees on (the classic unguarded write, with
  a path witness from the method entry to the write);
* each write of an attribute that is *never* written under any lock;
* an attribute whose write sites hold locks but whose common lockset
  is *empty* (disjoint locks — no single lock serializes the writes).

``__init__``/``__post_init__``/``__new__`` are exempt (no other thread
can hold an object mid-construction), as are reads — the GIL makes the
repo's counter reads safe enough, and flagging them would bury the
writes that matter.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.conformance.engine import ConformancePass, register_pass
from repro.analysis.conformance.model import (
    MUTATING_METHODS,
    FunctionNode,
    ModuleInfo,
    ProjectModel,
)
from repro.analysis.dataflow.cfg import CFG, Marker, Stmt, build_cfg
from repro.analysis.dataflow.analyses import HeldFacts, held_facts
from repro.analysis.dataflow.paths import witness_path
from repro.analysis.diagnostics import Diagnostic

CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of ``self.<attr> = ...Lock()``-style fields set in __init__."""
    out: set[str] = set()
    for method in cls.body:
        if (
            isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and method.name in CONSTRUCTORS
        ):
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr.endswith("_lock")
                        ):
                            out.add(target.attr)
    return out


def _is_self_attr(node: ast.expr, attrs: set[str] | None = None) -> str | None:
    """``attr`` when node is ``self.<attr>`` (optionally restricted)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        if attrs is None or node.attr in attrs:
            return node.attr
    return None


def _lock_events(
    stmt: Stmt, locks: set[str], marker: str, method: str
) -> list[str]:
    """Locks this entry takes or drops: ``with self.X`` at a ``marker``
    (``with-enter``/``with-exit``) or a ``self.X.<method>()`` call
    (``acquire``/``release``)."""
    out: list[str] = []
    if isinstance(stmt, Marker):
        if stmt.kind == marker:
            node = stmt.node
            assert isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items:
                attr = _is_self_attr(item.context_expr, locks)
                if attr is not None:
                    out.append(attr)
        return out
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            attr = _is_self_attr(node.func.value, locks)
            if attr is not None:
                out.append(attr)
    return out


def _writes_in(stmt: Stmt) -> list[tuple[ast.AST, str, str]]:
    """Self-attribute writes in one block entry: ``(node, attr, kind)``."""
    out: list[tuple[ast.AST, str, str]] = []
    if isinstance(stmt, Marker):
        return out
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _is_self_attr(target)
                if attr is not None:
                    kind = (
                        "augmented assignment"
                        if isinstance(node, ast.AugAssign)
                        else "assignment"
                    )
                    out.append((node, attr, kind))
                elif isinstance(target, ast.Subscript):
                    base = _is_self_attr(target.value)
                    if base is not None:
                        out.append((node, base, "subscript store"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _is_self_attr(target)
                if attr is not None:
                    out.append((node, attr, "delete"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            base = _is_self_attr(node.func.value)
            if base is not None:
                out.append((node, base, f".{node.func.attr}() call"))
    return out


@dataclass
class _WriteSite:
    method: str
    node: ast.AST
    attr: str
    kind: str
    block: int
    pos: int
    lockset: frozenset[str]


class _ClassAnalysis:
    """Flow-sensitive locksets for every method of one locked class."""

    def __init__(self, cls: ast.ClassDef, locks: set[str]) -> None:
        self.cls = cls
        self.locks = locks
        self.methods: dict[str, FunctionNode] = {
            m.name: m
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and m.name not in CONSTRUCTORS
        }
        self.cfgs: dict[str, CFG] = {
            name: build_cfg(m, f"{cls.name}.{name}")
            for name, m in self.methods.items()
        }
        #: method -> lockset assumed held at entry (helper convention).
        self.entry: dict[str, frozenset[str]] = {
            name: frozenset() for name in self.methods
        }
        self.held: dict[str, HeldFacts] = {}
        self._solve()

    def _solve(self) -> None:
        # Iterate: held-facts per method, then recompute private-helper
        # entry locksets from their call sites, until stable.  Public
        # methods keep an empty entry lockset (anyone may call them).
        for _ in range(len(self.methods) + 1):
            self.held = {
                name: held_facts(
                    self.cfgs[name],
                    lambda s: _lock_events(
                        s, self.locks, "with-enter", "acquire"
                    ),
                    lambda s: _lock_events(
                        s, self.locks, "with-exit", "release"
                    ),
                    entry=self.entry[name],
                )
                for name in self.methods
            }
            new_entry: dict[str, frozenset[str]] = {}
            for name in self.methods:
                if not name.startswith("_"):
                    new_entry[name] = frozenset()
                    continue
                call_locksets = list(self._call_site_locksets(name))
                new_entry[name] = (
                    frozenset.intersection(*call_locksets)
                    if call_locksets
                    else frozenset()
                )
            if new_entry == self.entry:
                return
            self.entry = new_entry

    def _call_site_locksets(self, callee: str) -> Iterator[frozenset[str]]:
        for name, cfg in self.cfgs.items():
            held = self.held[name]
            for block in cfg.blocks:
                for pos, stmt in enumerate(block.statements):
                    if isinstance(stmt, Marker):
                        continue
                    for node in ast.walk(stmt):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == callee
                            and _is_self_attr(node.func) is not None
                        ):
                            yield held.at(block.index, pos)

    def write_sites(self) -> Iterator[_WriteSite]:
        for name, cfg in self.cfgs.items():
            held = self.held[name]
            for block in cfg.blocks:
                for pos, stmt in enumerate(block.statements):
                    for node, attr, kind in _writes_in(stmt):
                        if attr in self.locks:
                            continue
                        yield _WriteSite(
                            name,
                            node,
                            attr,
                            kind,
                            block.index,
                            pos,
                            held.at(block.index, pos),
                        )


@register_pass
class LocksetPass(ConformancePass):
    code = "CC011"
    severity = "error"
    summary = (
        "writes to _lock-guarded instance state that no single lock "
        "protects: unlocked, or under disjoint locks"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        locks = _lock_attrs(cls)
        if not locks:
            return
        analysis = _ClassAnalysis(cls, locks)
        by_attr: dict[str, list[_WriteSite]] = {}
        for site in analysis.write_sites():
            by_attr.setdefault(site.attr, []).append(site)
        for attr in sorted(by_attr):
            sites = by_attr[attr]
            locked = [s for s in sites if s.lockset]
            candidate = (
                frozenset.intersection(*[s.lockset for s in locked])
                if locked
                else frozenset()
            )
            if locked and not candidate:
                involved = ", ".join(
                    f"self.{lock}"
                    for lock in sorted({k for s in locked for k in s.lockset})
                )
                yield self.finding(
                    module,
                    f"{cls.name}.{attr}",
                    locked[0].node,
                    f"writes to self.{attr} are guarded by disjoint locks "
                    f"({involved}) — no single lock serializes them",
                    suggestion=(
                        "pick one lock for this attribute and take it at "
                        "every write site"
                    ),
                )
                continue
            # With no locked write at all, every write is flagged against
            # the class's own lock.
            lock_name = sorted(candidate or locks)[0]
            for site in sites:
                if site.lockset & candidate:
                    continue
                if locked:
                    message = (
                        f"{site.kind} to self.{attr} without holding "
                        f"self.{lock_name}, the lock every other write of "
                        "this attribute holds — a racing path exists"
                    )
                    suggestion = (
                        f"take `with self.{lock_name}:` around this write "
                        "(flow-sensitive: the lock must be held *at* the "
                        "write, not merely somewhere in the method)"
                    )
                else:
                    message = (
                        f"{site.kind} to self.{attr} outside `with "
                        f"self.{lock_name}` — {cls.name} declared its "
                        "state lock-guarded"
                    )
                    suggestion = (
                        f"move the write under `with self.{lock_name}:` "
                        "(or document the method as lock-held by calling "
                        "it only from locked regions)"
                    )
                witness = witness_path(
                    analysis.cfgs[site.method],
                    0,
                    site.block,
                    module.relpath,
                    first_line_text=module.line(
                        getattr(site.node, "lineno", 0) or 0
                    ),
                )
                yield self.finding(
                    module,
                    f"{cls.name}.{site.method}",
                    witness,
                    message,
                    suggestion=suggestion,
                )


__all__ = ["LocksetPass"]
