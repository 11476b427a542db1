"""CC002 — shared-state hazards in functions handed to the worker pool.

:func:`repro.parallel.pool.parallel_map` (and the wrappers above it)
runs the mapped function in worker processes when ``jobs > 1``, where it
must pickle, and serial fan-outs of concurrent ``cable serve`` requests
share one process.  This pass inspects each call to a parallel entry point and
checks the mapped callable:

* a ``lambda`` or a function defined inside the calling function cannot
  pickle — a latent crash the moment the process backend is selected
  (flagged unless the call pins ``backend="serial"``);
* a module-level function whose body writes module-level state (a
  ``global`` rebind, or a subscript/attribute store or mutating method
  call on a module-level name) without holding a lock races with
  concurrent callers in the same process and silently diverges on the
  process backend, where each worker mutates its own copy.

Reads of module state are fine (workers inherit a consistent snapshot);
writes under a ``with <...lock...>`` block are accepted as intentional.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.conformance.engine import ConformancePass, register_pass
from repro.analysis.conformance.model import (
    FunctionNode,
    MUTATING_METHODS,
    ModuleInfo,
    ProjectModel,
    enclosing_functions,
    walk_scope,
)
from repro.analysis.diagnostics import Diagnostic

#: Qualified-name suffixes treated as parallel fan-out entry points.
ENTRY_POINT_SUFFIXES = (
    ".parallel_map",
    ".relation_map",
    ".supervised_map",
)


def _is_entry_point(qualified: str | None) -> bool:
    return qualified is not None and qualified.endswith(ENTRY_POINT_SUFFIXES)


def _pinned_safe_backend(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "backend" and isinstance(kw.value, ast.Constant):
            return kw.value.value == "serial"
    return False


def _mapped_callable(call: ast.Call) -> ast.expr | None:
    """The function argument of a parallel-map call (unwraps partial)."""
    fn = call.args[0] if call.args else None
    if fn is None:
        for kw in call.keywords:
            if kw.arg == "fn":
                fn = kw.value
    if (
        isinstance(fn, ast.Call)
        and ProjectModel.dotted_name(fn.func) in ("partial", "functools.partial")
        and fn.args
    ):
        return fn.args[0]
    return fn


def _locked(ancestors: list[ast.AST]) -> bool:
    """True when any enclosing ``with`` item looks like a lock acquire."""
    for node in ancestors:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                dotted = ProjectModel.dotted_name(item.context_expr) or ""
                if isinstance(item.context_expr, ast.Call):
                    dotted = (
                        ProjectModel.dotted_name(item.context_expr.func) or ""
                    )
                if "lock" in dotted.lower():
                    return True
    return False


def _walk_with_ancestors(
    node: ast.AST, ancestors: list[ast.AST] | None = None
) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
    ancestors = ancestors or []
    for child in ast.iter_child_nodes(node):
        yield child, ancestors
        yield from _walk_with_ancestors(child, ancestors + [child])


@register_pass
class SharedStateRacePass(ConformancePass):
    code = "CC002"
    severity = "warning"
    summary = (
        "functions handed to parallel_map/relation_map that write shared "
        "state or cannot pickle"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
        for qualname, fn in enclosing_functions(module.tree):
            local_defs = {
                sub.name
                for sub in ast.walk(fn)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub is not fn
            }
            for node in walk_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                qualified = project.resolve(module, node.func)
                if not _is_entry_point(qualified):
                    continue
                mapped = _mapped_callable(node)
                if mapped is None:
                    continue
                yield from self._check_mapped(
                    module, project, qualname, node, mapped, local_defs
                )

    def _check_mapped(
        self,
        module: ModuleInfo,
        project: ProjectModel,
        qualname: str,
        call: ast.Call,
        mapped: ast.expr,
        local_defs: set[str],
    ) -> Iterator[Diagnostic]:
        if isinstance(mapped, ast.Lambda):
            if not _pinned_safe_backend(call):
                yield self.finding(
                    module,
                    qualname,
                    call,
                    "lambda passed to a parallel map cannot pickle under "
                    "the process backend (the default)",
                    suggestion=(
                        "hoist the callable to module level, or pin "
                        'backend="serial"'
                    ),
                )
            return
        name = ProjectModel.dotted_name(mapped)
        if name is not None and name in local_defs:
            if not _pinned_safe_backend(call):
                yield self.finding(
                    module,
                    qualname,
                    call,
                    f"locally defined function {name!r} passed to a "
                    "parallel map cannot pickle under the process backend",
                    suggestion=(
                        "hoist the callable to module level, or pin "
                        'backend="serial"'
                    ),
                )
            return
        if name is None:
            return
        target = project.resolve(module, mapped)
        info = project.function(target) if target else None
        if info is None or info.is_method:
            return
        target_module = project.modules.get(info.module)
        if target_module is None:
            return
        yield from self._check_body_writes(
            module, qualname, call, info.node, target_module
        )

    def _check_body_writes(
        self,
        module: ModuleInfo,
        qualname: str,
        call: ast.Call,
        fn: FunctionNode,
        fn_module: ModuleInfo,
    ) -> Iterator[Diagnostic]:
        globals_ = fn_module.module_globals
        declared_global: set[str] = set()
        for node, ancestors in _walk_with_ancestors(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node, ancestors in _walk_with_ancestors(fn):
            if _locked(ancestors):
                continue
            hazard: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        hazard = f"rebinds module global {target.id!r}"
                    elif isinstance(target, ast.Subscript):
                        base = target.value
                        if isinstance(base, ast.Name) and base.id in globals_:
                            hazard = (
                                f"stores into module-level {base.id!r} "
                                "without a lock"
                            )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in globals_
            ):
                hazard = (
                    f"mutates module-level {node.func.value.id!r} via "
                    f".{node.func.attr}() without a lock"
                )
            if hazard:
                yield self.finding(
                    module,
                    qualname,
                    call,
                    f"mapped function {fn.name!r} {hazard}: racy under "
                    "concurrent callers, silently divergent on the process "
                    "backend (each worker mutates its own copy)",
                    suggestion=(
                        "return results instead of mutating shared state, "
                        "or guard the write with a lock"
                    ),
                )
                return  # one finding per mapped function is enough


__all__ = ["SharedStateRacePass"]
