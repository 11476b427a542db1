"""CC010 — supervision-parameter plumbing.

``budget=``, ``strict=``, ``retry=``, ``task_timeout=`` and
``on_fault=`` are threaded through every layer between the CLI and the
worker pool.  The failure mode is always the same: a caller
grows the parameter, a callee already takes it, and one call site in
the middle silently drops it — budgets stop tripping, quarantine stops
quarantining, and nothing fails loudly.

For every function that *accepts* one of the plumbed parameters, this
pass groups the calls to resolvable project functions whose signature
accepts the same parameter by (callee, parameter).  A call passes the
parameter by keyword, positionally, or through a ``*args``/``**kwargs``
splat; passing an explicit different value is a decision, not a drop.

* **Never forwarded.**  No call to the callee passes the parameter.
  Each dropping call is flagged — unless the function *deliberately
  consumes* the parameter locally (reads it outside every call
  argument, like ``if strict:`` or ``budget.remaining()``): the author
  visibly branched on or interrogated the value, so not forwarding it
  is a choice, not an oversight.

* **Branch-dropped forwarding.**  The same callee is invoked on one
  path *with* the parameter and on another path *without* it.  The
  author clearly knows the callee takes it — the inconsistent site is
  almost certainly the bug, whether or not the parameter is also read
  locally, and the witness is the path from the function entry through
  the branch to the dropping call.

* **Dead stores of map results.**  ``results = relation_map(...)``
  where ``results`` is never live afterwards: the fan-out ran, faults
  were collected into the result envelope, and then the envelope was
  dropped on the floor — fault reporting silently vanishes.
  (``_``-prefixed names are the documented "deliberately ignored"
  convention and stay exempt.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.conformance.engine import ConformancePass, register_pass
from repro.analysis.conformance.model import (
    ModuleInfo,
    ProjectModel,
    enclosing_functions,
    function_params,
    walk_scope,
)
from repro.analysis.dataflow.cfg import build_cfg
from repro.analysis.dataflow.analyses import liveness
from repro.analysis.dataflow.paths import witness_path
from repro.analysis.diagnostics import Diagnostic

#: The parameters the robustness/parallel layers plumb end to end.
PLUMBED_PARAMS = ("budget", "strict", "on_fault", "retry", "task_timeout")

#: Fan-out entry points whose result envelope carries the fault report.
RESULT_BEARING_CALLS = frozenset(
    {"relation_map", "parallel_map", "relation_map_indexed"}
)


def _call_passes_param(
    call: ast.Call, param: str, callee_params: tuple[str, ...]
) -> bool:
    """True when ``call`` provides ``param`` explicitly (or may, via a splat)."""
    for kw in call.keywords:
        if kw.arg == param:
            return True
        if kw.arg is None:  # **kwargs splat — assume it carries everything
            return True
    try:
        position = callee_params.index(param)
    except ValueError:
        return False
    # Positional coverage: a plain arg at the parameter's position, or a
    # *args splat (which may reach it).
    consumed = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            return True
        if consumed == position:
            return True
        consumed += 1
    return False


def _locally_consumed_params(fn: ast.AST, held: list[str]) -> set[str]:
    """Plumbed params with a Load outside every call-argument position."""
    in_call_args: set[int] = set()
    for node in walk_scope(fn):
        if isinstance(node, ast.Call):
            for arg in (*node.args, *[kw.value for kw in node.keywords]):
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name):
                        in_call_args.add(id(sub))
    consumed: set[str] = set()
    for node in walk_scope(fn):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in held
            and id(node) not in in_call_args
        ):
            consumed.add(node.id)
    return consumed


@register_pass
class FlowPlumbingPass(ConformancePass):
    code = "CC010"
    severity = "error"
    summary = (
        "budget=/strict=/on_fault=/retry=/task_timeout= accepted but not "
        "forwarded to a callee that takes it, on every path or on one "
        "branch; fan-out result envelopes stored then never read"
    )

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
        for qualname, fn in enclosing_functions(module.tree):
            assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from self._check_forwarding(module, project, qualname, fn)
            yield from self._check_dead_stores(module, qualname, fn)

    # -- dropped forwarding -------------------------------------------- #

    def _check_forwarding(
        self,
        module: ModuleInfo,
        project: ProjectModel,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Diagnostic]:
        own, _ = function_params(fn)
        held = [p for p in PLUMBED_PARAMS if p in own]
        if not held:
            return
        # (call, callee qualname, param, forwarded?) in walk order, and
        # whether each (callee, param) pair is forwarded anywhere.
        sites: list[tuple[ast.Call, str, str, bool]] = []
        forwarded: set[tuple[str, str]] = set()
        for node in walk_scope(fn):
            if not isinstance(node, ast.Call):
                continue
            resolved = project.resolve(module, node.func)
            if resolved is None:
                continue
            info = project.function(resolved)
            if info is None or project.is_class(resolved):
                continue
            for param in held:
                if param not in info.params:
                    continue
                passed = _call_passes_param(node, param, info.params)
                sites.append((node, info.qualname, param, passed))
                if passed:
                    forwarded.add((info.qualname, param))
        consumed: set[str] | None = None
        cfg = None
        for call, callee, param, passed in sites:
            if passed:
                continue
            callee_local = callee.rsplit(".", 1)[-1]
            if (callee, param) not in forwarded:
                if consumed is None:
                    consumed = _locally_consumed_params(fn, held)
                if param in consumed:
                    continue
                yield self.finding(
                    module,
                    qualname,
                    call,
                    f"accepts {param}= but calls {callee_local}() — "
                    f"which also takes {param}= — without forwarding "
                    "it; the setting silently stops applying below "
                    "this frame",
                    suggestion=f"pass {param}={param} through the call",
                )
                continue
            if cfg is None:
                cfg = build_cfg(fn, qualname)
            loc = cfg.locate(self._anchor_stmt(fn, call))
            witness = (
                witness_path(
                    cfg,
                    0,
                    loc[0],
                    module.relpath,
                    first_line_text=f"def {fn.name}(...{param}...)",
                )
                if loc is not None
                else call
            )
            yield self.finding(
                module,
                qualname,
                witness,
                f"{callee_local}() is called with {param}= on another path "
                "but without it here — the setting silently stops applying "
                "on this branch",
                suggestion=(
                    f"forward {param}={param} on every call to "
                    f"{callee_local}(), or hoist the call out of the branch"
                ),
            )

    @staticmethod
    def _anchor_stmt(fn: ast.AST, target: ast.AST) -> ast.AST:
        """The enclosing statement of ``target`` (CFG blocks hold stmts)."""
        best: ast.AST = target
        for node in ast.walk(fn):
            if isinstance(node, ast.stmt):
                for child in ast.walk(node):
                    if child is target:
                        best = node
                        # keep narrowing: inner statements win
        return best

    # -- dead stores of fan-out results -------------------------------- #

    def _check_dead_stores(
        self,
        module: ModuleInfo,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Diagnostic]:
        stores: list[tuple[ast.Assign, str, str]] = []
        for node in walk_scope(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and not node.targets[0].id.startswith("_")
                and isinstance(node.value, ast.Call)
            ):
                dotted = ProjectModel.dotted_name(node.value.func)
                if dotted and dotted.split(".")[-1] in RESULT_BEARING_CALLS:
                    stores.append(
                        (node, node.targets[0].id, dotted.split(".")[-1])
                    )
        if not stores:
            return
        cfg = build_cfg(fn, qualname)
        live = liveness(cfg)
        for assign, name, callee in stores:
            loc = cfg.locate(assign)
            if loc is None:
                continue
            if name in live.live_after(loc[0], loc[1]):
                continue
            yield self.finding(
                module,
                qualname,
                assign,
                f"result of {callee}() is stored in `{name}` but never "
                "read — per-item faults collected by the fan-out are "
                "silently discarded",
                suggestion=(
                    f"inspect `{name}` (check faults / propagate) or bind "
                    "it to an `_`-prefixed name to record that ignoring "
                    "it is deliberate"
                ),
            )


__all__ = ["RESULT_BEARING_CALLS", "FlowPlumbingPass"]
