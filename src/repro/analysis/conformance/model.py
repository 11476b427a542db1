"""The project model the conformance passes analyze.

:class:`ProjectModel` parses every module under one package root into
ASTs and resolves the ``repro.*`` import graph so passes can reason
about *qualified* names instead of whatever local alias a module picked:
``from repro.parallel import parallel_map as pmap`` and a later
``pmap(...)`` both resolve to ``repro.parallel.pool.parallel_map``
(re-exports are chased through ``__init__`` modules).

The model also indexes every function/method definition by qualified
name with its parameter list, which is what the plumbing pass (CC010)
and the observability pass (CC003) join against.

Everything here is plain :mod:`ast` — no imports are executed, so the
analysis is safe to run on a broken tree.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.robustness.errors import InputError

#: Function-ish AST nodes (the model treats both alike).
FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Container methods that mutate their receiver in place — what the
#: staleness (CC001), race (CC002) and lockset (CC011) passes count as
#: a write to the object they are called on.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "clear",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "add",
        "discard",
        "move_to_end",
        "appendleft",
        "extendleft",
        "sort",
        "reverse",
    }
)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, indexed by qualified name."""

    qualname: str  # "repro.parallel.pool.parallel_map" or "...Cls.method"
    module: str  # "repro.parallel.pool"
    node: FunctionNode
    params: tuple[str, ...]  # positional + keyword-only names, in order
    has_kwargs: bool  # accepts **kwargs
    is_method: bool

    @property
    def name(self) -> str:
        return self.node.name


def function_params(node: FunctionNode) -> tuple[tuple[str, ...], bool]:
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return tuple(names), args.kwarg is not None


@dataclass
class ModuleInfo:
    """One parsed module: source, AST, and its local-name import map."""

    name: str  # dotted module name, e.g. "repro.fa.automaton"
    path: Path  # absolute path on disk
    relpath: str  # path relative to the package root's parent (posix)
    source: str
    tree: ast.Module
    #: Local binding -> fully qualified dotted name it refers to.
    imports: dict[str, str] = field(default_factory=dict)
    #: Names assigned at module scope (module-level state).
    module_globals: frozenset[str] = frozenset()

    def line(self, lineno: int) -> str:
        """The stripped source text of one line (1-based), for witnesses."""
        lines = self.source.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def witness(self, node: ast.AST) -> str:
        """``path:line: <source line>`` — the snippet shown in reports."""
        lineno = getattr(node, "lineno", 0)
        text = self.line(lineno)
        return f"{self.relpath}:{lineno}: {text}" if lineno else self.relpath


def _module_name(root_package: str, relative: Path) -> str:
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root_package, *parts]) if parts else root_package


def _collect_imports(module: str, tree: ast.Module) -> dict[str, str]:
    """Map each locally bound name to the qualified name it imports.

    Handles ``import a.b``, ``import a.b as c``, ``from a import b as c``
    and relative imports (resolved against ``module``).  Imports nested
    inside functions are collected too — passes resolve names lexically
    and a nested import only ever *adds* a binding.
    """
    out: dict[str, str] = {}
    package_parts = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a`` — resolving ``a.b.c.f``
                    # through the base name works because the qualified
                    # prefix equals the binding.
                    base = alias.name.split(".")[0]
                    out.setdefault(base, base)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: strip ``level`` trailing components
                # from the *package* path of this module.
                # For a module ``repro.a.b`` (file b.py), level 1 means
                # package ``repro.a``.
                base_parts = package_parts[: len(package_parts) - node.level]
                prefix = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                out[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
    return out


def _module_level_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return frozenset(names)


class ProjectModel:
    """Parsed modules plus the indices the passes share.

    Build one with :meth:`load` (walks a package directory) or
    :meth:`from_sources` (synthetic modules, for tests).  The model is
    immutable in spirit; :meth:`with_module_source` returns a copy with
    one module re-parsed from different text — the seeded-mutation tests
    use it to plant a known defect without touching the working tree.
    """

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        #: Re-export table: "repro.parallel.parallel_map" ->
        #: "repro.parallel.pool.parallel_map" (built from __init__
        #: import maps), used to chase aliases to definitions.
        self._reexports: dict[str, str] = {}
        for info in self.modules.values():
            self._index_module(info)
        for info in self.modules.values():
            for local, qualified in info.imports.items():
                alias = f"{info.name}.{local}"
                if alias != qualified:
                    self._reexports[alias] = qualified

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def load(cls, root: str | Path) -> "ProjectModel":
        """Parse every ``*.py`` under ``root`` (a package directory)."""
        root = Path(root).resolve()
        if not root.is_dir():
            raise InputError("project root is not a directory", root=str(root))
        package = root.name
        modules: list[ModuleInfo] = []
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            if "__pycache__" in relative.parts:
                continue
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                raise InputError(
                    "module does not parse", path=str(path), reason=str(exc)
                ) from exc
            name = _module_name(package, relative)
            modules.append(
                ModuleInfo(
                    name=name,
                    path=path,
                    relpath=(Path(package) / relative).as_posix(),
                    source=source,
                    tree=tree,
                    imports=_collect_imports(name, tree),
                    module_globals=_module_level_names(tree),
                )
            )
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ProjectModel":
        """A synthetic model from ``{dotted module name: source}``."""
        modules = []
        for name, source in sources.items():
            tree = ast.parse(source, filename=f"<{name}>")
            relpath = name.replace(".", "/") + ".py"
            modules.append(
                ModuleInfo(
                    name=name,
                    path=Path(relpath),
                    relpath=relpath,
                    source=source,
                    tree=tree,
                    imports=_collect_imports(name, tree),
                    module_globals=_module_level_names(tree),
                )
            )
        return cls(modules)

    def with_module_source(self, name: str, source: str) -> "ProjectModel":
        """Copy of this model with module ``name`` re-parsed from ``source``."""
        if name not in self.modules:
            raise InputError("unknown module", module=name)
        old = self.modules[name]
        tree = ast.parse(source, filename=str(old.path))
        replacement = ModuleInfo(
            name=name,
            path=old.path,
            relpath=old.relpath,
            source=source,
            tree=tree,
            imports=_collect_imports(name, tree),
            module_globals=_module_level_names(tree),
        )
        return ProjectModel(
            [replacement if m.name == name else m for m in self.modules.values()]
        )

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #

    def _index_module(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(info, node, prefix=info.name, method=False)
            elif isinstance(node, ast.ClassDef):
                qual = f"{info.name}.{node.name}"
                self.classes[qual] = node
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._index_function(info, sub, prefix=qual, method=True)

    def _index_function(
        self, info: ModuleInfo, node: FunctionNode, prefix: str, method: bool
    ) -> None:
        params, has_kwargs = function_params(node)
        qual = f"{prefix}.{node.name}"
        self.functions[qual] = FunctionInfo(
            qualname=qual,
            module=info.name,
            node=node,
            params=params,
            has_kwargs=has_kwargs,
            is_method=method,
        )

    # ------------------------------------------------------------------ #
    # name resolution
    # ------------------------------------------------------------------ #

    @staticmethod
    def dotted_name(expr: ast.expr) -> str | None:
        """``a.b.c`` for a Name/Attribute chain, else ``None``."""
        parts: list[str] = []
        node: ast.expr = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve(self, module: ModuleInfo, expr: ast.expr) -> str | None:
        """The fully qualified name ``expr`` denotes in ``module``.

        Resolves through the module's import map and through package
        re-exports, then falls back to ``<module>.<name>`` for names the
        module defines itself.  ``None`` when the expression is not a
        plain dotted name (a call result, a subscript, ...).
        """
        dotted = self.dotted_name(expr)
        if dotted is None:
            return None
        base, _, rest = dotted.partition(".")
        qualified = module.imports.get(base)
        if qualified is None:
            # A name defined (or used) in this module's own namespace.
            qualified = f"{module.name}.{base}"
        full = f"{qualified}.{rest}" if rest else qualified
        return self.chase(full)

    def chase(self, qualified: str, _depth: int = 0) -> str:
        """Follow re-export aliases to the defining module, if known."""
        if _depth > 10:
            return qualified
        if qualified in self._reexports:
            return self.chase(self._reexports[qualified], _depth + 1)
        return qualified

    def function(self, qualified: str) -> FunctionInfo | None:
        """The definition behind a (chased) qualified name, if any."""
        return self.functions.get(self.chase(qualified))

    def is_class(self, qualified: str) -> bool:
        return self.chase(qualified) in self.classes

    # ------------------------------------------------------------------ #
    # iteration helpers
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)


def enclosing_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, FunctionNode]]:
    """Yield ``(qualname-within-module, node)`` for every function/method.

    The qualname is relative to the module: ``parallel_map`` or
    ``RelationCache.put`` — matching the ``Location.code`` refs used in
    fingerprints (module identity comes from the report target).
    Nested functions are reported under their enclosing function's
    qualname (``outer.<locals>.inner``) like :attr:`__qualname__`.
    """

    def walk(body: Iterable[ast.stmt], prefix: str) -> Iterator[tuple[str, FunctionNode]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                yield qual, node
                yield from walk(node.body, f"{qual}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested def/class/lambda.

    Passes iterate :func:`enclosing_functions` and walk each scope with
    this helper, so a statement inside a nested function is analyzed
    exactly once — under the nested function's own qualname.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


__all__ = [
    "FunctionInfo",
    "FunctionNode",
    "MUTATING_METHODS",
    "ModuleInfo",
    "ProjectModel",
    "enclosing_functions",
    "function_params",
    "walk_scope",
]
