"""The conformance passes (CC001–CC003, CC005, CC007–CC011): synthetic
triggers, the clean counterparts, and seeded mutations on the real tree.

The seeded mutations are the acceptance tests: each re-plants a bug
class this repo actually shipped (the PR 5 ``__dict__`` staleness write,
a dropped ``budget=`` forward; the dropped ``with self._lock`` lives in
``test_conformance_flow.py``) via
``ProjectModel.with_module_source`` and asserts the matching pass fires
— without touching the working tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.conformance import ProjectModel, run_conformance
from repro.analysis.conformance.engine import all_passes, pass_by_code
from repro.robustness.errors import InputError


def findings(sources, codes=None):
    project = ProjectModel.from_sources(sources)
    return [
        d for r in run_conformance(project, codes=codes) for d in r.diagnostics
    ]


def fingerprints(sources, codes=None):
    return {d.fingerprint for d in findings(sources, codes)}


@pytest.fixture(scope="module")
def real_tree() -> ProjectModel:
    return ProjectModel.load(Path(repro.__file__).resolve().parent)


# --------------------------------------------------------------------- #
# registry and model
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_all_passes_registered(self):
        codes = [p.code for p in all_passes()]
        # CC004 and CC006 were folded into CC010 and CC011; their codes
        # are retired, not reused.
        assert codes == [
            f"CC{n:03d}" for n in range(1, 12) if n not in (4, 6)
        ]

    def test_unknown_code_raises(self):
        with pytest.raises(InputError):
            pass_by_code("CC999")

    def test_every_pass_has_summary_and_severity(self):
        for p in all_passes():
            assert p.summary
            assert p.severity in ("error", "warning")


class TestProjectModel:
    def test_resolves_through_reexport(self):
        project = ProjectModel.from_sources(
            {
                "pkg.impl": "def work(x, budget=None):\n    return x\n",
                "pkg": "from pkg.impl import work\n",
                "pkg.user": (
                    "from pkg import work as w\n"
                    "def call():\n    return w(1)\n"
                ),
            }
        )
        module = project.modules["pkg.user"]
        import ast

        call = next(
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        )
        assert project.resolve(module, call.func) == "pkg.impl.work"
        assert project.function("pkg.work").qualname == "pkg.impl.work"

    def test_load_rejects_broken_module(self, tmp_path):
        pkg = tmp_path / "brk"
        pkg.mkdir()
        (pkg / "bad.py").write_text("def broken(:\n")
        with pytest.raises(InputError):
            ProjectModel.load(pkg)

    def test_with_module_source_replaces_one_module(self):
        project = ProjectModel.from_sources({"pkg.a": "x = 1\n"})
        mutated = project.with_module_source("pkg.a", "x = 2\n")
        assert project.modules["pkg.a"].source != mutated.modules["pkg.a"].source
        with pytest.raises(InputError):
            project.with_module_source("pkg.missing", "x = 3\n")


# --------------------------------------------------------------------- #
# CC001 — cache staleness
# --------------------------------------------------------------------- #


class TestCC001:
    def test_dict_write_flagged(self):
        fps = fingerprints(
            {
                "pkg.m": (
                    "def poke(fa):\n"
                    '    fa.__dict__["transitions"] = ()\n'
                )
            },
            codes=["CC001"],
        )
        assert "CC001@code:poke" in fps

    def test_object_setattr_flagged(self):
        fps = fingerprints(
            {
                "pkg.m": (
                    "def poke(fa):\n"
                    '    object.__setattr__(fa, "states", ())\n'
                )
            },
            codes=["CC001"],
        )
        assert "CC001@code:poke" in fps

    def test_inplace_mutation_flagged_outside_init(self):
        src = (
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self.transitions = []\n"
            "        self.transitions.append(1)\n"  # construction: fine
            "    def grow(self):\n"
            "        self.transitions.append(2)\n"  # mutation: flagged
        )
        fps = fingerprints({"pkg.m": src}, codes=["CC001"])
        assert fps == {"CC001@code:Holder.grow"}

    def test_subscript_store_and_augassign(self):
        src = (
            "def a(fa):\n"
            "    fa._outgoing[0] = []\n"
            "def b(fa):\n"
            "    fa.states += (9,)\n"
        )
        found = findings({"pkg.m": src}, codes=["CC001"])
        by_fp = {d.fingerprint: d for d in found}
        assert set(by_fp) == {"CC001@code:a", "CC001@code:b"}
        assert by_fp["CC001@code:b"].severity == "warning"

    def test_normal_assignment_not_flagged(self):
        assert not findings(
            {"pkg.m": "def ok(fa):\n    fa.transitions = ()\n"},
            codes=["CC001"],
        )

    def test_automaton_module_exempt(self):
        assert not findings(
            {
                "repro.fa.automaton": (
                    "class FA:\n"
                    "    def __setattr__(self, name, value):\n"
                    "        object.__setattr__(self, name, value)\n"
                    '        self.__dict__["version"] = 1\n'
                )
            },
            codes=["CC001"],
        )


# --------------------------------------------------------------------- #
# CC002 — shared-state races / pickling
# --------------------------------------------------------------------- #

POOL_STUB = "def parallel_map(fn, items, backend='process', **kw):\n    return [fn(i) for i in items]\n"


class TestCC002:
    def test_lambda_flagged_unless_backend_pinned(self):
        base = {
            "pkg.pool": POOL_STUB,
            "pkg.user": (
                "from pkg.pool import parallel_map\n"
                "def fan(items):\n"
                "    return parallel_map(lambda x: x + 1, items)\n"
            ),
        }
        assert fingerprints(base, codes=["CC002"]) == {"CC002@code:fan"}
        pinned = dict(base)
        pinned["pkg.user"] = pinned["pkg.user"].replace(
            ", items)", ", items, backend='serial')"
        )
        assert not findings(pinned, codes=["CC002"])

    def test_local_def_flagged(self):
        fps = fingerprints(
            {
                "pkg.pool": POOL_STUB,
                "pkg.user": (
                    "from pkg.pool import parallel_map\n"
                    "def fan(items):\n"
                    "    def work(x):\n"
                    "        return x\n"
                    "    return parallel_map(work, items)\n"
                ),
            },
            codes=["CC002"],
        )
        assert "CC002@code:fan" in fps

    def test_module_global_write_in_mapped_fn_flagged(self):
        fps = fingerprints(
            {
                "pkg.pool": POOL_STUB,
                "pkg.user": (
                    "from pkg.pool import parallel_map\n"
                    "RESULTS = {}\n"
                    "def work(x):\n"
                    "    RESULTS[x] = x\n"
                    "    return x\n"
                    "def fan(items):\n"
                    "    return parallel_map(work, items)\n"
                ),
            },
            codes=["CC002"],
        )
        assert "CC002@code:fan" in fps

    def test_pure_mapped_fn_not_flagged(self):
        assert not findings(
            {
                "pkg.pool": POOL_STUB,
                "pkg.user": (
                    "from pkg.pool import parallel_map\n"
                    "def work(x):\n"
                    "    return x * 2\n"
                    "def fan(items):\n"
                    "    return parallel_map(work, items)\n"
                ),
            },
            codes=["CC002"],
        )


# --------------------------------------------------------------------- #
# CC003 — obs coverage (hot-path module names are fixed, so synthetic
# modules borrow a hot-path name)
# --------------------------------------------------------------------- #


class TestCC003:
    def test_uninstrumented_public_function_flagged(self):
        fps = fingerprints(
            {
                "repro.core.godin": (
                    "def build_all(items):\n"
                    "    out = []\n"
                    "    for i in items:\n"
                    "        out.append(i)\n"
                    "    return out\n"
                )
            },
            codes=["CC003"],
        )
        assert fps == {"CC003@code:build_all"}

    def test_direct_and_transitive_obs_coverage(self):
        src = (
            "from repro import obs\n"
            "def inner(items):\n"
            "    with obs.span('x'):\n"
            "        return list(items)\n"
            "def outer(items):\n"
            "    for _ in items:\n"
            "        pass\n"
            "    return inner(items)\n"
        )
        assert not findings({"repro.core.godin": src}, codes=["CC003"])

    def test_private_and_trivial_exempt(self):
        src = (
            "def _helper(items):\n"
            "    return [i for i in items]\n"
            "def size(x):\n"
            "    return len(x)\n"
        )
        assert not findings({"repro.core.godin": src}, codes=["CC003"])

    def test_non_hot_path_module_ignored(self):
        src = "def anything(items):\n    return [i for i in items]\n"
        assert not findings({"repro.lang.other": src}, codes=["CC003"])


# --------------------------------------------------------------------- #
# CC010 — never-forwarded plumbing (the check formerly coded CC004)
# --------------------------------------------------------------------- #


class TestCC004:
    """Parameters no call forwards, now reported by CC010."""

    BASE = {
        "pkg.callee": (
            "def deep(items, budget=None, strict=False):\n"
            "    return items\n"
        )
    }

    def test_dropped_forward_flagged(self):
        fps = fingerprints(
            {
                **self.BASE,
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    return deep(items)\n"
                ),
            },
            codes=["CC010"],
        )
        assert fps == {"CC010@code:run"}

    def test_keyword_forward_accepted(self):
        assert not findings(
            {
                **self.BASE,
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    return deep(items, budget=budget)\n"
                ),
            },
            codes=["CC010"],
        )

    def test_explicit_other_value_accepted(self):
        # Passing a *different* value is a decision, not a drop.
        assert not findings(
            {
                **self.BASE,
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    return deep(items, budget=None)\n"
                ),
            },
            codes=["CC010"],
        )

    def test_kwargs_splat_accepted(self):
        assert not findings(
            {
                **self.BASE,
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None, **kw):\n"
                    "    return deep(items, **kw)\n"
                ),
            },
            codes=["CC010"],
        )

    def test_local_consumption_exempt(self):
        # Reading the param outside any call argument ("if strict:",
        # "budget.remaining()") is a visible decision, not a drop.
        assert not findings(
            {
                **self.BASE,
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    if budget is not None:\n"
                    "        items = items[:10]\n"
                    "    return deep(items)\n"
                ),
            },
            codes=["CC010"],
        )

    def test_positional_only_param_flagged(self):
        # A positional-only plumbed parameter is still the function's
        # own; dropping it on every call is a dropped forward.
        found = findings(
            {
                **self.BASE,
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None, /):\n"
                    "    return deep(items)\n"
                ),
            },
            codes=["CC010"],
        )
        [diag] = found
        assert diag.fingerprint == "CC010@code:run"
        assert "without forwarding" in diag.message
        assert diag.suggestion == "pass budget=budget through the call"

    def test_callee_without_param_ignored(self):
        assert not findings(
            {
                "pkg.callee": "def deep(items):\n    return items\n",
                "pkg.caller": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    return deep(items)\n"
                ),
            },
            codes=["CC010"],
        )


# --------------------------------------------------------------------- #
# CC005 — error taxonomy
# --------------------------------------------------------------------- #


class TestCC005:
    def test_raise_exception_flagged(self):
        fps = fingerprints(
            {"pkg.m": "def f():\n    raise Exception('boom')\n"},
            codes=["CC005"],
        )
        assert fps == {"CC005@code:f"}

    def test_bare_except_flagged(self):
        fps = fingerprints(
            {
                "pkg.m": (
                    "def f(x):\n"
                    "    try:\n"
                    "        return x()\n"
                    "    except:\n"
                    "        return None\n"
                )
            },
            codes=["CC005"],
        )
        assert fps == {"CC005@code:f"}

    def test_swallowing_except_exception_flagged(self):
        src = (
            "def swallow(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except Exception:\n"
            "        return None\n"
            "def boundary(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except Exception:\n"
            "        raise\n"  # re-raises: fine
        )
        assert fingerprints({"pkg.m": src}, codes=["CC005"]) == {
            "CC005@code:swallow"
        }

    def test_narrow_except_not_flagged(self):
        src = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except (ValueError, KeyError):\n"
            "        return None\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC005"])

    def test_supervision_boundary_exempt(self):
        src = (
            "def envelope(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert not findings({"repro.parallel.pool": src}, codes=["CC005"])
        assert not findings(
            {"repro.robustness.supervise": src}, codes=["CC005"]
        )


# --------------------------------------------------------------------- #
# CC011 — unguarded writes (the check formerly coded CC006)
# --------------------------------------------------------------------- #

LOCKED_CLASS = (
    "import threading\n"
    "class Cache:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.data = {}\n"
    "    def put(self, k, v):\n"
    "        with self._lock:\n"
    "            self.data[k] = v\n"
)


class TestCC006:
    """Writes outside the class lock, now reported by CC011."""

    def test_unlocked_write_flagged(self):
        src = LOCKED_CLASS + (
            "    def rogue(self, k, v):\n"
            "        self.data[k] = v\n"
        )
        assert fingerprints({"pkg.m": src}, codes=["CC011"]) == {
            "CC011@code:Cache.rogue"
        }

    def test_locked_write_accepted(self):
        assert not findings({"pkg.m": LOCKED_CLASS}, codes=["CC011"])

    def test_lock_held_helper_convention(self):
        src = LOCKED_CLASS + (
            "    def _refresh(self):\n"
            "        self.data = {}\n"  # written only under callers' lock
            "    def clear(self):\n"
            "        with self._lock:\n"
            "            self._refresh()\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC011"])

    def test_lock_held_helper_with_unlocked_caller_flagged(self):
        src = LOCKED_CLASS + (
            "    def _refresh(self):\n"
            "        self.data = {}\n"
            "    def clear(self):\n"
            "        with self._lock:\n"
            "            self._refresh()\n"
            "    def sneaky(self):\n"
            "        self._refresh()\n"  # unlocked call site: not lock-held
        )
        assert fingerprints({"pkg.m": src}, codes=["CC011"]) == {
            "CC011@code:Cache._refresh"
        }

    def test_never_locked_attribute_flagged(self):
        # No write of ``seen`` holds the lock: each write outside the
        # constructor is flagged, with the lock it should take.
        src = LOCKED_CLASS + (
            "    def mark(self, k):\n"
            "        self.seen = k\n"
            "    def forget(self):\n"
            "        self.seen = None\n"
        )
        found = findings({"pkg.m": src}, codes=["CC011"])
        assert {d.fingerprint for d in found} == {
            "CC011@code:Cache.mark",
            "CC011@code:Cache.forget",
        }
        for diag in found:
            assert "outside `with self._lock`" in diag.message
            assert diag.witness.startswith("pkg/m.py:")

    def test_class_without_lock_ignored(self):
        src = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.data = {}\n"
            "    def put(self, k, v):\n"
            "        self.data[k] = v\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC011"])


class TestCC007:
    def test_direct_index_subscript_flagged(self):
        # The from_pairs bug, distilled: a dict-comp lookup table
        # subscripted with user-supplied text.
        src = (
            "def resolve(names, wanted):\n"
            "    name_index = {n: i for i, n in enumerate(names)}\n"
            "    return [name_index[w] for w in wanted]\n"
        )
        assert fingerprints({"pkg.m": src}, codes=["CC007"]) == {
            "CC007@code:resolve"
        }

    def test_get_accessor_not_flagged(self):
        src = (
            "def resolve(names, wanted):\n"
            "    name_index = {n: i for i, n in enumerate(names)}\n"
            "    return [name_index.get(w) for w in wanted]\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC007"])

    def test_guarded_subscript_not_flagged(self):
        src = (
            "def resolve(names, w):\n"
            "    name_index = {n: i for i, n in enumerate(names)}\n"
            "    try:\n"
            "        return name_index[w]\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC007"])

    def test_store_subscript_not_flagged(self):
        # Writing into the table is construction, not lookup.
        src = (
            "def build(names):\n"
            "    name_index = {n: i for i, n in enumerate(names)}\n"
            "    name_index['extra'] = len(name_index)\n"
            "    return name_index\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC007"])

    def test_non_index_name_not_flagged(self):
        # Only the *_index convention declares "this is a lookup table".
        src = (
            "def resolve(names, w):\n"
            "    table = {n: i for i, n in enumerate(names)}\n"
            "    return table[w]\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC007"])

    def test_from_pairs_regression_stays_fixed(self, real_tree):
        # The satellite fix: FormalContext.from_pairs must never regress
        # to bare-KeyError lookups.
        reports = run_conformance(real_tree, codes=["CC007"])
        flagged = {
            r.target for r in reports for _ in r.diagnostics
        }
        assert "repro/core/context.py" not in flagged


# --------------------------------------------------------------------- #
# seeded mutations on the real tree (the acceptance criteria)
# --------------------------------------------------------------------- #


def _module_findings(project, relpath, codes):
    return {
        d.fingerprint
        for r in run_conformance(project, codes=codes)
        if r.target == relpath
        for d in r.diagnostics
    }


class TestSeededMutations:
    def test_real_tree_cc001_cc006_clean(self, real_tree):
        # CC006's unguarded-write check is part of CC011 now.
        reports = run_conformance(real_tree, codes=["CC001", "CC011"])
        assert reports == []

    def test_dict_staleness_write_trips_cc001(self, real_tree):
        # The PR 5 bug, re-planted: a __dict__ write in the clustering
        # layer that would silently skip the FA version counter.
        name = "repro.core.trace_clustering"
        source = real_tree.modules[name].source + (
            "\n\ndef _rebind_reference(clustering, transitions):\n"
            '    clustering.reference.__dict__["transitions"] = transitions\n'
        )
        mutated = real_tree.with_module_source(name, source)
        fps = _module_findings(
            mutated, "repro/core/trace_clustering.py", ["CC001"]
        )
        assert "CC001@code:_rebind_reference" in fps

    def test_dropped_budget_forward_trips_cc004(self, real_tree):
        # CC010 (formerly CC004): the clustering body never reads
        # ``budget`` locally — it only forwards it — so dropping the
        # relation_map forward is a pure plumbing break.
        name = "repro.core.trace_clustering"
        original = real_tree.modules[name].source
        forwarded = (
            "            [classes.representatives[c] for c in candidates],\n"
            "            jobs=jobs,\n"
            "            budget=budget,\n"
        )
        assert forwarded in original, "anchor for the seeded mutation moved"
        mutated = real_tree.with_module_source(
            name,
            original.replace(
                forwarded,
                "            [classes.representatives[c] for c in candidates],\n"
                "            jobs=jobs,\n",
            ),
        )
        fps = _module_findings(
            mutated, "repro/core/trace_clustering.py", ["CC010"]
        )
        assert any(fp.startswith("CC010@") for fp in fps)
        base = _module_findings(
            real_tree, "repro/core/trace_clustering.py", ["CC010"]
        )
        assert not any(fp.startswith("CC010@") for fp in base)
