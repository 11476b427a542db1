"""The flow-sensitive conformance passes (CC008–CC011): synthetic
triggers, their clean counterparts, and the seeded mutations on the
real tree.

Each seeded mutation re-plants a bug the flow-sensitive passes were
built to catch — a handle leaked on the exception path, a bare builtin
escaping an API boundary, a branch that drops ``budget=``, a write
racing past the cache lock — via ``ProjectModel.with_module_source``,
and asserts both directions: the pass fires on the mutant and is quiet
on the pristine tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.conformance import ProjectModel, run_conformance

ERRORS_MODULE = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "class InputError(ReproError, ValueError):\n"
    "    pass\n"
)


def findings(sources, codes):
    project = ProjectModel.from_sources(sources)
    return [
        d for r in run_conformance(project, codes=codes) for d in r.diagnostics
    ]


def fingerprints(sources, codes):
    return {d.fingerprint for d in findings(sources, codes)}


@pytest.fixture(scope="module")
def real_tree() -> ProjectModel:
    return ProjectModel.load(Path(repro.__file__).resolve().parent)


# --------------------------------------------------------------------- #
# CC008 — resource leaks
# --------------------------------------------------------------------- #


class TestCC008:
    def test_leak_on_exception_path(self):
        found = findings(
            {
                "pkg.m": (
                    "def f(p, data):\n"
                    "    h = open(p)\n"
                    "    h.write(data)\n"
                    "    h.close()\n"
                )
            },
            codes=["CC008"],
        )
        [diag] = found
        assert diag.fingerprint == "CC008@code:f"
        assert "exceptional path" in diag.message
        assert "<exceptional exit>" in diag.witness
        assert diag.witness.startswith("pkg/m.py:2")

    def test_leak_on_fall_through_path(self):
        found = findings(
            {
                "pkg.m": (
                    "def g(p):\n"
                    "    h = open(p)\n"
                    "    if p:\n"
                    "        return 1\n"
                    "    h.close()\n"
                    "    return 0\n"
                )
            },
            codes=["CC008"],
        )
        [diag] = found
        assert "fall-through path" in diag.message

    def test_lock_acquire_without_finally(self):
        fps = fingerprints(
            {
                "pkg.m": (
                    "def f(lk, x):\n"
                    "    lk.acquire()\n"
                    "    work(x)\n"
                    "    lk.release()\n"
                )
            },
            codes=["CC008"],
        )
        assert fps == {"CC008@code:f"}

    def test_with_block_is_clean(self):
        assert not findings(
            {
                "pkg.m": (
                    "def f(p, data):\n"
                    "    with open(p) as h:\n"
                    "        h.write(data)\n"
                )
            },
            codes=["CC008"],
        )

    def test_try_finally_covers_the_unwinding_edges(self):
        assert not findings(
            {
                "pkg.m": (
                    "def f(p, data):\n"
                    "    h = open(p)\n"
                    "    try:\n"
                    "        h.write(data)\n"
                    "    finally:\n"
                    "        h.close()\n"
                )
            },
            codes=["CC008"],
        )

    def test_escape_transfers_ownership(self):
        # Returned, stashed, or passed on: someone else's to close.
        assert not findings(
            {
                "pkg.m": (
                    "def opener(p):\n"
                    "    h = open(p)\n"
                    "    return h\n"
                    "def stasher(p, registry):\n"
                    "    h = open(p)\n"
                    "    registry.append(h)\n"
                )
            },
            codes=["CC008"],
        )

    def test_acquisition_that_itself_raises_is_not_a_leak(self):
        # If open() raises there is no handle yet; the lone may-raise
        # statement must not leak its own left-hand side.
        assert not findings(
            {
                "pkg.m": (
                    "def f(p):\n"
                    "    h = open(p)\n"
                    "    h.close()\n"
                )
            },
            codes=["CC008"],
        )


# --------------------------------------------------------------------- #
# CC009 — exception flow
# --------------------------------------------------------------------- #


class TestCC009:
    def test_direct_builtin_raise_at_boundary(self):
        found = findings(
            {
                "repro.robustness.errors": ERRORS_MODULE,
                "repro.verify.checker": (
                    "def check(x):\n"
                    "    raise ValueError(x)\n"
                ),
            },
            codes=["CC009"],
        )
        [diag] = found
        assert diag.fingerprint == "CC009@code:check"
        assert diag.severity == "error"
        assert "ValueError" in diag.message

    def test_taxonomy_raise_is_clean(self):
        assert not findings(
            {
                "repro.robustness.errors": ERRORS_MODULE,
                "repro.verify.checker": (
                    "from repro.robustness.errors import InputError\n"
                    "def check(x):\n"
                    "    raise InputError(x)\n"
                ),
            },
            codes=["CC009"],
        )

    def test_transitive_escape_is_info_with_origin(self):
        found = findings(
            {
                "repro.robustness.errors": ERRORS_MODULE,
                "pkg.helper": (
                    "def explode(x):\n"
                    "    raise KeyError(x)\n"
                ),
                "repro.verify.checker": (
                    "from pkg.helper import explode\n"
                    "def check(x):\n"
                    "    return explode(x)\n"
                ),
            },
            codes=["CC009"],
        )
        [diag] = found
        assert diag.severity == "info"  # visible, not gated
        assert "explode()" in diag.message
        assert "pkg/helper.py:2" in diag.message

    def test_private_and_non_boundary_functions_exempt(self):
        src = "def _check(x):\n    raise ValueError(x)\n"
        assert not findings(
            {"repro.verify.checker": src}, codes=["CC009"]
        )
        assert not findings(
            {"pkg.internal": "def check(x):\n    raise ValueError(x)\n"},
            codes=["CC009"],
        )

    def test_dead_except_arm(self):
        src = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except Exception:\n"
            "        return None\n"
            "    except ValueError:\n"
            "        return 1\n"
        )
        found = findings({"pkg.m": src}, codes=["CC009"])
        [diag] = found
        assert diag.fingerprint == "CC009@code:f"
        assert "dead" in diag.message

    def test_narrowest_first_arms_are_clean(self):
        src = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except ValueError:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC009"])

    def test_cause_dropping_reraise(self):
        src = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except KeyError as exc:\n"
            "        raise RuntimeError('ctx')\n"
        )
        found = findings({"pkg.m": src}, codes=["CC009"])
        [diag] = found
        assert diag.severity == "warning"
        assert "from" in diag.message

    def test_from_exc_and_from_none_are_clean(self):
        src = (
            "def f(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except KeyError as exc:\n"
            "        raise RuntimeError('ctx') from exc\n"
            "def g(x):\n"
            "    try:\n"
            "        return x()\n"
            "    except KeyError:\n"
            "        raise RuntimeError('ctx') from None\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC009"])


# --------------------------------------------------------------------- #
# CC010 — flow-sensitive plumbing
# --------------------------------------------------------------------- #


class TestCC010:
    CALLEE = {
        "pkg.callee": (
            "def deep(items, budget=None):\n"
            "    return items\n"
        )
    }

    def test_branch_dropped_forward(self):
        found = findings(
            {
                **self.CALLEE,
                "pkg.user": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    if budget is not None:\n"
                    "        return deep(items, budget=budget)\n"
                    "    return deep(items)\n"
                ),
            },
            codes=["CC010"],
        )
        [diag] = found
        assert diag.fingerprint == "CC010@code:run"
        assert "another path" in diag.message
        assert diag.witness.startswith("pkg/user.py:")

    def test_consistent_forwarding_is_clean(self):
        assert not findings(
            {
                **self.CALLEE,
                "pkg.user": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    if budget is not None:\n"
                    "        return deep(items, budget=budget)\n"
                    "    return deep(items, budget=None)\n"
                ),
            },
            codes=["CC010"],
        )

    def test_consistent_dropping_with_local_read_is_clean(self):
        # Every site drops it, but ``budget`` is read locally: the
        # never-forwarded check treats that as a decision, not a drop.
        assert not findings(
            {
                **self.CALLEE,
                "pkg.user": (
                    "from pkg.callee import deep\n"
                    "def run(items, budget=None):\n"
                    "    if budget is not None:\n"
                    "        return deep(items)\n"
                    "    return deep(items)\n"
                ),
            },
            codes=["CC010"],
        )

    def test_dead_store_of_fanout_result(self):
        found = findings(
            {
                "pkg.m": (
                    "def fan(fn, items, parallel_map):\n"
                    "    results = parallel_map(fn, items)\n"
                    "    return None\n"
                )
            },
            codes=["CC010"],
        )
        [diag] = found
        assert diag.fingerprint == "CC010@code:fan"
        assert "never" in diag.message and "results" in diag.message

    def test_read_and_underscore_stores_are_clean(self):
        assert not findings(
            {
                "pkg.m": (
                    "def used(fn, items, parallel_map):\n"
                    "    results = parallel_map(fn, items)\n"
                    "    return results\n"
                    "def deliberate(fn, items, parallel_map):\n"
                    "    _results = parallel_map(fn, items)\n"
                    "    return None\n"
                )
            },
            codes=["CC010"],
        )


# --------------------------------------------------------------------- #
# CC011 — locksets
# --------------------------------------------------------------------- #

TWO_LOCKS = (
    "import threading\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self._a_lock = threading.Lock()\n"
    "        self._b_lock = threading.Lock()\n"
    "        self.data = {}\n"
    "    def m1(self, k, v):\n"
    "        with self._a_lock:\n"
    "            self.data[k] = v\n"
    "    def m2(self, k):\n"
    "        with self._b_lock:\n"
    "            self.data.pop(k)\n"
)


class TestCC011:
    def test_disjoint_locks_have_no_common_lockset(self):
        found = findings({"pkg.m": TWO_LOCKS}, codes=["CC011"])
        [diag] = found
        assert diag.fingerprint == "CC011@code:C.data"
        assert "_a_lock" in diag.message and "_b_lock" in diag.message

    def test_write_after_with_block_ends(self):
        # Lexically "the method takes the lock" — but the second write
        # happens after the with released it.  Only flow can see this.
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "        self.n += 1\n"
        )
        found = findings({"pkg.m": src}, codes=["CC011"])
        [diag] = found
        assert diag.fingerprint == "CC011@code:C.bump"
        assert "self._lock" in diag.message
        assert diag.witness.startswith("pkg/m.py:")

    def test_acquire_release_pairs_count_as_held(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def locked_with(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def locked_manual(self):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self.n += 1\n"
            "        finally:\n"
            "            self._lock.release()\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC011"])

    def test_lock_held_helper_convention_carries_over(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def _bump_locked(self):\n"
            "        self.n += 1\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
        )
        assert not findings({"pkg.m": src}, codes=["CC011"])

    def test_single_lock_discipline_is_clean(self):
        fixed = TWO_LOCKS.replace("self._b_lock", "self._a_lock")
        assert not findings({"pkg.m": fixed}, codes=["CC011"])


# --------------------------------------------------------------------- #
# seeded mutations on the real tree (the acceptance criteria)
# --------------------------------------------------------------------- #


def _module_findings(project, relpath, codes, severities=("error", "warning")):
    return {
        d.fingerprint
        for r in run_conformance(project, codes=codes)
        if r.target == relpath
        for d in r.diagnostics
        if d.severity in severities
    }


class TestSeededMutations:
    def test_real_tree_flow_passes_gate_clean(self, real_tree):
        reports = run_conformance(
            real_tree, codes=["CC008", "CC009", "CC010", "CC011"]
        )
        gated = [
            d
            for r in reports
            for d in r.diagnostics
            if d.severity in ("error", "warning")
        ]
        assert gated == []

    def test_leaked_handle_trips_cc008(self, real_tree):
        name = "repro.robustness.atomicio"
        source = real_tree.modules[name].source + (
            "\n\ndef dump_snapshot(path, payload):\n"
            '    fh = open(path, "w")\n'
            "    fh.write(payload)\n"
            "    fh.close()\n"
        )
        mutated = real_tree.with_module_source(name, source)
        fps = _module_findings(
            mutated, "repro/robustness/atomicio.py", ["CC008"]
        )
        assert "CC008@code:dump_snapshot" in fps
        base = _module_findings(
            real_tree, "repro/robustness/atomicio.py", ["CC008"]
        )
        assert base == set()

    def test_reverted_taxonomy_raise_trips_cc009(self, real_tree):
        name = "repro.mining.strauss"
        original = real_tree.modules[name].source
        fixed = 'raise InputError("no scenario traces to learn from")'
        assert fixed in original, "anchor for the seeded mutation moved"
        mutated = real_tree.with_module_source(
            name,
            original.replace(
                fixed, 'raise ValueError("no scenario traces to learn from")'
            ),
        )
        fps = _module_findings(mutated, "repro/mining/strauss.py", ["CC009"])
        assert any(
            fp.startswith("CC009@code:Strauss.back_end") for fp in fps
        )
        base = _module_findings(
            real_tree, "repro/mining/strauss.py", ["CC009"]
        )
        assert not any(fp.startswith("CC009@") for fp in base)

    def test_branch_dropped_budget_trips_cc010(self, real_tree):
        name = "repro.core.trace_clustering"
        original = real_tree.modules[name].source
        # The branch that keeps an unchanged lattice, planted with a
        # rebuild that forgets the budget the other branch passes on.
        reuse = "        lattice = prior.lattice\n"
        assert reuse in original, "anchor for the seeded mutation moved"
        assert "            budget=budget,\n            resume_from=" in original
        mutated = real_tree.with_module_source(
            name,
            original.replace(
                reuse,
                "        lattice = build_lattice_godin(prior.lattice.context)\n",
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

    def test_delocked_cache_write_trips_cc011(self, real_tree):
        name = "repro.parallel.relation"
        original = real_tree.modules[name].source
        locked = (
            "    def clear(self) -> None:\n"
            "        with self._lock:\n"
            "            self._data.clear()\n"
            "            self.hits = 0\n"
            "            self.misses = 0\n"
        )
        assert locked in original, "anchor for the seeded mutation moved"
        unlocked = (
            "    def clear(self) -> None:\n"
            "        self._data.clear()\n"
            "        self.hits = 0\n"
            "        self.misses = 0\n"
        )
        mutated = real_tree.with_module_source(
            name, original.replace(locked, unlocked)
        )
        fps = _module_findings(mutated, "repro/parallel/relation.py", ["CC011"])
        assert any(
            fp.startswith("CC011@code:RelationCache.clear") for fp in fps
        )
        base = _module_findings(
            real_tree, "repro/parallel/relation.py", ["CC011"]
        )
        assert not any(fp.startswith("CC011@") for fp in base)
