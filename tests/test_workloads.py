"""The synthetic workloads: animals, stdio, the catalogue, and tracegen."""

import pytest

from repro.fa.serialization import fa_to_text
from repro.lang.traces import dedup_traces
from repro.learners.sk_strings import learn_sk_strings
from repro.workloads.animals import ANIMALS, animals_context
from repro.workloads.specs_catalog import (
    FOUR_LARGEST,
    SPEC_CATALOG,
    spec_by_name,
)
from repro.workloads.stdio import (
    StdioExample,
    buggy_spec,
    fixed_spec,
    reference_fa,
    unordered_reference,
)
from repro.workloads.tracegen import generate_program_traces, plan_instances
from repro.workloads.xlib_model import Behavior, SpecModel
from repro.lang.traces import parse_trace


class TestAnimals:
    def test_shape(self):
        ctx = animals_context()
        assert ctx.num_objects == len(ANIMALS) == 6
        assert ctx.num_attributes == 5

    def test_known_facts(self):
        ctx = animals_context()
        cats = ctx.objects.index("cats")
        marine = ctx.attributes.index("marine")
        assert not ctx.has(cats, marine)


class TestStdioSpecs:
    def test_buggy_accepts_wrong_close(self):
        assert buggy_spec().accepts(parse_trace("popen(p); fclose(p)"))

    def test_fixed_rejects_wrong_close(self):
        assert not fixed_spec().accepts(parse_trace("popen(p); fclose(p)"))
        assert not fixed_spec().accepts(parse_trace("fopen(f); pclose(f)"))

    def test_fixed_accepts_both_pairings(self):
        assert fixed_spec().accepts(parse_trace("fopen(f); fwrite(f); fclose(f)"))
        assert fixed_spec().accepts(parse_trace("popen(p); fread(p); pclose(p)"))

    def test_reference_accepts_all_lifecycles(self):
        ref = reference_fa()
        for text in (
            "fopen(f); fread(f)",
            "popen(p); pclose(p)",
            "fopen(f); pclose(f)",
            "popen(p); fclose(p)",
        ):
            assert ref.accepts(parse_trace(text))

    def test_reference_distinguishes_open_kind(self):
        ref = reference_fa()
        rows = {
            text: ref.executed_transitions(parse_trace(text))
            for text in ("fopen(f); fclose(f)", "popen(p); fclose(p)")
        }
        assert rows["fopen(f); fclose(f)"] != rows["popen(p); fclose(p)"]

    def test_unordered_reference_conflates_order(self):
        ref = unordered_reference()
        t1 = parse_trace("fopen(f); fclose(f)")
        t2 = parse_trace("fclose(f); fopen(f)")
        assert ref.executed_transitions(t1) == ref.executed_transitions(t2)


class TestStdioExample:
    def test_program_traces_deterministic(self):
        e1 = StdioExample(seed="s").program_traces()
        e2 = StdioExample(seed="s").program_traces()
        assert [str(t) for t in e1] == [str(t) for t in e2]

    def test_all_lifecycles_planted(self):
        example = StdioExample()
        traces = example.program_traces()
        from repro.mining.scenarios import extract_scenarios

        scenarios = extract_scenarios(traces, seeds=["fopen", "popen"])
        unique = dedup_traces(scenarios).num_classes
        assert unique == 12  # one class per lifecycle in the table

    def test_error_oracle_matches_fixed_spec(self):
        example = StdioExample()
        assert example.error_oracle(parse_trace("fopen(X); fread(X)"))
        assert not example.error_oracle(parse_trace("popen(X); pclose(X)"))

    def test_good_scenarios_accepted_by_fixed_spec(self):
        example = StdioExample()
        for scenario in example.good_scenarios():
            assert fixed_spec().accepts(scenario)


class TestSpecModel:
    def test_ground_truth_accepts_exactly_good(self):
        spec = spec_by_name("Quarks")
        for behavior in spec.behaviors:
            assert spec.ground_truth.accepts(behavior.trace()) == behavior.good

    def test_oracle_label(self):
        spec = spec_by_name("Quarks")
        good = next(b for b in spec.behaviors if b.good)
        bad = next(b for b in spec.behaviors if not b.good)
        assert spec.oracle_label(good.trace()) == "good"
        assert spec.oracle_label(bad.trace()) == "bad"

    def test_duplicate_behaviors_rejected(self):
        with pytest.raises(ValueError):
            SpecModel(
                name="dup",
                description="",
                behaviors=(
                    Behavior(("a",), good=True),
                    Behavior(("a",), good=True),
                ),
            )

    def test_no_good_behavior_rejected(self):
        with pytest.raises(ValueError):
            SpecModel(
                name="allbad",
                description="",
                behaviors=(Behavior(("a",), good=False),),
            )

    def test_reference_kinds(self):
        unordered = spec_by_name("XPutImage")
        scenarios = [b.trace() for b in unordered.behaviors]
        assert unordered.reference_fa(scenarios).num_states == 1
        seeded = spec_by_name("RegionsBig")
        assert seeded.reference_fa(scenarios=[]).num_states == 2

    def test_custom_reference(self):
        spec = spec_by_name("XtFree")
        fa = spec.reference_fa(scenarios=[])
        for behavior in spec.behaviors:
            assert fa.accepts(behavior.trace())

    def test_unknown_reference_kind(self):
        spec = SpecModel(
            name="weird",
            description="",
            behaviors=(Behavior(("a",), good=True),),
            reference_kind="nope",
        )
        with pytest.raises(ValueError):
            spec.reference_fa([])

    def test_debugged_fa_accepts_good_rejects_listed_bad(self):
        spec = spec_by_name("XFreeGC")
        fa = spec.debugged_fa()
        for behavior in spec.behaviors:
            if behavior.good:
                assert fa.accepts(behavior.trace())

    @pytest.mark.parametrize("name", ["XFreeGC", "RegionsBig"])
    def test_debugged_fa_is_learned_once(self, name):
        spec = spec_by_name(name)
        assert spec.debugged_fa() is spec.debugged_fa()
        good = [b.trace() for b in spec.behaviors if b.good]
        fresh = learn_sk_strings(good, k=spec.mine_k, s=spec.mine_s).fa
        assert fa_to_text(spec.debugged_fa()) == fa_to_text(fresh)


class TestCatalogue:
    def test_seventeen_specs(self):
        assert len(SPEC_CATALOG) == 17

    def test_fourteen_named_three_reconstructed(self):
        reconstructed = [s.name for s in SPEC_CATALOG if s.reconstructed]
        assert len(reconstructed) == 3

    def test_four_largest_are_catalogued(self):
        names = {s.name for s in SPEC_CATALOG}
        assert set(FOUR_LARGEST) <= names

    def test_unique_names(self):
        names = [s.name for s in SPEC_CATALOG]
        assert len(set(names)) == 17

    def test_lookup(self):
        assert spec_by_name("XtFree").name == "XtFree"
        with pytest.raises(KeyError):
            spec_by_name("NoSuchSpec")

    def test_scenarios_are_short(self):
        # Section 5.1: "the longest scenario through each FA is very
        # short, usually less than ten events long".  ("Usually": the
        # XPutImage stage chain is the one longer outlier.)
        longests = [
            max(len(b.symbols) for b in spec.behaviors) for spec in SPEC_CATALOG
        ]
        assert max(longests) <= 13
        assert sorted(longests)[len(longests) // 2] < 10  # median
        assert sum(1 for n in longests if n >= 10) <= 1


class TestTraceGen:
    @pytest.fixture
    def spec(self):
        return spec_by_name("Quarks")

    def test_plan_covers_every_behavior(self, spec):
        plan = plan_instances(spec, seed=0)
        assert len(plan) == spec.n_instances
        planned = {b.symbols for b in plan}
        assert planned == {b.symbols for b in spec.behaviors}

    def test_deterministic(self, spec):
        t1 = generate_program_traces(spec, seed=3)
        t2 = generate_program_traces(spec, seed=3)
        assert [str(a) for a in t1] == [str(b) for b in t2]

    def test_different_seeds_differ(self, spec):
        t1 = generate_program_traces(spec, seed=1)
        t2 = generate_program_traces(spec, seed=2)
        assert [str(a) for a in t1] != [str(b) for b in t2]

    def test_program_count(self, spec):
        assert len(generate_program_traces(spec, seed=0)) == spec.n_programs

    def test_instances_use_fresh_ids(self, spec):
        traces = generate_program_traces(spec, seed=0)
        creations: list[str] = []
        for trace in traces:
            for event in trace:
                if event.symbol == "XrmStringToQuark":
                    creations.append(event.args[0])
        assert len(creations) == len(set(creations))

    def test_noise_present_with_own_ids(self, spec):
        traces = generate_program_traces(spec, seed=0)
        noise_ids = {
            event.args[0]
            for trace in traces
            for event in trace
            if event.symbol in spec.noise_symbols
        }
        spec_ids = {
            event.args[0]
            for trace in traces
            for event in trace
            if event.symbol in spec.symbols
        }
        assert noise_ids
        assert not (noise_ids & spec_ids)
