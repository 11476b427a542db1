"""Scenario extraction and the Strauss miner (Figure 7, Section 2.2)."""

import pytest

from repro.lang.events import Event
from repro.lang.traces import Trace, parse_trace
from repro.mining.scenarios import ScenarioExtractor, extract_scenarios
from repro.mining.strauss import Strauss
from repro.robustness.errors import ReproError

PROGRAM = (
    "fopen(f1); XNextEvent(e1); fread(f1); fopen(f2); "
    "fread(f2); fclose(f1); fclose(f2)"
)


class TestScenarioExtraction:
    def test_one_scenario_per_seed_occurrence(self):
        trace = parse_trace(PROGRAM, trace_id="p")
        scenarios = extract_scenarios(trace, seeds=["fopen"])
        assert len(scenarios) == 2

    def test_projection_by_shared_name(self):
        trace = parse_trace(PROGRAM)
        scenarios = extract_scenarios(trace, seeds=["fopen"])
        assert str(scenarios[0]) == "fopen(X); fread(X); fclose(X)"
        assert str(scenarios[1]) == "fopen(X); fread(X); fclose(X)"

    def test_noise_excluded(self):
        trace = parse_trace(PROGRAM)
        for scenario in extract_scenarios(trace, seeds=["fopen"]):
            assert "XNextEvent" not in scenario.symbols

    def test_standardization(self):
        trace = parse_trace("open(zz9); close(zz9)")
        (scenario,) = extract_scenarios(trace, seeds=["open"])
        assert scenario.names() == {"X"}

    def test_no_standardize_option(self):
        extractor = ScenarioExtractor(seeds=frozenset(["open"]), standardize=False)
        (scenario,) = extractor.extract(parse_trace("open(zz9); close(zz9)"))
        assert scenario.names() == {"zz9"}

    def test_hops_expand_relatedness(self):
        # The gc is later attached to window w; with hops=0 only events
        # mentioning the seed's own name (g) appear, with hops=1 the
        # attachment event links g to w and pulls in w's events.
        trace = parse_trace(
            "createwin(w); creategc(g); setgcwin(g, w); destroywin(w)"
        )
        extractor0 = ScenarioExtractor(seeds=frozenset(["creategc"]), hops=0)
        extractor1 = ScenarioExtractor(seeds=frozenset(["creategc"]), hops=1)
        (s0,) = extractor0.extract(trace)
        (s1,) = extractor1.extract(trace)
        assert "createwin" not in s0.symbols
        assert "createwin" in s1.symbols

    def test_max_events_window(self):
        events = "; ".join([f"pre{i}(x)" for i in range(5)] + ["seed(x)"])
        extractor = ScenarioExtractor(seeds=frozenset(["seed"]), max_events=3)
        (scenario,) = extractor.extract(parse_trace(events))
        assert len(scenario) == 3
        assert scenario.symbols[-1] == "seed"

    def test_max_events_window_finds_seed_by_position(self):
        # One Event object occurs twice: the window of the second
        # occurrence is centred on it, not on the first copy.
        seed = Event("seed", ("x",))
        between = tuple(Event(f"p{i}", ("x",)) for i in range(4))
        trace = Trace((seed, *between, seed), trace_id="t")
        extractor = ScenarioExtractor(
            seeds=frozenset(["seed"]), max_events=3, standardize=False
        )
        first, last = extractor.extract(trace)
        assert last.trace_id == "t@5"
        assert str(last) == "p2(x); p3(x); seed(x)"
        assert str(first) == "seed(x); p0(x); p1(x)"

    def test_argless_seed(self):
        extractor = ScenarioExtractor(seeds=frozenset(["tick"]))
        (scenario,) = extractor.extract(parse_trace("a(x); tick; b(x)"))
        assert scenario.symbols == ("tick",)

    def test_non_seed_index_rejected(self):
        extractor = ScenarioExtractor(seeds=frozenset(["open"]))
        with pytest.raises(ValueError):
            extractor.scenario_at(parse_trace("open(x); close(x)"), 1)

    def test_bad_inputs_are_repro_errors(self):
        with pytest.raises(ReproError, match="hops must be >= 0"):
            ScenarioExtractor(seeds=frozenset(["open"]), hops=-1)
        extractor = ScenarioExtractor(seeds=frozenset(["open"]))
        with pytest.raises(ReproError, match="is not a seed"):
            extractor.scenario_at(parse_trace("open(x); close(x)"), 1)
        scoped = ScenarioExtractor(seeds=frozenset(["tick"]), seed_arg=0)
        with pytest.raises(ReproError, match="lacks argument 0"):
            scoped.extract(parse_trace("tick"))

    def test_extract_all(self):
        traces = [parse_trace(PROGRAM), parse_trace("fopen(q); fclose(q)")]
        scenarios = extract_scenarios(traces, seeds=["fopen"])
        assert len(scenarios) == 3


class TestStrauss:
    @pytest.fixture
    def miner(self):
        return Strauss(seeds=frozenset(["fopen", "popen"]), k=2, s=1.0)

    @pytest.fixture
    def training(self):
        return [
            parse_trace("fopen(a); fread(a); fclose(a)"),
            parse_trace("fopen(b); fwrite(b); fclose(b); popen(c); pclose(c)"),
            parse_trace("popen(d); fread(d); pclose(d)"),
        ]

    def test_front_end(self, miner, training):
        scenarios = miner.front_end(training)
        assert len(scenarios) == 4
        assert all(s.names() <= {"X"} for s in scenarios)

    def test_mine_accepts_scenarios(self, miner, training):
        mined = miner.mine(training)
        for scenario in mined.scenarios:
            assert mined.fa.accepts(scenario)

    def test_mined_spec_can_be_buggy(self, miner):
        # A buggy training run teaches the miner a buggy specification —
        # the problem Cable exists to solve.
        training = [
            parse_trace("fopen(a); fclose(a)"),
            parse_trace("popen(b); fclose(b)"),  # the bug
        ]
        mined = miner.mine(training)
        assert mined.fa.accepts(parse_trace("popen(X); fclose(X)"))

    def test_unique_scenario_count(self, miner, training):
        mined = miner.mine(training)
        assert mined.num_unique_scenarios == 4

    def test_back_end_requires_scenarios(self, miner):
        with pytest.raises(ValueError):
            miner.back_end([])

    def test_remine_on_good_labels(self, miner):
        scenarios = [
            parse_trace("fopen(X); fclose(X)"),
            parse_trace("popen(X); fclose(X)"),
            parse_trace("popen(X); pclose(X)"),
        ]
        labels = {0: "good", 1: "bad", 2: "good"}
        result = miner.remine(scenarios, labels)
        fa = result["good"].fa
        assert fa.accepts(scenarios[0])
        assert fa.accepts(scenarios[2])
        assert not fa.accepts(scenarios[1])

    def test_remine_multiple_labels(self, miner):
        # Section 2.2's fix for over-generalization: split the good
        # traces and mine each split separately.
        scenarios = [
            parse_trace("fopen(X); fclose(X)"),
            parse_trace("popen(X); pclose(X)"),
        ]
        labels = {0: "good_fopen", 1: "good_popen"}
        result = miner.remine(scenarios, labels, keep=["good_fopen", "good_popen"])
        assert result["good_fopen"].fa.accepts(scenarios[0])
        assert not result["good_fopen"].fa.accepts(scenarios[1])
        assert result["good_popen"].fa.accepts(scenarios[1])

    def test_remine_empty_label_rejected(self, miner):
        with pytest.raises(ValueError):
            miner.remine([parse_trace("a(x)")], {0: "bad"}, keep="good")

    def test_coring_applied_when_configured(self):
        miner = Strauss(seeds=frozenset(["a"]), coring_fraction=0.4)
        scenarios = [parse_trace("a(X); b(X)")] * 9 + [parse_trace("a(X); c(X)")]
        mined = miner.back_end(scenarios)
        assert mined.fa.accepts(parse_trace("a(X); b(X)"))
        assert not mined.fa.accepts(parse_trace("a(X); c(X)"))


class TestSeedArg:
    def test_seed_arg_restricts_relatedness(self):
        trace = parse_trace(
            "createwin(w); creategc(g, w); draw(g); destroywin(w)"
        )
        scoped = ScenarioExtractor(seeds=frozenset(["creategc"]), seed_arg=0)
        (scenario,) = scoped.extract(trace)
        assert scenario.symbols == ("creategc", "draw")

    def test_seed_arg_out_of_range(self):
        extractor = ScenarioExtractor(seeds=frozenset(["tick"]), seed_arg=0)
        with pytest.raises(ValueError):
            extractor.extract(parse_trace("tick"))

    def test_strauss_passes_seed_arg_through(self):
        miner = Strauss(seeds=frozenset(["creategc"]), seed_arg=0)
        scenarios = miner.front_end(
            [parse_trace("createwin(w); creategc(g, w); draw(g)")]
        )
        (scenario,) = scenarios
        assert "createwin" not in scenario.symbols
