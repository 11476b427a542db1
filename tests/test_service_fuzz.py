"""Fuzzing the verb payloads of :class:`SessionService`.

Every payload ends in a result or a :class:`ReproError` — the taxonomy
the HTTP layer maps to a 4xx reply — never in a builtin exception.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cable.focus import TEMPLATES
from repro.fa.serialization import fa_to_text
from repro.fa.templates import unordered_fa
from repro.robustness.errors import InputError, ReproError
from repro.service.api import SessionService
from repro.service.manager import SessionManager

TRACES = [
    "open(X); read(X); close(X)",
    "open(Y); write(Y); close(Y)",
    "open(Z); close(Z)",
]

#: Per template, arguments that name something real in the session
#: above, so the fuzz reaches the clustering as well as the checks.
MEANINGFUL_ARGS = {
    "unordered": [None],
    "seed": ["open(X)", "close(F)", "*", "open("],
    "name": ["X", "Q", "F"],
    "fa": [
        fa_to_text(unordered_fa(["open(X)", "close(X)"])),
        fa_to_text(unordered_fa(["open(X)", "read(X)", "write(X)", "close(X)"])),
        "states: q\n",
    ],
    "regex": ["(open(X) | read(X) | write(X) | close(X))*", "open(X) close(X)", "("],
}

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-20, 20), st.floats(allow_nan=False),
    st.text(max_size=12),
)
json_values = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), json_scalars, max_size=2),
)


@st.composite
def focus_payloads(draw) -> dict:
    """Mostly well-typed payloads, each field sometimes missing or junk."""
    payload = {}
    if draw(st.integers(0, 9)):
        payload["concept"] = draw(
            st.integers(-4, 4) if draw(st.integers(0, 3)) else json_values
        )
    template = draw(st.sampled_from(TEMPLATES))
    if draw(st.integers(0, 9)):
        payload["template"] = template if draw(st.integers(0, 3)) else draw(json_values)
    if draw(st.integers(0, 9)):
        payload["arg"] = draw(
            st.sampled_from(MEANINGFUL_ARGS[template])
            if draw(st.integers(0, 3))
            else json_values
        )
    return payload


def test_focus_payloads_end_in_the_taxonomy(tmp_path):
    service = SessionService(SessionManager(tmp_path / "store"))
    service.create({"traces": TRACES, "session": "a"})

    @given(focus_payloads())
    @settings(max_examples=600, deadline=None)
    def focus(payload):
        try:
            result = service.handle_verb("a", "focus", payload)
        except ReproError:
            return
        assert result["depth"] == 1
        service.handle_verb("a", "endfocus", {})

    focus()


#: The verbs that act on one concept of the session.
CONCEPT_VERBS = ("label", "inspect", "fa", "transitions", "traces")


@st.composite
def concept_payloads(draw) -> dict:
    """``concept``, ``which`` and ``label`` fields, mostly well-typed,
    each sometimes missing or junk."""
    payload = {}
    if draw(st.integers(0, 9)):
        payload["concept"] = draw(
            st.integers(-8, 8) if draw(st.integers(0, 3)) else json_values
        )
    if draw(st.integers(0, 2)):
        payload["which"] = draw(
            st.sampled_from(["all", "unlabeled", "=good", "=bad", "=", "good"])
            if draw(st.integers(0, 3))
            else json_values
        )
    if draw(st.integers(0, 2)):
        payload["label"] = draw(
            st.sampled_from(["good", "bad"]) if draw(st.integers(0, 3)) else json_values
        )
    return payload


def test_concept_verb_payloads_end_in_the_taxonomy(tmp_path):
    service = SessionService(SessionManager(tmp_path / "store"))
    service.create({"traces": TRACES, "session": "a"})

    @given(st.sampled_from(CONCEPT_VERBS), concept_payloads())
    @settings(max_examples=400, deadline=None)
    def verb(name, payload):
        try:
            result = service.handle_verb("a", name, payload)
        except ReproError:
            return
        # What the HTTP layer sends back.
        json.dumps(result)

    verb()


def test_focus_template_errors_are_input_errors(tmp_path):
    service = SessionService(SessionManager(tmp_path / "store"))
    service.create({"traces": TRACES, "session": "a"})
    for payload in (
        {"concept": 0, "template": "seed"},
        {"concept": 0, "template": "seed", "arg": ""},
        {"concept": 0, "template": "name", "arg": "Q"},
        {"concept": 0, "template": "regex"},
        {"concept": 0, "template": "bogus"},
    ):
        with pytest.raises(InputError):
            service.handle_verb("a", "focus", payload)
