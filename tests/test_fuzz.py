"""Mutation fuzzing of the three input parsers.

Each test mutates a bundled fixture text (deletes, inserts or duplicates
spans, inserts stray tokens) and checks that the loader either returns or
raises an ``AdvisorError``: malformed input must never escape as another
exception, which the CLI would print as a traceback.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mvindex.candidates import load_candidates
from mvindex.catalog import load_catalog
from mvindex.errors import AdvisorError
from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_text
from mvindex.workload import load_workload

STRAY_TOKENS = [",", ";", "=", "nan", "1e999", "-1", "0", "(", ")", ".", "#", "'", "%"]
PADDING = ["", " ", "\n"]


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to four random edits; a "line" edit inserts a line
    of stray tokens."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate", "token", "line"]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        elif edit == "insert":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + text[start:end] + text[at:]
        elif edit == "token":
            token = draw(st.sampled_from(PADDING)) + draw(st.sampled_from(STRAY_TOKENS))
            text = text[:start] + token + draw(st.sampled_from(PADDING)) + text[start:]
        else:
            tokens = draw(st.lists(st.sampled_from(STRAY_TOKENS), min_size=1, max_size=3))
            text = text[:start] + "\n " + " ".join(tokens) + "\n" + text[start:]
    return text


@settings(max_examples=300, deadline=None)
@given(text=mutated(fixture_text(CATALOG_FILE)))
def test_catalog_loader_returns_or_raises_advisor_error(text):
    try:
        load_catalog(text, "fuzz.catalog")
    except AdvisorError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=mutated(fixture_text(WORKLOAD_FILE)))
def test_workload_loader_returns_or_raises_advisor_error(catalog, text):
    try:
        load_workload(text, catalog, "fuzz.workload")
    except AdvisorError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=mutated(fixture_text(CANDIDATES_FILE)))
def test_candidates_loader_returns_or_raises_advisor_error(catalog, text):
    try:
        load_candidates(text, catalog, "fuzz.candidates")
    except AdvisorError:
        pass
