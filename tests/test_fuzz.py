"""Mutation fuzzing of the three input parsers.

Each test mutates an input text (deletes, inserts or duplicates spans,
inserts stray tokens) and checks that the loader either returns or raises
an ``AdvisorError``: malformed input must never escape as another
exception, which the CLI would print as a traceback.  The texts are the
bundled fixtures and the candidates files ``format_candidates`` writes for
random instances.  Every error also names its file.  A workload or
candidates file that loads also builds every query plan, which a run that
selects nothing never reads.
"""

import re
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from mvindex.candidates import (
    build_matrices,
    format_candidates,
    generate_index_candidates,
    generate_view_candidates,
    load_candidates,
)
from mvindex.catalog import load_catalog
from mvindex.costmodel import CostContext
from mvindex.errors import AdvisorError
from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_text
from mvindex.workload import load_workload

from util import random_instance, with_random_candidates

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


def build_every_plan(workload, views, indexes, catalog) -> None:
    ctx = CostContext(build_matrices(workload, views, indexes), catalog)
    for q in ctx.queries:
        ctx.plan(q)


@contextmanager
def returns_or_names(source: str):
    """The block, given ``source``, returns or raises an ``AdvisorError``
    whose text begins with that source, after the ``statement N: `` that
    a workload statement's error leads with."""
    try:
        yield source
    except AdvisorError as exc:
        assert re.match(rf"(statement \d+: )?{re.escape(source)}: ", str(exc)), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=mutated(fixture_text(CATALOG_FILE)))
def test_catalog_loader_returns_or_raises_advisor_error(text):
    with returns_or_names("fuzz.catalog") as source:
        load_catalog(text, source)


@settings(max_examples=300, deadline=None)
@given(text=mutated(fixture_text(WORKLOAD_FILE)))
def test_workload_loader_returns_or_raises_advisor_error(catalog, text):
    with returns_or_names("fuzz.workload") as source:
        workload = load_workload(text, catalog, source)
        views = generate_view_candidates(workload, catalog)
        indexes = generate_index_candidates(workload, views, 1)
        build_every_plan(workload, views, indexes, catalog)


@settings(max_examples=300, deadline=None)
@given(text=mutated(fixture_text(CANDIDATES_FILE)))
def test_candidates_loader_returns_or_raises_advisor_error(catalog, workload, text):
    with returns_or_names("fuzz.candidates") as source:
        build_every_plan(workload, *load_candidates(text, catalog, source), catalog)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans(), data=st.data())
def test_written_candidates_loader_returns_or_raises_advisor_error(seed, extra_candidates, data):
    inst = random_instance(seed=seed)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    text = data.draw(mutated(format_candidates(inst.views, inst.indexes)))
    with returns_or_names("fuzz.candidates") as source:
        build_every_plan(inst.workload, *load_candidates(text, inst.catalog, source), inst.catalog)
