import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvindex.catalog import load_catalog
from mvindex.errors import AdvisorError, ParseError, UnknownNameError, ValidationError
from mvindex.fixtures import WORKLOAD_FILE, fixture_text
from mvindex.workload import format_query, format_workload, load_workload, parse_query

from test_fuzz import mutated
from util import load_synth, oracle_load_workload, oracle_parse_query


def test_fixture_workload_has_eight_queries(workload):
    assert [q.id for q in workload.queries] == [f"q{k}" for k in range(1, 9)]
    assert workload.refresh_ratio == 0.0


def test_parse_q1_components(catalog):
    text = (
        "select sales.time_id, sum(amount_sold) from sales, times "
        "where sales.time_id = times.time_id and times.time_fiscal_year = 2000 "
        "group by sales.time_id"
    )
    q = parse_query(text, catalog)
    assert q.joined_tables == frozenset({"sales", "times"})
    assert q.join_pairs == ((("sales", "time_id"), ("times", "time_id")),)
    assert [(p.table, p.attribute, p.constant) for p in q.predicates] == [
        ("times", "time_fiscal_year", "2000")
    ]
    assert q.group_by == (("sales", "time_id"),)
    assert q.aggregates == (("sum", ("sales", "amount_sold")),)


def test_parse_q8_components(workload):
    q8 = {q.id: q for q in workload.queries}["q8"]
    assert q8.predicates[0].attr == ("channels", "channel_class")
    assert q8.predicates[0].constant == "'Internet'"
    assert q8.group_by == (("channels", "channel_desc"),)
    assert q8.aggregates == (("sum", ("sales", "quantity_sold")),)


def test_q6_select_not_forced_into_group_by(workload):
    q6 = {q.id: q for q in workload.queries}["q6"]
    assert ("customers", "cust_marital_status") in q6.select_attrs
    assert q6.group_by == (("customers", "cust_first_name"),)


def test_bare_select_is_syntax_error(catalog):
    with pytest.raises(ParseError):
        parse_query("select", catalog)


def test_syntax_error_has_position(catalog):
    with pytest.raises(ParseError) as err:
        parse_query("select sales.time_id sum(amount_sold) from sales", catalog)
    assert "line 1" in str(err.value)


def test_semicolon_ends_a_single_statement(catalog):
    q = "select times.time_id, sum(amount_sold) from sales, times where sales.time_id = times.time_id"
    assert parse_query(q + ";", catalog) == parse_query(";" + q, catalog) == parse_query(q, catalog)
    with pytest.raises(ParseError) as err:
        parse_query(q.replace("sales, times", "sales; , times"), catalog)
    assert str(err.value) == (
        "<query>: line 1, column 45: expected keyword 'where' (at end of statement)"
    )
    with pytest.raises(ParseError) as err:
        parse_query(q + ";;" + q + ";", catalog)
    assert str(err.value) == f"<query>: line 1, column {len(q) + 3}: trailing input after statement"


def test_unknown_table(catalog):
    with pytest.raises(UnknownNameError):
        parse_query(
            "select foo.x, sum(amount_sold) from sales, foo "
            "where sales.time_id = foo.x group by foo.x",
            catalog,
        )


def test_unknown_attribute(catalog):
    with pytest.raises(UnknownNameError):
        parse_query(
            "select times.bogus, sum(amount_sold) from sales, times "
            "where sales.time_id = times.time_id group by times.bogus",
            catalog,
        )


def test_attribute_of_unjoined_table_rejected(catalog):
    with pytest.raises(ValidationError):
        parse_query(
            "select channels.channel_desc, sum(amount_sold) from sales, times "
            "where sales.time_id = times.time_id group by channels.channel_desc",
            catalog,
        )


def test_query_must_join_fact(catalog):
    with pytest.raises(ValidationError):
        parse_query(
            "select times.time_id, sum(time_fiscal_year) from times "
            "where times.time_id = times.time_id group by times.time_id",
            catalog,
        )


def test_join_must_link_fact_to_dimension(catalog):
    with pytest.raises(ValidationError):
        parse_query(
            "select times.time_id, sum(amount_sold) from sales, times, channels "
            "where times.time_id = channels.channel_id group by times.time_id",
            catalog,
        )


def test_empty_workload(catalog):
    w = load_workload("", catalog)
    assert len(w) == 0
    w = load_workload("# just a comment\n", catalog)
    assert len(w) == 0


def test_bad_statement_named_by_index(catalog):
    with pytest.raises(ParseError) as err:
        load_workload("select nonsense;", catalog)
    assert "statement 1" in str(err.value)

    good = (
        "select sales.time_id, sum(amount_sold) from sales, times "
        "where sales.time_id = times.time_id group by sales.time_id"
    )
    with pytest.raises(ParseError) as err:
        load_workload(good + "; select", catalog)
    assert "statement 2" in str(err.value)


def test_bad_statement_keeps_its_position(catalog):
    good = (
        "select sales.time_id, sum(amount_sold) from sales, times "
        "where sales.time_id = times.time_id group by sales.time_id;\n"
    )
    with pytest.raises(ParseError) as err:
        load_workload(good + "select sales.time_id, sum(amount_sold) form sales;\n", catalog, "w.sql")
    assert (err.value.source, err.value.line, err.value.column) == ("w.sql", 2, 40)
    assert str(err.value) == "statement 2: w.sql: line 2, column 40: expected keyword 'from'"


@pytest.mark.parametrize(
    "second, error, line, message",
    [
        ("\n  select sales.time_id, sum(amount_sold) from sales, timez\n"
         "  where sales.time_id = timez.time_id group by sales.time_id;",
         UnknownNameError, 3, "statement 2: w.sql: line 3: q2: unknown table 'timez'"),
        ("\n\nq1: select times.time_id, sum(amount_sold) from sales, times\n"
         "  where sales.time_id = times.time_id group by times.time_id;",
         ValidationError, 4, "statement 2: w.sql: line 4: duplicate query id 'q1'"),
    ],
    ids=["unknown-table", "duplicate-id"],
)
def test_statement_resolution_error_names_file_and_first_line(
    catalog, second, error, line, message
):
    # resolution has no token position, so the line is that of the statement's first token
    first = (
        "q1: select sales.time_id, sum(amount_sold) from sales, times "
        "where sales.time_id = times.time_id group by sales.time_id;\n"
    )
    with pytest.raises(error) as err:
        load_workload(first + second, catalog, "w.sql")
    assert str(err.value) == message
    assert (err.value.source, err.value.line, err.value.column) == ("w.sql", line, None)


def test_refresh_ratio_header(catalog):
    w = load_workload("refresh_ratio = 0.5\n", catalog)
    assert w.refresh_ratio == 0.5
    with pytest.raises(ValidationError):
        load_workload("refresh_ratio = -1\n", catalog)


@pytest.mark.parametrize(
    "value, error, problem",
    [
        *((v, ParseError, f"refresh_ratio takes a real number, got {v!r}")
          for v in ["1.2.3", "e", "-"]),
        *((v, ValidationError, f"refresh_ratio must be finite and >= 0, got {v}")
          for v in ["-1", "1e400"]),
    ],
    ids=["1.2.3", "e", "-", "-1", "1e400"],
)
def test_malformed_refresh_ratio_names_its_source_and_line(catalog, value, error, problem):
    with pytest.raises(error) as err:
        load_workload(f"# header\nrefresh_ratio = {value}\n", catalog, "w.workload")
    assert str(err.value) == f"w.workload: line 2: {problem}"


def test_duplicate_query_ids_rejected(catalog):
    stmt = (
        "q1: select sales.time_id, sum(amount_sold) from sales, times "
        "where sales.time_id = times.time_id group by sales.time_id"
    )
    with pytest.raises(ValidationError):
        load_workload(f"{stmt};\n{stmt};", catalog)


def test_parse_deterministic(catalog, workload):
    from mvindex.fixtures import WORKLOAD_FILE, fixture_text

    again = load_workload(fixture_text(WORKLOAD_FILE), catalog)
    assert again == workload


def test_format_parse_round_trip(workload, catalog):
    for q in workload.queries:
        assert parse_query(format_query(q), catalog) == q
    # a table no join reaches is written after the joined ones
    unjoined = parse_query("select sales.time_id from sales, channels where sales.time_id = 1", catalog)
    assert "from channels, sales" in format_query(unjoined)
    assert parse_query(format_query(unjoined), catalog) == unjoined
    again = load_workload(format_workload(workload), catalog)
    assert again == workload


def test_keywords_case_insensitive(catalog):
    q = parse_query(
        "SELECT sales.time_id, SUM(amount_sold) FROM sales, times "
        "WHERE sales.time_id = times.time_id GROUP BY sales.time_id",
        catalog,
    )
    assert q.group_by == (("sales", "time_id"),)


def _code_offsets(text):
    """Offsets of ``text`` where an inserted character lands outside every
    comment and string literal, and the ``;`` offsets outside them."""
    inside, semicolons = set(), []
    k = 0
    while k < len(text):
        if text[k] in "#'":
            # inside runs up to and including the newline that ends a
            # comment, or the quote that closes a string
            end = text.find("\n" if text[k] == "#" else "'", k + 1)
            end = len(text) if end < 0 else end
            inside.update(range(k + 1, end + 1))
            k = end + 1
            continue
        if text[k] == ";":
            semicolons.append(k)
        k += 1
    return [k for k in range(len(text) + 1) if k not in inside], semicolons


def _line_column(text, offset):
    before = text[:offset]
    return before.count("\n") + 1, len(before.split("\n")[-1]) + 1


_FIXTURE_TEXT = fixture_text(WORKLOAD_FILE)
_CODE_OFFSETS, _SEMICOLONS = _code_offsets(_FIXTURE_TEXT)


@settings(max_examples=100, deadline=None)
@given(offset=st.sampled_from(_CODE_OFFSETS), ch=st.sampled_from("@$!?"), lead=st.just(""))
# ahead of every statement, on an indented line behind a comment line
@example(offset=0, ch="%", lead="# a stray character ahead of every statement\n  ")
def test_unexpected_character_names_its_line_and_column(catalog, offset, ch, lead):
    text = _FIXTURE_TEXT[:offset] + lead + ch + _FIXTURE_TEXT[offset:]
    line, column = _line_column(text, offset + len(lead))
    with pytest.raises(ParseError) as err:
        load_workload(text, catalog, WORKLOAD_FILE)
    assert str(err.value) == f"{WORKLOAD_FILE}: line {line}, column {column}: unexpected character '{ch}'"


@pytest.mark.parametrize(
    "offset", [m.start() for m in re.finditer(r"\bfrom\b", _FIXTURE_TEXT) if m.start() in _CODE_OFFSETS]
)
def test_misspelt_keyword_names_its_statement_line_and_column(catalog, offset):
    text = _FIXTURE_TEXT[:offset] + "form" + _FIXTURE_TEXT[offset + 4:]
    statement = 1 + sum(1 for k in _SEMICOLONS if k < offset)
    line, column = _line_column(text, offset)
    with pytest.raises(ParseError) as err:
        load_workload(text, catalog, WORKLOAD_FILE)
    assert str(err.value) == (
        f"statement {statement}: {WORKLOAD_FILE}: line {line}, column {column}: "
        "expected keyword 'from'"
    )


def _outcome(parse, *args):
    """What ``parse`` returns, or the type, message and position of the
    AdvisorError it raises."""
    try:
        return parse(*args)
    except AdvisorError as exc:
        return type(exc), str(exc), exc.source, exc.line, exc.column


def _assert_parsed_as_oracle(text, catalog):
    assert _outcome(load_workload, text, catalog, "w") == _outcome(oracle_load_workload, text, catalog, "w")
    assert _outcome(parse_query, text, catalog, "q1", "q") == _outcome(oracle_parse_query, text, catalog, "q1", "q")


_Q = "select times.time_id, sum(amount_sold) from sales, times where sales.time_id = times.time_id"
_CHANNEL = (
    "select channels.channel_desc, sum(amount_sold) from sales, channels "
    "where sales.channel_id = channels.channel_id and channels.channel_class = "
)


@pytest.mark.parametrize(
    "text",
    [
        "",
        ";",
        ";;",
        "# only a comment",
        _Q,
        _Q + ";",
        _Q + ";;" + _Q + ";",
        _Q + "; # a trailing comment with no newline",
        _Q + "\r\n;\r\n" + _Q.replace(" where", "\r\nwhere") + "\r\n",
        _Q.upper().replace("TIMES.TIME_ID", "times.time_id"),
        _Q.replace("select", "SeLeCt").replace("from", "FROM").replace("where", "wHeRe"),
        _CHANNEL + "'Internet",
        _CHANNEL + "'",
        _CHANNEL + "'#Internet' group by channels.channel_desc",
        _CHANNEL + "'a ; b' group by channels.channel_desc; " + _Q,
        _CHANNEL + "'it''s'",
        _CHANNEL + "\u0661\u0662",
        _CHANNEL + "1\u0662.5",
        _CHANNEL + "12.",
        _CHANNEL + "\u00b2",
        _CHANNEL + "(",
        _Q.replace("times.time_id,", "times.time_id\u00e9,"),
        _Q.replace("sales, times", "sales, nowhere") + "; %",
        _Q.replace("sales, times", "sales, nowhere") + "; " + _Q + " @",
        _Q + " % " + _CHANNEL + "'",
        "q7: " + _Q + ";\nq7: " + _Q,
        "select: " + _Q,
        "refresh_ratio = 0.5\n" + _Q + ";\n",
        "refresh_ratio = 0.5 # header\n\n" + _Q + " 'x",
        _Q + " group",
        _Q + " group by",
        "from" + _Q,
        "\n\n  " + _Q + " trailing",
        _Q.replace("sales, times", "sales; , times"),
        # a name directly followed by ``.name`` is one token where the
        # reference has three
        _Q.replace("sales.time_id", "sales.select"),
        _Q.replace("times.time_id,", "SELECT.x,"),
        _Q.replace("= times.time_id", "= times.WHERE"),
        _Q.replace("from sales", "from sales.x"),
        _Q.replace("sales, times", "sales, times.time_id"),
        _Q.replace("sum(amount_sold)", "sum(sales.amount_sold)"),
        # ``sum`` with no parenthesis after it
        "select sum amount_sold from sales",
        "q7: select sum amount_sold from sales",
        _Q.replace("sum(amount_sold)", "sum amount_sold"),
        "q1.x: " + _Q,
        "select.x: " + _Q,
        _Q.replace("times.time_id,", "times.time_id.x,"),
        _Q.replace("= times.time_id", "= times.time_id.x"),
        _Q + " group by sales.time_id.x",
        _Q.replace("sales.time_id", "sales . time_id"),
        _Q.replace("sales.time_id", "sales. time_id").replace("times.time_id,", "times .time_id,"),
        _Q.replace("sales.time_id", "sales.# a comment\ntime_id"),
        _Q.replace("sales.time_id", "sales# a comment\n.time_id"),
        _Q + " group by sales.",
        _Q + " group by sales.;",
        _Q + " group by sales.\n;" + _Q,
        _Q.replace("= times.time_id", "= 1.time_id"),
        _Q.replace("= times.time_id", "= x1.5"),
        _Q.replace("= times.time_id", "= 'times.time_id'"),
        # resolution: each check, and which of two faults is reported
        _Q.replace("times.time_id,", "times.bogus,"),
        _Q.replace("times.time_id,", "nowhere.time_id,"),
        _Q + " group by channels.channel_desc",
        _Q.replace("sales, times", "sales, times, sales"),
        _Q.replace("sales, times", "times").replace("sales.time_id", "times.time_id"),
        _Q.replace("sales.time_id = times.time_id", "times.time_id = sales.time_id"),
        _Q.replace("sales.time_id = times.time_id", "times.time_id = times.time_id"),
        _Q.replace("sales.time_id = times.time_id", "sales.time_id = sales.time_id"),
        _Q.replace("sales.time_id = times.time_id",
                   "times.time_id = times.time_id and sales.bogus = times.time_id"),
        _Q.replace("sales.time_id = times.time_id",
                   "sales.bogus = times.time_id and times.time_id = times.time_id"),
        _Q.replace("amount_sold", "time_id"),
        _Q.replace("amount_sold", "bogus"),
        _Q.replace("amount_sold", "bogus").replace("times.time_id,", "times.bogus,"),
        _Q.replace("amount_sold", "bogus") + " and times.bogus = 1",
        _Q.replace("times.time_id,", "times.bogus,") + " group by nowhere.x",
        _Q.replace("sales, times", "sales, nowhere") + " and times.bogus = 1",
    ],
)
def test_parser_equals_reference_parser_on_edge_cases(catalog, text):
    _assert_parsed_as_oracle(text, catalog)


@settings(max_examples=300, deadline=None)
@given(text=mutated(_FIXTURE_TEXT))
def test_parser_equals_reference_parser_on_mutated_fixture(catalog, text):
    _assert_parsed_as_oracle(text, catalog)


_SYNTH = load_synth()


@st.composite
def _synth_texts(draw):
    """A benchmark-generator instance, with its workload text mutated or not."""
    shape = _SYNTH.Shape(draw(st.integers(1, 12)), draw(st.integers(3, 6)), 3, draw(st.integers(1, 3)))
    catalog_text, workload_text = _SYNTH.instance_texts(shape, draw(st.integers(0, 99)))
    if draw(st.booleans()):
        workload_text = draw(mutated(workload_text))
    return catalog_text, workload_text


@settings(max_examples=100, deadline=None)
@given(texts=_synth_texts())
def test_parser_equals_reference_parser_on_synthetic_workloads(texts):
    catalog_text, workload_text = texts
    _assert_parsed_as_oracle(workload_text, load_catalog(catalog_text))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", [(200, 10, 4, 4), (400, 12, 4, 4)], ids=["200q", "400q"])
def test_parser_equals_reference_parser_on_benchmark_size_workloads(shape, seed):
    # the property tests above draw synthetic workloads of at most 12 queries
    catalog_text, workload_text = _SYNTH.instance_texts(_SYNTH.Shape(*shape), seed)
    catalog = load_catalog(catalog_text)
    assert load_workload(workload_text, catalog) == oracle_load_workload(workload_text, catalog)
