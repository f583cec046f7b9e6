"""Query model and parser for the select-join-group-by SQL subset.

Grammar (keywords case-insensitive, identifiers lowercased)::

    query   := [name ":"] "select" sel {"," sel}
               "from" name {"," name}
               "where" cond {"and" cond}
               ["group" "by" qattr {"," qattr}]
    sel     := qattr | "sum" "(" name ")"
    cond    := qattr "=" (qattr | literal)
    qattr   := name "." name
    literal := number | "'" text "'"

A workload file is a sequence of such statements separated by ``;``.
``#`` starts a line comment.  An optional header line
``refresh_ratio = <real>`` sets the workload's refresh-to-query ratio
(default 0).  Equality between two qualified attributes is a join
predicate; equality against a literal is a selection predicate.

Tokenizing is one ``findall`` over one pattern: it skips whitespace and
comments and returns the token texts alone, and a token's kind is told by
its first character.  A name directly followed by ``.name``, with no space
or comment between, is one fused token: most qualified attributes are
written so, and each distinct one is split into its lowered (table,
attribute) once per text.  A stray character (one no token starts with, or
a quote that no quote closes) is taken with the rest of the text as the
last token, so one test of that token rejects it before any statement is
parsed or resolved.  Statements are the runs of tokens between ``;``
tokens.

One parse function, ``_parse``, walks a statement's tokens with local
indexes; a qualified attribute is one fused token or ``name . name``.  Where
a statement breaks the grammar, the same function parses it again over its
plain tokens, each name a token of its own, and that walk words the error:
which token is at fault and why does not depend on how the text was fused.
A token's line and column are computed only for an error, by running
``finditer`` over the pattern up to that token.  Resolution checks every
name against one map from each catalog table to its attribute names.
"""

from __future__ import annotations

import math
import re
from itertools import islice

from .catalog import SchemaCatalog, strip_comment
from .errors import ParseError, UnknownNameError, ValidationError
from .record import Record

Attr = tuple[str, str]  # (table, attribute)


class Predicate(Record):
    """Equality of one attribute against a constant literal."""

    _fields = ("table", "attribute", "constant")
    __slots__ = _fields + ("attr",)

    def __init__(self, table: str, attribute: str, constant: str):
        self.table = table
        self.attribute = attribute
        self.constant = constant
        self.attr: Attr = (table, attribute)  # derived, outside _fields: read as one pair


class Query(Record):
    _fields = ("id", "select_attrs", "aggregates", "joined_tables", "join_pairs", "predicates", "group_by")
    __slots__ = _fields + ("filter_group_attrs",)

    def __init__(self, id: str, select_attrs: tuple[Attr, ...], aggregates: tuple[tuple[str, Attr], ...],
                 joined_tables: frozenset[str], join_pairs: tuple[tuple[Attr, Attr], ...],
                 predicates: tuple[Predicate, ...], group_by: tuple[Attr, ...]):
        self.id = id
        self.select_attrs = select_attrs
        self.aggregates = aggregates  # (function, measure attribute)
        self.joined_tables = joined_tables
        self.join_pairs = join_pairs  # (fact attr, dimension attr)
        self.predicates = predicates
        self.group_by = group_by
        # derived: the attributes the query filters or groups on, which the
        # usage rules and the plan pass read
        self.filter_group_attrs = frozenset([*(p.attr for p in predicates), *group_by])


class Workload(Record):
    __slots__ = _fields = ("queries", "refresh_ratio")

    def __init__(self, queries: tuple[Query, ...], refresh_ratio: float = 0.0):
        self.queries = queries
        self.refresh_ratio = refresh_ratio

    def __len__(self) -> int:
        return len(self.queries)


def _token_re(name: str) -> re.Pattern:
    """The token pattern with ``name`` as its name alternative.

    The alternatives before the stray one start with disjoint characters,
    so their order changes no token; the most frequent come first.
    """
    return re.compile(
        rf"""
        \s* (?: \#[^\n]* \s* )*       # skipped: whitespace, and comments to their line end
        (
            {name}
          | [(),.;=:]                   # punctuation
          | '[^']*'                     # string literal
          | \d+ (?: \.\d+ )?            # number
          | [^\s#] [\s\S]*              # a stray character, taken with the rest of the text
          | \Z                          # the end: an empty token
        )
        """,
        re.VERBOSE,
    )


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# a name or keyword; a name directly followed by ``.name`` is one token
_TOKEN_RE = _token_re(rf"{_NAME} (?: \.{_NAME} )?")
# each name its own token: only a statement that breaks the grammar is read so
_PLAIN_TOKEN_RE = _token_re(_NAME)

_KEYWORDS = {"select", "from", "where", "and", "group", "by", "sum"}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset("(),.;=:")


def _tokenize(text: str, source: str, pattern: re.Pattern = _TOKEN_RE) -> list[str]:
    """The token texts of ``text``, from one ``findall``, ending with one
    empty end token; a ParseError at a stray character.

    After the skipped prefix some alternative always matches, so the
    prefix is never given back.  The empty end token can repeat; the
    repeats are cut off.
    """
    tokens = pattern.findall(text)
    del tokens[tokens.index("") + 1:]
    if len(tokens) > 1 and _is_stray(tokens[-2]):
        stray = tokens[-2]  # it runs to the end of the text
        position = _line_column(text, len(text) - len(stray))
        raise ParseError(f"unexpected character {stray[0]!r}", source, *position)
    return tokens


def _is_stray(token: str) -> bool:
    """Whether ``token`` is no token of the grammar, told by its first
    character: a string literal is the one kind that must also end in a quote."""
    first = token[0]
    if first == "'":
        return len(token) == 1 or token[-1] != "'"
    return not (first in _NAME_START or first in _PUNCT or first.isdecimal())


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _position(pattern: re.Pattern, text: str, k: int) -> tuple[int, int]:
    """Line and column of the ``k``-th token of ``text`` under ``pattern``:
    computed only for an error."""
    return _line_column(text, next(islice(pattern.finditer(text), k, None)).start(1))


class _Mismatch(Exception):
    """The tokens of a statement break the grammar: ``args`` are the
    message and the number of the token at fault."""


def _name(tokens: list[str], k: int) -> str:
    """The lowered name at token ``k``; a fused token is none."""
    text = tokens[k]
    if text[:1] not in _NAME_START or "." in text:
        raise _Mismatch("expected identifier", k)
    name = text.lower()
    if name in _KEYWORDS:
        raise _Mismatch(f"unexpected keyword {text!r}", k)
    return name


def _qattr(tokens: list[str], fused: dict[str, Attr], k: int) -> tuple[Attr, int]:
    """The qualified attribute at token ``k``, one fused token or ``name .
    name``, and the number of the token after it.

    ``fused`` maps each fused token of the text met so far to its lowered
    (table, attribute), so each distinct one is split once.  A fused token
    with a keyword half is read as a name, and so rejected.
    """
    text = tokens[k]
    attr = fused.get(text)
    if attr is None and "." in text and text[:1] in _NAME_START:
        table, _, name = text.lower().partition(".")
        if table not in _KEYWORDS and name not in _KEYWORDS:
            attr = fused[text] = (table, name)
    if attr is not None:
        return attr, k + 1
    table = _name(tokens, k)
    if tokens[k + 1] != ".":
        raise _Mismatch("expected '.'", k + 1)
    return (table, _name(tokens, k + 2)), k + 3


def _parse(tokens: list[str], fused: dict[str, Attr], k: int, stop: int) -> tuple:
    """Parse the statement ``tokens[k:stop]`` in one walk with a local index.

    ``tokens[stop]`` is a ``;`` or the empty end token, which no rule
    accepts, so the walk never passes it.  Returns the label (or None), the
    qualified select attributes, the ``sum`` measures, the from list, the
    join attribute pairs, the (attribute, literal) predicates and the group-by
    attributes.  Raises ``_Mismatch`` at the first token that breaks the grammar.
    """
    label = None
    text = tokens[k]
    if text[:1] in _NAME_START and text.lower() != "select" and tokens[k + 1] == ":":
        label = _name(tokens, k)
        k += 2

    if tokens[k].lower() != "select":
        raise _Mismatch("expected keyword 'select'", k)
    k += 1
    selects: list[Attr] = []
    measures: list[str] = []
    while True:
        if tokens[k].lower() == "sum":
            if tokens[k + 1] != "(":
                raise _Mismatch("expected '('", k + 1)
            measures.append(_name(tokens, k + 2))
            if tokens[k + 3] != ")":
                raise _Mismatch("expected ')'", k + 3)
            k += 4
        else:
            attr, k = _qattr(tokens, fused, k)
            selects.append(attr)
        if tokens[k] != ",":
            break
        k += 1

    if tokens[k].lower() != "from":
        raise _Mismatch("expected keyword 'from'", k)
    tables = [_name(tokens, k + 1)]
    k += 2
    while tokens[k] == ",":
        tables.append(_name(tokens, k + 1))
        k += 2

    if tokens[k].lower() != "where":
        raise _Mismatch("expected keyword 'where'", k)
    k += 1
    joins: list[tuple[Attr, Attr]] = []
    predicates: list[tuple[Attr, str]] = []
    while True:
        left, k = _qattr(tokens, fused, k)
        if tokens[k] != "=":
            raise _Mismatch("expected '='", k)
        text = tokens[k + 1]
        first = text[:1]
        if first in _NAME_START:
            right, k = _qattr(tokens, fused, k + 1)
            joins.append((left, right))
        elif first == "'" or first.isdecimal():  # a string or a number
            predicates.append((left, text))
            k += 2
        else:
            raise _Mismatch("expected attribute or literal after '='", k + 1)
        if tokens[k].lower() != "and":
            break
        k += 1

    group_by: list[Attr] = []
    if tokens[k].lower() == "group":
        if tokens[k + 1].lower() != "by":
            raise _Mismatch("expected keyword 'by'", k + 1)
        attr, k = _qattr(tokens, fused, k + 2)
        group_by.append(attr)
        while tokens[k] == ",":
            attr, k = _qattr(tokens, fused, k + 1)
            group_by.append(attr)

    if k != stop:
        raise _Mismatch("trailing input after statement", k)
    return label, selects, measures, tables, joins, predicates, group_by


def _parse_statement(
    text: str, tokens: list[str], fused: dict[str, Attr], where: range, n: int, source: str
) -> tuple:
    """``_parse`` of statement ``n`` (0-based) of ``text``, whose tokens
    ``where`` numbers.

    Where the fused tokens break the grammar, the statement is parsed again
    over its plain tokens, each name its own token.  That walk accepts what
    the fused one accepts, and it stops at the token, with the message,
    that names the fault in the text as written.
    """
    try:
        return _parse(tokens, fused, where.start, where.stop)
    except _Mismatch:
        pass
    tokens = _tokenize(text, source, _PLAIN_TOKEN_RE)
    where = (_statements(tokens) or [range(0)])[n]
    try:
        return _parse(tokens, {}, where.start, where.stop)
    except _Mismatch as exc:
        message, k = exc.args
    if not where:
        raise ParseError(message + " (empty statement)", source)
    if k == where.stop:
        message += " (at end of statement)"
        k -= 1  # the end stands at the last token's position
    raise ParseError(message, source, *_position(_PLAIN_TOKEN_RE, text, k))


def _catalog_names(catalog: SchemaCatalog) -> dict[str, frozenset[str]]:
    """Each table's name and the names of its attributes."""
    return {t.name: frozenset(a.name for a in t.attributes) for t in catalog.tables}


def _check_attrs(attrs, names: dict[str, frozenset[str]], joined: frozenset[str], qid: str) -> None:
    """Raise for the first of ``attrs`` that is no attribute of a table in the from list."""
    for table, name in attrs:
        if name in names.get(table, ()) and table in joined:
            continue
        if table not in names:
            raise UnknownNameError(f"{qid}: unknown table {table!r}")
        if name not in names[table]:
            raise UnknownNameError(f"{qid}: unknown attribute {table}.{name}")
        raise ValidationError(f"{qid}: {table}.{name} refers to a table not in the from list")


def _resolve(
    parsed: tuple, names: dict[str, frozenset[str]], catalog: SchemaCatalog, qid: str
) -> Query:
    """The Query of a parsed statement, its names checked against ``names``
    (``_catalog_names(catalog)``)."""
    _, selects, measures, tables, joins, predicates, group_by = parsed
    joined = frozenset(tables)
    if len(joined) != len(tables):
        raise ValidationError(f"{qid}: duplicate table in from list")
    for t in tables:
        if t not in names:
            raise UnknownNameError(f"{qid}: unknown table {t!r}")
    fact = catalog.fact_table.name
    if fact not in joined:
        raise ValidationError(f"{qid}: query must join the fact table {fact!r}")

    join_pairs = []
    for pair in joins:
        _check_attrs(pair, names, joined, qid)
        left, right = pair
        if left[0] == fact and right[0] != fact:
            join_pairs.append(pair)
        elif right[0] == fact and left[0] != fact:
            join_pairs.append((right, left))
        else:
            raise ValidationError(
                f"{qid}: join {left[0]}.{left[1]} = {right[0]}.{right[1]} "
                "must link the fact table to a dimension"
            )

    _check_attrs([a for a, _ in predicates], names, joined, qid)

    aggregates = []
    for measure in measures:
        owners = [t for t in tables if measure in names[t]]
        if len(owners) > 1:
            raise ValidationError(f"{qid}: aggregate attribute {measure!r} is ambiguous")
        if not owners:
            raise UnknownNameError(f"{qid}: unknown aggregate attribute {measure!r}")
        aggregates.append(("sum", (owners[0], measure)))

    _check_attrs(selects, names, joined, qid)
    _check_attrs(group_by, names, joined, qid)
    return Query(
        id=qid,
        select_attrs=tuple(selects),
        aggregates=tuple(aggregates),
        joined_tables=joined,
        join_pairs=tuple(join_pairs),
        predicates=tuple(Predicate(a[0], a[1], literal) for a, literal in predicates),
        group_by=tuple(group_by),
    )


def _statements(tokens: list[str]) -> list[range]:
    """The token numbers of each statement: every non-empty run of tokens
    between ``;`` tokens and the end token."""
    ends = tokens[:-1] + [";"]  # the end token ends the last statement
    statements: list[range] = []
    start = 0
    while start < len(ends):
        stop = ends.index(";", start)
        if stop > start:
            statements.append(range(start, stop))
        start = stop + 1
    return statements


def parse_query(text: str, catalog: SchemaCatalog, qid: str = "q1", source: str = "<query>") -> Query:
    """Parse a single statement into a validated Query; ``;`` may end it."""
    tokens = _tokenize(text, source)
    first, *rest = _statements(tokens) or [range(0)]
    parsed = _parse_statement(text, tokens, {}, first, 0, source)
    if rest:
        position = _position(_TOKEN_RE, text, rest[0].start)
        raise ParseError("trailing input after statement", source, *position)
    return _resolve(parsed, _catalog_names(catalog), catalog, parsed[0] or qid)


_HEADER_RE = re.compile(r"^\s*refresh_ratio\s*=\s*([0-9.eE+-]+)\s*$")


def load_workload(text: str, catalog: SchemaCatalog, source: str = "<workload>") -> Workload:
    """Parse a workload file: optional refresh_ratio header then ';'-separated statements."""
    refresh_ratio = 0.0
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        stripped = strip_comment(line).strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            try:
                refresh_ratio = float(m.group(1))
            except ValueError:
                raise ParseError(
                    f"refresh_ratio takes a real number, got {m.group(1)!r}", source, i + 1
                ) from None
            if not math.isfinite(refresh_ratio) or refresh_ratio < 0:
                raise ValidationError(
                    f"refresh_ratio must be finite and >= 0, got {m.group(1)}", source, i + 1
                )
            body_start = i + 1
        break
    # blank prefix keeps token line numbers aligned with the file
    body = ("\n" * body_start) + "\n".join(lines[body_start:])

    tokens = _tokenize(body, source)
    fused: dict[str, Attr] = {}
    names = _catalog_names(catalog)
    queries = []
    seen_ids = set()
    for i, where in enumerate(_statements(tokens), start=1):
        try:
            parsed = _parse_statement(body, tokens, fused, where, i - 1, source)
        except ParseError as exc:
            # the same exception, so it keeps its source, line and column
            exc.args = (f"statement {i}: {exc}",)
            raise
        try:
            query = _resolve(parsed, names, catalog, parsed[0] or f"q{i}")
            if query.id in seen_ids:
                raise ValidationError(f"duplicate query id {query.id!r}")
        except (UnknownNameError, ValidationError) as exc:
            # resolution has no token position: name the statement's first line
            located = type(exc)(str(exc), source, _position(_TOKEN_RE, body, where.start)[0])
            located.args = (f"statement {i}: {located}",)
            raise located from None
        seen_ids.add(query.id)
        queries.append(query)
    return Workload(queries=tuple(queries), refresh_ratio=refresh_ratio)


def format_query(q: Query) -> str:
    """Canonical text of a query; parse_query(format_query(q)) == q."""
    sel = [f"{t}.{a}" for t, a in q.select_attrs]
    sel += [f"{func}({attr[1]})" for func, attr in q.aggregates]
    # fact table first, dimensions in join order, leftovers alphabetically
    fact_first = []
    seen = set()
    for (ft, _), (dt, _) in [(jp[0], jp[1]) for jp in q.join_pairs]:
        for name in (ft, dt):
            if name not in seen:
                fact_first.append(name)
                seen.add(name)
    for name in sorted(q.joined_tables):
        if name not in seen:
            fact_first.append(name)
            seen.add(name)
    conds = [f"{f[0]}.{f[1]} = {d[0]}.{d[1]}" for f, d in q.join_pairs]
    conds += [f"{p.table}.{p.attribute} = {p.constant}" for p in q.predicates]
    text = f"{q.id}: select " + ", ".join(sel)
    text += " from " + ", ".join(fact_first)
    text += " where " + " and ".join(conds)
    if q.group_by:
        text += " group by " + ", ".join(f"{t}.{a}" for t, a in q.group_by)
    return text


def format_workload(w: Workload) -> str:
    header = f"refresh_ratio = {w.refresh_ratio}\n" if w.refresh_ratio else ""
    return header + ";\n".join(format_query(q) for q in w.queries) + (";\n" if w.queries else "")
