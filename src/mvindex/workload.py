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
its first character.  A stray character (one no token starts with, or a
quote that no quote closes) is taken with the rest of the text as the last
token, so one test of that token rejects it before any statement is parsed
or resolved.  Statements are the runs of tokens between ``;`` tokens.  A
token's line and column are computed only for an error, by running
``finditer`` over the same pattern up to that token.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from itertools import islice

from .catalog import SchemaCatalog, strip_comment
from .errors import ParseError, UnknownNameError, ValidationError

Attr = tuple[str, str]  # (table, attribute)


@dataclass(frozen=True)
class Predicate:
    """Equality of one attribute against a constant literal."""

    table: str
    attribute: str
    constant: str

    @property
    def attr(self) -> Attr:
        return (self.table, self.attribute)


@dataclass(frozen=True)
class Query:
    id: str
    select_attrs: tuple[Attr, ...]
    aggregates: tuple[tuple[str, Attr], ...]  # (function, measure attribute)
    joined_tables: frozenset[str]
    join_pairs: tuple[tuple[Attr, Attr], ...]  # (fact attr, dimension attr)
    predicates: tuple[Predicate, ...]
    group_by: tuple[Attr, ...]

    def filter_group_attrs(self) -> frozenset[Attr]:
        """Attributes the query filters or groups on; drives index usability."""
        return frozenset(p.attr for p in self.predicates) | frozenset(self.group_by)


@dataclass(frozen=True)
class Workload:
    queries: tuple[Query, ...]
    refresh_ratio: float = 0.0

    def __len__(self) -> int:
        return len(self.queries)

    def query(self, qid: str) -> Query:
        for q in self.queries:
            if q.id == qid:
                return q
        raise KeyError(qid)


_TOKEN_RE = re.compile(
    r"""
    \s* (?: \#[^\n]* \s* )*       # skipped: whitespace, and comments to their line end
    (
        '[^']*'                     # string literal
      | \d+ (?: \.\d+ )?            # number
      | [A-Za-z_][A-Za-z_0-9]*      # name or keyword
      | [(),.;=:]                   # punctuation
      | [^\s#] [\s\S]*              # a stray character, taken with the rest of the text
      | \Z                          # the end: an empty token
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "group", "by", "sum"}
_NAME_START = frozenset(string.ascii_letters + "_")
_PUNCT = frozenset("(),.;=:")


def _tokenize(text: str, source: str) -> list[str]:
    """The token texts of ``text``, from one ``findall``; a ParseError at a
    stray character.

    After the skipped prefix some alternative always matches, so the
    prefix is never given back.  The empty end token, which can repeat,
    is cut off.
    """
    tokens = _TOKEN_RE.findall(text)
    del tokens[tokens.index(""):]
    if tokens and _is_stray(tokens[-1]):
        position = _position(text, len(tokens) - 1)
        raise ParseError(f"unexpected character {tokens[-1][0]!r}", source, *position)
    return tokens


def _is_stray(token: str) -> bool:
    """Whether ``token`` is no token of the grammar, told by its first
    character: a string literal is the one kind that must also end in a quote."""
    first = token[0]
    if first == "'":
        return len(token) == 1 or token[-1] != "'"
    return not (first in _NAME_START or first in _PUNCT or first.isdecimal())


def _position(text: str, k: int) -> tuple[int, int]:
    """1-based line and column of the ``k``-th token of ``text``: computed
    only for an error, from the tokenizer's own pattern."""
    offset = next(islice(_TOKEN_RE.finditer(text), k, None)).start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Recursive-descent parser over the token texts of one statement.

    ``where`` holds each token's number among the tokens of ``text``, so
    that an error can name its position.
    """

    def __init__(self, tokens: list[str], where, source: str, text: str):
        # the empty end token matches nothing, so the parser never reads past the list
        self.tokens = tokens + [""]
        self.pos = 0
        self.where = where
        self.source = source
        self.text = text

    def _error(self, message: str):
        if not self.where:
            raise ParseError(message + " (empty statement)", self.source)
        k = self.pos
        if k == len(self.where):
            message += " (at end of statement)"
            k -= 1  # the end token stands at the last token's position
        raise ParseError(message, self.source, *_position(self.text, self.where[k]))

    def at_keyword(self, word: str) -> bool:
        # only a name lowers to a keyword
        return self.tokens[self.pos].lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            self._error(f"expected keyword {word!r}")
        self.pos += 1

    def expect_punct(self, ch: str) -> None:
        if not self.at_punct(ch):
            self._error(f"expected {ch!r}")
        self.pos += 1

    def at_punct(self, ch: str) -> bool:
        return self.tokens[self.pos] == ch

    def name(self) -> str:
        text = self.tokens[self.pos]
        if text[:1] not in _NAME_START:
            self._error("expected identifier")
        name = text.lower()
        if name in _KEYWORDS:
            self._error(f"unexpected keyword {text!r}")
        self.pos += 1
        return name

    def qattr(self) -> Attr:
        table = self.name()
        self.expect_punct(".")
        attr = self.name()
        return (table, attr)

    def parse_statement(self) -> dict:
        label = None
        # optional "name :" statement label
        text = self.tokens[self.pos]
        if text[:1] in _NAME_START and text.lower() != "select" and self.tokens[self.pos + 1] == ":":
            label = self.name()
            self.pos += 1

        self.expect_keyword("select")
        selects: list[Attr] = []
        aggregates: list[tuple[str, str]] = []
        while True:
            if self.at_keyword("sum"):
                self.pos += 1
                self.expect_punct("(")
                measure = self.name()
                self.expect_punct(")")
                aggregates.append(("sum", measure))
            else:
                selects.append(self.qattr())
            if self.at_punct(","):
                self.pos += 1
                continue
            break

        self.expect_keyword("from")
        tables: list[str] = [self.name()]
        while self.at_punct(","):
            self.pos += 1
            tables.append(self.name())

        self.expect_keyword("where")
        joins: list[tuple[Attr, Attr]] = []
        predicates: list[tuple[Attr, str]] = []
        while True:
            left = self.qattr()
            self.expect_punct("=")
            text = self.tokens[self.pos]
            first = text[:1]
            if first in _NAME_START:
                right = self.qattr()
                joins.append((left, right))
            elif first == "'" or first.isdecimal():  # a string or a number
                self.pos += 1
                predicates.append((left, text))
            else:
                self._error("expected attribute or literal after '='")
            if self.at_keyword("and"):
                self.pos += 1
                continue
            break

        group_by: list[Attr] = []
        if self.at_keyword("group"):
            self.pos += 1
            self.expect_keyword("by")
            group_by.append(self.qattr())
            while self.at_punct(","):
                self.pos += 1
                group_by.append(self.qattr())

        if self.pos != len(self.where):
            self._error("trailing input after statement")

        return {
            "label": label,
            "selects": selects,
            "aggregates": aggregates,
            "tables": tables,
            "joins": joins,
            "predicates": predicates,
            "group_by": group_by,
        }


def _resolve(parsed: dict, catalog: SchemaCatalog, qid: str) -> Query:
    tables = parsed["tables"]
    joined = frozenset(tables)
    if len(joined) != len(tables):
        raise ValidationError(f"{qid}: duplicate table in from list")
    for t in tables:
        if not catalog.has_table(t):
            raise UnknownNameError(f"{qid}: unknown table {t!r}")
    fact = catalog.fact_table.name
    if fact not in joined:
        raise ValidationError(f"{qid}: query must join the fact table {fact!r}")

    def check_attr(attr: Attr) -> Attr:
        table, name = attr
        if not catalog.has_table(table):
            raise UnknownNameError(f"{qid}: unknown table {table!r}")
        if catalog.table(table).attribute(name) is None:
            raise UnknownNameError(f"{qid}: unknown attribute {table}.{name}")
        if table not in joined:
            raise ValidationError(f"{qid}: {table}.{name} refers to a table not in the from list")
        return attr

    join_pairs = []
    for left, right in parsed["joins"]:
        check_attr(left)
        check_attr(right)
        if left[0] == fact and right[0] != fact:
            join_pairs.append((left, right))
        elif right[0] == fact and left[0] != fact:
            join_pairs.append((right, left))
        else:
            raise ValidationError(
                f"{qid}: join {left[0]}.{left[1]} = {right[0]}.{right[1]} "
                "must link the fact table to a dimension"
            )

    predicates = tuple(
        Predicate(table=a[0], attribute=a[1], constant=lit)
        for a, lit in ((check_attr(a), lit) for a, lit in parsed["predicates"])
    )

    aggregates = []
    for func, measure in parsed["aggregates"]:
        owner = None
        for t in tables:
            if catalog.table(t).attribute(measure) is not None:
                if owner is not None:
                    raise ValidationError(f"{qid}: aggregate attribute {measure!r} is ambiguous")
                owner = t
        if owner is None:
            raise UnknownNameError(f"{qid}: unknown aggregate attribute {measure!r}")
        aggregates.append((func, (owner, measure)))

    return Query(
        id=qid,
        select_attrs=tuple(check_attr(a) for a in parsed["selects"]),
        aggregates=tuple(aggregates),
        joined_tables=joined,
        join_pairs=tuple(join_pairs),
        predicates=predicates,
        group_by=tuple(check_attr(a) for a in parsed["group_by"]),
    )


def _statements(tokens: list[str]) -> list[range]:
    """The token numbers of each statement: every non-empty run of tokens between ``;`` tokens."""
    ends = tokens + [";"]  # the last ``;`` ends the last statement
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
    parsed = _Parser(tokens[first.start:first.stop], first, source, text).parse_statement()
    if rest:
        raise ParseError("trailing input after statement", source, *_position(text, rest[0].start))
    return _resolve(parsed, catalog, parsed["label"] or qid)


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
    queries = []
    seen_ids = set()
    for i, where in enumerate(_statements(tokens), start=1):
        try:
            parsed = _Parser(tokens[where.start:where.stop], where, source, body).parse_statement()
        except ParseError as exc:
            # the same exception, so it keeps its source, line and column
            exc.args = (f"statement {i}: {exc}",)
            raise
        try:
            query = _resolve(parsed, catalog, parsed["label"] or f"q{i}")
            if query.id in seen_ids:
                raise ValidationError(f"duplicate query id {query.id!r}")
        except (UnknownNameError, ValidationError) as exc:
            # resolution has no token position: name the statement's first line
            located = type(exc)(str(exc), source, _position(body, where.start)[0])
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
