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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .catalog import SchemaCatalog
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

    def predicate_attrs(self) -> frozenset[Attr]:
        return frozenset(p.attr for p in self.predicates)


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
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>'[^']*')
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[(),.;=:])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "group", "by", "sum"}


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", source, line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream of one statement."""

    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def _error(self, message: str):
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            raise ParseError(message, self.source, t.line, t.column)
        if self.tokens:
            t = self.tokens[-1]
            raise ParseError(message + " (at end of statement)", self.source, t.line, t.column)
        raise ParseError(message + " (empty statement)", self.source)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at_keyword(self, word: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "name" and t.text.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            self._error(f"expected keyword {word!r}")
        self.pos += 1

    def expect_punct(self, ch: str) -> None:
        t = self.peek()
        if t is None or t.kind != "punct" or t.text != ch:
            self._error(f"expected {ch!r}")
        self.pos += 1

    def at_punct(self, ch: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "punct" and t.text == ch

    def name(self) -> str:
        t = self.peek()
        if t is None or t.kind != "name":
            self._error("expected identifier")
        if t.text.lower() in _KEYWORDS:
            self._error(f"unexpected keyword {t.text!r}")
        self.pos += 1
        return t.text.lower()

    def qattr(self) -> Attr:
        table = self.name()
        self.expect_punct(".")
        attr = self.name()
        return (table, attr)

    def parse_statement(self) -> dict:
        label = None
        # optional "name :" statement label
        t = self.peek()
        if (
            t is not None
            and t.kind == "name"
            and t.text.lower() != "select"
            and self.pos + 1 < len(self.tokens)
            and self.tokens[self.pos + 1].kind == "punct"
            and self.tokens[self.pos + 1].text == ":"
        ):
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
            t = self.peek()
            if t is None:
                self._error("expected attribute or literal after '='")
            if t.kind == "name":
                right = self.qattr()
                joins.append((left, right))
            elif t.kind in ("number", "string"):
                self.pos += 1
                predicates.append((left, t.text))
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

        if self.peek() is not None:
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


def parse_query(text: str, catalog: SchemaCatalog, qid: str = "q1", source: str = "<query>") -> Query:
    """Parse a single statement into a validated Query."""
    tokens = _tokenize(text, source)
    tokens = [t for t in tokens if not (t.kind == "punct" and t.text == ";")]
    parsed = _Parser(tokens, source).parse_statement()
    return _resolve(parsed, catalog, parsed["label"] or qid)


_HEADER_RE = re.compile(r"^\s*refresh_ratio\s*=\s*([0-9.eE+-]+)\s*$")


def load_workload(text: str, catalog: SchemaCatalog, source: str = "<workload>") -> Workload:
    """Parse a workload file: optional refresh_ratio header then ';'-separated statements."""
    refresh_ratio = 0.0
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            refresh_ratio = float(m.group(1))
            if not math.isfinite(refresh_ratio) or refresh_ratio < 0:
                raise ValidationError(f"refresh_ratio must be finite and >= 0, got {m.group(1)}")
            body_start = i + 1
        break
    # blank prefix keeps token line numbers aligned with the file
    body = ("\n" * body_start) + "\n".join(lines[body_start:])

    tokens = _tokenize(body, source)
    statements: list[list[_Token]] = [[]]
    for t in tokens:
        if t.kind == "punct" and t.text == ";":
            statements.append([])
        else:
            statements[-1].append(t)
    statements = [s for s in statements if s]

    queries = []
    seen_ids = set()
    for i, stmt_tokens in enumerate(statements, start=1):
        try:
            parsed = _Parser(stmt_tokens, source).parse_statement()
            query = _resolve(parsed, catalog, parsed["label"] or f"q{i}")
        except (ParseError, UnknownNameError, ValidationError) as exc:
            raise type(exc)(f"statement {i}: {exc}") from None
        if query.id in seen_ids:
            raise ValidationError(f"statement {i}: duplicate query id {query.id!r}")
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
