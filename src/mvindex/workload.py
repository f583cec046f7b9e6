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
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"select", "from", "where", "and", "group", "by", "sum"}


def _tokenize(text: str, source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of every token, from one pass.  Punctuation is
    told apart by its text alone: no other kind of token can read ``;`` or
    ``(``.  Line and column are computed from the offset only for an error."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}", source, *_line_column(text, m.start())
            )
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), m.start()))
    return tokens


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Recursive-descent parser over the token stream of one statement."""

    def __init__(self, tokens: list[tuple[str, str, int]], source: str, text: str):
        # an end token at the last token's offset (None for an empty statement)
        # matches nothing, so the parser never reads past the list
        self.tokens = tokens + [("end", "", tokens[-1][2] if tokens else None)]
        self.pos = 0
        self.source = source
        self.text = text  # the tokenized text, for error positions

    def _error(self, message: str):
        kind, _, off = self.tokens[self.pos]
        if off is None:
            raise ParseError(message + " (empty statement)", self.source)
        if kind == "end":
            message += " (at end of statement)"
        raise ParseError(message, self.source, *_line_column(self.text, off))

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "name" and text.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            self._error(f"expected keyword {word!r}")
        self.pos += 1

    def expect_punct(self, ch: str) -> None:
        if not self.at_punct(ch):
            self._error(f"expected {ch!r}")
        self.pos += 1

    def at_punct(self, ch: str) -> bool:
        return self.tokens[self.pos][1] == ch

    def name(self) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "name":
            self._error("expected identifier")
        if text.lower() in _KEYWORDS:
            self._error(f"unexpected keyword {text!r}")
        self.pos += 1
        return text.lower()

    def qattr(self) -> Attr:
        table = self.name()
        self.expect_punct(".")
        attr = self.name()
        return (table, attr)

    def parse_statement(self) -> dict:
        label = None
        # optional "name :" statement label
        kind, text, _ = self.tokens[self.pos]
        if kind == "name" and text.lower() != "select" and self.tokens[self.pos + 1][1] == ":":
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
            kind, text, _ = self.tokens[self.pos]
            if kind == "name":
                right = self.qattr()
                joins.append((left, right))
            elif kind in ("number", "string"):
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

        if self.tokens[self.pos][0] != "end":
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
    tokens = [t for t in _tokenize(text, source) if t[1] != ";"]
    parsed = _Parser(tokens, source, text).parse_statement()
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
            try:
                refresh_ratio = float(m.group(1))
            except ValueError:
                raise ParseError(
                    f"refresh_ratio takes a real number, got {m.group(1)!r}", source, i + 1
                ) from None
            if not math.isfinite(refresh_ratio) or refresh_ratio < 0:
                raise ValidationError(f"refresh_ratio must be finite and >= 0, got {m.group(1)}")
            body_start = i + 1
        break
    # blank prefix keeps token line numbers aligned with the file
    body = ("\n" * body_start) + "\n".join(lines[body_start:])

    statements: list[list[tuple[str, str, int]]] = [[]]
    for t in _tokenize(body, source):
        if t[1] == ";":
            statements.append([])
        else:
            statements[-1].append(t)
    statements = [s for s in statements if s]

    queries = []
    seen_ids = set()
    for i, stmt_tokens in enumerate(statements, start=1):
        try:
            parsed = _Parser(stmt_tokens, source, body).parse_statement()
            query = _resolve(parsed, catalog, parsed["label"] or f"q{i}")
        except (ParseError, UnknownNameError, ValidationError) as exc:
            # the same exception, so a ParseError keeps its source, line and column
            exc.args = (f"statement {i}: {exc}",)
            raise
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
