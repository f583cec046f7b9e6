"""Star-schema catalog: table and attribute statistics plus storage parameters.

The catalog is the single source every size and cost computation reads.
Its records are not assigned after loading, so one catalog is safe to
share across threads.

Catalog file format (UTF-8, ``#`` starts a line comment)::

    block_size 8192
    btree_fanout 200
    rowid_width 10

    table sales fact rows 16260336 row_width 24
      attr time_id card 1461 width 4
      attr amount_sold card 100000 width 4

    table times dimension rows 1461 row_width 144
      attr time_id card 1461 width 4

Top-level parameters are optional, each set at most once, and default to
the values above.
``attr`` lines belong to the most recent ``table`` line.  Exactly one
table must be declared ``fact``.  A declaration that breaks an invariant
(``validate_catalog``) is reported at its line, as a syntax error is.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError
from .record import Record

DEFAULT_BLOCK_SIZE = 8192
DEFAULT_BTREE_FANOUT = 200
DEFAULT_ROWID_WIDTH = 10


class AttributeStats(Record):
    """Distinct-value count and byte width of one attribute."""

    __slots__ = _fields = ("name", "cardinality", "width")

    def __init__(self, name: str, cardinality: int, width: int):
        self.name = name
        self.cardinality = cardinality
        self.width = width


class TableStats(Record):
    """Row statistics for one base table."""

    _fields = ("name", "kind", "row_count", "row_width", "attributes")
    __slots__ = _fields + ("_by_name",)

    def __init__(self, name: str, kind: str, row_count: int, row_width: int,
                 attributes: tuple[AttributeStats, ...] = ()):
        self.name = name
        self.kind = kind  # "fact" or "dimension"
        self.row_count = row_count
        self.row_width = row_width
        self.attributes = attributes
        # name -> the first attribute of that name
        self._by_name = {a.name: a for a in reversed(attributes)}

    def attribute(self, name: str) -> AttributeStats | None:
        return self._by_name.get(name)

    @property
    def size_bytes(self) -> int:
        return self.row_count * self.row_width

    @property
    def size_mb(self) -> float:
        return round(self.size_bytes / 2**20, 2)


class SchemaCatalog(Record):
    """All tables of one star schema plus the storage-model parameters."""

    _fields = ("tables", "block_size", "btree_fanout", "rowid_width")
    __slots__ = _fields + ("_by_name",)

    def __init__(self, tables: tuple[TableStats, ...], block_size: int = DEFAULT_BLOCK_SIZE,
                 btree_fanout: int = DEFAULT_BTREE_FANOUT, rowid_width: int = DEFAULT_ROWID_WIDTH):
        self.tables = tables
        self.block_size = block_size
        self.btree_fanout = btree_fanout
        self.rowid_width = rowid_width
        self._by_name = {t.name: t for t in tables}

    def table(self, name: str) -> TableStats:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._by_name

    @property
    def fact_table(self) -> TableStats:
        for t in self.tables:
            if t.kind == "fact":
                return t
        raise ValidationError("catalog has no fact table")

    def attribute(self, table: str, attr: str) -> AttributeStats:
        a = self.table(table).attribute(attr)
        if a is None:
            raise ValidationError(f"table {table!r} has no attribute {attr!r}")
        return a


def blocks(row_count: int, row_width: int, catalog: SchemaCatalog) -> int:
    """Number of disk blocks occupied by ``row_count`` rows of ``row_width`` bytes.

    Zero only for an empty relation.
    """
    if row_count < 0:
        raise ValidationError("row_count must be >= 0")
    if row_count == 0:
        return 0
    return -(-(row_count * row_width) // catalog.block_size)


def table_blocks(table: TableStats, catalog: SchemaCatalog) -> int:
    return blocks(table.row_count, table.row_width, catalog)


def validate_catalog(catalog: SchemaCatalog, source: str | None = None, lines=None) -> None:
    """Raise ValidationError unless every catalog invariant holds.

    ``lines`` maps a declaration to the line of ``source`` that makes it: a
    parameter by name, a table by its position in ``catalog.tables``, an
    attribute by ``(table position, attribute position)``.  An error names
    ``source`` and the line of the declaration at fault, when known.
    """
    lines = lines or {}

    def fail(message, declaration=None):
        raise ValidationError(message, source, lines.get(declaration))

    facts = [k for k, t in enumerate(catalog.tables) if t.kind == "fact"]
    if len(facts) != 1:
        second = facts[1] if len(facts) > 1 else None
        fail(f"catalog must have exactly one fact table, found {len(facts)}", second)
    if catalog.block_size < 512:
        fail("block_size must be >= 512", "block_size")
    if catalog.btree_fanout < 2:
        fail("btree_fanout must be >= 2", "btree_fanout")
    if catalog.rowid_width < 1:
        fail("rowid_width must be >= 1", "rowid_width")
    seen = set()
    for k, t in enumerate(catalog.tables):
        if t.name in seen:
            fail(f"duplicate table {t.name!r}", k)
        seen.add(t.name)
        if t.kind not in ("fact", "dimension"):
            fail(f"table {t.name!r}: kind must be fact or dimension", k)
        if t.row_count < 0:
            fail(f"table {t.name!r}: row_count must be >= 0", k)
        if t.row_width < 1:
            fail(f"table {t.name!r}: row_width must be >= 1", k)
        attr_names = set()
        for j, a in enumerate(t.attributes):
            if a.name in attr_names:
                fail(f"table {t.name!r}: duplicate attribute {a.name!r}", (k, j))
            attr_names.add(a.name)
            if a.cardinality < 1:
                fail(f"{t.name}.{a.name}: cardinality must be >= 1", (k, j))
            if t.row_count > 0 and a.cardinality > t.row_count:
                fail(f"{t.name}.{a.name}: cardinality {a.cardinality} exceeds row_count "
                     f"{t.row_count}", (k, j))
            if a.width < 1:
                fail(f"{t.name}.{a.name}: width must be >= 1", (k, j))


def strip_comment(line: str) -> str:
    """``line`` up to its first ``#``: the comment rule of the catalog and
    candidates formats and of the workload header."""
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_int(token: str, what: str, source: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", source, lineno) from None


def load_catalog(text: str, source: str = "<catalog>") -> SchemaCatalog:
    """Parse catalog text into a validated SchemaCatalog; an invalid
    declaration is reported at its line, as a syntax error is."""
    params = {
        "block_size": DEFAULT_BLOCK_SIZE,
        "btree_fanout": DEFAULT_BTREE_FANOUT,
        "rowid_width": DEFAULT_ROWID_WIDTH,
    }
    tables: list[dict] = []
    set_params = set()
    lines: dict[object, int] = {}  # declaration -> line, see validate_catalog
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        if head in params:
            if len(tokens) != 2:
                raise ParseError(f"expected: {head} <integer>", source, lineno)
            if head in set_params:
                raise ParseError(f"{head} is set twice", source, lineno)
            set_params.add(head)
            lines[head] = lineno
            params[head] = _parse_int(tokens[1], head, source, lineno)
        elif head == "table":
            # table <name> <fact|dimension> rows <n> row_width <n>
            if len(tokens) != 7 or tokens[3].lower() != "rows" or tokens[5].lower() != "row_width":
                raise ParseError(
                    "expected: table <name> <fact|dimension> rows <n> row_width <n>",
                    source,
                    lineno,
                )
            lines[len(tables)] = lineno
            tables.append(
                {
                    "name": tokens[1].lower(),
                    "kind": tokens[2].lower(),
                    "rows": _parse_int(tokens[4], "rows", source, lineno),
                    "width": _parse_int(tokens[6], "row_width", source, lineno),
                    "attrs": [],
                }
            )
        elif head == "attr":
            if not tables:
                raise ParseError("attr line before any table line", source, lineno)
            if len(tokens) != 6 or tokens[2].lower() != "card" or tokens[4].lower() != "width":
                raise ParseError("expected: attr <name> card <n> width <n>", source, lineno)
            lines[len(tables) - 1, len(tables[-1]["attrs"])] = lineno
            tables[-1]["attrs"].append(
                AttributeStats(
                    name=tokens[1].lower(),
                    cardinality=_parse_int(tokens[3], "card", source, lineno),
                    width=_parse_int(tokens[5], "width", source, lineno),
                )
            )
        else:
            raise ParseError(f"unrecognized directive {tokens[0]!r}", source, lineno)

    catalog = SchemaCatalog(
        tables=tuple(
            TableStats(
                name=t["name"],
                kind=t["kind"],
                row_count=t["rows"],
                row_width=t["width"],
                attributes=tuple(t["attrs"]),
            )
            for t in tables
        ),
        block_size=params["block_size"],
        btree_fanout=params["btree_fanout"],
        rowid_width=params["rowid_width"],
    )
    validate_catalog(catalog, source, lines)
    return catalog


def format_catalog(catalog: SchemaCatalog) -> str:
    """Serialize a catalog back into the file format; load_catalog round-trips it."""
    out = [
        f"block_size {catalog.block_size}",
        f"btree_fanout {catalog.btree_fanout}",
        f"rowid_width {catalog.rowid_width}",
        "",
    ]
    for t in catalog.tables:
        out.append(f"table {t.name} {t.kind} rows {t.row_count} row_width {t.row_width}")
        for a in t.attributes:
            out.append(f"  attr {a.name} card {a.cardinality} width {a.width}")
        out.append("")
    return "\n".join(out)


def scale_catalog(catalog: SchemaCatalog, factor: int) -> SchemaCatalog:
    """Shrink every table's row count by an integer factor (floor, minimum 1 row).

    Attribute cardinalities are clamped to the new row counts.  Storage
    parameters are unchanged.
    """
    if factor < 1:
        raise ValidationError("scale factor must be >= 1")
    tables = []
    for t in catalog.tables:
        rows = max(1, t.row_count // factor)
        attrs = tuple(
            AttributeStats(a.name, min(a.cardinality, rows), a.width) for a in t.attributes
        )
        tables.append(TableStats(t.name, t.kind, rows, t.row_width, attrs))
    return SchemaCatalog(
        tables=tuple(tables),
        block_size=catalog.block_size,
        btree_fanout=catalog.btree_fanout,
        rowid_width=catalog.rowid_width,
    )


def btree_height(cardinality: int, catalog: SchemaCatalog) -> int:
    """Levels descended to reach a key: smallest h with fanout**h >= cardinality.

    Integer arithmetic; equals ceil(log_fanout(cardinality)) without float
    boundary artifacts.
    """
    if cardinality < 1:
        raise ValidationError("cardinality must be >= 1")
    h = 0
    reach = 1
    while reach < cardinality:
        reach *= catalog.btree_fanout
        h += 1
    return h
