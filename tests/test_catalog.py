import pytest

from mvindex.catalog import (
    AttributeStats,
    SchemaCatalog,
    TableStats,
    blocks,
    btree_height,
    format_catalog,
    load_catalog,
    scale_catalog,
    table_blocks,
    validate_catalog,
)
from mvindex.errors import ParseError, ValidationError


def test_fixture_fact_stats(catalog):
    sales = catalog.table("sales")
    assert sales.kind == "fact"
    assert sales.row_count == 16_260_336
    assert sales.row_width == 24
    assert sales.size_mb == 372.17


def test_fixture_storage_params(catalog):
    assert catalog.block_size == 8192
    assert catalog.btree_fanout == 200
    assert catalog.rowid_width == 10


def test_blocks_empty_relation(catalog):
    assert blocks(0, 24, catalog) == 0
    assert blocks(0, 10_000, catalog) == 0


def test_blocks_fact_table(catalog):
    # ceil(16260336 * 24 / 8192) worked out by hand
    assert blocks(16_260_336, 24, catalog) == 47_638


def test_blocks_single_row(catalog):
    assert blocks(1, 24, catalog) == 1


def test_blocks_small_table_one_block(catalog):
    # 5 rows fit one block for any width up to 1638 bytes
    for width in (1, 21, 100, 1638):
        assert blocks(5, width, catalog) == 1
    assert blocks(5, 1639, catalog) == 2


@pytest.mark.parametrize(
    "name,expected",
    [
        ("sales", 47_638),
        ("customers", 855),
        ("products", 292),
        ("times", 26),
        ("promotions", 6),
        ("channels", 1),
    ],
)
def test_fixture_table_blocks(catalog, name, expected):
    assert table_blocks(catalog.table(name), catalog) == expected


def test_blocks_monotone(catalog):
    import random

    rng = random.Random(7)
    for _ in range(300):
        rows = rng.randint(0, 10**7)
        width = rng.randint(1, 500)
        b = blocks(rows, width, catalog)
        assert blocks(rows + rng.randint(0, 1000), width, catalog) >= b
        assert blocks(rows, width + rng.randint(0, 50), catalog) >= b


def test_load_rejects_missing_fact():
    with pytest.raises(ValidationError):
        load_catalog("table d dimension rows 10 row_width 4\n  attr a card 2 width 4\n")
    with pytest.raises(ValidationError):
        load_catalog("")


def test_load_rejects_two_facts():
    text = (
        "table f1 fact rows 10 row_width 4\n"
        "table f2 fact rows 10 row_width 4\n"
    )
    with pytest.raises(ValidationError):
        load_catalog(text)


def test_load_rejects_duplicate_table():
    text = (
        "table f fact rows 10 row_width 4\n"
        "table f fact rows 10 row_width 4\n"
    )
    with pytest.raises(ValidationError):
        load_catalog(text)


def test_load_rejects_duplicate_attribute():
    text = (
        "table f fact rows 10 row_width 4\n"
        "  attr a card 2 width 4\n"
        "  attr a card 3 width 4\n"
    )
    with pytest.raises(ValidationError):
        load_catalog(text)


def test_load_rejects_cardinality_above_rows():
    text = "table f fact rows 10 row_width 4\n  attr a card 11 width 4\n"
    with pytest.raises(ValidationError):
        load_catalog(text)


@pytest.mark.parametrize("width", [0, -10])
def test_load_rejects_non_positive_rowid_width(width):
    # an index occupies rows * (key width + rowid width) bytes, never fewer than its keys
    with pytest.raises(ValidationError, match="rowid_width must be >= 1"):
        load_catalog(f"rowid_width {width}\ntable f fact rows 10 row_width 4\n")


@pytest.mark.parametrize("param", ["block_size", "btree_fanout", "rowid_width"])
def test_load_rejects_a_parameter_set_twice(param):
    text = f"{param} 1024\ntable f fact rows 10 row_width 4\n  attr a card 2 width 4\n{param} 1024\n"
    with pytest.raises(ParseError, match=f"^c.cat: line 4: {param} is set twice"):
        load_catalog(text, "c.cat")


_DIMENSION = "table d dimension rows 5 row_width 8\n  attr b card 5 width 4\n"
_GOOD_TABLES = "table f fact rows 10 row_width 4\n  attr a card 2 width 4\n" + _DIMENSION


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("table d dimension rows 5 row_width 8\n", None,
         "catalog must have exactly one fact table, found 0"),
        (_GOOD_TABLES + "table g fact rows 3 row_width 4\n", 5,
         "catalog must have exactly one fact table, found 2"),
        ("block_size 256\n" + _GOOD_TABLES, 1, "block_size must be >= 512"),
        ("\nbtree_fanout 1\n" + _GOOD_TABLES, 2, "btree_fanout must be >= 2"),
        ("# storage\nrowid_width 0\n" + _GOOD_TABLES, 2, "rowid_width must be >= 1"),
        (_GOOD_TABLES + "table d dimension rows 5 row_width 8\n", 5, "duplicate table 'd'"),
        (_GOOD_TABLES + "table e outrigger rows 5 row_width 8\n", 5,
         "table 'e': kind must be fact or dimension"),
        (_GOOD_TABLES + "table e dimension rows -1 row_width 8\n", 5,
         "table 'e': row_count must be >= 0"),
        (_GOOD_TABLES + "table e dimension rows 5 row_width 0\n", 5,
         "table 'e': row_width must be >= 1"),
        (_GOOD_TABLES + "  attr b card 4 width 4\n", 5, "table 'd': duplicate attribute 'b'"),
        (_GOOD_TABLES + "  attr c card 0 width 4\n", 5, "d.c: cardinality must be >= 1"),
        (_GOOD_TABLES + "  attr c card 6 width 4\n", 5, "d.c: cardinality 6 exceeds row_count 5"),
        (_GOOD_TABLES + "  attr c card 2 width 0\n", 5, "d.c: width must be >= 1"),
        ("table f fact rows 10 row_width 4\n  attr a card 11 width 4\n" + _DIMENSION, 2,
         "f.a: cardinality 11 exceeds row_count 10"),
        # the first of two tables with one name is at fault, at its own line
        ("table f fact rows 10 row_width 4\ntable d dimension rows 5 row_width 0\n" + _DIMENSION, 2,
         "table 'd': row_width must be >= 1"),
    ],
)
def test_invalid_declaration_is_reported_at_its_line(text, line, message):
    with pytest.raises(ValidationError) as err:
        load_catalog(text, "c.cat")
    where = "c.cat: " if line is None else f"c.cat: line {line}: "
    assert str(err.value) == where + message
    assert (err.value.source, err.value.line) == ("c.cat", line)


def test_validate_catalog_names_no_line_without_one():
    catalog = SchemaCatalog(tables=(TableStats("f", "fact", 10, 4),), rowid_width=0)
    with pytest.raises(ValidationError) as err:
        validate_catalog(catalog)
    assert str(err.value) == "rowid_width must be >= 1"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("table f fact rows ten row_width 4\n", 1, "rows must be an integer, got 'ten'"),
        ("# storage\nblock_size\n", 2, "expected: block_size <integer>"),
        ("block_size 8192\nattr a card 1 width 4\n", 2, "attr line before any table line"),
    ],
    ids=["non-integer-rows", "bare-block-size", "attr-before-table"],
)
def test_parse_error_carries_line(text, line, message):
    with pytest.raises(ParseError) as err:
        load_catalog(text, "c.cat")
    assert (err.value.source, err.value.line) == ("c.cat", line)
    assert str(err.value) == f"c.cat: line {line}: {message}"


def test_unknown_directive():
    with pytest.raises(ParseError):
        load_catalog("tables f fact rows 10 row_width 4\n")


def test_round_trip(catalog):
    assert load_catalog(format_catalog(catalog)) == catalog


def test_round_trip_random():
    import random

    rng = random.Random(3)
    for _ in range(20):
        tables = [
            TableStats(
                "fact",
                "fact",
                rng.randint(1, 10**6),
                rng.randint(1, 200),
                (AttributeStats("m", 1, 4),),
            )
        ]
        for d in range(rng.randint(0, 4)):
            rows = rng.randint(1, 10**4)
            attrs = tuple(
                AttributeStats(f"a{j}", rng.randint(1, rows), rng.randint(1, 32))
                for j in range(rng.randint(1, 4))
            )
            tables.append(TableStats(f"d{d}", "dimension", rows, rng.randint(1, 300), attrs))
        cat = SchemaCatalog(tables=tuple(tables), block_size=rng.choice([512, 4096, 8192]))
        assert load_catalog(format_catalog(cat)) == cat


def test_scale_catalog(catalog):
    scaled = scale_catalog(catalog, 100)
    assert scaled.table("sales").row_count == 162_603
    assert scaled.table("channels").row_count == 1  # never below one row
    for t in scaled.tables:
        for a in t.attributes:
            assert 1 <= a.cardinality <= t.row_count
    assert scaled.block_size == catalog.block_size


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda catalog: scale_catalog(catalog, 0), "scale factor must be >= 1"),
        (lambda catalog: btree_height(0, catalog), "cardinality must be >= 1"),
        (lambda catalog: blocks(-1, 4, catalog), "row_count must be >= 0"),
        (lambda catalog: catalog.table("nope"), "unknown table 'nope'"),
        (lambda catalog: SchemaCatalog(tuple(t for t in catalog.tables if t.kind != "fact")).fact_table,
         "catalog has no fact table"),
    ],
    ids=["scale-factor-0", "cardinality-0", "negative-rows", "unknown-table", "no-fact-table"],
)
def test_block_math_rejects_out_of_range_arguments(catalog, call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(catalog)


def test_btree_height(catalog):
    assert btree_height(1, catalog) == 0
    assert btree_height(2, catalog) == 1
    assert btree_height(200, catalog) == 1
    assert btree_height(201, catalog) == 2
    assert btree_height(40_000, catalog) == 2
    assert btree_height(40_001, catalog) == 3
