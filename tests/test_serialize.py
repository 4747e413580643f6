import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latindex.errors import ValidationError
from latindex.serialize import Row, read_delimited, write_delimited

# Cells that need quoting: commas, quotes and newlines inside one field.
cells = st.text(alphabet=st.sampled_from(["a", "1", " ", ",", '"', "\n"]), max_size=6)


@st.composite
def tables(draw):
    """A header, its rows, and how many blank lines go above each row (and at the end)."""
    header = draw(st.lists(cells, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header)), max_size=8))
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(rows) + 1, max_size=len(rows) + 1))
    return header, rows, blanks


@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_rows_read_back_with_their_physical_start_line(tmp_path_factory, table):
    header, rows, blanks = table
    written, starts = [], []
    line = 2 + sum(name.count("\n") for name in header)
    for row, n_blank in zip(rows + [None], blanks):
        written += [[]] * n_blank  # the csv writer turns an empty row into a blank line
        line += n_blank
        if row is not None:
            written.append(row)
            starts.append(line)
            line += 1 + sum(cell.count("\n") for cell in row)
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_delimited(path, header, written)

    read_header, read_rows = read_delimited(path)
    assert read_header == header
    assert [list(r.values()) for r in read_rows] == rows
    assert [r.line for r in read_rows] == starts


def test_field_count_error_names_the_physical_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b\n"x\ny",1\n\n1,2,3\n')
    with pytest.raises(ValidationError, match=r"t\.csv:5: expected 2 fields, got 3"):
        read_delimited(path)


@pytest.mark.parametrize(
    "method, value, message",
    [
        ("number", "x", "is not a finite number: 'x'"),
        ("number", "nan", "is not a finite number: 'nan'"),
        ("number", "-inf", "is not a finite number: '-inf'"),
        ("integer", "1.5", "is not an integer: '1.5'"),
        ("binary", "2", "must be 0, 1 or empty, got '2'"),
        ("binary", "1.0", "must be 0, 1 or empty, got '1.0'"),
    ],
)
def test_bad_cells_fail_naming_file_line_and_column(method, value, message):
    row = Row({"c": value}, "f.csv", 7)
    with pytest.raises(ValidationError) as exc:
        getattr(row, method)("c")
    assert str(exc.value) == f"f.csv:7: column 'c' {message}"


def test_good_cells_parse():
    row = Row({"n": "2.5", "i": "-3", "one": "1", "zero": "0", "gap": ""}, "f.csv", 2)
    assert row.number("n") == 2.5
    assert row.integer("i") == -3
    assert (row.binary("one"), row.binary("zero")) == (1.0, 0.0)
    assert math.isnan(row.binary("gap"))
