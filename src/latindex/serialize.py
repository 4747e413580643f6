"""Deterministic text serialization shared by the file-facing modules.

Every number leaving the pipeline is written with 17 significant digits so
reruns are byte-identical and values round-trip through float64 exactly.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring
from typing import Iterable, NoReturn, Sequence

from .errors import SchemaError, ValidationError


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (full float64 precision)."""
    if isinstance(x, bool):
        raise TypeError("fmt17 expects a real number")
    x = float(x)
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def fmt3(x: float) -> str:
    """3-decimal display format for report tables."""
    return format(float(x), ".3f")


def write_delimited(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a UTF-8 comma-delimited file with a header row and LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


class Row(dict):
    """One record of a delimited file: its cells by column name, and where it came from.

    ``line`` is the physical line the record starts on, so skipped blank
    lines and quoted newlines count. Every cell check goes through
    ``fail``, which names the file and that line.
    """

    __slots__ = ("path", "line")

    def __init__(self, cells, path, line: int):
        super().__init__(cells)
        self.path = path
        self.line = line

    def fail(self, message: str) -> NoReturn:
        raise ValidationError(f"{self.path}:{self.line}: {message}")

    def number(self, column: str) -> float:
        """The cell as a finite float."""
        value = self[column]
        try:
            x = float(value)
        except ValueError:
            x = math.nan  # reported with the non-finite values
        if not math.isfinite(x):
            self.fail(f"column {column!r} is not a finite number: {value!r}")
        return x

    def integer(self, column: str) -> int:
        """The cell as an int."""
        value = self[column]
        try:
            return int(value)
        except ValueError:
            self.fail(f"column {column!r} is not an integer: {value!r}")

    def binary(self, column: str) -> float:
        """A 0/1 item cell as 0.0 or 1.0; empty (missing) reads as nan."""
        value = self[column]
        x = _BINARY_VALUES.get(value)
        if x is None:
            self.fail(f"column {column!r} must be 0, 1 or empty, got {value!r}")
        return x


_BINARY_VALUES = {"": math.nan, "0": 0.0, "1": 1.0}


def _binary_cells(values) -> list[str]:
    """Cell texts of 0/1 item values, empty for missing (nan): what Row.binary reads."""
    return ["" if math.isnan(v) else str(int(v)) for v in values]


def read_delimited(path, required: Sequence[str] | None = None) -> tuple[list[str], list[Row]]:
    """Read a delimited file into (header, rows), checking required columns.

    Blank lines are skipped, and each Row records the line it starts on.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next((raw for raw in reader if raw), None)
        if header is None:
            raise SchemaError(f"{path}: file is empty")
        if required is not None:
            missing = [c for c in required if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing mandatory column(s): {', '.join(missing)}")
        rows = []
        end = reader.line_num
        for raw in reader:
            start, end = end + 1, reader.line_num
            if not raw:
                continue
            if len(raw) != len(header):
                raise SchemaError(f"{path}:{start}: expected {len(header)} fields, got {len(raw)}")
            rows.append(Row(zip(header, raw), path, start))
    return header, rows


class JsonWriter:
    """Tiny JSON emitter with fmt17 floats and stable key order.

    The stdlib json module formats floats with repr, which is shortest
    round-trip rather than a fixed significant-digit count; this writer
    keeps the 17-digit file contract. Strings and keys are escaped as the
    json module escapes them, non-ASCII kept as is.
    """

    def __init__(self):
        self._buf = io.StringIO()

    def emit(self, value, indent: int = 0) -> None:
        b = self._buf
        pad = "  " * indent
        if isinstance(value, dict):
            if not value:
                b.write("{}")
                return
            b.write("{\n")
            items = list(value.items())
            for i, (k, v) in enumerate(items):
                b.write(f"{pad}  {encode_basestring(k)}: ")
                self.emit(v, indent + 1)
                b.write(",\n" if i < len(items) - 1 else "\n")
            b.write(pad + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                b.write("[]")
                return
            b.write("[\n")
            for i, v in enumerate(value):
                b.write(pad + "  ")
                self.emit(v, indent + 1)
                b.write(",\n" if i < len(value) - 1 else "\n")
            b.write(pad + "]")
        elif isinstance(value, bool):
            b.write("true" if value else "false")
        elif isinstance(value, (int,)):
            b.write(str(value))
        elif isinstance(value, float):
            b.write(fmt17(value))
        elif isinstance(value, str):
            b.write(encode_basestring(value))
        elif value is None:
            b.write("null")
        else:
            raise TypeError(f"cannot serialize {type(value)!r}")

    def render(self, value) -> str:
        self.emit(value)
        self._buf.write("\n")
        return self._buf.getvalue()


def to_json_text(value) -> str:
    """Serialize a dict/list tree to deterministic JSON text."""
    return JsonWriter().render(value)
