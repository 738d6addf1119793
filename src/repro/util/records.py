"""Result tables and their on-disk format.

``ResultTable`` is intentionally tiny: rows are dictionaries, columns are
discovered from the rows, and rendering produces the fixed-width text
tables that the experiments (DESIGN.md "Experiment index") and the
benchmark harness print.  No
pandas dependency — the offline environment ships numpy/scipy only.

The durable format is JSON Lines: one header object (format marker,
schema version, title, column order, optional spec fingerprint) followed
by one object per row.  JSON round-trips the value kinds the sweeps
produce exactly — ``int`` stays ``int``, ``float`` repr round-trips
bit-for-bit, ``None``/``NaN``/``±inf`` survive — so a reloaded table
reduces and renders byte-identically.  The same primitives
(:func:`json_line`, :func:`read_jsonl`, :func:`fingerprint_of`) back the
sweep checkpoints in :mod:`repro.parallel.sharding`.  CSV stays a
render-only export: it flattens types (``1`` vs ``1.0`` vs ``"1"``) and
carries no header metadata, so nothing is ever loaded back from it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from typing import Any, Mapping, Sequence

import numpy as np

#: Format marker + schema version of the result-table JSONL header.
RESULT_TABLE_FORMAT = "repro.result-table"
RESULT_TABLE_SCHEMA = 1


class TablePersistenceError(ValueError):
    """A persisted table/checkpoint file cannot be trusted as written."""


class SchemaVersionError(TablePersistenceError):
    """The file declares a schema version this build does not read."""


class FingerprintMismatchError(TablePersistenceError):
    """The file's spec fingerprint differs from the expected one."""


def _json_default(value: Any) -> Any:
    """Map numpy scalars onto the plain types the format is defined over."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSONL-persistable")


def json_line(obj: Mapping[str, Any]) -> str:
    """One compact JSON line (no trailing newline), numpy-scalar safe.

    Non-finite floats are emitted as the ``NaN``/``Infinity`` literals
    Python's own parser accepts, keeping the round trip lossless.
    """
    return json.dumps(obj, default=_json_default, separators=(",", ":"))


def fingerprint_of(payload: Any) -> str:
    """SHA-256 over the canonical JSON of ``payload`` (sorted keys).

    Used to stamp persisted tables and sweep checkpoints with the spec
    that produced them, so a resume against different parameters fails
    loudly instead of merging incompatible records.
    """
    canonical = json.dumps(
        payload, default=_json_default, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def read_jsonl(
    path: str | os.PathLike, drop_partial_tail: bool = False
) -> tuple[dict[str, Any], list[dict[str, Any]], int]:
    """Read a JSONL file: ``(header, rows, clean_bytes)``.

    ``clean_bytes`` is the length of the newline-terminated prefix —
    a writer killed mid-append leaves a partial final line, and an
    appender must truncate back to this offset before continuing.  With
    ``drop_partial_tail`` the partial line is discarded (checkpoint
    recovery); without it the file is required to be complete and a
    ragged tail raises :class:`TablePersistenceError`.

    ``newline=""`` disables universal-newline translation so
    ``clean_bytes`` counts real file bytes on every platform (with
    translation, Windows ``\\r\\n`` files would make the offset
    undercount and a truncate-then-append would corrupt the file).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    body, newline, tail = text.rpartition("\n")
    if tail:
        if not drop_partial_tail:
            raise TablePersistenceError(
                f"{path}: truncated final line {tail[:80]!r}; "
                "the file was not completely written"
            )
        text = body + newline
    clean_bytes = len(text.encode("utf-8"))
    lines = text.splitlines()
    if not lines:
        raise TablePersistenceError(f"{path}: empty file, no header line")
    try:
        parsed = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise TablePersistenceError(f"{path}: invalid JSONL ({exc})") from exc
    header, rows = parsed[0], parsed[1:]
    if not isinstance(header, dict) or "format" not in header:
        raise TablePersistenceError(
            f"{path}: first line is not a format header (missing 'format' key)"
        )
    if any(not isinstance(row, dict) for row in rows):
        raise TablePersistenceError(f"{path}: non-object row line")
    return header, rows, clean_bytes


def check_header(
    header: Mapping[str, Any],
    path: str | os.PathLike,
    expected_format: str,
    expected_schema: int,
    fingerprint: str | None = None,
) -> None:
    """Validate a JSONL header's format marker, schema, and fingerprint."""
    if header.get("format") != expected_format:
        raise TablePersistenceError(
            f"{path}: format marker {header.get('format')!r} is not "
            f"{expected_format!r}"
        )
    if header.get("schema") != expected_schema:
        raise SchemaVersionError(
            f"{path}: schema version {header.get('schema')!r} is not readable "
            f"by this build (expected {expected_schema}); "
            "regenerate the file or upgrade"
        )
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise FingerprintMismatchError(
            f"{path}: spec fingerprint {header.get('fingerprint')!r} does not "
            f"match the expected {fingerprint!r}; this file belongs to a "
            "different sweep specification"
        )


class ResultTable:
    """An append-only table of experiment rows with text/CSV rendering."""

    def __init__(self, title: str = "", columns: Sequence[str] | None = None):
        self.title = title
        self._columns: list[str] = list(columns) if columns else []
        self.rows: list[dict[str, Any]] = []
        #: Canonical digest of the spec that produced this table, when
        #: known (set by ``run_sweep`` and by :meth:`load`); used as the
        #: default stamp in :meth:`save`.
        self.fingerprint: str | None = None

    def add(self, **row: Any) -> None:
        """Append one row; unseen keys become new columns (ordered)."""
        for key in row:
            if key not in self._columns:
                self._columns.append(key)
        self.rows.append(row)

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> list[Any]:
        """All values of one column (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def _format_cell(self, value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    def render(self) -> str:
        """Fixed-width text rendering, suitable for terminal output."""
        header = self._columns
        body = [[self._format_cell(r.get(c)) for c in header] for r in self.rows]
        widths = [
            max(len(h), *(len(row[i]) for row in body)) if body else len(h)
            for i, h in enumerate(header)
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths, strict=True)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths, strict=True)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (header + rows).

        Render-only: CSV flattens value types and drops the header
        metadata, so there is deliberately no ``from_csv`` — durable
        storage goes through :meth:`save`/:meth:`load`.
        """
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self._columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({c: row.get(c, "") for c in self._columns})
        return buf.getvalue()

    def save(self, path: str | os.PathLike, fingerprint: str | None = None) -> None:
        """Write the table as JSONL: header line, then one line per row.

        ``fingerprint`` (see :func:`fingerprint_of`) stamps the file
        with the sweep spec that produced it; :meth:`load` can then
        refuse files from a different spec.  When omitted, the table's
        own :attr:`fingerprint` (if any) is used.
        """
        header = {
            "format": RESULT_TABLE_FORMAT,
            "schema": RESULT_TABLE_SCHEMA,
            "title": self.title,
            "columns": self._columns,
            "fingerprint": (
                fingerprint if fingerprint is not None else self.fingerprint
            ),
        }
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json_line(header) + "\n")
            for row in self.rows:
                fh.write(json_line(row) + "\n")

    @classmethod
    def load(
        cls, path: str | os.PathLike, fingerprint: str | None = None
    ) -> "ResultTable":
        """Read a table written by :meth:`save`, verifying the header.

        Raises :class:`TablePersistenceError` for files that are not
        result tables or were cut off mid-write,
        :class:`SchemaVersionError` for unknown schema versions, and —
        when an expected ``fingerprint`` is given —
        :class:`FingerprintMismatchError` if the file was produced by a
        different sweep spec.
        """
        header, rows, _ = read_jsonl(path)
        check_header(
            header, path, RESULT_TABLE_FORMAT, RESULT_TABLE_SCHEMA, fingerprint
        )
        table = cls(title=header.get("title", ""), columns=header.get("columns"))
        table.fingerprint = header.get("fingerprint")
        for row in rows:
            table.add(**row)
        return table

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultTable({self.title!r}, rows={len(self.rows)})"
