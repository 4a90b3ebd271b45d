"""Line-by-line point reader: every line split and checked in Python.

This is the ``casfit.load_points`` that ran before plain files were parsed
in one numpy pass, kept as the reference the reader is tested against.  It
streams the file, converts rows in blocks of ``LOAD_BLOCK_ROWS`` and
rereads the file to quote the line an error names.
"""

from __future__ import annotations

import itertools

import numpy as np

from casfit import ParseError
from casfit.synth import LOAD_BLOCK_ROWS


def reference_load_points(path) -> np.ndarray:
    blocks, rows, linenos = [], [], []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.replace(",", " ").split()
            if len(fields) != 3:
                _raise_unparsed(path, rows, linenos)  # an earlier line fails first
                raise ParseError(f"{path}: line {lineno}: expected 3 columns, got {len(fields)}")
            if not blocks and not rows and not header_seen and not _numeric(fields):
                header_seen = True  # one leading header line is tolerated
                continue
            rows.append(fields)
            linenos.append(lineno)
            if len(rows) == LOAD_BLOCK_ROWS:
                blocks.append(_to_floats(path, rows, linenos))
                rows, linenos = [], []
    if rows:
        blocks.append(_to_floats(path, rows, linenos))
    if not blocks:
        raise ParseError(f"{path}: no points found")
    arr = np.concatenate(blocks)
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: non-finite coordinates")
    return arr


def _to_floats(path, rows: list, linenos: list) -> np.ndarray:
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        _raise_unparsed(path, rows, linenos)
        raise


def _numeric(fields: list) -> bool:
    try:
        [float(f) for f in fields]
    except ValueError:
        return False
    return True


def _raise_unparsed(path, rows: list, linenos: list) -> None:
    for fields, lineno in zip(rows, linenos):
        if not _numeric(fields):
            with open(path, "r", encoding="utf-8") as fh:
                line = next(itertools.islice(fh, lineno - 1, None)).strip()
            raise ParseError(f"{path}: line {lineno}: could not parse {line!r}")
