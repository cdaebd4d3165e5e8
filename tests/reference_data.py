"""Frozen copy of `data.load_relevance` as it was before the score block
was parsed with numpy: `csv.reader` rows and one `float()` per cell.

It is the differential reference: `tests/test_data.py` requires the
numpy loader to return bit-equal ids and scores, or to raise `DataError`
with the identical message, on every file it generates. Its csv and
decode errors escape unwrapped, as they did then. Do not edit the body
below; it is deliberately slow and exists only to pin behaviour.
"""

from __future__ import annotations

import csv

import numpy as np

from verfair.data import DataError, RelevanceMatrix


def load_relevance(path) -> RelevanceMatrix:
    """Read a relevance CSV, validating shape, ids and score values."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2 or header[0] != "consumer_id":
        raise DataError(f"{path}: header must start with 'consumer_id'")
    item_ids = tuple(header[1:])
    consumer_ids = []
    scores = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}"
            )
        consumer_ids.append(row[0])
        vals = []
        for col, cell in enumerate(row[1:]):
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}, item {item_ids[col]!r}: "
                    f"cannot parse {cell!r}"
                ) from None
        scores.append(vals)
    if not consumer_ids:
        raise DataError(f"{path}: no consumer rows")
    return RelevanceMatrix(tuple(consumer_ids), item_ids, np.array(scores))
