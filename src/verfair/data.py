"""Relevance matrices and item group maps: loading, validation, synthesis.

Canonical on-disk formats:

* relevance CSV: header ``consumer_id,<item_1>,...,<item_n>``, one row per
  consumer with its id followed by n scores.
* group CSV: header ``item_id,group_id``, one row per item.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Raised for malformed or inconsistent input data."""


@dataclass(frozen=True)
class RelevanceMatrix:
    """Dense consumer x item relevance scores with id maps."""

    consumer_ids: tuple
    item_ids: tuple
    scores: np.ndarray  # shape (m, n), float64

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 2:
            raise DataError(f"relevance scores must be a 2-D matrix, "
                            f"got shape {scores.shape}")
        m, n = scores.shape
        if m < 1 or n < 1:
            raise DataError("relevance matrix must be at least 1x1")
        if len(self.consumer_ids) != m or len(self.item_ids) != n:
            raise DataError("id lists do not match matrix shape")
        if len(set(self.consumer_ids)) != m:
            raise DataError("duplicate consumer ids")
        if len(set(self.item_ids)) != n:
            raise DataError("duplicate item ids")
        if not np.all(np.isfinite(scores)):
            r, c = np.argwhere(~np.isfinite(scores))[0]
            raise DataError(
                f"non-finite score at consumer {self.consumer_ids[r]!r}, "
                f"item {self.item_ids[c]!r}"
            )
        if np.any(scores < 0):
            r, c = np.argwhere(scores < 0)[0]
            raise DataError(
                f"negative score at consumer {self.consumer_ids[r]!r}, "
                f"item {self.item_ids[c]!r}"
            )

    @property
    def m(self):
        return self.scores.shape[0]

    @property
    def n(self):
        return self.scores.shape[1]

    def avg_relevance(self):
        """Per-item relevance averaged uniformly over consumers."""
        return self.scores.mean(axis=0)

    def item_index(self):
        return {d: i for i, d in enumerate(self.item_ids)}

    def consumer_index(self):
        return {u: i for i, u in enumerate(self.consumer_ids)}


@dataclass(frozen=True)
class GroupMap:
    """Total item -> group assignment."""

    assignment: dict
    group_ids: tuple

    def __post_init__(self):
        seen = set(self.assignment.values())
        if set(self.group_ids) != seen:
            raise DataError("group_ids does not match assignment values")
        if len(set(self.group_ids)) != len(self.group_ids):
            raise DataError("duplicate group ids")

    def indices(self, items: RelevanceMatrix):
        """Array mapping each matrix item position to its group position."""
        gpos = {g: i for i, g in enumerate(self.group_ids)}
        return np.array([gpos[self.assignment[d]] for d in items.item_ids])


# Rows of the score block handed to one np.loadtxt call.
_CHUNK_ROWS = 4096
# Characters that send a file to the csv parser: the quote, NUL (a csv
# error before Python 3.11), and the ASCII separators that np.loadtxt
# strips around a number as whitespace and float() rejects.
_CSV_PARSER_ONLY = ('"', "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def load_relevance(path) -> RelevanceMatrix:
    """Read a relevance CSV, validating shape, ids and score values.

    The score block is parsed by `np.loadtxt` in chunks of rows. A file that
    parse cannot read exactly as `csv.reader` and `float()` would is read
    again by the csv parser, which returns the same matrix or raises the
    error that names the line and item.
    """
    parsed = _parse_relevance_numpy(path)
    if parsed is None:
        parsed = _parse_relevance_csv(path)
    try:
        return RelevanceMatrix(*parsed)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _plain(lines, limit):
    """True when csv.reader splits `lines` at each comma, no field is longer
    than `limit`, and float() reads every number as np.loadtxt does."""
    text = "".join(lines)
    if any(c in text for c in _CSV_PARSER_ONLY):
        return False
    return max(map(len, lines)) <= limit or all(
        max(map(len, line.split(","))) <= limit for line in lines)


def _parse_relevance_numpy(path):
    """(consumer_ids, item_ids, scores) of a relevance CSV, or None where
    the result could differ from `_parse_relevance_csv`'s, which includes
    every file that parser rejects.

    Without quotes, csv rows are the file's lines under universal newlines,
    split at each comma. np.loadtxt converts each number with
    PyOS_string_to_double, the same correctly rounded conversion as
    float(), so the scores are bit-equal.
    """
    limit = csv.field_size_limit()
    consumer_ids = []
    blocks = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not _plain([header], limit):
                return None
            header = header.removesuffix("\n").split(",")
            if len(header) < 2 or header[0] != "consumer_id":
                return None
            n = len(header) - 1
            while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
                if not _plain(lines, limit):
                    return None
                tails = []
                for line in lines:
                    cid, _, tail = line.partition(",")
                    consumer_ids.append(cid)
                    tails.append(tail)
                # no comma, or nothing after it: np.loadtxt would skip the row
                if "\n" in tails or "" in tails:
                    return None
                block = np.loadtxt(tails, delimiter=",", dtype=np.float64,
                                   comments=None, quotechar=None, ndmin=2)
                if block.shape != (len(tails), n):
                    return None
                blocks.append(block)
    except ValueError:  # a number loadtxt rejects, ragged rows, bad UTF-8
        return None
    if not blocks:
        return None
    return tuple(consumer_ids), tuple(header[1:]), np.concatenate(blocks)


def _read_csv(path):
    """Every row of a CSV file; csv and decoding errors name the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


def _parse_relevance_csv(path):
    """The exact parse: csv rows and one float() per cell."""
    rows = _read_csv(path)
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
    return tuple(consumer_ids), item_ids, np.array(scores)


def save_relevance(rel: RelevanceMatrix, path):
    """Write a relevance CSV with full float precision (round-trips exactly)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["consumer_id", *rel.item_ids])
        for u, row in zip(rel.consumer_ids, rel.scores):
            w.writerow([u, *(repr(float(v)) for v in row)])


def load_groups(path, items: RelevanceMatrix) -> GroupMap:
    """Read an item -> group CSV covering every item of `items` exactly once."""
    rows = _read_csv(path)
    if not rows or rows[0] != ["item_id", "group_id"]:
        raise DataError(f"{path}: expected header 'item_id,group_id'")
    known = set(items.item_ids)
    assignment = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        d, g = row
        if d not in known:
            raise DataError(f"{path}: line {lineno}: unknown item id {d!r}")
        if d in assignment:
            raise DataError(f"{path}: line {lineno}: duplicate item id {d!r}")
        assignment[d] = g
    missing = known - set(assignment)
    if missing:
        raise DataError(f"{path}: missing group for item {sorted(missing)[0]!r}")
    # groups in order of first appearance
    return GroupMap(assignment, tuple(dict.fromkeys(assignment.values())))


def save_groups(groups: GroupMap, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "group_id"])
        for d, g in groups.assignment.items():
            w.writerow([d, g])


def identity_groups(items: RelevanceMatrix) -> GroupMap:
    """One singleton group per item; group id equals item id."""
    return GroupMap({d: d for d in items.item_ids}, tuple(items.item_ids))


_BETA_RE = re.compile(r"^beta\(\s*([0-9.eE+-]+)\s*,\s*([0-9.eE+-]+)\s*\)$")


def synth_relevance(m, n, distribution="uniform", seed=0) -> RelevanceMatrix:
    """Deterministic synthetic matrix with scores in [0,1].

    `distribution` is either "uniform" or "beta(a,b)".
    """
    if m < 1 or n < 1:
        raise DataError("m and n must be >= 1")
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        scores = rng.random((m, n))
    else:
        match = _BETA_RE.match(distribution)
        if not match:
            raise DataError(f"unknown distribution {distribution!r}")
        a, b = float(match.group(1)), float(match.group(2))
        scores = rng.beta(a, b, size=(m, n))
    width = max(len(str(m)), len(str(n)))
    consumer_ids = tuple(f"c{i:0{width}d}" for i in range(1, m + 1))
    item_ids = tuple(f"i{j:0{width}d}" for j in range(1, n + 1))
    return RelevanceMatrix(consumer_ids, item_ids, scores)
