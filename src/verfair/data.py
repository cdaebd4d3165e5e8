"""Relevance matrices and item group maps: loading, validation, synthesis.

Canonical on-disk formats:

* relevance CSV: header ``consumer_id,<item_1>,...,<item_n>``, one row per
  consumer with its id followed by n scores.
* group CSV: header ``item_id,group_id``, one row per item.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass

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


# Score fields per chunk of lines read at once, and per sub-block of the
# decimal kernel, whose temporaries hold one or three words a field. Chunks
# of 2**15 fields read up to 1.5 MB more peak RSS than 2**14 on seeds of
# the benchmark's 1000 x 100 input.
_CHUNK_FIELDS = 2 ** 14
_BLOCK_FIELDS = 2 ** 13
# The second pass of the kernel costs about what float() does on a few
# hundred fields; fewer fields than this go straight to float().
_FEW_FIELDS = 64
# Bytes that send a file to the csv parser: the quote, and NUL (a csv
# error before Python 3.11).
_CSV_PARSER_ONLY = (b'"', b"\x00")
# Ends each chunk, so that every read of the kernel stays inside it:
# spaces are neither separators nor digits.
_PAD = b" " * 32


def load_relevance(path) -> RelevanceMatrix:
    """Read a relevance CSV, validating shape, ids and score values.

    The scores are converted by an exact numpy decimal kernel, in chunks of
    lines. A file that parse cannot read exactly as `csv.reader` and
    `float()` would is read again by the csv parser, which returns the same
    matrix or raises the error that names the line and item.
    """
    parsed = _parse_relevance_numpy(path)
    if parsed is None:
        parsed = _parse_relevance_csv(path)
    try:
        return RelevanceMatrix(*parsed)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_relevance_numpy(path):
    """(consumer_ids, item_ids, scores) of a relevance CSV, or None where
    the result could differ from `_parse_relevance_csv`'s, which includes
    every file that parser rejects.

    Without quotes, csv rows are the file's lines, split at each comma.
    The file is read in chunks of whole lines, of about 2**14 fields if
    the lines are like the first, and `_parse_rows` reads each into scores.
    """
    limit = csv.field_size_limit()
    consumer_ids = []
    with open(path, "rb") as fh:
        header = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        if not _plain(header) or b"\r" in header:
            return None
        try:
            fields = header.decode().split(",")
        except UnicodeDecodeError:
            return None
        if (len(fields) < 2 or fields[0] != "consumer_id"
                or max(map(len, fields)) > limit):
            return None
        n = len(fields) - 1
        line = fh.readline()
        size = len(line) * max(1, _CHUNK_FIELDS // n)
        # room for the rows of a file of lines like the first (a line of n
        # numbers is at least 2n + 1 bytes); pages of rows never written
        # are never touched
        scores = np.empty((os.fstat(fh.fileno()).st_size
                           // max(len(line), 2 * n + 1) + 1, n))
        while line:
            chunk = b"".join([line, fh.read(size), fh.readline(), _PAD])
            parsed = _parse_rows(chunk, n, limit, scores, len(consumer_ids))
            if parsed is None:
                return None
            consumer_ids += parsed[0]
            scores = parsed[1]
            line = fh.readline()
    if not consumer_ids:
        return None
    return tuple(consumer_ids), tuple(fields[1:]), scores[:len(consumer_ids)]


def _plain(data):
    """True when csv.reader splits the bytes `data` at each comma and
    newline."""
    return not any(c in data for c in _CSV_PARSER_ONLY)


def _parse_rows(data, n, limit, scores, m):
    """(consumer_ids, scores) once the whole lines that start the bytes
    `data`, each a consumer id and n numbers, then _PAD, are written from
    row m on of the (_, n) matrix `scores` or of a grown copy of it; or
    None when the csv parser could read the lines otherwise.

    The lines are split at commas and newlines in one pass over their
    bytes. `_decimals` converts the scores, and every field it does not
    certify goes to float(), the csv parser's own conversion, so the scores
    are bit-equal.
    """
    if b"\r" in data:  # csv ends a row at "\r\n", "\n" or a lone "\r"
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    if not _plain(data):
        return None
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            return None
    if not data.endswith(b"\n" + _PAD):  # the file's last line
        data = data.removesuffix(_PAD) + b"\n" + _PAD
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = buf == ord(",")
    sep |= buf == ord("\n")
    sep = np.flatnonzero(sep)
    newline = buf[sep] == ord("\n")
    rows = np.count_nonzero(newline)
    if sep.size != rows * (n + 1) or not newline[n::n + 1].all():
        return None
    # a field's bytes are never fewer than the csv parser's characters
    line_starts = np.r_[0, sep[n:-1:n + 1] + 1]
    if ((sep[n::n + 1] - line_starts).max() > limit
            and np.diff(sep, prepend=-1).max() > limit + 1):
        return None
    sep = sep.reshape(rows, n + 1)
    consumer_ids = _ids(buf, line_starts, sep[:, 0])
    starts = (sep[:, :-1] + 1).ravel()
    ends = sep[:, 1:].ravel()
    if m + rows > len(scores):
        grown = np.empty((2 * (m + rows), n))
        grown[:m] = scores[:m]
        scores = grown
    out = scores[m:m + rows].reshape(-1)  # a view: rows are contiguous
    exact = np.empty(rows * n, dtype=bool)
    blocks = [slice(i, i + _BLOCK_FIELDS)
              for i in range(0, rows * n, _BLOCK_FIELDS)]
    for general in (False, True):
        for block in blocks:
            out[block], exact[block] = _decimals(
                data, starts[block], ends[block], general)
        rest = np.flatnonzero(~exact)
        if rest.size < _FEW_FIELDS:
            break
        # the fields the first pass leaves are read together by the second
        blocks = [rest[i:i + _BLOCK_FIELDS]
                  for i in range(0, rest.size, _BLOCK_FIELDS)]
    if rest.size:
        fallback = _float_fields(data, starts[rest], ends[rest])
        if fallback is None:
            return None
        out[rest] = fallback
    return consumer_ids, scores


def _ids(buf, starts, ends):
    """The UTF-8 strings buf[starts[i]:ends[i]], none holding a comma."""
    length = ends - starts + 1  # each with the comma after it
    at = np.arange(length.sum()) + np.repeat(starts - np.cumsum(length)
                                             + length, length)
    return buf[at].tobytes().decode().split(",")[:-1]


def _float_fields(data, starts, ends):
    """float() of each field, as the csv parser converts it, or None when
    one is not a number."""
    try:
        return [float(data[a:b].decode())
                for a, b in zip(starts.tolist(), ends.tolist())]
    except ValueError:
        return None


# The decimal kernel reads a field as the integer w of its digits, eight
# per 64-bit little-endian word (Lemire, "Number Parsing at a Gigabyte per
# Second", 2021), and a power of ten q, then rounds w * 10**q from a
# double-double product.
_BYTES = 0x0101010101010101
_ZEROS = np.uint64(ord("0") * _BYTES)
_MAX_DIGITS = 18  # so that w < 2**60
_WORD_AT = np.array([[0], [8], [16]])  # byte offset of the 3 digit words
# The powers of ten the kernel rounds against: every product w * 10**q
# and its parts stay normal doubles, and 10**22 is the last one exact.
_Q_MIN, _Q_MAX = -100, 22
_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter for binary64


def _pow10_table():
    """(hi, lo, high, low) for 10**q, q from _Q_MIN to _Q_MAX: hi is 10**q
    correctly rounded and lo the rest of it correctly rounded, both by
    exact integer division; high + low is Dekker's split of hi."""
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(h_num / h_den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    c = hi * _SPLIT
    high = c - (c - hi)
    return hi, np.array(lo), high, hi - high


_POW10 = _pow10_table()
_POW10_INT = 10 ** np.arange(19, dtype=np.uint64)
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _read(data, at, words):
    """The `words` little-endian 8-byte words at each byte offset `at` of
    the bytes `data`, shape (words, len(at))."""
    view = np.ndarray((len(data) - 8 * words + 1,), dtype=f"V{8 * words}",
                      buffer=data, strides=(1,))
    return np.ascontiguousarray(view[at].view("<u8").reshape(-1, words).T)


def _find(words, byte):
    """Offset of the first byte equal to `byte` in each column of three
    consecutive words, 24 if none is."""
    x = words ^ np.uint64(byte * _BYTES)
    x = (x - _BYTES) & ~x & np.uint64(0x80 * _BYTES)
    # the index of the lowest non-zero byte of each word, 8 for a zero word
    i = (np.bitwise_count((x - 1) & ~x) >> 3).astype(np.int64)
    i = np.where(i < 8, i + _WORD_AT, 24)
    return np.minimum(np.minimum(i[0], i[1]), i[2])


def _digits(words, count):
    """Value of the first `count` (0 to 8) bytes of each word as decimal
    digits, and a word that is non-zero where they are not all digits."""
    shift = (64 - 8 * count).astype(np.uint64)
    # the digits move to the top bytes, and "0"s fill the bytes below them
    x = (words << shift) | (_ZEROS >> (np.uint64(64) - shift))
    bad = ((x + np.uint64(0x46 * _BYTES)) | (x - _ZEROS)) \
        & np.uint64(0x80 * _BYTES)
    x -= _ZEROS
    x = x * np.uint64(10) + (x >> 8)
    mask = np.uint64(0x000000FF000000FF)
    x = ((x & mask) * np.uint64(100 + (1000000 << 32))
         + ((x >> 16) & mask) * np.uint64(1 + (10000 << 32))) >> 32
    return x, bad


def _decimals(data, starts, ends, general):
    """(values, exact) for the fields [starts, ends) of the bytes `data`:
    values[i] is float() of field i wherever exact[i] is true.

    Unless `general`, only fields of at most 24 bytes that start with "0."
    are read, as digits with the "." read as "0". With `general`, fields
    of at most 18 digits are read from their start, and may hold one
    decimal point anywhere and end in `e` or `E`, a sign and 1 to 7
    digits. A field is kept when w, the integer of its digits, is below
    10**18 and the rounding of w * 10**q is certified (see `_round`).
    """
    if general:
        words, count, q, valid = _mantissa(data, starts, ends)
        valid &= count <= _MAX_DIGITS
    else:
        words = _read(data, starts, 3)
        count = ends - starts
        valid = ((words[0] & np.uint64(0xFFFF)) == 0x2E30) & (count <= 24)
        words[0] ^= np.uint64(0x1E00)  # "0." read as "00"
        q = 2 - count
    n = np.minimum(np.maximum(count - _WORD_AT, 0), 8)
    value, bad = _digits(words, n)
    later = n[1] + n[2]
    # so w < 10**18 < 2**60: no product below wraps where valid holds
    valid &= (((bad[0] | bad[1] | bad[2]) == 0)
              & (value[0] < _POW10_INT[_MAX_DIGITS - later]))
    w = (value[0] * _POW10_INT[later] + value[1] * _POW10_INT[n[2]]
         + value[2])
    values, certified = _round(w * valid, (q - _Q_MIN) * valid)
    return values, valid & certified


def _mantissa(data, starts, ends):
    """The digit words of each field with its decimal point squeezed out,
    its digit count, q, and whether it has digits and its exponent is well
    formed."""
    words = _read(data, starts, 3)
    length = ends - starts
    mantissa = np.minimum(_find(words | np.uint64(0x20 * _BYTES), ord("e")),
                          length)
    dot = _find(words, ord("."))
    has_dot = dot < mantissa
    count = mantissa - has_dot
    q = has_dot * (dot + 1 - mantissa)
    # the exponent: an optional sign, then 1 to 7 digits
    at = starts + mantissa + 1
    x = _read(data, at, 1)[0]
    sign = x & np.uint64(0xFF)
    signed = (sign == ord("-")) | (sign == ord("+"))
    exp_digits = ends - at - signed
    value, bad = _digits(x >> (8 * signed).astype(np.uint64),
                         np.minimum(np.maximum(exp_digits, 0), 7))
    value = value.astype(np.int64)
    has_exp = mantissa < length
    q += has_exp * np.where(sign == ord("-"), -value, value)
    valid = ((count >= 1) & (q >= _Q_MIN) & (q <= _Q_MAX)
             & (~has_exp | ((bad == 0) & (exp_digits >= 1)
                            & (exp_digits <= 7))))
    # digits after the point are read one byte further on
    dot = np.where(has_dot, dot, 24) - _WORD_AT
    keep = _LOW_BYTES[np.minimum(np.maximum(dot, 0), 8)]
    words = (words & keep) | (_read(data, starts + 1, 3) & ~keep)
    return words, count, q, valid


def _round(w, k):
    """w * 10**q rounded to the nearest double, q = _Q_MIN + k, and whether
    that rounding is certified.

    w (< 2**60) is split exactly into wh + wl, and wh * hi into p + err by
    Dekker's product. The computed residual of r = p + tail differs from
    the exact one by about 10 * 2**-106 * r at most, well inside the bound
    2**-95 * r. r is certified when the residual is farther than that bound
    from half the gap to the neighbouring double, and is then the nearest
    double, as float() returns. The gap is taken below r: just below a
    power of two it is half the gap above, so it is the narrower one on
    either side.
    """
    hi, lo, high, low = (t[k] for t in _POW10)
    wh = w.astype(np.float64)
    wl = (w - wh.astype(np.uint64)).view(np.int64).astype(np.float64)
    c = wh * _SPLIT
    wh_high = c - (c - wh)
    wh_low = wh - wh_high
    p = wh * hi
    err = (((wh_high * high - p) + wh_high * low) + wh_low * high) \
        + wh_low * low
    tail = err + (wh * lo + wl * hi)
    r = p + tail
    residual = (p - r) + tail
    # the gap below r, never wider than the one above
    below = np.maximum(r.view(np.int64) - 1, 0).view(np.float64)
    certified = np.abs(residual) < (r - below) * 0.5 - r * 2.0 ** -95
    return r, certified | (w == 0)


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
    match = _BETA_RE.match(distribution)
    if distribution != "uniform" and not match:
        raise DataError(f"unknown distribution {distribution!r}")
    try:
        if distribution == "uniform":
            scores = rng.random((m, n))
        else:
            scores = rng.beta(float(match.group(1)), float(match.group(2)),
                              size=(m, n))
    except MemoryError:
        raise DataError(f"cannot allocate a {m}x{n} matrix") from None
    width = max(len(str(m)), len(str(n)))
    consumer_ids = tuple(f"c{i:0{width}d}" for i in range(1, m + 1))
    item_ids = tuple(f"i{j:0{width}d}" for j in range(1, n + 1))
    return RelevanceMatrix(consumer_ids, item_ids, scores)
