"""Relevance matrices and item group maps: loading, validation, synthesis.

Canonical on-disk formats:

* relevance CSV: header ``consumer_id,<item_1>,...,<item_n>``, one row per
  consumer with its id followed by n scores.
* group CSV: header ``item_id,group_id``, one row per item.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import mmap
import os
import pickle
import re
import signal
import warnings
from dataclasses import dataclass
from functools import partial
from stat import S_ISREG

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
        for kind, ids in (("consumer", self.consumer_ids),
                          ("item", self.item_ids)):
            if len(set(ids)) != len(ids):
                seen = set()
                repeat = next(d for d in ids if d in seen or seen.add(d))
                raise DataError(f"duplicate {kind} ids: {repeat!r}")
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
        """Per-item relevance averaged uniformly over consumers: computed on
        the first call and kept, read-only, for every later one."""
        avg = self.__dict__.get("_avg")
        if avg is None:
            avg = self.__dict__["_avg"] = self.scores.mean(axis=0)
            avg.flags.writeable = False
        return avg

    def preferences(self, depth):
        """(m, depth) item indices of each row, best first, ties by
        ascending item id (`_preferences`). The deepest sort made is kept,
        read-only: a shallower call is a slice of it, and a deeper one
        sorts again and replaces it."""
        pref = self.__dict__.get("_pref")
        if pref is None or pref.shape[1] < depth:
            pref = self.__dict__["_pref"] = _preferences(
                self.scores, _id_ranks(self.item_ids), depth)
            pref.flags.writeable = False
        return pref[:, :depth]

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
        """Array mapping each matrix item position to its group position.
        A DataError names the first matrix item that has no group."""
        at = _positions(items.item_ids, tuple(self.assignment))
        if at.min() < 0:
            item = items.item_ids[np.argmax(at < 0)]
            raise DataError(f"unknown item {item!r}: it has no group")
        return _positions(tuple(self.assignment.values()), self.group_ids)[at]


def _positions(ids, target):
    """Position of each of `ids` in `target`, or -1 where `target` lacks it."""
    if ids == target:
        return np.arange(len(ids))
    pos = {d: i for i, d in enumerate(target)}
    return np.array([pos.get(d, -1) for d in ids], dtype=int)


# Scores sorted at once by `_preferences`. From 1 << 14 up its speed is
# flat; at 1 << 18 one block held all of alloc-ind's 2000x100 and the
# benchmark's peak RSS rose by 2 MB.
_SORT_BLOCK = 1 << 15


def _id_ranks(ids):
    """rank[i] = position of ids[i] in ascending lexicographic order."""
    order = np.argsort(np.array(ids, dtype=object), kind="stable")
    ranks = np.empty(len(ids), dtype=int)
    ranks[order] = np.arange(len(ids))
    return ranks


def _partitions(n, depth):
    """Whether a row of n entries, of which only the first `depth` in
    sorted order are read, is cut to its leading entries by a partition
    before they are sorted: when n >= 256 and n >= 4 * depth. Below that
    a full sort of the row is faster: forced on 40000 x 20, a partition
    made `top_k` take 21 ms against 13-15 ms. `_preferences` and the
    baselines' `_top_k` follow this rule."""
    return n >= max(256, 4 * depth)


def _preferences(scores, id_rank, depth):
    """(m, depth) item indices per row by descending score, ties by
    ascending item id: the first `depth` columns of each row's
    `np.lexsort((id_rank, -scores))`.

    Distinct scores have one descending order, so an unstable argsort finds
    it. Where `_partitions(n, depth)` holds, only the depth + 1 largest
    scores of a row, found by `np.argpartition`, are sorted. A row is
    sorted again only where two of its first depth + 1 sorted scores are
    equal (0.0 and -0.0 included): with no such tie, its first depth items
    each score strictly above every item after them, partitioned out or
    not. The repair is a stable sort of the whole row's scores laid out in
    item-id order, so equal scores keep ascending ids. Once most rows of a
    block tie, as rated or rounded relevance does, the unstable pass is
    wasted work and every later block goes to the stable sort outright.
    Rows go a block of `_SORT_BLOCK` scores at a time, so no temporary
    grows to (m, n).
    """
    m, n = scores.shape
    by_id = np.argsort(id_rank)

    def stable(rows):
        return by_id[np.argsort(-rows[:, by_id], axis=1,
                                kind="stable")[:, :depth]]

    out = np.empty((m, depth), dtype=np.intp)
    step = max(1, _SORT_BLOCK // n)
    wide = _partitions(n, depth)
    mostly_tied = False
    for lo in range(0, m, step):
        block = scores[lo:lo + step]
        if mostly_tied:
            out[lo:lo + step] = stable(block)
            continue
        neg = -block
        if wide:
            cand = np.argpartition(neg, depth, axis=1)[:, :depth + 1]
            order = np.take_along_axis(cand, np.argsort(
                np.take_along_axis(neg, cand, axis=1), axis=1), axis=1)
        else:
            order = np.argsort(neg, axis=1)[:, :depth + 1]
        lead = np.take_along_axis(block, order, axis=1)
        out[lo:lo + step] = order[:, :depth]
        tied = np.flatnonzero((lead[:, 1:] == lead[:, :-1]).any(axis=1))
        if tied.size:
            out[lo + tied] = stable(block[tied])
        mostly_tied = 2 * tied.size > len(block)
    return out


# Score fields per chunk of lines read at once. Chunks of 2**15 fields read
# up to 1.5 MB more peak RSS than 2**14 on seeds of the benchmark's
# 1000 x 100 input.
_CHUNK_FIELDS = 2 ** 14
# Score fields per sub-block of the decimal kernel, whose temporaries hold
# one or three 8-byte words a field: at most 96 KiB, below glibc's initial
# 128 KiB mmap threshold, so they come from the heap and not from fresh
# pages that fault on every load. Warm loads of the benchmark's seed-5
# inputs with 1 MiB parts on a 2-vCPU VM, median ms and minor faults of the
# loading process a load (40 loads in each of 3 processes):
#
#   fields a block                      2**13             2**12
#   alloc-group-sweep, 2.0 MB, 1 part   13.6 ms  4,530    10.2 ms    490
#   alloc-ind, 3.9 MB, 2 parts          17.0 ms  6,390    14.7 ms  3,900
#   load-wide, 9.8 MB, 2 parts          35.7 ms 12,510    25.9 ms  1,680
#   slates-tall, 15.9 MB, 2 parts       44.9 ms  3,010    46.8 ms  3,000
_BLOCK_FIELDS = 2 ** 12
# Fields of a chunk that the kernel's first pass leaves go to its second
# pass from this many on, and straight to float() below. Fastest of 7 x 200
# calls on e-notation fields on a 2-vCPU VM, in us:
#
#   fields                          16     64    256    512    768
#   _decimals(..., general=True)   125    160    182    204    247
#   _float_fields                    7     29    115    206    305
#
# float() stays cheaper up to about 500 fields, but benchmark-shaped beta
# scores leave about 300 e-notation fields a chunk, and the kernel is to
# convert all but 1% of those (tests/test_data.py).
_FEW_FIELDS = 256
# Bytes that send a file to the csv parser: the quote, and NUL (a csv
# error before Python 3.11).
_CSV_PARSER_ONLY = (b'"', b"\x00")
# Ends each chunk, so that every read of the kernel stays inside it:
# spaces are neither separators nor digits.
_PAD = b" " * 32
# Data bytes a part must hold for a file to be cut into parts. Warm loads
# of 100-column inputs in one part and in two on a 2-vCPU VM, from a
# process that holds 150 MB, median ms of 41 alternating loads:
#
#   data MB      0.61   0.81   1.09   1.31   1.56   2.02
#   one part     4.18   5.02   6.26   6.74   7.70   9.98
#   two parts    4.78   5.63   6.02   6.38   7.21   8.86
#
# In five such runs, from processes holding 0, 50 or 150 MB, two parts won
# 37 to 41 of 41 loads at 1.56 MB and above, 9 to 37 at 1.09 MB, and 0 to
# 9 at 0.81 MB in all runs but one (36). So a file is cut from two parts
# of 768 KiB (1.57 MB) on.
_MIN_PART_BYTES = 3 * 2 ** 18
# Bytes read at a time when counting the lines of a part: numpy counts the
# newlines of 8 MB read this way in about 2 ms, bytes.count in about 7.
_COUNT_BYTES = 2 ** 18


def load_relevance(path) -> RelevanceMatrix:
    """Read a relevance CSV, validating shape, ids and score values.

    The ids and score bits, or the error, are those of `csv.reader` with
    one float() per cell, however many processes parse the file. A pipe or
    other input that is not a regular file is read whole first, as it can
    be read only once. The fast path reads a file up to the size it had
    when the load sized it, and wherever it cannot vouch for the bytes it
    raises _Inexact, caught here alone: the csv parser then reads the same
    open file from its start.
    """
    with open(path, "rb") as fh:
        if not S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh = io.BytesIO(fh.read())
        try:
            parsed = _parse_relevance_numpy(path, fh)
        except _Inexact:
            fh.seek(0)
            parsed = _parse_relevance_csv(path, fh)
    try:
        return RelevanceMatrix(*parsed)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


class _Inexact(Exception):
    """Raised where the fast path cannot vouch for the bytes it reads."""


def _parse_relevance_numpy(path, fh):
    """(consumer_ids, item_ids, scores) of the relevance CSV `fh`, opened
    in binary at `path` or read into an io.BytesIO. Raises _Inexact where
    the result could differ from `_parse_relevance_csv`'s, which includes
    every file that parser rejects.
    """
    header = fh.readline()
    start = len(header)
    header = header.removesuffix(b"\n").removesuffix(b"\r")
    if not _plain(header) or b"\r" in header:
        raise _Inexact
    try:
        fields = header.decode().split(",")
    except UnicodeDecodeError:
        raise _Inexact from None
    if (len(fields) < 2 or fields[0] != "consumer_id"
            or max(map(len, fields)) > csv.field_size_limit()):
        raise _Inexact
    n = len(fields) - 1
    if isinstance(fh, io.BytesIO):  # a pipe's bytes, read whole
        cuts = [start, len(fh.getbuffer())]
    else:
        cuts = _cuts(fh, start, os.fstat(fh.fileno()).st_size)
    consumer_ids, scores = _parse_parts(path, fh, cuts, n)
    if not consumer_ids:
        raise _Inexact
    return tuple(consumer_ids), tuple(fields[1:]), scores[:len(consumer_ids)]


def _usable_cpus():
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _cuts(fh, start, end):
    """The first bytes of the parts that the data bytes [start, end) of the
    file `fh` are cut into, each the start of a line, then `end`. The file
    is left where it stood."""
    parts = min(_usable_cpus(), (end - start) // _MIN_PART_BYTES)
    if parts < 2:
        return [start, end]
    stood = fh.tell()
    cuts = [start]
    for i in range(1, parts):
        fh.seek(start + i * (end - start) // parts - 1)
        fh.readline()
        if cuts[-1] < fh.tell() < end:  # a long line may span a cut
            cuts.append(fh.tell())
    fh.seek(stood)
    return cuts + [end]


def _parse_range(fh, start, end, row, scores):
    """(consumer_ids, scores) once the lines in bytes [start, end) of the
    file `fh`, each a consumer id and n numbers, are written from row `row`
    on of the (_, n) matrix `scores` or of a grown copy of it. Raises
    _Inexact when the csv parser could read them otherwise.

    Each chunk is a line, the next bytes of about _CHUNK_FIELDS fields of
    lines like the first, and the rest of the line they end in, and
    `_parse_rows` reads it.
    """
    fh.seek(start)
    line = fh.readline(end - start)
    left = end - start - len(line)
    size = len(line) * max(1, _CHUNK_FIELDS // scores.shape[1])
    consumer_ids = []
    while line:
        # no part of a chunk outlives the join, and the chunk lives until
        # the next is joined: holding the parts instead faulted about 500
        # more pages a load of a 2 MB file
        chunk = b"".join([line, fh.read(min(size, left)),
                          fh.readline() if size < left else b"", _PAD])
        left -= len(chunk) - len(line) - len(_PAD)
        ids, scores = _parse_rows(chunk, scores, row + len(consumer_ids))
        consumer_ids += ids
        line = fh.readline() if left > 0 else b""
        left -= len(line)
    return consumer_ids, scores


def _count_lines(fh, start, end):
    """The newlines in bytes [start, end) of the file `fh`."""
    fh.seek(start)
    return sum(np.count_nonzero(np.frombuffer(
        fh.read(min(_COUNT_BYTES, end - at)), dtype=np.uint8) == ord("\n"))
        for at in range(start, end, _COUNT_BYTES))


def _parse_parts(path, fh, cuts, n):
    """(consumer_ids, scores) of the lines of the relevance CSV `fh`,
    opened in binary at `path` or read into an io.BytesIO, each a consumer
    id and n numbers, cut into parts [cuts[i], cuts[i + 1]), or raises
    _Inexact. The scores are the matrix the first part was read into,
    grown or not.

    The parts are the calls of one `_forked`, a process each. One part is
    read into a private matrix with room for as many rows as lines like
    the first would fill, as a line of n numbers is at least 2n + 1 bytes;
    pages of rows never written are never touched. With more parts,
    the row each starts at is fixed first from the newlines of the parts
    before it, and one anonymous shared mapping holds every row, with room
    for the last part by the same bound: about 3.2 MB a part of the
    benchmark's 40000 x 20 input, shared rather than sent. The first part
    is read from `fh`, each later one by `_parse_child`.
    """
    rows = [0]
    for start, end in zip(cuts[:-2], cuts[1:-1]):
        rows.append(rows[-1] + _count_lines(fh, start, end))
    children = []
    if len(rows) > 1:
        room = rows[-1] + (cuts[-1] - cuts[-2]) // (2 * n + 1) + 1
        scores = np.frombuffer(mmap.mmap(-1, room * n * 8)).reshape(room, n)
        stat = os.fstat(fh.fileno())
        children = [partial(_parse_child, path, stat, cuts[i], cuts[i + 1],
                            rows[i], scores)
                    for i in range(1, len(rows))]
    else:
        fh.seek(cuts[0])
        scores = np.empty((cuts[1] // max(len(fh.readline()), 2 * n + 1)
                           + 1, n))
    own = partial(_parse_range, fh, cuts[0], cuts[1], 0, scores)
    with _forked([own, *children], len(rows)) as (parsed, *sent):
        ids = [parsed[0], *(part.split("\n") for part in sent)]
        if [len(part) for part in ids[:-1]] != np.diff(rows).tolist():
            raise _Inexact
        return list(itertools.chain(*ids)), parsed[1]


@contextlib.contextmanager
def _forked(calls, procs):
    """A context of `[call() for call in calls]`, or the first error that
    comprehension raises, with the calls dealt round-robin to P =
    min(procs, len(calls)) processes: process j makes calls j, j + P, ...

    This process makes deal 0 and a forked child each other deal, in order
    up to the first raise; a child pickles the values it got onto a pipe
    of its own and leaves by os._exit. Walking the calls in order, a value
    that came back is used and a call that raised here raises; any other
    call, that of a child that was not forked, died, raised or got a value
    that cannot be pickled, is made here, once; with P = 1, every call.
    Leaving with an error kills the children; otherwise the values are
    used while they exit. Every child is reaped when the context ends.
    """
    procs = max(1, min(procs, len(calls)))
    deals = [range(j, len(calls), procs) for j in range(procs)]
    pids, pipes, got = [], [], {}
    try:
        try:
            for deal in deals[1:]:
                try:
                    read, write = os.pipe()
                    pipes.append(open(read, "rb"))
                    with open(write, "wb") as send:
                        pids.append(_fork())
                        if pids[-1] == 0:  # the child: it leaves by os._exit
                            try:
                                with contextlib.suppress(Exception):
                                    for i in deal:
                                        got[i] = calls[i]()
                                send.write(pickle.dumps(list(got.values())))
                                send.close()
                                os._exit(0)
                            finally:
                                os._exit(1)
                except OSError:  # no pipe or no fork: no more children
                    break
            try:
                for i in deals[0]:
                    got[i] = calls[i]()
            except Exception as exc:
                raised = exc
            values = []
            for i, call in enumerate(calls):
                if 0 < i <= len(pipes):  # deal i, which starts at call i
                    with contextlib.suppress(EOFError, pickle.UnpicklingError):
                        got.update(zip(deals[i],
                                       pickle.loads(pipes[i - 1].read())))
                if i not in got and i in deals[0]:  # the call raised here
                    raise raised
                values.append(got[i] if i in got else call())
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        yield values
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _fork():
    """os.fork(), without the DeprecationWarning of Python 3.12 and later
    that a child forked from a process with threads, such as numpy's BLAS
    pool, may deadlock. A child that evaluates calls BLAS, in the `@` of
    `metrics.ndcg`. That is safe with the pthreads OpenBLAS that numpy's
    wheels ship: its `openblas_fork_handler` registers
    `blas_thread_shutdown_` with pthread_atfork, which stops the pool
    before each fork, so no BLAS thread holds a lock the child needs, and a
    pool starts again at the next product. (An OpenBLAS built on libgomp's
    OpenMP can still hang after a fork.) `tests/test_harness.py` runs a
    forked sweep and a forked run after a BLAS product in a subprocess with
    a timeout, so a hang fails the test rather than blocking it."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded",
            DeprecationWarning)
        return os.fork()


def _parse_child(path, stat, start, end, row, scores):
    """A later part of `_parse_parts`: `_parse_range` of bytes [start, end)
    of the file at `path` into `scores`, and its consumer ids joined by
    newlines, which no id holds: one string pickles faster than a list of
    them. Raises _Inexact also when the path no longer names the file
    `stat` describes."""
    with open(path, "rb") as fh:
        if not os.path.samestat(os.fstat(fh.fileno()), stat):
            raise _Inexact
        return "\n".join(_parse_range(fh, start, end, row, scores)[0])


def _plain(data):
    """True when csv.reader splits the bytes `data` at each comma and
    newline."""
    return not any(c in data for c in _CSV_PARSER_ONLY)


def _parse_rows(data, scores, m):
    """(consumer_ids, scores) once the whole lines that start the bytes
    `data`, each a consumer id and n numbers, then _PAD, are written from
    row m on of the (_, n) matrix `scores` or of a grown copy of it.
    Raises _Inexact when the csv parser could read the lines otherwise.

    The lines are split at commas and newlines in one pass over their
    bytes. `_decimals` converts the scores, and every field it does not
    certify goes to float(), the csv parser's own conversion, so the scores
    are bit-equal.
    """
    if b"\r" in data:  # csv ends a row at "\r\n", "\n" or a lone "\r"
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            raise _Inexact
    if not _plain(data):
        raise _Inexact
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            raise _Inexact from None
    if not data.endswith(b"\n" + _PAD):  # the file's last line
        data = data.removesuffix(_PAD) + b"\n" + _PAD
    n = scores.shape[1]
    buf = np.frombuffer(data, dtype=np.uint8)
    sep = buf == ord(",")
    sep |= buf == ord("\n")
    sep = np.flatnonzero(sep)
    newline = buf[sep] == ord("\n")
    rows = np.count_nonzero(newline)
    if sep.size != rows * (n + 1) or not newline[n::n + 1].all():
        raise _Inexact
    # a field's bytes are never fewer than the csv parser's characters
    line_starts = np.r_[0, sep[n:-1:n + 1] + 1]
    limit = csv.field_size_limit()
    if ((sep[n::n + 1] - line_starts).max() > limit
            and np.diff(sep, prepend=-1).max() > limit + 1):
        raise _Inexact
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
        out[rest] = _float_fields(data, starts[rest], ends[rest])
    return consumer_ids, scores


def _ids(buf, starts, ends):
    """The UTF-8 strings buf[starts[i]:ends[i]], none holding a comma."""
    length = ends - starts + 1  # each with the comma after it
    at = np.arange(length.sum()) + np.repeat(starts - np.cumsum(length)
                                             + length, length)
    return buf[at].tobytes().decode().split(",")[:-1]


def _float_fields(data, starts, ends):
    """float() of each field, as the csv parser converts it. Raises
    _Inexact when one is not a number."""
    try:
        return [float(data[a:b].decode())
                for a, b in zip(starts.tolist(), ends.tolist())]
    except ValueError:
        raise _Inexact from None


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


def _read_csv(path, fh):
    """Every row of the CSV file `fh`, opened in binary at `path`; csv and
    decoding errors name the file. The bytes are read whole, so that they
    are decoded in a fresh file's chunks, whatever `fh` holds buffered,
    and a decoding error names the same position."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(fh.read()),
                                         encoding="utf-8", newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_relevance_csv(path, fh):
    """The exact parse of the relevance CSV `fh`, opened in binary at
    `path` or read into an io.BytesIO: csv rows and one float() per
    cell."""
    rows = _read_csv(path, fh)
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
    with open(path, "rb") as fh:
        rows = _read_csv(path, fh)
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
