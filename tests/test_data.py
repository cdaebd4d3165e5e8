import contextlib
import csv
import decimal
import errno
import io
import os
import re
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data
from verfair import (DataError, ExposureModel, GroupMap, RelevanceMatrix,
                     compute_quotas, identity_groups, load_groups,
                     load_relevance, save_groups, save_relevance,
                     synth_relevance, total_exposure)
from verfair import data as data_module
from verfair.cli import main
from verfair.data import _parse_relevance_numpy


def parse_file(path, parser=_parse_relevance_numpy):
    """`parser`, one of the loader's two parsers, of the file at `path`,
    opened as `load_relevance` opens a regular file; None where the fast
    parser declines the file (raises `_Inexact`)."""
    with open(path, "rb") as fh:
        try:
            return parser(path, fh)
        except data_module._Inexact:
            return None


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadRelevance:
    def test_three_by_three(self, tmp_path):
        p = write(tmp_path / "rel.csv",
                  "consumer_id,A,B,C\n"
                  "c1,0.90,0.70,0.60\n"
                  "c2,0.55,0.70,0.90\n"
                  "c3,0.65,0.70,0.60\n")
        rel = load_relevance(p)
        assert rel.consumer_ids == ("c1", "c2", "c3")
        assert rel.item_ids == ("A", "B", "C")
        np.testing.assert_allclose(rel.avg_relevance(), [0.70, 0.70, 0.70])

    def test_one_by_one_zero_score(self, tmp_path):
        p = write(tmp_path / "rel.csv", "consumer_id,A\nc1,0\n")
        rel = load_relevance(p)
        assert rel.m == 1 and rel.n == 1
        assert rel.scores[0, 0] == 0.0

    def test_negative_score_names_cell(self, tmp_path):
        p = write(tmp_path / "rel.csv",
                  "consumer_id,A,B\nc1,0.5,0.5\nc2,0.5,-0.1\n")
        with pytest.raises(DataError, match="'c2'.*'B'"):
            load_relevance(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = write(tmp_path / "rel.csv", "consumer_id,A,B\nc1,0.5\n")
        with pytest.raises(DataError, match="line 2"):
            load_relevance(p)

    def test_unparseable_cell(self, tmp_path):
        p = write(tmp_path / "rel.csv", "consumer_id,A\nc1,abc\n")
        with pytest.raises(DataError, match="line 2"):
            load_relevance(p)

    def test_duplicate_consumer_id(self, tmp_path):
        p = write(tmp_path / "rel.csv", "consumer_id,A\nc1,0.5\nc1,0.6\n")
        with pytest.raises(DataError, match="duplicate"):
            load_relevance(p)

    def test_oversize_field_names_file_and_line(self, tmp_path):
        p = write(tmp_path / "rel.csv",
                  "consumer_id,A\nc1,0.5\nc2," + "1" * 200_000 + "\n")
        with pytest.raises(DataError) as info:
            load_relevance(p)
        assert str(info.value) == (
            f"{p}: line 3: field larger than field limit (131072)")

    def test_non_utf8_names_file(self, tmp_path):
        p = tmp_path / "rel.csv"
        p.write_bytes(b"consumer_id,A\nc1,0.5\xff\n")
        with pytest.raises(DataError, match=f"^{p}: 'utf-8' codec"):
            load_relevance(p)


class TestLoadGroups:
    def test_five_groups(self, tmp_path):
        rel = synth_relevance(3, 100, seed=1)
        lines = ["item_id,group_id"]
        for i, d in enumerate(rel.item_ids):
            lines.append(f"{d},g{i % 5}")
        p = write(tmp_path / "groups.csv", "\n".join(lines) + "\n")
        groups = load_groups(p, rel)
        assert len(groups.group_ids) == 5
        assert set(groups.assignment) == set(rel.item_ids)

    def test_identity_like(self, tmp_path, three_equal):
        p = write(tmp_path / "groups.csv",
                  "item_id,group_id\nA,A\nB,B\nC,C\n")
        groups = load_groups(p, three_equal)
        assert groups.assignment == identity_groups(three_equal).assignment

    def test_missing_item(self, tmp_path, three_equal):
        p = write(tmp_path / "groups.csv", "item_id,group_id\nA,g\nB,g\n")
        with pytest.raises(DataError, match="'C'"):
            load_groups(p, three_equal)

    def test_unknown_item(self, tmp_path, three_equal):
        p = write(tmp_path / "groups.csv",
                  "item_id,group_id\nA,g\nB,g\nC,g\nD,g\n")
        with pytest.raises(DataError, match="'D'"):
            load_groups(p, three_equal)

    def test_duplicate_item_row(self, tmp_path, three_equal):
        p = write(tmp_path / "groups.csv",
                  "item_id,group_id\nA,g\nA,g\nB,g\nC,g\n")
        with pytest.raises(DataError, match="duplicate"):
            load_groups(p, three_equal)

    @pytest.mark.parametrize("body, message", [
        ("item,group\nA,g\n", "expected header 'item_id,group_id'"),
        ("", "expected header 'item_id,group_id'"),
        ("item_id,group_id\nA,g\nB,g,x\n", "line 3: expected 2 fields"),
    ])
    def test_malformed_file_exits_2_naming_the_problem(self, body, message,
                                                       tmp_path, capsys):
        rel = write(tmp_path / "rel.csv", "consumer_id,A,B\nc1,0.5,1\n")
        p = write(tmp_path / "groups.csv", body)
        code = main(["run", "--relevance", rel, "--groups", p,
                     "--method", "verfair-group", "--k", "1",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    def test_group_ids_in_order_of_first_appearance(self, tmp_path,
                                                    three_equal):
        p = write(tmp_path / "groups.csv",
                  "item_id,group_id\nA,g2\nB,g1\nC,g2\n")
        assert load_groups(p, three_equal).group_ids == ("g2", "g1")
        rel = synth_relevance(2, 5000, seed=1)
        order = np.random.default_rng(1).permutation(5000)
        lines = ["item_id,group_id"]
        lines += [f"{rel.item_ids[j]},{rel.item_ids[j]}" for j in order]
        p = write(tmp_path / "identity.csv", "\n".join(lines) + "\n")
        assert load_groups(p, rel).group_ids == \
            tuple(rel.item_ids[j] for j in order)

    def test_oversize_field_names_file_and_line(self, tmp_path, three_equal):
        p = write(tmp_path / "groups.csv",
                  "item_id,group_id\nA,g\nB," + "g" * 200_000 + "\n")
        with pytest.raises(DataError) as info:
            load_groups(p, three_equal)
        assert str(info.value) == (
            f"{p}: line 3: field larger than field limit (131072)")

    def test_non_utf8_names_file(self, tmp_path, three_equal):
        p = tmp_path / "groups.csv"
        p.write_bytes(b"item_id,group_id\nA,\xffg\n")
        with pytest.raises(DataError, match=f"^{p}: 'utf-8' codec"):
            load_groups(p, three_equal)


class TestIdentityGroups:
    def test_three_items(self, three_equal):
        g = identity_groups(three_equal)
        assert g.group_ids == ("A", "B", "C")
        assert all(g.assignment[d] == d for d in three_equal.item_ids)

    def test_single_item(self):
        rel = synth_relevance(1, 1, seed=0)
        g = identity_groups(rel)
        assert len(g.group_ids) == 1

    def test_group_quota_equals_item_quota(self):
        # identity groups make group-level and item-level fair shares the
        # same formula; check numerically over an alpha grid
        rel = synth_relevance(7, 12, seed=3)
        model = ExposureModel.pbm(1.0, 4)
        ident = identity_groups(rel)
        for alpha in np.linspace(0.0, 1.0, 9):
            q = compute_quotas(rel, ident, model, alpha)
            avg = rel.avg_relevance()
            expected = avg * alpha * total_exposure(model, rel.m) / avg.sum()
            np.testing.assert_allclose(q, expected, rtol=1e-12)


class TestSynthRelevance:
    def test_deterministic(self):
        a = synth_relevance(3, 3, "uniform", seed=7)
        b = synth_relevance(3, 3, "uniform", seed=7)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.consumer_ids == b.consumer_ids

    def test_large_scale(self):
        rel = synth_relevance(10000, 100, "uniform", seed=1)
        assert rel.m == 10000 and rel.n == 100
        assert rel.scores.min() >= 0 and rel.scores.max() <= 1

    def test_one_by_one(self):
        rel = synth_relevance(1, 1, "uniform", seed=0)
        assert 0 <= rel.scores[0, 0] <= 1

    def test_beta(self):
        rel = synth_relevance(5, 5, "beta(2,5)", seed=0)
        assert rel.scores.min() >= 0 and rel.scores.max() <= 1

    def test_bad_distribution(self):
        with pytest.raises(DataError):
            synth_relevance(2, 2, "gaussian", seed=0)

    @pytest.mark.parametrize("m, n", [(0, 3), (3, 0)])
    def test_empty_shape_exits_2(self, m, n, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        code = main(["gen", "--m", str(m), "--n", str(n), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: m and n must be >= 1\n"
        assert not out.exists()


def lexsort_head(rel, depth):
    """The first `depth` columns of each row's
    `np.lexsort((id_rank, -scores))`, id_rank from `sorted`."""
    rank = {d: i for i, d in enumerate(sorted(rel.item_ids))}
    id_rank = np.array([rank[d] for d in rel.item_ids])
    return np.lexsort((np.broadcast_to(id_rank, rel.scores.shape),
                       -rel.scores), axis=1)[:, :depth]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), n=st.sampled_from([1, 2, 5, 12, 255, 256, 300]),
       levels=st.sampled_from([0, 2, 5]), signed_zeros=st.booleans(),
       seed=st.integers(0, 10_000))
def test_preferences_are_the_lexsort_head_at_every_depth(m, n, levels,
                                                         signed_zeros, seed):
    # tied rows (scores on 2 or 5 levels), rows of 256 items or more (which
    # partition before they sort) and rows holding -0.0, which ties with
    # 0.0 on the item id; ids not in sorted order
    rng = np.random.default_rng(seed)
    scores = rng.random((m, n))
    if levels:
        scores = np.ceil(scores * levels) / levels
    if signed_zeros:
        zero = rng.random((m, n)) < 0.4
        scores[zero] = rng.choice([0.0, -0.0], size=zero.sum())
    consumers = tuple(f"c{i}" for i in range(m))
    items = tuple(f"i{j:03d}" for j in rng.permutation(n))
    want = lexsort_head(RelevanceMatrix(consumers, items, scores), n)
    for depth in range(1, n + 1):
        rel = RelevanceMatrix(consumers, items, scores)
        assert rel.preferences(depth).tolist() == want[:, :depth].tolist()


class TestPreferences:
    @staticmethod
    def sorts(monkeypatch):
        """The depth of each sort `data._preferences` makes from now on."""
        depths = []

        def counting(scores, id_rank, depth):
            depths.append(depth)
            return real(scores, id_rank, depth)

        real = data_module._preferences
        monkeypatch.setattr(data_module, "_preferences", counting)
        return depths

    def test_a_shallower_call_does_not_sort(self, monkeypatch):
        rel = synth_relevance(7, 12, seed=3)
        sorts = self.sorts(monkeypatch)
        deep = rel.preferences(9)
        for depth in (9, 4, 1):
            assert rel.preferences(depth).tolist() == deep[:, :depth].tolist()
        assert sorts == [9]

    def test_a_deeper_call_sorts_once_and_is_kept(self, monkeypatch):
        rel = synth_relevance(7, 12, seed=3)
        sorts = self.sorts(monkeypatch)
        for depth in (3, 8, 8, 5, 3):
            assert rel.preferences(depth).tolist() == \
                lexsort_head(rel, depth).tolist()
        assert sorts == [3, 8]

    @pytest.mark.parametrize("depths", [(6,), (6, 2), (2, 6)])
    def test_read_only(self, depths):
        rel = synth_relevance(4, 6, seed=1)
        for depth in depths:
            pref = rel.preferences(depth)
            assert not pref.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                pref[0, 0] = 1


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            RelevanceMatrix(("c1",), ("A", "B"), np.array([[1.0, np.nan]]))

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(DataError):
            RelevanceMatrix(("c1",), ("A", "A"), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("shape", [(2,), (1, 2, 2)])
    def test_non_matrix_scores_name_their_shape(self, shape):
        with pytest.raises(DataError, match=rf"2-D.*{re.escape(str(shape))}"):
            RelevanceMatrix(("c1",), ("A", "B"), np.ones(shape))

    @pytest.mark.parametrize("consumers, items", [((), ("A",)),
                                                  (("c1",), ())])
    def test_empty_matrix_rejected(self, consumers, items):
        with pytest.raises(DataError, match="^relevance matrix must be at "
                                            "least 1x1$"):
            RelevanceMatrix(consumers, items,
                            np.zeros((len(consumers), len(items))))

    @pytest.mark.parametrize("consumers, items", [(("c1", "c2"), ("A", "B")),
                                                  (("c1",), ("A",))])
    def test_ids_that_miss_the_shape_rejected(self, consumers, items):
        with pytest.raises(DataError, match="^id lists do not match matrix "
                                            "shape$"):
            RelevanceMatrix(consumers, items, np.ones((1, 2)))

    def test_group_ids_that_miss_the_assignment_rejected(self):
        with pytest.raises(DataError, match="^group_ids does not match "
                                            "assignment values$"):
            GroupMap({"A": "g1", "B": "g2"}, ("g1", "g3"))

    def test_duplicate_group_ids_rejected(self):
        with pytest.raises(DataError, match="^duplicate group ids$"):
            GroupMap({"A": "g1", "B": "g1"}, ("g1", "g1"))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_round_trip_bit_exact(tmp_path_factory, m, n, seed):
    rel = synth_relevance(m, n, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "rel.csv"
    save_relevance(rel, path)
    back = load_relevance(path)
    assert back.consumer_ids == rel.consumer_ids
    assert back.item_ids == rel.item_ids
    np.testing.assert_array_equal(back.scores, rel.scores)


def test_groups_round_trip(tmp_path, three_equal):
    groups = GroupMap({"A": "g1", "B": "g1", "C": "g2"}, ("g1", "g2"))
    path = tmp_path / "groups.csv"
    save_groups(groups, path)
    back = load_groups(path, three_equal)
    assert back.assignment == groups.assignment


# The numpy loader against the frozen csv/float() loader in
# reference_data.py: equal ids and bit-equal scores, or a DataError with
# the identical message.

def outcome(loader, path):
    """('ok', ids, items, score bits) or ('error', message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray loadtxt warning fails
            rel = loader(path)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", rel.consumer_ids, rel.item_ids,
            rel.scores.view(np.int64).tolist())


def assert_same_as_reference(path):
    got = outcome(load_relevance, path)
    try:
        want = outcome(reference_data.load_relevance, path)
    except UnicodeDecodeError as exc:  # unwrapped in the frozen loader
        want = ("error", f"{path}: {exc}")
    except csv.Error as exc:
        assert got[0] == "error"
        assert got[1].startswith(f"{path}: line ")
        assert got[1].endswith(f": {exc}")
        return got
    if want[0] == "error" and not want[1].startswith(f"{path}: "):
        # a RelevanceMatrix validation error, which the loader prefixes
        # with the file and the frozen loader does not
        want = ("error", f"{path}: {want[1]}")
    assert got == want
    return got


def csv_text(rows, terminator):
    """Rows joined by csv.writer, which quotes ids that need it."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=terminator).writerows(rows)
    return buf.getvalue()


def near_halfway(x, digits, step, positional):
    """The exact midpoint of the double x and the next one up, printed to
    `digits` significant digits with `step` added to the last one, in
    e-notation or positional."""
    with decimal.localcontext(decimal.Context(prec=800)):
        mid = (decimal.Decimal(x)
               + decimal.Decimal(np.nextafter(x, np.inf))) / 2
        mantissa, exp = format(mid, f".{digits - 1}e").split("e")
        last = max(int(mantissa.replace(".", "")) + step, 0)
        text = f"{last}e{int(exp) - digits + 1}"
        return format(decimal.Decimal(text), "f") if positional else text


# the exact midpoints of doubles, where a rounding certificate must give up
NEAR_HALFWAY = st.builds(
    near_halfway,
    st.floats(min_value=0, max_value=1e30, allow_nan=False),
    st.sampled_from([17, 18, 19]), st.sampled_from([-1, 0, 1]),
    st.booleans())
ZERO_LED = st.from_regex(r"\A0\.0{1,12}[0-9]{0,20}\Z")
NUMBERS = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"\A[0-9]{1,22}(\.[0-9]{0,22})?([eE][+-]?[0-9]{1,3})?\Z"),
    NEAR_HALFWAY,
    ZERO_LED,
)
# cells float() and np.loadtxt may read differently, or that must fail
ODD_CELLS = ("inf", "-inf", "nan", "-0.0", "1e400", "1e-400", "-0.5", "0_5",
             " 0.5 ", "0.5\x00", "\x1c0.5", "0.5\x1f", "", "abc", "١",
             "\xa00.5 ", "+.5", "5.", "0x1p3", "\ufeff0.5", "\t0.25\x0b",
             "1e", "0.5\r", "0.5\r\n", "#1")
ODD_IDS = ("", "a,b", 'q"x', "nl\nx", "cr\rx", " lead", "\x00", "\ufeffc",
           "\x1cc")
ROW_MUTATIONS = ("ragged_short", "ragged_long", "blank_mid", "blank_end",
                 "bom", "trailing_comma", "duplicate_id", "oversize",
                 "bad_header")


@st.composite
def relevance_files(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    sometimes = st.sampled_from([False, False, False, True])
    cells = NUMBERS
    if draw(sometimes):
        cells = st.one_of(NUMBERS, st.sampled_from(ODD_CELLS))
    odd_ids = draw(sometimes)
    ids = [draw(st.sampled_from(ODD_IDS)) if odd_ids and draw(st.booleans())
           else f"c{i}" for i in range(m)]
    rows = [["consumer_id", *(f"i{j}" for j in range(n))]]
    rows += [[cid, *(draw(cells) for _ in range(n))] for cid in ids]
    mutations = st.lists(st.sampled_from(ROW_MUTATIONS), min_size=1,
                         max_size=2)
    for mutation in draw(mutations) if draw(sometimes) else ():
        r = draw(st.integers(1, m))
        if mutation == "ragged_short":
            rows[r] = rows[r][:-1]
        elif mutation == "ragged_long":
            rows[r] = rows[r] + [draw(NUMBERS)]
        elif mutation in ("blank_mid", "blank_end"):
            rows.insert(r if mutation == "blank_mid" else len(rows), [])
        elif mutation == "bom":
            rows[0][0] = "\ufeff" + rows[0][0]
        elif mutation == "trailing_comma":
            rows[r] = rows[r] + [""]
        elif mutation == "duplicate_id" and rows[1]:
            rows[r][:1] = rows[1][:1]
        elif mutation == "oversize" and rows[r]:
            rows[r][-1] = "1" * 200_000
        elif mutation == "bad_header":
            rows[0] = draw(st.sampled_from([["consumer_id"], ["user", "i0"],
                                            [" consumer_id", "i0"]]))
    if draw(sometimes):
        rows = rows[:draw(st.sampled_from([1, 0]))]
    terminator = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if draw(st.booleans()):  # as save_relevance writes: quotes where needed
        text = csv_text(rows, terminator)
    else:
        text = "".join(",".join(row) + terminator for row in rows)
    if draw(st.booleans()):
        text = text.removesuffix(terminator)
    data = text.encode("utf-8")
    if draw(sometimes):  # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=relevance_files())
def test_loader_matches_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("rel") / "rel.csv"
    path.write_bytes(data)
    assert_same_as_reference(path)


def plain_matrix(m, n, seed):
    """Scores of every magnitude, so conversion must round correctly."""
    rng = np.random.default_rng(seed)
    scores = rng.random((m, n)) * 10.0 ** rng.integers(-300, 300, (m, n))
    return RelevanceMatrix(tuple(f"c{i}" for i in range(m)),
                           tuple(f"i{j}" for j in range(n)), scores)


# Lines in each chunk the loader reads from a file of 3-score lines that
# all have the first line's length: that line, the lines that fill the
# bytes read after it, and the line that completes the read.
CHUNK_LINES = data_module._CHUNK_FIELDS // 3 + 2


def count_chunks(rel, writer, tmp_path):
    """Write `rel` with `writer`, check that the fast loader reads it as
    the frozen one does, and return how many chunks it read."""
    path = tmp_path / "rel.csv"
    if writer == "save_relevance":  # \r\n row ends
        save_relevance(rel, path)
    else:
        rows = [["consumer_id", *rel.item_ids]]
        rows += [[cid, *map(repr, row)]
                 for cid, row in zip(rel.consumer_ids, rel.scores.tolist())]
        path.write_text(csv_text(rows, "\n"), encoding="utf-8")
    calls = []

    def counting_parse_rows(*args):
        calls.append(1)
        return parse_rows(*args)

    parse_rows = data_module._parse_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_parse_rows", counting_parse_rows)
        assert parse_file(path) is not None  # the fast path ran
    got = assert_same_as_reference(path)
    assert got[3] == rel.scores.view(np.int64).tolist()

    # an error in the last row is located by the csv parser
    text = path.read_text(encoding="utf-8").rstrip("\r\n") + "x\n"
    path.write_text(text, encoding="utf-8")
    got = assert_same_as_reference(path)
    assert got[0] == "error" and f"line {rel.m + 1}, item 'i2'" in got[1]
    return len(calls)


@pytest.mark.parametrize("m", [1, CHUNK_LINES - 1, CHUNK_LINES,
                               CHUNK_LINES + 1])
@pytest.mark.parametrize("writer", ["repr", "save_relevance"])
def test_chunk_boundaries(m, writer, tmp_path):
    # plain_matrix scores, each line padded through its consumer id to
    # one length, so that the chunks hold CHUNK_LINES lines each
    rel = plain_matrix(m, 3, seed=m)
    width = [len(",".join(map(repr, row))) for row in rel.scores.tolist()]
    ids = tuple(f"c{c}".ljust(max(width) - w + 8, "_")
                for c, w in enumerate(width))
    rel = RelevanceMatrix(ids, rel.item_ids, rel.scores)
    assert count_chunks(rel, writer, tmp_path) == 1 + (m > CHUNK_LINES)


@pytest.mark.parametrize("writer", ["repr", "save_relevance"])
def test_chunks_of_whole_lines(writer, tmp_path):
    # several chunks, of lines of varied length
    assert count_chunks(plain_matrix(25_000, 3, seed=25_000), writer,
                        tmp_path) >= 3


def test_rows_beyond_the_first_lines_estimate(tmp_path):
    # a long first line: the loader makes room for fewer rows than it finds
    rows = [["consumer_id", "A", "B"], ["c" * 5000, "0.25", "0.5"]]
    rows += [[f"c{i}", "1", "0.5"] for i in range(3000)]
    path = tmp_path / "rel.csv"
    path.write_text(csv_text(rows, "\n"), encoding="utf-8")
    assert parse_file(path) is not None
    assert assert_same_as_reference(path)[0] == "ok"


def test_quoted_ids_round_trip_through_the_csv_parser(tmp_path):
    rel = RelevanceMatrix(("a,b", 'q"x', "nl\nx"), ("i,1", "i2"),
                          np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
    path = tmp_path / "rel.csv"
    save_relevance(rel, path)
    assert parse_file(path) is None
    back = load_relevance(path)
    assert back.consumer_ids == rel.consumer_ids
    assert back.item_ids == rel.item_ids
    assert back.scores.view(np.int64).tolist() == \
        rel.scores.view(np.int64).tolist()
    assert_same_as_reference(path)

    # quoting that changes no field still takes the csv parser
    path.write_text('consumer_id,"A"\n"c1",0.5\n', encoding="utf-8")
    assert parse_file(path) is None
    assert assert_same_as_reference(path)[1:3] == (("c1",), ("A",))


def test_save_load_round_trip_5000_by_50(tmp_path):
    rel = synth_relevance(5000, 50, seed=5)
    path = tmp_path / "rel.csv"
    save_relevance(rel, path)
    assert parse_file(path) is not None
    back = load_relevance(path)
    assert back.consumer_ids == rel.consumer_ids
    assert back.item_ids == rel.item_ids
    assert np.array_equal(back.scores.view(np.int64),
                          rel.scores.view(np.int64))


def write_rows(path, fields, width):
    """A relevance CSV whose rows hold `width` of `fields` each."""
    rows = [fields[i:i + width] for i in range(0, len(fields), width)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("consumer_id," + ",".join(f"i{j}" for j in range(width))
                 + "\n")
        for i, row in enumerate(rows):
            fh.write(f"c{i}," + ",".join(row) + "\n")


def test_loader_is_bit_exact_on_240k_hard_fields(tmp_path):
    rng = np.random.default_rng(20)
    third = 80_000
    doubles = rng.random(third) * 10.0 ** rng.integers(-20, 5, third)
    fields = [repr(x) for x in doubles.tolist()]
    digits = "".join(map(str, rng.integers(0, 10, 19 * third).tolist()))
    for i, (size, zeros) in enumerate(zip(rng.integers(1, 20, third).tolist(),
                                          rng.integers(0, 7, third).tolist())):
        fields.append("0." + "0" * zeros + digits[19 * i:19 * i + size])
    for x in doubles[:third // 9 + 1].tolist():
        fields += [near_halfway(x, size, step, size == 18)
                   for size in (17, 18, 19) for step in (-1, 0, 1)]
    del fields[3 * third:]
    # rows longer than the csv field size limit, so each field is measured
    path = tmp_path / "rel.csv"
    write_rows(path, fields, 10_000)
    assert parse_file(path) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rel = load_relevance(path)
    want = np.array([float(f) for f in fields])
    assert rel.scores.size == len(fields) >= 200_000
    assert np.array_equal(rel.scores.ravel().view(np.int64),
                          want.view(np.int64))


def benchmark_shaped(dist, m, n, rng):
    """Scores drawn as benchmark/workloads.py draws them."""
    if dist == "uniform":
        return rng.random((m, n))
    if dist == "skewed":
        return rng.random((m, n)) * rng.permutation(np.linspace(1.0, 0.2, n))
    weight = np.linspace(1.0, 0.3, 20)[rng.integers(0, 20, n)]
    return rng.beta(0.5, 2.0, size=(m, n)) * weight


@pytest.mark.parametrize("dist", ["uniform", "skewed", "beta"])
def test_kernel_converts_all_but_a_few_repr_scores(dist, tmp_path,
                                                   monkeypatch):
    scores = benchmark_shaped(dist, 1000, 100, np.random.default_rng(7))
    path = tmp_path / "rel.csv"
    write_rows(path, [repr(x) for x in scores.ravel().tolist()], 100)
    fallback = []
    float_fields = data_module._float_fields

    def counted(data, starts, ends):
        fallback.append(len(starts))
        return float_fields(data, starts, ends)

    monkeypatch.setattr(data_module, "_float_fields", counted)
    # one part, so every call is made, and counted, in this process
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: 1)
    parsed = parse_file(path)
    assert parsed is not None
    assert np.array_equal(parsed[2].view(np.int64), scores.view(np.int64))
    assert sum(fallback) < 0.01 * scores.size


def test_zero_led_fields_of_every_length(tmp_path, monkeypatch):
    # "0.", z zeros and d digits, the first of them not 0: a field of
    # 2 + z + d bytes with d significant digits, 20 of each z + d <= 24
    rng = np.random.default_rng(24)
    fields = []
    for size in range(25):
        for z in range(size + 1):
            for _ in range(20):
                digits = [*rng.integers(1, 10, 1), *rng.integers(0, 10, 23)]
                fields.append("0." + "0" * z
                              + "".join(map(str, digits[:size - z])))
    reached = []
    float_fields = data_module._float_fields

    def counted(data, starts, ends):
        reached.extend(data[a:b].decode()
                       for a, b in zip(starts.tolist(), ends.tolist()))
        return float_fields(data, starts, ends)

    def certified(field):
        w = np.array([int(field[2:] or "0")], dtype=np.uint64)
        k = np.array([2 - len(field) - data_module._Q_MIN])
        return bool(data_module._round(w, k)[1][0])

    monkeypatch.setattr(data_module, "_float_fields", counted)
    path = tmp_path / "rel.csv"
    write_rows(path, fields, 20)
    parsed = parse_file(path)
    assert parsed is not None
    want = np.array([float(f) for f in fields])
    assert np.array_equal(parsed[2].ravel().view(np.int64),
                          want.view(np.int64))
    # the zero-led pass takes every field of at most 24 bytes and 18
    # significant digits; of those, only the uncertified reach float()
    taken = {f for f in fields if len(f) <= 24 and len(f.lstrip("0.")) <= 18}
    assert set(fields) - taken <= set(reached)
    assert not [f for f in reached if f in taken and certified(f)]
    assert {len(f) for f in taken} == set(range(2, 25))
    assert {len(f.lstrip("0.")) for f in set(fields) - taken} \
        >= {19, 20, 21, 22}


@pytest.mark.parametrize("m, n, parent_mib", [(500, 1000, 23.5),
                                              (1000, 100, 5.0)])
def test_loader_peak_memory_not_above_the_loadtxt_loader(m, n, parent_mib,
                                                         tmp_path):
    # parent_mib: the tracemalloc peak of the np.loadtxt loader it replaced
    scores = np.random.default_rng(m).random((m, n))
    path = tmp_path / "rel.csv"
    write_rows(path, [repr(x) for x in scores.ravel().tolist()], n)
    del scores
    tracemalloc.start()
    try:
        load_relevance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_mib * 2 ** 20


MALFORMED = {
    "ragged": b"consumer_id,A,B\nc1,0.5\n",
    "blank_mid": b"consumer_id,A\nc1,0.5\n\nc2,0.5\n",
    "blank_end": b"consumer_id,A\nc1,0.5\n\n",
    "bom": "\ufeffconsumer_id,A\nc1,0.5\n".encode(),
    "empty_id": b"consumer_id,A\n,0.5\n,0.6\n",
    "inf": b"consumer_id,A\nc1,inf\n",
    "nan": b"consumer_id,A\nc1,nan\n",
    "huge": b"consumer_id,A\nc1,1e400\n",
    "negative": b"consumer_id,A\nc1,-0.5\n",
    "duplicate_id": b"consumer_id,A\nc1,0.5\nc1,0.5\n",
    "trailing_comma": b"consumer_id,A\nc1,0.5,\n",
    "empty_cell": b"consumer_id,A\nc1,\n",
    "nul": b"consumer_id,A\nc1,0.5\x00\n",
    "separator": b"consumer_id,A\nc1,\x1c0.5\n",
    "non_utf8": b"consumer_id,A\nc1,0.5\xff\n",
    "oversize": b"consumer_id,A\nc1," + b"1" * 200_000 + b"\n",
    "header": b"user,A\nc1,0.5\n",
    "header_only": b"consumer_id,A\n",
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_exits_2_on_malformed_relevance(name, tmp_path, capsys):
    path = tmp_path / "rel.csv"
    path.write_bytes(MALFORMED[name])
    argv = ["run", "--relevance", str(path), "--method", "top-k", "--k", "1",
            "--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would exit 3
        assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("body", [b"A,\xffg\n", b"A," + b"g" * 200_000 + b"\n"])
def test_cli_exits_2_on_malformed_groups(body, tmp_path, capsys):
    rel = tmp_path / "rel.csv"
    rel.write_bytes(b"consumer_id,A\nc1,0.5\n")
    groups = tmp_path / "groups.csv"
    groups.write_bytes(b"item_id,group_id\n" + body)
    argv = ["run", "--relevance", str(rel), "--groups", str(groups),
            "--method", "verfair-group", "--k", "1",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(groups) in err


@pytest.mark.parametrize("body, message", [
    (b"consumer_id,A\nc1,0.5\nc1,0.5\n", "duplicate consumer ids: 'c1'"),
    (b"consumer_id,A,A\nc1,0.5,0.5\n", "duplicate item ids: 'A'"),
    (b"consumer_id,A,B\nc1,0.5,nan\n",
     "non-finite score at consumer 'c1', item 'B'"),
    (b"consumer_id,A,B\nc1,0.5,0.5\nc2,-0.5,0.5\n",
     "negative score at consumer 'c2', item 'A'"),
])
def test_cli_validation_error_names_the_file(body, message, tmp_path, capsys):
    path = tmp_path / "rel.csv"
    path.write_bytes(body)
    argv = ["run", "--relevance", str(path), "--method", "top-k", "--k", "1",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# The loader cuts the data lines into parts, each parsed by a forked child
# but the first. These tests cut small files by lowering the part size and
# setting the CPU count: the result must be the one-part result, bit for
# bit, and no child may outlive a load.

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_parts(cpus, loader, path, part_bytes=64):
    """loader(path) with the data lines cut into up to `cpus` parts of
    `part_bytes` or more, and the number of children it forked."""
    forks = []
    fork = data_module._fork

    def counted():
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_MIN_PART_BYTES", part_bytes)
        mp.setattr(data_module, "_usable_cpus", lambda: cpus)
        mp.setattr(data_module, "_fork", counted)
        got = loader(path)
    assert_no_child_left()
    return got, len(forks)


def loaded(path):
    return outcome(load_relevance, path)


def bits(scores):
    return scores.view(np.int64).tolist()


def repr_file(path, rel, terminator="\n", last_newline=True):
    rows = [["consumer_id", *rel.item_ids]]
    rows += [[cid, *map(repr, row)]
             for cid, row in zip(rel.consumer_ids, rel.scores.tolist())]
    text = csv_text(rows, terminator)
    if not last_newline:
        text = text.removesuffix(terminator)
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize("last_newline", [True, False])
@pytest.mark.parametrize("terminator", ["\n", "\r\n"])
@pytest.mark.parametrize("m, n, cpus", [(7, 2, 2), (60, 3, 2), (60, 3, 3),
                                        (200, 1, 3)])
def test_parts_give_the_one_part_result(m, n, cpus, terminator, last_newline,
                                        tmp_path):
    rel = plain_matrix(m, n, seed=m + n)
    path = repr_file(tmp_path / "rel.csv", rel, terminator, last_newline)
    (ids, items, scores), forked = in_parts(cpus, parse_file, path)
    assert forked == cpus - 1
    one = parse_file(path)
    exact = parse_file(path, data_module._parse_relevance_csv)
    assert ids == one[0] == exact[0] == rel.consumer_ids
    assert items == one[1] == exact[1] == rel.item_ids
    assert bits(scores) == bits(one[2]) == bits(exact[2]) == bits(rel.scores)
    assert in_parts(cpus, loaded, path)[0] == assert_same_as_reference(path)


@pytest.mark.parametrize("terminator", ["\n", "\r\n"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_parts_of_many_chunks(cpus, terminator, tmp_path, monkeypatch):
    # chunks of about three lines of varied length, so that each part ends
    # in a chunk cut short by the part's end
    monkeypatch.setattr(data_module, "_CHUNK_FIELDS", 6)
    rel = plain_matrix(300, 3, seed=300)
    path = repr_file(tmp_path / "rel.csv", rel, terminator)
    (ids, _, scores), forked = in_parts(cpus, parse_file, path)
    assert forked == cpus - 1
    assert ids == rel.consumer_ids and bits(scores) == bits(rel.scores)


@settings(max_examples=200, deadline=None)
@given(data=relevance_files())
def test_loader_in_parts_matches_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("rel") / "rel.csv"
    path.write_bytes(data)
    assert in_parts(3, loaded, path, part_bytes=8)[0] == \
        assert_same_as_reference(path)


@pytest.mark.parametrize("at, length, children", [
    (0, 600, 2), (40, 600, 2), (99, 600, 2),
    (50, 1500, 1),  # spans both cuts, which fall together
    (99, 5000, 0),  # the last line spans both: one part
])
def test_parts_cut_next_to_a_long_line(at, length, children, tmp_path):
    rows = [["consumer_id", "A", "B"]]
    rows += [[f"c{i:02d}", "0.5", repr(i / 7)] for i in range(100)]
    rows[1 + at][0] = rows[1 + at][0].ljust(length, "_")
    path = tmp_path / "rel.csv"
    path.write_text(csv_text(rows, "\n"), encoding="utf-8")
    parsed, forked = in_parts(3, parse_file, path)
    assert forked == children
    assert parsed[0] == parse_file(path)[0]
    assert bits(parsed[2]) == bits(parse_file(path)[2])
    assert in_parts(3, loaded, path)[0] == assert_same_as_reference(path)


# what a line of a later part is made to hold; no part but that one holds it
LATER_PART = {
    "quote": lambda line: b'"' + line.replace(b",", b'",', 1),
    "nul": lambda line: line.replace(b",", b",\x00", 1),
    "non_utf8": lambda line: line.replace(b",", b"\xff,", 1),
    "lone_cr": lambda line: line.replace(b",", b"\r,", 1),
    "malformed": lambda line: line.replace(b",", b",0.5x", 1),
    "repeated_id": lambda line: b"c000" + line[line.index(b","):],
}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("at", [60, 99])
@pytest.mark.parametrize("defect", sorted(LATER_PART))
def test_a_later_part_sends_the_file_to_the_csv_parser(defect, at, cpus,
                                                       tmp_path):
    rel = plain_matrix(100, 3, seed=at)
    rel = RelevanceMatrix(tuple(f"c{i:03d}" for i in range(100)),
                          rel.item_ids, rel.scores)
    path = repr_file(tmp_path / "rel.csv", rel)
    header, *lines = path.read_bytes().splitlines(keepends=True)
    lines[at] = LATER_PART[defect](lines[at])
    path.write_bytes(b"".join([header, *lines]))
    parsed, forked = in_parts(cpus, parse_file, path)
    assert forked == cpus - 1
    assert (parsed is None) == (defect != "repeated_id")
    got, _ = in_parts(cpus, loaded, path)
    assert got == assert_same_as_reference(path)
    assert got[0] == ("ok" if defect == "quote" else "error")


def test_a_pipe_is_read_as_one_part(tmp_path):
    path = repr_file(tmp_path / "rel.csv", plain_matrix(60, 3, seed=60))
    fifo = tmp_path / "rel.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(path.read_bytes(),), daemon=True)
    writer.start()
    got, forked = in_parts(2, loaded, fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert forked == 0 and got[0] == "ok" and got[1:] == loaded(path)[1:]


def loaded_from_a_pipe(path):
    """`loaded` of the bytes of the file at `path`, read through a pipe
    under its /dev/fd name, as a shell's `<(cat path)` passes them, and
    that name."""
    data = path.read_bytes()
    assert len(data) < 2 ** 16  # a pipe holds them all unread
    read, write = os.pipe()
    try:
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        name = f"/dev/fd/{read}"
        got, forked = in_parts(2, loaded, name)
    finally:
        os.close(read)
    assert forked == 0
    return got, name


def test_a_pipe_with_a_quoted_first_id_loads_as_its_file(tmp_path):
    # the quote sends the bytes to the csv parser, which must read them
    # again although the pipe is drained
    path = repr_file(tmp_path / "rel.csv", plain_matrix(60, 3, seed=61))
    header, first, rest = path.read_bytes().split(b"\n", 2)
    first = b'"' + first.replace(b",", b'",', 1)
    path.write_bytes(b"\n".join([header, first, rest]))
    got, _ = loaded_from_a_pipe(path)
    assert got[0] == "ok" and got == loaded(path)


def test_a_pipe_with_a_bad_cell_gives_its_files_error(tmp_path):
    path = tmp_path / "rel.csv"
    path.write_bytes(b"consumer_id,A,B\nc1,abc,0.5\nc2,0.25,1\n")
    got, name = loaded_from_a_pipe(path)
    want = loaded(path)
    assert want == ("error", f"{path}: line 2, item 'A': cannot parse 'abc'")
    assert got == ("error", want[1].replace(str(path), name))


def split_file(tmp_path):
    return repr_file(tmp_path / "rel.csv", plain_matrix(90, 3, seed=90))


def test_no_child_left_when_the_parent_part_raises(tmp_path, monkeypatch):
    # 100-byte ids make the children's parts long, so that they are still
    # being parsed when the first part raises
    rel = plain_matrix(3000, 2, seed=3000)
    rel = RelevanceMatrix(tuple(f"{i:0100d}" for i in range(3000)),
                          rel.item_ids, rel.scores)
    path = repr_file(tmp_path / "rel.csv", rel)
    parse_range = data_module._parse_range

    def parent_part_raises(fh, start, end, row, *args):
        if row == 0:
            raise RuntimeError("the first part")
        return parse_range(fh, start, end, row, *args)

    monkeypatch.setattr(data_module, "_parse_range", parent_part_raises)
    with pytest.raises(RuntimeError, match="the first part"):
        in_parts(3, load_relevance, path)
    assert_no_child_left()


def no_csv_parser(path, fh):
    raise AssertionError("the csv parser is called")


def parsed_here(monkeypatch):
    """The first rows of the later parts that this process parses; no
    later part is parsed twice here."""
    parent, parse_child, rows = os.getpid(), data_module._parse_child, []

    def counted(*args):
        if os.getpid() == parent:
            assert args[4] not in rows
            rows.append(args[4])
        return parse_child(*args)

    monkeypatch.setattr(data_module, "_parse_child", counted)
    return rows


@pytest.mark.parametrize("failing", [1, 2])
def test_a_failed_fork_parses_the_unforked_parts_here(failing, tmp_path,
                                                      monkeypatch):
    # the first fork failing leaves both later parts to this process, the
    # second only the third part; the child forked first sends its own
    path = split_file(tmp_path)
    calls = []
    fork = os.fork

    def fork_fails():
        calls.append(1)
        if len(calls) == failing:
            raise OSError(errno.EAGAIN, "no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", fork_fails)
    here = parsed_here(monkeypatch)
    (ids, _, scores), forked = in_parts(3, parse_file, path)
    assert forked == len(calls) == failing and len(here) == 3 - failing
    one = parse_file(path)
    assert ids == one[0] and bits(scores) == bits(one[2])
    calls.clear()
    here.clear()
    monkeypatch.setattr(data_module, "_parse_relevance_csv", no_csv_parser)
    got, _ = in_parts(3, loaded, path)
    assert len(here) == 3 - failing
    assert got[0] == "ok" and got == assert_same_as_reference(path)


@pytest.mark.parametrize("unusable", ["first_part_inexact",
                                      "first_part_inexact_second_fork_fails"])
def test_children_of_an_unusable_load_are_stopped(unusable, tmp_path,
                                                  monkeypatch):
    # parts that take 20 s: once the first part is inexact, the load must
    # stop the children rather than wait for them, and must not parse here
    # the part whose fork failed
    path = split_file(tmp_path)
    header, first, rest = path.read_bytes().split(b"\n", 2)
    first = b'"' + first.replace(b",", b'",', 1)
    path.write_bytes(b"\n".join([header, first, rest]))
    if unusable == "first_part_inexact_second_fork_fails":
        calls = []
        fork = os.fork

        def every_second_fork_fails():
            calls.append(1)
            if len(calls) % 2 == 0:
                raise OSError(errno.EAGAIN, "no more processes")
            return fork()

        monkeypatch.setattr(os, "fork", every_second_fork_fails)
    parse_child = data_module._parse_child
    monkeypatch.setattr(data_module, "_parse_child",
                        lambda *args: (time.sleep(20), parse_child(*args)))
    began = time.perf_counter()
    parsed, forked = in_parts(3, parse_file, path)
    assert time.perf_counter() - began < 5
    assert parsed is None and forked == 2
    began = time.perf_counter()
    got, _ = in_parts(3, loaded, path)
    assert time.perf_counter() - began < 5
    csv_parsed = outcome(lambda p: RelevanceMatrix(
        *parse_file(p, data_module._parse_relevance_csv)), path)
    assert got[0] == "ok"
    assert got == csv_parsed == assert_same_as_reference(path)


def inexact(*args):
    raise data_module._Inexact


@pytest.mark.parametrize("child", ["finds_its_part_inexact", "exits_0",
                                   "exits_3", "sends_then_exits_3",
                                   "sends_then_killed"])
def test_a_failed_childs_part_is_parsed_here(child, tmp_path, monkeypatch):
    # each child fails, in its own process only: this process parses each
    # later part, once, and the csv parser is not called
    path = split_file(tmp_path)
    parent, parse_child = os.getpid(), data_module._parse_child
    misbehaves = {
        "finds_its_part_inexact": inexact,
        "exits_0": lambda *args: os._exit(0),
        "exits_3": lambda *args: os._exit(3),
        "sends_then_exits_3": lambda *args: (parse_child(*args), os._exit(3)),
        # its ids and scores are all written, but it dies before it sends
        "sends_then_killed": lambda *args: (
            parse_child(*args), os.kill(os.getpid(), signal.SIGKILL)),
    }[child]
    monkeypatch.setattr(data_module, "_parse_child", lambda *args: (
        parse_child if os.getpid() == parent else misbehaves)(*args))
    here = parsed_here(monkeypatch)
    (ids, _, scores), forked = in_parts(3, parse_file, path)
    assert forked == 2 and len(here) == 2
    one = parse_file(path)
    assert ids == one[0] and bits(scores) == bits(one[2])
    here.clear()
    monkeypatch.setattr(data_module, "_parse_relevance_csv", no_csv_parser)
    got, _ = in_parts(3, loaded, path)
    assert len(here) == 2
    assert got[0] == "ok" and got == assert_same_as_reference(path)


def test_line_counts_that_miss_a_part_send_the_file_to_the_csv_parser(
        tmp_path, monkeypatch):
    # as if the file changed between counting a part's lines and parsing it
    path = split_file(tmp_path)
    count_lines = data_module._count_lines
    monkeypatch.setattr(data_module, "_count_lines",
                        lambda *args: count_lines(*args) + 1)
    parsed, forked = in_parts(3, parse_file, path)
    assert parsed is None and forked == 2
    got, _ = in_parts(3, loaded, path)
    assert got[0] == "ok" and got == assert_same_as_reference(path)


def test_a_child_reads_only_the_file_the_load_opened(tmp_path, monkeypatch):
    path = split_file(tmp_path)
    other = tmp_path / "other.csv"
    other.write_bytes(path.read_bytes().replace(b"5", b"6"))
    fork = data_module._fork

    def replace_then_fork():
        if other.exists():  # children open the path after this
            os.replace(other, path)
        return fork()

    monkeypatch.setattr(data_module, "_fork", replace_then_fork)
    parsed, forked = in_parts(3, parse_file, path)
    assert parsed is None and forked == 2


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_line_written_after_the_file_is_sized_is_not_read(cpus, tmp_path,
                                                            monkeypatch):
    # `_cuts` runs once the file is sized, whatever its parts: the line it
    # appends lies past the end of every part, one or three
    rel = plain_matrix(90, 3, seed=90)
    path = repr_file(tmp_path / "rel.csv", rel)
    cuts = data_module._cuts

    def appended(fh, start, end):
        with open(path, "ab") as out:
            out.write(b"late,0.5,0.5,0.5\n")
        return cuts(fh, start, end)

    monkeypatch.setattr(data_module, "_cuts", appended)
    (ids, _, scores), forked = in_parts(cpus, parse_file, path)
    assert forked == cpus - 1
    assert ids == rel.consumer_ids and bits(scores) == bits(rel.scores)
    assert path.read_bytes().endswith(b"\nlate,0.5,0.5,0.5\n")


# `_forked` itself: `[call() for call in calls]`, or its first error, with
# the calls dealt to this process and forked children.

@contextlib.contextmanager
def within(seconds):
    """Raises TimeoutError in this process once `seconds` have passed, so
    that a deadlocked `_forked` fails a test rather than stalling it."""
    def expired(*_):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def forked(calls, procs):
    """The values of `data._forked(calls, procs)`, its context left at
    once."""
    with within(30), data_module._forked(calls, procs) as values:
        pass
    assert_no_child_left()
    return values


def test_forked_deals_the_calls_round_robin():
    # 7 calls on 3 processes: this one runs calls 0, 3 and 6, a child 1
    # and 4, another 2 and 5; each value comes back in call order
    pids = forked([os.getpid] * 7, 3)
    assert pids[0] == pids[3] == pids[6] == os.getpid()
    assert pids[1] == pids[4] != pids[2] == pids[5]
    assert os.getpid() not in (pids[1], pids[2])
    assert forked([lambda: "own", lambda: "a", lambda: None,
                   lambda: {"k": [1.5, 2]}], 4) == \
        ["own", "a", None, {"k": [1.5, 2]}]


def test_a_result_bigger_than_the_pipe_arrives_whole():
    # each over sixteen 64 KiB pipe buffers: the children block in their
    # writes until this process has run its call and reads them
    big = [os.urandom(2 ** 20) + bytes([i]) for i in range(2)]

    def own():
        time.sleep(0.2)
        return True

    got = forked([own, *(lambda i=i: big[i] for i in range(2))], 3)
    assert got == [True, *big]


def test_a_child_killed_while_it_sends_has_its_call_made_here(monkeypatch):
    # the child is killed once its call has returned, while its 1 MiB
    # message fills the pipe: the message ends cut short, and the call is
    # made here, once
    pids, (ready, done), parent, here = [], os.pipe(), os.getpid(), []
    fork = data_module._fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    def child():
        if os.getpid() == parent:
            here.append(1)
            return "here"
        os.write(done, b"x")
        return os.urandom(2 ** 20)

    def own():
        os.read(ready, 1)
        time.sleep(0.2)
        os.kill(pids[0], signal.SIGKILL)
        return True

    monkeypatch.setattr(data_module, "_fork", counted)
    try:
        assert forked([own, child], 2) == [True, "here"] and here == [1]
    finally:
        os.close(ready)
        os.close(done)


@pytest.mark.parametrize("returned", [lambda: lambda: 0, threading.Lock])
def test_a_value_that_cannot_be_pickled_is_made_here(returned):
    parent, made = os.getpid(), []

    def unpicklable():
        value = returned()
        if os.getpid() == parent:
            made.append(value)
        return value

    got = forked([lambda: 1, lambda: "sent", unpicklable], 3)
    assert got[:2] == [1, "sent"] and made == [got[2]]


def test_a_failed_fork_leaves_its_calls_here_and_an_error_kills_the_child(
        monkeypatch):
    # the second fork raises: the first child's value is used and the
    # second deal's call is made here. Then this process's call raises: the
    # first child, which would sleep 20 s, is killed and reaped.
    pids, reaped = [], []
    fork, waitpid = os.fork, os.waitpid

    def second_fails():
        if len(pids) % 2:
            pids.append(None)
            raise OSError(errno.EAGAIN, "no more processes")
        pids.append(fork())
        return pids[-1]

    def recorded(pid, options):
        reaped.append(waitpid(pid, options))
        return reaped[-1]

    monkeypatch.setattr(os, "fork", second_fails)
    monkeypatch.setattr(os, "waitpid", recorded)
    assert forked([lambda: "own", os.getpid, os.getpid], 3) == \
        ["own", pids[0], os.getpid()]
    assert [(pid, os.WEXITSTATUS(status)) for pid, status in reaped] == \
        [(pids[0], 0)]

    def raises():
        raise ValueError("own")

    began = time.perf_counter()
    with pytest.raises(ValueError, match="^own$"):
        forked([raises, lambda: time.sleep(20), os.getpid], 3)
    assert time.perf_counter() - began < 5
    assert [(pid, os.WTERMSIG(status)) for pid, status in reaped[1:]] == \
        [(pids[2], signal.SIGKILL)]
    assert_no_child_left()


# What each call of the contract test does: return its value, raise
# ValueError(i) wherever it runs, or fail only in a child.
CALLS = ("returns", "raises", "dies_in_a_child", "raises_in_a_child",
         "returns_a_lock_in_a_child")


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(CALLS), max_size=7),
       procs=st.integers(1, 3), failing=st.integers(0, 3))
def test_forked_gives_what_the_comprehension_gives(kinds, procs, failing):
    # `failing` numbers the fork that raises, 0 for none
    parent, here = os.getpid(), []

    def call(i):
        child = os.getpid() != parent
        if not child:
            here.append(i)
        if kinds[i] == "raises":
            raise ValueError(i)
        if child and kinds[i] == "dies_in_a_child":
            os._exit(3)
        if child and kinds[i] == "raises_in_a_child":
            raise RuntimeError(i)
        if child and kinds[i] == "returns_a_lock_in_a_child":
            return threading.Lock()
        return ("value", i)

    def result(comprehension):
        try:
            return "ok", comprehension()
        except ValueError as exc:
            return "error", exc.args

    calls = [lambda i=i: call(i) for i in range(len(kinds))]
    want = result(lambda: [c() for c in calls])
    here.clear()
    forks, fork = [], os.fork

    def fork_fails():
        forks.append(1)
        if len(forks) == failing:
            raise OSError(errno.EAGAIN, "no more processes")
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork_fails)
        got = result(lambda: forked(calls, procs))
    assert got == want
    assert len(here) == len(set(here))
    assert_no_child_left()


# Lines of 64 bytes that fill one part of the minimum size.
PART_LINES = data_module._MIN_PART_BYTES // 64


@pytest.mark.parametrize("lines, cpus, parts", [
    (2 * PART_LINES - 1, 4, 1),  # 64 bytes short of two minimum parts
    (2 * PART_LINES, 4, 2), (3 * PART_LINES, 2, 2), (3 * PART_LINES, 4, 3)])
def test_each_part_holds_the_minimum_part_bytes(lines, cpus, parts,
                                                monkeypatch):
    assert data_module._MIN_PART_BYTES % 64 == 0
    monkeypatch.setattr(data_module, "_usable_cpus", lambda: cpus)
    header = b"consumer_id,A\n"
    fh = io.BytesIO(header + (b"c" * 59 + b",0.5\n") * lines)
    cuts = data_module._cuts(fh, len(header), len(fh.getvalue()))
    assert len(cuts) == parts + 1
    assert np.diff(cuts).min() >= data_module._MIN_PART_BYTES
    assert all((cut - len(header)) % 64 == 0 for cut in cuts)


def test_a_file_between_two_minimum_parts_and_2_mib_is_cut_in_two(
        tmp_path):
    # one part on one CPU and two on two, with one child, at the real floor
    rel = plain_matrix(1000, 80, seed=1080)
    path = repr_file(tmp_path / "rel.csv", rel)
    floor = data_module._MIN_PART_BYTES
    assert 2 * floor < path.stat().st_size < 2 ** 21
    (ids, _, scores), forked = in_parts(1, parse_file, path, floor)
    (split_ids, _, split_scores), split_forked = in_parts(2, parse_file, path,
                                                          floor)
    assert (forked, split_forked) == (0, 1)
    assert ids == split_ids == rel.consumer_ids
    assert bits(scores) == bits(split_scores) == bits(rel.scores)


def test_kernel_blocks_stay_below_the_mmap_threshold(tmp_path, monkeypatch):
    # glibc serves a request of 128 KiB or more with fresh pages that fault
    # on every load; a block's temporaries of three words a field stay below
    assert 3 * 8 * data_module._BLOCK_FIELDS < 2 ** 17
    rel = plain_matrix(2000, 20, seed=2020)
    assert rel.m * rel.n > 2 * data_module._CHUNK_FIELDS  # three chunks
    path = repr_file(tmp_path / "rel.csv", rel)
    calls = []
    decimals = data_module._decimals

    def counted(data, starts, ends, general):
        calls.append((general, len(starts)))
        return decimals(data, starts, ends, general)

    monkeypatch.setattr(data_module, "_decimals", counted)
    ids, _, scores = parse_file(path)
    assert ids == rel.consumer_ids and bits(scores) == bits(rel.scores)
    for general in (False, True):
        sizes = [size for g, size in calls if g == general]
        assert sizes and max(sizes) <= data_module._BLOCK_FIELDS
    assert max(size for _, size in calls) == data_module._BLOCK_FIELDS
