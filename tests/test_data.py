import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data
from verfair import (DataError, ExposureModel, GroupMap, RelevanceMatrix,
                     compute_quotas, identity_groups, load_groups,
                     load_relevance, save_groups, save_relevance,
                     synth_relevance)
from verfair.cli import main
from verfair.data import _parse_relevance_numpy


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
            expected = avg * alpha * q.e_total / avg.sum()
            got = np.array([q.per_group[d] for d in rel.item_ids])
            np.testing.assert_allclose(got, expected, rtol=1e-12)


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


class TestValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            RelevanceMatrix(("c1",), ("A", "B"), np.array([[1.0, np.nan]]))

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(DataError):
            RelevanceMatrix(("c1",), ("A", "A"), np.array([[1.0, 2.0]]))


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


NUMBERS = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"\A[0-9]{1,22}(\.[0-9]{0,22})?([eE][+-]?[0-9]{1,3})?\Z"),
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


@pytest.mark.parametrize("m", [1, 4095, 4096, 4097])
@pytest.mark.parametrize("writer", ["repr", "save_relevance"])
def test_chunk_boundaries(m, writer, tmp_path):
    rel = plain_matrix(m, 3, seed=m)
    path = tmp_path / "rel.csv"
    if writer == "save_relevance":  # \r\n row ends
        save_relevance(rel, path)
    else:
        rows = [["consumer_id", *rel.item_ids]]
        rows += [[cid, *map(repr, row)]
                 for cid, row in zip(rel.consumer_ids, rel.scores.tolist())]
        path.write_text(csv_text(rows, "\n"), encoding="utf-8")
    assert _parse_relevance_numpy(path) is not None  # the fast path ran
    got = assert_same_as_reference(path)
    assert got[3] == rel.scores.view(np.int64).tolist()

    # an error in the last row is located by the csv parser
    text = path.read_text(encoding="utf-8").rstrip("\r\n") + "x\n"
    path.write_text(text, encoding="utf-8")
    got = assert_same_as_reference(path)
    assert got[0] == "error" and f"line {m + 1}, item 'i2'" in got[1]


def test_quoted_ids_round_trip_through_the_csv_parser(tmp_path):
    rel = RelevanceMatrix(("a,b", 'q"x', "nl\nx"), ("i,1", "i2"),
                          np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]))
    path = tmp_path / "rel.csv"
    save_relevance(rel, path)
    assert _parse_relevance_numpy(path) is None
    back = load_relevance(path)
    assert back.consumer_ids == rel.consumer_ids
    assert back.item_ids == rel.item_ids
    assert back.scores.view(np.int64).tolist() == \
        rel.scores.view(np.int64).tolist()
    assert_same_as_reference(path)

    # quoting that changes no field still takes the csv parser
    path.write_text('consumer_id,"A"\n"c1",0.5\n', encoding="utf-8")
    assert _parse_relevance_numpy(path) is None
    assert assert_same_as_reference(path)[1:3] == (("c1",), ("A",))


def test_save_load_round_trip_5000_by_50(tmp_path):
    rel = synth_relevance(5000, 50, seed=5)
    path = tmp_path / "rel.csv"
    save_relevance(rel, path)
    assert _parse_relevance_numpy(path) is not None
    back = load_relevance(path)
    assert back.consumer_ids == rel.consumer_ids
    assert back.item_ids == rel.item_ids
    assert np.array_equal(back.scores.view(np.int64),
                          rel.scores.view(np.int64))


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
    (b"consumer_id,A\nc1,0.5\nc1,0.5\n", "duplicate consumer ids"),
    (b"consumer_id,A,A\nc1,0.5,0.5\n", "duplicate item ids"),
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
