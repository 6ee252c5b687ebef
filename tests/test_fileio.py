from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cases
import oracle
from triadcomplete import PartialReciprocalMatrix, complete_consistent_pc_plus, fileio, validate
from triadcomplete.errors import MatrixFileError
from triadcomplete.fileio import Cells, _token_value, format_matrix, format_rows, parse_matrix

FIVE_TEXT = """\
# demo matrix, two unspecified comparisons
1,6,1/2,1,?
1/6,1,1/3,1/2,?
2,3,1,2,2
1,2,1/2,1,1/2
?,?,1/2,2,1
"""


class TestParse:
    def test_fractions_decimals_and_holes(self):
        m, tokens = parse_matrix(FIVE_TEXT)
        assert m.n == 5
        assert m.missing_pairs().tolist() == [[0, 4], [1, 4]]
        assert m.entries[0, 2] == 0.5
        assert m.entries[1, 2] == pytest.approx(1 / 3, rel=1e-15)
        assert tokens[0][1] == "6"

    def test_comments_and_blank_lines_ignored(self):
        m, _ = parse_matrix("# heading\n\n1,2\n0.5,1\n# trailing\n")
        assert m.n == 2 and m.entries[0, 1] == 2.0

    def test_empty_file(self):
        with pytest.raises(MatrixFileError):
            parse_matrix("# nothing here\n")

    def test_ragged_row_reports_line(self):
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix("1,2\n0.5\n")
        assert exc.value.line == 2

    def test_bad_cell_reports_position(self):
        for text, col in (("1,abc\n1,1\n", 2), ("1,2,nan\n1/2,1,3\nnan,1/3,1\n", 3)):
            with pytest.raises(MatrixFileError) as exc:
                parse_matrix(text)
            assert exc.value.line == 1 and exc.value.col == col

    def test_asymmetric_hole_rejected(self):
        with pytest.raises(MatrixFileError):
            parse_matrix("1,?\n0.5,1\n")

    def test_validation_error_carries_location(self):
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix("# c\n1,2\n3,1\n")
        assert "reciprocal" in str(exc.value)
        assert exc.value.line == 2

    def test_zero_denominator_fraction(self):
        with pytest.raises(MatrixFileError):
            parse_matrix("1,1/0\n1,1\n")


class TestFormat:
    def test_round_trip_is_exact(self, rng):
        for _ in range(25):
            m = cases.random_prm(rng, int(rng.integers(1, 7)))
            text = format_matrix(m)
            again, _ = parse_matrix(text)
            assert np.array_equal(m.mask, again.mask)
            assert np.array_equal(
                m.entries[m.mask], again.entries[again.mask]
            )
            assert format_matrix(again) == text

    def test_unchanged_fractions_preserved(self):
        m, tokens = parse_matrix(FIVE_TEXT)
        out = format_matrix(m, tokens)
        assert "1/3" in out and "1/2" in out
        assert "?" in out

    def test_changed_cells_rendered_as_decimals(self):
        m, tokens = parse_matrix(FIVE_TEXT)
        filled = m.with_entry(1, 4, cases.SQRT6 / 6)
        out = format_matrix(filled, tokens)
        assert repr(cases.SQRT6 / 6) in out
        again, _ = parse_matrix(out)
        assert float(again.entries[1, 4]) == cases.SQRT6 / 6

    def test_parse_format_parse_idempotent(self, rng):
        m = cases.random_prm(rng, 5)
        once = format_matrix(m)
        twice = format_matrix(parse_matrix(once)[0])
        assert once == twice


class TestTokenValue:
    @settings(max_examples=300)
    @given(st.integers(0, 10**30), st.integers(1, 10**30), st.integers(0, 3), st.integers(0, 3))
    def test_ratio_is_fraction_float_bit_for_bit(self, p, q, zeros_p, zeros_q):
        token = f"{'0' * zeros_p}{p}/{'0' * zeros_q}{q}"
        assert _token_value(token).hex() == float(Fraction(token)).hex()

    @pytest.mark.parametrize("token", ["7/-3", "7/0", "1_0/3", "+7/3", "7/3.0"])
    def test_other_spellings_keep_value_or_message(self, token):
        # The cell grammar decides, not the running Python's Fraction: only a
        # signed p/q of ASCII digits is a ratio (3.11's Fraction takes 1_0/3).
        want = {"+7/3": 7 / 3}.get(token)
        if want is None:
            with pytest.raises(MatrixFileError) as exc:
                parse_matrix(f"1,{token}\n1,1\n")
            assert str(exc.value) == f"line 1, col 2: cannot parse cell {token!r}"
            return
        m, _ = parse_matrix(f"1,{token}\n{1 / want!r},1\n")
        assert m.entries[0, 1].hex() == want.hex()


class TestCellGrammar:
    @pytest.mark.parametrize(
        "token", ["3 / 4", "1_000", "1_0/3", "\u0661", "\uff13", "\uff13/4", "0x10", "1e", ".", "", "--2",
                  "2/+3", "7/3/2", "infinit", "1 2"],
    )
    def test_outside_the_grammar_cannot_parse(self, token):
        # 3 / 4 parses under 3.12's Fraction only, 1_0/3 under 3.11's and 3.12's,
        # and float() takes underscores and non-ASCII digits on every version.
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix(f"1,2\n1/2,{token}\n")
        assert str(exc.value) == f"line 2, col 2: cannot parse cell {token!r}"

    @pytest.mark.parametrize(
        "token, want",
        [("2", 2.0), ("+2", 2.0), ("2.", 2.0), (".5", 0.5), ("+.5", 0.5), ("0.25", 0.25),
         ("1E3", 1e3), ("1e+03", 1e3), ("2.5e-1", 0.25), ("007/3", 7 / 3), ("+7/3", 7 / 3),
         ("7/003", 7 / 3), ("1" + "0" * 400 + "/" + "3" + "0" * 400, 1 / 3)],
    )
    def test_ascii_spellings_parse_to_their_value(self, token, want):
        m, cells = parse_matrix(f"1,{token}\n{1 / want!r},1\n")
        assert m.entries[0, 1].hex() == want.hex()
        assert cells.values[0, 1].hex() == want.hex() and cells[0][1] == token

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "NaN", "+nan", "1e999", "10" * 200 + "/3"])
    def test_non_finite_spellings_keep_their_message(self, token):
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix(f"1,{token}\n1,1\n")
        assert str(exc.value) == f"line 1, col 2: cell {token!r} is not a finite number"

    @pytest.mark.parametrize("token", ["-2", "-7/3", "0/5", "0"])
    def test_signs_and_zeros_reach_validation(self, token):
        with pytest.raises(MatrixFileError, match="must be positive") as exc:
            parse_matrix(f"1,{token}\n1,1\n")
        assert (exc.value.line, exc.value.col) == (1, 2)

    def test_the_first_bad_cell_in_row_order_is_named(self):
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix("1,1e999,?\n1,1,1_0\n?,1,1\n")
        assert str(exc.value) == "line 1, col 2: cell '1e999' is not a finite number"


class TestFormatOnce:
    def test_kept_cells_are_the_equal_parsed_ones(self, rng):
        # A token is kept exactly where its parsed value equals the entry, and
        # repr runs on the other specified cells only.
        m, cells = parse_matrix(FIVE_TEXT)
        filled = m.with_entry(1, 4, cases.SQRT6 / 6).with_entry(0, 4, 3.0)
        rows = format_rows(filled, cells)
        for i in range(5):
            for j in range(5):
                same = cells.values[i, j] == filled.entries[i, j]
                assert rows[i][j] == (cells[i][j] if same else repr(float(filled.entries[i, j])))
        assert format_matrix(filled, cells) == "".join(",".join(r) + "\n" for r in rows)

    def test_unspecified_entries_stay_unspecified(self):
        m, cells = parse_matrix(FIVE_TEXT)
        assert format_rows(m, cells) == [list(row) for row in cells]
        assert format_rows(m)[0][4] == "?"


# NaNs of several payloads, both signs, quiet and signalling: every one is written '?'.
_NANS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(float).tolist()
# Both zeros, subnormals and the ends of the double range.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-308, 1e308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1]
# A cell is a (value, token) pair: a fraction keeps its p/q spelling, a float its repr.
_valued_tokens = (
    st.builds(lambda p, q: (p / q, f"{p}/{q}"), st.integers(1, 60), st.integers(1, 60))
    | (st.floats(allow_nan=False) | st.sampled_from(_EDGE_FLOATS)).map(lambda x: (x, repr(x)))
    | st.sampled_from(_NANS).map(lambda x: (x, "?"))
)


@st.composite
def _formatted(draw):
    """A matrix of n 1-40 and the cells of a file, both drawn from one small pool of
    (value, token) pairs, so values repeat and many cells equal their entry."""
    pool = draw(st.lists(_valued_tokens, min_size=1, max_size=8))
    pool += draw(st.sampled_from([[], [(0.0, "0.0"), (-0.0, "-0.0")]]))  # often both zeros
    n = draw(st.integers(1, 40))
    picks = hnp.arrays(np.intp, (n, n), elements=st.integers(0, len(pool) - 1))
    values = np.array([v for v, _ in pool])
    entries, cells = draw(picks), draw(picks)
    source = Cells([[pool[k][1] for k in row] for row in cells.tolist()])
    source.values = values[cells]
    return PartialReciprocalMatrix(values[entries]), source


class TestFormatDistinctValues:
    @given(_formatted())
    def test_equals_the_per_cell_reference(self, case):
        m, source = case
        assert format_rows(m, source) == oracle.format_rows_per_cell(m, source)
        assert format_rows(m) == oracle.format_rows_per_cell(m)

    def test_signed_zeros_keep_their_own_text(self):
        # -0.0 == 0.0, so values told apart by equality would share one text.
        m = PartialReciprocalMatrix(np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]]))
        want = [["1.0", "-0.0", "0.0"], ["0.0", "1.0", "-0.0"], ["-0.0", "0.0", "1.0"]]
        assert format_rows(m) == want == oracle.format_rows_per_cell(m)
        source = Cells([["1", "?", "?"], ["?", "1", "?"], ["?", "?", "1"]])
        source.values = np.where(np.eye(3) == 1, 1.0, np.nan)
        assert format_rows(m, source) == [["1", *want[0][1:]], ["0.0", "1", "-0.0"], [*want[2][:2], "1"]]

    def test_repr_runs_once_per_distinct_changed_value(self, monkeypatch):
        # Saaty-scale weights: ratios of weights repeat, as on consistent-large.
        rng = np.random.default_rng(64)
        full = cases.consistent_matrix(rng.integers(1, 10, 64).astype(float))
        m, cells = parse_matrix(format_matrix(cases.mask_to_graph(full, cases.random_sparse_graph(rng, 64))))
        result = complete_consistent_pc_plus(m)
        changed = result.entries[cells.values != result.entries]
        texts = []
        monkeypatch.setattr(fileio, "repr", lambda x: texts.append(repr(x)) or texts[-1], raising=False)
        rows = format_rows(result, cells)
        assert len(texts) == len(np.unique(changed.view(np.int64))) < len(changed) // 2
        monkeypatch.undo()
        assert rows == oracle.format_rows_per_cell(result, cells)
