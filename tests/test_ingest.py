"""Parsing, serialization round-trips, and the synthetic generator."""

import csv
import re
import statistics
import sys
import tempfile
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recorded
from vcnet.errors import ConfigError, SchemaError
from vcnet.ingest import (DEAL_COLUMNS, FIRM_COLUMNS, STATUSES, DealRecord, FirmMeta, Reject,
                          SyntheticConfig, generate_synthetic, iter_csv, parse_deals,
                          read_deals_csv, write_csv, write_deals, write_firms)

DEAL_HEADER = b"firm_id,investor_id,round_id,date,amount\n"
FIRM_HEADER = b"firm_id,subsector,country,status,status_date\n"


def synthesized(firm):
    return f"firm {firm!r} appears in deals but not in firms.csv; synthesized UNKNOWN metadata"


def parse_recorded(deal_text, firm_text):
    """``parse_deals`` of the two texts, written to files, and its warnings' messages in order."""
    with tempfile.TemporaryDirectory() as tmp:
        deals, firms = Path(tmp, "deals.csv"), Path(tmp, "firms.csv")
        deals.write_bytes(deal_text)
        firms.write_bytes(firm_text)
        return recorded(parse_deals, deals, firms)


def parse(deal_bytes=b"", firm_bytes=b""):
    """The ``ParseResult`` of these data rows; the deals' firms need no row in ``firm_bytes``.

    The warnings for such synthesized firms are dropped here
    (``test_missing_firm_metadata_synthesized_with_warning`` checks them); any other
    warning fails the test.
    """
    result, messages = parse_recorded(DEAL_HEADER + deal_bytes, FIRM_HEADER + firm_bytes)
    unexpected = set(messages) - {synthesized(d.firm_id) for d in result.deals}
    assert not unexpected, unexpected
    return result


class TestParseDeals:
    def test_empty_file_with_valid_header(self):
        result = parse()
        assert result.deals == []
        assert result.deal_rejects == []

    def test_single_row_field_mapping(self):
        result = parse(b"f1,i1,r1,2005-03-01,1000000\n")
        assert result.deals == [DealRecord("f1", "i1", "r1", Date(2005, 3, 1), 1000000)]
        assert result.deal_rejects == []

    def test_negative_amount_rejected_with_line_number(self):
        result = parse(b"f1,i1,r1,2005-03-01,-5\n")
        assert result.deals == []
        assert len(result.deal_rejects) == 1
        assert result.deal_rejects[0].line == 2
        assert "-5" in result.deal_rejects[0].reason

    def test_amount_limit_is_inclusive(self):
        result = parse(b"f1,i1,r1,2005-03-01,9223372036854775807\n"
                       b"f1,i1,r2,2005-03-01,9223372036854775808\n")
        assert [d.amount for d in result.deals] == [2**63 - 1]
        assert [r.line for r in result.deal_rejects] == [3]

    @pytest.mark.parametrize("row,fragment", [
        (b"f1,i1,r1,2005-13-01,5", "date"),
        # Python 3.11's fromisoformat reads these; 3.10's does not
        (b"f1,i1,r1,20050301,5", "invalid date '20050301'"),
        (b"f1,i1,r1,2005-W10-1,5", "invalid date '2005-W10-1'"),
        (b"f1,i1,r1,2005-03-01,1.5", "amount"),
        # int() reads these
        (b"f1,i1,r1,2005-03-01,1_000", "invalid amount '1_000'"),
        (b"f1,i1,r1,2005-03-01, 5", "invalid amount ' 5'"),
        (b"f1,i1,r1,2005-03-01,+5", "invalid amount '+5'"),
        ("f1,i1,r1,2005-03-01,\u0663".encode(), "invalid amount '\u0663'"),
        pytest.param(b"f1,i1,r1,2005-03-01,1" + b"0" * 400,
                     "amount above the limit 9223372036854775807", id="amount-10**400"),
        (b",i1,r1,2005-03-01,5", "firm_id"),
        (b"f1,,r1,2005-03-01,5", "investor_id"),
        (b"f1,i1,,2005-03-01,5", "round_id"),
        (b"f1,i1,r1,2005-03-01", "fields"),
        (b"\xff\xfef1,i1,r1,2005-03-01,5", "invalid UTF-8 in a field"),
    ])
    def test_bad_rows_rejected_not_fatal(self, row, fragment):
        result = parse(row + b"\nf2,i2,r2,2006-01-02,7\n")
        assert len(result.deals) == 1  # the good row survives
        assert len(result.deal_rejects) == 1
        assert fragment in result.deal_rejects[0].reason

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no limit on int-string conversion")
    def test_amount_verdicts_do_not_depend_on_the_int_digit_limit(self):
        # int() and str() refuse more digits than sys.get_int_max_str_digits(), 4300 by default
        rows = (b"f1,i1,r1,2005-03-01," + b"1" * 700 + b"\n"
                b"f1,i1,r2,2005-03-01," + b"0" * 699 + b"5\n"
                b"f1,i1,r3,2005-03-01,-" + b"1" * 700 + b"\n"
                b"f1,i1,r4,2005-03-01,-" + b"0" * 700 + b"\n")
        default = parse(rows)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            capped = parse(rows)
        finally:
            sys.set_int_max_str_digits(limit)
        assert capped == default
        assert [d.amount for d in default.deals] == [5, 0]
        assert default.deal_rejects == [Reject(2, "amount above the limit 9223372036854775807"),
                                         Reject(4, "negative amount -" + "1" * 700)]

    def test_bad_header_is_fatal(self):
        with pytest.raises(SchemaError, match="deals.csv: line 1: header must be "):
            parse_recorded(b"firm,investor\nx,y\n", FIRM_HEADER)

    def test_missing_firm_metadata_synthesized_with_warning(self):
        # one warning per synthesized firm, however many deals name it, in deal order
        result, messages = parse_recorded(
            DEAL_HEADER + b"f2,i1,r1,2005-03-01,5\nf1,i1,r1,2005-03-01,5\n"
                          b"f2,i2,r2,2006-03-01,5\nf3,i1,r1,2005-03-01,5\n",
            FIRM_HEADER + b"f3,bio,US,ACTIVE,\n")
        assert result.firms["f1"] == FirmMeta("f1") and result.firms["f2"] == FirmMeta("f2")
        assert messages == [synthesized("f2"), synthesized("f1")]

    def test_parallel_edges_are_legal(self):
        row = b"f1,i1,r1,2005-03-01,5\n"
        result = parse(row + row)
        assert len(result.deals) == 2
        assert result.deals[0] == result.deals[1]

    def test_reject_line_is_the_first_line_of_its_record(self, tmp_path):
        # the first record spans lines 2-3, so the bad date sits on line 4
        body = b'"f\n1",i1,r1,2005-01-01,10\nf2,i1,r1,2005-13-01,10\n'
        result = parse(body)
        assert [d.firm_id for d in result.deals] == ["f\n1"]
        assert result.deal_rejects == [Reject(4, "invalid date '2005-13-01'")]
        path = tmp_path / "deals.csv"
        path.write_bytes(DEAL_HEADER + body)
        with pytest.raises(SchemaError, match=r"deals.csv: line 4: invalid date"):
            read_deals_csv(path)

    def test_reject_lines_count_carriage_returns_as_line_breaks(self):
        result = parse(b'f1,"i\r\n1",r1,2005-03-01,5\nf1,"i\r1",r2,2005-03-01,x\n'
                       b'f1,i1,r3,2005-03-01,x\n')
        assert [r.line for r in result.deal_rejects] == [2, 4, 6]

    def test_file_order_preserved(self):
        result = parse(b"f2,i1,r1,2007-03-01,5\nf1,i1,r1,2005-03-01,5\n")
        assert [d.firm_id for d in result.deals] == ["f2", "f1"]


class TestParseFirms:
    def test_exit_status_requires_date(self):
        result = parse(firm_bytes=b"f1,bio,US,ACQUIRED,\n")
        assert result.firm_rejects[0].line == 2
        assert "status_date" in result.firm_rejects[0].reason

    def test_status_date_must_be_iso_calendar_date(self):
        result = parse(firm_bytes=b"f1,bio,US,IPO,20120630\nf2,bio,US,IPO,2012-06-30\n")
        assert result.firm_rejects == [Reject(2, "invalid status_date '20120630'")]
        assert list(result.firms) == ["f2"]

    def test_non_exit_status_must_not_have_date(self):
        result = parse(firm_bytes=b"f1,bio,US,ACTIVE,2010-01-01\n")
        assert len(result.firm_rejects) == 1

    def test_empty_status_defaults_to_active(self):
        result = parse(firm_bytes=b"f1,bio,US,,\n")
        assert result.firms["f1"].status == "ACTIVE"

    def test_unknown_status_rejected(self):
        result = parse(firm_bytes=b"f1,bio,US,WOUND_DOWN,\n")
        assert "WOUND_DOWN" in result.firm_rejects[0].reason

    def test_duplicate_firm_rejected(self):
        result = parse(firm_bytes=b"f1,bio,US,ACTIVE,\nf1,ict,DE,ACTIVE,\n")
        assert result.firms["f1"].subsector == "bio"
        assert result.firm_rejects[0].line == 3

    def test_carriage_return_in_a_field_rejected(self):
        result = parse(b'f1,"i\r1",r1,2005-03-01,5\n', b'"f\r2",bio,US,ACTIVE,\n')
        assert result.deals == [] and result.firms == {}
        assert result.deal_rejects == [Reject(2, "carriage return in a field")]
        assert result.firm_rejects == [Reject(2, "carriage return in a field")]

    def test_exit_parsed(self):
        result = parse(firm_bytes=b"f1,bio,US,IPO,2012-06-30\n")
        meta = result.firms["f1"]
        assert meta.is_exit() and meta.status_date == Date(2012, 6, 30)

    @pytest.mark.parametrize("years", [0, 8])
    def test_exit_within_counts_whole_calendar_years(self, years):
        # an exit on the last day of year + years counts, one a year later does not
        assert FirmMeta("f1", status="IPO", status_date=Date(2004 + years, 12, 31)).exits_within(
            2004, years)
        assert not FirmMeta("f1", status="IPO",
                            status_date=Date(2005 + years, 1, 1)).exits_within(2004, years)
        assert not FirmMeta("f1").exits_within(2004, years)


ids = st.text(alphabet=st.characters(min_codepoint=48, max_codepoint=122,
                                     exclude_characters=";\\`"), min_size=1, max_size=8)
deal_records = st.builds(
    DealRecord,
    firm_id=ids, investor_id=ids, round_id=ids,
    date=st.dates(min_value=Date(1990, 1, 1), max_value=Date(2030, 12, 31)),
    amount=st.integers(min_value=0, max_value=10 ** 12),
)


class TestRoundTrip:
    @given(st.lists(deal_records, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_deals_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "deals.csv")
            write_deals(records, path)
            result, messages = parse_recorded(path.read_bytes(), FIRM_HEADER)
        assert result.deals == records
        assert result.deal_rejects == []
        assert messages == [synthesized(f) for f in dict.fromkeys(r.firm_id for r in records)]

    def test_firms_round_trip(self, tmp_path):
        metas = [
            FirmMeta("f1", "bio", "US", "ACQUIRED", Date(2011, 2, 3)),
            FirmMeta("f2", "", "", "ACTIVE", None),
            FirmMeta("f3", "ict", "DE", "INACTIVE", None),
        ]
        write_firms(metas, tmp_path / "firms.csv")
        (tmp_path / "deals.csv").write_bytes(DEAL_HEADER)
        result = parse_deals(tmp_path / "deals.csv", tmp_path / "firms.csv")
        assert [result.firms[m.firm_id] for m in metas] == metas


# Python 3.10's csv reader fails on any NUL character (csv.Error), so NUL
# is drawn only where the reader accepts it
cells = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\x00" if sys.version_info < (3, 11) else ""),
                max_size=12)
# cells that parse: ids, dates, amounts and statuses, shuffled with arbitrary text
deal_cells = st.one_of(cells, ids, st.dates().map(Date.isoformat),
                       st.integers(-5, 10 ** 6).map(str))
firm_cells = st.one_of(cells, ids, st.dates().map(Date.isoformat), st.sampled_from(STATUSES))
rows_of = lambda cell: st.lists(st.lists(cell, max_size=7), max_size=12)
headers_of = lambda columns: st.one_of(st.just(columns), st.lists(cells, max_size=6))


def quoted_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows([header, *rows])


def record_lines(rows):
    """The physical line each data record of ``quoted_csv`` starts on.

    The reader splits lines on ``\\n``, ``\\r`` and ``\\r\\n``, so a record
    spans one line plus one per such break inside its (quoted) cells.
    """
    lines, line = [], 2
    for row in rows:
        lines.append(line)
        line += 1 + sum(len(re.findall(r"\r\n|\r|\n", cell)) for cell in row)
    return lines


class TestParseArbitraryRows:
    @given(headers_of(DEAL_COLUMNS), rows_of(deal_cells),
           headers_of(FIRM_COLUMNS), rows_of(firm_cells))
    @settings(max_examples=300, deadline=None)
    def test_rows_become_records_or_rejects_and_round_trip(self, deal_header, deal_rows,
                                                            firm_header, firm_rows):
        with tempfile.TemporaryDirectory() as tmp:
            self._check(Path(tmp), deal_header, deal_rows, firm_header, firm_rows)

    def _check(self, tmp, deal_header, deal_rows, firm_header, firm_rows):
        # every cell quoted, so each drawn row is one CSV record, bare \r included
        deals, firms = tmp / "deals.csv", tmp / "firms.csv"
        quoted_csv(deals, deal_header, deal_rows)
        quoted_csv(firms, firm_header, firm_rows)
        if deal_header != DEAL_COLUMNS or firm_header != FIRM_COLUMNS:
            with pytest.raises(SchemaError):
                parse_deals(deals, firms)
            return
        result, messages = recorded(parse_deals, deals, firms)

        rejected = [r.line for r in result.deal_rejects]
        assert rejected == sorted(set(rejected))
        assert set(rejected) <= set(record_lines(deal_rows))
        kept = [row for line, row in zip(record_lines(deal_rows), deal_rows)
                if line not in rejected]
        assert len(kept) + len(rejected) == len(deal_rows)
        assert [[d.firm_id, d.investor_id, d.round_id] for d in result.deals] == [
            row[:3] for row in kept]
        firm_lines = [r.line for r in result.firm_rejects]
        assert firm_lines == sorted(set(firm_lines))
        assert set(firm_lines) <= set(record_lines(firm_rows))
        n_synthesized = len(messages)
        assert len(result.firms) - n_synthesized + len(firm_lines) == len(firm_rows)

        write_deals(result.deals, deals)
        write_firms(result.firms.values(), firms)
        again, messages = recorded(parse_deals, deals, firms)
        assert again.deals == result.deals and again.firms == result.firms
        assert again.deal_rejects == again.firm_rejects == messages == []


class TestTableFormat:
    def test_cells_follow_the_csv_convention(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], [[np.float64(-14.2), 3, None, "Z, Pharma"],
                                               [float("nan"), -0.0, 5e-324, -np.inf]])
        assert path.read_bytes() == b'a,b,c,d\n-14.2,3,,"Z, Pharma"\nnan,-0.0,5e-324,-inf\n'
        assert list(iter_csv(path)) == [(1, ["a", "b", "c", "d"]),
                                        (2, ["-14.2", "3", "", "Z, Pharma"]),
                                        (3, ["nan", "-0.0", "5e-324", "-inf"])]

    def test_empty_table_has_no_header(self, tmp_path):
        (tmp_path / "empty.csv").write_bytes(b"")
        assert list(iter_csv(tmp_path / "empty.csv")) == []

    @given(st.floats())
    @settings(max_examples=300, deadline=None)
    def test_float_cells_are_the_shortest_round_trip_repr(self, x):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "x.csv")
            write_csv(path, ["x"], [[x], [np.float64(x)]])
            assert path.read_text(encoding="utf-8").split("\n")[1:3] == [repr(x)] * 2


GOLDEN_CFG = SyntheticConfig(n_firms=500, n_investors=200, n_subsectors=4,
                             year_range=(2000, 2020), high_regime_fraction=0.2, seed=7)


class TestSyntheticGenerator:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_firms=0, n_investors=10, n_subsectors=2,
                            year_range=(2000, 2010), high_regime_fraction=0.2, seed=1)
        with pytest.raises(ConfigError):
            SyntheticConfig(n_firms=10, n_investors=10, n_subsectors=2,
                            year_range=(2010, 2000), high_regime_fraction=0.2, seed=1)
        with pytest.raises(ConfigError):
            SyntheticConfig(n_firms=10, n_investors=10, n_subsectors=2,
                            year_range=(2000, 2010), high_regime_fraction=1.5, seed=1)

    def test_deterministic_for_fixed_seed(self):
        a = generate_synthetic(GOLDEN_CFG)
        b = generate_synthetic(GOLDEN_CFG)
        assert a.deals == b.deals
        assert a.firms == b.firms
        assert a.planted_regimes == b.planted_regimes

    def test_every_record_passes_validation(self, tmp_path):
        ds = generate_synthetic(GOLDEN_CFG)
        write_deals(ds.deals, tmp_path / "deals.csv")
        write_firms([ds.firms[f] for f in sorted(ds.firms)], tmp_path / "firms.csv")
        result, messages = recorded(parse_deals, tmp_path / "deals.csv", tmp_path / "firms.csv")
        assert result.deal_rejects == []
        assert result.firm_rejects == []
        assert messages == []

    def test_every_firm_has_a_round(self):
        ds = generate_synthetic(GOLDEN_CFG)
        funded = {d.firm_id for d in ds.deals}
        assert funded == set(ds.firms)

    def test_golden_planted_gap(self):
        # Frozen from the generator itself (seed 7): 92 HIGH firms whose
        # 10-year cumulative funding all exceeds the LOW median by a wide gap.
        ds = generate_synthetic(GOLDEN_CFG)
        n_high = sum(1 for r in ds.planted_regimes.values() if r == "HIGH")
        assert n_high == 92

        first = {}
        for d in ds.deals:
            first[d.firm_id] = min(first.get(d.firm_id, 10 ** 4), d.date.year)
        cum: dict[str, int] = {}
        for d in ds.deals:
            if d.date.year - first[d.firm_id] <= 10:
                cum[d.firm_id] = cum.get(d.firm_id, 0) + d.amount
        high = [v for f, v in cum.items() if ds.planted_regimes[f] == "HIGH"]
        low = [v for f, v in cum.items() if ds.planted_regimes[f] == "LOW"]
        low_median = statistics.median(low)
        assert statistics.median(high) > 10 * low_median
        assert all(v > low_median for v in high)

    def test_dual_role_ids_planted(self):
        ds = generate_synthetic(GOLDEN_CFG)
        investors = {d.investor_id for d in ds.deals}
        firms = {d.firm_id for d in ds.deals}
        assert investors & firms  # some ids appear on both sides
