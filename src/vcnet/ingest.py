"""Deal-level CSV ingestion and seeded synthetic data generation.

Input schema (UTF-8 CSV with headers, exact column order):

* ``deals.csv``: ``firm_id,investor_id,round_id,date,amount``
* ``firms.csv``: ``firm_id,subsector,country,status,status_date``

Empty strings encode UNKNOWN/absent. Dates are ISO-8601 ``YYYY-MM-DD``
and amounts plain integers, both in ASCII digits. Amounts are whole
currency units (a single currency is assumed throughout; no conversion
is attempted) from 0 to ``MAX_AMOUNT`` (2**63 - 1), so every per-firm
sum stays a finite float. Rows violating
an invariant are collected into a rejects report instead of aborting the
run, each with the first physical line of its record (a quoted line
break makes a record span lines); only a bad header, or a line the csv
reader cannot split (a field longer than 131,072 characters; a NUL byte
before Python 3.11), is fatal. Bytes that are not UTF-8 reject their
row; in the header they fail the header check.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field, fields
from datetime import date as Date
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, SchemaError

DEAL_COLUMNS = ["firm_id", "investor_id", "round_id", "date", "amount"]
FIRM_COLUMNS = ["firm_id", "subsector", "country", "status", "status_date"]

STATUSES = ("ACTIVE", "ACQUIRED", "IPO", "MERGED", "INACTIVE")
EXIT_STATUSES = frozenset({"ACQUIRED", "IPO", "MERGED"})

UNKNOWN = ""

#: The largest deal amount accepted: the largest int64, far below the float limit.
MAX_AMOUNT = 2**63 - 1


@dataclass(frozen=True)
class DealRecord:
    """One investment event: an investor putting money into a firm's round."""

    firm_id: str
    investor_id: str
    round_id: str
    date: Date
    amount: int


@dataclass(frozen=True)
class FirmMeta:
    """Static firm attributes; ``subsector``/``country`` may be UNKNOWN ('')."""

    firm_id: str
    subsector: str = UNKNOWN
    country: str = UNKNOWN
    status: str = "ACTIVE"
    status_date: Date | None = None

    def is_exit(self) -> bool:
        return self.status in EXIT_STATUSES

    def exits_within(self, year: int, years: int) -> bool:
        """True if the firm exited at most ``years`` calendar years after ``year``."""
        return self.is_exit() and self.status_date.year - year <= years


@dataclass(frozen=True)
class Reject:
    """A rejected input row: the 1-based line its record starts on, plus the violated rule."""

    line: int
    reason: str


@dataclass
class ParseResult:
    """The records and rejects of a deal and a firm file; a synthesized firm is only warned of."""

    deals: list[DealRecord]
    firms: dict[str, FirmMeta]
    deal_rejects: list[Reject] = field(default_factory=list)
    firm_rejects: list[Reject] = field(default_factory=list)


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_AMOUNT = re.compile(r"-?[0-9]+")


def _parse_date(raw: str) -> Date:
    """``YYYY-MM-DD`` in ASCII digits only; ``fromisoformat`` accepts more from Python 3.11 on."""
    if not _DATE.fullmatch(raw):
        raise ValueError(f"not YYYY-MM-DD: {raw!r}")
    return Date.fromisoformat(raw)


def _parse_amount(raw: str) -> int:
    """An integer in [0, ``MAX_AMOUNT``]; ``ValueError`` with the reject reason otherwise.

    Only ``-?[0-9]+`` is an integer (``int`` also takes ``_``, spaces, ``+``
    and non-ASCII digits). The range is decided on the digits before any
    conversion: ``int`` and ``str`` refuse more digits than
    ``sys.get_int_max_str_digits()``, and the verdict must not depend on
    that setting.
    """
    if not _AMOUNT.fullmatch(raw):
        raise ValueError(f"invalid amount {raw!r}")
    digits = raw.lstrip("-").lstrip("0") or "0"
    if raw[0] == "-" and digits != "0":
        raise ValueError(f"negative amount -{digits}")
    if len(digits) > len(str(MAX_AMOUNT)) or int(digits) > MAX_AMOUNT:
        raise ValueError(f"amount above the limit {MAX_AMOUNT}")
    return int(digits)


def parse_deals(deal_csv: str | Path, firm_csv: str | Path) -> ParseResult:
    """Parse the deal and firm CSV files into validated records.

    Every row becomes exactly one record or one reject (with its line
    number); file order is preserved. Each firm referenced by deals but
    missing from the firm file is synthesized with UNKNOWN fields, and
    ``warnings.warn`` names it.

    Raises
    ------
    SchemaError
        If either file's header does not match the documented schema.
    """
    result = ParseResult(deals=[], firms={})
    result.firm_rejects = _parse_rows(firm_csv, FIRM_COLUMNS, "firms.csv", _parse_firm_row,
                                      result.firms)
    result.deal_rejects = _parse_rows(deal_csv, DEAL_COLUMNS, "deals.csv", _parse_deal_row,
                                      result.deals)
    for rec in result.deals:
        if rec.firm_id not in result.firms:
            result.firms[rec.firm_id] = FirmMeta(firm_id=rec.firm_id)
            warnings.warn(f"firm {rec.firm_id!r} appears in deals but not in firms.csv; "
                          f"synthesized UNKNOWN metadata")

    return result


def _parse_rows(source: str | Path, columns: list[str], name: str,
                parse_row: Callable[[list[str], Any], str | None], records: Any) -> list[Reject]:
    """Check the header, then let ``parse_row`` add each data row to ``records``.

    ``parse_row`` returns the reason a row is rejected, or None once it
    has added the row; a reject carries the 1-based physical line its
    record starts on (a quoted line break spans lines). Two kinds
    of row are rejected first: one with a carriage return in a field
    (before Python 3.13, ``write_csv`` leaves a bare ``\\r`` unquoted, so
    the row would split when an artifact is read back) and one holding
    bytes that are not UTF-8 (``iter_csv`` keeps them as lone surrogates,
    which no artifact could encode).
    """
    rows = iter_csv(source)
    _, header = next(rows, (1, None))
    if header != columns:
        raise SchemaError(f"{name} header must be {','.join(columns)!r}, got {header!r}")
    rejects = []
    for line, row in rows:
        reason = _row_fault(row) or parse_row(row, records)
        if reason is not None:
            rejects.append(Reject(line, reason))
    return rejects


def _row_fault(row: list[str]) -> str | None:
    if any("\r" in cell for cell in row):
        return "carriage return in a field"
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return "invalid UTF-8 in a field"
    return None


def _parse_deal_row(row: list[str], deals: list[DealRecord]) -> str | None:
    if len(row) != len(DEAL_COLUMNS):
        return f"expected {len(DEAL_COLUMNS)} fields, got {len(row)}"
    firm_id, investor_id, round_id, raw_date, raw_amount = row
    if not firm_id:
        return "empty firm_id"
    if not investor_id:
        return "empty investor_id"
    if not round_id:
        return "empty round_id"
    try:
        when = _parse_date(raw_date)
    except ValueError:
        return f"invalid date {raw_date!r}"
    try:
        amount = _parse_amount(raw_amount)
    except ValueError as exc:
        return str(exc)
    deals.append(DealRecord(firm_id, investor_id, round_id, when, amount))
    return None


def _parse_firm_row(row: list[str], firms: dict[str, FirmMeta]) -> str | None:
    if len(row) != len(FIRM_COLUMNS):
        return f"expected {len(FIRM_COLUMNS)} fields, got {len(row)}"
    firm_id, subsector, country, status, raw_status_date = row
    if not firm_id:
        return "empty firm_id"
    if firm_id in firms:
        return f"duplicate firm_id {firm_id!r}"
    if status == "":
        status = "ACTIVE"
    if status not in STATUSES:
        return f"unknown status {status!r}"
    status_date: Date | None = None
    if raw_status_date:
        try:
            status_date = _parse_date(raw_status_date)
        except ValueError:
            return f"invalid status_date {raw_status_date!r}"
    if status in EXIT_STATUSES and status_date is None:
        return f"status {status} requires a status_date"
    if status not in EXIT_STATUSES and status_date is not None:
        return f"status {status} must not carry a status_date"
    firms[firm_id] = FirmMeta(firm_id, subsector, country, status, status_date)
    return None


def write_deals(deals: Iterable[DealRecord], target: str | Path) -> None:
    """Serialize deals in the canonical CSV schema (inverse of parsing)."""
    write_csv(target, DEAL_COLUMNS, (
        [d.firm_id, d.investor_id, d.round_id, d.date.isoformat(), d.amount] for d in deals
    ))


def write_firms(firms: Iterable[FirmMeta], target: str | Path) -> None:
    """Serialize firm metadata in the canonical CSV schema."""
    write_csv(target, FIRM_COLUMNS, (
        [m.firm_id, m.subsector, m.country, m.status,
         m.status_date.isoformat() if m.status_date is not None else None]
        for m in firms
    ))


def write_rejects(rejects: Iterable[Reject], target: str | Path) -> None:
    """Write a rejects report: CSV ``line,reason``."""
    write_csv(target, ["line", "reason"], ([r.line, r.reason] for r in rejects))


def write_csv(target: str | Path, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """Write one CSV file; every table the package writes goes through here.

    UTF-8, ``\\n`` line endings and minimal quoting. ``csv`` converts the
    cells: a float (numpy float64 included) becomes its shortest
    round-trip repr, an int its ``str`` and ``None`` an empty cell.
    """
    with open(target, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def iter_csv(source: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The records of a CSV file, header first, one at a time; the only CSV reader.

    Each record comes with the 1-based physical line it starts on; a
    quoted line break (``\\n``, ``\\r`` or ``\\r\\n``) makes a record span
    more than one line. Bytes that are not UTF-8 come back as lone
    surrogates (``surrogateescape``). A line the csv reader cannot split
    raises ``SchemaError`` naming the file and the line.
    """
    with open(source, encoding="utf-8", newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise SchemaError(f"{source}: line {reader.line_num}: {exc}") from exc


def read_records(path: str | Path, columns: list[str] | Callable[[list[str]], list[str]],
                 convert: Callable[[list[str]], Any]
                 ) -> tuple[list[str], Iterator[tuple[int, Any]]]:
    """The header of a stage artifact, then ``(line, convert(row))`` for each data row, lazily.

    ``columns`` is the header the file must have, or a function from the
    file's header to the header it must have. A file without that header,
    a row with another field count than the header, and a row whose cells
    ``convert`` rejects with ``ValueError`` raise ``SchemaError`` naming
    the file and the line.
    """
    rows = iter_csv(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise SchemaError(f"{path}: line 1: no header")
    want = columns(header) if callable(columns) else columns
    if header != want:
        raise SchemaError(f"{path}: line 1: header must be {','.join(want)!r}, "
                          f"got {','.join(header)!r}")

    def records():
        for line, row in rows:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                record = convert(row)
            except ValueError as exc:
                raise SchemaError(f"{path}: line {line}: {exc}") from exc
            yield line, record
    return header, records()


def _read_canonical(path: str | Path, columns: list[str], name: str, parse_row, records):
    rejects = _parse_rows(path, columns, name, parse_row, records)
    if rejects:
        raise SchemaError(f"{path}: line {rejects[0].line}: {rejects[0].reason}")
    return records


def read_deals_csv(path: str | Path) -> list[DealRecord]:
    """Read back a canonical deals file; any reject is a hard error."""
    return _read_canonical(path, DEAL_COLUMNS, "deals.csv", _parse_deal_row, [])


def read_firms_csv(path: str | Path) -> dict[str, FirmMeta]:
    """Read back a canonical firms file; any reject is a hard error."""
    return _read_canonical(path, FIRM_COLUMNS, "firms.csv", _parse_firm_row, {})


# ---------------------------------------------------------------------------
# Synthetic data with planted two-regime structure
# ---------------------------------------------------------------------------

def check_field_types(cfg: Any) -> None:
    """Raise ``ConfigError`` naming the first field of dataclass ``cfg`` its annotation rejects.

    An ``int`` field takes an integer that is not a bool, a ``float`` field
    also an integer, a ``bool`` field only a bool, a ``tuple[int, int]``
    field two integers and any other class its instances; ``X | None`` also
    takes None.
    """
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _fits(value, hints[f.name]):
            raise ConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")


def _fits(value: Any, hint: Any) -> bool:
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, value, args))
    if args:  # X | None
        return any(_fits(value, a) for a in args)
    return (isinstance(value, {int: Integral, float: Real}.get(hint, hint))
            and isinstance(value, bool) == (hint is bool))


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the seeded synthetic deal generator.

    A fraction ``high_regime_fraction`` of firms is planted in a high
    funding regime: they raise more rounds, attract more investors per
    round (preferentially the hub investors), draw larger amounts, and
    exit with probability ``exit_rate_high`` instead of
    ``exit_rate_low``. Downstream clustering and the backtest are
    expected to recover exactly this structure.
    """

    n_firms: int
    n_investors: int
    n_subsectors: int
    year_range: tuple[int, int]
    high_regime_fraction: float
    seed: int
    amount_log_mean: float = 13.0
    amount_log_sd: float = 1.0
    exit_rate_high: float = 0.8
    exit_rate_low: float = 0.04

    def __post_init__(self) -> None:
        check_field_types(self)
        if min(self.n_firms, self.n_investors, self.n_subsectors) < 1:
            raise ConfigError("n_firms, n_investors and n_subsectors must all be >= 1")
        start, end = self.year_range
        if start > end:
            raise ConfigError(f"year_range start {start} exceeds end {end}")
        if not 0.0 < self.high_regime_fraction < 1.0:
            raise ConfigError("high_regime_fraction must lie in (0, 1)")
        if not (0.0 <= self.exit_rate_low <= 1.0 and 0.0 <= self.exit_rate_high <= 1.0):
            raise ConfigError("exit rates must lie in [0, 1]")
        if self.amount_log_sd <= 0:
            raise ConfigError("amount_log_sd must be positive")


@dataclass
class SyntheticDataset:
    deals: list[DealRecord]
    firms: dict[str, FirmMeta]
    planted_regimes: dict[str, str]  # firm_id -> HIGH | LOW


def write_synthetic(ds: SyntheticDataset, directory: Path) -> None:
    """Write ``deals.csv``, ``firms.csv`` (by firm id) and ``planted_regimes.csv``."""
    write_deals(ds.deals, directory / "deals.csv")
    write_firms([ds.firms[f] for f in sorted(ds.firms)], directory / "firms.csv")
    write_csv(directory / "planted_regimes.csv", ["firm_id", "regime"],
              ([firm, ds.planted_regimes[firm]] for firm in sorted(ds.planted_regimes)))


# Regime-specific shape constants of the generator. High-regime firms get
# more rounds, more (and better-connected) investors and a multiplicative
# amount boost; these gaps are what the trajectory clustering must find.
_LAMBDA_ROUNDS = {"HIGH": 3.5, "LOW": 1.1}
_AMOUNT_BOOST = {"HIGH": 1.8, "LOW": 0.0}
_HUB_SHARE = 20          # one hub investor per 20 investors
_FOLLOW_ON_SPAN = 10     # follow-on rounds land within 10 years of the first


def generate_synthetic(cfg: SyntheticConfig) -> SyntheticDataset:
    """Generate a seeded synthetic deal history with planted regimes.

    Output is a pure function of ``cfg``. Every firm receives at least
    one round; the second round of any multi-round firm lands within
    four years of the first so that trajectory eligibility does not
    depend on the window size.
    """
    rng = np.random.default_rng(cfg.seed)
    start, end = cfg.year_range

    firm_ids = [f"F{i:05d}" for i in range(cfg.n_firms)]
    investor_ids = [f"I{j:05d}" for j in range(cfg.n_investors)]
    # A few ids appear on both sides of the market (dual-role nodes).
    n_both = min(cfg.n_firms, cfg.n_investors) // 50
    for k in range(n_both):
        investor_ids[cfg.n_investors - 1 - k] = firm_ids[k]
    n_hubs = max(1, cfg.n_investors // _HUB_SHARE)

    subsectors = [f"S{k + 1:02d}" for k in range(cfg.n_subsectors)]
    first_year_span = max(0, (end - start) - _FOLLOW_ON_SPAN)

    deals: list[DealRecord] = []
    firms: dict[str, FirmMeta] = {}
    regimes: dict[str, str] = {}

    for firm in firm_ids:
        regime = "HIGH" if rng.random() < cfg.high_regime_fraction else "LOW"
        regimes[firm] = regime
        subsector = subsectors[int(rng.integers(0, cfg.n_subsectors))]
        first_year = start + int(rng.integers(0, first_year_span + 1))
        horizon = min(_FOLLOW_ON_SPAN, end - first_year)

        n_rounds = 1 + int(rng.poisson(_LAMBDA_ROUNDS[regime]))
        offsets = [0]
        if n_rounds >= 2 and horizon >= 1:
            offsets.append(int(rng.integers(1, min(4, horizon) + 1)))
            for _ in range(n_rounds - 2):
                offsets.append(int(rng.integers(1, horizon + 1)))
        offsets.sort()

        for r, off in enumerate(offsets):
            when = Date(first_year + off, int(rng.integers(1, 13)), int(rng.integers(1, 29)))
            round_id = f"{firm}-R{r:02d}"
            if regime == "HIGH":
                count = 2 + int(rng.binomial(3, 0.4))
            else:
                count = 1 + int(rng.binomial(2, 0.25))
            picks = _draw_round_investors(rng, investor_ids, n_hubs, count, hub_first=regime == "HIGH")
            for inv in picks:
                raw = math.exp(rng.normal(cfg.amount_log_mean + _AMOUNT_BOOST[regime], cfg.amount_log_sd))
                deals.append(DealRecord(firm, inv, round_id, when, max(1, int(round(raw)))))

        exit_rate = cfg.exit_rate_high if regime == "HIGH" else cfg.exit_rate_low
        if rng.random() < exit_rate:
            status = ("ACQUIRED", "IPO", "MERGED")[int(rng.integers(0, 3))]
            exit_year = first_year + int(rng.integers(2, 7))
            status_date = Date(exit_year, int(rng.integers(1, 13)), int(rng.integers(1, 29)))
        else:
            status = "ACTIVE" if rng.random() < 0.85 else "INACTIVE"
            status_date = None
        firms[firm] = FirmMeta(firm, subsector, "US", status, status_date)

    return SyntheticDataset(deals, firms, regimes)


def _draw_round_investors(rng: np.random.Generator, pool: list[str], n_hubs: int,
                          count: int, hub_first: bool) -> list[str]:
    """Draw ``count`` distinct investors; optionally guarantee one hub."""
    count = min(count, len(pool))
    picks: list[str] = []
    if hub_first and count >= 1:
        picks.append(pool[int(rng.integers(0, n_hubs))])
    while len(picks) < count:
        cand = pool[int(rng.integers(0, len(pool)))]
        if cand not in picks:
            picks.append(cand)
    return picks
