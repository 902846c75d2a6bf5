"""Market data containers: discount curves, CDS quotes, schedules, config.

File formats are deliberately plain text so fixtures stay diffable:

* curve CSV     -- ``tenor_years,value`` rows preceded by a ``# mode=rate``
                   or ``# mode=df`` header; rate mode means continuously
                   compounded zeros, DF = exp(-z*T).  An optional ``# r0=``
                   header carries the observed short rate.
* quotes CSV    -- ``tenor_years,bid_bps,ask_bps[,mid_bps]`` rows; optional
                   ``# currency=`` / ``# valuation=YYYY-MM-DD`` headers.
                   Missing mid defaults to (bid+ask)/2.
* config        -- flat ``key=value`` lines (recovery, frequency_months,
                   roll, day_count, quad_nodes, order, valuation); ``#``
                   lines are comments.  Every key, CSV headers included,
                   is lower-cased, and a key given twice is an error.

Fixed-roll coupons fall on the 20th of every month m where 12 - m is a
multiple of ``frequency_months``: Jun/Dec 20 at the default 6 months,
the IMM months Mar/Jun/Sep/Dec at 3.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MarketDataError",
    "DiscountCurve",
    "CdsQuoteSet",
    "PricingConfig",
    "Schedule",
    "load_discount_curve",
    "load_cds_quotes",
    "load_pricing_config",
    "build_schedule",
    "add_months",
]


class MarketDataError(ValueError):
    """Malformed or inconsistent market input."""


# --------------------------------------------------------------------------
# Discount curve
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscountCurve:
    """Discount factors on an ascending tenor grid (years).

    Factors above 1 are accepted (negative-rate curves) up to a sanity cap
    of 1.5.  The observed short rate, when given, must be finite and
    non-negative: it is the initial state of a square-root factor.  No
    interpolation is offered: the calibration only ever reads the quoted
    pillars.
    """

    tenors: tuple[float, ...]
    dfs: tuple[float, ...]
    short_rate: float | None = None

    def __post_init__(self):
        if len(self.tenors) == 0:
            raise MarketDataError("discount curve is empty")
        if len(self.tenors) != len(self.dfs):
            raise MarketDataError("tenor/df length mismatch")
        prev = -math.inf
        for t, p in zip(self.tenors, self.dfs):
            if not (math.isfinite(t) and math.isfinite(p)):
                raise MarketDataError("non-finite curve entry")
            if t < 0.0:
                raise MarketDataError(f"negative tenor {t}")
            if t <= prev:
                raise MarketDataError(f"tenors not strictly ascending at {t}")
            prev = t
            if not (0.0 < p <= 1.5):
                raise MarketDataError(f"discount factor {p} at {t}y outside (0, 1.5]")
            if t == 0.0 and abs(p - 1.0) > 1e-12:
                raise MarketDataError("discount factor at t=0 must be 1")
        r0 = self.short_rate
        if r0 is not None and not (math.isfinite(r0) and r0 >= 0.0):
            raise MarketDataError(f"short rate r0 must be finite and non-negative, got {r0}")

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.tenors), np.asarray(self.dfs)


def _put_key_value(items: dict[str, str], line: str, where: str) -> str:
    """Store a ``key=value`` line under its lower-cased key and return the key.

    The one rule for CSV headers, config and params: a repeated key is an error.
    """
    key, _, val = line.partition("=")
    key = key.strip().lower()
    if key in items:
        raise MarketDataError(f"{where}: repeated key {key!r}")
    items[key] = val.strip()
    return key


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise MarketDataError(f"non-numeric value {token!r} in {where}") from None


def _parse_date(token: str, where: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(token)
    except ValueError:
        raise MarketDataError(f"{where}: bad valuation date") from None


def _read_csv(path, kind: str, widths: tuple[int, ...]):
    """A CSV file's ``# key=value`` headers and a generator of its data rows.

    Other ``#`` lines are comments, a ``tenor``/``tenor_years`` row a column
    header.  The generator yields ``(where, floats)`` for rows of one of
    ``widths`` numeric cells and raises on any other row or when there is
    none; it runs only when iterated, so a loader checks headers first.
    """
    meta: dict[str, str] = {}
    data = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    _put_key_value(meta, body, f"{kind} {path}:{ln_no}")
            elif line:
                cells = [c.strip() for c in line.split(",")]
                if cells[0].lower() not in ("tenor_years", "tenor"):
                    data.append((f"{path}:{ln_no}", cells))

    def rows():
        if not data:
            raise MarketDataError(f"{kind} {path}: no data rows")
        for where, cells in data:
            if len(cells) not in widths:
                expected = " or ".join(map(str, widths))
                raise MarketDataError(f"{kind} {where}: expected {expected} columns")
            yield where, [_parse_float(c, where) for c in cells]

    return meta, rows()


def load_discount_curve(path) -> DiscountCurve:
    """Read a curve CSV in the mode its ``# mode=`` header names."""
    meta, rows = _read_csv(path, "curve", (2,))
    mode = meta.get("mode", "").lower()
    if mode not in ("rate", "df"):
        raise MarketDataError(f"curve {path}: mode must be 'rate' or 'df', got {mode!r}")
    tenors, values = [], []
    for where, (t, v) in rows:
        if t in tenors:
            raise MarketDataError(f"curve {where}: duplicate tenor {t}")
        tenors.append(t)
        values.append(v)
    order = np.argsort(tenors)
    tenors = [tenors[i] for i in order]
    dfs = [values[i] for i in order]
    if mode == "rate":  # the values are zero rates
        for i, (t, z) in enumerate(zip(tenors, dfs)):
            try:
                dfs[i] = math.exp(-z * t)
            except OverflowError:
                raise MarketDataError(
                    f"curve {path}: rate {z} at {t}y overflows its discount factor"
                ) from None
    r0 = _parse_float(meta["r0"], f"{path} header r0") if "r0" in meta else None
    return DiscountCurve(tenors=tuple(tenors), dfs=tuple(dfs), short_rate=r0)


# --------------------------------------------------------------------------
# CDS quotes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CdsQuoteSet:
    """Bid/ask/mid CDS spreads in basis points on ascending tenors."""

    tenors: tuple[float, ...]
    bid_bps: tuple[float, ...]
    ask_bps: tuple[float, ...]
    mid_bps: tuple[float, ...]
    currency: str = "USD"
    valuation: _dt.date | None = None

    def __post_init__(self):
        n = len(self.tenors)
        if n == 0:
            raise MarketDataError("quote set is empty")
        if not (len(self.bid_bps) == len(self.ask_bps) == len(self.mid_bps) == n):
            raise MarketDataError("quote column length mismatch")
        prev = 0.0
        for t, b, a, m in zip(self.tenors, self.bid_bps, self.ask_bps, self.mid_bps):
            if not math.isfinite(t):
                raise MarketDataError(f"non-finite tenor {t}")
            if t <= prev:
                raise MarketDataError(f"tenors not strictly ascending/positive at {t}")
            prev = t
            if not (b > 0.0 and math.isfinite(b) and math.isfinite(a) and math.isfinite(m)):
                raise MarketDataError(f"bad quote at tenor {t}")
            if a < b:
                raise MarketDataError(f"ask below bid at tenor {t}")
            if a > b:
                if not (b - 1e-9 <= m <= a + 1e-9):
                    raise MarketDataError(f"mid outside bid/ask at tenor {t}")
            elif abs(m - b) > 1e-9:
                raise MarketDataError(f"mid must equal bid when bid == ask (tenor {t})")


def load_cds_quotes(path) -> CdsQuoteSet:
    meta, rows = _read_csv(path, "quotes", (3, 4))
    tenors, bids, asks, mids = zip(*(
        (t, b, a, rest[0] if rest else 0.5 * (b + a)) for _, (t, b, a, *rest) in rows
    ))
    valuation = _parse_date(meta["valuation"], f"quotes {path}") if "valuation" in meta else None
    return CdsQuoteSet(
        tenors=tenors,
        bid_bps=bids,
        ask_bps=asks,
        mid_bps=mids,
        currency=meta.get("currency", "USD"),
        valuation=valuation,
    )


# --------------------------------------------------------------------------
# Pricing configuration
# --------------------------------------------------------------------------

_CONFIG_KEYS = {
    "recovery", "frequency_months", "roll", "day_count", "quad_nodes", "order", "valuation",
}


@dataclass(frozen=True)
class PricingConfig:
    recovery: float = 0.40
    frequency_months: int = 6
    roll: str = "fixed"
    day_count: str = "act360"
    quad_nodes: int = 32
    order: int = 2
    valuation: _dt.date | None = None

    def __post_init__(self):
        if not (0.0 <= self.recovery < 1.0):
            raise MarketDataError(f"recovery must be < 1 and >= 0, got {self.recovery}")
        if not (isinstance(self.frequency_months, int) and self.frequency_months > 0):
            raise MarketDataError("frequency_months must be a positive integer")
        if 12 % self.frequency_months != 0:
            raise MarketDataError(
                f"frequency_months must divide a year cleanly, got {self.frequency_months}"
            )
        if self.roll not in ("fixed", "anniversary"):
            raise MarketDataError(f"unknown roll rule {self.roll!r}")
        if self.day_count not in ("act360", "act365"):
            raise MarketDataError(f"unknown day count {self.day_count!r}")
        if self.quad_nodes < 8:
            raise MarketDataError("quad_nodes must be >= 8")
        if self.order not in (0, 1, 2):
            raise MarketDataError("order must be 0, 1 or 2")


def _read_key_values(path, kind: str, keys) -> dict[str, str]:
    """Lower-cased keys and their values in file order; ``#`` lines are comments."""
    items: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MarketDataError(f"{kind} {path}:{ln_no}: expected key=value")
            key = _put_key_value(items, line, f"{kind} {path}:{ln_no}")
            if key not in keys:
                raise MarketDataError(f"{kind} {path}: unknown key {key!r}")
    return items


def load_pricing_config(path) -> PricingConfig:
    kw: dict = {}
    for key, val in _read_key_values(path, "config", _CONFIG_KEYS).items():
        if key == "recovery":
            kw[key] = _parse_float(val, f"{path} recovery")
        elif key in ("frequency_months", "quad_nodes", "order"):
            try:
                kw[key] = int(val)
            except ValueError:
                raise MarketDataError(f"config {path}: {key} must be an integer") from None
        elif key == "valuation":
            kw[key] = _parse_date(val, f"config {path}")
        else:
            kw[key] = val
    return PricingConfig(**kw)


# --------------------------------------------------------------------------
# Premium schedules
# --------------------------------------------------------------------------

def add_months(d: _dt.date, months: int) -> _dt.date:
    """Calendar-month shift with end-of-month day clamping.

    A date past 9999-12-31 is a :class:`MarketDataError`.
    """
    y, m0 = divmod(d.month - 1 + months, 12)
    year, month = d.year + y, m0 + 1
    if year > _dt.MAXYEAR:
        raise MarketDataError(f"{months} months after {d} is past {_dt.date.max}")
    day = min(d.day, calendar.monthrange(year, month)[1])
    return _dt.date(year, month, day)


def _year_fraction(d1: _dt.date, d2: _dt.date, day_count: str) -> float:
    days = (d2 - d1).days
    return days / 360.0 if day_count == "act360" else days / 365.0


@dataclass(frozen=True)
class Schedule:
    """Premium payment grid: times in years from valuation, t0 = 0 implicit."""

    times: tuple[float, ...]
    dates: tuple[_dt.date, ...] | None = None

    def __post_init__(self):
        if not self.times:
            raise MarketDataError("schedule has no payment dates")
        prev = 0.0
        for t in self.times:
            if not t > prev:
                raise MarketDataError("payment times must be strictly increasing and > 0")
            prev = t

    @property
    def accruals(self) -> tuple[float, ...]:
        """Year fraction of each period (times[i-1], times[i]]."""
        return tuple(t - p for t, p in zip(self.times, (0.0,) + self.times[:-1]))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``times`` and ``accruals`` as read-only float arrays, built once."""
        out = np.array(self.times, dtype=float), np.array(self.accruals, dtype=float)
        for a in out:
            a.flags.writeable = False
        return out


def _roll_dates_after(start: _dt.date, frequency_months: int) -> "iter":
    """Yield fixed-roll dates strictly after ``start``, ascending, up to 9999.

    The frequency divides 12, so the months m with 12 - m a multiple of it
    are its multiples.
    """
    for year in range(start.year, _dt.MAXYEAR + 1):
        for month in range(frequency_months, 13, frequency_months):
            d = _dt.date(year, month, 20)
            if d > start:
                yield d


def _past_last_date(valuation: _dt.date, tenor_years: float) -> MarketDataError:
    return MarketDataError(
        f"a {tenor_years:g}y schedule from {valuation} runs past {_dt.date.max}"
    )


def build_schedule(valuation: _dt.date | None, tenor_years: float, config: PricingConfig) -> Schedule:
    """Build the premium schedule for one CDS maturity.

    Fixed-roll mode places payments on the 20th of the roll months (see the
    module docstring) and extends the final payment to the first roll date
    at or beyond valuation+tenor; it requires a valuation date.  Anniversary
    mode steps in multiples of
    the payment frequency from valuation; without a valuation date it works
    on an abstract year-fraction grid.  A tenor that is not positive and
    finite, dates past 9999-12-31, or an undated tenor longer than any
    dated schedule can run (9999 years) are a :class:`MarketDataError`.
    """
    if not 0.0 < tenor_years < math.inf:
        raise MarketDataError(f"tenor must be positive and finite, got {tenor_years}")
    if valuation is None and tenor_years > _dt.MAXYEAR:
        raise MarketDataError(
            f"an undated schedule runs at most {_dt.MAXYEAR} years, got {tenor_years:g}"
        )
    # a tenor a year longer than the days left runs past them on every rule;
    # the checks below find the exact limit
    if valuation is not None and (tenor_years - 1.0) * 365.0 > (_dt.date.max - valuation).days:
        raise _past_last_date(valuation, tenor_years)
    fm = config.frequency_months
    if config.roll == "anniversary":
        if valuation is None:
            delta = fm / 12.0
            n_full = int(math.floor(tenor_years / delta + 1e-9))
            times = [k * delta for k in range(1, n_full + 1)]
            if not times or times[-1] < tenor_years - 1e-9:
                times.append(tenor_years)
            return Schedule(times=tuple(times))
        months_total = tenor_years * 12.0
        if abs(months_total - round(months_total)) > 1e-9:
            raise MarketDataError("dated anniversary schedules need whole-month tenors")
        months_total = int(round(months_total))
        end = add_months(valuation, months_total)
        dates = [add_months(valuation, k) for k in range(fm, months_total + 1, fm)]
        if not dates or dates[-1] < end:
            dates.append(end)
    else:
        if valuation is None:
            raise MarketDataError("fixed-roll schedules need a valuation date")
        months_total = tenor_years * 12.0
        if abs(months_total - round(months_total)) < 1e-9:
            nominal_end = add_months(valuation, int(round(months_total)))
        else:
            days = round(tenor_years * 365)
            if days > (_dt.date.max - valuation).days:
                raise _past_last_date(valuation, tenor_years)
            nominal_end = valuation + _dt.timedelta(days=days)
        dates = []
        for d in _roll_dates_after(valuation, fm):
            dates.append(d)
            if d >= nominal_end:
                break
        else:
            raise _past_last_date(valuation, tenor_years)
    times = [_year_fraction(valuation, d, config.day_count) for d in dates]
    return Schedule(times=tuple(times), dates=tuple(dates))
