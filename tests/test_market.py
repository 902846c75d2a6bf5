"""Market-data loaders, pricing config, and premium schedules."""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import replace

import pytest

from ssrd.market import (
    CdsQuoteSet,
    DiscountCurve,
    MarketDataError,
    PricingConfig,
    Schedule,
    add_months,
    build_schedule,
    load_cds_quotes,
    load_discount_curve,
    load_pricing_config,
)
from ssrd.pricing import _strip

# --------------------------------------------------------------------------
# Discount curve
# --------------------------------------------------------------------------


def test_curve_rate_mode_converts_to_discount_factors(tmp_path):
    p = tmp_path / "curve.csv"
    p.write_text("# mode=rate\n# r0=0.021\ntenor_years,value\n1.0,0.02\n5.0,0.03\n")
    curve = load_discount_curve(p)
    assert curve.short_rate == 0.021
    assert curve.tenors == (1.0, 5.0)
    assert curve.dfs[0] == pytest.approx(math.exp(-0.02 * 1.0), rel=1e-15)
    assert curve.dfs[1] == pytest.approx(math.exp(-0.03 * 5.0), rel=1e-15)


def test_curve_df_mode_and_sorting(tmp_path):
    p = tmp_path / "curve.csv"
    p.write_text("# mode=df\n3.0,0.91\n1.0,0.97\n")
    curve = load_discount_curve(p)
    assert curve.tenors == (1.0, 3.0)
    assert curve.dfs == (0.97, 0.91)
    assert curve.short_rate is None


def test_curve_save_load_round_trip_is_bit_exact(tmp_path):
    # A df-mode file written with repr() reloads to the identical floats.
    curve = DiscountCurve(
        tenors=(0.5, 1.0, 7.0),
        dfs=(0.9901490802344368, 0.9803973440089097, 0.8693582353988059),
        short_rate=0.0198,
    )
    p = tmp_path / "out.csv"
    p.write_text(f"# mode=df\n# r0={curve.short_rate!r}\ntenor_years,value\n"
                 + "".join(f"{t!r},{d!r}\n" for t, d in zip(curve.tenors, curve.dfs)))
    back = load_discount_curve(p)
    assert back.tenors == curve.tenors
    assert back.dfs == curve.dfs  # exact equality, repr round trip
    assert back.short_rate == curve.short_rate


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("1.0,0.97\n", "mode"),  # no mode header at all
        ("# mode=zzz\n1.0,0.97\n", "mode"),
        ("# mode=df\n", "no data rows"),
        ("# mode=df\n1.0,0.97\n1.0,0.96\n", "duplicate"),
        ("# mode=df\n1.0,0.97,9\n", "2 columns"),
        ("# mode=df\n1.0,abc\n", "non-numeric"),
        ("# mode=df\n1.0,1.7\n", "outside"),
        ("# mode=df\n0.0,0.99\n", "must be 1"),
        ("# mode=df\n-1.0,0.99\n", "negative tenor"),
        ("# mode=df\n# r0=-0.01\n1.0,0.99\n", r"r0 must be finite and non-negative, got -0\.01"),
        ("# mode=df\n# r0=nan\n1.0,0.99\n", "r0 must be finite"),
        ("# mode=rate\n10,-100\n", r"rate -100\.0 at 10\.0y overflows"),
        ("# mode=df\n# r0=0.01\n1.0,0.99\n# R0=0.02\n", r"curve .*:4: repeated key 'r0'"),
    ],
)
def test_curve_loader_rejects_malformed_files(tmp_path, body, fragment):
    p = tmp_path / "curve.csv"
    p.write_text(body)
    with pytest.raises(MarketDataError, match=fragment):
        load_discount_curve(p)


def test_curve_accepts_negative_rate_factors_above_one():
    curve = DiscountCurve(tenors=(1.0,), dfs=(1.002,))
    assert curve.dfs == (1.002,)


# --------------------------------------------------------------------------
# CDS quotes
# --------------------------------------------------------------------------


def test_quotes_three_columns_mid_defaults_to_midpoint(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text("# currency=EUR\n# valuation=2004-03-10\n1.0,20.0,22.0\n2.0,30.0,31.0\n")
    q = load_cds_quotes(p)
    assert q.currency == "EUR"
    assert q.valuation == dt.date(2004, 3, 10)
    assert q.mid_bps == (21.0, 30.5)


def test_quotes_fourth_column_overrides_midpoint(tmp_path):
    p = tmp_path / "quotes.csv"
    p.write_text("1.0,20.0,24.0,21.5\n")
    q = load_cds_quotes(p)
    assert q.mid_bps == (21.5,)
    assert q.currency == "USD" and q.valuation is None


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("1.0,20.0\n", "3 or 4"),
        ("1.0,22.0,20.0\n", "ask below bid"),
        ("1.0,20.0,22.0,30.0\n", "outside bid/ask"),
        ("1.0,20.0,22.0\n1.0,21.0,23.0\n", "ascending"),
        ("-1.0,20.0,22.0\n", "ascending"),
        ("1.0,-5.0,22.0\n", "bad quote"),
        ("# valuation=notadate\n1.0,20.0,22.0\n", "valuation"),
        ("", "no data rows"),
        ("1.0,20.0,22.0\nnan,30.0,31.0\n", "non-finite tenor"),
        ("1.0,20.0,22.0\ninf,30.0,31.0\n", "non-finite tenor"),
        ("# valuation=2004-03-10\n# valuation=2004-03-11\n1.0,20.0,22.0\n",
         r"quotes .*:2: repeated key 'valuation'"),
    ],
)
def test_quotes_loader_rejects_malformed_files(tmp_path, body, fragment):
    p = tmp_path / "quotes.csv"
    p.write_text(body)
    with pytest.raises(MarketDataError, match=fragment):
        load_cds_quotes(p)


@pytest.mark.parametrize(
    "loader,body,message",
    [
        # headers are judged before rows, rows in file order, "no data rows"
        # after the rows, then the header values, then the loaded object
        (load_discount_curve, "", "curve {p}: mode must be 'rate' or 'df', got ''"),
        (load_discount_curve, "x,y,z\n", "curve {p}: mode must be 'rate' or 'df', got ''"),
        (load_discount_curve, "# mode=df\n# r0=abc\ntenor,value\n", "curve {p}: no data rows"),
        (load_discount_curve, "# mode=df\n1.0,0.9,9\n1.0,abc\n",
         "curve {p}:2: expected 2 columns"),
        (load_discount_curve, "# mode=df\n1.0,0.9\n1.0,0.8\n2.0,abc\n",
         "curve {p}:3: duplicate tenor 1.0"),
        (load_discount_curve, "# mode=df\n# r0=abc\n1.0,1.7\n",
         "non-numeric value 'abc' in {p} header r0"),
        (load_discount_curve, "# mode=rate\n# r0=abc\n10,-100\n",
         "curve {p}: rate -100.0 at 10.0y overflows its discount factor"),
        (load_cds_quotes, "# valuation=bad\ntenor,bid,ask\n", "quotes {p}: no data rows"),
        (load_cds_quotes, "# valuation=bad\n1.0,x,22.0\n1.0,20.0\n",
         "non-numeric value 'x' in {p}:2"),
        (load_cds_quotes, "# valuation=bad\n1.0,22.0,20.0\n", "quotes {p}: bad valuation date"),
    ],
)
def test_loaders_report_the_first_error_in_a_fixed_order(tmp_path, loader, body, message):
    p = tmp_path / "input.csv"
    p.write_text(body)
    with pytest.raises(MarketDataError) as exc:
        loader(p)
    assert str(exc.value) == message.format(p=p)


def test_quotes_equal_bid_ask_requires_equal_mid():
    q = CdsQuoteSet(tenors=(1.0,), bid_bps=(20.0,), ask_bps=(20.0,), mid_bps=(20.0,))
    assert q.mid_bps == (20.0,)
    with pytest.raises(MarketDataError, match="mid must equal bid"):
        CdsQuoteSet(tenors=(1.0,), bid_bps=(20.0,), ask_bps=(20.0,), mid_bps=(21.0,))


# --------------------------------------------------------------------------
# Pricing config
# --------------------------------------------------------------------------


def test_config_defaults():
    cfg = PricingConfig()
    assert cfg.recovery == 0.40
    assert cfg.frequency_months == 6
    assert cfg.roll == "fixed"
    assert cfg.day_count == "act360"
    assert cfg.quad_nodes == 32
    assert cfg.order == 2


def test_config_file_round_trip(tmp_path):
    # '#' lines are comments, never settings, whatever they look like
    p = tmp_path / "config.txt"
    body = ("recovery=0.25\nfrequency_months=3\nroll=anniversary\nday_count=act365\n"
            "quad_nodes=48\norder=1\nvaluation=2004-03-10\n")
    for comments in ("", "# order=0\n# tuned so x=1\n"):
        p.write_text(comments + body)
        cfg = load_pricing_config(p)
        assert cfg.recovery == 0.25
        assert cfg.frequency_months == 3
        assert cfg.roll == "anniversary"
        assert cfg.day_count == "act365"
        assert cfg.quad_nodes == 48
        assert cfg.order == 1
        assert cfg.valuation == dt.date(2004, 3, 10)


def test_config_rejects_full_recovery_with_explicit_message():
    with pytest.raises(MarketDataError, match="recovery must be < 1"):
        PricingConfig(recovery=1.0)
    with pytest.raises(MarketDataError, match="recovery must be < 1"):
        PricingConfig(recovery=-0.1)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("spread=3\n", "unknown key"),
        ("recovery=abc\n", "non-numeric"),
        ("order=two\n", "integer"),
        ("recovery\n", "key=value"),
    ],
)
def test_config_loader_rejects_malformed_files(tmp_path, body, fragment):
    p = tmp_path / "config.txt"
    p.write_text(body)
    with pytest.raises(MarketDataError, match=fragment):
        load_pricing_config(p)


def test_config_validation():
    with pytest.raises(MarketDataError):
        PricingConfig(order=3)
    with pytest.raises(MarketDataError):
        PricingConfig(quad_nodes=4)
    with pytest.raises(MarketDataError):
        PricingConfig(roll="imm")
    with pytest.raises(MarketDataError):
        PricingConfig(day_count="30/360")
    with pytest.raises(MarketDataError):
        PricingConfig(frequency_months=0)


def test_config_frequency_must_divide_a_year():
    # checked when the config is built, whatever the roll rule
    for roll in ("fixed", "anniversary"):
        for months in (5, 7, 24):
            with pytest.raises(MarketDataError, match="divide a year"):
                PricingConfig(roll=roll, frequency_months=months)
    for months in (1, 2, 3, 4, 6, 12):
        PricingConfig(frequency_months=months)


def test_config_loader_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "config.txt"
    p.write_text("order=1\n# order=0\nORDER=2\n")
    with pytest.raises(MarketDataError, match=r"config .*:3: repeated key 'order'"):
        load_pricing_config(p)


def test_config_with_overrides_returns_new_instance():
    cfg = PricingConfig()
    other = replace(cfg, order=1, quad_nodes=64)
    assert (other.order, other.quad_nodes) == (1, 64)
    assert (cfg.order, cfg.quad_nodes) == (2, 32)


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------


def test_anniversary_schedule_abstract_grid():
    cfg = PricingConfig(roll="anniversary")
    sched = build_schedule(None, 3.0, cfg)
    assert sched.times == tuple(0.5 * k for k in range(1, 7))
    assert sched.accruals == (0.5,) * 6
    assert sched.times[-1] == 3.0


def test_anniversary_schedule_stub_for_fractional_tenor():
    cfg = PricingConfig(roll="anniversary")
    sched = build_schedule(None, 1.25, cfg)
    assert sched.times == (0.5, 1.0, 1.25)
    assert sched.accruals == (0.5, 0.5, 0.25)


def test_anniversary_schedule_with_dates_uses_day_count():
    cfg = PricingConfig(roll="anniversary", day_count="act360")
    val = dt.date(2004, 3, 10)
    sched = build_schedule(val, 1.0, cfg)
    assert sched.dates == (dt.date(2004, 9, 10), dt.date(2005, 3, 10))
    expected = tuple((d - val).days / 360.0 for d in sched.dates)
    assert sched.times == pytest.approx(expected, abs=0)


def test_fixed_roll_schedule_lands_on_configured_days():
    cfg = PricingConfig(roll="fixed", day_count="act360")
    val = dt.date(2004, 3, 10)
    sched = build_schedule(val, 1.0, cfg)
    assert sched.dates == (
        dt.date(2004, 6, 20),
        dt.date(2004, 12, 20),
        dt.date(2005, 6, 20),
    )
    assert sched.times == tuple((d - val).days / 360.0 for d in sched.dates)
    assert sched.times[0] == pytest.approx(102 / 360.0)


def test_fixed_roll_dates_follow_the_coupon_frequency():
    # the 20th of every month m with 12 - m a multiple of frequency_months
    val = dt.date(2024, 3, 1)

    def dates(months):
        cfg = PricingConfig(roll="fixed", frequency_months=months, valuation=val)
        return build_schedule(val, 2.0, cfg).dates

    def on_20th(*year_months):
        return tuple(dt.date(y, m, 20) for y, m in year_months)

    assert dates(3) == on_20th((2024, 3), (2024, 6), (2024, 9), (2024, 12), (2025, 3),
                               (2025, 6), (2025, 9), (2025, 12), (2026, 3))
    assert dates(6) == on_20th((2024, 6), (2024, 12), (2025, 6), (2025, 12), (2026, 6))
    assert dates(12) == on_20th((2024, 12), (2025, 12), (2026, 12))
    monthly = dates(1)
    assert len(monthly) == 25 and monthly[0] == dt.date(2024, 3, 20)
    assert all(d.day == 20 for d in monthly)


def test_fixed_roll_schedule_from_the_first_year():
    # the roll dates start in the valuation year itself; year 0 does not exist
    val = dt.date(1, 1, 1)
    cfg = PricingConfig(roll="fixed", valuation=val)
    assert build_schedule(val, 1.0, cfg).dates == (
        dt.date(1, 6, 20), dt.date(1, 12, 20), dt.date(2, 6, 20))


def test_fixed_roll_schedule_act365():
    cfg = PricingConfig(roll="fixed", day_count="act365")
    val = dt.date(2004, 3, 10)
    sched = build_schedule(val, 0.5, cfg)
    assert sched.times == tuple((d - val).days / 365.0 for d in sched.dates)


def test_fixed_roll_requires_valuation_date():
    cfg = PricingConfig(roll="fixed")
    with pytest.raises(MarketDataError, match="valuation date"):
        build_schedule(None, 1.0, cfg)


def test_schedule_rejects_nonpositive_tenor():
    cfg = PricingConfig(roll="anniversary")
    with pytest.raises(MarketDataError):
        build_schedule(None, 0.0, cfg)
    with pytest.raises(MarketDataError):
        build_schedule(None, -1.0, cfg)
    # nor an undated one longer than any dated schedule can run
    assert build_schedule(None, 9999.0, cfg).times[-1] == 9999.0
    for tenor in (9999.5, 1e6, 1e300):
        with pytest.raises(MarketDataError, match="undated schedule runs at most 9999 years"):
            build_schedule(None, tenor, cfg)
    # nor a non-finite one, on any roll, dated or not
    for roll, valuation in (("anniversary", None), ("anniversary", dt.date(2004, 3, 10)),
                            ("fixed", dt.date(2004, 3, 10))):
        for tenor in (math.nan, math.inf):
            with pytest.raises(MarketDataError, match="positive and finite"):
                build_schedule(valuation, tenor, PricingConfig(roll=roll))
    # nor one whose dates run past 9999-12-31, which is exactly where it stops
    val = dt.date(2024, 1, 1)
    for roll in ("fixed", "anniversary"):
        cfg = PricingConfig(roll=roll, valuation=val)
        assert build_schedule(val, 7975.5, cfg).dates[-1].year == 9999
        for tenor in (7976.0, 8000.0, 1e300):
            with pytest.raises(MarketDataError, match="past 9999-12-31"):
                build_schedule(val, tenor, cfg)
    fixed = PricingConfig(roll="fixed", valuation=val)
    with pytest.raises(MarketDataError, match="past 9999-12-31"):
        build_schedule(val, 8000.3, fixed)  # off whole months
    late = dt.date(2024, 12, 25)  # nominal end 9999-12-25, after the last roll date
    with pytest.raises(MarketDataError, match="past 9999-12-31"):
        build_schedule(late, 7975.0, fixed)


def test_dated_anniversary_needs_whole_month_tenor():
    cfg = PricingConfig(roll="anniversary")
    with pytest.raises(MarketDataError, match="whole-month"):
        build_schedule(dt.date(2004, 3, 10), 1.3, cfg)


def test_add_months_clamps_to_month_end():
    assert add_months(dt.date(2004, 1, 31), 1) == dt.date(2004, 2, 29)
    assert add_months(dt.date(2003, 1, 31), 1) == dt.date(2003, 2, 28)
    assert add_months(dt.date(2004, 11, 30), 3) == dt.date(2005, 2, 28)


def test_schedule_prefix_relation():
    # a strip prices on its longest schedule when every other one is a prefix of it
    cfg = PricingConfig(roll="anniversary")
    long = build_schedule(None, 5.0, cfg)
    assert _strip(None, [2.0, 5.0], cfg) == (long, [4, 10])
    assert _strip(None, [5.0, 2.0], cfg) == (long, [10, 4])
    assert _strip(None, [2.0, 2.0], cfg) == (build_schedule(None, 2.0, cfg), [4, 4])
    assert _strip(None, [2.25, 5.0], cfg) is None

    val = dt.date(2004, 3, 10)
    fixed = PricingConfig(roll="fixed", valuation=val)
    longest, ends = _strip(val, [1.0, 3.0, 5.0], fixed)
    assert longest == build_schedule(val, 5.0, fixed)
    assert ends == [len(build_schedule(val, t, fixed).times) for t in (1.0, 3.0, 5.0)]


def test_schedule_validation():
    with pytest.raises(MarketDataError):
        Schedule(times=())
    with pytest.raises(MarketDataError):
        Schedule(times=(1.0, 0.5))
    with pytest.raises(MarketDataError):
        Schedule(times=(0.0, 0.5))
    assert Schedule(times=(0.5, 1.0, 1.25)).accruals == (0.5, 0.5, 0.25)
    times, accruals = Schedule(times=(1, 2, 3))._arrays  # whole-year times
    assert times.dtype == accruals.dtype == float
    assert times.tolist() == [1.0, 2.0, 3.0] and accruals.tolist() == [1.0, 1.0, 1.0]
