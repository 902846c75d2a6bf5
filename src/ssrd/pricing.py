"""CDS leg valuation under the two-factor square-root model.

Values are per unit notional at time 0.  With short rate r and default
intensity lam, the loss leg of a contract maturing at T pays (1 - recovery)
at the default time if it lands in (0, T]; its value is

    (1 - recovery) * int_0^T E[exp(-int_0^s (r+lam)) lam_s] ds
    = (1 - recovery) * int_0^T h(s) ds,

h being the expansion engine's terminal-intensity transform.  The premium
leg per unit of running spread collects the coupons,

    sum_i dt_i * E[exp(-int_0^{t_i} (r+lam))] = sum_i dt_i * v(t_i),

plus the accrued coupon paid at default,

    int_0^T h(s) (s - t_prev(s)) ds,

where t_prev(s) is the last payment time before s.  The accrual factor has
a kink at every payment date, so the time integrals run on the expansion
engine's own Gauss-Legendre grid laid over the coupon dates: its gaps are
the panels, no panel straddles a payment date, and doubling the node count
refines every period in place.  A period longer than the grid's decay
scale 1/(alpha1 + alpha2) is cut into several equal gaps.

Each leg is a running integral on that grid, read at a contract's last
payment date, so every quote of a strip on one coupon grid shares one
sweep; only the grid knows how a coupon period splits into gaps.  The par
spread is the ratio of the two legs.  It is quoted as a decimal (multiply
by 1e4 for basis points) and is exactly zero at full recovery.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cir import CirParams, cir_bond, cir_bond_dT, feller_margin
from .expansion import ModelParams, _expand, _warn_anchor
from .market import PricingConfig, Schedule, build_schedule
from .timeint import panel_nodes

__all__ = [
    "LegValues",
    "price_cds",
    "spread_curve",
    "spread_ladder",
    "uncorrelated_spread",
]


@dataclass(frozen=True)
class LegValues:
    """Both legs of a CDS and the par spread they imply.

    protection  loss-leg value per unit notional, loss-given-default included
    annuity     premium leg per unit spread: coupons plus accrual-on-default,
                in year units (positive for any nonempty schedule)
    spread      protection / annuity, decimal
    """

    protection: float
    annuity: float
    spread: float


def _warn_feller(params: ModelParams) -> None:
    # the margin needs no state, so a negative r0 is priced too
    p = params
    for name, alpha, beta, sigma in (("rate", p.alpha1, p.beta1, p.sigma1),
                                     ("intensity", p.alpha2, p.beta2, p.sigma2)):
        if feller_margin(alpha, beta, sigma) < 0.0:
            warnings.warn(
                f"{name} factor violates 2*alpha*beta >= sigma^2; the zero "
                "boundary is attainable and expansion accuracy may degrade",
                RuntimeWarning,
                stacklevel=3,
            )


def _legs(
    params: ModelParams, schedule: Schedule, config: PricingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Protection and annuity of the contract truncated at every coupon date.

    Entry i prices the contract ending at payment date t_i: the protection
    (1 - recovery) int_0^{t_i} h ds, and the annuity int_0^{t_i} h(s) (s -
    t_prev(s)) ds + sum_{j <= i} dt_j v(t_j).  One expansion call gives h at
    the grid's nodes and v at the dates, each order's rows summed from the
    left.  Both integrals are running integrals on that grid, whose
    ``offsets`` are s - t_prev(s) at every node; they take h with any
    leading axes, and one call reads both.
    """
    times, accruals = schedule._arrays
    grid, v, h = _expand(params, times, config.order, config.quad_nodes)
    n = grid.nodes.size
    integrands = np.empty((2,) + grid.nodes.shape)
    integrands[0] = sum(h[1:], h[0])[:n].reshape(grid.nodes.shape)
    np.multiply(integrands[0], grid.offsets, out=integrands[1])
    prot, acc = grid.at_points(integrands)
    coupons = np.cumsum(accruals * sum(v[1:], v[0])[n:], axis=-1)
    return (1.0 - config.recovery) * prot, acc + coupons


def _strip(valuation, tenors, config: PricingConfig) -> tuple[Schedule, list[int]] | None:
    """Longest schedule and each tenor's prefix length on it; None off one grid."""
    schedules = [build_schedule(valuation, float(T), config) for T in tenors]
    longest = max(schedules, key=lambda s: len(s.times))
    if not all(s.times == longest.times[:len(s.times)] for s in schedules):
        return None
    return longest, [len(s.times) for s in schedules]


def price_cds(params: ModelParams, schedule: Schedule, config: PricingConfig) -> LegValues:
    """Value both legs of one contract and return the par spread.

    The expansion order and nodes-per-panel come from ``config``; when the
    params carry a matched rate volatility it is used automatically by the
    expansion engine.  A Feller violation on either factor, or a state
    anchor floored under correlation, gets a warning, not an error -- the
    expansion stays well defined, only its accuracy claim weakens.  Empty
    or nonpositive schedules cannot be constructed, so the schedule type
    itself guards those error cases.
    """
    _warn_feller(params)
    _warn_anchor(params, config.order)
    prot, annuity = _legs(params, schedule, config)
    protection, annuity = float(prot[-1]), float(annuity[-1])
    return LegValues(protection=protection, annuity=annuity, spread=protection / annuity)


def spread_ladder(
    params: ModelParams,
    schedule: Schedule,
    prefix_lengths,
    config: PricingConfig,
) -> np.ndarray:
    """Par spreads for contracts that are coupon-grid prefixes of ``schedule``.

    ``prefix_lengths[k]`` is the number of leading coupon periods in the
    k-th contract.  One expansion evaluation covers the whole family, and
    each leg's running integral is read at every prefix end.  The grid's gaps
    never straddle a coupon date and its running integrals read only
    earlier gaps, so each entry is bit-identical to ``price_cds`` on the
    prefix schedule.  This is the hot path of the spread calibration loop
    and deliberately skips the Feller and state-anchor warnings: callers
    exploring the parameter space meet both at trial points, and handle
    Feller via their own penalty.
    """
    last = np.asarray(prefix_lengths, dtype=int) - 1
    if last.size and (last.min() < 0 or last.max() >= len(schedule.times)):
        raise ValueError("prefix length outside the coupon grid")
    prot, annuity = _legs(params, schedule, config)
    return prot[..., last] / annuity[..., last]


def spread_curve(
    params: ModelParams, tenors, config: PricingConfig
) -> list[tuple[float, float]]:
    """Par spreads for a list of tenors, in the order given.

    Schedules are built from ``config`` (valuation date, roll convention,
    day count).  When every schedule is a prefix of the longest one -- the
    normal case for a quote strip on a common roll cycle -- all tenors are
    priced from one ladder; otherwise each tenor is a ladder of its own.
    """
    tenor_list = [float(T) for T in tenors]
    if not tenor_list:
        return []
    _warn_feller(params)
    _warn_anchor(params, config.order)
    strip = _strip(config.valuation, tenor_list, config)
    if strip is not None:
        spreads = spread_ladder(params, *strip, config)
    else:
        spreads = [spread_ladder(params, *_strip(config.valuation, [T], config), config)[0]
                   for T in tenor_list]
    return list(zip(tenor_list, (float(s) for s in spreads)))


def uncorrelated_spread(params: ModelParams, schedule: Schedule, config: PricingConfig) -> float:
    """Par spread for independent factors, from exact one-factor bond formulas.

    At zero correlation the joint expectations factorise: the loss-leg
    integrand is P(0,s) * (-d/ds Q)(0,s) and each coupon carries
    P(0,t_i) * Q(0,t_i), with P and Q the closed-form square-root bond
    prices.  No series expansion enters anywhere, which makes this an
    independent cross-check of ``price_cds``; its panels are the coupon
    periods, which are the pricing grid's gaps unless a period is cut, so
    any difference between the two isolates the expansion error.  The
    rate factor uses the same volatility the expansion engine would (the
    matched value when present).
    """
    if params.rho != 0.0:
        raise ValueError("exact factorisation requires zero correlation")
    rate = CirParams(params.alpha1, params.beta1, params.sigma1_active, params.r0)
    hazard = params.intensity_leg()

    times, accruals = schedule._arrays
    breaks = np.concatenate(([0.0], times))
    nodes, weights = panel_nodes(breaks, config.quad_nodes)

    density = weights * cir_bond(rate, 0.0, nodes) * (-cir_bond_dT(hazard, 0.0, nodes))
    prot = float(np.sum(density))
    acc = float(np.sum(density * (nodes - breaks[:-1, None])))
    coup = float(np.sum(accruals * cir_bond(rate, 0.0, times) * cir_bond(hazard, 0.0, times)))
    return (1.0 - config.recovery) * prot / (acc + coup)
