"""Certified-rate function stack.

The chain goes: an uncertainty exponent for one round, its worst case over
the unknown failure parameter, the per-round entropy rate after subtracting
the failure allowance, and finally the accumulated min-entropy bound over N
rounds with the smoothing penalty.  All logarithms are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .xorgames import GameConstants

LN2 = float(np.log(2.0))
SQRT2 = float(np.sqrt(2.0))

DELTA_GRID_STEP = 1e-4
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def uncertainty_exponent(eps, delta):
    """The two-argument exponent governing one round (symmetric in delta
    about 1/2): 1 - ((1+2e)/e) * log[(1-d)^(1/(1+2e)) + d^(1/(1+2e))].

    Vectorized over both arguments.
    """
    eps = np.asarray(eps, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(eps <= 0) or np.any(eps > 1):
        raise ValueError("first argument must lie in (0, 1]")
    if np.any(delta < 0) or np.any(delta > 1):
        raise ValueError("second argument must lie in [0, 1]")
    d = np.minimum(delta, 1.0 - delta)
    # (1-d)^a - 1 + d^a, written as ((1-d)^a - (1-d)) + (d^a - d) so the
    # leading-order terms never cancel; a - 1 = -2e/(1+2e)
    am1 = -2.0 * eps / (1.0 + 2.0 * eps)
    logd = np.log(np.where(d > 0, d, 1.0))
    sum_m1 = (1.0 - d) * np.expm1(am1 * np.log1p(-d)) \
        + np.where(d > 0, d * np.expm1(am1 * logd), 0.0)
    out = 1.0 - ((1.0 + 2.0 * eps) / eps) * (np.log1p(sum_m1) / LN2)
    return out if out.ndim else float(out)


def binary_entropy(y):
    """Shannon entropy of (y, 1-y) in bits, with h(0) = h(1) = 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or np.any(y > 1):
        raise ValueError("argument must lie in [0, 1]")
    ylo = np.clip(y, 1e-300, 1.0)
    yhi = np.clip(1.0 - y, 1e-300, 1.0)
    out = -(y * np.log2(ylo) + (1.0 - y) * np.log2(yhi))
    return out if out.ndim else float(out)


def limit_exponent(y):
    """Small-test-probability limit of the exponent: 1 - 2 h(y)."""
    return 1.0 - 2.0 * binary_entropy(y)


def limit_exponent_slope(y: float) -> float:
    """Analytic derivative of the limit exponent: 2 log2(y / (1-y))."""
    if not 0 < y < 1:
        raise ValueError("slope defined on (0, 1)")
    return 2.0 * np.log2(y / (1.0 - y))


def smallest_positive_root_of_limit_exponent(tol: float = 1e-12) -> float:
    """Bisection for the positive-rate threshold of the limit exponent."""
    lo, hi = 1e-15, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if limit_exponent(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RateParams:
    """Validated parameter bundle for the rate functions."""

    v: float
    h: float
    eta: float
    q: float
    kappa: float
    r: float
    N: int = 0
    epsilon: float = SQRT2

    def __post_init__(self):
        if not 0 < self.v <= 1:
            raise ValueError("trust coefficient must lie in (0, 1]")
        if not 0 <= self.h <= 1 - self.v + 1e-12:
            raise ValueError("coin-flip coefficient must lie in [0, 1 - v]")
        if not 0 < self.eta < self.v / 2:
            raise ValueError("error tolerance must lie in (0, v/2)")
        if not 0 < self.q < 1:
            raise ValueError("test probability must lie in (0, 1)")
        if not self.kappa > 0:
            raise ValueError("failure penalty must be positive")
        if not 0 < self.r <= 1 / (self.q * self.kappa) + 1e-12:
            raise ValueError("multiplier must lie in (0, 1/(q kappa)]")
        if self.N < 0:
            raise ValueError("round count must be nonnegative")
        if not 0 < self.epsilon <= SQRT2 + 1e-12:
            raise ValueError("smoothing parameter must lie in (0, sqrt(2)]")

    @property
    def gamma(self) -> float:
        return self.r * self.q * self.kappa


def one_round_rate(v, h, q, kappa, r, t):
    """Per-round divergence-decay exponent at known failure parameter t.

    Computed in expm1/log1p form so the tiny-gamma regime keeps full
    precision.  Vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    gamma = r * q * kappa
    pi_val = uncertainty_exponent(gamma, t)
    honest = (h / 2.0) ** (1.0 + gamma) + v ** (1.0 + gamma) * t
    bracket_m1 = (1.0 - q) * np.expm1(-gamma * pi_val * LN2) \
        + q * np.expm1(-kappa * LN2) * honest
    out = -(np.log1p(bracket_m1) / LN2) / gamma
    return out if out.ndim else float(out)


def refine_grid_min(f, grid, vals) -> float:
    """Minimum of f from its values on a sorted grid.

    Golden-section search refines the grid minimum over its two neighbouring
    cells; no unimodality is assumed, the grid is taken to be fine enough
    that the true minimum lies in those cells.
    """
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    # a bracket below 1 closes to 1e-12 within 58 golden steps
    for _ in range(80):
        if b - a < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return float(min(vals[i], fc, fd))


def worst_case_rate(v, h, q, kappa, r,
                    grid_step: float = DELTA_GRID_STEP) -> float:
    """Minimum of the one-round rate over the failure parameter, by a dense
    grid refined with :func:`refine_grid_min`."""
    ts = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    return refine_grid_min(
        lambda t: float(one_round_rate(v, h, q, kappa, r, t)),
        ts, one_round_rate(v, h, q, kappa, r, ts))


def optimal_multiplier(v: float, eta: float, q: float, kappa: float) -> float:
    """The balancing multiplier: min of v over the negated limit slope and
    the domain cap 1/(q kappa)."""
    slope = limit_exponent_slope(eta / v)
    return min(v / (-slope), 1.0 / (q * kappa))


def rate_T_E(v: float, h: float, eta: float, q: float, kappa: float):
    """Per-round rate coefficient and smoothing-penalty coefficient.

    The rate subtracts the failure allowance (h/2 + eta)/r from the worst
    case one-round exponent at the balancing multiplier; the penalty
    coefficient is 2/r.
    """
    if not 0 < eta < v / 2:
        raise ValueError("error tolerance must lie in (0, v/2)")
    if not (0 < q < 1 and kappa > 0):
        raise ValueError("test probability must lie in (0, 1) and the "
                         "failure penalty must be positive")
    r = optimal_multiplier(v, eta, q, kappa)
    delta = worst_case_rate(v, h, q, kappa, r)
    t_val = -(h / 2.0 + eta) / r + delta
    e_val = 2.0 / r
    return float(t_val), float(e_val)


@dataclass(frozen=True)
class RateReport:
    """Certified min-entropy bound with every parameter that produced it."""

    T_value: float
    E_value: float
    bound: float
    params: RateParams
    game: GameConstants

    def __post_init__(self):
        penalty = (np.log2(SQRT2 / self.params.epsilon)
                   / (self.params.q * self.params.kappa)) * self.E_value
        expected = self.params.N * self.T_value - penalty
        if not np.isclose(self.bound, expected, rtol=1e-9, atol=1e-6):
            raise ValueError("bound inconsistent with its parameters")

    def to_record(self) -> dict:
        return {
            "T": self.T_value,
            "E": self.E_value,
            "bound": self.bound,
            "v": self.params.v,
            "h": self.params.h,
            "eta": self.params.eta,
            "q": self.params.q,
            "kappa": self.params.kappa,
            "r": self.params.r,
            "N": self.params.N,
            "epsilon": self.params.epsilon,
            "game_qG": self.game.qG,
            "game_vG_lower": self.game.vG_lower,
        }


def certified_bound(game: GameConstants, N: int, q: float, eta: float,
                    kappa: float, epsilon: float) -> RateReport:
    """Accumulated smooth min-entropy bound: N*T - (log(sqrt(2)/eps)/(q kappa))*E.

    The game enters through its trust coefficient lower bound and twice its
    least failing probability.
    """
    if game.classification != "strong-self-test" or game.vG_lower <= 0:
        raise ValueError("bound requires a strong self-test with positive trust bound")
    if not 0 < eta < game.vG_lower / 2:
        raise ValueError(
            f"error tolerance must lie in (0, {game.vG_lower / 2}), got {eta}")
    v, h = game.vG_lower, 2.0 * game.fG
    t_val, e_val = rate_T_E(v, h, eta, q, kappa)
    r = optimal_multiplier(v, eta, q, kappa)
    penalty = (np.log2(SQRT2 / epsilon) / (q * kappa)) * e_val
    bound = N * t_val - penalty
    params = RateParams(v=v, h=h, eta=eta, q=q, kappa=kappa, r=r, N=N,
                        epsilon=epsilon)
    return RateReport(T_value=t_val, E_value=e_val, bound=float(bound),
                      params=params, game=game)


def maximize_bound(game: GameConstants, N: int, eta: float, epsilon: float,
                   q_grid=None, kappa_grid=None) -> RateReport:
    """Grid search for (q, kappa) maximizing the certified bound."""
    q_grid = q_grid if q_grid is not None else np.geomspace(1e-4, 0.5, 18)
    kappa_grid = kappa_grid if kappa_grid is not None else np.geomspace(1e-3, 30.0, 18)
    best = None
    for q in q_grid:
        for kappa in kappa_grid:
            rep = certified_bound(game, N, float(q), eta, float(kappa), epsilon)
            if best is None or rep.bound > best.bound:
                best = rep
    return best


TUNE_GRID = tuple(sorted(
    {c * 10.0 ** (-k) for k in range(1, 7) for c in (1.0, 3.0)}))


@dataclass(frozen=True)
class TuneResult:
    q0: float
    kappa0: float
    b: float
    K: float
    rate: float
    E_cap: float

    def soundness_error(self, q: float, N: int) -> float:
        return self.K * 2.0 ** (-self.b * q * N)


def tune_parameters(game: GameConstants, eta: float, delta: float,
                    Nrange=None) -> TuneResult:
    """Find test-probability and penalty scales certifying rate pi(eta/v) - delta.

    Searches the coarse grid {1e-k, 3e-k} for a corner (q0, kappa0) below
    which every grid point keeps the per-round rate within delta/2 of the
    limit; the error exponent is then b = delta*kappa0/(2M) with M the
    penalty-coefficient cap over that corner region, and the prefactor is
    sqrt(2) from the smoothing construction.
    """
    v, h = game.vG_lower, 2.0 * game.fG
    target = limit_exponent(eta / v)
    if not target - delta > 0:
        raise InfeasibleError(
            f"limit rate {target:.4f} does not exceed the slack {delta}")
    grid = TUNE_GRID
    n = len(grid)
    t_table = np.empty((n, n))
    e_table = np.empty((n, n))
    for i, q in enumerate(grid):
        for j, kappa in enumerate(grid):
            t_table[i, j], e_table[i, j] = rate_T_E(v, h, eta, q, kappa)
    best = None
    for i in range(n):
        for j in range(n):
            region_t = t_table[: i + 1, : j + 1]
            if np.min(region_t) < target - delta / 2:
                continue
            m_cap = float(np.max(e_table[: i + 1, : j + 1]))
            b = delta * grid[j] / (2.0 * m_cap)
            cand = TuneResult(q0=grid[i], kappa0=grid[j], b=b, K=SQRT2,
                              rate=target - delta, E_cap=m_cap)
            if best is None or cand.b > best.b:
                best = cand
    if best is None:
        raise InfeasibleError("no grid corner achieves the requested rate slack")
    return best


def feasible(game: GameConstants, eta: float, delta: float) -> bool:
    """Whether tune_parameters succeeds for the given slack."""
    try:
        tune_parameters(game, eta, delta)
        return True
    except InfeasibleError:
        return False
