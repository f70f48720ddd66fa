"""Certified-rate function stack.

The chain goes: an uncertainty exponent for one round, its worst case over
the unknown failure parameter, the per-round entropy rate after subtracting
the failure allowance, and finally the accumulated min-entropy bound over N
rounds with the smoothing penalty.  All logarithms are base 2.

The searches run in lanes.  A lane is one (v, h, q, kappa, r) parameter
set; :func:`worst_case_rate` and :func:`rate_T_E` take arrays of lanes, and
:func:`maximize_bound` and :func:`tune_parameters` evaluate their whole
(q, kappa) grid in one call.  The public functions validate once and then
call the unvalidated kernels (:func:`_lane`, :func:`_gamma_factor`,
:func:`_lane_rate`).

The one-round rate splits into a factor E_gamma(t) = expm1(-gamma pi_gamma(t)
ln 2), which depends on gamma = r q kappa alone, and a per-lane remainder.
:func:`worst_case_rate` fills the dense grid of E_gamma once per distinct
gamma (equal floats only) and each lane's rate from it, so lanes that share
a gamma, as the mirrored (q, kappa) products of the tuning grid and the
lanes at the cap r = 1/(q kappa) often do, share one grid.  The refinement
of each lane's grid minimum then runs in :func:`golden_section_lanes`: a
one-lane call walks the recursion a few steps per kernel call, and two or
more lanes advance together one step per kernel call.

Every lane equals the one-lane search bit for bit.  Elementwise
arithmetic is correctly rounded whatever the array's length or strides, and
numpy's log, log1p and expm1 give the same value for a point whether it
comes alone or inside an array.  ``np.power`` on an array can round
differently from scalar ``**``, so each lane's powers are taken on scalars.
The golden-section bracket arithmetic runs on Python floats or float64
arrays, which round alike.  The tests check the lanes against the
sequential search by ``==``.
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
# golden-section steps per kernel call of a one-lane walk: 2**4 - 1 = 15 points
_GOLDEN_DEPTH = 4


def _exponent_coefficients(eps):
    """The two factors of the exponent that depend on eps alone: a - 1 =
    -2e/(1+2e) and (1+2e)/e."""
    return -2.0 * eps / (1.0 + 2.0 * eps), (1.0 + 2.0 * eps) / eps


def _delta_terms(delta) -> tuple:
    """The parts of the exponent that depend on delta alone, so a grid
    shared by many eps computes them once."""
    d = np.minimum(delta, 1.0 - delta)
    positive = d > 0
    return (d, positive, np.log(np.where(positive, d, 1.0)), np.log1p(-d),
            1.0 - d)


def _exponent(am1, scale, delta_terms):
    """The exponent from its eps factors and its delta terms, without
    validation."""
    d, positive, logd, log1p_neg_d, one_minus_d = delta_terms
    # (1-d)^a - 1 + d^a, written as ((1-d)^a - (1-d)) + (d^a - d) so the
    # leading-order terms never cancel
    sum_m1 = one_minus_d * np.expm1(am1 * log1p_neg_d) \
        + np.where(positive, d * np.expm1(am1 * logd), 0.0)
    return 1.0 - scale * (np.log1p(sum_m1) / LN2)


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
    out = _exponent(*_exponent_coefficients(eps), _delta_terms(delta))
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


def _check_gamma(gamma):
    gamma = np.asarray(gamma)
    if not np.all((0 < gamma) & (gamma <= 1)):
        raise ValueError("r q kappa must lie in (0, 1]")


def _lane(v, h, q, kappa, r) -> tuple:
    """The factors of the one-round rate that depend on one (v, h, q, kappa,
    r) lane alone, from scalar arithmetic in the order of the closed form.

    Scalar ``**`` and ``np.power`` on an array can round differently, so
    the powers stay per lane."""
    gamma = r * q * kappa
    return (*_exponent_coefficients(gamma), gamma, 1.0 - q,
            q * np.expm1(-kappa * LN2), (h / 2.0) ** (1.0 + gamma),
            v ** (1.0 + gamma))


def _gamma_factor(am1, scale, gamma, t_terms):
    """E_gamma(t) = expm1(-gamma pi_gamma(t) ln 2), the factor of the
    one-round rate that depends on gamma and t alone, from the first three
    factors of :func:`_lane` and ``_delta_terms(t)``."""
    return np.expm1(-gamma * _exponent(am1, scale, t_terms) * LN2)


def _lane_rate(gamma, pass_weight, test_weight, honest0, honest1, t, e_gamma):
    """The one-round rate at t from the last five factors of :func:`_lane`
    and E_gamma(t), without validation.  The factors are scalars or arrays
    matching t."""
    bracket_m1 = pass_weight * e_gamma + test_weight * (honest0 + honest1 * t)
    return -(np.log1p(bracket_m1) / LN2) / gamma


def _rate(am1, scale, gamma, pass_weight, test_weight, honest0, honest1, t,
          t_terms):
    """The one-round rate at t from the factors of :func:`_lane` and
    ``_delta_terms(t)``, without validation."""
    return _lane_rate(gamma, pass_weight, test_weight, honest0, honest1, t,
                      _gamma_factor(am1, scale, gamma, t_terms))


def one_round_rate(v, h, q, kappa, r, t):
    """Per-round divergence-decay exponent at known failure parameter t.

    Computed in expm1/log1p form so the tiny-gamma regime keeps full
    precision.  Vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError("failure parameter must lie in [0, 1]")
    lane = _lane(v, h, q, kappa, r)
    _check_gamma(lane[2])
    out = _rate(*lane, t, _delta_terms(t))
    return out if out.ndim else float(out)


def _golden_points(a, b, c, d, left: bool, depth: int) -> list:
    """Every point the next `depth` golden-section steps can evaluate.

    The first step's branch is known; each later step may go either way.
    Level j contributes 2**(j-1) points, node n of a level having children
    2n (left) and 2n+1 (right), so the result has 2**depth - 1 points.  The
    bracket arithmetic is that of :func:`_golden_walk`, so each
    point equals the one the step computes."""
    g = float(_GOLDEN)
    if left:
        b, d = d, c
        c = b - g * (b - a)
        points = [c]
    else:
        a, c = c, d
        d = a + g * (b - a)
        points = [d]
    level = [(a, b, c, d)]
    for j in range(1, depth):
        nxt = []
        for a, b, c, d in level:
            left_c = d - g * (d - a)
            right_d = c + g * (b - c)
            points += (left_c, right_d)
            if j < depth - 1:
                nxt += ((a, d, left_c, c), (c, b, d, right_d))
        level = nxt
    return points


def _golden_walk(f, a: float, b: float, floor: float) -> float:
    """The golden-section recursion on one bracket, _GOLDEN_DEPTH steps per
    call of f: the points those steps can reach depend only on the bracket
    (see :func:`_golden_points`), so they are evaluated together and each
    step then looks its value up."""
    g, depth = float(_GOLDEN), _GOLDEN_DEPTH
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(np.array([c, d]), np.zeros(2, dtype=int)).tolist()
    lane = np.zeros(2 ** depth - 1, dtype=int)
    steps = 0
    # a bracket below 1 closes to 1e-12 within 58 golden steps
    while not (steps == 80 or b - a < 1e-12):
        vals = f(np.array(_golden_points(a, b, c, d, fc < fd, depth)),
                 lane).tolist()
        node = 0
        for j in range(depth):
            if steps == 80 or b - a < 1e-12:
                break
            if j:
                node = 2 * node + (0 if fc < fd else 1)
            val = vals[2 ** j - 1 + node]
            if fc < fd:
                b, d, fd = d, c, fc
                c, fc = b - g * (b - a), val
            else:
                a, c, fc = c, d, fd
                d, fd = a + g * (b - a), val
            steps += 1
    return min(floor, fc, fd)


def _settle(out, idx, fc, fd) -> None:
    """out[idx] = min(out[idx], fc, fd) lane by lane, a later value winning
    only when strictly smaller, as Python's min does."""
    best = out[idx]
    best = np.where(fc < best, fc, best)
    out[idx] = np.where(fd < best, fd, best)


def golden_section_lanes(f, a, b, floor) -> np.ndarray:
    """Golden-section minimization of many brackets [a, b].

    Each lane follows the one-bracket recursion exactly: c = b - g(b - a)
    and d = a + g(b - a) with g the inverse golden ratio, a step to the
    left when f(c) < f(d) and to the right otherwise, a stop once
    b - a < 1e-12 and at most 80 steps; the lane's result is
    min(floor, f(c), f(d)) in that order, a later value winning only when
    strictly smaller.  Lanes never mix, so a lane's result does not depend
    on the others.

    f(points, lane) returns the values at a flat array of points, lane[k]
    naming the lane of points[k].  One lane is walked _GOLDEN_DEPTH steps
    per call of f (:func:`_golden_walk`).  Two or more lanes run in numpy
    lockstep: each call of f takes one point from every lane still running,
    and the bracket arithmetic runs on float64 arrays.  The two differ only
    in cost.  Lockstep pays numpy's per-call overhead once per step for all
    lanes: about five times the walk's cost on one lane, and about a
    quarter of the cost of walking 144 lanes four steps per call.
    """
    floor = np.asarray(floor, dtype=float)
    if len(floor) == 1:
        return np.array([_golden_walk(f, float(a[0]), float(b[0]),
                                      float(floor[0]))])
    g = float(_GOLDEN)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(len(floor))
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = np.split(f(np.concatenate((c, d)), np.tile(live, 2)), 2)
    out = floor.copy()
    for _ in range(80):
        done = b - a < 1e-12
        if done.any():
            _settle(out, live[done], fc[done], fd[done])
            run = ~done
            live, a, b, c, d, fc, fd = (x[run] for x in (live, a, b, c, d, fc, fd))
            if not len(live):
                return out
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        point = np.where(left, b - g * (b - a), a + g * (b - a))
        val = f(point, live)
        c, d = np.where(left, point, d), np.where(left, c, point)
        fc, fd = np.where(left, val, fd), np.where(left, fc, val)
    _settle(out, live, fc, fd)
    return out


def _grid_bracket(grid, vals) -> tuple:
    """The grid minimum and the two cells around it."""
    i = int(np.argmin(vals))
    return grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], vals[i]


def refine_grid_min(f, grid, vals) -> float:
    """Minimum of f from its values on a sorted grid.

    Golden-section search refines the grid minimum over its two neighbouring
    cells; no unimodality is assumed, the grid is taken to be fine enough
    that the true minimum lies in those cells.  This is the one-lane case
    of :func:`golden_section_lanes`: f must take an array of points, and it
    is called with the up to 2**_GOLDEN_DEPTH - 1 points that the next
    _GOLDEN_DEPTH steps can reach.
    The result equals the sequential search that evaluates one point per
    step as long as f gives a point the same value alone or in an array.
    """
    a, b, floor = _grid_bracket(grid, vals)
    return _golden_walk(lambda t, _: f(t), float(a), float(b), float(floor))


def _check_rate_args(**args) -> None:
    """Reject an empty lane set, a non-finite value, a q outside (0, 1) and
    a kappa <= 0, naming the argument."""
    for name, x in args.items():
        if x.size == 0:
            raise ValueError(f"{name} is empty: need at least one lane")
    for name, x in args.items():
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite")
    if not np.all((0 < args["q"]) & (args["q"] < 1)):
        raise ValueError("q (test probability) must lie in (0, 1)")
    if not np.all(args["kappa"] > 0):
        raise ValueError("kappa (failure penalty) must be positive")


def worst_case_rate(v, h, q, kappa, r):
    """Minimum of the one-round rate over the failure parameter, by a dense
    grid refined by golden-section search.

    Vectorized: the arguments broadcast to lanes, and the result has their
    shape (a float for scalar arguments).  The grid of E_gamma is filled
    once per distinct gamma = r q kappa; lanes are visited one gamma group
    at a time, so only that group's grid is alive, and each lane takes its
    own grid minimum and bracket from its own rate grid.
    :func:`golden_section_lanes` then refines every lane at once; each lane
    equals its one-lane search bit for bit (see the module docstring).
    """
    named = {name: np.asarray(x, dtype=float)
             for name, x in zip(("v", "h", "q", "kappa", "r"), (v, h, q, kappa, r))}
    _check_rate_args(**named)
    args = np.broadcast_arrays(*named.values())
    lanes = [_lane(*p) for p in zip(*(x.ravel().tolist() for x in args))]
    _check_gamma(np.array([lane[2] for lane in lanes]))
    ts = np.arange(0.0, 1.0 + DELTA_GRID_STEP / 2, DELTA_GRID_STEP)
    ts_terms = _delta_terms(ts)
    groups = {}
    for i, lane in enumerate(lanes):
        groups.setdefault(lane[2], []).append(i)
    a, b, floor = (np.empty(len(lanes)) for _ in range(3))
    for members in groups.values():
        e_gamma = _gamma_factor(*lanes[members[0]][:3], ts_terms)
        for i in members:
            a[i], b[i], floor[i] = _grid_bracket(
                ts, _lane_rate(*lanes[i][2:], ts, e_gamma))
    factors = [np.array(x) for x in zip(*lanes)]
    out = golden_section_lanes(
        lambda t, lane: _rate(*(x[lane] for x in factors), t, _delta_terms(t)),
        a, b, floor)
    return out.reshape(args[0].shape) if args[0].ndim else float(out[0])


def optimal_multiplier(v: float, eta: float, q, kappa):
    """The balancing multiplier: min of v over the negated limit slope and
    the domain cap 1/(q kappa).  Vectorized over q and kappa."""
    slope = limit_exponent_slope(eta / v)
    balance, cap = v / (-slope), 1.0 / (q * kappa)
    if np.ndim(cap):
        # min(balance, cap) lane by lane: cap only when strictly smaller
        return np.where(cap < balance, cap, balance)
    return min(balance, cap)


def rate_T_E(v: float, h: float, eta: float, q, kappa):
    """Per-round rate coefficient and smoothing-penalty coefficient.

    The rate subtracts the failure allowance (h/2 + eta)/r from the worst
    case one-round exponent at the balancing multiplier; the penalty
    coefficient is 2/r.  Vectorized over q and kappa: array arguments give
    arrays, every (q, kappa) lane equal to its scalar call.
    """
    if not 0 < eta < v / 2:
        raise ValueError("error tolerance must lie in (0, v/2)")
    q = np.asarray(q, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    _check_rate_args(q=q, kappa=kappa)
    r = optimal_multiplier(v, eta, q, kappa)
    delta = worst_case_rate(v, h, q, kappa, r)
    t_val = -(h / 2.0 + eta) / r + delta
    e_val = 2.0 / r
    if np.ndim(t_val):
        return t_val, e_val
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
        p = self.params
        expected = p.N * self.T_value - _penalty(p.q, p.kappa, p.epsilon,
                                                 self.E_value)
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


def _rate_inputs(game: GameConstants, eta: float) -> tuple:
    """The game's (v, h) for the rate functions, once the game and the
    error tolerance are checked."""
    if game.classification != "strong-self-test" or game.vG_lower <= 0:
        raise ValueError("bound requires a strong self-test with positive trust bound")
    if not 0 < eta < game.vG_lower / 2:
        raise ValueError(
            f"error tolerance must lie in (0, {game.vG_lower / 2}), got {eta}")
    return game.vG_lower, 2.0 * game.fG


def _penalty(q, kappa, epsilon, e_val):
    return (np.log2(SQRT2 / epsilon) / (q * kappa)) * e_val


def _report(game: GameConstants, N: int, q: float, eta: float, kappa: float,
            epsilon: float, t_val: float, e_val: float) -> RateReport:
    v, h = game.vG_lower, 2.0 * game.fG
    bound = N * t_val - _penalty(q, kappa, epsilon, e_val)
    params = RateParams(v=v, h=h, eta=eta, q=q, kappa=kappa,
                        r=optimal_multiplier(v, eta, q, kappa), N=N,
                        epsilon=epsilon)
    return RateReport(T_value=t_val, E_value=e_val, bound=float(bound),
                      params=params, game=game)


def certified_bound(game: GameConstants, N: int, q: float, eta: float,
                    kappa: float, epsilon: float) -> RateReport:
    """Accumulated smooth min-entropy bound: N*T - (log(sqrt(2)/eps)/(q kappa))*E.

    The game enters through its trust coefficient lower bound and twice its
    least failing probability.
    """
    v, h = _rate_inputs(game, eta)
    t_val, e_val = rate_T_E(v, h, eta, q, kappa)
    return _report(game, N, q, eta, kappa, epsilon, t_val, e_val)


def maximize_bound(game: GameConstants, N: int, eta: float, epsilon: float,
                   q_grid=None, kappa_grid=None) -> RateReport:
    """Grid search for (q, kappa) maximizing the certified bound.

    One :func:`rate_T_E` call evaluates every (q, kappa) pair, and the
    report is built for the winner only: the first strict maximum with q
    outer and kappa inner, as :func:`certified_bound` pair by pair would
    find it.
    """
    q_grid = q_grid if q_grid is not None else np.geomspace(1e-4, 0.5, 18)
    kappa_grid = kappa_grid if kappa_grid is not None else np.geomspace(1e-3, 30.0, 18)
    for name, grid in (("q_grid", q_grid), ("kappa_grid", kappa_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} is empty")
    pairs = [(float(q), float(kappa)) for q in q_grid for kappa in kappa_grid]
    v, h = _rate_inputs(game, eta)
    qs, kappas = (np.array(x) for x in zip(*pairs))
    t_vals, e_vals = rate_T_E(v, h, eta, qs, kappas)
    bounds = (float(N) * t_vals - _penalty(qs, kappas, epsilon, e_vals)).tolist()
    best = 0
    for i, bound in enumerate(bounds):
        if bound > bounds[best]:
            best = i
    q, kappa = pairs[best]
    return _report(game, N, q, eta, kappa, epsilon, float(t_vals[best]),
                   float(e_vals[best]))


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


def tune_parameters(game: GameConstants, eta: float, delta: float) -> TuneResult:
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
    # row i is q = grid[i], column j is kappa = grid[j]
    t_table, e_table = (x.reshape(n, n) for x in rate_T_E(
        v, h, eta, np.repeat(grid, n), np.tile(grid, n)))
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
