"""Certified-rate function stack.

The chain goes: an uncertainty exponent for one round, its worst case over
the unknown failure parameter, the per-round entropy rate after subtracting
the failure allowance, and finally the accumulated min-entropy bound over N
rounds with the smoothing penalty.  All logarithms are base 2.

The searches run in lanes.  A lane is one (v, h, q, kappa, r) parameter
set; :func:`worst_case_rate` and :func:`rate_T_E` take arrays of lanes.  The
two grid searches evaluate exactly only the lanes that can decide their
answer: :func:`tune_parameters` the first row of its corner table, and
:func:`maximize_bound` the lanes whose upper bound, from the rate at a few
probe points, can reach the best bound found.  The public functions check
their lanes once, in :func:`_checked_lanes`, and then call the unvalidated
kernels :func:`_lane` and :func:`_rate`.

:func:`worst_case_rate` fills each lane's rate over the dense
failure-parameter grid, which is built once per process, on first use
(:func:`_failure_grid`).  The refinement of each lane's grid minimum then
runs in :func:`golden_section_lanes`: each lane walks the recursion a few
steps per round, and a round makes one kernel call over the points of
every lane still running.

Every lane equals the one-lane search bit for bit.  Elementwise
arithmetic is correctly rounded whatever the array's length or strides, and
numpy's log, log1p and expm1 give the same value for a point whether it
comes alone or inside an array.  ``np.power`` on an array can round
differently from scalar ``**``, so each lane's powers are taken on scalars.
The golden-section bracket arithmetic runs on Python floats, lane by lane.
The tests check the lanes against the sequential search by ``==``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, check_domain
from .xorgames import GameConstants

LN2 = float(np.log(2.0))
SQRT2 = float(np.sqrt(2.0))

DELTA_GRID_STEP = 1e-4
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# golden-section steps per round of a walk: 2**4 - 1 = 15 points per lane
_GOLDEN_DEPTH = 4
# maximize_bound probes every _PROBE_STRIDE-th grid point of each lane, and
# refines lanes _PRUNE_BATCH at a time until the next lane's upper bound
# falls below the best bound by more than _PRUNE_MARGIN of it
_PROBE_STRIDE = 100
_PRUNE_BATCH = 4
_PRUNE_MARGIN = 1e-9


def _exponent_coefficients(eps):
    """The two factors of the exponent that depend on eps alone: a - 1 =
    -2e/(1+2e) and (1+2e)/e."""
    return -2.0 * eps / (1.0 + 2.0 * eps), (1.0 + 2.0 * eps) / eps


def _delta_terms(delta) -> tuple:
    """The parts of the exponent that depend on delta alone, so a grid
    shared by many eps computes them once.

    Where d = min(delta, 1 - delta) is 0, log d is taken at 1, so that
    d * expm1(am1 log d) reads 0 * expm1(-0.0) = -0.0, the term's limit (its
    sign is lost in the sum that follows)."""
    d = np.minimum(delta, 1.0 - delta)
    return d, np.log(np.where(d > 0, d, 1.0)), np.log1p(-d), 1.0 - d


def _interior_terms(t) -> tuple:
    """:func:`_delta_terms` at points strictly inside (0, 1), such as
    golden-section points: there d > 0, and log d needs no guard."""
    d = np.minimum(t, 1.0 - t)
    return d, np.log(d), np.log1p(-d), 1.0 - d


def _exponent(am1, scale, delta_terms):
    """The exponent from its eps factors and its delta terms, without
    validation."""
    d, logd, log1p_neg_d, one_minus_d = delta_terms
    # (1-d)^a - 1 + d^a, written as ((1-d)^a - (1-d)) + (d^a - d) so the
    # leading-order terms never cancel
    sum_m1 = one_minus_d * np.expm1(am1 * log1p_neg_d) \
        + d * np.expm1(am1 * logd)
    return 1.0 - scale * (np.log1p(sum_m1) / LN2)


def uncertainty_exponent(eps, delta):
    """The two-argument exponent governing one round (symmetric in delta
    about 1/2): 1 - ((1+2e)/e) * log[(1-d)^(1/(1+2e)) + d^(1/(1+2e))].

    Vectorized over both arguments: arrays broadcast, and two Python
    numbers give a float.  Two numbers are checked and evaluated as
    floats, by the same kernel with the same names and messages, without
    building arrays; each result equals its element of the array call.
    """
    if isinstance(eps, (int, float)) and isinstance(delta, (int, float)):
        eps, delta = float(eps), float(delta)
        check_domain("eps", eps, "eps")
        check_domain("delta", delta, "probability")
        return float(_exponent(*_exponent_coefficients(eps), _delta_terms(delta)))
    eps = np.asarray(eps, dtype=float)
    delta = np.asarray(delta, dtype=float)
    check_domain("eps", eps, "eps")
    check_domain("delta", delta, "probability")
    out = _exponent(*_exponent_coefficients(eps), _delta_terms(delta))
    return out if out.ndim else float(out)


def binary_entropy(y):
    """Shannon entropy of (y, 1-y) in bits, with h(0) = h(1) = 0."""
    y = np.asarray(y, dtype=float)
    check_domain("y", y, "probability")
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
        check_domain("q", self.q, "q")
        check_domain("kappa", self.kappa, "kappa")
        if not 0 < self.r <= 1 / (self.q * self.kappa) + 1e-12:
            raise ValueError("multiplier must lie in (0, 1/(q kappa)]")
        check_domain("N", self.N, "nonnegative")
        if not 0 < self.epsilon <= SQRT2 + 1e-12:
            raise ValueError("smoothing parameter must lie in (0, sqrt(2)]")


def _lane(v, h, q, kappa, r) -> tuple:
    """The factors of the one-round rate that depend on one (v, h, q, kappa,
    r) lane alone, from scalar arithmetic in the order of the closed form.

    Scalar ``**`` and ``np.power`` on an array can round differently, so
    the powers stay per lane."""
    gamma = r * q * kappa
    return (*_exponent_coefficients(gamma), gamma, 1.0 - q,
            q * np.expm1(-kappa * LN2), (h / 2.0) ** (1.0 + gamma),
            v ** (1.0 + gamma))


def _rate(am1, scale, gamma, pass_weight, test_weight, honest0, honest1, t,
          t_terms):
    """The one-round rate at t from the factors of :func:`_lane` and
    ``_delta_terms(t)``, without validation.  The factors are scalars or
    arrays that broadcast against t."""
    e_gamma = np.expm1(-gamma * _exponent(am1, scale, t_terms) * LN2)
    bracket_m1 = pass_weight * e_gamma + test_weight * (honest0 + honest1 * t)
    return -(np.log1p(bracket_m1) / LN2) / gamma


def one_round_rate(v, h, q, kappa, r, t):
    """Per-round divergence-decay exponent at known failure parameter t:

        -log2((1-q)·2^(-γ·X(t))
              + q·(1 - (1 - 2^-κ)·((h/2)^(1+γ) + v^(1+γ)·t))) / γ,

    with γ = r·q·κ and X(t) = uncertainty_exponent(γ, t), the uncertainty
    exponent at ε = γ and δ = t.

    Computed in expm1/log1p form so the tiny-gamma regime keeps full
    precision.  Vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    check_domain("t", t, "probability")
    lanes, shape = _checked_lanes(v, h, q, kappa, r)
    if shape:
        raise ValueError("v, h, q, kappa and r must be scalars: one lane")
    out = _rate(*lanes[0], t, _delta_terms(t))
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


def _golden_walk(a: float, b: float, floor: float):
    """The golden-section recursion on one bracket, as a generator that
    yields the points it needs next and is sent their values, and returns
    min(floor, f(c), f(d)).

    It asks first for f(c) and f(d), then for the points the next
    _GOLDEN_DEPTH steps can reach: they depend only on the bracket (see
    :func:`_golden_points`), so they are evaluated together and each step
    then looks its value up."""
    g, depth = float(_GOLDEN), _GOLDEN_DEPTH
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = yield [c, d]
    steps = 0
    # a bracket below 1 closes to 1e-12 within 58 golden steps
    while not (steps == 80 or b - a < 1e-12):
        vals = yield _golden_points(a, b, c, d, fc < fd, depth)
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
    naming the lane of points[k].  Every lane is a :func:`_golden_walk`,
    _GOLDEN_DEPTH steps per round; each round makes one call of f on the
    points of every walk still running and sends each walk its values.
    One lane array serves every round until a walk ends or the walks ask
    for a new number of points, so f may reuse what it derives from it.
    """
    walks = [_golden_walk(*x)
             for x in zip(map(float, a), map(float, b), map(float, floor))]
    out = np.empty(len(walks))
    asks = {k: next(walk) for k, walk in enumerate(walks)}
    sizes = lane = None
    while asks:
        points, counts = [], []
        for pts in asks.values():
            points += pts
            counts.append(len(pts))
        # walks only end, so the lane array changes only with the counts
        if counts != sizes:
            sizes, lane = counts, np.repeat(list(asks), counts)
        vals = f(np.array(points), lane).tolist()
        end = 0
        for k, n in zip(list(asks), sizes):
            start, end = end, end + n
            try:
                asks[k] = walks[k].send(vals[start:end])
            except StopIteration as stop:
                del asks[k]
                out[k] = stop.value
    return out


def _grid_bracket(grid, vals) -> tuple:
    """The grid minimum and the two cells around it."""
    i = int(np.argmin(vals))
    return grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], vals[i]


def _check_rate_args(**args) -> None:
    """Reject an empty lane set, a non-finite value and a q or kappa outside
    its domain (errors.DOMAINS), naming the argument.  Each argument is an
    array, or a Python float for one lane."""
    for name, x in args.items():
        if not isinstance(x, float) and x.size == 0:
            raise ValueError(f"{name} is empty: need at least one lane")
    for name, x in args.items():
        if not (math.isfinite(x) if isinstance(x, float)
                else np.all(np.isfinite(x))):
            raise ValueError(f"{name} must be finite")
    check_domain("q", args["q"], "q")
    check_domain("kappa", args["kappa"], "kappa")


@functools.cache
def _failure_grid() -> tuple:
    """The dense failure-parameter grid and its ``_delta_terms``, built on
    first use and shared by every later search (read-only)."""
    ts = np.arange(0.0, 1.0 + DELTA_GRID_STEP / 2, DELTA_GRID_STEP)
    terms = _delta_terms(ts)
    for x in (ts, *terms):
        x.setflags(write=False)
    return ts, terms


def _checked_lanes(v, h, q, kappa, r) -> tuple:
    """The :func:`_lane` factors of every lane the arguments broadcast to,
    and the lanes' shape, once every argument is checked by name and every
    lane's gamma = r q kappa is a normal float at most 1.

    Five Python numbers are one lane, checked as floats without building
    arrays; the checks and their messages are those of the array case."""
    scalar = all(isinstance(x, (int, float)) for x in (v, h, q, kappa, r))
    named = {name: float(x) if scalar else np.asarray(x, dtype=float)
             for name, x in zip(("v", "h", "q", "kappa", "r"), (v, h, q, kappa, r))}
    _check_rate_args(**named)
    for name in ("v", "h"):
        if (named[name] < 0) if scalar else np.any(named[name] < 0):
            raise ValueError(f"{name} must be nonnegative")
    args = tuple(named.values()) if scalar else np.broadcast_arrays(*named.values())
    # gamma is the order of the uncertainty exponent, so it shares its domain
    check_domain("r q kappa", args[4] * args[2] * args[3], "eps")
    if scalar:
        return [_lane(*args)], ()
    lanes = [_lane(*p) for p in zip(*(x.ravel().tolist() for x in args))]
    return lanes, args[0].shape


def worst_case_rate(v, h, q, kappa, r):
    """Minimum of the one-round rate over the failure parameter, by a dense
    grid refined by golden-section search.

    Vectorized: the arguments broadcast to lanes, and the result has their
    shape (a float for scalar arguments).  Each lane fills its own rate
    grid, one lane at a time, and takes its grid minimum and bracket from
    it; :func:`golden_section_lanes` then refines every lane at once.  Each
    lane equals its one-lane search bit for bit (see the module docstring).
    """
    lanes, shape = _checked_lanes(v, h, q, kappa, r)
    ts, ts_terms = _failure_grid()
    a, b, floor = np.array([_grid_bracket(ts, _rate(*lane, ts, ts_terms))
                            for lane in lanes]).T
    factors = [np.array(x) for x in zip(*lanes)]
    gathered = [None, None]

    def rate_at(t, lane):
        # golden_section_lanes passes one lane array until it changes, so
        # the factors are gathered once per lane array; a golden-section
        # point lies strictly inside its grid bracket, so inside (0, 1)
        if gathered[0] is not lane:
            gathered[:] = lane, [x[lane] for x in factors]
        return _rate(*gathered[1], t, _interior_terms(t))

    out = golden_section_lanes(rate_at, a, b, floor)
    return out.reshape(shape) if shape else float(out[0])


def _probe_minimum(lanes) -> np.ndarray:
    """Each lane's least one-round rate over every _PROBE_STRIDE-th point
    of the failure grid, all lanes in one array call.

    A probe point is a grid point, so its value is at least the lane's grid
    minimum, which is at least its :func:`worst_case_rate`."""
    ts, ts_terms = _failure_grid()
    ts, ts_terms = ts[::_PROBE_STRIDE], [x[::_PROBE_STRIDE] for x in ts_terms]
    factors = [np.array(x)[:, None] for x in zip(*lanes)]
    return np.min(_rate(*factors, ts, ts_terms), axis=1)


def optimal_multiplier(v: float, eta: float, q, kappa):
    """The balancing multiplier: min of v over the negated limit slope and
    the domain cap 1/(q kappa).  Vectorized over q and kappa."""
    slope = limit_exponent_slope(eta / v)
    # a q kappa that underflows gets an infinite cap; the lane check then
    # rejects its r q kappa by name
    with np.errstate(divide="ignore", over="ignore"):
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


def _first_max_pruned(upper, exact) -> int:
    """The index of the first strict maximum of the exact values, from
    upper bounds on them and ``exact(indices)``, which returns the exact
    values at an array of indices.

    Lanes are taken in decreasing upper-bound order, _PRUNE_BATCH at a
    time, until the next upper bound lies below best - _PRUNE_MARGIN *
    max(|best|, 1), best being the largest exact value so far.  Every lane
    left out is then strictly below best, so the first strict maximum in
    index order among the lanes taken is the first strict maximum of all.
    The margin keeps a lane whose upper bound a rounding put just below its
    exact value, so a lane that ties is never left out.
    """
    upper = np.asarray(upper, dtype=float)
    order = np.argsort(-upper, kind="stable")
    values, best = {}, -np.inf
    for start in range(0, len(order), _PRUNE_BATCH):
        if upper[order[start]] < best - _PRUNE_MARGIN * max(abs(best), 1.0):
            break
        batch = order[start:start + _PRUNE_BATCH]
        vals = exact(batch)
        values.update(zip(batch.tolist(), vals))
        best = max(best, *vals)
    first = min(values)
    for i in sorted(values):
        if values[i] > values[first]:
            first = i
    return first


def maximize_bound(game: GameConstants, N: int, eta: float, epsilon: float,
                   q_grid=None, kappa_grid=None) -> RateReport:
    """Grid search for (q, kappa) maximizing the certified bound.

    The report is built for the first strict maximum with q outer and kappa
    inner, as :func:`certified_bound` pair by pair would find it.  Every
    lane is checked as :func:`rate_T_E` checks it, then bounded from above
    by :func:`_probe_minimum`: t_val and the bound are monotone in the rate
    minimum, so a probe value in its place bounds the lane's bound.  Only
    the lanes whose upper bound can reach the best bound are refined
    exactly (:func:`_first_max_pruned`), by :func:`rate_T_E` calls that
    give each lane the bits one call over the whole grid gives it.
    """
    q_grid = q_grid if q_grid is not None else np.geomspace(1e-4, 0.5, 18)
    kappa_grid = kappa_grid if kappa_grid is not None else np.geomspace(1e-3, 30.0, 18)
    for name, grid in (("q_grid", q_grid), ("kappa_grid", kappa_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} is empty")
    pairs = [(float(q), float(kappa)) for q in q_grid for kappa in kappa_grid]
    v, h = _rate_inputs(game, eta)
    qs, kappas = (np.array(x) for x in zip(*pairs))
    _check_rate_args(q=qs, kappa=kappas)
    r = optimal_multiplier(v, eta, qs, kappas)
    lanes, _ = _checked_lanes(v, h, qs, kappas, r)
    upper = float(N) * (-(h / 2.0 + eta) / r + _probe_minimum(lanes)) \
        - _penalty(qs, kappas, epsilon, 2.0 / r)
    exact = {}

    def bounds(idx):
        t_vals, e_vals = rate_T_E(v, h, eta, qs[idx], kappas[idx])
        exact.update(zip(idx.tolist(), zip(t_vals.tolist(), e_vals.tolist())))
        return (float(N) * t_vals
                - _penalty(qs[idx], kappas[idx], epsilon, e_vals)).tolist()

    best = _first_max_pruned(upper, bounds)
    q, kappa = pairs[best]
    return _report(game, N, q, eta, kappa, epsilon, *exact[best])


TUNE_GRID = tuple(sorted(
    {c * 10.0 ** (-k) for k in range(1, 7) for c in (1.0, 3.0)}))


@dataclass(frozen=True)
class TuneResult:
    q0: float
    kappa0: float
    b: float
    E_cap: float


def tune_parameters(game: GameConstants, eta: float, delta: float) -> TuneResult:
    """Find test-probability and penalty scales certifying rate pi(eta/v) - delta.

    Searches the coarse grid {1e-k, 3e-k} for a corner (q0, kappa0) below
    which every grid point keeps the per-round rate within delta/2 of the
    limit; the error exponent is then b = delta*kappa0/(2M) with M the
    penalty-coefficient cap over that corner region, for a soundness error
    of sqrt(2)·2^(-b·q·N), the sqrt(2) from the smoothing construction
    (cross_feed's 2^(0.5 - b·q·N)).  The corners are scanned q
    outer and kappa inner, the best replaced only by a strictly larger b.

    Only the first row, q0 = TUNE_GRID[0], is evaluated.  The region of
    corner (i, j) contains the region of corner (0, j), so M(i, j) >=
    M(0, j), and for delta >= 0 fl(delta kappa_j / (2M)) does not grow with
    M, so b(i, j) <= b(0, j).  If (i, j) is feasible so is (0, j), which
    the scan reaches first; so no corner past row 0 replaces the best, the
    result lies in row 0, and the search is infeasible exactly when row 0
    is.  A delta < 0 asks every region, and so corner (0, 0), for a rate
    above both the limit and half of it, which the tests find on no corner
    of either game: both scans are then infeasible.
    """
    v, h = game.vG_lower, 2.0 * game.fG
    target = limit_exponent(eta / v)
    if not target - delta > 0:
        raise InfeasibleError(
            f"limit rate {target:.4f} does not exceed the slack {delta}")
    grid = TUNE_GRID
    t_row, e_row = rate_T_E(v, h, eta, np.full(len(grid), grid[0]), grid)
    best = None
    for j, kappa in enumerate(grid):
        if np.min(t_row[: j + 1]) < target - delta / 2:
            continue
        m_cap = float(np.max(e_row[: j + 1]))
        b = delta * kappa / (2.0 * m_cap)
        if best is None or b > best.b:
            best = TuneResult(q0=grid[0], kappa0=kappa, b=b, E_cap=m_cap)
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
