"""n-player binary XOR games: score polynomial, torus maximization,
self-test classification, scoring operators, and trust-coefficient
certification.

A game is a probability distribution over n-bit input strings together with
a sign for each string; the players' outputs are scored on their XOR.  All
analysis below works on the torus representation of qubit strategies: the
optimal quantum score is the maximum modulus of the game's score polynomial
over unit-length phases, and self-testing is read off the structure of the
maxima of the cosine form of that polynomial.

The optimal score is certified: a Lipschitz branch-and-bound over the torus
proves an upper bound within a stated gap of the returned value.  The trust
coefficient is a sampled estimate, not a proof.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidOperatorError, check_domain
from .matrixcore import HERMITIAN_ATOL

UNIT_ATOL = 1e-9
HESSIAN_EIG_THRESHOLD = 1e-6
_SAME_MAX_TOL = 1e-5         # two maxima agree when every angle is this close
_N_STARTS = 60               # multistart points per seed
_MAX_TOL = 1e-7              # a refined value this close to qG is a maximum
# classify_selftest draws _N_STARTS starts from each seed, refines all of
# them in one Newton walk, and compares the seeds' sets of maxima
_SELFTEST_SEEDS = (0, 1, 2)


def as_fraction(x) -> Fraction:
    """Exact rational value of a probability; floats and strings go through
    their decimal form, so 0.05 becomes 1/20."""
    return x if isinstance(x, Fraction) else Fraction(str(x))


@dataclass(frozen=True)
class XorGame:
    """An n-player binary XOR game.

    entries maps each supported n-bit input (as a tuple of ints) to a pair
    (probability, sign); probabilities are exact rationals so that protocol
    input sampling can consume seed bits through an exact arithmetic decoder.
    """

    n: int
    entries: tuple  # tuple of (input bits tuple, Fraction prob, int sign)

    def __post_init__(self):
        if not (2 <= self.n <= 4):
            raise ValueError(f"player count must be in [2, 4], got {self.n}")
        seen = set()
        total = Fraction(0)
        for bits, p, eta in self.entries:
            if len(bits) != self.n or any(b not in (0, 1) for b in bits):
                raise ValueError(f"bad input string {bits}")
            if bits in seen:
                raise ValueError(f"duplicate input {bits}")
            seen.add(bits)
            if not 0 <= p <= 1:
                raise ValueError("probabilities must lie in [0, 1]")
            if eta not in (-1, 1):
                raise ValueError("signs must be +1 or -1")
            total += as_fraction(p)
        # the protocol's input decoder draws from these exact weights, so
        # they must sum to exactly 1
        if total != 1:
            raise ValueError(
                f"probabilities sum to {total}, not exactly 1; write each p "
                f"as an exact fraction such as \"1/3\"")

    @classmethod
    def from_support(cls, n, support) -> "XorGame":
        """Build from an iterable of (input, prob, sign).

        Inputs may be bit strings like "011" or tuples; probabilities may be
        decimal strings, Fractions, or floats (floats are snapped to exact
        rationals via their decimal representation).
        """
        entries = []
        for inp, p, eta in support:
            bits = tuple(int(b) for b in inp)
            entries.append((bits, as_fraction(p), int(eta)))
        return cls(n, tuple(entries))

    @property
    def inputs(self) -> list:
        return [bits for bits, _, _ in self.entries]

    @property
    def probs(self) -> np.ndarray:
        return np.array([float(p) for _, p, _ in self.entries])

    @property
    def signs(self) -> np.ndarray:
        return np.array([eta for _, _, eta in self.entries], dtype=float)

    @property
    def input_matrix(self) -> np.ndarray:
        return np.array(self.inputs, dtype=float)

    @cached_property
    def _score_arrays(self):
        """(probability * sign, input matrix), built once per game.

        The arrays are read-only because every caller of this game shares
        them.
        """
        coeff = self.probs * self.signs
        inp = self.input_matrix
        coeff.flags.writeable = False
        inp.flags.writeable = False
        return coeff, inp

    @cached_property
    def _angle_vectors(self):
        """Row i is (1, input i): the weights of the n + 1 angles in the
        i-th cosine of the cosine form.  Built once per game for Newton's
        gradient and Hessian, and read-only like _score_arrays."""
        inp = self._score_arrays[1]
        vecs = np.hstack([np.ones((len(inp), 1)), inp])
        vecs.flags.writeable = False
        return vecs

    def sign_of(self, bits) -> int:
        for b, _, eta in self.entries:
            if b == tuple(bits):
                return eta
        raise KeyError(f"input {bits} not in game support")

    def win_parity(self, bits) -> int:
        """Output parity that counts as a pass on the given input."""
        return (1 - self.sign_of(bits)) // 2

    def relabel(self, flips) -> "XorGame":
        """Flip signs per an n-bit vector b: eta'_i = eta_(i xor b)."""
        flips = tuple(int(x) for x in flips)
        table = {bits: eta for bits, _, eta in self.entries}
        new = []
        for bits, p, _ in self.entries:
            src = tuple(x ^ f for x, f in zip(bits, flips))
            if src not in table:
                raise ValueError("relabeling leaves the support")
            new.append((bits, p, table[src]))
        return XorGame(self.n, tuple(new))


def ghz_game() -> XorGame:
    """The three-player GHZ game: inputs uniform over {000, 011, 101, 110},
    pass iff the output XOR equals the OR of the input bits."""
    return XorGame.from_support(3, [
        ("000", "0.25", +1),
        ("011", "0.25", -1),
        ("101", "0.25", -1),
        ("110", "0.25", -1),
    ])


def chsh_game() -> XorGame:
    """The two-player CHSH game (pass iff output XOR equals input AND)."""
    return XorGame.from_support(2, [
        ("00", "0.25", +1),
        ("01", "0.25", +1),
        ("10", "0.25", +1),
        ("11", "0.25", -1),
    ])


_BUILTINS = {"ghz": ghz_game, "chsh": chsh_game}


def named_game(name: str) -> XorGame:
    try:
        return _BUILTINS[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown built-in game {name!r}; have {sorted(_BUILTINS)}")


def game_to_record(game: XorGame) -> dict:
    return {
        "n": game.n,
        "support": [
            {"input": "".join(map(str, bits)), "p": str(p), "eta": eta}
            for bits, p, eta in game.entries
        ],
    }


def _field(obj, name: str, where: str, read):
    """read(obj[name]), or a ValueError naming the missing or bad field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {obj!r}")
    if name not in obj:
        raise ValueError(f"{where} needs the field {name!r}")
    try:
        return read(obj[name])
    except (TypeError, ValueError):
        raise ValueError(
            f"{where}: bad value {obj[name]!r} in the field {name!r}") from None


def game_from_record(rec: dict) -> XorGame:
    """The game a record of game_to_record's form describes.  A malformed
    record raises ValueError naming the field."""
    n = _field(rec, "n", "a game record", operator.index)
    entries = []
    for i, e in enumerate(_field(rec, "support", "a game record", tuple)):
        where = f"game support entry {i}"
        entries.append((_field(e, "input", where, lambda s: tuple(int(b) for b in s)),
                        _field(e, "p", where, as_fraction),
                        _field(e, "eta", where, int)))
    return XorGame(n, tuple(entries))


def load_game(path_or_name: str) -> XorGame:
    """Load a game definition file, or a named built-in."""
    if path_or_name.lower() in _BUILTINS:
        return named_game(path_or_name)
    with open(path_or_name) as f:
        record = json.load(f)
    try:
        return game_from_record(record)
    except ValueError as e:
        raise ValueError(f"game file {path_or_name}: {e}") from None


# ---------------------------------------------------------------------------
# Score functionals


def eval_pg(game: XorGame, zetas) -> complex:
    """Complex score polynomial of the game at unit-length phases."""
    z = np.asarray(zetas, dtype=np.complex128)
    if z.shape != (game.n,):
        raise ValueError(f"expected {game.n} phases, got shape {z.shape}")
    if np.any(np.abs(np.abs(z) - 1.0) > UNIT_ATOL):
        raise ValueError("phases must have unit modulus")
    return complex(_pg_batch(game, z[None, :])[0])


def _pg_batch(game: XorGame, z: np.ndarray) -> np.ndarray:
    """Score polynomial on a batch of phase tuples, shape (..., n)."""
    coeff, inp = game._score_arrays
    inp = inp.astype(bool)  # (m, n)
    acc = np.ones(z.shape[:-1] + (len(coeff),), dtype=np.complex128)
    for k in range(game.n):
        acc = acc * np.where(inp[:, k], z[..., k: k + 1], 1.0)
    return acc @ coeff


def eval_zg(game: XorGame, thetas) -> float:
    """Cosine form of the score polynomial on n+1 angles."""
    th = np.asarray(thetas, dtype=float)
    if th.shape != (game.n + 1,):
        raise ValueError(f"expected {game.n + 1} angles, got shape {th.shape}")
    return float(_zg_batch(game, th[None, :])[0])


def _zg_batch(game: XorGame, th: np.ndarray) -> np.ndarray:
    coeff, inp = game._score_arrays
    angles = th[..., :1] + th[..., 1:] @ inp.T
    return np.cos(angles) @ coeff


# ---------------------------------------------------------------------------
# Torus maximization

SCORE_CERT_TOL = 1e-9     # certificate target: max|p_G| <= value + this
_FP_SLACK = 1e-12         # floating-point error allowance on a cell bound
_GRID_DIVS_LOW = 50       # grid step pi/50 on tori of dimension <= 3 ...
_GRID_DIVS_4 = 16         # ... and pi/16 in dimension 4 (~5.6e5 cells)
_REFINE_STARTS = 8        # grid cells refined by Newton
_GRAD_TOL = 1e-9          # Newton refinement stops below this gradient norm
_MAX_NEWTON = 200         # ... or after this many steps
_MAX_CELLS = 1 << 20      # branch-and-bound gives up beyond this many cells
_CHUNK = 1 << 13          # cells per piece of a cell-bound evaluation
_BLOCK = 2                # grid cells per axis of a block bounded at once
_ENTRY_CHUNK = 1 << 9     # rows per piece of reverse_diagonal_entries; one
                          # piece for 272k rows would hold ~250 MB more


def _reduced_exponents(inp: np.ndarray):
    """Exponent vectors and angle basis of |p_G| on the torus it lives on.

    |p_G(theta)| sees theta only through the products theta . (x_i - x_0).
    When those differences do not span R^n, |p_G| is constant along the
    directions they miss, and no cell bound can close along them.  Integer
    column operations, a unimodular change of torus coordinates, move such
    directions into trailing coordinates, which are dropped.  Returns
    (expo, basis) with |p_G(basis @ phi)| = |sum_i c_i exp(i phi . expo_i)|,
    and every value of |p_G| is attained at some basis @ phi.  Games whose
    differences span R^n keep their own coordinates.
    """
    n = inp.shape[1]
    a = (inp - inp[0]).astype(np.int64)
    if np.linalg.matrix_rank(a) == n:
        return inp, np.eye(n)
    u = np.eye(n, dtype=np.int64)
    rank = 0
    for row in range(len(a)):
        # Euclid on the columns rank.. of this row leaves one nonzero entry
        while rank < n:
            nz = rank + np.flatnonzero(a[row, rank:])
            if len(nz) == 0:
                break
            j = nz[np.argmin(np.abs(a[row, nz]))]
            a[:, [rank, j]] = a[:, [j, rank]]
            u[:, [rank, j]] = u[:, [j, rank]]
            if len(nz) == 1:
                rank += 1
                break
            q = a[row, rank + 1:] // a[row, rank]
            a[:, rank + 1:] -= np.outer(a[:, rank], q)
            u[:, rank + 1:] -= np.outer(u[:, rank], q)
    keep = max(rank, 1)
    return a[:, :keep].astype(float), u[:, :keep].astype(float)


def _cell_bounds(coeff: np.ndarray, expo: np.ndarray, centres: np.ndarray,
                 r: float):
    """|p| at each cell centre, and an upper bound on |p| over the cell.

    p(phi) = sum_i c_i exp(i phi . e_i); a cell is the cube of half-width r
    (infinity norm) around its centre.  With a_k = sum_i c_i e_ik
    exp(i phi . e_i), Taylor's theorem bounds |p| on the cell by
    |p + i sum_k delta_k a_k| plus the second-order remainder
    r^2 / 2 * sum_i |c_i| |e_i|_1^2, and the first term by
    sqrt(|p|^2 + 2r sum_k |Re(conj(p) i a_k)| + (r sum_k |a_k|)^2).
    """
    curvature = 0.5 * (np.abs(coeff) @ np.sum(np.abs(expo), axis=1) ** 2)
    weighted = coeff[:, None] * expo
    absp = np.empty(len(centres))
    bound = np.empty(len(centres))
    for s in range(0, len(centres), _CHUNK):
        e = np.exp(1j * (centres[s: s + _CHUNK] @ expo.T))
        p = e @ coeff
        a = e @ weighted
        lin = np.sum(np.abs((np.conj(p)[:, None] * 1j * a).real), axis=1)
        sq = np.abs(p) ** 2 + 2 * r * lin + (r * np.sum(np.abs(a), axis=1)) ** 2
        absp[s: s + _CHUNK] = np.abs(p)
        bound[s: s + _CHUNK] = np.sqrt(sq) + r * r * curvature + _FP_SLACK
    return absp, bound


def _grid_centres(cells: np.ndarray, shape: tuple, step: float) -> np.ndarray:
    """Centres of coarse-grid cells given by flat C-order index.

    Each coordinate is its integer index times ``step``, the same product
    ``np.arange(len) * step`` forms, so a centre has the same bits however
    the grid is cut into pieces.
    """
    return np.stack(np.unravel_index(cells, shape), axis=-1) * step


class _BlockGrid:
    """The coarse grid on the reduced torus, bounded block by block.

    Conjugating every phase conjugates the polynomial, so the first angle
    only needs the upper half circle: cell centres sit at integer multiples
    of ``step`` on ``shape``, each cell of half-width r = step / 2.  Blocks
    of _BLOCK cells per axis are bounded first: one _cell_bounds call at
    half-width _BLOCK * r about each block's middle, whose cube holds the
    block's cells (a block at the end of an axis holds fewer), the centres
    built _CHUNK blocks at a time from flat block indices.  Blocks then
    expand into their own cells in descending block-bound order, stable by
    block index.  A cell's centre comes from _grid_centres, so its |p| and
    bound have the bits a pass over the whole grid gives them.  ``pieces``
    holds the (cells, |p|, bound) of each expanded piece.

    Both stops compare a block bound B with a cell figure.  _cell_bounds
    adds _FP_SLACK (1e-12) to a Taylor bound whose rounding is a few 1e-16
    on a game whose |c|_1 is 1, so B exceeds the computed |p| at every
    cell centre in the block, and the bounds of later blocks are no larger.

    - best (stop 1): expansion stops once the next block's B is strictly
      below the eighth-best centre |p| found.  No unexpanded cell then
      reaches it, not even in a tie, so the expanded cells' stable sort by
      -|p| and index is the whole grid's.
    - certify (stop 2): at a cell centre c, lin <= |p| S and
      S = sum_k |a_k| <= A = sum_i |c_i| |e_i|_1, so a cell's bound is at
      most |p(c)| + r A + r^2 curvature + _FP_SLACK, and |p(c)| +
      _FP_SLACK <= B.  The lifted bound B + r A + r^2 curvature + _FP_SLACK
      therefore covers every cell bound in the block, the last _FP_SLACK
      absorbing the rounding of both computed bounds.  Expansion goes on
      while the next block's lifted bound exceeds ``top``, the largest
      dropped cell bound found (at most value + SCORE_CERT_TOL).  After it
      every unexpanded cell is dropped and cannot raise ``top``, so the
      expanded cells hold every open cell and the whole grid's ``top``.
      A value far below the optimum drops few cells and expands more
      blocks, up to the whole grid.
    """

    def __init__(self, game: XorGame):
        self.coeff, inp = game._score_arrays
        self.expo, self.basis = _reduced_exponents(inp)
        self.dim = self.expo.shape[1]
        divs = _GRID_DIVS_LOW if self.dim <= 3 else _GRID_DIVS_4
        self.step = np.pi / divs
        self.shape = (divs + 1,) + (2 * divs,) * (self.dim - 1)
        self.block_shape = tuple(-(-s // _BLOCK) for s in self.shape)
        bound = np.empty(int(np.prod(self.block_shape)))
        for s in range(0, len(bound), _CHUNK):
            blocks = np.arange(s, min(s + _CHUNK, len(bound)))
            centres = (_grid_centres(blocks, self.block_shape, _BLOCK * self.step)
                       + (_BLOCK - 1) / 2 * self.step)
            bound[s: s + _CHUNK] = _cell_bounds(
                self.coeff, self.expo, centres, _BLOCK * self.step / 2)[1]
        self.order = np.argsort(-bound, kind="stable")
        self.block_bound = bound[self.order]
        self.done, self.pieces = 0, []
        weights = np.abs(self.coeff)
        norms = np.sum(np.abs(self.expo), axis=1)
        r = self.step / 2
        self.lift = (r * (weights @ norms) + r * r * 0.5 * (weights @ norms ** 2)
                     + _FP_SLACK)

    def _cells_of(self, blocks: np.ndarray) -> np.ndarray:
        """Flat indices of the grid cells in ``blocks``, block by block."""
        corner = np.stack(np.unravel_index(blocks, self.block_shape), axis=-1)
        offsets = np.array(list(itertools.product(range(_BLOCK),
                                                  repeat=self.dim)))
        cells = (_BLOCK * corner[:, None, :] + offsets).reshape(-1, self.dim)
        cells = cells[np.all(cells < self.shape, axis=1)]
        return np.ravel_multi_index(tuple(cells.T), self.shape)

    def _walk(self, more):
        """Yield the pieces expanded so far, then expand blocks in order, up
        to _CHUNK cells a piece, while ``more`` holds for the next block's
        bound, yielding each new piece.  ``more`` is asked again after each
        piece; it takes an array of bounds and must only turn false as the
        walk goes on."""
        per = max(1, _CHUNK // _BLOCK ** self.dim)
        for i in itertools.count():
            if i == len(self.pieces):
                nxt = self.block_bound[self.done: self.done + per]
                k = int(np.argmin(np.append(more(nxt), False)))  # first false
                if not k:
                    return
                cells = self._cells_of(self.order[self.done: self.done + k])
                self.done += k
                self.pieces.append((cells, *_cell_bounds(
                    self.coeff, self.expo,
                    _grid_centres(cells, self.shape, self.step),
                    self.step / 2)))
            yield self.pieces[i]

    def best(self) -> np.ndarray:
        """The _REFINE_STARTS cells of largest |p| at the centre, in the
        order a stable sort by -|p| over the whole grid gives them."""
        key, best = np.empty(0), np.empty(0, dtype=np.intp)

        def kth():
            return -key[-1] if len(key) == _REFINE_STARTS else -np.inf

        for cells, absp, _ in self._walk(lambda b: b >= kth()):
            enter = absp >= kth()
            key = np.concatenate([key, -absp[enter]])
            best = np.concatenate([best, cells[enter]])
            keep = np.lexsort((best, key))[:_REFINE_STARTS]
            key, best = key[keep], best[keep]
        return best

    def certify(self, value: float) -> float:
        """Certified upper bound on max |p| over the grid, minus ``value``.

        Lipschitz branch-and-bound: cells whose bound is at most
        value + SCORE_CERT_TOL are dropped, the rest are split into
        2**dim children, the open grid cells in flat-index order.  The
        result is the largest bound of any dropped cell, or of the cells
        still open once splitting them would exceed _MAX_CELLS.
        """
        target = value + SCORE_CERT_TOL
        top = -np.inf
        for _, _, bound in self._walk(lambda b: b + self.lift > top):
            top = max(top, float(np.max(bound, where=bound <= target,
                                        initial=-np.inf)))
        cells, _, bound = (np.concatenate(part) for part in zip(*self.pieces))
        # the open cells in flat-index order, as a pass over the whole grid
        # lists them
        order = np.argsort(cells)
        cells, bound = cells[order], bound[order]
        open_ = bound > target
        centres = _grid_centres(cells[open_], self.shape, self.step)
        bound, r = bound[open_], self.step / 2
        offsets = np.array(list(itertools.product((-0.5, 0.5),
                                                  repeat=self.dim)))
        while len(centres):
            if len(centres) << self.dim > _MAX_CELLS:
                return max(top, float(np.max(bound))) - value
            centres = (centres[:, None, :] + r * offsets).reshape(-1, self.dim)
            r /= 2
            _, bound = _cell_bounds(self.coeff, self.expo, centres, r)
            open_ = bound > target
            top = max(top, float(np.max(bound, where=~open_, initial=-np.inf)))
            centres, bound = centres[open_], bound[open_]
        return top - value


def score_certificate(game: XorGame, value: float) -> float:
    """Certified gap of a claimed optimal score.

    Returns an upper bound on max |p_G| over the torus minus ``value``,
    proven by branch-and-bound over the coarse grid's cells.  A value within
    SCORE_CERT_TOL of the optimum gets a gap of at most SCORE_CERT_TOL; a
    value below the optimum gets a gap at least the shortfall.
    """
    return _BlockGrid(game).certify(value)


def _zg_grad_hess(game: XorGame, th: np.ndarray):
    """Gradient (L, n + 1) and Hessian (L, n + 1, n + 1) of the cosine form
    at L angle tuples, each lane's by one-row products."""
    coeff, vecs = game._score_arrays[0], game._angle_vectors
    a = (vecs @ th[:, :, None])[..., 0]
    grad = (-(coeff * np.sin(a))[:, None, :] @ vecs)[:, 0]
    hess = -(vecs.T * (coeff * np.cos(a))[:, None, :]) @ vecs
    return grad, hess


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (L, k) arrays, one dot per lane."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _newton_lanes(game: XorGame, starts):
    """Local maxima of the cosine score from L starts, walked in lockstep.

    Each lane takes Newton steps with backtracking, and steps along its
    gradient whenever the Newton direction is not an ascent direction or
    its Hessian is singular.  A lane stops once its gradient norm is at
    most ``_GRAD_TOL``, when 60 halvings of its step find no value within
    1e-15 of its current one, or after ``_MAX_NEWTON`` steps.  Every
    product is a stack of one-row products and a batched solve that raises
    is redone lane by lane, so each lane's value and angles equal, bit for
    bit, those of the same walk from its start alone.  Returns (values,
    angles) of shapes (L,) and (L, n + 1).
    """
    th = np.array(starts, dtype=float)
    val = _zg_batch(game, th[:, None, :])[:, 0]
    live = np.arange(len(th))
    for _ in range(_MAX_NEWTON):
        grad, hess = _zg_grad_hess(game, th[live])
        moving = ~(np.sqrt(_dots(grad, grad)) <= _GRAD_TOL)
        live, grad, hess = live[moving], grad[moving], hess[moving]
        if not len(live):
            break
        try:
            step = np.linalg.solve(hess, -grad[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.empty_like(grad)
            for i, (h, g) in enumerate(zip(hess, grad)):
                try:
                    step[i] = np.linalg.solve(h, -g)
                except np.linalg.LinAlgError:
                    step[i] = g
        downhill = _dots(step, grad) <= 0
        step[downhill] = grad[downhill]
        # masked line search: lanes still halving are `lane`, into `live`
        t = np.ones(len(live))
        lane = np.arange(len(live))
        for _ in range(60):
            cand = th[live[lane]] + t[lane, None] * step[lane]
            cval = _zg_batch(game, cand[:, None, :])[:, 0]
            ok = cval >= val[live[lane]] - 1e-15
            th[live[lane[ok]]], val[live[lane[ok]]] = cand[ok], cval[ok]
            lane = lane[~ok]
            t[lane] *= 0.5
            if not len(lane):
                break
        live = np.delete(live, lane)
    return val, th


def _grid_starts(game: XorGame, basis, shape, step, best) -> np.ndarray:
    """Newton starts at the centres of the grid cells ``best``: the cell's
    angles on the torus, led by minus the phase of the polynomial there."""
    starts = []
    for centre in _grid_centres(best, shape, step):
        ang = basis @ centre
        p = _pg_batch(game, np.exp(1j * ang)[None, :])[0]
        starts.append(np.concatenate([[-np.angle(p)], ang]))
    return np.array(starts)


_SCORE_MEMO: dict = {}


def optimal_score(game: XorGame):
    """Optimal quantum score and a maximizing angle tuple.

    A block-pruned pass over a coarse grid on the phase torus
    (_BlockGrid) gives the best few grid cells, then one lockstep Newton
    walk (_newton_lanes) of the cosine form refines them (the extra leading
    angle is seeded with the phase of the polynomial at the cell centre).
    The best refined value is certified by branch-and-bound over the grid
    cells: its gap, an upper bound on max |p_G| minus the value, is
    memoized with it and reported by analyze_game.  Results are memoized
    per game.

    The pass bounds blocks of _BLOCK cells per axis (65 000 blocks for the
    5.1e5 cells of a three-player GHZ game) and evaluates only the cells of
    the blocks whose bound can reach the eighth-best cell or the
    certificate (8 480 cells on GHZ), up to _CHUNK cells at a time; the
    centres of all cells are never held at once.
    """
    key = game.entries
    if key not in _SCORE_MEMO:
        grid = _BlockGrid(game)
        vals, ths = _newton_lanes(game, _grid_starts(
            game, grid.basis, grid.shape, grid.step, grid.best()))
        i = int(np.argmax(vals))
        val = float(vals[i])
        _SCORE_MEMO[key] = (val, ths[i], grid.certify(val))
    val, th, _ = _SCORE_MEMO[key]
    return val, th.copy()


def classical_optimum(game: XorGame) -> float:
    """Best winning probability over deterministic strategies, exhaustively."""
    best = -np.inf
    inp = game.input_matrix.astype(int)
    coeff = game.probs * game.signs
    for assign in range(4**game.n):
        score = 0.0
        tables = [(assign >> (2 * j)) & 3 for j in range(game.n)]
        outs = np.zeros(len(inp), dtype=int)
        for j in range(game.n):
            a0, a1 = tables[j] & 1, (tables[j] >> 1) & 1
            outs ^= np.where(inp[:, j] == 0, a0, a1)
        score = float(coeff @ np.where(outs == 0, 1.0, -1.0))
        best = max(best, score)
    return (1.0 + best) / 2.0


# ---------------------------------------------------------------------------
# Self-test classification


def _canonical_max(theta: np.ndarray) -> np.ndarray:
    t = np.mod(theta, 2 * np.pi)
    t[t > 2 * np.pi - 1e-7] = 0.0
    return t


def _same_max(a: np.ndarray, b: np.ndarray) -> bool:
    d = np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)
    return bool(np.all(d < _SAME_MAX_TOL))


def _distinct_maxima(vals: np.ndarray, ths: np.ndarray, qG: float) -> list:
    """The refined angle tuples whose value is within _MAX_TOL of qG, in
    canonical form, each maximum once, in the order they are met."""
    found = []
    for val, th in zip(vals, ths):
        if val < qG - _MAX_TOL:
            continue
        th = _canonical_max(th)
        if not any(_same_max(th, f) for f in found):
            found.append(th)
    return found


@dataclass(frozen=True)
class GameConstants:
    """Derived quantities of a game used by the rate machinery."""

    qG: float
    wG: float
    fG: float
    maximizer: tuple
    classification: str
    vG_lower: float
    provenance: str = ""
    # certified upper bound on max|p_G| minus qG; None when qG is stored
    # rather than computed by optimal_score
    certified_gap: float | None = None

    def __post_init__(self):
        if abs(self.wG - (1 + self.qG) / 2) > 1e-9 or abs(self.fG - (1 - self.wG)) > 1e-9:
            raise ValueError("winning/failing probabilities inconsistent with score")
        if not (0.0 <= self.vG_lower <= self.qG + 1e-9):
            raise ValueError("trust coefficient bound out of range")


def classify_selftest(game: XorGame) -> str:
    """Classify a game as not-self-test / self-test / strong-self-test.

    Criteria, checked on the enumerated maxima of the cosine score:
    (A) some maximum has no trailing angle that is a multiple of pi;
    (B) all maxima agree modulo 2*pi up to a global sign; and the
    strong variant additionally requires every maximum to have a
    nonsingular Hessian (smallest absolute eigenvalue >= 1e-6).
    Each seed of _SELFTEST_SEEDS draws _N_STARTS uniform starts on the
    torus; one lockstep Newton walk (_newton_lanes) refines the starts of
    every seed, and each seed keeps its own distinct maxima.  Disagreement
    between the seeds' sets of maxima yields "inconclusive".
    """
    qG, _ = optimal_score(game)
    starts = [np.random.default_rng(s).uniform(0, 2 * np.pi,
                                               size=(_N_STARTS, game.n + 1))
              for s in _SELFTEST_SEEDS]
    vals, ths = _newton_lanes(game, np.concatenate(starts))
    runs = [_distinct_maxima(v, t, qG) for v, t in
            zip(np.split(vals, len(starts)), np.split(ths, len(starts)))]
    counts = {len(r) for r in runs}
    if len(counts) != 1:
        return "inconclusive"
    maxima = runs[0]
    for other in runs[1:]:
        for m in other:
            if not any(_same_max(m, f) or _same_max(m, _canonical_max(-f))
                       for f in maxima):
                return "inconclusive"
    if not maxima:
        return "inconclusive"

    def off_pi_lattice(th):
        d = np.abs(np.mod(th[1:] + np.pi / 2, np.pi) - np.pi / 2)
        return bool(np.all(d > 1e-6))

    cond_a = any(off_pi_lattice(m) for m in maxima)
    anchors = [m for m in maxima if off_pi_lattice(m)]
    cond_b = False
    for anchor in anchors or maxima[:1]:
        neg = _canonical_max(-anchor)
        if all(_same_max(m, anchor) or _same_max(m, neg) for m in maxima):
            cond_b = True
            break
    if not (cond_a and cond_b):
        return "not-self-test"
    _, hess = _zg_grad_hess(game, np.array(maxima))
    if np.any(np.abs(np.linalg.eigvalsh(hess)) < HESSIAN_EIG_THRESHOLD):
        return "inconclusive"
    return "strong-self-test"


# ---------------------------------------------------------------------------
# Scoring operators and the trust coefficient

_TRUST_ATOL = 1e-9  # a trust check passes when its best norm is at most qG - c + this
TRUST_RESOLUTION = 1e-3  # the search finds its bound to within this, then subtracts it
_THRESHOLD_CHUNK = 1 << 11  # rows per piece of _trust_thresholds


def scoring_operator(game: XorGame, zetas) -> np.ndarray:
    """Reverse-diagonal scoring operator of a canonical-form qubit strategy:
    entry (b, 2**n - 1 - b) is the score polynomial with the phases of the
    players set in b conjugated, so the matrix is Hermitian."""
    z = np.asarray(zetas, dtype=np.complex128)
    if z.shape != (game.n,):
        raise ValueError(f"expected {game.n} phases, got shape {z.shape}")
    if np.any(np.abs(np.abs(z) - 1.0) > UNIT_ATOL) or np.any(z.imag < -UNIT_ATOL):
        raise ValueError("phases must be unit length with nonnegative imaginary part")
    d = 2**game.n
    m = np.zeros((d, d), dtype=np.complex128)
    for b in range(d):
        bits = [(b >> (game.n - 1 - j)) & 1 for j in range(game.n)]
        zz = np.where(np.array(bits) == 1, z.conj(), z)
        m[b, d - 1 - b] = _pg_batch(game, zz[None, :])[0]
    return m


@lru_cache(maxsize=None)
def _conjugation_signs(n: int) -> np.ndarray:
    """Row b is -1 on the bits set in b (first player most significant)."""
    signs = np.array([[-1.0 if (b >> (n - 1 - j)) & 1 else 1.0 for j in range(n)]
                      for b in range(2**n)])
    signs.flags.writeable = False
    return signs


def reverse_diagonal_entries(game: XorGame, th: np.ndarray) -> np.ndarray:
    """Scoring-operator entries for a batch of angle tuples.

    Returns shape (..., 2**n): entry b is the polynomial evaluated with the
    phases conjugated on the bits set in b.

    A batch of two or more tuples is evaluated as one (rows * 2**n, n)
    angle product, one exp and one matrix-vector product with the
    coefficients; batches of 2 * _ENTRY_CHUNK rows or more go in pieces of
    _ENTRY_CHUNK to 2 * _ENTRY_CHUNK rows.  On the OpenBLAS this was
    measured with, a row gets the same bits in every batch of two or more
    rows.  A single tuple takes its own path, one entry at a time: one-row
    BLAS products sum in another order, so its bits can differ from the
    same tuple's inside a batch.
    """
    coeff, inp = game._score_arrays
    signs = _conjugation_signs(game.n)
    rows = th.reshape(-1, game.n)

    def batch(part):
        angles = (part[:, None, :] * signs).reshape(-1, game.n) @ inp.T
        return np.exp(1j * angles) @ coeff

    if len(rows) == 1:
        out = np.hstack([np.exp(1j * ((rows * s) @ inp.T)) @ coeff for s in signs])
    elif len(rows) < 2 * _ENTRY_CHUNK:
        out = batch(rows)
    else:
        out = np.concatenate([batch(part) for part in
                              np.array_split(rows, len(rows) // _ENTRY_CHUNK)])
    return out.reshape(th.shape[:-1] + (len(signs),))


def _mirrored(top: np.ndarray) -> np.ndarray:
    """The reverse diagonal whose bottom half is the conjugate mirror of
    ``top``: entry 2**n - 1 - b is conj(top[b])."""
    return np.concatenate([top, top[::-1].conj()])


def ghz_anticommuter() -> np.ndarray:
    """The reverse-diagonal sign pattern (+,+,-,-,-,-,+,+) used for GHZ."""
    return _mirrored(np.array([1, 1, -1, -1], dtype=np.complex128))


def _validate_anticommuter(n: int, anti) -> np.ndarray:
    """The anticommuter's reverse diagonal as a complex vector, after
    checking it in closed form.

    Entry b is the operator's entry at (b, 2**n - 1 - b).  Such an operator
    squares to the identity when every entry has unit modulus, is Hermitian
    when entry 2**n - 1 - b is the conjugate of entry b, and anticommutes
    with the generation observable X (x) I when flipping the first bit
    negates the entry.
    """
    d = 2**n
    a = np.asarray(anti, dtype=np.complex128)
    if a.shape != (d,):
        raise InvalidOperatorError(
            f"anticommuter must be the reverse diagonal of {d} entries, "
            f"got shape {a.shape}")
    if not np.max(np.abs(np.abs(a) - 1.0)) <= 1e-9:
        raise InvalidOperatorError("anticommuter fails: square is not the identity")
    if not np.max(np.abs(a[::-1] - a.conj())) <= HERMITIAN_ATOL:
        raise InvalidOperatorError("anticommuter fails: not Hermitian")
    if not np.max(np.abs(a[np.arange(d) ^ (d // 2)] + a)) <= 1e-9:
        raise InvalidOperatorError(
            "anticommuter fails: does not anticommute with the generation observable")
    return a


@dataclass(frozen=True)
class SamplingSpec:
    """How hard to search for violations of a trust-coefficient claim."""

    grid_points: int = 64
    random_samples: int = 10_000
    multistarts: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("grid_points", "random_samples", "multistarts"):
            check_domain(name, getattr(self, name), "nonnegative")
        check_domain("no sample points: grid_points + random_samples",
                     self.grid_points + self.random_samples, "count")


# trust_coefficient_search's sampling budget
_SEARCH_SAMPLES = SamplingSpec(grid_points=24, random_samples=2000, multistarts=4)


@dataclass(frozen=True)
class TrustCheckResult:
    passed: bool
    max_violation: float
    witness: tuple
    samples_used: int
    analytic_failures: int = -1  # -1 means the analytic checks did not apply


def ghz_analytic_entry_checks(th: np.ndarray, c: float) -> int:
    """Count violations of the closed-form entry bounds for the GHZ game.

    For phases in the upper half circle, the corner entries obey
    |(1/4 - c) - (pair sum)/4| <= 1 - c via the triangle inequality, and the
    remaining entries obey the two-conjugate phase bound |1 - ab - bc - ca|
    <= 2*sqrt(2), giving sqrt(2)/2 + c for the shifted entry.  Returns how
    many sampled angle tuples break either bound.
    """
    z1, z2, z3 = np.exp(1j * th[..., 0]), np.exp(1j * th[..., 1]), np.exp(1j * th[..., 2])
    corner = np.abs((0.25 - c) - 0.25 * (z1 * z2 + z2 * z3 + z1 * z3))
    bad = int(np.sum(corner > 1.0 - c + 1e-9))
    mixed = np.abs(1 - z1 * np.conj(z2) - np.conj(z2) * np.conj(z3)
                   - z1 * np.conj(z3))
    bad += int(np.sum(mixed > 2 * np.sqrt(2) + 1e-9))
    return bad


@lru_cache(maxsize=1)
def _trust_samples(game: XorGame, samples: SamplingSpec):
    """The sampled angle tuples of trust_coefficient_check, their
    scoring-operator entries, and the random ascent starts after the first.

    None of these depend on the coefficient or the anticommuter, so the
    checks of one trust_coefficient_search share them.
    """
    rng = np.random.default_rng(samples.seed)
    axes = np.linspace(0, np.pi, samples.grid_points)
    grid = np.stack(np.meshgrid(*[axes] * game.n, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, game.n)
    rand = rng.uniform(0, np.pi, size=(samples.random_samples, game.n))
    th_all = np.vstack([grid, rand])
    starts = rng.uniform(0, np.pi, size=(max(samples.multistarts - 1, 0), game.n))
    entries = reverse_diagonal_entries(game, th_all)
    for a in (th_all, entries, starts):
        a.flags.writeable = False
    return th_all, entries, starts


def _sampled_max(entries: np.ndarray, c: float, anti: np.ndarray) -> np.ndarray:
    """Row-wise max over b of |entries[..., b] - c * anti[b]|: the norm of
    each sampled scoring operator minus c times the anticommuter.

    The maximum is taken one column at a time into one output array, so no
    temporary of the whole difference is made.  Each entry's difference and
    modulus are the same operations as over the whole array, and a maximum
    rounds nothing, so the bits equal those of np.max over the last axis.
    """
    ca = c * anti
    out = np.abs(entries[..., 0] - ca[0])
    for b in range(1, len(ca)):
        np.maximum(out, np.abs(entries[..., b] - ca[b]), out=out)
    return out


def _trust_thresholds(entries: np.ndarray, anti: np.ndarray,
                      qG: float) -> np.ndarray:
    """Row-wise min over b of c*_b, the largest coefficient at which entry b
    passes the trust check, with Q = qG + _TRUST_ATOL (derived in
    trust_coefficient_search).

    With x + iy = e_b conj(a_b), |e_b|^2 = x^2 + y^2, so
    c*_b = (Q^2 - |e_b|^2) / (2 (Q - x)) = (Q + x) / 2 - y^2 / (2 (Q - x)),
    the form computed here, which takes no difference of close squares.
    Q - x <= 0 only when |e_b| >= Q, which fails at every c; c*_b is then
    -inf.  The rows go _THRESHOLD_CHUNK at a time.
    """
    big_q = qG + _TRUST_ATOL
    rows = entries.reshape(-1, entries.shape[-1])
    out = np.empty(len(rows))
    for s in range(0, len(rows), _THRESHOLD_CHUNK):
        w = rows[s: s + _THRESHOLD_CHUNK] * anti.conj()
        den = 2 * (big_q - w.real)
        tail = np.divide(w.imag * w.imag, den, out=np.full(w.shape, np.inf),
                         where=den > 0)
        out[s: s + _THRESHOLD_CHUNK] = np.min(0.5 * (big_q + w.real) - tail,
                                              axis=1)
    return out.reshape(entries.shape[:-1])


def _climb(game: XorGame, samples: SamplingSpec, start: np.ndarray, value):
    """Local ascent of value(reverse_diagonal_entries(game, th)), one float
    per row, in lockstep from start and the random starts of _trust_samples.

    Each pass evaluates the 2n axis neighbours of all active starts in one
    batch, moves each start to its best neighbour when that gains more than
    1e-14 and halves its step otherwise, and retires it once the step is
    below 1e-10; there are at most 200 passes.  Each start's own value is
    evaluated alone, as a one-row batch, and the neighbour batches always
    have two or more rows, so by the batch rule of reverse_diagonal_entries
    the values equal those of climbing from one start at a time.

    Returns each start's final (value, position).
    """
    def values(th):
        return value(reverse_diagonal_entries(game, th))

    ths = np.vstack([start[None, :], _trust_samples(game, samples)[2]])
    k = len(ths)
    val = np.array([values(th[None, :])[0] for th in ths])
    step = np.full(k, np.pi / max(samples.grid_points, 8))
    active = np.ones(k, dtype=bool)
    moves = np.vstack([np.eye(game.n), -np.eye(game.n)])
    for _ in range(200):
        live = np.flatnonzero(active)
        if not live.size:
            break
        trials = np.clip(ths[live, None, :] + step[live, None, None] * moves,
                         0.0, np.pi)
        tvals = values(trials.reshape(-1, game.n)).reshape(len(live), len(moves))
        j = np.argmax(tvals, axis=1)
        top = tvals[np.arange(len(live)), j]
        up = top > val[live] + 1e-14
        ths[live[up]] = trials[up, j[up]]
        val[live[up]] = top[up]
        stuck = live[~up]
        step[stuck] *= 0.5
        active[stuck[step[stuck] < 1e-10]] = False
    return val, ths


def trust_coefficient_check(game: XorGame, c: float, anticommuter: np.ndarray,
                            samples: SamplingSpec, qG: float) -> TrustCheckResult:
    """Sampled certification that ||M - c N|| <= qG - c over canonical strategies.

    The claim is tested on a dense grid of upper-half-circle angle tuples,
    a batch of random tuples, and local maximizations of the norm (_climb)
    from the best sample and random starts; the best start wins in start
    order, by strict >.  The result is sampled, not proven.  The
    anticommuter is given as its reverse diagonal (see
    _validate_anticommuter); the scoring operator is reverse-diagonal too,
    so the operator norm is the maximum entry modulus and the whole sweep
    is vectorized.  qG is the game's optimal score.
    """
    check_domain("c", c, "nonnegative")
    anti = _validate_anticommuter(game.n, anticommuter)

    th_all, entries, _ = _trust_samples(game, samples)
    vals = _sampled_max(entries, c, anti)
    best = int(np.argmax(vals))
    best_val, best_th = float(vals[best]), th_all[best]
    val, ths = _climb(game, samples, best_th,
                      lambda e: _sampled_max(e, c, anti))
    for i in range(len(ths)):
        if val[i] > best_val:
            best_val, best_th = float(val[i]), ths[i]

    violation = best_val - (qG - c)
    analytic = -1
    if (game.entries == ghz_game().entries and abs(c - 0.14) < 1e-12
            and np.allclose(anti.real, [1, 1, -1, -1, -1, -1, 1, 1])):
        analytic = ghz_analytic_entry_checks(th_all, c)
    return TrustCheckResult(
        passed=bool(violation <= _TRUST_ATOL),
        max_violation=float(violation),
        witness=tuple(np.exp(1j * best_th)),
        samples_used=len(th_all),
        analytic_failures=analytic,
    )


def _anticommuter_orbit_pairs(n: int):
    """Pairs of top-half reverse-diagonal positions coupled by the constraints.

    Hermiticity mirrors entry b onto its bitwise complement, and
    anticommutation with the generation observable negates the entry when
    the first bit flips; composing the two keeps the position in the top
    half and forces entry(partner) = -conj(entry(b)).
    """
    half = 2 ** (n - 1)
    full = 2**n - 1
    seen, pairs = set(), []
    for b in range(half):
        if b in seen:
            continue
        partner = (full ^ b) ^ half
        seen.update((b, partner))
        pairs.append((b, partner))
    return pairs


def anticommuter_family(n: int, phases=(1.0, -1.0)):
    """All valid anticommuters, as reverse diagonals, with per-orbit entries
    drawn from the given unit phases.

    The constraints leave one free unit phase per orbit pair; real phases
    (+-1 sign patterns) suffice when the game's corner direction is real,
    and the trust-coefficient search adds the corner phase of the score
    polynomial otherwise.
    """
    pairs = _anticommuter_orbit_pairs(n)
    half = 2 ** (n - 1)
    options = [complex(p) for p in phases]
    for assign in np.ndindex(*([len(options)] * len(pairs))):
        top = np.zeros(half, dtype=np.complex128)
        for (b, partner), k in zip(pairs, assign):
            phi = options[k]
            top[b] = phi
            top[partner] = -np.conj(phi)
        yield _mirrored(top)


def trust_anticommuters(game: XorGame) -> list:
    """The anticommuters (reverse diagonals) a trust claim is checked
    against, in a fixed order.

    These are the anticommuter_family members over the phases +-1, plus the
    corner phase of the score polynomial at its maximizer and its negative
    when that phase is not real.
    """
    _, maximizer = optimal_score(game)
    corner = _pg_batch(game, np.exp(1j * np.asarray(maximizer[1:]))[None, :])[0]
    phases = [1.0 + 0j, -1.0 + 0j]
    if abs(corner) > 1e-12:
        phase = corner / abs(corner)
        if min(abs(phase - 1), abs(phase + 1)) > 1e-9:
            phases.extend([phase, -phase])
    return list(anticommuter_family(game.n, phases=phases))


def trust_coefficient_search(game: XorGame, classification: str) -> float:
    """Sampled lower-confidence bound on the trust coefficient.

    The largest coefficient passing trust_coefficient_check over
    trust_anticommuters, found to TRUST_RESOLUTION and lowered by it.  This
    is a sampled estimate, not a proof.

    The check passes at c when every entry it samples has
    |e_b - c a_b| - (qG - c) <= _TRUST_ATOL, i.e. |e_b - c a_b| <= Q - c
    with Q = qG + _TRUST_ATOL.  As |a_b| = 1, the left side plus c never
    decreases in c, so the entry passes exactly for c <= c*_b, and squaring
    cancels the c^2 terms:
    c*_b = (Q^2 - |e_b|^2) / (2 (Q - Re(e_b conj(a_b)))).
    So the sampled rows pass exactly for c at most their least c*
    (_trust_thresholds, one chunked pass).  One lockstep descent of
    c*(theta), _climb on -c*, from that row and the check's random starts
    lowers it to C.  The bound is the lo of a bisection of [0, qG], 12 or so
    halvings, on the verdict "mid <= C": where the check's own ascent finds
    nothing below C, a bisection on the check's verdicts takes the same
    halvings and stops at the same midpoint.  C < 0 leaves lo at 0, as a
    failed check at c = 0 leaves the anticommuter out.  The descent only
    lowers C, so it is skipped when the least sampled c* cannot beat the
    best bound so far.  classification is the game's classify_selftest
    verdict.
    """
    if classification != "strong-self-test":
        raise ValueError(
            f"trust-coefficient search requires a strong self-test, got {classification}")
    qG, _ = optimal_score(game)
    th_all, entries, _ = _trust_samples(game, _SEARCH_SAMPLES)
    halvings = int(np.ceil(np.log2(max(qG, 1e-12) / TRUST_RESOLUTION))) + 1

    def replay(cut):
        lo, hi = 0.0, qG
        for _ in range(halvings):
            mid = 0.5 * (lo + hi)
            if mid <= cut:
                lo = mid
            else:
                hi = mid
        return lo

    best = 0.0
    for anti in trust_anticommuters(game):
        anti = _validate_anticommuter(game.n, anti)
        cstar = _trust_thresholds(entries, anti, qG)
        low = int(np.argmin(cstar))
        if replay(cstar[low]) <= best:
            continue
        val, _ = _climb(game, _SEARCH_SAMPLES, th_all[low],
                        lambda e: -_trust_thresholds(e, anti, qG))
        best = max(best, replay(min(cstar[low], -val.max())))
    return max(best - TRUST_RESOLUTION, 0.0)


def analyze_game(game: XorGame) -> GameConstants:
    """Compute the constants bundle.

    The score comes with the certified gap of optimal_score; the trust
    bound is trust_coefficient_search's sampled closed form, not a proof.
    """
    qG, maximizer = optimal_score(game)
    certified_gap = _SCORE_MEMO[game.entries][2]
    classification = classify_selftest(game)
    vg_lower = trust_coefficient_search(game, classification=classification)
    wG = (1 + qG) / 2
    return GameConstants(
        qG=qG, wG=wG, fG=1 - wG, maximizer=tuple(maximizer),
        classification=classification, vG_lower=float(vg_lower),
        provenance="sampled closed form", certified_gap=certified_gap,
    )


def ghz_constants() -> GameConstants:
    """Constants for the GHZ game with the certified 0.14 trust bound."""
    return GameConstants(
        qG=1.0, wG=1.0, fG=0.0,
        maximizer=(0.0, np.pi / 2, np.pi / 2, np.pi / 2),
        classification="strong-self-test",
        vG_lower=0.14,
        provenance="grid + analytic entry bounds at c = 0.14",
    )


def chsh_constants() -> GameConstants:
    """Constants for the CHSH game; the stored trust bound is the one a
    sampled bisection search gave, and its provenance says so."""
    s = float(np.sqrt(2) / 2)
    return GameConstants(
        qG=s, wG=(1 + s) / 2, fG=(1 - s) / 2,
        maximizer=(-np.pi / 4, np.pi / 2, np.pi / 2),
        classification="strong-self-test",
        vG_lower=0.10,
        provenance="sampled bisection search",
    )


def named_constants(name: str) -> GameConstants:
    name = name.lower()
    if name == "ghz":
        return ghz_constants()
    if name == "chsh":
        return chsh_constants()
    raise KeyError(f"no stored constants for {name!r}")
