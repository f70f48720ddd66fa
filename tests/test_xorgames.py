import functools
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import xorgames
from direx.errors import InvalidOperatorError
from direx.xorgames import (
    SamplingSpec,
    TrustCheckResult,
    XorGame,
    analyze_game,
    anticommuter_family,
    chsh_constants,
    chsh_game,
    classical_optimum,
    classify_selftest,
    eval_pg,
    eval_zg,
    game_from_record,
    game_to_record,
    ghz_analytic_entry_checks,
    ghz_constants,
    ghz_game,
    ghz_anticommuter,
    load_game,
    optimal_score,
    reverse_diagonal_entries,
    score_certificate,
    scoring_operator,
    trust_anticommuters,
    trust_coefficient_check,
    trust_coefficient_search,
)
from direx.xorgames import (
    _SCORE_MEMO,
    _BlockGrid,
    _cell_bounds,
    _conjugation_signs,
    _grid_starts,
    _newton_lanes,
    _sampled_max,
    _trust_thresholds,
    _validate_anticommuter,
    _zg_batch,
)

GHZ = ghz_game()
CHSH = chsh_game()


def all_plus_game():
    return XorGame.from_support(
        2, [("00", "0.25", 1), ("01", "0.25", 1), ("10", "0.25", 1), ("11", "0.25", 1)]
    )


class TestGameConstruction:
    def test_prob_sum_enforced(self):
        with pytest.raises(ValueError):
            XorGame.from_support(2, [("00", "0.5", 1), ("01", "0.25", 1)])

    def test_duplicate_input_rejected(self):
        with pytest.raises(ValueError):
            XorGame.from_support(2, [("00", "0.5", 1), ("00", "0.5", -1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            XorGame.from_support(2, [("00", "0.5", 2), ("01", "0.5", 1)])

    def test_record_round_trip(self, tmp_path):
        rec = game_to_record(GHZ)
        assert game_from_record(rec) == GHZ
        p = tmp_path / "game.json"
        p.write_text(json.dumps(rec))
        assert load_game(str(p)) == GHZ

    def test_named_builtins(self):
        assert load_game("ghz") == GHZ
        assert load_game("chsh") == CHSH


class TestScoreFunctionals:
    def test_pg_ghz_iii(self):
        assert eval_pg(GHZ, [1j, 1j, 1j]) == pytest.approx(1.0)

    def test_pg_ghz_ones(self):
        assert eval_pg(GHZ, [1, 1, 1]) == pytest.approx(-0.5)

    def test_pg_chsh_ii(self):
        assert eval_pg(CHSH, [1j, 1j]) == pytest.approx((2 + 2j) / 4)

    def test_pg_rejects_non_unit(self):
        with pytest.raises(ValueError):
            eval_pg(GHZ, [0.5, 1, 1])

    def test_zg_all_zero(self):
        expected = float(np.sum(GHZ.probs * GHZ.signs))
        assert eval_zg(GHZ, [0, 0, 0, 0]) == pytest.approx(expected)

    def test_zg_ghz_maximum(self):
        assert eval_zg(GHZ, [0, np.pi / 2, np.pi / 2, np.pi / 2]) == pytest.approx(1.0)

    def test_zg_bounded_by_abs_pg(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            th = rng.uniform(0, 2 * np.pi, size=4)
            z = abs(eval_zg(GHZ, th))
            p = abs(eval_pg(GHZ, np.exp(1j * th[1:])))
            assert z <= p + 1e-9

    def test_zg_equals_max_over_leading_angle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            th = rng.uniform(0, 2 * np.pi, size=3)
            p = eval_pg(CHSH, np.exp(1j * th[1:]))
            best = eval_zg(CHSH, np.concatenate([[-np.angle(p)], th[1:]]))
            assert best == pytest.approx(abs(p), abs=1e-12)


class TestOptimalScore:
    def test_ghz_score_is_one(self):
        q, _ = optimal_score(GHZ)
        assert q == pytest.approx(1.0, abs=1e-9)

    def test_chsh_score(self):
        q, _ = optimal_score(CHSH)
        assert q == pytest.approx(np.sqrt(2) / 2, abs=1e-6)

    def test_chsh_against_dense_grid_oracle(self):
        # independent dense grid over both phase angles
        th1 = np.linspace(0, np.pi, 1001)
        th2 = np.linspace(0, 2 * np.pi, 2001)
        t1, t2 = np.meshgrid(th1, th2, indexing="ij")
        p = 0.25 * (1 + np.exp(1j * t1) + np.exp(1j * t2) - np.exp(1j * (t1 + t2)))
        oracle = np.abs(p).max()
        q, _ = optimal_score(CHSH)
        assert q == pytest.approx(oracle, abs=1e-6)

    def test_constant_sign_game_scores_one_at_zero(self):
        q, th = optimal_score(all_plus_game())
        assert q == pytest.approx(1.0, abs=1e-9)
        assert eval_pg(all_plus_game(), [1, 1]) == pytest.approx(1.0)

    def test_maximizer_attains_score(self):
        q, th = optimal_score(CHSH)
        assert eval_zg(CHSH, th) == pytest.approx(q, abs=1e-8)


def mermin4_game():
    """Four-player Mermin game: even-weight inputs, sign (-1)^(weight/2)."""
    support = [("".join(map(str, bits)), "0.125", (-1) ** (sum(bits) // 2))
               for bits in itertools.product((0, 1), repeat=4)
               if sum(bits) % 2 == 0]
    return XorGame.from_support(4, support)


@st.composite
def small_games(draw):
    """2- and 3-player games on a random support with small integer weights."""
    n = draw(st.integers(2, 3))
    cube = list(itertools.product((0, 1), repeat=n))
    support = draw(st.lists(st.sampled_from(cube), min_size=1,
                            max_size=len(cube), unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(support),
                            max_size=len(support)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(support),
                          max_size=len(support)))
    total = sum(weights)
    return XorGame(n, tuple((bits, Fraction(w, total), eta)
                            for bits, w, eta in zip(support, weights, signs)))


def abs_pg_oracle(game, th):
    """|p_G| at a batch of angle tuples, straight from the game entries."""
    coeff = np.array([float(p) * eta for _, p, eta in game.entries])
    inp = np.array([bits for bits, _, _ in game.entries], dtype=float)
    return np.abs(np.exp(1j * (th @ inp.T)) @ coeff)


class TestScoreCertificate:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_games(), st.integers(0, 2**32 - 1))
    def test_certified_score_on_random_games(self, game, seed):
        q, th = optimal_score(game)
        gap = score_certificate(game, q)
        assert gap <= 1e-9
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0, 2 * np.pi, size=(1000, game.n))
        assert np.all(q >= abs_pg_oracle(game, phases) - 1e-12)
        # the certificate bounds every sample, and the value is attained
        axis = np.linspace(0, 2 * np.pi, 120 if game.n == 2 else 48,
                           endpoint=False)
        dense = np.stack(np.meshgrid(*[axis] * game.n, indexing="ij"),
                         axis=-1).reshape(-1, game.n)
        assert abs_pg_oracle(game, dense).max() <= q + gap
        assert q <= abs_pg_oracle(game, th[None, 1:])[0] + 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(small_games(), st.floats(1e-3, 0.5), st.integers(0, 2**32 - 1))
    def test_cell_bound_covers_its_cell(self, game, r, seed):
        coeff = np.array([float(p) * eta for _, p, eta in game.entries])
        inp = np.array([bits for bits, _, _ in game.entries], dtype=float)
        rng = np.random.default_rng(seed)
        centres = rng.uniform(0, 2 * np.pi, size=(50, game.n))
        _, bound = _cell_bounds(coeff, inp, centres, r)
        corners = np.array(list(itertools.product((-r, r), repeat=game.n)))
        inside = np.concatenate(
            [np.broadcast_to(corners, (50,) + corners.shape),
             rng.uniform(-r, r, size=(50, 200, game.n))], axis=1)
        points = centres[:, None, :] + inside
        assert np.all(abs_pg_oracle(game, points) <= bound[:, None])

    def test_lowered_value_fails_certificate(self):
        q, _ = optimal_score(GHZ)
        assert score_certificate(GHZ, q - 1e-3) >= 1e-3

    def test_four_player_certificate(self):
        game = mermin4_game()
        q, _ = optimal_score(game)
        assert q == pytest.approx(1.0, abs=1e-9)
        assert 0 < score_certificate(game, q) <= 1e-9

    def test_flat_directions_certified(self):
        # |p_G| depends only on the sum of the three angles here
        game = XorGame.from_support(3, [("000", "0.5", 1), ("111", "0.5", -1)])
        q, _ = optimal_score(game)
        assert q == pytest.approx(1.0, abs=1e-12)
        assert score_certificate(game, q) <= 1e-9


# (repr(value), maximiser bytes, repr(certified gap)) of optimal_score, as
# the materialised coarse grid gave them before the grid was streamed
SCORE_PINS = {
    "ghz": ("1.0", "7d5dd8acb161b1bc192d4454fb21f93f192d4454fb21f93f"
            "192d4454fb21f93f", "9.422389535274078e-10"),
    "ghz-110": ("1.0", "182d4454fb210940192d4454fb21f93f192d4454fb21f93f"
                "d221337f7cd91240", "9.422389535274078e-10"),
    "ghz-011": ("1.0", "182d4454fb2109c0192d4454fb21f93fd221337f7cd91240"
                "d221337f7cd91240", "9.422389535274078e-10"),
    "chsh": ("0.7071067811865476", "152d4454fb21e9bf152d4454fb21f93f"
             "192d4454fb21f93f", "8.733385126191706e-10"),
    "mermin4": ("1.0", "065c143326a6a13c182d4454fb21f93f182d4454fb21f93f"
                "182d4454fb21f93f182d4454fb21f93f", "8.627301095742723e-10"),
    "flat": ("1.0", "fdd175e6ec2ca7bc192d4454fb21094000000000000000000000"
             "000000000000", "4.716194101916926e-10"),
}


def pinned_game(name):
    return {
        "ghz": ghz_game,
        "ghz-110": lambda: ghz_game().relabel((1, 1, 0)),
        "ghz-011": lambda: ghz_game().relabel((0, 1, 1)),
        "chsh": chsh_game,
        "mermin4": mermin4_game,
        "flat": flat_game,
        "chsh-10": lambda: chsh_game().relabel((1, 0)),
    }[name]()


def flat_game():
    """|p_G| depends only on the sum of the three angles."""
    return XorGame.from_support(3, [("000", "0.5", 1), ("111", "0.5", -1)])


def materialised_grid(game):
    """Every coarse-grid centre at once, the way a meshgrid lays them out."""
    expo, basis = xorgames._reduced_exponents(game._score_arrays[1])
    dim = expo.shape[1]
    divs = xorgames._GRID_DIVS_LOW if dim <= 3 else xorgames._GRID_DIVS_4
    step = np.pi / divs
    axes = [np.arange(divs + 1) * step] + [np.arange(2 * divs) * step] * (dim - 1)
    centres = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return expo, centres.reshape(-1, dim), step / 2


def reference_certificate(game, value):
    """The certificate as a branch-and-bound over every coarse-grid cell:
    the bound of each cell of the materialised grid, then the open cells
    split until each is dropped or _MAX_CELLS is reached."""
    coeff = game._score_arrays[0]
    expo, centres, r = materialised_grid(game)
    dim = centres.shape[1]
    _, bound = _cell_bounds(coeff, expo, centres, r)
    offsets = np.array(list(itertools.product((-0.5, 0.5), repeat=dim)))
    target = value + xorgames.SCORE_CERT_TOL
    open_ = bound > target
    top = float(np.max(bound, where=~open_, initial=-np.inf))
    centres, bound = centres[open_], bound[open_]
    while len(centres):
        if len(centres) << dim > xorgames._MAX_CELLS:
            return max(top, float(np.max(bound))) - value
        centres = (centres[:, None, :] + r * offsets).reshape(-1, dim)
        r /= 2
        _, bound = _cell_bounds(coeff, expo, centres, r)
        open_ = bound > target
        top = max(top, float(np.max(bound, where=~open_, initial=-np.inf)))
        centres, bound = centres[open_], bound[open_]
    return top - value


class TestStreamedGrid:
    @pytest.mark.parametrize("name", sorted(SCORE_PINS))
    def test_score_bits_pinned(self, name):
        game = pinned_game(name)
        _SCORE_MEMO.pop(game.entries, None)
        q, th = optimal_score(game)
        gap = _SCORE_MEMO[game.entries][2]
        assert (repr(q), th.tobytes().hex(), repr(gap)) == SCORE_PINS[name]
        assert score_certificate(game, q) == gap

    @pytest.mark.parametrize("name", ["ghz", "chsh", "mermin4", "flat"])
    def test_stream_equals_one_call(self, name, monkeypatch):
        game = pinned_game(name)
        q, _ = optimal_score(game)
        grid = _BlockGrid(game)
        best = grid.best()
        starts_done = grid.done
        grid.certify(q)
        cells, absp, bound = (np.concatenate(p) for p in zip(*grid.pieces))
        ref_expo, centres, r = materialised_grid(game)
        assert np.array_equal(grid.expo, ref_expo)
        monkeypatch.setattr(xorgames, "_CHUNK", 2 * len(centres))
        ref_absp, ref_bound = _cell_bounds(game._score_arrays[0], grid.expo,
                                           centres, r)
        # the best cells, in the order a stable sort by -|p| gives them
        order = np.argsort(-ref_absp, kind="stable")[:xorgames._REFINE_STARTS]
        assert np.array_equal(best, order)
        assert np.array_equal(xorgames._grid_centres(best, grid.shape,
                                                     grid.step), centres[order])
        # each cell expanded once, with the one-call grid's bits
        assert len(np.unique(cells)) == len(cells)
        assert np.array_equal(absp, ref_absp[cells])
        assert np.array_equal(bound, ref_bound[cells])
        # no unexpanded cell is open, raises top or reaches the best eight
        target = q + xorgames.SCORE_CERT_TOL
        top = np.max(bound, where=bound <= target, initial=-np.inf)
        assert top == np.max(ref_bound, where=ref_bound <= target,
                             initial=-np.inf)
        rest = np.ones(len(centres), dtype=bool)
        rest[cells] = False
        assert np.all(ref_bound[rest] <= top)
        assert np.all(ref_absp[rest] < ref_absp[best[-1]])
        # each walk stopped at a block its rule lets it stop at
        blocks = np.append(grid.block_bound, -np.inf)
        assert blocks[starts_done] < ref_absp[best[-1]]
        assert blocks[grid.done] + grid.lift <= top

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_games(), st.integers(0, 2**32 - 1))
    def test_block_bound_covers_its_cells(self, game, seed):
        grid = _BlockGrid(game)
        rng = np.random.default_rng(seed)
        # the 20 highest block bounds, which the walks read first, and 40
        # more at random
        pick = np.unique(np.concatenate([
            np.arange(min(20, len(grid.order))),
            rng.integers(0, len(grid.order), size=40)]))
        r = grid.step / 2
        corners = np.array(list(itertools.product((-r, r), repeat=grid.dim)))
        for block, bound in zip(grid.order[pick], grid.block_bound[pick]):
            centres = xorgames._grid_centres(grid._cells_of(np.array([block])),
                                             grid.shape, grid.step)
            inside = np.concatenate(
                [np.broadcast_to(corners, (len(centres),) + corners.shape),
                 rng.uniform(-r, r, size=(len(centres), 50, grid.dim))], axis=1)
            points = (centres[:, None, :] + inside) @ grid.basis.T
            assert abs_pg_oracle(game, points).max() <= bound

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_games(), st.sampled_from((0.0, 1e-9, 1e-6, 1e-3, 0.05)))
    def test_certificate_equals_full_grid(self, game, below):
        q, _ = optimal_score(game)
        # a value below the optimum splits open cells until _MAX_CELLS;
        # a smaller cap gives up sooner on both sides
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xorgames, "_MAX_CELLS", 1 << 16)
            assert (score_certificate(game, q - below)
                    == reference_certificate(game, q - below))

    @pytest.mark.parametrize("cells", [1 << 8, 1 << 10])
    def test_give_up_equals_full_grid(self, cells, monkeypatch):
        # GHZ has 117 grid cells whose bound reaches qG: splitting them
        # passes 2**8 cells at once, and 2**10 at the next level
        q, _ = optimal_score(GHZ)
        monkeypatch.setattr(xorgames, "_MAX_CELLS", cells)
        gap = score_certificate(GHZ, q)
        assert gap > xorgames.SCORE_CERT_TOL  # the pass gave up
        assert gap == reference_certificate(GHZ, q)

    def test_cold_score_memory(self):
        game = ghz_game().relabel((1, 1, 0))
        _SCORE_MEMO.pop(game.entries, None)
        # the whole 510 000-cell grid held at once peaked at 36.5 MiB
        tracemalloc.start()
        try:
            optimal_score(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestClassicalOptimum:
    def test_ghz(self):
        assert classical_optimum(GHZ) == pytest.approx(0.75)

    def test_chsh(self):
        # oracle: enumerate the 16 deterministic strategies directly
        best = -2.0
        for a0 in (0, 1):
            for a1 in (0, 1):
                for b0 in (0, 1):
                    for b1 in (0, 1):
                        score = 0.0
                        for (x, y), _, eta in CHSH.entries:
                            out = (a0 if x == 0 else a1) ^ (b0 if y == 0 else b1)
                            score += 0.25 * eta * (1 if out == 0 else -1)
                        best = max(best, score)
        assert classical_optimum(CHSH) == pytest.approx((1 + best) / 2)
        assert classical_optimum(CHSH) == pytest.approx(0.75)

    def test_constant_win(self):
        assert classical_optimum(all_plus_game()) == pytest.approx(1.0)

    def test_classical_below_quantum(self):
        for game in (GHZ, CHSH):
            q, _ = optimal_score(game)
            assert classical_optimum(game) <= (1 + q) / 2 + 1e-12


class TestClassification:
    def test_ghz_strong(self):
        assert classify_selftest(GHZ) == "strong-self-test"

    def test_chsh_strong(self):
        assert classify_selftest(CHSH) == "strong-self-test"

    def test_all_plus_not_self_test(self):
        assert classify_selftest(all_plus_game()) == "not-self-test"

    # computed by the one-start-at-a-time refinement that the lanes replaced
    @pytest.mark.parametrize("name, verdict", [
        ("ghz-110", "strong-self-test"), ("ghz-011", "strong-self-test"),
        ("chsh-10", "strong-self-test"), ("mermin4", "strong-self-test"),
        ("flat", "inconclusive")])
    def test_classification_pinned(self, name, verdict):
        assert classify_selftest(pinned_game(name)) == verdict


def reference_grad_hess(game, theta):
    coeff, vecs = game._score_arrays[0], game._angle_vectors
    a = vecs @ theta
    grad = -(coeff * np.sin(a)) @ vecs
    hess = -(vecs.T * (coeff * np.cos(a))) @ vecs
    return grad, hess


def reference_refine_zg_max(game, theta0):
    """The one-start Newton refinement that _newton_lanes replaced."""
    th = np.asarray(theta0, dtype=float).copy()
    val = float(_zg_batch(game, th[None, :])[0])
    for _ in range(xorgames._MAX_NEWTON):
        grad, hess = reference_grad_hess(game, th)
        gn = float(np.linalg.norm(grad))
        if gn <= xorgames._GRAD_TOL:
            break
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = grad
        if float(step @ grad) <= 0:
            step = grad
        t = 1.0
        for _ in range(60):
            cand = th + t * step
            cval = float(_zg_batch(game, cand[None, :])[0])
            if cval >= val - 1e-15:
                th, val = cand, cval
                break
            t *= 0.5
        else:
            break
    return val, th


def assert_lanes_match_reference(game, starts, vals, ths):
    assert vals.shape == (len(starts),) and ths.shape == starts.shape
    for val, th, start in zip(vals, ths, starts):
        ref_val, ref_th = reference_refine_zg_max(game, start)
        assert val.tobytes() == np.float64(ref_val).tobytes()
        assert th.tobytes() == ref_th.tobytes()


@functools.lru_cache(maxsize=None)
def grid_starts(game):
    """The Newton starts optimal_score builds from the grid, once per game."""
    grid = _BlockGrid(game)
    return _grid_starts(game, grid.basis, grid.shape, grid.step, grid.best())


class TestNewtonLanes:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.one_of(small_games(), st.sampled_from(
               [mermin4_game(), flat_game()])),
           st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_lanes_equal_one_start_refinement(self, game, count, seed):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0, 2 * np.pi, size=(count, game.n + 1))
        starts = np.vstack([starts, grid_starts(game)])
        assert_lanes_match_reference(game, starts, *_newton_lanes(game, starts))

    def test_singular_lanes_fall_back_alone(self, monkeypatch):
        # the flat game's Hessian is singular along two directions, so most
        # batched solves raise; only the lanes whose own solve raises may
        # step along their gradient
        raised = {"batch": 0, "lane": 0}
        solve = np.linalg.solve

        def counting_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised["batch" if a.ndim == 3 else "lane"] += 1
                raise

        game = flat_game()
        starts = np.random.default_rng(7).uniform(0, 2 * np.pi, size=(60, 4))
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        vals, ths = _newton_lanes(game, starts)
        monkeypatch.undo()
        assert raised["batch"] > 0 and raised["lane"] > 0
        assert_lanes_match_reference(game, starts, vals, ths)



class TestScoringOperator:
    def test_ghz_corner_entries(self):
        m = scoring_operator(GHZ, [1j, 1j, 1j])
        # oracle: evaluate the polynomial on every conjugation pattern
        for b in range(8):
            bits = [(b >> k) & 1 for k in (2, 1, 0)]
            zz = [np.conj(1j) if bit else 1j for bit in bits]
            expected = eval_pg(GHZ, zz)
            assert m[b, 7 - b] == pytest.approx(expected)
        assert np.abs(m[0, 7]) == pytest.approx(1.0)
        w = np.linalg.eigvalsh(m)
        assert np.max(np.abs(w)) == pytest.approx(1.0, abs=1e-10)

    def test_uniform_phases_constant_entries(self):
        m = scoring_operator(CHSH, [1, 1])
        vals = [m[b, 3 - b] for b in range(4)]
        assert np.allclose(vals, eval_pg(CHSH, [1, 1]))

    def test_eigenvalues_are_plus_minus_entry_moduli(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            th = rng.uniform(0, np.pi, size=3)
            m = scoring_operator(GHZ, np.exp(1j * th))
            mods = sorted(np.abs(m[b, 7 - b]) for b in range(8))
            eigs = np.linalg.eigvalsh(m)
            paired = sorted(np.abs(eigs))
            assert np.allclose(sorted(mods), paired, atol=1e-10)

    def test_norm_matches_sign_flip_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            th = rng.uniform(0, np.pi, size=2)
            m = scoring_operator(CHSH, np.exp(1j * th))
            norm = np.max(np.abs(np.linalg.eigvalsh(m)))
            sampled = max(
                abs(eval_pg(CHSH, [np.exp(1j * s1 * th[0]), np.exp(1j * s2 * th[1])]))
                for s1 in (1, -1)
                for s2 in (1, -1)
            )
            assert norm == pytest.approx(sampled, abs=1e-9)

    def test_rejects_lower_half_phases(self):
        with pytest.raises(ValueError):
            scoring_operator(CHSH, [np.exp(-0.5j), 1])

    def test_hermitian_on_random_phases(self):
        rng = np.random.default_rng(14)
        for game in (GHZ, CHSH):
            for _ in range(50):
                m = scoring_operator(game, np.exp(1j * rng.uniform(0, np.pi, game.n)))
                assert np.max(np.abs(m - m.conj().T)) <= 1e-12


class TestAbsPgBound:
    def test_pg_bounded_by_optimal_score(self):
        rng = np.random.default_rng(12)
        for game in (GHZ, CHSH):
            q, _ = optimal_score(game)
            th = rng.uniform(0, 2 * np.pi, size=(100_000, game.n))
            z = np.exp(1j * th)
            vals = np.abs(
                sum(
                    float(p) * eta * np.prod(z[:, [k for k, b in enumerate(bits) if b]], axis=1)
                    for bits, p, eta in game.entries
                )
            )
            assert vals.max() <= q + 1e-8

    def test_three_phase_lemma(self):
        rng = np.random.default_rng(14)
        a = np.exp(1j * rng.uniform(0, np.pi, size=100_000))
        b = np.exp(-1j * rng.uniform(0, np.pi, size=100_000))
        c = np.exp(-1j * rng.uniform(0, np.pi, size=100_000))
        vals = np.abs(1 - a * b - b * c - c * a)
        assert vals.max() <= 2 * np.sqrt(2) + 1e-9


class TestTrustCoefficient:
    def test_ghz_paper_pattern_passes(self):
        res = trust_coefficient_check(
            GHZ, 0.14, ghz_anticommuter(), qG=1.0,
            samples=SamplingSpec(grid_points=24, random_samples=2000, multistarts=4),
        )
        assert res.passed
        assert res.max_violation <= 1e-9
        assert res.analytic_failures == 0

    def test_zero_coefficient_passes(self):
        res = trust_coefficient_check(
            GHZ, 0.0, ghz_anticommuter(), qG=1.0,
            samples=SamplingSpec(grid_points=12, random_samples=500, multistarts=2),
        )
        assert res.passed

    def test_half_coefficient_fails_with_witness(self):
        res = trust_coefficient_check(
            GHZ, 0.5, ghz_anticommuter(), qG=1.0,
            samples=SamplingSpec(grid_points=12, random_samples=500, multistarts=2),
        )
        assert not res.passed
        assert res.max_violation > 0
        zetas = np.array(res.witness)
        assert np.allclose(np.abs(zetas), 1.0, atol=1e-9)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -0.1])
    def test_coefficient_must_be_finite_and_nonnegative(self, c):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            trust_coefficient_check(GHZ, c, ghz_anticommuter(), qG=1.0)

    @pytest.mark.parametrize("fields, named", [
        ({"grid_points": -3}, "grid_points"),
        ({"random_samples": -5}, "random_samples"),
        ({"multistarts": -1}, "multistarts"),
        ({"grid_points": 0, "random_samples": 0}, "no sample points"),
    ])
    def test_sampling_spec_rejects_bad_sizes(self, fields, named):
        with pytest.raises(ValueError, match=named):
            SamplingSpec(**fields)

    def test_invalid_anticommuter_named_rejection(self):
        bad = np.ones(8, dtype=np.complex128)
        with pytest.raises(InvalidOperatorError, match="anticommute"):
            trust_coefficient_check(GHZ, 0.1, bad, qG=1.0)

    def test_family_members_valid_for_n2(self):
        members = list(anticommuter_family(2))
        assert len(members) == 2
        for m in members:
            _validate_anticommuter(2, m)

    def test_search_ghz_exceeds_014(self):
        v = trust_coefficient_search(
            GHZ,
            samples=SamplingSpec(grid_points=12, random_samples=500, multistarts=2),
            classification="strong-self-test",
        )
        assert v >= 0.14

    def test_search_chsh_positive(self):
        v = trust_coefficient_search(
            CHSH,
            samples=SamplingSpec(grid_points=16, random_samples=1000, multistarts=2),
            classification="strong-self-test",
        )
        assert 0.05 <= v <= np.sqrt(2) / 2

    def test_search_requires_strong_self_test(self):
        with pytest.raises(ValueError):
            trust_coefficient_search(all_plus_game(), classification="not-self-test")

    def test_dense_anticommuter_path(self):
        # an anticommuter is its reverse diagonal; the matrix form of the
        # GHZ pattern, or a 2-D array of any shape, is rejected
        a = ghz_anticommuter()
        dense = np.fliplr(np.diag(a))
        for bad in (dense, dense[:4, :4], a[None, :], a[:4]):
            with pytest.raises(InvalidOperatorError, match="reverse diagonal"):
                trust_coefficient_check(GHZ, 0.0, bad, qG=1.0)


FAMILY_PHASES = (1.0, -1.0, np.exp(0.3j), -np.exp(0.3j))


class TestAnticommuterConstraints:
    """The closed-form checks against the three conditions on the matrix:
    square the identity, Hermitian, anticommuting with X (x) I."""

    @staticmethod
    def dense(a):
        return np.fliplr(np.diag(a))

    @staticmethod
    def generation_x(d):
        return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(d // 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_members_validate(self, n):
        d = 2**n
        x1 = self.generation_x(d)
        members = list(anticommuter_family(n, FAMILY_PHASES))
        assert len(members) == 4 ** (d // 4)
        for a in members:
            assert np.array_equal(_validate_anticommuter(n, a), a)
            m = self.dense(a)
            assert np.array_equal(m, m.conj().T)
            assert np.allclose(m @ m, np.eye(d), rtol=0.0, atol=1e-12)
            assert np.max(np.abs(m @ x1 + x1 @ m)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_single_break_is_rejected(self, n):
        d = 2**n
        rng = np.random.default_rng(n)
        for a in anticommuter_family(n, FAMILY_PHASES):
            b = int(rng.integers(d))
            flipped, scaled = a.copy(), a.copy()
            flipped[b] = -a[b]
            scaled[b] = 1.001 * a[b]
            breaks = [flipped, scaled]
            complex_entries = np.flatnonzero(np.abs(a.imag) > 0.1)
            if complex_entries.size:
                # one mirror entry left unconjugated
                j = int(rng.choice(complex_entries))
                unmirrored = a.copy()
                unmirrored[d - 1 - j] = a[j]
                breaks.append(unmirrored)
            for bad in breaks:
                with pytest.raises(InvalidOperatorError):
                    _validate_anticommuter(n, bad)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_condition_is_checked(self, n):
        # each break keeps the other two conditions, so deleting any one
        # check lets its break through
        a = next(m for m in anticommuter_family(n, FAMILY_PHASES)
                 if np.any(np.abs(m.imag) > 0.1))
        d = 2**n
        x1 = self.generation_x(d)
        ones = np.ones(d, dtype=np.complex128)
        for bad, named in ((1.001 * a, "square"),
                           (np.exp(0.2j) * a, "Hermitian"),
                           (ones, "anticommute")):
            m = self.dense(bad)
            # unitary and Hermitian is the square being the identity
            held = [np.allclose(m @ m.conj().T, np.eye(d)),
                    np.allclose(m, m.conj().T),
                    np.allclose(m @ x1, -x1 @ m)]
            assert held.count(False) == 1
            with pytest.raises(InvalidOperatorError, match=named):
                _validate_anticommuter(n, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, value):
        a = ghz_anticommuter()
        a[0] = value
        with pytest.raises(InvalidOperatorError):
            _validate_anticommuter(3, a)


def reference_entries(game, th):
    """The per-entry loop reverse_diagonal_entries ran before its batched
    kernel."""
    coeff = np.array([float(p) * eta for _, p, eta in game.entries])
    inp = np.array([bits for bits, _, _ in game.entries], dtype=float)
    signs = _conjugation_signs(game.n)
    out = np.empty(th.shape[:-1] + (len(signs),), dtype=np.complex128)
    for b in range(len(signs)):
        out[..., b] = np.exp(1j * ((th * signs[b]) @ inp.T)) @ coeff
    return out


def reference_trust_check(game, c, anticommuter, samples, qG):
    """trust_coefficient_check with the sequential ascent: each start climbs
    alone, one norm evaluation per step."""
    anti_diag = _validate_anticommuter(game.n, anticommuter)

    def norms(th):
        return np.max(np.abs(reference_entries(game, th) - c * anti_diag),
                      axis=-1)

    rng = np.random.default_rng(samples.seed)
    axes = np.linspace(0, np.pi, samples.grid_points)
    grid = np.stack(np.meshgrid(*[axes] * game.n, indexing="ij"),
                    axis=-1).reshape(-1, game.n)
    rand = rng.uniform(0, np.pi, size=(samples.random_samples, game.n))
    th_all = np.vstack([grid, rand])
    more_starts = rng.uniform(0, np.pi,
                              size=(max(samples.multistarts - 1, 0), game.n))
    vals = norms(th_all)
    best = int(np.argmax(vals))
    best_val, best_th = float(vals[best]), th_all[best]
    step0 = np.pi / max(samples.grid_points, 8)
    moves = np.vstack([np.eye(game.n), -np.eye(game.n)])
    for s in [best_th, *more_starts]:
        th = np.array(s, dtype=float)
        step = step0
        val = float(norms(th[None, :])[0])
        for _ in range(200):
            trials = np.clip(th + step * moves, 0.0, np.pi)
            tvals = norms(trials)
            j = int(np.argmax(tvals))
            if tvals[j] > val + 1e-14:
                th, val = trials[j], float(tvals[j])
            else:
                step *= 0.5
                if step < 1e-10:
                    break
        if val > best_val:
            best_val, best_th = val, th
    violation = best_val - (qG - c)
    analytic = -1
    if (game.entries == GHZ.entries and abs(c - 0.14) < 1e-12
            and np.allclose(anti_diag.real, [1, 1, -1, -1, -1, -1, 1, 1])):
        analytic = ghz_analytic_entry_checks(th_all, c)
    return TrustCheckResult(
        passed=bool(violation <= 1e-9), max_violation=float(violation),
        witness=tuple(np.exp(1j * best_th)), samples_used=len(th_all),
        analytic_failures=analytic)


TRUST_GAMES = (GHZ, CHSH, GHZ.relabel((1, 1, 0)), CHSH.relabel((1, 0)),
               mermin4_game())


@st.composite
def trust_cases(draw):
    """A game, one of its anticommuter family members, a coefficient in
    [0, q_G] and a sampling spec; four-player grids stay at most 8 wide."""
    game = draw(st.sampled_from(TRUST_GAMES))
    family = list(anticommuter_family(
        game.n, phases=(1.0, -1.0, np.exp(0.25j * np.pi))))
    anti = draw(st.sampled_from(family))
    qG, _ = optimal_score(game)
    c = draw(st.one_of(st.sampled_from((0.0, 0.14)), st.floats(0.0, qG)))
    spec = SamplingSpec(
        grid_points=draw(st.integers(1, 20 if game.n <= 3 else 8)),
        random_samples=draw(st.integers(0, 500)),
        multistarts=draw(st.integers(0, 8)),
        seed=draw(st.integers(0, 2**32 - 1)))
    return game, anti, c, spec, qG


class TestLockstepAscent:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(trust_cases())
    def test_matches_sequential_ascent(self, case):
        game, anti, c, spec, qG = case
        new = trust_coefficient_check(game, c, anti, spec, qG=qG)
        ref = reference_trust_check(game, c, anti, spec, qG)
        assert new.passed == ref.passed
        assert new.max_violation == ref.max_violation
        assert new.witness == ref.witness
        assert new.samples_used == ref.samples_used
        assert new.analytic_failures == ref.analytic_failures

    def test_ghz_paper_pattern_matches_sequential_ascent(self):
        spec = SamplingSpec(grid_points=24, random_samples=2000, multistarts=4)
        assert (trust_coefficient_check(GHZ, 0.14, ghz_anticommuter(), spec, qG=1.0)
                == reference_trust_check(GHZ, 0.14, ghz_anticommuter(), spec, 1.0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(TRUST_GAMES), st.integers(2, 40),
           st.integers(0, 2**32 - 1))
    def test_batch_rows_independent_of_batch(self, game, rows, seed):
        rng = np.random.default_rng(seed)
        th = rng.uniform(0, np.pi, size=(rows, game.n))
        whole = reverse_diagonal_entries(game, th)
        assert np.array_equal(whole, reference_entries(game, th))
        cut = int(rng.integers(2, rows + 1))
        lo = int(rng.integers(0, rows - cut + 1))
        assert np.array_equal(reverse_diagonal_entries(game, th[lo:lo + cut]),
                              whole[lo:lo + cut])
        for row in th[:3]:
            assert np.array_equal(reverse_diagonal_entries(game, row[None, :]),
                                  reference_entries(game, row[None, :]))

    @pytest.mark.parametrize("game", [GHZ, GHZ.relabel((1, 1, 0)), CHSH])
    def test_entries_independent_of_piece_size(self, game, monkeypatch):
        # batches of 2 * _ENTRY_CHUNK rows or more go in pieces; by the
        # batch rule every piece size gives each row the same bits
        axes = np.linspace(0, np.pi, 24)
        grid = np.stack(np.meshgrid(*[axes] * game.n, indexing="ij"),
                        axis=-1).reshape(-1, game.n)
        th = np.vstack([grid, np.random.default_rng(1).uniform(
            0, np.pi, size=(2000, game.n))])
        got = []
        for chunk in (1 << 6, 1 << 12):
            monkeypatch.setattr(xorgames, "_ENTRY_CHUNK", chunk)
            got.append(reverse_diagonal_entries(game, th))
        monkeypatch.undo()
        assert np.array_equal(got[0], got[1])
        assert np.array_equal(reverse_diagonal_entries(game, th), got[0])

    def test_sample_grid_matches_loop(self):
        axes = np.linspace(0, np.pi, 24)
        grid = np.stack(np.meshgrid(*[axes] * 3, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        th = np.vstack([grid, np.random.default_rng(0).uniform(
            0, np.pi, size=(2000, 3))])
        assert len(th) == 15_824
        assert np.array_equal(reverse_diagonal_entries(GHZ, th),
                              reference_entries(GHZ, th))


class TestTrustVerdict:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(trust_cases())
    def test_matches_check_on_the_tolerance(self, case):
        # a difference of two norms near 1 is a multiple of 2**-53 or so, so
        # it never equals 1e-9 exactly; at the dyadic tolerance 2**-30 the
        # score q puts the best norm exactly on the tolerance, where the
        # check passes and any value above the best one would fail it
        game, anti, _, spec, _ = case
        best = trust_coefficient_check(game, 0.0, anti, spec, qG=0.0).max_violation
        q = best - 2.0**-30
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xorgames, "_TRUST_ATOL", 2.0**-30)
            res = trust_coefficient_check(game, 0.0, anti, spec, qG=q)
            assert res.passed and res.max_violation == 2.0**-30
            q = np.nextafter(q, -np.inf)
            assert not trust_coefficient_check(game, 0.0, anti, spec, qG=q).passed

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(trust_cases())
    def test_sampled_max_matches_max_over_last_axis(self, case):
        game, anti, c, spec, _ = case
        entries = xorgames._trust_samples(game, spec)[1]
        a = _validate_anticommuter(game.n, anti)
        assert np.array_equal(_sampled_max(entries, c, a),
                              np.max(np.abs(entries - c * a), axis=-1))

    @pytest.mark.parametrize("game, bound", [
        (GHZ, "0.1601328125"),
        (GHZ.relabel((1, 1, 0)), "0.1601328125"),
        (CHSH, "0.10223482791737193"),
    ])
    def test_searched_bounds_pinned(self, game, bound):
        assert repr(trust_coefficient_search(game)) == bound


def raw_least_threshold(entries, a, q):
    """min over rows and b of (q^2 - |e_b|^2) / (2 (q - Re(e_b conj(a_b)))),
    -inf where the denominator is not positive."""
    num = q * q - np.abs(entries) ** 2
    den = 2 * (q - (entries * a.conj()).real)
    return np.min(np.divide(num, den, out=np.full(num.shape, -np.inf),
                            where=den > 0))


# Random (game, spec) cases drawn as trust_cases draws them, with the bound
# of the bisection search over trust_coefficient_check verdicts that the
# closed-form search replaced
REPLAY_GAMES = {"ghz": GHZ, "chsh": CHSH, "ghz110": GHZ.relabel((1, 1, 0)),
                "chsh10": CHSH.relabel((1, 0)), "mermin4": mermin4_game()}
BISECTION_BOUNDS = [
    ("ghz", 14, 106, 2, 4212368947, "0.1601328125"),
    ("ghz", 12, 162, 3, 3999524507, "0.1601328125"),
    ("ghz", 16, 372, 0, 3882547377, "0.1601328125"),
    ("ghz", 7, 146, 8, 4051939627, "0.1601328125"),
    ("chsh", 9, 323, 1, 1689610694, "0.10223482791737193"),
    ("mermin4", 1, 454, 1, 1295997686, "0.1581796875"),
    ("chsh", 8, 228, 6, 2823162525, "0.10223482791737193"),
    ("chsh", 11, 395, 8, 1936342601, "0.10223482791737193"),
    ("chsh10", 13, 478, 8, 4138827435, "0.0"),
    ("ghz", 16, 172, 0, 3308745043, "0.1601328125"),
    ("chsh", 13, 81, 1, 3215627947, "0.10223482791737193"),
    ("mermin4", 2, 486, 1, 59345739, "0.19577734375"),
    ("mermin4", 4, 83, 3, 2679705090, "0.1581796875"),
    ("mermin4", 3, 20, 8, 3672333833, "0.1581796875"),
    ("chsh10", 5, 322, 0, 267787058, "0.0"),
    ("ghz110", 1, 147, 0, 2403031289, "0.1777109375"),
    ("chsh10", 1, 455, 8, 3271475287, "0.0"),
    ("ghz110", 19, 324, 4, 1337570232, "0.1601328125"),
    ("mermin4", 7, 36, 7, 4104045930, "0.1581796875"),
    ("mermin4", 3, 311, 0, 762598747, "0.16550390625"),
    ("ghz110", 3, 302, 0, 726428700, "0.16550390625"),
    ("chsh10", 2, 460, 5, 87288270, "0.0"),
    ("ghz110", 9, 106, 8, 3067726041, "0.1601328125"),
    ("chsh10", 7, 47, 5, 2331537888, "0.0"),
    ("ghz110", 20, 78, 3, 3339800415, "0.1601328125"),
    ("chsh10", 19, 146, 1, 1953729757, "0.0"),
    ("ghz110", 2, 49, 5, 700505613, "0.1601328125"),
    ("chsh10", 11, 206, 2, 580179472, "0.0"),
    ("ghz", 13, 434, 6, 2234283413, "0.1601328125"),
    ("ghz110", 16, 303, 1, 3107845267, "0.1601328125"),
    ("ghz", 5, 18, 5, 2678342763, "0.1601328125"),
    ("ghz110", 17, 285, 8, 2225973219, "0.1601328125"),
]


class TestClosedFormSearch:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(trust_cases())
    def test_sampled_verdict_is_the_closed_form(self, case):
        # the c between the least c* at q_G and at q_G + 1e-9 passes the
        # check but would fail a closed form without the 1e-9 tolerance
        game, anti, c, spec, qG = case
        a = _validate_anticommuter(game.n, anti)
        entries = xorgames._trust_samples(game, spec)[1]
        least = float(np.min(_trust_thresholds(entries, a, qG)))
        band = 0.5 * (raw_least_threshold(entries, a, qG)
                      + raw_least_threshold(entries, a, qG + 1e-9))
        near = [least + d for d in (-1e-4, -1e-9, -2e-12, 2e-12, 1e-9, 1e-4)]
        for x in [c, 0.0, band, *near]:
            if not np.isfinite(x) or x < 0 or abs(x - least) < 1e-12:
                continue
            verdict = _sampled_max(entries, x, a).max() - (qG - x) <= 1e-9
            assert verdict == (x <= least)

    @pytest.mark.parametrize("game, spec, bound", [
        (GHZ.relabel((0, 1, 1)), None, "0.1601328125"),
        (CHSH.relabel((1, 0)), None, "0.0"),
        (mermin4_game(), SamplingSpec(10, 500, 4), "0.1581796875"),
    ])
    def test_more_searched_bounds_pinned(self, game, spec, bound):
        assert repr(trust_coefficient_search(
            game, spec, classification="strong-self-test")) == bound

    @pytest.mark.parametrize("name, grid, rand, starts, seed, bound",
                             BISECTION_BOUNDS)
    def test_never_above_the_bisection(self, name, grid, rand, starts, seed,
                                       bound):
        # where the bound is lower, the bisection's claim fails a denser
        # check against every anticommuter the search tries
        game = REPLAY_GAMES[name]
        spec = SamplingSpec(grid, rand, starts, seed)
        old = float(bound)
        new = trust_coefficient_search(game, spec,
                                       classification="strong-self-test")
        assert new <= old
        if new < old:
            dense = SamplingSpec(24 if game.n <= 3 else 10, 2000, 8)
            assert not any(trust_coefficient_check(
                game, old + xorgames.TRUST_RESOLUTION, anti, dense).passed
                for anti in trust_anticommuters(game))


class TestConstantsBundles:
    def test_ghz_constants(self):
        c = ghz_constants()
        assert c.qG == 1.0 and c.wG == 1.0 and c.fG == 0.0
        assert c.certified_gap is None
        assert c.vG_lower == pytest.approx(0.14)

    def test_chsh_constants(self):
        c = chsh_constants()
        assert c.qG == pytest.approx(np.sqrt(2) / 2)
        assert 0 < c.vG_lower <= c.qG

    @staticmethod
    def _skip_trust_search(monkeypatch):
        monkeypatch.setattr(xorgames, "trust_coefficient_search",
                            lambda game, classification: 0.10)

    def test_analyze_game_chsh(self, monkeypatch):
        self._skip_trust_search(monkeypatch)
        consts = analyze_game(CHSH)
        assert consts.classification == "strong-self-test"
        assert 0 < consts.certified_gap <= 1e-9
        assert consts.wG == pytest.approx((1 + np.sqrt(2) / 2) / 2)
        assert (consts.vG_lower, consts.provenance) == (0.10, "sampled closed form")

    def test_analyze_game_certifies_score(self, monkeypatch):
        self._skip_trust_search(monkeypatch)
        relabeled = game_from_record(game_to_record(GHZ.relabel((1, 1, 0))))
        for game in (relabeled, mermin4_game()):
            consts = analyze_game(game)
            assert consts.qG == pytest.approx(1.0, abs=1e-9)
            assert 0 < consts.certified_gap <= 1e-9
