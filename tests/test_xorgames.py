import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    trust_coefficient_check,
    trust_coefficient_search,
)
from direx.xorgames import (
    _cell_bounds,
    _conjugation_signs,
    _validate_anticommuter,
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



class TestScoringOperator:
    def test_ghz_corner_entries(self):
        op = scoring_operator(GHZ, [1j, 1j, 1j])
        m = op.entries
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
        op = scoring_operator(CHSH, [1, 1])
        vals = [op.entries[b, 3 - b] for b in range(4)]
        assert np.allclose(vals, eval_pg(CHSH, [1, 1]))

    def test_eigenvalues_are_plus_minus_entry_moduli(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            th = rng.uniform(0, np.pi, size=3)
            op = scoring_operator(GHZ, np.exp(1j * th))
            mods = sorted(np.abs(op.entries[b, 7 - b]) for b in range(8))
            eigs = np.linalg.eigvalsh(op.entries)
            paired = sorted(np.abs(eigs))
            assert np.allclose(sorted(mods), paired, atol=1e-10)

    def test_norm_matches_sign_flip_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            th = rng.uniform(0, np.pi, size=2)
            op = scoring_operator(CHSH, np.exp(1j * th))
            norm = np.max(np.abs(np.linalg.eigvalsh(op.entries)))
            sampled = max(
                abs(eval_pg(CHSH, [np.exp(1j * s1 * th[0]), np.exp(1j * s2 * th[1])]))
                for s1 in (1, -1)
                for s2 in (1, -1)
            )
            assert norm == pytest.approx(sampled, abs=1e-9)

    def test_rejects_lower_half_phases(self):
        with pytest.raises(ValueError):
            scoring_operator(CHSH, [np.exp(-0.5j), 1])


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

    def test_sample_grid_matches_loop(self):
        axes = np.linspace(0, np.pi, 24)
        grid = np.stack(np.meshgrid(*[axes] * 3, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        th = np.vstack([grid, np.random.default_rng(0).uniform(
            0, np.pi, size=(2000, 3))])
        assert len(th) == 15_824
        assert np.array_equal(reverse_diagonal_entries(GHZ, th),
                              reference_entries(GHZ, th))


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

    def test_analyze_game_chsh(self):
        consts = analyze_game(CHSH, vg_lower=0.10, provenance="frozen")
        assert consts.classification == "strong-self-test"
        assert 0 < consts.certified_gap <= 1e-9
        assert consts.wG == pytest.approx((1 + np.sqrt(2) / 2) / 2)

    def test_analyze_game_certifies_score(self):
        relabeled = game_from_record(game_to_record(GHZ.relabel((1, 1, 0))))
        for game in (relabeled, mermin4_game()):
            consts = analyze_game(game, vg_lower=0.10, provenance="frozen")
            assert consts.qG == pytest.approx(1.0, abs=1e-9)
            assert 0 < consts.certified_gap <= 1e-9
