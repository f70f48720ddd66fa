import pickle
import re
import time

import numpy as np
import pytest

from direx.devices import (
    AdversarialBehavior,
    NoisyHonestBehavior,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PartiallyTrustedBehavior,
    behavior_from_record,
    chsh_honest_device,
    ghz_honest_device,
    random_partially_trusted,
)
from direx.protocols import make_responder
from direx.seeding import numpy_rng, parse_master_seed
from direx.xorgames import chsh_game, ghz_game

MASTER = parse_master_seed("42" * 32)


def play_rounds(behavior, inputs, input_index, rng):
    """The device's packed outputs for the rounds input_index names, as
    the round engine asks for them: one responder call."""
    return make_responder(behavior)(tuple(inputs),
                                    np.asarray(input_index, dtype=np.int64), rng)


class TestHonestGhz:
    def test_wins_every_sampled_game(self):
        dev = ghz_honest_device()
        game = ghz_game()
        rng = numpy_rng(MASTER, "ghz-win")
        inputs = [bits for bits, _, _ in game.entries]
        parities = np.array([game.win_parity(bits) for bits in inputs])
        input_index = np.arange(100_000) % 4
        outs = play_rounds(dev, inputs, input_index, rng)
        assert np.array_equal(np.bitwise_count(outs) & 1, parities[input_index])

    def test_input_000_even_parity_always(self):
        dev = ghz_honest_device()
        dist = dev.output_distribution((0, 0, 0))
        for idx, p in enumerate(dist):
            parity = bin(idx).count("1") & 1
            if parity == 1:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_input_011_odd_parity_always(self):
        dev = ghz_honest_device()
        dist = dev.output_distribution((0, 1, 1))
        for idx, p in enumerate(dist):
            parity = bin(idx).count("1") & 1
            if parity == 0:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_single_bit_marginal_uniform(self):
        dev = ghz_honest_device()
        rng = numpy_rng(MASTER, "ghz-marginal")
        n = 100_000
        outs = play_rounds(dev, [(0, 1, 1), (0, 0, 0)], np.arange(n) % 2, rng)
        counts = [np.count_nonzero((outs >> (2 - j)) & 1) for j in range(3)]
        # three-sigma binomial band around 1/2
        for c in counts:
            assert abs(c / n - 0.5) <= 3 * 0.5 / np.sqrt(n)

    def test_chsh_honest_win_rate(self):
        dev = chsh_honest_device()
        game = chsh_game()
        dist_sum = 0.0
        for bits, p, _ in game.entries:
            d = dev.output_distribution(bits)
            wp = game.win_parity(bits)
            win = sum(prob for idx, prob in enumerate(d)
                      if (bin(idx).count("1") & 1) == wp)
            dist_sum += float(p) * win
        assert dist_sum == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-9)

    def test_distribution_cache_not_shared_across_instances(self):
        # two distinct devices with different states must not reuse each
        # other's cached distributions
        import gc

        from direx.devices import HonestBehavior

        def fresh(sign):
            psi = np.zeros(8, dtype=np.complex128)
            psi[0], psi[7] = 1 / np.sqrt(2), sign / np.sqrt(2)
            return HonestBehavior(n=3, state=psi,
                                  observables=((PAULI_X, PAULI_Y),) * 3)

        a = fresh(+1)
        da = a.output_distribution((0, 0, 0)).copy()
        del a
        gc.collect()
        b = fresh(-1)
        db = b.output_distribution((0, 0, 0))
        assert not np.allclose(da, db)


class TestNoisyHonest:
    def test_uniform_corruption_win_rate(self):
        dev = NoisyHonestBehavior(base=ghz_honest_device(), p=0.03)
        game = ghz_game()
        win = 0.0
        for bits, p, _ in game.entries:
            d = dev.output_distribution(bits)
            wp = game.win_parity(bits)
            win += float(p) * sum(prob for idx, prob in enumerate(d)
                                  if (bin(idx).count("1") & 1) == wp)
        assert win == pytest.approx(1 - 0.03 / 2)

    def test_fixed_mode(self):
        dev = NoisyHonestBehavior(base=ghz_honest_device(), p=1.0, mode="fixed",
                                  fixed_outputs=tuple([5] * 8))
        d = dev.output_distribution((0, 0, 0))
        assert d[5] == pytest.approx(1.0)

    def test_p_domain(self):
        with pytest.raises(ValueError):
            NoisyHonestBehavior(base=ghz_honest_device(), p=1.5)


MEMOISED = {
    "honest": ghz_honest_device,
    "uniform": lambda: NoisyHonestBehavior(base=ghz_honest_device(), p=0.3),
    "fixed": lambda: NoisyHonestBehavior(
        base=ghz_honest_device(), p=0.5, mode="fixed",
        fixed_outputs=(7, 6, 5, 4, 3, 2, 1, 0)),
}


def _mixed(behavior, input_bits):
    """The noisy distribution from its definition, on a fresh honest one."""
    honest = ghz_honest_device().output_distribution(input_bits)
    noise = np.full(8, 1 / 8)
    if behavior.mode == "fixed":
        noise = np.zeros(8)
        noise[behavior.fixed_outputs[int("".join(map(str, input_bits)), 2)]] = 1.0
    return (1.0 - behavior.p) * honest + behavior.p * noise


class TestMemoisedDistributions:
    # every caller of one behavior shares its cached arrays, so a write
    # must raise instead of changing every later run of that behavior
    @pytest.mark.parametrize("name", sorted(MEMOISED))
    def test_entries_read_only_and_equal_to_a_fresh_computation(self, name):
        dev = MEMOISED[name]()
        for bits in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)):
            d = dev.output_distribution(bits)
            assert dev.output_distribution(list(bits)) is d
            before = d.copy()
            with pytest.raises(ValueError, match="read-only"):
                d[0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                d *= 2
            assert np.array_equal(dev.output_distribution(bits), before)
            fresh = MEMOISED[name]().output_distribution(bits)
            assert d.tobytes() == fresh.tobytes()
            if name != "honest":
                assert d.tobytes() == _mixed(dev, bits).tobytes()

    @pytest.mark.parametrize("name", sorted(MEMOISED))
    def test_pickled_behaviors_rebuild_a_read_only_memo(self, name):
        # monte_carlo's workers receive the behavior pickled; unpickled
        # arrays are writable, so the memo must not travel with it
        dev = MEMOISED[name]()
        d = dev.output_distribution((0, 1, 1))
        copy = pickle.loads(pickle.dumps(dev))
        assert "_dist_cache" not in vars(copy)
        e = copy.output_distribution((0, 1, 1))
        assert e.tobytes() == d.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            e[0] = 0.5


class TestAdversarial:
    def test_echo_program_deterministic(self):
        seen = []
        dev = AdversarialBehavior(
            n=3, program=lambda tr, inp: (seen.append(list(tr)) or inp))
        outs = play_rounds(dev, [(1, 0, 1), (0, 1, 1)], [0, 1],
                           numpy_rng(MASTER, "adv"))
        assert outs.tolist() == [0b101, 0b011]
        assert seen == [[], [((1, 0, 1), (1, 0, 1))]]

    def test_transcript_dependent_program(self):
        dev = AdversarialBehavior(
            n=2, program=lambda tr, inp: (len(tr) % 2, 0))
        outs = play_rounds(dev, [(0, 0)], [0, 0], numpy_rng(MASTER, "adv2"))
        assert outs.tolist() == [0b00, 0b10]

    @pytest.mark.parametrize("answer", [(0, 1, 1), (0, 2)])
    def test_answer_not_n_bits_rejected(self, answer):
        dev = AdversarialBehavior(n=2, program=lambda tr, inp: answer)
        with pytest.raises(ValueError,
                           match=r"^adversary answered .*, not 2 bits$"):
            play_rounds(dev, [(0, 0)], [0], numpy_rng(MASTER, "adv4"))

    def test_program_reads_a_view_of_its_transcript(self):
        seen = []
        dev = AdversarialBehavior(
            n=1, program=lambda tr, inp: (seen.append(tr) or (len(tr) % 2,)))
        play_rounds(dev, [(0,)], [0, 0, 0], numpy_rng(MASTER, "adv3"))
        view = seen[0]
        assert seen == [view] * 3  # one view, never a copy
        assert list(view) == [((0,), (0,)), ((0,), (1,)), ((0,), (0,))]
        assert view[-1] == ((0,), (0,))
        assert view[:2] == (((0,), (0,)), ((0,), (1,)))
        with pytest.raises(AttributeError):
            view.append(((1,), (1,)))

    def test_adversarial_run_cost_is_linear(self):
        # the adversary reads its memory in place, so a round costs the same
        # early and late in a run
        from fractions import Fraction

        from direx.protocols import ProtocolConfig, run_protocol_r
        from direx.seeding import substream

        adv = behavior_from_record({"variant": "adversarial", "n": 3, "table": {
            "0,0,0": [1, 1, 0], "1,1,0": [0, 1, 1], "0,1,1": [1, 0, 0]}})

        def per_round(n_rounds):
            cfg = ProtocolConfig(mode="R", N=n_rounds, q=Fraction(1, 2),
                                 eta=0.4, game=ghz_game(), w_G=1.0)
            best = float("inf")
            for rep in range(5):
                t0 = time.perf_counter()
                run_protocol_r(cfg, adv, substream(MASTER, "lin", rep),
                               numpy_rng(MASTER, "lin", rep),
                               record_rounds=False)
                best = min(best, time.perf_counter() - t0)
            return best / n_rounds

        assert per_round(20_000) <= 2.0 * per_round(5_000)


class TestPartiallyTrusted:
    def test_mixture_frequencies(self):
        rng_make = np.random.default_rng(1)
        v, h = 0.5, 0.3
        beh = random_partially_trusted(rng_make, v, h, env_dim=1)
        weights = [w for w, _, _, _ in beh.kraus_for(1)]
        assert weights == pytest.approx([v, 1 - v - h, h])

    def test_trusted_pair_anticommutes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            beh = random_partially_trusted(rng, 0.6, 0.2)
            t0, t1 = beh.trusted_pair
            assert np.max(np.abs(t0 @ t1 + t1 @ t0)) < 1e-9
            d = t0.shape[0]
            assert np.max(np.abs(t0 @ t0 - np.eye(d))) < 1e-9
            assert np.max(np.abs(t1 @ t1 - np.eye(d))) < 1e-9
            assert np.linalg.norm(beh.dishonest, 2) <= 1 + 1e-9

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            random_partially_trusted(np.random.default_rng(0), 1.0, 0.0).__class__(
                v=1.0, h=0.0, trusted_pair=(PAULI_X, PAULI_X),
                dishonest=np.zeros((2, 2)),
                state=np.array([1.0, 0.0]), env_dim=1)


E01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def _off_by(check, e):
    """The fields of a valid partially trusted device with one check's
    quantity put e away from where that check allows it."""
    fields = dict(v=0.5, h=0.2, trusted_pair=(PAULI_X, PAULI_Y),
                  dishonest=0.5 * PAULI_Z, state=np.array([1.0, 0.0]),
                  env_dim=1)
    if check == "weights":
        fields["h"] = 0.5 + 1e-12 + e
    elif check == "hermitian":
        fields["trusted_pair"] = (PAULI_X + (1e-9 + e) * E01, PAULI_Y)
    elif check == "squares to identity":
        fields["trusted_pair"] = (PAULI_X, np.sqrt(1.0 + 1e-9 + e) * PAULI_Y)
    elif check == "anticommutes":
        # {X, cY + sX} = 2s I
        s = (1e-9 + e) / 2
        fields["trusted_pair"] = (PAULI_X, np.sqrt(1 - s * s) * PAULI_Y + s * PAULI_X)
    elif check == "dishonest hermitian":
        fields["dishonest"] = 0.5 * PAULI_Z + (1e-9 + e) * E01
    elif check == "dishonest norm":
        fields["dishonest"] = (1.0 + 1e-9 + e) * PAULI_Z
    elif check == "state normalized":
        fields["state"] = np.array([1.0 + 1e-9 + e, 0.0])
    return fields


class TestPartiallyTrustedChecks:
    """Every check of the partially trusted device (and of
    _check_involution, through its trusted pair) rejects a violation 1e-8
    past its tolerance with its own message, and accepts a value 1e-10
    inside it.  The weights' tolerance is 1e-12, so there the accepted
    value is 1e-13 inside; the state dimension is a count."""

    MESSAGES = {
        "weights": "mixture weights must satisfy v, h >= 0 and v + h <= 1",
        "hermitian": "trusted input-0 measurement must be Hermitian",
        "squares to identity": "trusted input-1 measurement must square to the identity",
        "anticommutes": "trusted pair must anticommute",
        "dishonest hermitian": "dishonest observable must be Hermitian",
        "dishonest norm": "dishonest observable must have norm at most 1",
        "state normalized": "state must be normalized",
    }

    @pytest.mark.parametrize("check", list(MESSAGES))
    def test_violation_rejected_by_name(self, check):
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGES[check])}$"):
            PartiallyTrustedBehavior(**_off_by(check, 1e-8))

    @pytest.mark.parametrize("check", list(MESSAGES))
    def test_inside_tolerance_accepted(self, check):
        e = -1e-13 if check == "weights" else -1e-10
        PartiallyTrustedBehavior(**_off_by(check, e))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="^mixture weights"):
            PartiallyTrustedBehavior(**{**_off_by(None, 0.0), "v": -1e-8})

    def test_state_dimension(self):
        fields = _off_by(None, 0.0)
        PartiallyTrustedBehavior(**{**fields, "state": np.array([0.6, 0, 0, 0.8]),
                                    "env_dim": 2})
        for state, env in ((np.array([1.0, 0.0]), 2), (np.array([0.6, 0, 0.8]), 1)):
            with pytest.raises(ValueError, match="^state dimension must equal"):
                PartiallyTrustedBehavior(**{**fields, "state": state, "env_dim": env})


class TestReplay:
    def test_bit_exact_replay(self):
        dev = ghz_honest_device()
        game = ghz_game()
        runs = []
        for _ in range(2):
            rng = numpy_rng(MASTER, "replay", 7)
            runs.append(play_rounds(dev, game.inputs, np.repeat(np.arange(4), 100),
                                    rng).tolist())
        assert runs[0] == runs[1]


class TestBehaviorRecords:
    def test_honest_record(self):
        dev = behavior_from_record({"variant": "honest", "device": "ghz"})
        assert dev.n == 3

    def test_noisy_record(self):
        dev = behavior_from_record(
            {"variant": "noisy_honest", "device": "chsh", "p": 0.1})
        assert dev.p == 0.1 and dev.n == 2

    def test_adversarial_record(self):
        dev = behavior_from_record(
            {"variant": "adversarial", "n": 2, "table": {"0,0": [1, 1]}})
        outs = play_rounds(dev, [(0, 0), (1, 0)], [0, 0, 1],
                           numpy_rng(MASTER, "record"))
        assert outs.tolist() == [0b11, 0b11, 0b00]

    def test_adversarial_record_round_indexed(self):
        dev = behavior_from_record(
            {"variant": "adversarial", "n": 2,
             "table": {"0,0": [1, 1], "1@0,0": [0, 1]}})
        outs = play_rounds(dev, [(0, 0)], [0, 0, 0], numpy_rng(MASTER, "record"))
        assert outs.tolist() == [0b11, 0b01, 0b11]

    @pytest.mark.parametrize("bad", [-1, 8, 0.5, True])
    def test_noisy_record_rejects_bad_fixed_output(self, bad):
        fixed = [7] * 7 + [bad]
        # the entries 7 pass; the error names the bad one
        with pytest.raises(ValueError,
                           match=rf"fixed_outputs .* not {re.escape(repr(bad))}$"):
            behavior_from_record(
                {"variant": "noisy_honest", "device": "ghz", "p": 0.1,
                 "mode": "fixed", "fixed_outputs": fixed})

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="nope"):
            behavior_from_record({"variant": "nope"})
