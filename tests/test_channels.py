"""Random channel generation: determinism, moments, correlation structure."""

import random

import numpy as np
import pytest

from decoupsim.errors import InvalidInputError
from decoupsim.channels import (
    _pcg64_states,
    _shadowing_gain,
    _read_streams,
    CeErrorParams,
    KroneckerParams,
    LargeScaleParams,
    RngSeed,
    apply_large_scale,
    correlation_matrix,
    gen_awgn,
    gen_channel_stack,
    gen_iid_channel,
    kronecker_correlate,
    matrix_sqrt_psd,
    perturb_channel,
)


class TestRngSeed:
    def test_same_seed_same_stream_reproduces(self):
        a = gen_iid_channel(RngSeed(42, 7), 6, 3)
        b = gen_iid_channel(RngSeed(42, 7), 6, 3)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = gen_iid_channel(RngSeed(42, 0), 6, 3)
        b = gen_iid_channel(RngSeed(42, 1), 6, 3)
        assert not np.allclose(a, b)


class TestStreamHash:
    """The vectorised SeedSequence hash that block sweeps draw their streams with."""

    @staticmethod
    def keys():
        # 43 seeds x 56 streams; seeds past 2^32, 2^64 and 2^128 take more
        # words (a word past the fourth costs 4 more hash steps, which the 6-,
        # 8- and 32-word seeds pin), streams of 2^32 and more (a trial index
        # of 4096 and up) two
        rnd = random.Random(17)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 7, 2**128 - 1, 2**128,
                 2**130 + 5] + [rnd.getrandbits(rnd.choice((8, 31, 33, 63, 65, 100, 129, 140)))
                                for _ in range(30)] + [2**160, 2**255 - 19, 2**1000 + 1]
        fixed = [0, 1, 16, 2**20, 2**32 - 1, 2**32, 2**32 + 1, 5001 * 2**20 + 16, 2**63,
                 2**64 - 1]
        return [(seed, fixed + [rnd.getrandbits(rnd.choice((4, 20, 31, 32, 33, 40, 52, 64)))
                                for _ in range(46)])
                for seed in seeds]

    def test_states_match_seed_sequence(self):
        keys = self.keys()
        assert sum(len(streams) for _, streams in keys) >= 2000
        for seed, streams in keys:
            want = [RngSeed(seed, s).generator().bit_generator.state["state"] for s in streams]
            assert _pcg64_states(seed, streams) == [(w["state"], w["inc"]) for w in want], seed

    def test_reader_draws_what_each_stream_draws(self):
        for seed, streams in self.keys()[::8]:
            got = [(rng.standard_normal(3), rng.integers(0, 2, 5))
                   for rng in _read_streams(seed, streams)]
            for s, (normals, bits) in zip(streams, got, strict=True):
                rng = RngSeed(seed, s).generator()
                assert normals.tobytes() == rng.standard_normal(3).tobytes()
                assert bits.tobytes() == rng.integers(0, 2, 5).tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            _pcg64_states(-3, [0])


class TestIidChannel:
    def test_unit_variance_and_balanced_parts(self):
        h = gen_iid_channel(RngSeed(1), 400, 250)  # 1e5 entries
        power = np.mean(np.abs(h) ** 2)
        assert abs(power - 1.0) <= 0.02
        assert abs(np.mean(h.real ** 2) - 0.5) <= 0.02
        assert abs(np.mean(h.imag ** 2) - 0.5) <= 0.02

    def test_entries_uncorrelated(self):
        h = gen_iid_channel(RngSeed(2), 100_000, 2)
        c = np.mean(h[:, 0] * np.conj(h[:, 1]))
        assert abs(c) <= 0.02

    def test_bad_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_iid_channel(RngSeed(0), 0, 3)

    def test_generator_seed_is_drawn_from(self):
        rng = RngSeed(3).generator()
        first = gen_iid_channel(rng, 4, 2)
        assert np.array_equal(first, gen_iid_channel(RngSeed(3), 4, 2))
        assert not np.array_equal(gen_iid_channel(rng, 4, 2), first)  # the generator moved on

    def test_int_seed_equals_rng_seed(self):
        assert np.array_equal(gen_iid_channel(9, 4, 2), gen_iid_channel(RngSeed(9), 4, 2))


class TestCorrelationMatrix:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(correlation_matrix(0.0, 5), np.eye(5))

    def test_squared_exponent_pattern(self):
        s = correlation_matrix(0.25, 3)
        expected_first_row = [1.0, 0.25, 0.25 ** 4]
        assert np.allclose(s[0], expected_first_row)
        assert np.allclose(s[1], [0.25, 1.0, 0.25])

    def test_symmetric_unit_diagonal_psd(self):
        for rho in (0.05, 0.25, 0.7, 0.95):
            for n in (2, 5, 16):
                s = correlation_matrix(rho, n)
                assert np.array_equal(s, s.T)
                assert np.allclose(np.diag(s), 1.0)
                assert np.linalg.eigvalsh(s).min() >= -1e-10

    def test_rho_out_of_range_rejected(self):
        for rho in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidInputError):
                correlation_matrix(rho, 4)

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidInputError, match="n must be >= 1"):
            correlation_matrix(0.5, 0)


class TestMatrixSqrt:
    def test_square_root_squares_back(self):
        for rho in (0.05, 0.25, 0.6):
            s = correlation_matrix(rho, 8)
            root = matrix_sqrt_psd(s)
            assert np.linalg.norm(root @ root - s) <= 1e-10
            # oracle: Hermitian eigendecomposition reconstruction
            vals, vecs = np.linalg.eigh(s)
            oracle = (vecs * np.sqrt(vals)) @ vecs.conj().T
            assert np.linalg.norm(root - oracle) <= 1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match="square"):
            matrix_sqrt_psd(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInputError, match="Hermitian"):
            matrix_sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestKronecker:
    def test_identity_correlation_is_passthrough(self):
        h = gen_iid_channel(RngSeed(3), 8, 4)
        out = kronecker_correlate(h, np.eye(4), np.eye(8))
        assert np.allclose(out, h)

    def test_empirical_receive_covariance_matches(self):
        params = KroneckerParams(rho_tx=0.25, rho_rx=0.05)
        n_r, m = 8, 2
        s_rx = correlation_matrix(params.rho_rx, n_r)
        tx_root = matrix_sqrt_psd(correlation_matrix(params.rho_tx, m))
        rx_root = matrix_sqrt_psd(s_rx)
        rng_draws = 50_000
        acc = np.zeros((n_r, n_r), dtype=complex)
        for i in range(rng_draws // 100):
            h = gen_iid_channel(RngSeed(4, i), n_r, 100 * m)
            h = h.reshape(n_r, 100, m)
            for j in range(100):
                hc = kronecker_correlate(h[:, j, :], tx_root, rx_root)
                acc += hc @ hc.conj().T
        cov = acc / (rng_draws * m)
        # E[H H^H] = trace(S_tx) / m * S_rx = S_rx for unit-diagonal S_tx
        assert np.linalg.norm(cov - s_rx) / np.linalg.norm(s_rx) <= 0.03

    def test_zero_rhos_reduce_to_iid_bit_for_bit(self):
        h = gen_iid_channel(RngSeed(5), 6, 3)
        out = kronecker_correlate(h, matrix_sqrt_psd(correlation_matrix(0.0, 3)),
                                  matrix_sqrt_psd(correlation_matrix(0.0, 6)))
        assert np.array_equal(out, h)

    def test_stack_gives_the_bytes_of_per_matrix_calls(self):
        tx_root = matrix_sqrt_psd(correlation_matrix(0.4, 3))
        rx_root = matrix_sqrt_psd(correlation_matrix(0.3, 6))
        h = np.stack([gen_iid_channel(RngSeed(6, i), 6, 3) for i in range(10)]).reshape(2, 5, 6, 3)
        out = kronecker_correlate(h, tx_root, rx_root)
        assert out.shape == h.shape
        for i, j in np.ndindex(2, 5):
            assert out[i, j].tobytes() == kronecker_correlate(h[i, j], tx_root, rx_root).tobytes()

    def test_root_shapes_must_match_the_channel(self):
        h = gen_iid_channel(RngSeed(6), 6, 3)
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            kronecker_correlate(h, np.eye(6), np.eye(3))
        # a stack is checked on its last two axes
        for stack in (np.stack([h] * 4), np.stack([h] * 4).reshape(2, 2, 6, 3)):
            with pytest.raises(InvalidInputError, match="shape mismatch"):
                kronecker_correlate(stack, np.eye(6), np.eye(3))
            with pytest.raises(InvalidInputError, match="shape mismatch"):
                kronecker_correlate(np.swapaxes(stack, 0, -1), np.eye(3), np.eye(6))
        with pytest.raises(InvalidInputError, match="shape mismatch"):
            kronecker_correlate(h[:, 0], np.eye(3), np.eye(6))


class TestLargeScale:
    def test_neutral_parameters_are_identity(self):
        params = LargeScaleParams(mu_db=0.0, l_path=1.0, d_rel=1.0, tau=3.0)
        h = gen_iid_channel(RngSeed(6), 4, 2)
        assert np.allclose(apply_large_scale(h, params, RngSeed(7)), h)

    def test_same_stream_same_gain(self):
        params = LargeScaleParams()
        h = np.ones((3, 2), dtype=complex)
        a = apply_large_scale(h, params, RngSeed(8, 3))
        b = apply_large_scale(h, params, RngSeed(8, 3))
        assert np.array_equal(a, b)

    def test_lognormal_gain_moments(self):
        # gain g = 10^(mu nu / 10) * sqrt(L / d^tau); with mu=3 dB the median
        # multiplicative factor is sqrt(L/d^tau) = 1/0.65 for the defaults
        params = LargeScaleParams(mu_db=3.0, l_path=0.65, d_rel=0.65, tau=3.0)
        h = np.ones((1, 1), dtype=complex)
        gains = np.array([
            abs(apply_large_scale(h, params, RngSeed(9, i))[0, 0]) for i in range(20_000)
        ])
        base = np.sqrt(params.l_path / params.d_rel ** params.tau)
        assert base == pytest.approx(1 / 0.65, rel=1e-12)
        assert np.median(gains) == pytest.approx(base, rel=0.02)
        # log10 of the shadowing factor is N(0, (mu/10)^2)
        log_factor = np.log10(gains / base)
        assert np.std(log_factor) == pytest.approx(0.3, rel=0.05)

    def test_bad_params_rejected(self):
        for fields in (dict(l_path=0.0), dict(tau=float("nan")), dict(mu_db=-float("inf")),
                       dict(d_rel=float("inf"))):
            with pytest.raises(InvalidInputError):
                LargeScaleParams(**fields)

    @pytest.mark.parametrize("fields", [
        dict(d_rel=1e-300, tau=3.0),              # d_rel ** tau underflows to 0
        dict(d_rel=1e300, tau=3.0),               # d_rel ** tau overflows
        dict(l_path=1e308, d_rel=1e-10, tau=1.0),  # the quotient overflows
        dict(l_path=1e-300, d_rel=1e10, tau=30.0),  # the quotient underflows to 0
        dict(mu_db=float("inf")),
        dict(mu_db=float("nan")),
        dict(l_path=float("nan")),
    ])
    def test_out_of_range_path_loss_rejected(self, fields):
        with pytest.raises(InvalidInputError):
            LargeScaleParams(**fields)

    @pytest.mark.parametrize("mu_db,nu", [(4000.0, 1.9), (3082.0, 1.0)])
    def test_overflowing_gain_is_a_numerical_failure(self, mu_db, nu):
        # 10^760 overflows the pow itself; 10^308.2 only its product with the path loss
        params = LargeScaleParams(mu_db=mu_db)
        with pytest.raises(FloatingPointError, match="overflows"):
            _shadowing_gain(params, nu)
        assert _shadowing_gain(params, -nu) >= 0.0

    def test_gain_bytes_match_the_scalar_formula(self):
        params = LargeScaleParams(mu_db=8.0, l_path=0.65, d_rel=0.4, tau=3.7)
        for nu in np.random.default_rng(12).standard_normal(2000).tolist():
            ref = 10.0 ** (params.mu_db * nu / 10.0) * np.sqrt(
                params.l_path / params.d_rel ** params.tau)
            assert _shadowing_gain(params, nu) == ref


class TestCeError:
    def test_zero_variance_is_exact_passthrough(self):
        h = gen_iid_channel(RngSeed(10), 5, 3)
        out = perturb_channel(h, CeErrorParams(0.0), RngSeed(11))
        assert np.array_equal(out, h)

    def test_perturbation_variance(self):
        h = np.zeros((400, 250), dtype=complex)
        out = perturb_channel(h, CeErrorParams(0.01), RngSeed(12))
        var = np.mean(np.abs(out - h) ** 2)
        assert abs(var - 0.01) <= 0.0005

    def test_perturbation_independent_of_channel(self):
        h = gen_iid_channel(RngSeed(13), 100_000, 1)
        delta = perturb_channel(h, CeErrorParams(1.0), RngSeed(14)) - h
        corr = np.mean(h * np.conj(delta)) / np.sqrt(np.mean(np.abs(h) ** 2) * np.mean(np.abs(delta) ** 2))
        assert abs(corr) <= 0.02

    def test_negative_variance_rejected(self):
        for sigma_e2 in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                CeErrorParams(sigma_e2)


class TestChannelStack:
    # the bytes of a block's draw are pinned by the harness's TestBlockChannels

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3), (2, 3, 2), (1, 2, 3, 3)])
    def test_streams_of_another_layout_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="streams must be"):
            gen_channel_stack(0, np.zeros(shape, dtype=int), 4, (1, 2, 1))

    def test_without_estimation_error_used_is_true(self):
        streams = np.arange(18).reshape(2, 3, 3)
        true, used = gen_channel_stack(5, streams, 4, (1, 2, 1), ce_error=CeErrorParams(0.0))
        assert used is true and true.shape == (2, 4, 4)
        given = np.ones((2, 4, 4), dtype=complex)
        true, used = gen_channel_stack(5, streams, 4, (1, 2, 1), true=given)
        assert true is given and used is given


class TestAwgn:
    def test_zero_variance_gives_zeros(self):
        assert np.array_equal(gen_awgn(RngSeed(15), 0.0, 8), np.zeros(8))

    def test_fixed_seed_determinism(self):
        assert np.array_equal(gen_awgn(RngSeed(16), 1.0, 8), gen_awgn(RngSeed(16), 1.0, 8))

    def test_empirical_variance(self):
        n = gen_awgn(RngSeed(17), 0.25, 100_000)
        assert abs(np.mean(np.abs(n) ** 2) - 0.25) <= 0.005

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidInputError, match="sigma_n2"):
            gen_awgn(RngSeed(18), -1.0, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidInputError, match="n must be >= 0"):
            gen_awgn(RngSeed(18), 1.0, -1)


class TestPublicFormulas:
    """The public generators' bytes, pinned to their formulas written out from the
    stream's own generator: real parts, then imaginary parts, times one scale."""

    @staticmethod
    def parts(seed, shape):
        rng = seed.generator()
        return rng.standard_normal(shape), rng.standard_normal(shape)

    @pytest.mark.parametrize("n_r,m", [(1, 1), (7, 3), (64, 4)])
    def test_iid_channel(self, n_r, m):
        re, im = self.parts(RngSeed(21, 5 + m), (n_r, m))
        want = np.sqrt(0.5) * (re + 1j * im)
        assert gen_iid_channel(RngSeed(21, 5 + m), n_r, m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma_e2", [0.01, 2.5])
    def test_perturb_channel(self, sigma_e2):
        h = gen_iid_channel(RngSeed(22), 9, 2)
        re, im = self.parts(RngSeed(23, 1), (9, 2))
        want = h + np.sqrt(sigma_e2 / 2.0) * (re + 1j * im)
        got = perturb_channel(h, CeErrorParams(sigma_e2), RngSeed(23, 1))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma_n2,n", [(0.3, 1), (1.0, 17), (4.0, 0)])
    def test_awgn(self, sigma_n2, n):
        re, im = self.parts(RngSeed(24, n), n)
        want = np.sqrt(sigma_n2 / 2.0) * (re + 1j * im)
        assert gen_awgn(RngSeed(24, n), sigma_n2, n).tobytes() == want.tobytes()

    def test_zero_variance_values(self):
        # values, not bytes: the sign of a zero part is not part of the formula
        h = gen_iid_channel(RngSeed(25), 6, 3)
        re, im = self.parts(RngSeed(26), (6, 3))
        assert np.array_equal(perturb_channel(h, CeErrorParams(0.0), RngSeed(26)),
                              h + 0.0 * (re + 1j * im))
        re, im = self.parts(RngSeed(27), 12)
        assert np.array_equal(gen_awgn(RngSeed(27), 0.0, 12), 0.0 * (re + 1j * im))
