"""Constellations, effective links, and the LMMSE / SIC detectors."""

import itertools
import warnings

import numpy as np
import pytest

from decoupsim.errors import InvalidInputError, ShapeError, SingularMatrixError
from decoupsim.detectors import (
    Constellation,
    _whiten,
    build_link,
    demodulate_symbols,
    lmmse_detect,
    lmmse_filter,
    lmmse_stack,
    modulate_bits,
    sic_detect,
    sic_stack,
    slice_symbols,
)
from decoupsim.decouplers import SystemChannel, pinv_decoupler, sequential_decoupler
from decoupsim.kernels import left_nullspace_basis


def crandn(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestConstellation:
    @pytest.mark.parametrize("name,order", [("QPSK", 4), ("QAM16", 16), ("QAM64", 64)])
    def test_unit_average_energy(self, name, order):
        cons = Constellation.from_name(name)
        assert cons.order == order
        assert abs(np.mean(np.abs(cons.points) ** 2) - 1.0) <= 1e-12

    def test_qpsk_maps_two_bit_patterns_to_distinct_points(self):
        cons = Constellation(4)
        pts = {complex(modulate_bits(bits, cons)[0]) for bits in
               ([0, 0], [0, 1], [1, 0], [1, 1])}
        assert len(pts) == 4

    def test_gray_neighbours_differ_in_one_bit(self):
        cons = Constellation(16)
        # walk the I axis at fixed Q: adjacent levels flip exactly one bit
        for q_fixed in range(4):
            labels = []
            for i_level in cons.levels:
                sym = np.array([i_level + 1j * cons.levels[q_fixed]])
                bits = demodulate_symbols(sym, cons)
                labels.append(int("".join(map(str, bits)), 2))
            for a, b in itertools.pairwise(labels):
                assert bin(a ^ b).count("1") == 1

    def test_rejects_non_square_order(self):
        with pytest.raises(InvalidInputError):
            Constellation(8)

    def test_slicer_idempotent(self):
        rng = np.random.default_rng(1)
        cons = Constellation(16)
        z = 3.0 * crandn(rng, 64)
        once = slice_symbols(z, cons)
        assert np.array_equal(slice_symbols(once, cons), once)
        assert np.array_equal(slice_symbols(cons.points, cons), cons.points)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError, match="8PSK"):
            Constellation.from_name("8PSK")

    @pytest.mark.parametrize("name", ["QAM0", "QAM", "QAM-16", "QAM1e3", "QAM262144",
                                      f"QAM{4 ** 64}",
                                      pytest.param("QAM" + "4" * 5000, id="QAM<5000 digits>")])
    def test_malformed_name_rejected_without_warnings(self, name):
        # the order is parsed and checked with integer arithmetic: no log2 of 0, and no
        # point table past 65536-QAM is built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"constellation must be .*'{name}'"):
                Constellation.from_name(name)

    def test_largest_order_is_65536(self):
        assert Constellation.from_name("QAM65536").bits_per_symbol == 16
        with pytest.raises(InvalidInputError, match="from 4 to 65536"):
            Constellation(4 ** 9)

    def test_named_constellation_is_shared_and_read_only(self):
        cons = Constellation.from_name("QAM16")
        assert Constellation.from_name("qam16") is cons
        for table in (cons.points, cons.levels):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        assert np.array_equal(cons.points, Constellation(16).points)

    def test_constellation_is_its_order(self):
        qpsk = Constellation(4)
        assert Constellation.from_name("QAM4") == qpsk
        assert hash(Constellation.from_name("QAM4")) == hash(qpsk)
        assert qpsk.name == "QPSK" and Constellation(16).name == "QAM16"
        assert Constellation(16) != Constellation(64)

    @pytest.mark.parametrize("order", [4, 16, 64, 256, 1024])
    def test_each_point_slices_to_its_own_label(self, order):
        cons = Constellation(order)
        bits = np.array([int(b) for s in range(order)
                         for b in format(s, f"0{cons.bits_per_symbol}b")])
        assert np.array_equal(demodulate_symbols(cons.points, cons), bits)
        assert np.array_equal(modulate_bits(bits, cons), cons.points)

    def test_bit_weights_are_msb_first(self):
        assert Constellation(16).bit_weights.tolist() == [8, 4, 2, 1]


class TestModulationRoundTrip:
    def test_all_zero_bits_give_constant_stream(self):
        cons = Constellation(4)
        syms = modulate_bits(np.zeros(20, dtype=int), cons)
        assert np.all(syms == syms[0])

    @pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64"])
    def test_random_bits_round_trip(self, name):
        rng = np.random.default_rng(3)
        cons = Constellation.from_name(name)
        bits = rng.integers(0, 2, 10_000 - 10_000 % cons.bits_per_symbol)
        assert np.array_equal(demodulate_symbols(modulate_bits(bits, cons), cons), bits)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            modulate_bits([0, 1, 1], Constellation(4))

    def test_non_binary_bits_rejected(self):
        # fractions are checked before the integer cast, which would read [0, 1, 1, 0]
        for bits in ([0, 2], [0.7, 1.0, 1.9, 0]):
            with pytest.raises(InvalidInputError, match="0 or 1"):
                modulate_bits(bits, Constellation(4))


class TestBuildLink:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(5)
        y = crandn(rng, 4)
        link = build_link(np.eye(4), np.eye(4), y, 0.25)
        assert np.array_equal(link.y_tilde, y)
        assert np.allclose(link.h_tilde, np.eye(4))
        assert np.allclose(link.noise_cov, 0.25 * np.eye(4))

    def test_row_orthonormal_decoupler_keeps_noise_white(self):
        rng = np.random.default_rng(6)
        w = left_nullspace_basis(crandn(rng, 12, 4)).basis
        h = crandn(rng, 12, 2)
        link = build_link(w, h, crandn(rng, 12), 0.5)
        assert np.linalg.norm(link.noise_cov - 0.5 * np.eye(8)) <= 1e-9

    def test_pinv_decoupler_colors_noise_but_stays_hermitian(self):
        rng = np.random.default_rng(7)
        sys = SystemChannel(12, [crandn(rng, 12, 2) for _ in range(3)])
        dec = pinv_decoupler(sys)
        link = build_link(dec.w[0], sys.users[0], crandn(rng, 12), 1.0)
        assert np.linalg.norm(link.noise_cov - np.eye(2)) > 1e-3
        assert np.linalg.norm(link.noise_cov - link.noise_cov.conj().T) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_link(np.eye(3), np.eye(4), np.zeros(4), 1.0)

    def test_negative_noise_variance_rejected(self):
        # a non-finite variance is no variance a link can have
        for sigma_n2 in (-1, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError, match="sigma_n2"):
                build_link(np.eye(2), np.eye(2), np.zeros(2), sigma_n2)


class TestLmmse:
    def test_noiseless_identity_returns_symbols(self):
        cons = Constellation(4)
        x = modulate_bits([0, 1, 1, 0], cons)
        link = build_link(np.eye(2), np.eye(2), x, 0.0)
        assert np.allclose(lmmse_detect(link, cons), x)

    def test_scalar_link_shrinks_toward_zero(self):
        cons = Constellation(4)
        link = build_link(np.eye(1), np.eye(1), np.array([1.0 + 0j]), 1.0)
        assert lmmse_filter(link)[0] == pytest.approx(0.5)
        sliced = lmmse_detect(link, cons)[0]
        assert sliced == pytest.approx((1 + 1j) / np.sqrt(2)) or sliced == pytest.approx((1 - 1j) / np.sqrt(2))

    def test_filter_matches_independent_inverse_oracle(self):
        rng = np.random.default_rng(8)
        h = crandn(rng, 4, 2)
        y = crandn(rng, 4)
        link = build_link(np.eye(4), h, y, 0.1)
        # oracle: explicit inverse, a different code path from the solver
        g = np.linalg.inv(h.conj().T @ h + 0.1 * np.eye(2)) @ h.conj().T
        assert np.linalg.norm(lmmse_filter(link) - g @ y) <= 1e-10

    def test_singular_noiseless_link_raises(self):
        h = np.zeros((3, 2), dtype=complex)
        link = build_link(np.eye(3), h, np.zeros(3), 0.0)
        with pytest.raises(SingularMatrixError):
            lmmse_detect(link, Constellation(4))

    def test_colored_noise_link_recovers_noiselessly(self):
        # per-link detectors never whiten; a PINV link still decodes without noise
        rng = np.random.default_rng(9)
        sys = SystemChannel(12, [crandn(rng, 12, 2) for _ in range(3)])
        dec = pinv_decoupler(sys)
        cons = Constellation(4)
        x = modulate_bits(rng.integers(0, 2, 12), cons)
        y = sys.stacked() @ x  # noiseless: recovery must be exact
        link = build_link(dec.w[1], sys.users[1], y, 1e-12)
        assert np.allclose(lmmse_detect(link, cons), x[2:4])

    def test_decoupler_independence_same_subspace_same_decisions(self):
        rng = np.random.default_rng(10)
        sys = SystemChannel(12, [crandn(rng, 12, 2) for _ in range(3)])
        dec = sequential_decoupler(sys)
        cons = Constellation(4)
        for _ in range(20):
            unitary = np.linalg.qr(crandn(rng, dec.w[0].shape[0], dec.w[0].shape[0]))[0]
            w_rot = unitary @ dec.w[0]
            x = modulate_bits(rng.integers(0, 2, 12), cons)
            y = sys.stacked() @ x + 0.7 * crandn(rng, 12)
            la = build_link(dec.w[0], sys.users[0], y, 0.49)
            lb = build_link(w_rot, sys.users[0], y, 0.49)
            assert np.array_equal(lmmse_detect(la, cons), lmmse_detect(lb, cons))


class TestSic:
    def test_diagonal_channel_noiseless(self):
        cons = Constellation(4)
        x = modulate_bits([1, 0, 0, 1], cons)
        link = build_link(np.eye(2), 2.0 * np.eye(2), 2.0 * x, 0.0)
        assert np.allclose(sic_detect(link, cons), x)

    def test_noiseless_random_channel_recovers_exactly(self):
        rng = np.random.default_rng(11)
        cons = Constellation(4)
        for _ in range(10):
            h = crandn(rng, 4, 2)
            x = modulate_bits(rng.integers(0, 2, 4), cons)
            link = build_link(np.eye(4), h, h @ x, 0.0)
            assert np.allclose(sic_detect(link, cons), x)

    def test_agrees_with_exhaustive_ml_oracle_in_noise(self):
        rng = np.random.default_rng(12)
        cons = Constellation(4)
        table = list(itertools.product(cons.points, repeat=2))
        agree = total = 0
        for _ in range(200):
            h = crandn(rng, 4, 2)
            x = modulate_bits(rng.integers(0, 2, 4), cons)
            y = h @ x + 0.05 * crandn(rng, 4)
            link = build_link(np.eye(4), h, y, 0.0025)
            got = sic_detect(link, cons)
            # oracle: brute-force ML over all 16 hypotheses
            best = min(table, key=lambda cand: np.linalg.norm(y - h @ np.array(cand)))
            agree += np.allclose(got, np.array(best))
            total += 1
        assert agree / total >= 0.99

    def test_single_stream_equals_matched_filter_plus_slice(self):
        rng = np.random.default_rng(13)
        cons = Constellation(4)
        for _ in range(20):
            h = crandn(rng, 5, 1)
            y = crandn(rng, 5)
            link = build_link(np.eye(5), h, y, 0.1)
            mf = (h.conj().T @ y)[0] / np.linalg.norm(h) ** 2
            assert sic_detect(link, cons)[0] == slice_symbols(np.array([mf]), cons)[0]

    def test_rank_deficient_channel_raises(self):
        h = np.ones((4, 2), dtype=complex)
        link = build_link(np.eye(4), h, np.zeros(4), 0.0)
        with pytest.raises(SingularMatrixError):
            sic_detect(link, Constellation(4))

    def test_outputs_come_from_the_constellation(self):
        rng = np.random.default_rng(14)
        cons = Constellation(16)
        h = crandn(rng, 6, 3)
        y = crandn(rng, 6) * 3.0
        link = build_link(np.eye(6), h, y, 0.5)
        out = sic_detect(link, cons)
        for s in out:
            assert np.min(np.abs(cons.points - s)) <= 1e-12


class TestStackedDetectors:
    """One stacked call over G links and S noise levels against G x S single-link calls."""

    @pytest.fixture
    def links(self):
        rng = np.random.default_rng(15)
        sys = SystemChannel(14, [crandn(rng, 14, 3) for _ in range(4)])
        dec = sequential_decoupler(sys)
        h = np.stack([dec.w[u] @ sys.users[u] for u in range(4)])
        a = np.stack([dec.w[u] @ (sys.stacked() @ crandn(rng, 12)) for u in range(4)])
        b = np.stack([dec.w[u] @ crandn(rng, 14) for u in range(4)])
        return h, a, b, np.array([0.3, 0.7, 1.4])

    @staticmethod
    def single(h, a, b, g, sigma):
        y = a[g] + sigma * b[g]
        return build_link(np.eye(h.shape[1]), h[g], y, sigma * sigma)

    def test_lmmse_stack_matches_single_links(self, links):
        h, a, b, sigmas = links
        cons = Constellation(16)
        out = lmmse_stack(h, a, b, sigmas)
        assert out.shape == (4, 3, 3)
        for g, (s, sigma) in itertools.product(range(4), enumerate(sigmas)):
            link = self.single(h, a, b, g, sigma)
            assert np.linalg.norm(out[g, s] - lmmse_filter(link)) <= 1e-12
            assert np.array_equal(slice_symbols(out[g, s], cons), lmmse_detect(link, cons))

    def test_sic_stack_matches_single_links(self, links):
        h, a, b, sigmas = links
        cons = Constellation(16)
        out = sic_stack(h, a, b, sigmas, cons)
        assert out.shape == (4, 3, 3)
        for g, (s, sigma) in itertools.product(range(4), enumerate(sigmas)):
            assert np.array_equal(out[g, s], sic_detect(self.single(h, a, b, g, sigma), cons))

    def test_sic_stack_raises_on_any_rank_deficient_link(self, links):
        h, a, b, sigmas = links
        h = h.copy()
        h[2, :, 1] = h[2, :, 0]
        with pytest.raises(SingularMatrixError):
            sic_stack(h, a, b, sigmas, Constellation(4))

    def test_sic_stack_is_scale_free(self, links):
        # a power-of-two scale is exact, so the decisions keep their bits
        h, a, b, sigmas = links
        cons = Constellation(16)
        scale = 2.0 ** -50
        assert np.array_equal(sic_stack(h * scale, a * scale, b * scale, sigmas, cons),
                              sic_stack(h, a, b, sigmas, cons))

    def test_links_of_no_streams_detect_nothing(self, links):
        _, a, b, sigmas = links
        assert sic_stack(np.zeros((4, 5, 0)), a, b, sigmas, Constellation(4)).shape == (4, 3, 0)

    def test_sic_stack_rejects_fewer_rows_than_streams(self, links):
        h, a, b, sigmas = links
        with pytest.raises(ShapeError):
            sic_stack(h[:, :2], a[:, :2], b[:, :2], sigmas, Constellation(4))

    def test_sic_stack_rejects_non_finite_channel(self, links):
        h, a, b, sigmas = links
        h = h.copy()
        h[3, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            sic_stack(h, a, b, sigmas, Constellation(4))

    @pytest.mark.parametrize("detector", ["LMMSE", "SIC"])
    def test_overflowing_gram_raises_floating_point_error(self, links, detector):
        # one link's channel at 1e200: its Gram passes the float range
        h, a, b, sigmas = links
        h = h.copy()
        h[1] *= 1e200
        with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError,
                                                                      match="Gram"):
            if detector == "LMMSE":
                lmmse_stack(h, a, b, sigmas)
            else:
                sic_stack(h, a, b, sigmas, Constellation(4))


class TestWhiten:
    def test_singular_covariance_rejected(self):
        h, a = np.ones((1, 2, 1), dtype=complex), np.ones((1, 2), dtype=complex)
        with pytest.raises(SingularMatrixError, match="not positive definite"):
            _whiten(np.zeros((1, 2, 2), dtype=complex), h, a)
