"""Toeplitz/circulant spectra and Gram-matrix concentration for replay buffers."""

import math

import numpy as np
import pytest

from markovsgd.acceptance import run_criterion
from markovsgd.chains import GaussianARSpec, GaussianPathCursor, run_generators
from markovsgd.spectral import (
    CirculantSpec,
    SpectralReport,
    ToeplitzSpec,
    circulant_eigs_closed_form,
    circulant_matrix,
    gram_spectrum,
    perturbation_matrix,
    perturbation_norms,
    sample_buffer,
    toeplitz_matrix,
)


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToeplitzSpec(0, 0.2)
        with pytest.raises(ValueError):
            ToeplitzSpec(5, 0.0)
        with pytest.raises(ValueError):
            ToeplitzSpec(5, 1.2)
        with pytest.raises(ValueError):
            CirculantSpec(4, 0.2)  # even sizes unsupported
        ToeplitzSpec(4, 0.2)  # even Toeplitz is fine
        assert CirculantSpec(5, 0.2).toeplitz == ToeplitzSpec(5, 0.2)


class TestMatrices:
    def test_toeplitz_hand_case(self):
        r = math.sqrt(1.0 - 0.6**2)  # = 0.8
        Z = toeplitz_matrix(ToeplitzSpec(3, 0.6))
        want = np.array(
            [
                [1.0, 0.8, 0.64],
                [0.8, 1.0, 0.8],
                [0.64, 0.8, 1.0],
            ]
        ) / 3.0
        np.testing.assert_allclose(Z, want, rtol=1e-15)
        assert r == pytest.approx(0.8)

    def test_circulant_rows_are_rotations(self):
        C = circulant_matrix(CirculantSpec(7, 0.3))
        for i in range(7):
            np.testing.assert_array_equal(C[i], np.roll(C[0], i))
        np.testing.assert_array_equal(C, C.T)

    def test_circulant_wraps_first_row(self):
        # B=5: first row z0, z1, z2, z2, z1
        z = (math.sqrt(1 - 0.4**2) ** np.arange(5)) / 5.0
        C = circulant_matrix(CirculantSpec(5, 0.4))
        np.testing.assert_allclose(C[0], [z[0], z[1], z[2], z[2], z[1]], rtol=1e-15)

    def test_perturbation_diagonal_is_zero(self):
        P = perturbation_matrix(CirculantSpec(201, 0.2))
        assert np.abs(np.diag(P)).max() == 0.0


class TestClosedFormSpectrum:
    @pytest.mark.parametrize("B", [5, 21, 101])
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_matches_dense_eigensolver(self, B, eps):
        spec = CirculantSpec(B, eps)
        closed = np.sort(circulant_eigs_closed_form(spec))
        dense = np.sort(np.linalg.eigvalsh(circulant_matrix(spec)))
        np.testing.assert_allclose(closed, dense, atol=1e-9)

    def test_harmonic_zero_is_row_sum(self):
        spec = CirculantSpec(21, 0.2)
        lam0 = circulant_eigs_closed_form(spec)[0]
        rows = circulant_matrix(spec).sum(axis=1)
        np.testing.assert_allclose(rows, lam0, rtol=1e-12)

    def test_trace_identity(self):
        # diagonal entries are all 1/B, so the eigenvalues sum to 1
        for B in (21, 101):
            lam = circulant_eigs_closed_form(CirculantSpec(B, 0.25))
            assert abs(lam.sum() - 1.0) <= 1e-9

    def test_eps_one_collapses_to_identity_spectrum(self):
        lam = circulant_eigs_closed_form(CirculantSpec(7, 1.0))
        np.testing.assert_array_equal(lam, np.full(7, 1.0 / 7.0))


class TestPerturbation:
    def test_frozen_bound_value(self):
        fro_sq, bound = perturbation_norms(CirculantSpec(201, 0.2))
        assert bound == pytest.approx(2.0 * 0.96 / (201**2 * 0.2**4), rel=1e-12)
        assert bound == pytest.approx(0.0297023, rel=1e-4)
        assert fro_sq <= bound

    @pytest.mark.parametrize("B,eps", [(201, 0.2), (1001, 0.1)])
    def test_computed_within_bound(self, B, eps):
        fro_sq, bound = perturbation_norms(CirculantSpec(B, eps))
        assert 0.0 < fro_sq <= bound

    def test_frobenius_decays_in_buffer_size(self):
        series = [perturbation_norms(CirculantSpec(B, 0.2))[0] for B in (101, 201, 401)]
        assert series[0] > series[1] > series[2]

    def test_spectrum_pairs_symmetrically(self):
        # P has zero diagonal and wrap symmetry: eigenvalues come in +/- pairs
        eigs = np.sort(np.linalg.eigvalsh(perturbation_matrix(CirculantSpec(201, 0.2))))
        assert np.abs(eigs + eigs[::-1]).max() <= 1e-8

    def test_toeplitz_spectrum_tracks_circulant(self):
        # Weyl: sorted spectra of Z and C differ by at most ||Z - C||_F
        spec = CirculantSpec(201, 0.2)
        zeigs = np.sort(np.linalg.eigvalsh(toeplitz_matrix(spec.toeplitz)))
        ceigs = np.sort(np.linalg.eigvalsh(circulant_matrix(spec)))
        fro = math.sqrt(perturbation_norms(spec)[0])
        assert np.abs(zeigs - ceigs).max() <= fro


class TestGramSpectrum:
    def test_single_sample(self):
        x = np.array([0.3, -0.4])
        report = gram_spectrum(x[None, :])
        np.testing.assert_allclose(report.eigenvalues, [0.25], rtol=1e-14)
        assert not report.rank_warning
        assert report.frobenius_P is None
        assert report.gram_perturbation is None

    def test_eigenvalues_sorted_and_near_psd(self):
        buf = sample_buffer(GaussianARSpec(50, 0.3), 9, seed=4)
        report = gram_spectrum(buf)
        assert report.eigenvalues.shape == (9,)
        assert np.all(np.diff(report.eigenvalues) <= 0.0)
        assert report.eigenvalues.min() >= -1e-10

    def test_rank_warning(self):
        assert gram_spectrum(np.ones((3, 2))).rank_warning
        assert not gram_spectrum(np.ones((2, 3))).rank_warning

    def test_gram_perturbation_manual(self):
        buf = sample_buffer(GaussianARSpec(500, 0.3), 7, seed=8)
        report = gram_spectrum(buf, epsilon=0.3)
        M = buf @ buf.T / 7.0
        Z = toeplitz_matrix(ToeplitzSpec(7, 0.3))
        assert report.gram_perturbation == pytest.approx(
            np.linalg.norm(M - Z, "fro"), rel=1e-12
        )

    def test_count_at_least(self):
        report = SpectralReport(eigenvalues=np.array([0.5, 0.3, 0.1, -0.2]))
        assert report.count_at_least(0.3) == 2
        assert report.count_at_least(-1.0) == 4
        assert report.count_at_least(1.0) == 0

    def test_to_json_fields(self):
        doc = gram_spectrum(np.eye(3), epsilon=0.5).to_json()
        assert set(doc) == {"eigenvalues", "frobenius_P", "gram_perturbation", "rank_warning"}


class TestSampling:
    def test_sample_buffer_matches_cursor(self):
        chain = GaussianARSpec(6, 0.4)
        buf = sample_buffer(chain, 11, seed=42)
        assert buf.shape == (11, 6)
        direct = GaussianPathCursor(chain, [run_generators(42)[0]]).take(11)[:, 0, :]
        np.testing.assert_array_equal(buf, direct)

    def test_sample_buffer_deterministic(self):
        chain = GaussianARSpec(6, 0.4)
        np.testing.assert_array_equal(
            sample_buffer(chain, 5, seed=1), sample_buffer(chain, 5, seed=1)
        )

    def test_gram_concentrates_in_high_dimension(self):
        # ||M - Z||_F falls like 1/sqrt(d); at d=40000 it must sit below
        # 10 B / sqrt(d) = 1.0 for every seed tried
        chain = GaussianARSpec(40000, 0.3)
        limit = 10.0 * 20 / math.sqrt(40000)
        for seed in range(3):
            rep = gram_spectrum(sample_buffer(chain, 20, seed), epsilon=0.3)
            assert rep.gram_perturbation <= limit


class TestCriterion8:
    """Criterion 8 is the one home of the spectral checks.  Its fast mode
    shrinks only Gram concentration at d = 160 000, so every other check
    runs at full size in unmarked runs too (on scipy's lfilter where no
    compiler is found)."""

    MOVED = [
        "closed form vs dense solver, B in {5, 21, 101} x eps in {0.1, 0.2, 0.3}",
        "max |sum_j lambda_j - 1| over the same grid",
        "max |diag(Z-C)| at (B=201, eps=0.2)",
        "max |lambda_k + lambda_(B+1-k)| of Z-C at (B=201, eps=0.2)",
        "largest rise of ||Z-C||_F^2 over B = 101, 201, 401 (eps=0.2)",
        "log-log slope of mean ||M-Z||_F over d in {1e3, 1e4, 1e5}",
    ]

    def test_fast_mode_passes_and_reports_every_check(self):
        result = run_criterion(8, fast=True)
        failing = [c for c in result.checks if not c["passed"]]
        assert result.passed, f"failing checks {failing}"
        names = [c["check"] for c in result.checks]
        assert len(names) == len(set(names)) == 11
        assert set(self.MOVED) <= set(names)
        assert "||Z-C||_F^2 <= bound at (B=201, eps=0.2)" in names
        assert "max ||M-Z||_F over 5 seeds" in names
