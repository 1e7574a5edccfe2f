"""Observation models, risk computations, and the coupled-trajectory identity."""

import csv
import math

import numpy as np
import pytest

from markovsgd.chains import (
    FinitePathCursor,
    GaussianARSpec,
    make_agnostic_bias_chain,
    make_mc3,
    make_mci,
    run_generators,
    stationary,
)
from markovsgd.regression import (
    AgnosticDeterministic,
    CoupledTrajectory,
    IndependentGaussian,
    NoiseCovariance,
    Noiseless,
    Observation,
    agnostic_optimum,
    excess_risk,
    make_problem,
    noise_covariance,
    noise_from_json,
    noise_to_json,
    problem_from_json,
    problem_to_json,
)


def quadratic_optimum_oracle(chain):
    """Minimize the population loss directly from eigen-based stationary moments.

    Independent of the package's power-iteration stationary law and of
    ``agnostic_optimum``: the stationary vector comes from the left
    eigendecomposition, and the normal equations are assembled per state.
    """
    vals, vecs = np.linalg.eig(chain.transition.T)
    k = np.argmin(np.abs(vals - 1.0))
    pi = np.real(vecs[:, k])
    pi = pi / pi.sum()
    d = chain.dim
    A = np.zeros((d, d))
    b = np.zeros(d)
    for p, x, y in zip(pi, chain.states, chain.outputs):
        A += p * np.outer(x, x)
        b += p * y * x
    return np.linalg.solve(A, b)


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------


class TestNoiseModels:
    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            IndependentGaussian(sigma=-0.1)
        assert IndependentGaussian(sigma=0.0).sigma == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sigma_must_be_finite(self, value):
        with pytest.raises(ValueError, match="sigma must be a finite number"):
            IndependentGaussian(sigma=value)


# ---------------------------------------------------------------------------
# Excess risk
# ---------------------------------------------------------------------------


class TestExcessRisk:
    def test_hand_case_finite(self):
        # A = diag(1/2, 1/2); displacement (1, 0) gives risk 1/2
        problem = make_problem(
            make_mc3(2.0, 0.05), Noiseless(), w_star=np.array([0.5, -0.5])
        )
        assert excess_risk(problem, problem.w_star + np.array([1.0, 0.0])) == 0.5
        assert excess_risk(problem, problem.w_star) == 0.0

    def test_hand_case_gaussian(self):
        # A = I/d; displacement of all ones gives risk d * (1/d) = 1
        problem = make_problem(
            GaussianARSpec(dim=10, epsilon=0.2),
            Noiseless(),
            w_star=np.zeros(10),
        )
        assert excess_risk(problem, np.ones(10)) == pytest.approx(1.0, rel=1e-14)

    def test_vectorized_shapes(self):
        problem = make_problem(
            GaussianARSpec(dim=4, epsilon=0.2), Noiseless(), w_star=np.zeros(4)
        )
        W = np.random.default_rng(0).standard_normal((5, 3, 4))
        out = excess_risk(problem, W)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out[2, 1], excess_risk(problem, W[2, 1]), rtol=1e-14)

    def test_scalar_return_type_and_clamp(self):
        problem = make_problem(
            GaussianARSpec(dim=2, epsilon=0.2), Noiseless(), w_star=np.zeros(2)
        )
        val = excess_risk(problem, np.full(2, 1e-200))
        assert isinstance(val, float)
        assert val >= 0.0

    def test_matches_path_average_realizable(self):
        # excess(w) = E_pi[(x . (w - w*))^2], estimated along a long path
        chain = make_mc3(3.0, 0.2)
        problem = make_problem(chain, Noiseless(), w_star=np.array([0.3, -0.4]))
        w = np.array([0.7, 0.1])
        idx = FinitePathCursor(chain, [run_generators(17)[0]]).take(200_000)[:, 0]
        X = chain.states[idx]
        samples = (X @ (w - problem.w_star)) ** 2
        se = samples.std() / math.sqrt(len(samples))
        # Markov correlation inflates the variance; give the bound slack
        assert abs(samples.mean() - excess_risk(problem, w)) < 20 * se

    def test_matches_loss_gap_agnostic(self):
        # the quadratic form equals L(w) - L(w*) even with model mismatch
        chain = make_agnostic_bias_chain(0.25)
        problem = make_problem(chain, AgnosticDeterministic())
        pi = stationary(chain)
        w = np.array([0.4])

        def population_loss(v):
            return float(pi @ (chain.states @ v - chain.outputs) ** 2)

        gap = population_loss(w) - population_loss(problem.w_star)
        assert excess_risk(problem, w) == pytest.approx(gap, rel=1e-12)


# ---------------------------------------------------------------------------
# Population optimum and problem assembly
# ---------------------------------------------------------------------------


class TestOptimumAndProblem:
    def test_bias_chain_optimum(self):
        chain = make_agnostic_bias_chain(0.25)
        w = agnostic_optimum(chain)
        np.testing.assert_allclose(w, [-0.2], atol=1e-12)
        np.testing.assert_allclose(w, quadratic_optimum_oracle(chain), atol=1e-10)

    def test_signed_clique_optimum(self):
        # flagged coordinates settle at -delta / (2 eps + delta), others at 0
        eps, delta = 0.1, 0.05
        chain = make_mci(3, eps, delta, (1, 0, 1))
        w = agnostic_optimum(chain)
        expected = -delta / (2 * eps + delta)
        np.testing.assert_allclose(w, [expected, 0.0, expected], atol=1e-9)
        np.testing.assert_allclose(w, quadratic_optimum_oracle(chain), atol=1e-9)

    def test_optimum_is_stationary_point(self):
        chain = make_mci(2, 0.2, 0.1, (1, 0))
        problem = make_problem(chain, AgnosticDeterministic())
        pi = stationary(chain)
        b = (pi * chain.outputs) @ chain.states
        assert np.linalg.norm(problem.A @ problem.w_star - b) < 1e-10

    def test_optimum_requires_outputs(self):
        with pytest.raises(ValueError):
            agnostic_optimum(make_mc3(2.0, 0.05))

    def test_make_problem_agnostic_rules(self):
        chain = make_agnostic_bias_chain(0.25)
        problem = make_problem(chain, AgnosticDeterministic())
        np.testing.assert_allclose(problem.w_star, [-0.2], atol=1e-12)
        # explicit w_star must agree with the optimum
        make_problem(chain, AgnosticDeterministic(), w_star=[-0.2])
        with pytest.raises(ValueError):
            make_problem(chain, AgnosticDeterministic(), w_star=[0.3])
        with pytest.raises(ValueError):
            make_problem(make_mc3(2.0, 0.05), AgnosticDeterministic())

    def test_make_problem_validation(self):
        spec = GaussianARSpec(dim=3, epsilon=0.5)
        with pytest.raises(ValueError):
            make_problem(spec, Noiseless())  # w_star required
        with pytest.raises(ValueError):
            make_problem(spec, Noiseless(), w_star=np.zeros(4))
        with pytest.raises(ValueError):
            make_problem(spec, Noiseless(), w_star=2.0 * np.ones(3), unit_norm=True)
        ok = make_problem(spec, Noiseless(), w_star=np.ones(3) / 2.0, unit_norm=True)
        assert ok.unit_norm

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_make_problem_rejects_a_non_finite_w_star(self, value):
        with pytest.raises(ValueError, match="w_star must be finite"):
            make_problem(GaussianARSpec(dim=3, epsilon=0.5), Noiseless(), w_star=[value, 0.0, 0.1])

    def test_w_star_is_frozen(self):
        problem = make_problem(
            GaussianARSpec(dim=2, epsilon=0.5), Noiseless(), w_star=np.ones(2)
        )
        with pytest.raises(ValueError):
            problem.w_star[0] = 5.0

    def test_cached_covariance(self):
        problem = make_problem(
            make_mc3(2.0, 0.05), Noiseless(), w_star=np.zeros(2)
        )
        np.testing.assert_allclose(problem.A, np.diag([0.5, 0.5]), atol=1e-10)
        assert problem.dim == 2


# ---------------------------------------------------------------------------
# Noise covariance
# ---------------------------------------------------------------------------


class TestNoiseCovariance:
    def test_noiseless_zero(self):
        problem = make_problem(
            make_mc3(2.0, 0.05), Noiseless(), w_star=np.array([0.5, -0.5])
        )
        cov = noise_covariance(problem)
        np.testing.assert_array_equal(cov.sigma_matrix, np.zeros((2, 2)))

    def test_gaussian_scales_covariance(self):
        problem = make_problem(
            GaussianARSpec(dim=5, epsilon=0.3),
            IndependentGaussian(sigma=0.2),
            w_star=np.zeros(5),
        )
        cov = noise_covariance(problem)
        np.testing.assert_allclose(cov.sigma_matrix, 0.04 * problem.A, rtol=1e-14)
        assert cov.upsilon is None  # no per-state bound on a Gaussian chain

    def test_bias_chain_values(self):
        # residuals 0.6 and 0.3 at states 1/2 and -1 give Sigma = [[0.09]]
        problem = make_problem(make_agnostic_bias_chain(0.25), AgnosticDeterministic())
        cov = noise_covariance(problem)
        np.testing.assert_allclose(cov.sigma_matrix, [[0.09]], atol=1e-12)
        assert cov.upsilon == pytest.approx(0.25)

    def test_upsilon_finite_gaussian_noise(self):
        problem = make_problem(
            make_mc3(2.0, 0.05),
            IndependentGaussian(sigma=0.1),
            w_star=np.array([0.5, -0.5]),
        )
        cov = noise_covariance(problem)
        # max_s <x_s, w*>^2 + sigma^2 = 0.25 + 0.01
        assert cov.upsilon == pytest.approx(0.26)

    def test_agnostic_matches_path_average(self):
        # empirical residual second moment along a stationary path
        chain = make_mci(2, 0.2, 0.1, (1, 0))
        problem = make_problem(chain, AgnosticDeterministic())
        cov = noise_covariance(problem)
        idx = FinitePathCursor(chain, [run_generators(23)[0]]).take(200_000)[:, 0]
        X = chain.states[idx]
        resid = chain.outputs[idx] - X @ problem.w_star
        emp = (X * (resid**2)[:, None]).T @ X / len(idx)
        diag_samples = (X * (resid**2)[:, None] * X).sum(axis=1)
        se = diag_samples.std() / math.sqrt(len(idx))
        assert np.abs(emp - cov.sigma_matrix).max() < 20 * se


# ---------------------------------------------------------------------------
# Coupled trajectories
# ---------------------------------------------------------------------------


class TestCoupledTrajectory:
    def _make(self, residual=0.0):
        rng = np.random.default_rng(3)
        w_star = np.array([0.25, -0.5, 0.1])
        bias = rng.standard_normal((8, 3))
        var = rng.standard_normal((8, 3))
        full = (bias - w_star) + (var - w_star) + w_star + residual
        return CoupledTrajectory(full, bias, var, w_star)

    def test_identity_holds(self):
        traj = self._make()
        assert traj.identity_residuals().shape == (8,)
        assert traj.identity_residuals().max() < 1e-14
        assert traj.check_identity()

    def test_identity_violation_detected(self):
        assert not self._make(residual=1e-6).check_identity(tol=1e-9)
        assert self._make(residual=1e-6).check_identity(tol=1e-3)

    def test_excess_curves_keys(self):
        problem = make_problem(
            GaussianARSpec(dim=3, epsilon=0.5),
            Noiseless(),
            w_star=np.array([0.25, -0.5, 0.1]),
        )
        curves = self._make().excess_curves(problem)
        assert set(curves) == {"full", "bias", "var"}
        assert all(c.shape == (8,) for c in curves.values())

    def test_csv_roundtrip(self, tmp_path):
        problem = make_problem(
            GaussianARSpec(dim=3, epsilon=0.5),
            Noiseless(),
            w_star=np.array([0.25, -0.5, 0.1]),
        )
        traj = self._make()
        path = tmp_path / "coupled.csv"
        traj.to_csv(path, problem)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "excess_full", "excess_bias", "excess_var"]
        curves = traj.excess_curves(problem)
        assert len(rows) == 1 + 8
        for t, row in enumerate(rows[1:]):
            assert int(row[0]) == t
            assert float(row[1]) == curves["full"][t]  # repr round-trips exactly
            assert float(row[2]) == curves["bias"][t]
            assert float(row[3]) == curves["var"][t]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    @pytest.mark.parametrize(
        "noise",
        [IndependentGaussian(sigma=0.5), AgnosticDeterministic(), Noiseless()],
        ids=["gaussian", "agnostic", "noiseless"],
    )
    def test_noise_roundtrip(self, noise):
        assert noise_from_json(noise_to_json(noise)) == noise

    def test_noise_unknown_kind(self):
        with pytest.raises(ValueError):
            noise_from_json({"kind": "mystery"})

    @pytest.mark.parametrize(
        "doc",
        [{"kind": "noiseless", "sigma": 0.1}, {"kind": "independent_gaussian", "sigma": 0.1, "mean": 0.0}],
        ids=["noiseless", "gaussian"],
    )
    def test_noise_unknown_key_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown key.*allowed"):
            noise_from_json(doc)

    def test_problem_roundtrip(self):
        problem = make_problem(
            make_mc3(2.0, 0.05),
            IndependentGaussian(sigma=0.1),
            w_star=np.array([0.5, -0.5]),
            unit_norm=True,
        )
        back = problem_from_json(problem_to_json(problem))
        assert back.chain == problem.chain
        assert back.noise == problem.noise
        np.testing.assert_array_equal(back.w_star, problem.w_star)
        assert back.unit_norm

    def test_agnostic_w_star_recomputed_on_load(self):
        problem = make_problem(make_agnostic_bias_chain(0.25), AgnosticDeterministic())
        doc = problem_to_json(problem)
        doc["w_star"] = [123.0]  # stale value must be ignored, not trusted
        back = problem_from_json(doc)
        np.testing.assert_allclose(back.w_star, [-0.2], atol=1e-12)
