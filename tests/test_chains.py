"""Chain constructors, stationary analysis, mixing times, and path cursors."""

import contextlib
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.signal import lfilter

from markovsgd.chains import (
    FiniteChainSpec,
    FinitePathCursor,
    GaussianARSpec,
    GaussianPathCursor,
    GaussianStationaryLaw,
    chain_from_json,
    chain_to_json,
    make_agnostic_bias_chain,
    make_cursor,
    make_iid_chain,
    make_mc0,
    make_mc3,
    make_mci,
    mixing_time,
    run_generators,
    stationary,
    stationary_covariance,
    total_variation_curve,
    trajectory_kl,
)
from markovsgd import chains
from markovsgd.chains import _make_walk, _run_generators, _walk_words

# The cursors' two sampling paths: the compiled loops, and numpy (with
# scipy's lfilter) when the library is unavailable.  A cursor picks its path
# when it is made.
requires_library = pytest.mark.skipif(
    chains._load_kernel() is None, reason="the compiled sampling loops are unavailable here"
)
PATHS = [pytest.param("c", marks=requires_library), "numpy"]


@contextlib.contextmanager
def sampling_path(path):
    """Context in which the cursors made use the given sampling path."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "numpy":
            mp.setattr(chains, "_load_kernel", lambda: None)
        yield


# ---------------------------------------------------------------------------
# Oracles (independent implementations used to freeze expected values)
# ---------------------------------------------------------------------------


def tv_mixing_oracle(P, pi, t_limit=200):
    """Brute-force tau via matrix powers: min t with max_i 0.5||P^t_i - pi||_1 <= 1/4."""
    curve = []
    for t in range(1, t_limit + 1):
        Pt = np.linalg.matrix_power(P, t)
        curve.append(0.5 * np.abs(Pt - pi).sum(axis=1).max())
        if curve[-1] <= 0.25:
            return t, curve
    raise AssertionError("oracle did not mix within the limit")


def kl_path_oracle(specJ, specI, horizon):
    """KL between path laws by explicit enumeration of all state sequences."""
    import itertools

    piJ = stationary(specJ)
    piI = stationary(specI)
    n = specJ.num_states
    total = 0.0
    for path in itertools.product(range(n), repeat=horizon):
        pJ = piJ[path[0]]
        pI = piI[path[0]]
        for a, b in zip(path, path[1:]):
            pJ *= specJ.transition[a, b]
            pI *= specI.transition[a, b]
        if pJ == 0.0:
            continue
        if pI == 0.0:
            return math.inf
        total += pJ * math.log(pJ / pI)
    return total


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


class TestConstructors:
    def test_mc3_matrix(self):
        chain = make_mc3(2.0, 0.05)
        np.testing.assert_allclose(
            chain.transition, [[0.95, 0.05], [0.05, 0.95]], atol=1e-15
        )
        np.testing.assert_array_equal(chain.states, np.eye(2))
        assert chain.outputs is None

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 10.0])
    def test_mc3_first_state_mass(self, kappa):
        # stationary mass of the first state is 1 - 1/kappa by construction
        pi = stationary(make_mc3(kappa, 0.05))
        np.testing.assert_allclose(pi[0], 1.0 - 1.0 / kappa, atol=1e-10)

    def test_mc3_validation(self):
        with pytest.raises(ValueError):
            make_mc3(1.5, 0.05)
        with pytest.raises(ValueError):
            make_mc3(2.0, 0.6)

    def test_mc0_matrix(self):
        chain = make_mc0(4, 0.125)
        P = chain.transition
        assert np.allclose(np.diag(P), 0.875)
        off = P[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.125 / 3.0)
        np.testing.assert_allclose(stationary(chain), np.full(4, 0.25), atol=1e-10)

    def test_mci_structure(self):
        chain = make_mci(3, 0.1, 0.05, (1, 0, 1))
        assert chain.num_states == 6
        P = chain.transition
        # flagged +e_i rows leave with eps+delta, all other rows with eps
        np.testing.assert_allclose(1.0 - np.diag(P), [0.15, 0.1, 0.15, 0.1, 0.1, 0.1])
        np.testing.assert_array_equal(chain.outputs, np.ones(6))
        np.testing.assert_array_equal(chain.states[4], [0.0, -1.0, 0.0])

    def test_mci_validation(self):
        with pytest.raises(ValueError):
            make_mci(3, 0.6, 0.5, (1, 0, 1))  # eps + delta > 1
        with pytest.raises(ValueError):
            make_mci(3, 0.1, 0.05, (1, 0))  # bits length mismatch
        with pytest.raises(ValueError):
            make_mci(3, 0.1, 0.05, (1, 0, 2))  # non-binary bits

    @pytest.mark.parametrize("bits", [[1.7, True, 0], [0.9, 0, 1], [1, 0, True], [1, 0, "1"], 101])
    def test_mci_rejects_bits_that_are_not_integers(self, bits):
        with pytest.raises(ValueError, match="bits"):
            make_mci(3, 0.1, 0.05, bits)
        with pytest.raises(ValueError, match="bits"):
            chain_from_json({"kind": "mci", "d": 3, "epsilon": 0.1, "delta": 0.05, "bits": bits})

    def test_mci_takes_integral_bits(self):
        want = make_mci(3, 0.1, 0.05, (1, 0, 1))
        assert make_mci(3, 0.1, 0.05, [1.0, 0, np.int64(1)]) == want
        assert make_mci(3, 0.1, 0.05, np.array([1, 0, 1])).meta["bits"] == [1, 0, 1]

    def test_agnostic_bias_chain(self):
        chain = make_agnostic_bias_chain(0.25)
        np.testing.assert_array_equal(chain.states, [[0.5], [-1.0]])
        np.testing.assert_array_equal(chain.outputs, [0.5, 0.5])
        np.testing.assert_allclose(stationary(chain), [0.5, 0.5], atol=1e-10)
        assert chain.meta["optimum"] == -0.2
        with pytest.raises(ValueError):
            make_agnostic_bias_chain(0.75)

    def test_iid_chain_rows_equal_stationary(self):
        base = make_mc3(3.0, 0.05)
        pi = stationary(base)
        iid = make_iid_chain(base)
        for row in iid.transition:
            np.testing.assert_allclose(row, pi, atol=1e-12)
        # memoryless chain mixes in one step
        assert mixing_time(iid).tau_mix == 1

    def test_spec_validation(self):
        states = np.eye(2)
        with pytest.raises(ValueError):
            FiniteChainSpec(states, np.array([[0.9, 0.2], [0.5, 0.5]]))  # rows != 1
        with pytest.raises(ValueError):
            FiniteChainSpec(states, np.array([[1.1, -0.1], [0.5, 0.5]]))  # negative
        with pytest.raises(ValueError):
            FiniteChainSpec(states, np.eye(2))  # reducible
        with pytest.raises(ValueError):
            FiniteChainSpec(2.0 * states, np.full((2, 2), 0.5))  # state norm > 1
        with pytest.raises(ValueError):
            FiniteChainSpec(states, np.full((2, 2), 0.5), outputs=np.ones(3))

    @pytest.mark.parametrize("field", ["states", "transition", "outputs"])
    def test_spec_rejects_non_finite_numbers(self, field):
        # caught at once: a NaN transition would otherwise run the stationary
        # law's power iteration to its cap and be blamed on periodicity
        args = {"states": np.eye(2), "transition": np.full((2, 2), 0.5), "outputs": np.ones(2)}
        args[field] = np.array(args[field])
        args[field].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FiniteChainSpec(**args)

    def test_gaussian_spec_rejects_a_bool_dim(self):
        with pytest.raises(ValueError, match="dim must be an integer"):
            GaussianARSpec(True, 0.5)
        with pytest.raises(ValueError, match="dim must be an integer"):
            GaussianARSpec(math.nan, 0.5)

    def test_gaussian_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianARSpec(dim=0, epsilon=0.5)
        with pytest.raises(ValueError):
            GaussianARSpec(dim=4, epsilon=0.0)
        with pytest.raises(ValueError):
            GaussianARSpec(dim=4, epsilon=1.5)
        assert GaussianARSpec(dim=4, epsilon=1.0).decay == 0.0


# ---------------------------------------------------------------------------
# Stationary law and covariance
# ---------------------------------------------------------------------------


class TestStationary:
    @pytest.mark.parametrize(
        "chain",
        [
            make_mc3(2.0, 0.05),
            make_mc0(4, 0.125),
            make_mci(3, 0.1, 0.05, (1, 0, 1)),
            make_agnostic_bias_chain(0.25),
        ],
        ids=["mc3", "mc0", "mci", "bias"],
    )
    def test_stationary_fixed_point(self, chain):
        pi = stationary(chain)
        assert pi.shape == (chain.num_states,)
        np.testing.assert_allclose(pi @ chain.transition, pi, atol=1e-10)
        np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-12)

    def test_gaussian_stationary_descriptor(self):
        law = stationary(GaussianARSpec(dim=6, epsilon=0.3))
        assert isinstance(law, GaussianStationaryLaw)
        np.testing.assert_array_equal(law.mean, np.zeros(6))
        np.testing.assert_allclose(law.covariance, np.eye(6) / 6.0)

    def test_covariance_mc3(self):
        # states e1, e2 with stationary (1/2, 1/2) at kappa=2
        A = stationary_covariance(make_mc3(2.0, 0.05))
        np.testing.assert_allclose(A, np.diag([0.5, 0.5]), atol=1e-10)

    def test_covariance_gaussian(self):
        A = stationary_covariance(GaussianARSpec(dim=10, epsilon=0.2))
        np.testing.assert_allclose(A, np.eye(10) / 10.0)

    def test_covariance_bias_chain(self):
        # E[x^2] = 0.5 * 0.25 + 0.5 * 1 = 0.625
        A = stationary_covariance(make_agnostic_bias_chain(0.25))
        np.testing.assert_allclose(A, [[0.625]], atol=1e-10)


# ---------------------------------------------------------------------------
# Mixing times
# ---------------------------------------------------------------------------


class TestMixing:
    @pytest.mark.parametrize(
        "chain,expected_tau",
        [
            (make_mc3(2.0, 0.05), 7),
            (make_mc0(4, 0.125), 7),
            (make_mc0(4, 0.03125), 26),
        ],
        ids=["mc3", "mc0-eighth", "mc0-thirtysecond"],
    )
    def test_tau_against_oracle(self, chain, expected_tau):
        report = mixing_time(chain)
        tau_oracle, curve_oracle = tv_mixing_oracle(
            chain.transition, stationary(chain)
        )
        assert report.tau_mix == tau_oracle == expected_tau
        assert report.method == "numeric-finite"
        # recorded curve matches the oracle values along the way
        for (t, d), d_ref in zip(report.dmix_curve, curve_oracle):
            assert abs(d - d_ref) < 1e-12
        # certificate: below 1/4 at tau, above just before
        assert report.dmix_curve[-1][1] <= 0.25
        if report.tau_mix > 1:
            assert report.dmix_curve[-2][1] > 0.25

    def test_tv_curve_monotone(self):
        curve = total_variation_curve(make_mc3(2.0, 0.05), 30)
        assert curve.shape == (30,)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_tv_curve_matches_oracle(self):
        chain = make_mc0(3, 0.2)
        curve = total_variation_curve(chain, 5)
        pi = stationary(chain)
        for t in range(1, 6):
            Pt = np.linalg.matrix_power(chain.transition, t)
            d = 0.5 * np.abs(Pt - pi).sum(axis=1).max()
            assert abs(curve[t - 1] - d) < 1e-12

    def test_gaussian_proxy_value(self):
        # smallest t with (1-eps^2)^t <= 1/(4 sqrt(d))
        report = mixing_time(GaussianARSpec(dim=10, epsilon=0.01))
        assert report.method == "gaussian-ar-proxy"
        assert report.tau_mix == 25375
        expected = math.ceil(math.log(4.0 * math.sqrt(10)) / -math.log1p(-1e-4))
        assert report.tau_mix == expected

    def test_gaussian_proxy_epsilon_one(self):
        assert mixing_time(GaussianARSpec(dim=50, epsilon=1.0)).tau_mix == 1

    def test_cap_timeout(self):
        with pytest.raises(TimeoutError):
            mixing_time(make_mc3(2.0, 0.0005), cap=3)


# ---------------------------------------------------------------------------
# Trajectory KL divergence
# ---------------------------------------------------------------------------


class TestTrajectoryKL:
    def test_identical_chains_zero(self):
        chain = make_mci(2, 0.1, 0.05, (1, 0))
        assert trajectory_kl(chain, chain, 5) == 0.0

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_against_path_enumeration(self, horizon):
        specJ = make_mci(2, 0.1, 0.05, (1, 0))
        specI = make_mci(2, 0.1, 0.05, (0, 1))
        got = trajectory_kl(specJ, specI, horizon)
        want = kl_path_oracle(specJ, specI, horizon)
        assert abs(got - want) < 1e-10

    def test_grows_linearly_in_horizon(self):
        specJ = make_mci(2, 0.1, 0.05, (1, 0))
        specI = make_mci(2, 0.1, 0.0, (0, 0))
        k2 = trajectory_kl(specJ, specI, 2)
        k5 = trajectory_kl(specJ, specI, 5)
        k8 = trajectory_kl(specJ, specI, 8)
        np.testing.assert_allclose(k8 - k5, k5 - k2, rtol=1e-9)

    def test_support_failure_is_inf(self):
        states = np.eye(3) * 0.9
        J = FiniteChainSpec(states, np.full((3, 3), 1.0 / 3.0))
        I = FiniteChainSpec(
            states,
            np.array([[0.1, 0.9, 0.0], [0.0, 0.1, 0.9], [0.9, 0.0, 0.1]]),
        )
        assert trajectory_kl(J, I, 2) == math.inf
        assert kl_path_oracle(J, I, 2) == math.inf

    def test_validation(self):
        a = make_mc3(2.0, 0.05)
        b = make_agnostic_bias_chain(0.25)
        with pytest.raises(ValueError):
            trajectory_kl(a, b, 2)  # different state sets
        with pytest.raises(ValueError):
            trajectory_kl(a, a, 0)
        with pytest.raises(TypeError):
            trajectory_kl(GaussianARSpec(2, 0.5), a, 2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestChainJson:
    def test_gaussian_roundtrip(self):
        spec = GaussianARSpec(dim=7, epsilon=0.25)
        assert chain_from_json(chain_to_json(spec)) == spec

    def test_finite_roundtrip_with_outputs_and_meta(self):
        spec = make_mci(2, 0.1, 0.05, (1, 0))
        back = chain_from_json(chain_to_json(spec))
        assert back == spec
        assert back.meta["family"] == "mci"

    @pytest.mark.parametrize(
        "doc,maker",
        [
            ({"kind": "mc3", "kappa": 2.0, "delta": 0.05}, make_mc3(2.0, 0.05)),
            ({"kind": "mc0", "d": 4, "epsilon": 0.125}, make_mc0(4, 0.125)),
            (
                {"kind": "mci", "d": 2, "epsilon": 0.1, "delta": 0.05, "bits": [1, 0]},
                make_mci(2, 0.1, 0.05, (1, 0)),
            ),
            ({"kind": "agnostic_bias", "epsilon": 0.25}, make_agnostic_bias_chain(0.25)),
        ],
        ids=["mc3", "mc0", "mci", "bias"],
    )
    def test_shorthand_kinds(self, doc, maker):
        assert chain_from_json(doc) == maker

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            chain_from_json({"kind": "nope"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "mc3", "kappa": 2.0, "delta": 0.05, "epsilon": 0.1},
            {"kind": "mc0", "d": 4, "epsilon": 0.125, "dim": 4},
            {"kind": "gaussian_ar", "dim": 3, "epsilon": 0.2, "eps": 0.2},
            {"kind": "agnostic_bias", "epsilon": 0.25, "delta": 0.1},
        ],
        ids=["mc3", "mc0", "gaussian", "bias"],
    )
    def test_unknown_key_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown key.*allowed"):
            chain_from_json(doc)


# ---------------------------------------------------------------------------
# Path cursors
# ---------------------------------------------------------------------------


class TestCursors:
    def test_run_generators_contract(self):
        gens = run_generators(42)
        assert len(gens) == 4
        # children are distinct streams
        draws = [g.standard_normal(4) for g in gens]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])
        # deterministic
        again = run_generators(42)[0].standard_normal(4)
        cursor_draws = run_generators(42)[0].standard_normal(4)
        np.testing.assert_array_equal(again, cursor_draws)
        with pytest.raises(TypeError):
            run_generators(np.random.default_rng(0))
        # a pre-built SeedSequence is accepted as-is
        via_ss = run_generators(np.random.SeedSequence(42))[0].standard_normal(4)
        np.testing.assert_array_equal(via_ss, again)

    @pytest.mark.parametrize(
        "make_ss",
        [
            lambda: np.random.SeedSequence(42),
            lambda: np.random.SeedSequence(2**70 + 5, spawn_key=(3, 1), pool_size=8),
        ],
    )
    def test_seed_sequence_is_never_spawned(self, make_ss):
        ss = make_ss()
        first = [g.standard_normal(3) for g in run_generators(ss)]
        second = [g.standard_normal(3) for g in run_generators(ss)]
        np.testing.assert_array_equal(first, second)
        assert ss.n_children_spawned == 0
        # the children of a first spawn, so integer-seeded streams are unchanged
        spawned = [np.random.Generator(np.random.Philox(c)).standard_normal(3) for c in make_ss().spawn(4)]
        np.testing.assert_array_equal(first, spawned)

    @pytest.mark.parametrize("children", [(0,), (3,), (0, 1, 2), (2, 0)])
    def test_generator_subsets_match_the_four(self, children):
        for seed in (7, np.random.SeedSequence(7)):
            some = [g.random(4) for g in _run_generators(seed, children)]
            want = [run_generators(seed)[i].random(4) for i in children]
            np.testing.assert_array_equal(some, want)

    @pytest.mark.parametrize("splits", [(5, 5), (3, 4, 3), (1, 9), (9, 1)])
    def test_gaussian_chunk_invariance(self, splits):
        spec = GaussianARSpec(dim=6, epsilon=0.37)
        cur = GaussianPathCursor(spec, [run_generators(77)[0]])
        path = np.concatenate([cur.take(n) for n in splits], axis=0)
        ref = GaussianPathCursor(spec, [run_generators(77)[0]]).take(10)
        np.testing.assert_array_equal(path, ref)

    @pytest.mark.parametrize("splits", [(5, 5), (3, 4, 3), (1, 9)])
    def test_finite_chunk_invariance(self, splits):
        spec = make_mc3(2.0, 0.05)
        cur = FinitePathCursor(spec, [run_generators(77)[0]])
        path = np.concatenate([cur.take(n) for n in splits], axis=0)
        ref = FinitePathCursor(spec, [run_generators(77)[0]]).take(10)
        np.testing.assert_array_equal(path, ref)

    @staticmethod
    def _path_and_innovations(spec, seed, n):
        """A one-run path of ``n`` states and its innovations ``G_t / sqrt(d)``,
        the normals recomputed from a copy of the cursor's own generator."""
        X = GaussianPathCursor(spec, [run_generators(seed)[0]]).take(n)[:, 0]
        G = run_generators(seed)[0].standard_normal((n, spec.dim)) * (1.0 / math.sqrt(spec.dim))
        return X, G

    def test_gaussian_recursion_and_innovations(self):
        spec = GaussianARSpec(dim=8, epsilon=0.4)
        X, G = self._path_and_innovations(spec, 5, 200)
        c, eps = spec.decay, spec.epsilon
        np.testing.assert_allclose(
            X[1:], c * X[:-1] + eps * G[1:], atol=1e-14
        )
        np.testing.assert_array_equal(X[0], G[0])

    def test_gaussian_stationary_moments(self):
        # ||X||^2 concentrates around 1 under the stationary law
        spec = GaussianARSpec(dim=100, epsilon=0.6)
        X = GaussianPathCursor(spec, [run_generators(9)[0]]).take(20000)[:, 0, :]
        sq = (X**2).sum(axis=1)
        assert abs(sq.mean() - 1.0) < 0.05
        # innovations are independent of the past state
        X, G = self._path_and_innovations(spec, 10, 20000)
        corr = (X[:-1] * G[1:]).sum(axis=1)
        assert abs(corr.mean()) < 5.0 / math.sqrt(len(corr))

    def test_finite_cursor_state_frequencies(self):
        # long-path state frequencies approach the stationary law
        chain = make_mc3(4.0, 0.2)  # pi = (0.75, 0.25)
        out = FinitePathCursor(chain, [run_generators(3)[0]]).take(40000)[:, 0]
        freq = (out == 0).mean()
        assert abs(freq - 0.75) < 0.02

    def test_make_cursor_dispatch(self):
        assert isinstance(
            make_cursor(GaussianARSpec(2, 0.5), [run_generators(0)[0]]),
            GaussianPathCursor,
        )
        assert isinstance(
            make_cursor(make_mc3(2.0, 0.05), [run_generators(0)[0]]),
            FinitePathCursor,
        )

    def test_multi_run_columns_match_single_runs(self):
        spec = GaussianARSpec(dim=4, epsilon=0.3)
        rngs = [run_generators(s)[0] for s in (11, 12, 13)]
        batch = GaussianPathCursor(spec, rngs).take(50)
        for i, s in enumerate((11, 12, 13)):
            solo = GaussianPathCursor(spec, [run_generators(s)[0]]).take(50)
            np.testing.assert_array_equal(batch[:, i, :], solo[:, 0, :])


def _stacked_takes(spec, seeds, splits):
    """Reference Gaussian path in the (n, R, d) layout: each block's normals
    are stacked along axis 1 and filtered along axis 0."""
    rngs = [run_generators(s)[0] for s in seeds]
    scale = 1.0 / math.sqrt(spec.dim)
    c, eps = spec.decay, spec.epsilon
    x = None
    blocks = []
    for n in splits:
        G = np.stack([rng.standard_normal((n, spec.dim)) for rng in rngs], axis=1)
        X = np.empty_like(G)
        lo = 0
        if x is None:
            np.multiply(G[0], scale, out=X[0])
            lo = 1
        prev = X[0] if lo else x
        if lo < n:
            X[lo:], _ = lfilter([eps * scale], [1.0, -c], G[lo:], axis=0, zi=(c * prev)[None])
        x = X[-1].copy()
        blocks.append(X)
    return blocks


class TestGaussianCursorLayout:
    """The per-run (R, n, d) cursor gives the stacked-layout path bit for bit."""

    @pytest.mark.parametrize("seeds", [(21,), (21, 22, 23)], ids=["R1", "R3"])
    @pytest.mark.parametrize("eps", [1e-3, 0.37, 0.9, 1.0])  # 1.0: no decay, white noise
    @pytest.mark.parametrize("splits", [(12,), (1, 11), (5, 1, 6), (4, 4, 3, 1)])
    @pytest.mark.parametrize("path", PATHS)
    def test_matches_stacked_reference(self, seeds, eps, splits, path):
        spec = GaussianARSpec(dim=5, epsilon=eps)
        with sampling_path(path):
            cur = GaussianPathCursor(spec, [run_generators(s)[0] for s in seeds])
        for n, want in zip(splits, _stacked_takes(spec, seeds, splits)):
            got = cur.take(n)
            assert got.shape == (n, len(seeds), spec.dim)
            np.testing.assert_array_equal(got, want)


class TestARFilter:
    """The compiled AR recursion equals scipy's lfilter bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        R=st.integers(1, 11),
        d=st.integers(1, 11),
        eps=st.sampled_from([1e-3, 0.05, 0.37, 0.9, 1.0]) | st.floats(1e-3, 1.0),
        splits=st.lists(st.integers(0, 300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 20),
    )
    def test_cursor_paths_agree(self, R, d, eps, splits, seed):
        spec = GaussianARSpec(dim=d, epsilon=eps)
        seeds = [seed + i for i in range(R)]
        takes = {}
        for path in ("c", "numpy"):
            with sampling_path(path):
                cur = GaussianPathCursor(spec, [run_generators(s)[0] for s in seeds])
            takes[path] = [cur.take(n) for n in splits]
        for got, want, n in zip(takes["c"], takes["numpy"], splits):
            assert got.shape == (n, R, d)
            assert got.tobytes() == want.tobytes()
        # an empty take draws nothing, so the reference skips it
        nonempty = [n for n in splits if n]
        ref = _stacked_takes(spec, seeds, nonempty)
        for got, want in zip([t for t, n in zip(takes["c"], splits) if n], ref):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @requires_library
    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    @pytest.mark.parametrize("eps", [1e-3, 0.3, 0.9, 1.0])
    def test_loop_equals_lfilter(self, in_place, eps):
        kern = chains._load_kernel()
        rng = np.random.default_rng(17)
        for R, n, d in [(1, 1, 1), (1, 3000, 1), (3, 7, 4), (11, 400, 11), (2, 1, 5)]:
            c = math.sqrt(max(0.0, 1.0 - eps**2))
            b = eps / math.sqrt(d)
            buf = rng.standard_normal((R, n + 1, d))
            buf[:, :: max(1, n // 3)] *= np.where(rng.random(d) < 0.5, -0.0, 0.0)  # signed zeros
            G = buf[:, 1:]  # the runs are strided, as in a take after the first state
            x0 = rng.standard_normal((R, d))
            x0[0] = np.where(rng.random(d) < 0.5, -0.0, 0.0)
            want, _ = lfilter([b], [1.0, -c], G, axis=1, zi=(c * x0)[:, None])
            X = G if in_place else np.empty_like(buf)[:, 1:]
            kern.ar(G, X, b, c, x0)
            assert X.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Finite walks against the per-step ufunc reference
# ---------------------------------------------------------------------------


def _reference_walk(cum, U, state):
    """The per-step ufunc walk, ``next = #{j : u >= cum[state, j]}``: a
    threshold gather and compare for two states, a row compare and
    ``add.reduce`` for more.  ``U`` is (n, R); returns the (n, R) states
    after ``state``."""
    n, R = U.shape
    S = cum.shape[0]
    out = np.empty((n, R), dtype=np.int64)
    if S == 2:
        thresh = np.ascontiguousarray(cum[:, 0])  # u >= thresh means "move up"
        fbuf = np.empty(R)
        for t in range(n):
            thresh.take(state, out=fbuf, mode="clip")
            np.greater_equal(U[t], fbuf, out=out[t], casting="unsafe")
            state = out[t]
    else:
        gbuf = np.empty((R, S))
        bbuf = np.empty((R, S), dtype=bool)
        for t in range(n):
            cum.take(state, axis=0, out=gbuf, mode="clip")
            np.greater_equal(U[t][:, None], gbuf, out=bbuf)
            np.add.reduce(bbuf, axis=1, out=out[t])
            state = out[t]
    return out


def _cumulative_rows(spec):
    cum = np.cumsum(spec.transition, axis=1)
    cum /= cum[:, -1:]
    cum[:, -1] = 1.0
    return cum


def _reference_path(spec, seeds, n):
    """n states per run: uniforms stacked per run, the first state searched
    in the stationary law's cumulative sums, then the reference walk."""
    U = np.stack([run_generators(s)[0].random(n) for s in seeds], axis=1)
    cpi = np.cumsum(stationary(spec))
    cpi[-1] = 1.0
    first = np.searchsorted(cpi, U[0], side="right")
    return np.concatenate([first[None], _reference_walk(_cumulative_rows(spec), U[1:], first)])


def _random_chain(S, seed):
    """Dense-ish S-state chain with some zero entries (repeated thresholds);
    the cycle i -> i+1 keeps it irreducible."""
    rng = np.random.default_rng(seed)
    P = rng.random((S, S)) * (rng.random((S, S)) < 0.7)
    P[np.arange(S), (np.arange(S) + 1) % S] += 0.1
    P /= P.sum(axis=1, keepdims=True)
    return FiniteChainSpec(np.eye(S), P)


def _cursor_path(spec, seeds, splits):
    cur = FinitePathCursor(spec, [run_generators(s)[0] for s in seeds])
    blocks = [cur.take(n) for n in splits]
    assert all(b.shape == (n, len(seeds)) for b, n in zip(blocks, splits))
    return np.concatenate(blocks)


WALK_CHAINS = {
    2: lambda: make_mc3(2.0, 0.05),
    3: lambda: _random_chain(3, 0),
    4: lambda: make_mc0(4, 0.125),
    6: lambda: make_mci(3, 0.2, 0.1, [1, 0, 1]),
    9: lambda: _random_chain(9, 1),
    10: lambda: make_mci(5, 0.3, 0.1, [0, 1, 1, 0, 1]),
    17: lambda: _random_chain(17, 2),
}


class TestFiniteWalks:
    """The compiled walk and the numpy walk give the per-step reference path
    bit for bit."""

    @pytest.mark.parametrize("S", sorted(WALK_CHAINS))
    @pytest.mark.parametrize("R", [1, 24, 25, 64], ids=["R1", "R24", "R25", "R64"])
    @pytest.mark.parametrize("path", PATHS)
    def test_cursor_matches_reference(self, S, R, path):
        spec = WALK_CHAINS[S]()
        assert spec.num_states == S
        seeds = [500 + i for i in range(R)]
        splits = (1, 37, 5, 1, 156)
        want = _reference_path(spec, seeds, sum(splits))
        with sampling_path(path):
            got = _cursor_path(spec, seeds, splits)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("S", sorted(WALK_CHAINS))
    @pytest.mark.parametrize("R", [1, 24, 25, 64], ids=["R1", "R24", "R25", "R64"])
    @pytest.mark.parametrize("path", PATHS)
    def test_walk_from_a_state_matches_reference(self, S, R, path):
        # a walk from a transition row, resumed block by block from each
        # block's last states, as a cursor's takes after its first are
        spec = WALK_CHAINS[S]()
        cum = _cumulative_rows(spec)
        splits = (1, 37, 5, 1, 156)
        U = np.stack([run_generators(500 + i)[0].random(sum(splits)) for i in range(R)])
        with sampling_path(path):
            walk = _make_walk(np.ascontiguousarray(cum[:, :-1]), chains._load_kernel())
        state, blocks, lo = np.ones(R, dtype=np.int64), [], 0
        for n in splits:
            out = np.empty((n, R), dtype=np.int64)
            walk(U[:, lo : lo + n], state, out)
            state, lo = out[-1].copy(), lo + n
            blocks.append(out)
        want = _reference_walk(cum, U.T, np.ones(R, dtype=np.int64))
        np.testing.assert_array_equal(np.concatenate(blocks), want)

    @pytest.mark.parametrize("R", [1, 25])
    @pytest.mark.parametrize("path", PATHS)
    def test_uniform_equal_to_threshold_moves_past_it(self, R, path):
        # dyadic rows, so every cumulative threshold is exact: u == cum[s, j]
        # counts threshold j, nextafter below does not
        P = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        cum = _cumulative_rows(FiniteChainSpec(np.eye(3), P))
        b25, b50 = np.nextafter(0.25, 0.0), np.nextafter(0.5, 0.0)
        column = np.array([0.5, 0.75, 0.25, 0.25, b25, b50, 0.75, 0.5, b50, 0.0, 0.999])
        U = np.stack([np.roll(column, r) for r in range(R)], axis=1)
        state = np.arange(R, dtype=np.int64) % 3
        want = _reference_walk(cum, U, state)
        np.testing.assert_array_equal(want[:, 0], [1, 2, 1, 1, 0, 0, 2, 2, 1, 0, 2])
        out = np.empty_like(want)
        with sampling_path(path):
            kern = chains._load_kernel()
        _make_walk(cum[:, :-1], kern)(np.ascontiguousarray(U.T), state, out)
        np.testing.assert_array_equal(out, want)

    def test_walk_choice_follows_library(self):
        lead = _cumulative_rows(make_mc0(4, 0.125))[:, :-1]
        assert _make_walk(lead, None).func is _walk_words
        kern = chains._load_kernel()
        if kern is not None:
            assert _make_walk(lead, kern).func == kern.walk

    @requires_library
    @pytest.mark.parametrize("S", range(2, 11))
    @pytest.mark.parametrize("R", [1, 3, 4, 5, 9])
    def test_each_compiled_walk_equals_the_numpy_walk(self, S, R):
        # S = 2 .. 9 take the copies compiled for S - 1 thresholds, S = 10 the loop
        lead = np.ascontiguousarray(_cumulative_rows(_random_chain(S, 7 * S))[:, :-1])
        rng = np.random.default_rng(S * 16 + R)
        n = 64
        U = rng.uniform(size=(R, n))
        U[:, ::5] = rng.choice(lead.ravel(), size=U[:, ::5].shape)  # uniforms on thresholds
        state = rng.integers(0, S, R)
        want = np.empty((n, R), dtype=np.int64)
        _make_walk(lead, None)(U, state, want)
        kern = chains._load_kernel()
        wide = np.full((n, 3 * R), -1, dtype=np.int64)
        kern.walk(lead, U, state, wide[:, 1::3])  # a strided out
        assert wide[:, 1::3].tobytes() == np.ascontiguousarray(want).tobytes()
        assert (wide[:, 0::3] == -1).all() and (wide[:, 2::3] == -1).all()
        block = U.copy()  # in place: each uniform turns into its state
        kern.walk(lead, block, state, block.view(np.int64).T)
        assert np.ascontiguousarray(block.view(np.int64).T).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_a_kept_take_is_never_overwritten(self):
        cursor = FinitePathCursor(make_mc0(4, 0.125), [run_generators(s)[0] for s in (3, 4, 5)])
        first = cursor.take(40)
        kept = first.copy()
        later = [cursor.take(n) for n in (40, 12, 40)]
        assert first.tobytes() == kept.tobytes()
        assert not any(np.shares_memory(first, b) for b in later)

    @pytest.mark.parametrize("path", PATHS)
    def test_take_into_out_returns_it_with_the_same_states(self, path):
        spec, seeds = make_mc0(4, 0.125), (3, 4, 5)
        with sampling_path(path):
            fresh, into = (FinitePathCursor(spec, [run_generators(s)[0] for s in seeds]) for _ in range(2))
            memory = np.empty(3 * 40, dtype=np.int64)  # one block's memory for every take, as the engine's
            for n in (40, 12, 40, 1):
                out = memory[: 3 * n].reshape(3, n).T
                assert into.take(n, out=out) is out
                assert out.tobytes() == fresh.take(n).tobytes()
            with pytest.raises(ValueError, match="out"):
                into.take(5, out=np.empty((5, 3), dtype=np.int64))  # its transpose is not C-contiguous

    @requires_library
    def test_compiled_walk_rejects_bad_input(self):
        kern = chains._load_kernel()
        lead = np.ascontiguousarray(_cumulative_rows(make_mc0(4, 0.125))[:, :-1])
        U = np.full((2, 5), 0.5)
        out = np.empty((5, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="start states"):
            kern.walk(lead, U, np.array([0, 4]), out)
        with pytest.raises(ValueError, match="layout"):
            kern.walk(lead, U, np.array([0, 1]), out.T)
        with pytest.raises(ValueError, match="layout"):  # fewer rows than the chain's states
            kern.walk(np.ascontiguousarray(lead[:3]), U, np.array([0, 1]), out)

    @pytest.mark.parametrize("path", PATHS)
    def test_walk_starts_in_the_stationary_row(self, path):
        # row S holds the stationary law's leading cumulative sums: a start
        # there steps to a stationary draw, and a start outside the rows is
        # an error on either walk
        spec, seeds = _random_chain(5, 3), (8, 9, 10)
        lead = np.ascontiguousarray(np.vstack([_cumulative_rows(spec)[:, :-1], np.cumsum(stationary(spec))[:-1]]))
        U = np.stack([run_generators(s)[0].random(40) for s in seeds])
        with sampling_path(path):
            walk = _make_walk(lead, chains._load_kernel())
        out = np.empty((40, 3), dtype=np.int64)
        walk(U, np.full(3, 5), out)
        np.testing.assert_array_equal(out, _reference_path(spec, seeds, 40))
        for bad in (6, -1):
            with pytest.raises(ValueError, match=r"^walk: start states must lie in 0\.\.5$"):
                walk(U, np.array([5, bad, 5]), out)

    @settings(max_examples=60, deadline=None)
    @given(
        S=st.integers(1, 12),
        R=st.sampled_from([1, 2, 24, 25, 40]),
        splits=st.lists(st.integers(0, 30), min_size=1, max_size=5).filter(any),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_takes_concatenate_to_one_take_and_reference(self, S, R, splits, seed):
        # from S = 10 the numpy walk sums its counts over several uint64 words
        spec = _random_chain(S, seed) if S > 1 else FiniteChainSpec(np.eye(1), [[1.0]])
        seeds = [seed + i for i in range(R)]
        want = _reference_path(spec, seeds, sum(splits))
        for path in ("c", "numpy") if chains._load_kernel() is not None else ("numpy",):
            with sampling_path(path):
                got = _cursor_path(spec, seeds, splits)
                whole = _cursor_path(spec, seeds, [sum(splits)])
            np.testing.assert_array_equal(got, whole)
            np.testing.assert_array_equal(got, want)
