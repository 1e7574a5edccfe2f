"""Acceptance suite: end-to-end statistical and exactness checks.

Each criterion reproduces one headline behavior of the estimators at full
experimental scale -- constant-step bias under state-dependent noise, the
replay estimator's variance floor and fast bias decay, mixing-time-free
variance for the parallel scheme, the data-drop/iid equivalence, the
sample-complexity lower-bound trace, the mixing-time machinery, the spectral
facts behind replay, and the exact structural invariants (fixed points,
coupling, index discipline, determinism).

Every criterion runs from pre-registered seeds and reports measured value,
target, tolerance, and verdict; suites bundle related criteria.  ``fast``
mode shrinks run counts/horizons for smoke testing -- indicative only, the
full-scale run is the gate.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .algorithms import (
    DataDropConfig,
    LowerBoundTrace,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
    recommended_parallel_instances,
    run_lower_bound_traces,
    run_many,
    run_parallel_sgd,
    run_sgd,
    run_sgd_dd,
    run_sgd_er,
)
from .chains import (
    FiniteChainSpec,
    GaussianARSpec,
    make_agnostic_bias_chain,
    make_iid_chain,
    make_mc0,
    make_mc3,
    make_mci,
    mixing_time,
    stationary,
    total_variation_curve,
    trajectory_kl,
)
from .experiments import ExperimentConfig, _aggregate, resolve_w_init, run_experiment
from .regression import (
    AgnosticDeterministic,
    IndependentGaussian,
    Noiseless,
    excess_risk,
    make_problem,
)
from .spectral import (
    CirculantSpec,
    circulant_eigs_closed_form,
    circulant_matrix,
    gram_spectrum,
    perturbation_matrix,
    perturbation_norms,
    sample_buffer,
)

__all__ = ["CriterionResult", "SUITES", "run_criterion", "run_suite"]

# Pre-registered base seeds, one block per criterion.
_SEEDS = {1: 11100, 2: 2200, 3: 3300, 4: 4400, 5: 5500, 6: 6600, 8: 8800, 9: 9900}


@dataclass
class CriterionResult:
    criterion: int
    title: str
    passed: bool
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name: str, measured, target, comparison: str, passed: bool):
        self.checks.append(
            {
                "check": name,
                "measured": None if measured is None else float(measured),
                "target": None if target is None else float(target),
                "comparison": comparison,
                "passed": bool(passed),
            }
        )
        self.passed = self.passed and bool(passed)

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "title": self.title,
            "passed": self.passed,
            "checks": self.checks,
            "wall_time_s": round(self.wall_time, 3),
        }


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """The mean of R values and its standard error, as a series summary has them."""
    agg = _aggregate(np.asarray(values, dtype=float))
    return float(agg["mean"]), float(agg["stderr"])


# ---------------------------------------------------------------------------
# Criterion 1: constant-step bias under state-dependent observation noise
# ---------------------------------------------------------------------------


def criterion_1(fast: bool = False) -> CriterionResult:
    """Two-point chain with constant outputs: the final SGD iterate's mean
    sits at the known step-size-dependent asymptote, a constant-order offset
    from the population optimum; the memoryless control recovers the optimum."""
    res = CriterionResult(1, "constant-step bias under state-dependent noise", True)
    alpha = 0.1
    T, R = (10**4, 5000) if not fast else (2000, 500)
    seeds = [_SEEDS[1] + i for i in range(R)]

    # E[w_inf] for the correlated chain (epsilon = 1/4) in closed form
    target_corr = 0.5 * (alpha - 2.0) / (2.0 * alpha + 5.0)
    w_opt = -0.2

    for eps, target, is_control in ((0.25, target_corr, False), (0.5, w_opt, True)):
        problem = make_problem(make_agnostic_bias_chain(eps), AgnosticDeterministic())
        out = run_many(problem, T - 1, SgdConfig(alpha), seeds)  # final = w_T
        mean, se = _mean_se(out.final_iterates[:, 0])
        tag = "control-eps-1/2" if is_control else "eps-1/4"
        res.add(f"{tag}: mean(w_T) vs {target:.6f}", mean - target, 3 * se, "|measured| <= target", abs(mean - target) <= 3 * se)
        if not is_control:
            res.add(
                "eps-1/4: |mean(w_T) - w*| >= 0.1 alpha",
                abs(mean - w_opt),
                0.1 * alpha,
                "measured >= target",
                abs(mean - w_opt) >= 0.1 * alpha,
            )
    return res


# ---------------------------------------------------------------------------
# Criterion 2: replay estimator's final variance on the Gaussian AR stream
# ---------------------------------------------------------------------------


def criterion_2(fast: bool = False) -> CriterionResult:
    """Long replay run: mean excess risk of the tail-averaged estimate lands
    within a factor 5 of the predicted variance floor 2 sigma^2 d^2 / (eps T)."""
    res = CriterionResult(2, "replay estimator final variance", True)
    d, sigma, eps = 10, 1e-3, 0.01
    B = 10**4
    T, R = (10**7, 20) if not fast else (10**6, 5)
    seeds = [_SEEDS[2] + i for i in range(R)]
    chain = GaussianARSpec(d, eps)
    problem = make_problem(chain, IndependentGaussian(sigma), w_star=np.zeros(d))
    w1 = resolve_w_init("random_unit", problem, seeds)
    out = run_many(problem, T, ReplayConfig(buffer_size=B), seeds, w_init=w1)
    measured = float(np.mean(excess_risk(problem, out.estimates)))
    target = 2.0 * sigma**2 * d**2 / (eps * T)
    ok = target / 5.0 <= measured <= target * 5.0
    res.add("mean excess of estimate vs 2 sigma^2 d^2/(eps T)", measured, target, "within factor 5", ok)
    return res


# ---------------------------------------------------------------------------
# Criterion 3: bias decay onset -- replay at d sqrt(tau), plain SGD at d tau
# ---------------------------------------------------------------------------


def criterion_3(fast: bool = False) -> CriterionResult:
    """Noiseless runs from random unit starts: by N = 20 d sqrt(tau) samples
    the replay estimator's excess has fallen 10x while plain SGD's has not
    yet fallen 2x (its decay only starts near d tau samples)."""
    res = CriterionResult(3, "bias decay onset separation", True)
    d, eps, B = 10, 0.01, 10**4
    R = 20 if not fast else 5
    seeds = [_SEEDS[3] + i for i in range(R)]
    chain = GaussianARSpec(d, eps)
    tau = mixing_time(chain).tau_mix
    N = int(20 * d * math.sqrt(tau))
    problem = make_problem(chain, Noiseless(), w_star=np.zeros(d))
    w1 = resolve_w_init("random_unit", problem, seeds)

    er = run_many(
        problem, 4 * B, ReplayConfig(buffer_size=B), seeds, w_init=w1, checkpoints=[0, N]
    )
    er_drop = float(er.checkpoint_excess[0].mean() / er.checkpoint_excess[1].mean())
    res.add("replay excess drop factor at N = 20 d sqrt(tau)", er_drop, 10.0, "measured >= target", er_drop >= 10.0)

    sgd = run_many(problem, N, SgdConfig(0.5), seeds, w_init=w1, checkpoints=[0, N])
    sgd_drop = float(sgd.checkpoint_excess[0].mean() / sgd.checkpoint_excess[1].mean())
    res.add("plain SGD excess drop factor at N", sgd_drop, 2.0, "measured <= target", sgd_drop <= 2.0)
    return res


# ---------------------------------------------------------------------------
# Criterion 4: parallel SGD's variance is mixing-time-free; plain SGD's is not
# ---------------------------------------------------------------------------


def criterion_4(fast: bool = False) -> CriterionResult:
    """Clique walks with a 4x mixing-time ratio: the parallel estimator's
    excess is unchanged (ratio in [0.5, 2]) while tail-averaged SGD's grows
    by at least 2.5x."""
    res = CriterionResult(4, "mixing-time-free variance for parallel SGD", True)
    d, sigma, alpha = 4, 0.1, 0.25
    # Fast mode trims runs, not the horizon: with fewer samples per instance
    # the iterates never reach stationary variance and the ratio collapses.
    T, R = (2 * 10**5, 1000) if not fast else (2 * 10**5, 100)
    seeds = [_SEEDS[4] + i for i in range(R)]
    w_star = np.zeros(d)

    excess = {"parallel": {}, "sgd": {}}
    for eps in (1 / 8, 1 / 32):
        chain = make_mc0(d, eps)
        tau = mixing_time(chain).tau_mix
        K = recommended_parallel_instances(tau, T, 6.0)
        problem = make_problem(chain, IndependentGaussian(sigma), w_star=w_star)
        par = run_many(problem, T, ParallelConfig(SgdConfig(alpha), K), seeds, w_init=w_star)
        excess["parallel"][eps] = float(np.mean(excess_risk(problem, par.estimates)))
        sgd = run_many(problem, T, SgdConfig(alpha), seeds, w_init=w_star)
        excess["sgd"][eps] = float(np.mean(excess_risk(problem, sgd.estimates)))

    par_ratio = excess["parallel"][1 / 32] / excess["parallel"][1 / 8]
    sgd_ratio = excess["sgd"][1 / 32] / excess["sgd"][1 / 8]
    res.add("parallel excess ratio across eps in {1/8, 1/32}", par_ratio, 2.0, "0.5 <= measured <= 2", 0.5 <= par_ratio <= 2.0)
    res.add("plain SGD excess ratio across eps", sgd_ratio, 2.5, "measured >= target", sgd_ratio >= 2.5)
    return res


# ---------------------------------------------------------------------------
# Criterion 5: data-drop SGD matches SGD on fresh stationary samples
# ---------------------------------------------------------------------------


def criterion_5(fast: bool = False) -> CriterionResult:
    """With the derived drop interval, updating on every K-th chain sample is
    statistically indistinguishable from running SGD on floor(T/K) iid
    stationary samples."""
    res = CriterionResult(5, "data-drop equivalence with iid SGD", True)
    alpha, sigma = 0.25, 0.1
    T, R = (10**6, 500) if not fast else (10**5, 100)
    seeds_dd = [_SEEDS[5] + i for i in range(R)]
    seeds_iid = [_SEEDS[5] + 50000 + i for i in range(R)]

    chain = make_mc3(kappa=2.0, delta=0.05)
    w_star = np.array([0.5, -0.5])
    problem = make_problem(chain, IndependentGaussian(sigma), w_star=w_star)
    tau = mixing_time(chain).tau_mix
    dd_cfg = DataDropConfig(SgdConfig(alpha), drop_interval=None, log_constant=5.0)
    out_dd = run_many(problem, T, dd_cfg, seeds_dd)
    mean_dd, se_dd = _mean_se(excess_risk(problem, out_dd.estimates))

    from .algorithms import resolve_drop_interval

    K = resolve_drop_interval(dd_cfg, problem, T)
    iid_problem = make_problem(make_iid_chain(chain), IndependentGaussian(sigma), w_star=w_star)
    out_iid = run_many(iid_problem, T // K, SgdConfig(alpha), seeds_iid)
    mean_iid, se_iid = _mean_se(excess_risk(iid_problem, out_iid.estimates))

    gap = abs(mean_dd - mean_iid)
    tol = 2.0 * math.sqrt(se_dd**2 + se_iid**2)
    res.add(f"|mean_dd - mean_iid| (K={K}, tau={tau})", gap, tol, "measured <= target", gap <= tol)
    return res


# ---------------------------------------------------------------------------
# Criterion 6: sample-complexity lower bound for the AR stream
# ---------------------------------------------------------------------------


def criterion_6(fast: bool = False) -> CriterionResult:
    """Noiseless SGD on the AR chain barely moves before d/(4 eps^2) steps:
    the mean squared distance to the optimum keeps at least 60% of its
    initial value, and the per-step distance identity is exact."""
    res = CriterionResult(6, "lower-bound trace retention", True)
    d, eps, eta = (1000, 0.8, 0.05) if not fast else (200, 0.8, 0.05)
    R = 200 if not fast else 50
    seeds = [_SEEDS[6] + i for i in range(R)]
    t_star = math.ceil(d / (4.0 * eps**2))
    chain = GaussianARSpec(d, eps)
    problem = make_problem(chain, Noiseless(), w_star=np.zeros(d))
    w1 = np.zeros(d)
    w1[0] = 1.0  # gamma_1 = 1

    alphas, gammas, xsq = run_lower_bound_traces(problem, t_star, eta, seeds, w_init=w1)
    retention = float((gammas[t_star - 1] ** 2).mean())  # gamma_t at t = t_star
    res.add(f"mean gamma^2 at t* = {t_star} / gamma_1^2", retention, 0.6, "measured >= target", retention >= 0.6)

    worst = float(LowerBoundTrace(alphas, gammas, xsq, eta).identity_residuals().max())
    res.add("max per-step identity residual", worst, 1e-9, "measured <= target", worst <= 1e-9)
    return res


# ---------------------------------------------------------------------------
# Criterion 7: mixing machinery
# ---------------------------------------------------------------------------


def _kl_path_enumeration(specJ: FiniteChainSpec, specI: FiniteChainSpec, horizon: int) -> float:
    """Brute-force KL between path laws by enumerating every length-T path."""
    piJ = stationary(specJ)
    piI = stationary(specI)
    n = specJ.num_states
    total = 0.0
    for path in itertools.product(range(n), repeat=horizon):
        pJ, pI = piJ[path[0]], piI[path[0]]
        for a, b in zip(path, path[1:]):
            pJ *= specJ.transition[a, b]
            pI *= specI.transition[a, b]
        if pJ > 0.0:
            if pI <= 0.0:
                return math.inf
            total += pJ * math.log(pJ / pI)
    return total


def criterion_7(fast: bool = False) -> CriterionResult:
    """Binary decay of the mixing curve, the exponential two-state bound, and
    exact path-law KL against brute-force enumeration."""
    res = CriterionResult(7, "mixing-time machinery", True)

    # (a) d_mix(l tau) <= 2^-l
    chains = {
        "two-state": make_mc3(2.0, 0.05),
        "clique-4": make_mc0(4, 0.1),
        "signed-clique-3": make_mci(3, 0.1, 0.05, (1, 0, 1)),
    }
    for name, spec in chains.items():
        tau = mixing_time(spec).tau_mix
        curve = total_variation_curve(spec, 5 * tau)
        worst_margin = min(2.0**-l - curve[l * tau - 1] for l in range(1, 6))
        res.add(f"binary mixing on {name} (tau={tau})", worst_margin, 0.0, "measured >= target", worst_margin >= 0.0)

    # (b) two-state curve under the exponential envelope
    spec = make_mc3(2.0, 0.05)
    eps, kappa = 0.05, 2.0
    curve = total_variation_curve(spec, 200)
    t = np.arange(1, 201)
    margin = float((np.exp(-t * eps * kappa) - curve).min())
    res.add("two-state d_mix under exp(-t eps kappa), t <= 200", margin, 0.0, "measured >= target", margin >= 0.0)

    # (c) trajectory KL vs path enumeration
    J = make_mci(3, 0.1, 0.05, (1, 0, 1))
    pairs = [
        ("different bits", J, make_mci(3, 0.1, 0.05, (0, 1, 1))),
        ("different delta", J, make_mci(3, 0.1, 0.1, (1, 0, 1))),
        ("identical", J, make_mci(3, 0.1, 0.05, (1, 0, 1))),
    ]
    worst = 0.0
    for _, specJ, specI in pairs:
        for horizon in (1, 2, 3):
            got = trajectory_kl(specJ, specI, horizon)
            want = _kl_path_enumeration(specJ, specI, horizon)
            worst = max(worst, abs(got - want))
    res.add("trajectory KL vs enumeration (T <= 3)", worst, 1e-10, "measured <= target", worst <= 1e-10)
    return res


# ---------------------------------------------------------------------------
# Criterion 8: spectral facts behind the replay analysis
# ---------------------------------------------------------------------------


def _closed_form_gap(spec: CirculantSpec) -> tuple[np.ndarray, float]:
    """The sorted closed-form spectrum, and its largest gap to the dense solver's."""
    closed = np.sort(circulant_eigs_closed_form(spec))
    dense = np.sort(np.linalg.eigvalsh(circulant_matrix(spec)))
    return closed, float(np.abs(closed - dense).max())


def _gram_gap(d: int, seed: int) -> float:
    """``||M - Z||_F`` of one sampled buffer of 20 AR samples (eps = 0.3)."""
    return gram_spectrum(sample_buffer(GaussianARSpec(d, 0.3), 20, seed), epsilon=0.3).gram_perturbation


def criterion_8(fast: bool = False) -> CriterionResult:
    """Closed-form circulant spectrum (large low-harmonic eigenvalues, solver
    agreement, the trace identity), the perturbation P = Z - C (zero
    diagonal, paired spectrum, the Frobenius bound and its decay in B), and
    Gram-Toeplitz concentration on sampled buffers at rate 1/sqrt(d).  Fast
    mode shrinks only the concentration check at d = 160 000."""
    res = CriterionResult(8, "spectral facts for the replay analysis", True)

    # (a) low odd harmonics stay large; closed form matches the dense solver
    spec = CirculantSpec(1001, 0.2)
    lam = circulant_eigs_closed_form(spec)
    j_max = spec.epsilon * spec.B / (10.0 * math.pi)
    odd_j = [j for j in range(1, int(j_max) + 1, 2)]
    floor_val = float(min(lam[j] for j in odd_j))
    res.add(f"min lambda_j over odd j <= {j_max:.2f}", floor_val, 9.0 / spec.B, "measured >= target", floor_val >= 9.0 / spec.B)

    gap = _closed_form_gap(CirculantSpec(201, 0.2))[1]
    res.add("closed form vs dense solver at B=201", gap, 1e-9, "measured <= target", gap <= 1e-9)

    # the diagonal of C is 1/B, so its eigenvalues sum to 1
    worst = worst_trace = 0.0
    for B, eps in itertools.product((5, 21, 101), (0.1, 0.2, 0.3)):
        closed, gap = _closed_form_gap(CirculantSpec(B, eps))
        worst = max(worst, gap)
        worst_trace = max(worst_trace, abs(float(closed.sum()) - 1.0))
    res.add("closed form vs dense solver, B in {5, 21, 101} x eps in {0.1, 0.2, 0.3}", worst, 1e-9, "measured <= target", worst <= 1e-9)
    res.add("max |sum_j lambda_j - 1| over the same grid", worst_trace, 1e-9, "measured <= target", worst_trace <= 1e-9)

    # (b) P = Z - C: zero diagonal, +/- paired spectrum, Frobenius bound, decay in B
    P = perturbation_matrix(CirculantSpec(201, 0.2))
    diag = float(np.abs(np.diag(P)).max())
    res.add("max |diag(Z-C)| at (B=201, eps=0.2)", diag, 0.0, "measured == target", diag == 0.0)
    eigs = np.sort(np.linalg.eigvalsh(P))
    pairing = float(np.abs(eigs + eigs[::-1]).max())
    res.add("max |lambda_k + lambda_(B+1-k)| of Z-C at (B=201, eps=0.2)", pairing, 1e-8, "measured <= target", pairing <= 1e-8)

    for B, eps in ((201, 0.2), (1001, 0.1)):
        fro_sq, bound = perturbation_norms(CirculantSpec(B, eps))
        res.add(f"||Z-C||_F^2 <= bound at (B={B}, eps={eps})", fro_sq, bound, "measured <= target", fro_sq <= bound)
    series = [perturbation_norms(CirculantSpec(B, 0.2))[0] for B in (101, 201, 401)]
    rise = float(np.diff(series).max())
    res.add("largest rise of ||Z-C||_F^2 over B = 101, 201, 401 (eps=0.2)", rise, 0.0, "measured < target", series[0] > series[1] > series[2])

    # (c) Gram concentration around the Toeplitz model, at rate 1/sqrt(d)
    d, n_seeds = (160000, 20) if not fast else (40000, 5)
    worst = max(_gram_gap(d, seed) for seed in range(n_seeds))
    limit = 10.0 * 20 / math.sqrt(d)
    res.add(f"max ||M-Z||_F over {n_seeds} seeds", worst, limit, "measured <= target", worst <= limit)

    dims = (10**3, 10**4, 10**5)
    norms = [float(np.mean([_gram_gap(d, 100 + s) for s in range(3)])) for d in dims]
    slope = float(np.polyfit(np.log(dims), np.log(norms), 1)[0])
    res.add("log-log slope of mean ||M-Z||_F over d in {1e3, 1e4, 1e5}", slope, -0.5, "-0.65 <= measured <= -0.35", -0.65 <= slope <= -0.35)
    return res


# ---------------------------------------------------------------------------
# Criterion 9: exact structural invariants
# ---------------------------------------------------------------------------


def criterion_9(fast: bool = False) -> CriterionResult:
    """Fixed points, exact bias/variance coupling, sample-index discipline,
    and byte-identical reruns."""
    res = CriterionResult(9, "exact structural invariants", True)
    d = 5
    chain = GaussianARSpec(d, 0.3)
    w_star = np.arange(1.0, d + 1.0)
    w_star /= np.linalg.norm(w_star)
    noiseless = make_problem(chain, Noiseless(), w_star=w_star)
    noisy = make_problem(chain, IndependentGaussian(0.1), w_star=w_star)
    seed = _SEEDS[9]

    # fixed points: every iterate equals w* bitwise
    runs = {
        "sgd": run_sgd(noiseless, 50, SgdConfig(0.4), seed, w_init=w_star),
        "sgd_dd": run_sgd_dd(
            noiseless, 60, DataDropConfig(SgdConfig(0.4), drop_interval=3), seed, w_init=w_star
        ),
        "parallel_sgd": run_parallel_sgd(
            noiseless, 64, ParallelConfig(SgdConfig(0.4), 4), seed, w_init=w_star
        ),
        "sgd_er": run_sgd_er(
            noiseless, 60, ReplayConfig(buffer_size=10, drop_prefix=2), seed, w_init=w_star
        ),
    }
    for name, rr in runs.items():
        exact = bool(np.all(rr.iterates == w_star))
        # the tail mean of n identical iterates rounds; n ulps bounds the drift
        tol = rr.window[1] * np.spacing(w_star)
        est_ok = bool(np.all(np.abs(rr.estimate - w_star) <= tol))
        res.add(f"fixed point: {name}", None, None, "iterates == w* exactly", exact and est_ok)

    # exact affine coupling at every recorded step
    coupled_runs = {
        "sgd": run_sgd(noisy, 400, SgdConfig(0.3), seed + 1, coupled=True),
        "sgd_dd": run_sgd_dd(
            noisy, 400, DataDropConfig(SgdConfig(0.3), drop_interval=4), seed + 2, coupled=True
        ),
        "parallel_sgd": run_parallel_sgd(
            noisy, 400, ParallelConfig(SgdConfig(0.3), 5), seed + 3, coupled=True
        ),
        "sgd_er": run_sgd_er(
            noisy, 400, ReplayConfig(buffer_size=20, drop_prefix=5), seed + 4, coupled=True
        ),
    }
    agnostic = make_problem(make_agnostic_bias_chain(0.25), AgnosticDeterministic())
    coupled_runs["sgd-agnostic"] = run_sgd(agnostic, 400, SgdConfig(0.2), seed + 5, coupled=True)
    for name, rr in coupled_runs.items():
        res.add(f"coupling identity: {name}", float(rr.coupled.identity_residuals().max()), None, "<= 1e-9 (1+|w|)", rr.coupled.check_identity(1e-9))

    # index discipline
    K = 4
    rr = run_sgd_dd(noisy, 100, DataDropConfig(SgdConfig(0.3), drop_interval=K), seed + 6, record_reads=True)
    ok_dd = bool(np.all(rr.sample_reads % K == 0)) and bool(np.all(np.diff(rr.sample_reads) == K))
    res.add("index discipline: data drop reads only multiples of K", None, None, "indices == 0 mod K", ok_dd)

    rr = run_parallel_sgd(noisy, 96, ParallelConfig(SgdConfig(0.3), K), seed + 7, record_reads=True)
    reads = rr.sample_reads
    ok_par = all(np.all(reads[:, i] % K == (i + 1) % K) for i in range(K))
    res.add("index discipline: parallel instance i reads i mod K", None, None, "per-instance congruence", ok_par)

    B, u = 8, 3
    S = B + u
    rr = run_sgd_er(noisy, 5 * S, ReplayConfig(buffer_size=B, drop_prefix=u), seed + 8, record_reads=True)
    reads = rr.sample_reads.reshape(-1, B)
    lo = (np.arange(reads.shape[0]) * S + u)[:, None]
    ok_er = bool(np.all((reads > lo) & (reads <= lo + B)))
    res.add("index discipline: replay reads stay in the retained pool", None, None, "(Sj+u, Sj+S] bounds", ok_er)

    # determinism: byte-identical CSV across reruns of one config
    doc = {
        "chain": {"kind": "gaussian_ar", "dim": 3, "epsilon": 0.2},
        "noise": {"kind": "independent_gaussian", "sigma": 0.05},
        "w_star": [0.3, -0.2, 0.1],
        "algorithm": {"name": "sgd", "step_size": 0.3},
        "T": 500,
        "num_runs": 3,
        "seed": seed + 9,
        "name": "determinism",
    }
    tmp = tempfile.mkdtemp(prefix="accept9-")
    try:
        blobs = []
        for attempt in ("a", "b"):
            out = dict(doc, output=os.path.join(tmp, attempt))
            summary = run_experiment(ExperimentConfig.from_json(out))[0]
            with open(summary.csv_path, "rb") as fh:
                blobs.append(fh.read())
        res.add("determinism: repeated seed gives byte-identical CSV", None, None, "bytes equal", blobs[0] == blobs[1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return res


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}

SUITES = {
    "bias": (1, 6, 9),
    "variance": (4, 5),
    "replay": (2, 3),
    "spectra": (8,),
    "mixing": (7,),
    "all": tuple(range(1, 10)),
}


def run_criterion(number: int, fast: bool = False) -> CriterionResult:
    fn = _CRITERIA.get(number)
    if fn is None:
        raise ValueError(f"unknown criterion {number}; valid: 1..9")
    t0 = time.perf_counter()
    result = fn(fast=fast)
    result.wall_time = time.perf_counter() - t0
    return result


def run_suite(suite: str, fast: bool = False) -> dict:
    """Run a named suite; returns the machine-readable PASS/FAIL report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; valid: {sorted(SUITES)}")
    results = [run_criterion(n, fast=fast) for n in SUITES[suite]]
    return {
        "suite": suite,
        "fast": fast,
        "passed": all(r.passed for r in results),
        "criteria": [r.to_json() for r in results],
    }
