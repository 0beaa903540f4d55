import numpy as np
import pytest

from fairselect.core import Instance, make_constraints
from fairselect.lp import SolveStatus, build_denoised_lp, solve_bfs
from fairselect.selectors import blind

from conftest import anchored_constraints, fact_one_constraints, fact_one_instance, random_instance
from oracle import (brute_force_denoised, brute_force_target, concentration_trial,
                    is_denoised_feasible)


def test_target_tiny(tiny, tiny_constraints):
    res = brute_force_target(tiny, tiny_constraints)
    assert res.best_subset == (0, 3)
    assert res.best_utility == pytest.approx(3.5)


def test_target_unconstrained_matches_blind(tiny):
    cs = make_constraints([np.zeros(2)], [np.full(2, 2.0)], delta=0.0, n=2)
    res = brute_force_target(tiny, cs)
    assert res.best_utility == pytest.approx(blind(tiny).total_utility)


def test_target_infeasible(tiny):
    cs = make_constraints([np.zeros(2)], [np.zeros(2)], delta=0.0, n=2)
    res = brute_force_target(tiny, cs)
    assert not res.feasible
    assert res.feasible_count == 0


def test_target_requires_true_attrs():
    inst = fact_one_instance(2)
    with pytest.raises(ValueError):
        brute_force_target(inst, fact_one_constraints(2))


def test_denoised_tiny(tiny, tiny_constraints):
    res = brute_force_denoised(tiny, tiny_constraints)
    assert res.best_subset == (0, 3)
    assert res.best_utility == pytest.approx(3.5)
    assert res.feasible_count == 3


def test_denoised_large_delta_everything_feasible(tiny):
    # slack delta*n = 1.98 exceeds every expected count even under U = 0
    cs = make_constraints([np.zeros(2)], [np.zeros(2)], delta=0.99, n=2)
    res = brute_force_denoised(tiny, cs)
    assert res.feasible_count == 6
    assert res.best_utility == pytest.approx(5.5)


def test_denoised_fact_one_integral_gap():
    # the integral optimum is {0, 1} with value 2, strictly below the
    # relaxation's vertex value of 3
    inst = fact_one_instance(2)
    cs = fact_one_constraints(2)
    res = brute_force_denoised(inst, cs)
    assert res.best_subset == (0, 1)
    assert res.best_utility == pytest.approx(2.0)
    lp_value = inst.utilities @ solve_bfs(build_denoised_lp(inst, cs)).x
    assert lp_value == pytest.approx(3.0)
    assert res.best_utility < lp_value


def test_enumeration_cap():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, m=60, n=25, s=1, with_true=True)
    with pytest.raises(ValueError):
        brute_force_target(inst, anchored_constraints(rng, inst))


def test_value_chain_lp_dominates_oracles():
    # LP value >= integral denoised optimum >= target optimum whenever the
    # target optimum is feasible for the expected-count program
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(80):
        inst = random_instance(rng, m=int(rng.integers(6, 12)), s=1, with_true=True)
        inst = Instance(n=min(inst.n, 6), p=inst.p,
                        utilities=inst.utilities, noise=inst.noise,
                        true_attrs=inst.true_attrs)
        cs = anchored_constraints(rng, inst, delta=float(rng.uniform(0.05, 0.4)))
        lp_sol = solve_bfs(build_denoised_lp(inst, cs))
        den = brute_force_denoised(inst, cs)
        tgt = brute_force_target(inst, cs)
        if den.feasible:
            assert lp_sol.status is SolveStatus.OPTIMAL
            assert inst.utilities @ lp_sol.x >= den.best_utility - 1e-9
        if tgt.feasible:
            x_star = np.zeros(inst.m)
            x_star[list(tgt.best_subset)] = 1.0
            if is_denoised_feasible(x_star, inst, cs):
                assert den.feasible
                assert den.best_utility >= tgt.best_utility - 1e-9
                checked += 1
    assert checked > 10


def test_concentration_delta_one_never_violates():
    rng = np.random.default_rng(1)
    q = rng.dirichlet([1, 1], 50)
    x = np.zeros(50)
    x[:10] = 1.0
    assert concentration_trial(x, q, delta=1.0, trials=2000, seed=3) == 0.0


def test_concentration_uniform_under_bound():
    q = np.full((100, 2), 0.5)
    x = np.ones(100)
    freq = concentration_trial(x, q, delta=0.3, trials=10000, seed=5)
    assert freq <= 4 * np.exp(-3.0)  # 2p * exp(-delta^2 n / 3) with p=2, n=100


def test_concentration_deterministic_rows():
    q = np.zeros((40, 2))
    q[:20, 0] = 1.0
    q[20:, 1] = 1.0
    x = np.zeros(40)
    x[:10] = 1.0
    x[20:25] = 1.0
    assert concentration_trial(x, q, delta=0.05, trials=2000, seed=7) == 0.0


def test_concentration_matches_direct_simulation():
    rng = np.random.default_rng(11)
    m, n = 30, 10
    q = rng.dirichlet([1, 1], m)
    x = np.zeros(m)
    x[rng.choice(m, n, replace=False)] = 1.0
    delta = 0.12
    freq = concentration_trial(x, q, delta=delta, trials=4000, seed=13)
    # direct re-simulation with a different seed should land nearby
    expected = q.T @ x
    hits = 0
    sim = np.random.default_rng(999)
    for _ in range(4000):
        z = (sim.random(m) > q[:, 0]).astype(int)
        counts = np.array([x[z == 0].sum(), x[z == 1].sum()])
        hits += int(np.any(np.abs(counts - expected) > n * delta))
    assert abs(freq - hits / 4000) < 0.05
