"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
as they complete. Every tolerance is fixed here; nothing is calibrated at
runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fairselect.core import constraints_from_alpha, violation_report
from fairselect.datagen import GeneratorSpec, KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY, gen_disparate_error
from fairselect.experiment import ExperimentConfig, run_experiment, write_results
from fairselect.lp import SolveStatus, build_denoised_lp, solve_bfs
from fairselect.selectors import blind, dependent_round, fair_expec, impute_bayes, mult_obj
from fairselect.seeding import make_rng, seed_sequence

from conftest import anchored_constraints, fact_one_constraints, fact_one_instance, mean_of, random_instance
from oracle import brute_force_target, concentration_trial, is_denoised_feasible


@contextmanager
def criterion(num: int, desc: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\n[ACCEPTANCE {num}] FAIL: {desc}")
        raise
    print(f"\n[ACCEPTANCE {num}] PASS ({time.time() - start:.1f}s): {desc}")


def test_acceptance_1_bfs_fractional_bound():
    desc = ("every optimal vertex of 1000 random relaxations has at most "
            "min(m, 1 + sum(p_k - 1)) fractional entries; tight family hits p exactly")
    with criterion(1, desc):
        start = time.time()
        rng = np.random.default_rng(20240501)
        for _ in range(1000):
            s = int(rng.integers(1, 4))
            p = [int(rng.integers(2, 6)) for _ in range(s)]
            m = int(rng.integers(10, 201))
            n = int(rng.integers(1, m))
            inst = random_instance(rng, m=m, n=n, s=s, p=p)
            cs = anchored_constraints(rng, inst)
            sol = solve_bfs(build_denoised_lp(inst, cs))
            assert sol.status is SolveStatus.OPTIMAL
            bound = min(m, 1 + sum(pk - 1 for pk in p))
            assert len(sol.fractional_indices) <= bound
        for p in range(2, 7):
            sol = solve_bfs(build_denoised_lp(fact_one_instance(p), fact_one_constraints(p)))
            assert len(sol.fractional_indices) == p
        assert time.time() - start < 60.0


def test_acceptance_2_violation_bounds():
    desc = ("2000 seeded trials, n=100, delta=0.1, p=2: ceiling-rounded output "
            "has cardinality <= n+p always and true violations > p+2*delta*n "
            "in at most the concentration-bound fraction of trials")
    with criterion(2, desc):
        start = time.time()
        n, delta, p, trials = 100, 0.1, 2, 2000
        cs = constraints_from_alpha(n, [0.5, 0.5], alpha=1.0, delta=delta)
        threshold = p + 2 * delta * n
        bad = 0
        for trial in range(trials):
            spec = GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=500, n=n,
                                 seed=seed_sequence(777, trial))
            inst = gen_disparate_error(spec)
            sel = fair_expec(inst, cs)
            assert n <= sel.cardinality <= n + p
            rep = violation_report(sel.chosen, inst, cs, attrs="true")
            if rep.max_violation > threshold:
                bad += 1
        bound = min(1.0, 4 * p * np.exp(-delta ** 2 * n / 3.0))
        sem = np.sqrt(bound * (1 - bound) / trials)
        frac = bad / trials
        assert frac <= bound + 3 * sem
        elapsed = time.time() - start
        assert elapsed < 300.0
        print(f"  violation fraction {frac:.4f} vs bound {bound + 3 * sem:.4f}", end="")


def test_acceptance_3_oracle_dominance():
    desc = ("500 small instances: whenever the true-attribute optimum is "
            "feasible for the expected-count program, the rounded LP output "
            "has at least that utility, zero exceptions")
    with criterion(3, desc):
        rng = np.random.default_rng(31337)
        checked = 0
        for _ in range(500):
            m = int(rng.integers(6, 13))
            n = int(rng.integers(1, min(m, 7)))
            inst = random_instance(rng, m=m, n=n, s=1,
                                   p=[int(rng.integers(2, 5))], with_true=True)
            cs = anchored_constraints(rng, inst, spread=0.4,
                                      delta=float(rng.uniform(0.05, 0.4)))
            target = brute_force_target(inst, cs)
            if not target.feasible:
                continue
            x_star = np.zeros(m)
            x_star[list(target.best_subset)] = 1.0
            if not is_denoised_feasible(x_star, inst, cs):
                continue
            sel = fair_expec(inst, cs)
            assert sel.total_utility >= target.best_utility - 1e-9
            checked += 1
        assert checked >= 100
        print(f"  dominance verified on {checked} feasible instances", end="")


def test_acceptance_4_concentration():
    desc = ("20 random (x, q, delta) configurations at n in {50,100,200}: the "
            "empirical violation frequency never exceeds 2p*exp(-delta^2 n/3) "
            "plus 3-sigma Monte-Carlo slack (1e4 trials each)")
    with criterion(4, desc):
        start = time.time()
        rng = np.random.default_rng(8899)
        trials = 10_000
        for case in range(20):
            n = int(rng.choice([50, 100, 200]))
            m = 2 * n
            p = int(rng.integers(2, 4))
            q = rng.dirichlet(np.ones(p) * rng.uniform(0.5, 2.0), size=m)
            x = rng.random(m)
            x *= n / x.sum()
            while np.any(x > 1.0):
                over = x > 1.0
                excess = float((x[over] - 1.0).sum())
                x[over] = 1.0
                free = ~over
                x[free] += excess * x[free] / x[free].sum()
            delta = float(rng.uniform(0.1, 0.5))
            freq = concentration_trial(x, q, delta, trials, seed=seed_sequence(5150, case))
            bound = min(1.0, 2 * p * np.exp(-delta ** 2 * n / 3.0))
            slack = 3.0 * np.sqrt(bound * (1 - bound) / trials)
            assert freq <= bound + slack, (case, freq, bound, slack)
        assert time.time() - start < 120.0


def test_acceptance_5_disparate_error_reproduction():
    desc = ("m=500, n=100, 500 trials: all algorithms near 0.81 risk difference "
            "unconstrained; tightest constraints push the noise-aware route "
            "above 0.90 and the imputation baselines below 0.75")
    with criterion(5, desc):
        start = time.time()
        gen = GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=500, n=100, seed=0)
        cfg = ExperimentConfig(
            generator=gen, sweep_kind="alpha_grid", grid=(0.0, 1.0),
            algorithms=("Blind", "FairExpec", "FairExpecGrp", "Thrsh"),
            trials=500, n=100, m=500, target="EqualRepresentation",
            delta=0.01, seed=20240502)
        table = run_experiment(cfg)
        cfg_mo = ExperimentConfig(
            generator=gen, sweep_kind="lambda_grid", grid=(0.0, 2500.0),
            algorithms=("MultObj",), trials=500, n=100, m=500,
            target="EqualRepresentation", delta=0.01, seed=20240503)
        table_mo = run_experiment(cfg_mo)

        at0 = {alg: mean_of(table, 0.0, alg, "risk_difference") for alg in cfg.algorithms}
        at0["MultObj"] = mean_of(table_mo, 0.0, "MultObj", "risk_difference")
        for alg, value in at0.items():
            assert abs(value - 0.81) <= 0.05, (alg, value)
        fe1 = mean_of(table, 1.0, "FairExpec", "risk_difference")
        th1 = mean_of(table, 1.0, "Thrsh", "risk_difference")
        mo1 = mean_of(table_mo, 2500.0, "MultObj", "risk_difference")
        assert fe1 >= 0.90, fe1
        assert th1 <= 0.75, th1
        assert mo1 <= 0.75, mo1
        elapsed = time.time() - start
        assert elapsed < 600.0
        print(f"  F(alpha=0)~{np.mean(list(at0.values())):.3f}, "
              f"F_FairExpec(1)={fe1:.3f}, F_Thrsh(1)={th1:.3f}, "
              f"F_MultObj(2500)={mo1:.3f}", end="")


def test_acceptance_6_flip_noise_ordering():
    desc = ("surrogate disparate-utility sweep over tau: for tau >= 0.3 the "
            "noise-aware route is at least as fair as both the group-level "
            "variant and the imputation baseline (200 trials)")
    with criterion(6, desc):
        start = time.time()
        cfg = ExperimentConfig(
            generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=1000, n=100, seed=0),
            sweep_kind="tau_grid", grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
            algorithms=("FairExpec", "FairExpecGrp", "Thrsh"),
            trials=200, n=100, m=1000, target="Proportional",
            delta=0.01, seed=20240504, alpha=1.0, lambda_=500.0)
        table = run_experiment(cfg)
        for tau in (0.3, 0.4, 0.5):
            fe = mean_of(table, tau, "FairExpec", "risk_difference")
            grp = mean_of(table, tau, "FairExpecGrp", "risk_difference")
            th = mean_of(table, tau, "Thrsh", "risk_difference")
            assert fe >= grp, (tau, fe, grp)
            assert fe >= th, (tau, fe, th)
        elapsed = time.time() - start
        assert elapsed < 600.0
        curve = {tau: round(mean_of(table, tau, "FairExpec", "risk_difference"), 3)
                 for tau in cfg.grid}
        print(f"  FairExpec curve {curve}", end="")


def test_acceptance_7_exact_identities():
    desc = ("alpha=0 utility equals blind on 100 instances; lambda=0 returns "
            "the blind indicator; tau=0 leaves labels untouched; dependent "
            "rounding marginals sit inside 3-sigma binomial bands")
    with criterion(7, desc):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            inst = random_instance(rng, s=1, p=[2])
            cs = constraints_from_alpha(inst.n, [0.5, 0.5], alpha=0.0, delta=0.1)
            assert fair_expec(inst, cs).total_utility == blind(inst).total_utility

        for _ in range(20):
            inst = random_instance(rng, s=1, p=[2])
            imputed = impute_bayes(inst.noise[0], seed=seed_sequence(0, 17))
            assert np.array_equal(mult_obj(inst, (0.5, 0.5), 0.0, imputed),
                                  blind(inst).chosen.astype(float))

        from fairselect.datagen import gen_disparate_utility, inject_flip_noise
        spec = GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=5000, n=100, seed=1)
        inst = gen_disparate_utility(spec)
        assert np.array_equal(inject_flip_noise(inst, 0.0, seed=2).noisy_attrs,
                              inst.true_attrs)

        m, n, trials = 10, 4, 10_000
        x = make_rng(31).random(m)
        x *= n / x.sum()
        while np.any(x > 1.0):
            over = x > 1.0
            excess = float((x[over] - 1.0).sum())
            x[over] = 1.0
            x[~over] += excess * x[~over] / x[~over].sum()
        hits = np.zeros(m)
        for i in range(trials):
            sel = dependent_round(x, n, seed_sequence(616, i), np.ones(m))
            assert sel.cardinality == n
            hits += sel.chosen
        sigma = np.sqrt(x * (1 - x) / trials)
        assert np.all(np.abs(hits / trials - x) <= 3 * sigma + 1e-12)


def test_acceptance_8_determinism(tmp_path):
    desc = ("the same experiment config and seed produce byte-identical CSV "
            "across repeated runs and across worker counts")
    with criterion(8, desc):
        cfg = ExperimentConfig(
            generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=80, n=15, seed=0),
            sweep_kind="alpha_grid", grid=(0.0, 0.5, 1.0),
            algorithms=("Blind", "FairExpec", "FairExpecGrp", "Thrsh", "MultObj"),
            trials=5, n=15, m=80, target="EqualRepresentation",
            delta=0.05, seed=20240505)
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        write_results(run_experiment(cfg, workers=1), paths[0])
        write_results(run_experiment(cfg, workers=1), paths[1])
        write_results(run_experiment(cfg, workers=2), paths[2])
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        assert len(blobs[0]) > 100
