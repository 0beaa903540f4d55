import numpy as np
import pytest

from fairselect.core import Instance, make_constraints


@pytest.fixture
def tiny() -> Instance:
    """Four items, two groups: items 0-2 lean group 0, item 3 leans group 1."""
    return Instance(
        n=2, p=(2,),
        utilities=[3.0, 2.5, 1.0, 0.5],
        noise=([[0.9, 0.1], [0.95, 0.05], [0.8, 0.2], [0.1, 0.9]],),
        true_attrs=[[0], [0], [0], [1]],
    )


@pytest.fixture
def tiny_constraints():
    return make_constraints([np.zeros(2)], [np.ones(2)], delta=0.1, n=2)


def mean_of(table, grid: float, algorithm: str, metric: str):
    """The mean of one (grid, algorithm, metric) row of a ResultTable."""
    for row in table.rows:
        if (row.grid, row.algorithm, row.metric) == (grid, algorithm, metric):
            return row.mean
    raise KeyError((grid, algorithm, metric))


def fact_one_instance(p: int) -> Instance:
    """p+1 items: p unit-vector rows worth 1 each, one uniform row worth 2.

    The relaxation's unique optimum is (1-1/p, ..., 1-1/p, 1) with exactly
    p fractional entries.
    """
    rows = np.vstack([np.eye(p), np.full(p, 1.0 / p)])
    return Instance(n=p, p=(p,),
                    utilities=[1.0] * p + [2.0], noise=(rows,))


def fact_one_constraints(p: int):
    return make_constraints([np.zeros(p)], [np.ones(p)], delta=0.0, n=p)


def random_instance(rng: np.random.Generator, m=None, n=None, s=None, p=None,
                    with_true=False) -> Instance:
    """Random utilities and dirichlet noise rows; optional sampled attributes."""
    if s is None:
        s = int(rng.integers(1, 4))
    if p is None:
        p = [int(rng.integers(2, 6)) for _ in range(s)]
    if m is None:
        m = int(rng.integers(6, 80))
    if n is None:
        n = int(rng.integers(1, max(2, m // 2)))
    noise = tuple(rng.dirichlet(np.ones(pk) * rng.uniform(0.3, 3.0), size=m)
                  for pk in p)
    true_attrs = None
    if with_true:
        cols = []
        for k in range(s):
            u = rng.random(m)
            cum = np.cumsum(noise[k], axis=1)
            cols.append((u[:, None] > cum).sum(axis=1))
        true_attrs = np.column_stack(cols)
    return Instance(n=n, p=tuple(p), utilities=rng.random(m),
                    noise=noise, true_attrs=true_attrs)


def anchored_constraints(rng: np.random.Generator, inst: Instance,
                         spread: float = 0.2, delta=None):
    """Bounds centered on a random size-n subset's counts, so both the
    target program and its relaxation stay feasible."""
    anchor = np.zeros(inst.m)
    anchor[rng.choice(inst.m, inst.n, replace=False)] = 1.0
    lowers, uppers = [], []
    for k in range(inst.s):
        if inst.true_attrs is not None:
            counts = np.bincount(inst.true_attrs[anchor > 0, k],
                                 minlength=inst.p[k]).astype(float)
        else:
            counts = inst.noise[k].T @ anchor
        margin = rng.uniform(0.0, spread * inst.n, size=inst.p[k])
        lowers.append(np.maximum(0.0, counts - margin))
        uppers.append(np.minimum(float(inst.n), counts + margin))
    if delta is None:
        delta = float(rng.uniform(0.0, 0.3))
    return make_constraints(lowers, uppers, delta=delta, n=inst.n)
