"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import zlib

import numpy as np
import pytest

import diffgames as dg

from conftest import (CATALOG_DEFAULTS, fd_cos2_derivative,
                      random_antisymmetric, random_orthogonal,
                      random_symmetric, rel_err)


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {num:02d} {description}: FAIL")
                raise
            print(f"acceptance {num:02d} {description}: PASS")
            return result
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def fig4_cells():
    return dg.run_preset("fig4")


@pytest.fixture(scope="module")
def fig7_cells():
    return dg.run_preset("fig7")


@criterion(1, "decomposition exactness and equivariance")
def test_c01_decomposition_exactness():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = int(rng.integers(2, 65))
        h = rng.standard_normal((d, d))
        dec = dg.helmholtz_split(h)
        scale = max(1.0, float(np.max(np.abs(h))))
        assert np.max(np.abs(dec.symmetric + dec.antisymmetric - h)) \
            <= 1e-14 * scale
        assert np.max(np.abs(dec.symmetric - dec.symmetric.T)) <= 1e-14 * scale
        assert np.max(np.abs(dec.antisymmetric + dec.antisymmetric.T)) \
            <= 1e-14 * scale
        p = random_orthogonal(rng, d)
        rotated = dg.helmholtz_split(p.T @ h @ p)
        assert np.max(np.abs(rotated.symmetric - p.T @ dec.symmetric @ p)) \
            <= 1e-10
        assert np.max(np.abs(rotated.antisymmetric
                             - p.T @ dec.antisymmetric @ p)) <= 1e-10


@criterion(2, "conservation in rotation-only games")
def test_c02_conservation():
    rng = np.random.default_rng(102)
    games = [
        dg.catalog_game("example1", payoff=[[1.0]]),
        dg.catalog_game("example1", payoff=np.eye(2)),
        dg.catalog_game("example1", payoff=rng.standard_normal((2, 3))),
        dg.catalog_game("example1", payoff=rng.standard_normal((3, 3))),
        dg.catalog_game("example3"),
    ]
    for game in games:
        for _ in range(1000):
            w = rng.uniform(-5, 5, size=game.dim)
            xi = dg.simultaneous_gradient(game, w)
            gh = dg.grad_hamiltonian(game, w)
            bound = 1e-10 * np.linalg.norm(xi) * np.linalg.norm(gh)
            assert abs(float(xi @ gh)) <= max(bound, 1e-300)

    # plain simultaneous descent preserves |xi| to within 1% over 100 small
    # steps, while descent on the squared field drives w to the equilibrium
    game = dg.catalog_game("example1", payoff=np.eye(2))
    w0 = rng.standard_normal(4)
    w0 /= np.linalg.norm(w0)
    stop = dg.StopCriteria(max_iters=100, loss_threshold=0.0)
    traj = dg.run(dg.AdjusterSpec("simgd"), game, w0, 1e-3, stop)
    assert traj.outcome == dg.MAX_ITERS
    drift = np.abs(traj.xi_norms - traj.xi_norms[0])
    assert np.max(drift) <= 0.01 * traj.xi_norms[0]

    stop = dg.StopCriteria(max_iters=5000, loss_threshold=0.0,
                           xi_threshold=1e-3)
    traj = dg.run(dg.AdjusterSpec("hamiltonian-descent"), game, w0, 0.1, stop)
    assert traj.outcome == dg.CONVERGED
    assert np.linalg.norm(traj.final_point) < 1e-3


@criterion(3, "adjusted field stays uphill within the weight window")
def test_c03_weight_window():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        sym = random_symmetric(rng, d, 0.0, 2.0)
        anti = random_antisymmetric(rng, d)
        xi = rng.standard_normal(d)
        eigs = np.linalg.eigvalsh(sym)
        kappa = float(eigs[-1] - eigs[0])
        lam = rng.uniform(0.0, 4.0 / kappa) if kappa > 1e-12 else \
            rng.uniform(0.0, 10.0)
        grad_h = (sym + anti).T @ xi
        assert (xi + lam * (anti.T @ xi)) @ grad_h >= -1e-9
        # mirrored negative-semidefinite case with the opposite weight
        grad_h_neg = (-sym + anti).T @ xi
        assert (xi - lam * (anti.T @ xi)) @ grad_h_neg <= 1e-9
    # isotropic symmetric part commutes with everything: any weight works
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        sigma = rng.uniform(0.05, 3.0)
        anti = random_antisymmetric(rng, d)
        xi = rng.standard_normal(d)
        grad_h = (sigma * np.eye(d) + anti).T @ xi
        for lam in (0.1, 1.0, 10.0):
            assert (xi + lam * (anti.T @ xi)) @ grad_h >= -1e-12


@criterion(4, "definiteness probe and alignment sign law")
def test_c04_probe_and_alignment():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        definite = 1 if rng.random() < 0.5 else -1
        sym = definite * random_symmetric(rng, d, 0.1, 2.0)
        anti = random_antisymmetric(rng, d)
        xi = rng.standard_normal(d)
        grad_h = (sym + anti).T @ xi
        probe = float(xi @ grad_h)
        assert np.sign(probe) == definite
        # the sign of the infinitesimal alignment of the adjusted field
        # equals the sign of the product of the two dot products
        at_xi = anti.T @ xi
        product = probe * float(at_xi @ grad_h)
        if abs(product) > 1e-12 and np.linalg.norm(grad_h) > 1e-9:
            align = dg.infinitesimal_alignment(xi, at_xi, grad_h)
            assert np.sign(align) == np.sign(product)

    checked = 0
    while checked < 1000:
        d = int(rng.integers(2, 9))
        u, v, w = (rng.standard_normal(d) for _ in range(3))
        closed = dg.infinitesimal_alignment(u, v, w)
        if abs(closed) < 1e-6:
            continue
        assert abs(closed - fd_cos2_derivative(u, v, w)) <= 1e-4 * abs(closed)
        checked += 1


@criterion(5, "consensus on the shared concave quadratic")
def test_c05_consensus_reproduction():
    game = dg.catalog_game("example5", kappa=10.0)

    stop = dg.StopCriteria(max_iters=1000, loss_threshold=0.0,
                           xi_threshold=1e-3)
    traj = dg.run(dg.AdjusterSpec("consensus", lam=0.5), game, [1.0, 1.0],
                  0.01, stop)
    assert traj.outcome == dg.CONVERGED
    assert np.linalg.norm(traj.final_point) < 1e-4  # the shared maximum

    stop = dg.StopCriteria(max_iters=100, loss_threshold=0.0)
    traj = dg.run(dg.AdjusterSpec("consensus", lam=0.05), game, [1.0, 1.0],
                  0.01, stop)
    norms = np.linalg.norm(traj.points, axis=1)
    assert np.all(np.diff(norms) > 0)  # monotone escape below 1/kappa

    stop = dg.StopCriteria(max_iters=1, loss_window=1, loss_threshold=0.0,
                           divergence_norm=np.inf)
    traj = dg.run(dg.AdjusterSpec("aligned-consensus", lam=1.0), game,
                  [1.0, 1.0], 0.01, stop)
    assert np.linalg.norm(traj.points[1]) > np.linalg.norm([1.0, 1.0])


@criterion(6, "weak repellor: fixed weight attracts, aligned weight escapes")
def test_c06_repellor_reproduction():
    game = dg.catalog_game("example6", epsilon=0.1)

    stop = dg.StopCriteria(max_iters=10000, loss_threshold=0.0,
                           xi_threshold=np.sqrt(1.01) * 1e-3)
    traj = dg.run(dg.AdjusterSpec("sga", lam=1.0), game, [2.0, 0.0], 0.01, stop)
    assert traj.outcome == dg.CONVERGED
    assert np.linalg.norm(traj.final_point) < 1e-3  # the unstable point

    w = [2.0, 0.0]
    xi = dg.simultaneous_gradient(game, w)
    adj = dg.sym_adjustment(game, w)
    gh = dg.grad_hamiltonian(game, w)
    assert dg.alignment_sign(xi, adj, gh, epsilon=0.1) == -1.0

    stop = dg.StopCriteria(max_iters=100, loss_threshold=0.0)
    traj = dg.run(dg.AdjusterSpec("sga-aligned", lam=1.0, epsilon=0.1), game,
                  w, 0.01, stop)
    norms = np.linalg.norm(traj.points, axis=1)
    assert norms.size >= 101
    assert np.all(np.diff(norms) > 0)


@criterion(7, "stability versus local Nash")
def test_c07_stability_vs_nash():
    report = dg.classify_fixed_point(dg.catalog_game("example7"), [0.0, 0.0])
    assert report.stability == dg.INDEFINITE
    assert report.is_local_nash is True
    dec = dg.helmholtz_split(dg.catalog_game("example7").hessian_matrix)
    assert np.max(np.abs(dec.s_eigenvalues - np.array([3.0, -1.0]))) <= 1e-12

    # in the two-player zero-sum bilinear game every local Nash point found
    # on a grid scan is also a stable fixed point
    game = dg.catalog_game("fig4_bilinear")
    grid = np.linspace(-1.0, 1.0, 21)
    found = 0
    for x in grid:
        for y in grid:
            w = np.array([x, y])
            if np.linalg.norm(dg.simultaneous_gradient(game, w)) > 1e-12:
                continue
            rep = dg.classify_fixed_point(game, w)
            found += 1
            if rep.is_local_nash:
                assert rep.stability == dg.STABLE
    assert found >= 1


@criterion(8, "weak-attractor learning-rate regimes, exactly")
def test_c08_weak_attractor_regimes():
    game = dg.catalog_game("fig3_weak_attractor")
    simgd = dg.AdjusterSpec("simgd")
    rho = {eta: dg.spectral_oracle(simgd, game, eta).spectral_radius
           for eta in (0.01, 0.032, 0.1)}
    assert rho[0.01] < 1 < rho[0.032] < rho[0.1]
    assert abs(rho[0.01] - 0.9950) <= 1e-3
    assert abs(rho[0.032] - 1.0197) <= 1e-3
    assert abs(rho[0.1] - 1.3454) <= 1e-3

    stop = dg.StopCriteria(max_iters=10000)
    outcomes = {eta: dg.run(simgd, game, [0.5, 0.5], eta, stop)
                for eta in (0.01, 0.032, 0.1)}
    assert outcomes[0.01].outcome == dg.CONVERGED
    assert outcomes[0.032].outcome == dg.DIVERGED
    assert outcomes[0.1].outcome == dg.DIVERGED
    # iteration count to push |w| past the divergence norm separates the
    # slow and fast divergent regimes
    assert outcomes[0.1].outcome_iteration < outcomes[0.032].outcome_iteration

    sga = dg.AdjusterSpec("sga", lam=0.1)
    assert abs(dg.spectral_oracle(sga, game, 0.1).spectral_radius - 0.906) \
        <= 1e-3
    for eta in (0.01, 0.032, 0.1):
        assert dg.run(sga, game, [0.5, 0.5], eta, stop).outcome == dg.CONVERGED

    # with unit weight the adjusted iteration is exactly 1 - 101 eta, which
    # already diverges at the middle learning rate
    sga_unit = dg.AdjusterSpec("sga", lam=1.0)
    pred = dg.spectral_oracle(sga_unit, game, 0.032)
    assert pred.spectral_radius == pytest.approx(abs(1 - 101 * 0.032))
    assert not pred.predicts_convergence
    assert dg.run(sga_unit, game, [0.5, 0.5], 0.032, stop).outcome == dg.DIVERGED


@criterion(9, "bilinear sweep: adjusted rule window and extrapolated rule")
def test_c09_bilinear_sweep(fig4_cells):
    sga = {c.eta: c for c in fig4_cells if c.adjuster == "sga"}
    omd = {c.eta: c for c in fig4_cells if c.adjuster == "omd"}
    assert len(sga) == 50 and len(omd) == 50

    for eta, cell in sga.items():
        # oracle threshold is exactly eta < 1
        assert (cell.spectral_radius < 1.0) == (eta < 1.0)
        if 0.05 <= eta <= 0.9:
            assert cell.outcome == "converged", eta
        if eta >= 1.05:
            assert cell.outcome != "converged", eta

    conv_sga = {eta for eta, c in sga.items() if c.outcome == "converged"}
    conv_omd = {eta for eta, c in omd.items() if c.outcome == "converged"}
    assert conv_omd  # nonempty
    assert conv_omd < conv_sga  # strict subset
    for eta in conv_omd:
        # companion-matrix oracle is the ground truth for this rule
        assert omd[eta].spectral_radius < 1.0
        assert 0.1 <= eta <= 1.3
    for eta, cell in omd.items():
        if cell.spectral_radius > 1.001:
            assert cell.outcome != "converged", eta


@criterion(10, "four-player sweep: extrapolated rule trails and blows up")
def test_c10_four_player_sweep(fig7_cells):
    for game_eps in ({c.game for c in fig7_cells}):
        assert game_eps == "fig7_four_player"
    # cells come in two blocks of 40 (one per damping level), each block
    # 2 adjusters x 20 etas in configured order
    assert len(fig7_cells) == 80
    for block in (fig7_cells[:40], fig7_cells[40:]):
        sga = {round(c.eta, 6): c for c in block if c.adjuster == "sga"}
        omd = {round(c.eta, 6): c for c in block if c.adjuster == "omd"}
        assert len(sga) == 20 and len(omd) == 20
        for eta, cell in omd.items():
            assert cell.spectral_radius is not None  # 8x8 companion oracle
            if eta > 0.25:
                assert cell.spectral_radius > 1.0
                assert cell.outcome == "diverged", eta
        both = [eta for eta in sga
                if sga[eta].outcome == "converged"
                and omd[eta].outcome == "converged"]
        assert both
        for eta in both:
            assert sga[eta].iters <= omd[eta].iters, eta


@criterion(11, "descent inequality and unit-ball stepping")
def test_c11_descent_and_unit_ball():
    rng = np.random.default_rng(111)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        m = random_symmetric(rng, d, 0.05, 3.0)
        b = rng.standard_normal(d)
        lip = float(np.linalg.eigvalsh(m)[-1])
        w = rng.standard_normal(d)
        grad = m @ w + b
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-9:
            continue
        v = rng.standard_normal(d)
        v *= gnorm / np.linalg.norm(v)
        cos = float(grad @ v) / (gnorm * gnorm)
        eta = cos / lip

        def f(x):
            return 0.5 * x @ m @ x + b @ x

        drop = cos * cos / (2.0 * lip) * gnorm * gnorm
        assert f(w - eta * v) <= f(w) - drop + 1e-12

    for _ in range(1000):
        d = int(rng.integers(2, 7))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        xi = rng.standard_normal(d)
        xi /= np.linalg.norm(xi)
        dot = float(w @ xi)
        if dot <= 0:
            xi, dot = -xi, -dot
        eta = rng.uniform(0.0, 2.0 * dot)
        assert np.linalg.norm(w - eta * xi) <= 1.0 + 1e-12


@criterion(12, "finite-difference adjustment equals the analytic one")
def test_c12_fd_adjustment_equivalence():
    for name, params in CATALOG_DEFAULTS:
        game = dg.catalog_game(name, **params)
        oracle = dg.fd_game(game)
        rng = np.random.default_rng(zlib.crc32(("c12" + name).encode()))
        for _ in range(100):
            w = rng.uniform(-2, 2, size=game.dim)
            exact = dg.sym_adjustment(game, w)
            fd = dg.sym_adjustment(oracle, w)
            assert rel_err(fd, exact) <= 1e-6, name


@criterion(13, "seeded sweeps are byte-identical across reruns")
def test_c13_determinism():
    a = dg.serialize(dg.run_preset("fig3", seed=3), "csv")
    b = dg.serialize(dg.run_preset("fig3", seed=3), "csv")
    c = dg.serialize(dg.run_preset("fig3", seed=3), "csv")
    assert a == b == c
    d1 = dg.serialize(dg.run_preset("fig4", seed=0), "json")
    d2 = dg.serialize(dg.run_preset("fig4", seed=0), "json")
    assert d1 == d2
