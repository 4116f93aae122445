"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Each test evaluates its criterion at the stated tolerance, prints a single
summary line directly to the terminal (bypassing capture), and then asserts.
"""

import time

import numpy as np

from geomstates import (
    PureDensity,
    RealifiedState,
    Rejection,
    bracket_g,
    bracket_omega,
    certify_density,
    cli,
    critical_point_eigensolve,
    gellmann_basis,
    gl_act_cone,
    gl_act_states,
    lambda_at,
    pushforward_check,
    quadratic_function,
    qubit_from_bloch,
    qutrit_pure_from_bloch,
    qutrit_star,
    riemann_jordan_at,
    spectral_oracle,
    structure_constants,
    tangency_check,
    to_dual,
    transition_probability,
)
from geomstates.qutrit_tables import full_c_table, full_d_table

from conftest import random_hermitian, random_state, random_unit

B2 = gellmann_basis(2)
B3 = gellmann_basis(3)


def report(capsys, num, title, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {title}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_structure_constant_fidelity(capsys):
    t0 = time.perf_counter()
    sc = structure_constants(B3)
    c_err = np.abs(sc.c - full_c_table()).max()
    d_err = np.abs(sc.d[1:, 1:, 1:] - full_d_table()[1:, 1:, 1:]).max()
    # 0-index d discrepancies are reported by the CSV dump, never asserted
    code = cli.main(["--output", "/dev/null", "constants", "--n", "3"])
    elapsed = time.perf_counter() - t0
    ok = c_err < 1e-12 and d_err < 1e-12 and code == 0 and elapsed < 1.0
    report(capsys, 1, "structure-constant fidelity (n=3, tol 1e-12)", ok,
           f"max C err {c_err:.2e}, max d err {d_err:.2e}, {elapsed:.2f}s")


def test_criterion_02_rank_lemmas_grid(capsys):
    t0 = time.perf_counter()
    grid = np.linspace(-0.5, 0.5, 21)
    bad = 0
    total = 0
    for y0 in grid:
        for y1 in grid:
            for y3 in grid:
                y = np.array([y0, y1, 0.0, y3])
                v2 = y1 * y1 + y3 * y3
                want_l = 0 if v2 < 1e-18 else 2
                if y0 * y0 + v2 < 1e-18:
                    want_r = 0
                elif abs(y0) < 1e-12:
                    want_r = 2
                elif abs(y0 * y0 - v2) < 1e-12:
                    want_r = 3
                else:
                    want_r = 4
                total += 1
                if (lambda_at(y, B2).rank() != want_l
                        or riemann_jordan_at(y, B2).rank() != want_r):
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    report(capsys, 2, "u(2) rank lemmas on 21^3 grid", ok,
           f"{bad}/{total} mismatches, {elapsed:.2f}s")


def test_criterion_03_bloch_ball_grid(capsys):
    t0 = time.perf_counter()
    grid = np.linspace(-0.6, 0.6, 41)
    bad = 0
    checked = 0
    for y1 in grid:
        for y2 in grid:
            for y3 in grid:
                r = np.sqrt(y1 * y1 + y2 * y2 + y3 * y3)
                if abs(r - 0.5) <= 1e-6:
                    continue
                checked += 1
                inside = r < 0.5
                out = certify_density(qubit_from_bloch(y1, y2, y3))
                if inside == isinstance(out, Rejection):
                    bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    report(capsys, 3, "Bloch-ball certification on 41^3 grid", ok,
           f"{bad}/{checked} disagreements, {elapsed:.2f}s")


def test_criterion_04_bracket_homomorphisms(capsys):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        psi = random_state(rng, n)
        eg = abs(bracket_g(a, b, psi)
                 - quadratic_function(a @ b + b @ a, psi))
        ew = abs(bracket_omega(a, b, psi)
                 - quadratic_function(-1j * (a @ b - b @ a), psi))
        worst = max(worst, eg, ew)
    ok = worst <= 1e-10
    report(capsys, 4, "bracket homomorphisms, 200 samples (tol 1e-10)", ok,
           f"worst error {worst:.2e}")


def _pushforward_ratio(dim):
    """Mean Re(lhs / rhs) of pushforward_check over 20 states at dim, from
    default_rng(0): 1 wherever the identity needs no scale."""
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(20):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (m + m.conj().T) / 2
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = (m + m.conj().T) / 2
        psi = RealifiedState(rng.normal(size=dim), rng.normal(size=dim))
        lhs, rhs = pushforward_check(psi, a, b)
        if abs(rhs) > 1e-6:
            ratios.append((lhs / rhs).real)
    return float(np.mean(ratios))


def test_criterion_05_momentum_map_coherence(capsys):
    rng = np.random.default_rng(20260823)
    worst_pull = 0.0
    worst_push = 0.0
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        z = random_unit(rng, n)
        psi = RealifiedState.from_complex(z)
        xi = np.outer(z, z.conj())
        worst_pull = max(worst_pull, abs(0.5 * np.trace(a @ xi).real
                                         - quadratic_function(a, psi)))
        lhs, rhs = pushforward_check(psi, a, b)
        worst_push = max(worst_push, abs(lhs - rhs))
    scale2 = _pushforward_ratio(2)
    scale3 = _pushforward_ratio(3)
    ok = (worst_pull <= 1e-10 and worst_push <= 1e-10
          and abs(scale2 - 1.0) < 1e-10
          and abs(scale3 - scale2) < 1e-10)
    report(capsys, 5, "momentum-map pullback/pushforward (tol 1e-10)", ok,
           f"pullback {worst_pull:.2e}, pushforward {worst_push:.2e}, "
           f"scale n=2 {scale2:.12f} vs n=3 {scale3:.12f}")


def test_criterion_06_eigensolver_vs_oracle(capsys):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    max_iters = 0
    failures = 0
    for _ in range(50):
        a = random_hermitian(rng, 3)
        w, _ = spectral_oracle(a)
        for mode, target in (("ascent", w[0]), ("descent", w[-1])):
            trace = []
            e, _, conv = critical_point_eigensolve(
                a, random_state(rng, 3), mode=mode, trace=trace)
            iters = trace[-1][0]
            max_iters = max(max_iters, iters)
            if not conv or iters >= 10**4:
                failures += 1
            worst = max(worst, abs(e - target))
    ok = failures == 0 and worst <= 1e-7
    report(capsys, 6, "gradient eigensolver vs oracle, 50 matrices", ok,
           f"worst eigenvalue error {worst:.2e}, max iterations {max_iters}")


def test_criterion_07_stratification(capsys):
    rng = np.random.default_rng(20260823)
    rank_bad = 0
    for _ in range(500):
        n = int(rng.choice([2, 3]))
        k = int(rng.integers(1, n + 1))
        z = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        rho = certify_density((z @ z.conj().T)
                              / np.trace(z @ z.conj().T).real)
        t = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             + 2 * np.eye(n))
        out = gl_act_states(t, rho)
        if out.rank != rho.rank:
            rank_bad += 1
    sig_bad = 0
    for _ in range(500):
        n = int(rng.choice([2, 3]))
        w = rng.choice([-1.0, 0.0, 1.0], size=n) * rng.uniform(0.5, 2.0, n)
        u = np.linalg.qr(rng.normal(size=(n, n))
                         + 1j * rng.normal(size=(n, n)))[0]
        xi = u @ np.diag(w) @ u.conj().T
        xi = (xi + xi.conj().T) / 2
        t = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             + 2 * np.eye(n))
        out = gl_act_cone(t, xi)

        def signature(m):
            vals = np.linalg.eigvalsh(m)
            cut = 1e-9 * max(np.abs(vals).max(), 1.0)
            return (int(np.sum(vals > cut)), int(np.sum(vals < -cut)))

        if signature(xi) != signature(out):
            sig_bad += 1
    ok = rank_bad == 0 and sig_bad == 0
    report(capsys, 7, "GL-action rank and signature preservation, 500+500", ok,
           f"rank mismatches {rank_bad}, signature mismatches {sig_bad}")


def _orbit_samples(rho0, generator, kind):
    samples = []
    for t in np.linspace(0.0, 0.005, 11):
        if kind == "unitary":
            w, v = np.linalg.eigh(generator)
            tm = v @ np.diag(np.exp(1j * w * t)) @ v.conj().T
        else:
            w, v = np.linalg.eig(t * generator)
            tm = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        out = tm @ rho0 @ tm.conj().T
        out = (out + out.conj().T) / 2
        samples.append((t, out / np.trace(out).real))
    return samples


def test_criterion_08_tangency_theorem(capsys):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for k, diag in ((1, [1.0, 0.0, 0.0]), (2, [0.6, 0.4, 0.0])):
        rho0 = np.diag(diag).astype(complex)
        herm = random_hermitian(rng, 3)
        gen = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for kind, g in (("unitary", herm), ("gl", gen)):
            rep = tangency_check(_orbit_samples(rho0, g, kind), k)
            worst = max(worst, rep.max_residual)
    ok = worst < 1e-6
    report(capsys, 8, "orbit tangency at ranks 1 and 2 (n=3)", ok,
           f"max relative residual {worst:.2e}")


def test_criterion_09_qutrit_pure_state_algebra(capsys):
    rng = np.random.default_rng(20260823)
    worst_norm = 0.0
    worst_star = 0.0
    for _ in range(100):
        z = random_unit(rng, 3)
        n_vec = np.sqrt(3.0) * to_dual(np.outer(z, z.conj()), B3)[1:]
        worst_norm = max(worst_norm, abs(np.linalg.norm(n_vec) - 1.0))
        worst_star = max(worst_star,
                         np.abs(qutrit_star(n_vec, n_vec) - n_vec).max())
    accepted_bad = 0
    for _ in range(100):
        z = random_unit(rng, 3)
        n_vec = np.sqrt(3.0) * to_dual(np.outer(z, z.conj()), B3)[1:]
        n_vec = n_vec + rng.normal(scale=0.1, size=8)
        n_vec /= np.linalg.norm(n_vec)
        if not isinstance(qutrit_pure_from_bloch(n_vec), Rejection):
            accepted_bad += 1
    ok = worst_norm <= 1e-8 and worst_star <= 1e-8 and accepted_bad == 0
    report(capsys, 9, "qutrit pure-state star algebra, 100+100", ok,
           f"norm err {worst_norm:.2e}, star err {worst_star:.2e}, "
           f"false accepts {accepted_bad}")


def test_criterion_10_transition_probability(capsys):
    rng = np.random.default_rng(20260823)
    bad = 0
    for i in range(1000):
        z1 = random_unit(rng, 3)
        if i % 10 == 0:
            z2 = np.exp(1j * rng.uniform(0, 2 * np.pi)) * z1  # same ray
        else:
            z2 = random_unit(rng, 3)
        r1 = PureDensity(np.outer(z1, z1.conj()))
        r2 = PureDensity(np.outer(z2, z2.conj()))
        p = transition_probability(r1, r2)
        q = transition_probability(r2, r1)
        same = np.abs(r1.op - r2.op).max() < 1e-10
        if not (-1e-12 <= p <= 1 + 1e-12):
            bad += 1
        elif abs(p - q) > 1e-12:
            bad += 1
        elif same and abs(p - 1.0) > 1e-10:
            bad += 1
        elif p > 1 - 1e-10 and not np.abs(r1.op - r2.op).max() < 1e-5:
            bad += 1
    ok = bad == 0
    report(capsys, 10, "transition probability on 1000 extremal pairs", ok,
           f"{bad} violations")
