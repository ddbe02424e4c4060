"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (visible with -s or on failure)
and asserts it; expected values come from independent constructions and
naive oracles, never from the functions under test.
"""
import json
import math
import time

import numpy as np

from tuckersearch.cli import main
from tuckersearch.escape import (delta_grid, sample_missing_directions,
                                 sign_flip_search)
from tuckersearch.objective import (balanced_random_point, default_lambda,
                                    grad, grad_loss, grad_phi, hvp, objective,
                                    reg, reg_phi)
from tuckersearch.search import SearchConfig, run
from tuckersearch.subspace import projection_distance_bound, subspace_split
from tuckersearch.tensor_core import (FactorPoint, multilinear_transform,
                                      norm_f, random_point)
from tuckersearch.verify import (gallery_one_missing, gallery_three_missing,
                                 gallery_two_missing)


def _verdict(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_gradient_matches_finite_differences():
    start = time.perf_counter()
    r, d = 2, 5
    lam = 1.0 / (16.0 * r ** 4)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([501, seed]))
        T = rng.standard_normal((d, d, d))
        p = random_point(r, d, rng)
        g = grad(objective(p, T, lam)).flat
        x = p.flat
        for i in range(x.size):
            h = 1e-5 * (1.0 + abs(x[i]))
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            fd = (objective(p._like(xp), T, lam).f
                  - objective(p._like(xm), T, lam).f) / (2 * h)
            rel = abs(fd - g[i]) / max(1.0, abs(g[i]))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict("gradient vs central differences", worst <= 1e-6
             and elapsed < 10.0,
             f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gradient_orthogonality():
    start = time.perf_counter()
    rng = np.random.default_rng(502)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 4))
        d = int(rng.integers(r, 7))
        T = rng.standard_normal((d, d, d))
        p = random_point(r, d, rng)
        gl, gr = grad_loss(p, T), 2.0 * reg_phi(p) * grad_phi(p)
        ratio = abs(gl.inner(gr)) / (1e-8 * (1.0 + gl.norm() * gr.norm()))
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    _verdict("fit/regularizer gradient orthogonality",
             worst <= 1.0 and elapsed < 5.0,
             f"worst tolerance share {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_euler_identity():
    rng = np.random.default_rng(503)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 4))
        d = int(rng.integers(r, 7))
        p = random_point(r, d, rng)
        phi = reg_phi(p)
        err = abs(4.0 * phi - grad_phi(p).inner(p))
        worst = max(worst, err / (1e-8 * (1.0 + 4.0 * phi)))
    _verdict("degree-four Euler identity", worst <= 1.0,
             f"worst tolerance share {worst:.2e}")


def test_criterion_04_regularizer_quartic_growth():
    rng = np.random.default_rng(504)
    eps = np.geomspace(1e-3, 1e-1, 9)
    slopes = []
    tested = 0
    while tested < 20:
        r = int(rng.integers(2, 4))
        d = int(rng.integers(r + 1, 7))
        p = balanced_random_point(r, d, rng)
        assert reg(p) <= 1e-20
        delta = random_point(r, d, rng)
        delta = (1.0 / delta.norm()) * delta
        if reg(p + 0.1 * delta) <= 1e-14:
            continue
        ys = [math.log(reg(p + float(e) * delta)) for e in eps]
        slopes.append(float(np.polyfit(np.log(eps), ys, 1)[0]))
        tested += 1
    ok = all(3.5 <= s <= 4.5 for s in slopes)
    _verdict("regularizer quartic growth from balanced points", ok,
             f"slopes in [{min(slopes):.3f}, {max(slopes):.3f}]")


def test_criterion_05_desk_scale_convergence():
    start = time.perf_counter()
    r, d = 2, 8
    hits_loose, hits_tight = 0, 0
    total_evals = 0
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([505, seed]))
        truth = random_point(r, d, rng)
        T = multilinear_transform(truth.S, truth.A, truth.B, truth.C)
        T = T / norm_f(T)
        result = run(T, SearchConfig(r=r, epsilon=1e-4,
                                     seed=seed, budget=50_000, init="zero"))
        assert result.grad_evals <= 50_000
        total_evals += result.grad_evals
        hits_tight += result.f <= 1e-3
        hits_loose += result.f <= 1e-2
    elapsed = time.perf_counter() - start
    # the evaluation total guards the descent policy: preconditioned
    # L-BFGS directions with the escape round ahead of the curvature probe
    # take 1,000 here (1,617 probing first), L-BFGS from a scalar H0 1,857;
    # with a 50-step stall window, steepest descent from Barzilai-Borwein
    # steps with a power-iteration probe took 9,195
    _verdict("desk-scale exact recovery",
             hits_tight >= 18 and hits_loose == 20 and total_evals <= 1_500
             and elapsed < 600.0,
             f"{hits_tight}/20 at 1e-3, {hits_loose}/20 at 1e-2, "
             f"{total_evals} gradient evaluations, {elapsed:.0f}s")


def test_criterion_06_origin_saddle_escape():
    rng = np.random.default_rng(506)
    r, d, sigma = 2, 4, 0.05
    T = rng.standard_normal((d, d, d))
    T /= norm_f(T)
    p = FactorPoint.zeros(r, d)
    gn = grad(objective(p, T)).norm()
    # every term of f is quartic or higher in the point, so the Hessian
    # quadratic form vanishes identically at the origin
    hcurv = 0.0
    for _ in range(5):
        v = random_point(r, d, rng)
        v = (1.0 / v.norm()) * v
        hcurv = max(hcurv, abs(v.inner(hvp(p, v, T))))
    splits = subspace_split(p, sigma)
    grid = delta_grid(sigma, 3)
    lam = default_lambda(r)
    wins = 0
    for _ in range(100):
        deltas = sample_missing_directions(splits, (2, 2, 2), rng, 1)
        res = sign_flip_search(p, T, deltas, grid, lam)[0]
        wins += res.improvement > 0.0
    _verdict("origin flat saddle escape",
             gn <= 1e-10 and hcurv <= 1e-8 and wins >= 30,
             f"grad {gn:.1e}, curvature {hcurv:.1e}, {wins}/100 improved")


def test_criterion_07_unregularized_counterexample():
    d = 3
    T = np.zeros((d, d, d))
    T[0, 0, 0] = 1.0
    row = np.zeros((1, d))
    row[0, 1] = 1.0
    p = FactorPoint(np.zeros((1, 1, 1)), row, row.copy(), row.copy())
    gl = grad_loss(p, T).norm()
    L0 = objective(p, T).L
    rng = np.random.default_rng(507)
    worst_dip = 0.0
    for _ in range(1000):
        delta = random_point(1, d, rng)
        delta = (1.0 / delta.norm()) * delta
        worst_dip = max(worst_dip, L0 - objective(p + 1e-2 * delta, T).L)
    lam = 1.0 / 16.0
    R_direct = float(sum(np.sum((M @ M.T) ** 2)
                         for M in (p.A, p.B, p.C)) ** 2)
    lower = 4.0 * lam * R_direct / p.norm()
    gf = grad(objective(p, T, lam)).norm()
    _verdict("spurious point without regularizer",
             gl <= 1e-10 and worst_dip <= 1e-12
             and gf >= lower - 1e-10 and lower > 0,
             f"loss grad {gl:.1e}, worst dip {worst_dip:.1e}, "
             f"grad {gf:.3f} >= {lower:.3f}")


def test_criterion_08_missing_direction_slopes():
    reports = [gallery_one_missing(), gallery_two_missing(),
               gallery_three_missing(np.random.default_rng(508))]
    slopes = [r.details["slope"] for r in reports]
    ok = all(abs(s - e) <= 0.5 for s, e in zip(slopes, (2.0, 3.0, 4.0)))
    _verdict("saddle-order improvement slopes", ok,
             "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_criterion_09_projector_perturbation_bound():
    rng = np.random.default_rng(509)
    violations = 0
    for _ in range(100):
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(3, 8))
        k = int(rng.integers(1, min(rows, cols)))
        U, s, Vt = np.linalg.svd(rng.standard_normal((rows, cols)),
                                 full_matrices=False)
        M1 = (U[:, :k] * s[:k]) @ Vt[:k]
        M2 = rng.standard_normal((rows, cols))
        M2 *= 0.3 * s[k - 1] / norm_f(M2)
        lhs, rhs = projection_distance_bound(M1 + M2, M1, M2)
        violations += lhs > rhs
    _verdict("projector perturbation bound", violations == 0,
             f"{violations} violations in 100 splits")


def test_criterion_10_naive_oracle_equivalence():
    rng = np.random.default_rng(510)

    def naive_transform(S, A, B, C):
        r = S.shape[0]
        d = A.shape[1]
        out = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    acc = 0.0
                    for x in range(r):
                        for y in range(r):
                            for z in range(r):
                                acc += S[x, y, z] * A[x, i] * B[y, j] * C[z, k]
                    out[i, j, k] = acc
        return out

    def naive_loss(p, T):
        fit = naive_transform(p.S, p.A, p.B, p.C)
        acc = 0.0
        for i in range(T.shape[0]):
            for j in range(T.shape[1]):
                for k in range(T.shape[2]):
                    acc += (fit[i, j, k] - T[i, j, k]) ** 2
        return acc

    def naive_phi(p):
        r = p.r
        acc = 0.0
        grams = []
        for mode, M in enumerate((p.A, p.B, p.C)):
            G = np.zeros((r, r))
            H = np.zeros((r, r))
            for x in range(r):
                for xp in range(r):
                    G[x, xp] = sum(M[x, i] * M[xp, i]
                                   for i in range(p.d))
                    tot = 0.0
                    for y in range(r):
                        for z in range(r):
                            if mode == 0:
                                tot += p.S[x, y, z] * p.S[xp, y, z]
                            elif mode == 1:
                                tot += p.S[y, x, z] * p.S[y, xp, z]
                            else:
                                tot += p.S[y, z, x] * p.S[y, z, xp]
                    H[x, xp] = tot
            grams.append((G, H))
        for G, H in grams:
            for x in range(r):
                for xp in range(r):
                    acc += (G[x, xp] - H[x, xp]) ** 2
        return acc

    worst = 0.0
    for _ in range(50):
        r = int(rng.integers(1, 5))
        d = int(rng.integers(r, 5))
        p = random_point(r, d, rng)
        T = rng.standard_normal((d, d, d))
        e1 = norm_f(multilinear_transform(p.S, p.A, p.B, p.C)
                    - naive_transform(p.S, p.A, p.B, p.C))
        want = naive_loss(p, T)
        e2 = abs(objective(p, T).L - want) / (1.0 + abs(want))
        e3 = abs(reg_phi(p) - naive_phi(p)) / (1.0 + abs(naive_phi(p)))
        worst = max(worst, e1, e2, e3)
    _verdict("naive-summation oracle equivalence", worst <= 1e-12,
             f"worst deviation {worst:.2e}")


def test_criterion_11_decompose_determinism(tmp_path):
    T_path = tmp_path / "T.json"
    assert main(["generate", "--rank", "2", "--dim", "4", "--seed", "9",
                 "--out", str(T_path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 2, "seed": 3,
                               "out": str(tmp_path / "run")}))
    args = ["decompose", str(T_path), "--config", str(cfg)]
    assert main(args) == 0
    factors1 = (tmp_path / "run.factors.json").read_bytes()
    trace1 = (tmp_path / "run.trace.jsonl").read_bytes()
    assert main(args) == 0
    factors2 = (tmp_path / "run.factors.json").read_bytes()
    trace2 = (tmp_path / "run.trace.jsonl").read_bytes()
    ok = factors1 == factors2 and trace1 == trace2
    _verdict("byte-identical decomposition outputs", ok,
             f"factors {len(factors1)}B, trace {len(trace1)}B")
