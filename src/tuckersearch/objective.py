"""Regularized Tucker fitting objective and its derivatives.

For a point p = (S, A, B, C) and a target tensor T the objective is

    f(p) = L(p) + lam * R(p),
    L(p) = || S(A, B, C) - T ||_F^2,
    R(p) = phi(p)^2,
    phi(p) = sum_m || M M^T - S_(m) S_(m)^T ||_F^2   over M in {A, B, C},

where S_(m) is the mode-m flattening of the core.  phi penalizes imbalance
between each factor Gram matrix and the matching core Gram matrix; squaring
it makes the penalty gradient vanish to second order on the balanced set,
which keeps the two gradient fields orthogonal:  <grad L, grad R> = 0 at
every point, not just asymptotically.

The default weight lam = 1 / (16 r^4) keeps the penalty subordinate to the
fitting term at the scales the search operates in.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import FactorPoint, _transform


def default_lambda(r: int) -> float:
    """Regularization weight 1 / (16 r^4)."""
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    return 1.0 / (16.0 * r**4)


def _check_target(p: FactorPoint, T: np.ndarray) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.shape != (p.d, p.d, p.d):
        raise ValueError(f"target shape {T.shape} does not match d={p.d}")
    return T


def _fit(p: FactorPoint, T: np.ndarray):
    """S x3 C, S(I, B, C) and the residual D = S(A, B, C) - T."""
    SC, SBC, X = _transform(p.S, p.A, p.B, p.C)
    return SC, SBC, X - T


def _core_grams(S: np.ndarray) -> np.ndarray:
    """S_(m) S_(m)^T for each mode of the r x r x r core S, as a (3, r, r)
    array."""
    r = S.shape[0]
    F = np.concatenate((S, S.transpose(1, 0, 2), S.transpose(2, 0, 1))
                       ).reshape(3, r, r * r)
    return F @ F.transpose(0, 2, 1)


def _factor_grams(p: FactorPoint) -> np.ndarray:
    """M M^T for each factor of p, as a (3, r, r) array."""
    M = p.factors
    return M @ M.transpose(0, 2, 1)


def _gram_gaps(p: FactorPoint) -> np.ndarray:
    """M M^T - S_(m) S_(m)^T for each mode, stacked into a (3, r, r) array
    of symmetric matrices."""
    return _factor_grams(p) - _core_grams(p.S)


def _phi(gaps: np.ndarray) -> float:
    G = gaps.ravel()
    return float(G @ G)


def reg_phi(p: FactorPoint) -> float:
    """Balance defect sum_m || M M^T - S_(m) S_(m)^T ||_F^2."""
    return _phi(_gram_gaps(p))


def reg(p: FactorPoint) -> float:
    """Regularizer R = phi^2."""
    return reg_phi(p) ** 2


@dataclass(frozen=True)
class ObjectiveReport:
    """One objective evaluation: f = L + lam * R with R = phi^2.

    It also keeps what the evaluation formed, so that the gradient and the
    sign search at the point start from it: the point, the fit stages
    (S x3 C, S(I, B, C) and the residual D, as `_fit` returns them), the
    factor Grams M M^T and the Gram gaps.  These take no part in
    comparison or repr."""
    f: float
    L: float
    R: float
    phi: float
    lam: float
    point: FactorPoint = field(compare=False, repr=False)
    stages: tuple = field(compare=False, repr=False)
    grams: np.ndarray = field(compare=False, repr=False)
    gaps: np.ndarray = field(compare=False, repr=False)


def objective(p: FactorPoint, T: np.ndarray, lam: float | None = None) -> ObjectiveReport:
    """Evaluate f = L + lam * R; lam defaults to 1 / (16 r^4)."""
    if lam is None:
        lam = default_lambda(p.r)
    stages = _fit(p, _check_target(p, T))
    D = stages[2].ravel()
    L = float(D @ D)
    grams = _factor_grams(p)
    gaps = grams - _core_grams(p.S)
    phi = _phi(gaps)
    R = phi * phi
    # the instance dict is filled directly: the frozen dataclass's
    # __init__ sets each of its nine fields through object.__setattr__,
    # which costs more than the rest of a small evaluation's bookkeeping
    rep = object.__new__(ObjectiveReport)
    vars(rep).update(f=L + lam * R, L=L, R=R, phi=phi, lam=lam, point=p,
                     stages=stages, grams=grams, gaps=gaps)
    return rep


# ---------------------------------------------------------------------------
# gradients
#
# Every contraction below is a matrix product on an unfolding, or one
# batched over the leading axis.  The gradient of the fitting term reuses
# the stages of S(A, B, C): with the residual D,
#
#   dL/dS = 2 D(A^T, B^T, C^T)     from D x1 A, then x2 B, then x3 C
#   dL/dA = 2 S(I, B, C)_(1) D_(1)^T
#   dL/dB = 2 sum_xk (S x3 C)_xyk (D x1 A)_xjk
#   dL/dC = 2 S_(3) [D(A^T, B^T, I)]_(3)^T


def _grad_loss_flat(p: FactorPoint, stages) -> np.ndarray:
    """Half the gradient of the fitting term, as a flat vector, from the
    fit stages (S x3 C, S(I, B, C), D) at p."""
    r, d = p.r, p.d
    SC, SBC, D = stages
    D1 = D.reshape(d, d * d)
    DA = (p.A @ D1).reshape(r, d, d)
    DAB = np.matmul(p.B, DA).reshape(r * r, d)
    gS = DAB @ p.C.T
    gA = SBC.reshape(r, d * d) @ D1.T
    gB = (SC.transpose(1, 0, 2).reshape(r, r * d)
          @ DA.transpose(1, 0, 2).reshape(d, r * d).T)
    gC = p.S.reshape(r * r, r).T @ DAB
    return np.concatenate((gS.ravel(), gA.ravel(), gB.ravel(), gC.ravel()))


def _grad_phi_flat(p: FactorPoint, gaps: np.ndarray) -> np.ndarray:
    """Gradient of phi from its Gram gaps, as a flat vector."""
    G1, G2, G3 = gaps
    S, r = p.S, p.r
    # S x1 G1 + S x2 G2 + S x3 G3, each G_m symmetric
    SG = ((G1.T @ S.reshape(r, r * r)).ravel() + np.matmul(G2.T, S).ravel()
          + (S.reshape(r * r, r) @ G3).ravel())
    return 4.0 * np.concatenate((-SG, (gaps @ p.factors).ravel()))


def grad_loss(p: FactorPoint, T: np.ndarray) -> FactorPoint:
    """Gradient of the fitting term, block by block."""
    return p._like(2.0 * _grad_loss_flat(p, _fit(p, _check_target(p, T))))


def grad_phi(p: FactorPoint) -> FactorPoint:
    """Gradient of the balance defect phi."""
    return p._like(_grad_phi_flat(p, _gram_gaps(p)))


def grad_reg(p: FactorPoint) -> FactorPoint:
    """Gradient of R = phi^2, which is 2 phi grad(phi)."""
    gaps = _gram_gaps(p)
    return p._like((2.0 * _phi(gaps)) * _grad_phi_flat(p, gaps))


def grad(rep: ObjectiveReport) -> FactorPoint:
    """Gradient of f = L + lam * R at the point of the report `rep` of
    `objective`, from the fit stages and Gram gaps it keeps."""
    p = rep.point
    return p._like(2.0 * _grad_loss_flat(p, rep.stages)
                   + (2.0 * rep.lam * rep.phi) * _grad_phi_flat(p, rep.gaps))


def hvp(p: FactorPoint, direction: FactorPoint, T: np.ndarray,
        lam: float | None = None) -> FactorPoint:
    """Hessian-vector product by a central difference of the gradient.

    The step is scaled to the point, h = 1e-5 (1 + |p|) / |direction|, so
    the estimate is accurate to O(h^2) on this polynomial objective.
    """
    dn = direction.norm()
    if dn == 0.0:
        raise ValueError("hvp direction must be nonzero")
    h = 1e-5 * (1.0 + p.norm()) / dn
    gp = grad(objective(p + h * direction, T, lam))
    gm = grad(objective(p - h * direction, T, lam))
    return (1.0 / (2.0 * h)) * (gp - gm)


def eval_along(p: FactorPoint, direction: FactorPoint, T: np.ndarray,
               steps, lam: float | None = None) -> list[tuple[float, ObjectiveReport]]:
    """Exact objective values f(p + eps * direction) for each eps in steps."""
    out = []
    for eps in steps:
        out.append((float(eps), objective(p + float(eps) * direction, T, lam)))
    return out


def balanced_random_point(r: int, d: int, rng: np.random.Generator,
                          scale: float = 1.0) -> FactorPoint:
    """Random point with phi = 0.

    Draws a Gaussian core, then builds each factor as (symmetric square root
    of the core Gram) times a matrix with orthonormal rows, so every factor
    Gram equals the matching core Gram exactly.  One stacked `eigh` and
    one `qr` of one draw give bit for bit the per-mode calls' values.
    """
    if d < r:
        raise ValueError(f"need d >= r to draw orthonormal rows, got r={r} d={d}")
    S = scale * rng.standard_normal((r, r, r))
    w, V = np.linalg.eigh(_core_grams(S))
    roots = (V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ V.swapaxes(1, 2)
    Q = np.linalg.qr(rng.standard_normal((3, d, r)))[0]
    return FactorPoint(S, *(roots @ Q.swapaxes(1, 2)))


# ---------------------------------------------------------------------------
# point file I/O
#
# JSON: {"r": r, "d": d, "S": {"dims": [r,r,r], "data": [...]},
#        "A": [[...]], "B": [[...]], "C": [[...]]}


def point_to_dict(p: FactorPoint) -> dict:
    return {
        "r": p.r,
        "d": p.d,
        "S": {"dims": [p.r] * 3, "data": p.S.ravel().tolist()},
        "A": p.A.tolist(),
        "B": p.B.tolist(),
        "C": p.C.tolist(),
    }


def point_from_dict(doc: dict) -> FactorPoint:
    try:
        r, d = int(doc["r"]), int(doc["d"])
        core = doc["S"]
        dims = [int(x) for x in core["dims"]]
        data = np.asarray(core["data"], dtype=float)
        mats = [np.asarray(doc[k], dtype=float) for k in ("A", "B", "C")]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed factor point document: {exc}") from exc
    if dims != [r, r, r]:
        raise ValueError(f"core dims {dims} do not match r={r}")
    if data.size != r**3:
        raise ValueError(f"core data length {data.size}, need {r**3}")
    for name, M in zip("ABC", mats):
        if M.shape != (r, d):
            raise ValueError(f"{name} has shape {M.shape}, need ({r}, {d})")
    if not all(np.all(np.isfinite(M)) for M in [data] + mats):
        raise ValueError("factor point contains non-finite entries")
    return FactorPoint(data.reshape(r, r, r), *mats)


def save_point(path, p: FactorPoint) -> None:
    # json.dumps runs the C encoder; json.dump to a file runs the pure
    # Python one, for the same bytes
    with open(path, "w") as fh:
        fh.write(json.dumps(point_to_dict(p), sort_keys=True))
        fh.write("\n")


def load_point(path) -> FactorPoint:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return point_from_dict(doc)
