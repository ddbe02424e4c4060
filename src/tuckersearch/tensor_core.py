"""Dense third-order tensor arithmetic.

Conventions used throughout the package:

  * a third-order tensor is a C-ordered float ndarray of shape (d1, d2, d3);
  * the multilinear transform S(A, B, C) contracts mode m of the core S
    with the rows of the m-th matrix,

        [S(A, B, C)]_ijk = sum_xyz  S_xyz A_xi B_yj C_zk,

    so an (r1, r2, r3) core and matrices of shape (r1, d1), (r2, d2),
    (r3, d3) produce a (d1, d2, d3) tensor;
  * flatten(X, m) unfolds mode m (1-indexed) into the rows of a matrix and
    satisfies  flatten(S(A,B,C), 1) = A^T flatten(S,1) kron(B, C)  and the
    analogous identities with kron(A, C) and kron(A, B) for modes 2 and 3.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"TKR1"


def multilinear_transform(S: np.ndarray, A: np.ndarray, B: np.ndarray,
                          C: np.ndarray) -> np.ndarray:
    """Apply A, B, C to modes 1, 2, 3 of S, one matrix product per mode."""
    S = np.asarray(S, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if S.ndim != 3:
        raise ValueError(f"core must be a third-order tensor, got ndim={S.ndim}")
    for name, M, mode in (("A", A, 0), ("B", B, 1), ("C", C, 2)):
        if M.ndim != 2:
            raise ValueError(f"{name} must be a matrix, got ndim={M.ndim}")
        if M.shape[0] != S.shape[mode]:
            raise ValueError(
                f"{name} has {M.shape[0]} rows but core mode {mode + 1} "
                f"has size {S.shape[mode]}")
    return _transform(S, A, B, C)[2]


def _transform(S: np.ndarray, A: np.ndarray, B: np.ndarray,
               C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stages of S(A, B, C), one mode at a time: S x3 C of shape
    (r1, r2, d3), S(I, B, C) of shape (r1, d2, d3) and S(A, B, C).

    Mode 3 and mode 1 are single matrix products on unfoldings; mode 2 is
    a matrix product batched over the leading axis.  Inputs are float
    arrays of matching shapes and are not checked.
    """
    r1, r2, r3 = S.shape
    d1, d2, d3 = A.shape[1], B.shape[1], C.shape[1]
    SC = (S.reshape(r1 * r2, r3) @ C).reshape(r1, r2, d3)
    SBC = np.matmul(B.T, SC)
    X = (A.T @ SBC.reshape(r1, d2 * d3)).reshape(d1, d2, d3)
    return SC, SBC, X


def flatten(X: np.ndarray, mode: int) -> np.ndarray:
    """Unfold mode `mode` (1, 2 or 3) of X into the rows of a matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={X.ndim}")
    d1, d2, d3 = X.shape
    if mode == 1:
        return X.reshape(d1, d2 * d3)
    if mode == 2:
        return X.transpose(1, 0, 2).reshape(d2, d1 * d3)
    if mode == 3:
        return X.transpose(2, 0, 1).reshape(d3, d1 * d2)
    raise ValueError(f"mode must be 1, 2 or 3, got {mode}")


def norm_f(X: np.ndarray) -> float:
    """Frobenius norm, as np.linalg.norm computes it, in memory order."""
    x = np.asarray(X, dtype=float).ravel(order="K")
    return math.sqrt(x @ x)


def trilinear(X: np.ndarray, u: np.ndarray, v: np.ndarray,
              w: np.ndarray) -> float:
    """Trilinear form X(u, v, w) = sum_ijk X_ijk u_i v_j w_k."""
    return float(np.einsum("ijk,i,j,k->", X, u, v, w))


def _column_signs(U: np.ndarray) -> np.ndarray:
    """+1.0 or -1.0 for each column of each matrix of the (k, rows, cols)
    stack U, so that multiplying the column by it makes its first entry
    of magnitude > 1e-12 positive (+1.0 for a column with no such entry).
    Multiplying by +-1.0 is exact, so the signed columns are bit for bit
    the negated or unchanged ones."""
    big = np.abs(U) > 1e-12
    first = U[np.arange(len(U))[:, None], big.argmax(axis=1),
              np.arange(U.shape[2])]
    return np.where(big.any(axis=1) & (first < 0.0), -1.0, 1.0)


# ---------------------------------------------------------------------------
# factored parameter points


@dataclass(frozen=True, eq=False)
class FactorPoint:
    """A point (S, A, B, C) of the factored parameter space: an r x r x r
    core plus three r x d factor matrices.

    The point lives in one contiguous read-only vector, `flat`: the core
    and then A, B and C, each in C order.  S, A, B and C are views into
    it, and so is `factors`, the (3, r, d) stack of A, B and C.  The
    constructor checks and copies its blocks; the vector-space operations
    act on `flat` in one numpy operation and build their result without
    checking it again.  Instances are immutable.
    """
    S: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)
    factors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        if S.ndim != 3 or len(set(S.shape)) != 1:
            raise ValueError(f"core must be an r x r x r cube, got {S.shape}")
        r = S.shape[0]
        mats = []
        for name, M in (("A", self.A), ("B", self.B), ("C", self.C)):
            M = np.asarray(M, dtype=float)
            if M.ndim != 2 or M.shape[0] != r:
                raise ValueError(
                    f"{name} must have shape (r, d) with r={r}, got {M.shape}")
            mats.append(M)
        if len({M.shape for M in mats}) != 1:
            raise ValueError("A, B, C must share one shape")
        flat = np.concatenate([S.ravel()] + [M.ravel() for M in mats])
        self._bind(flat, r, mats[0].shape[1])

    def _bind(self, flat: np.ndarray, r: int, d: int) -> None:
        # read-only before the views are taken, so that they inherit it;
        # the instance dict is written directly because the class is frozen
        flat.setflags(write=False)
        n = r**3
        M = flat[n:].reshape(3, r, d)
        vars(self).update(flat=flat, factors=M, S=flat[:n].reshape(r, r, r),
                          A=M[0], B=M[1], C=M[2])

    @staticmethod
    def _from_flat(flat: np.ndarray, r: int, d: int) -> "FactorPoint":
        """An unchecked point around a fresh vector, for package results."""
        p = object.__new__(FactorPoint)
        p._bind(flat, r, d)
        return p

    def _like(self, flat: np.ndarray) -> "FactorPoint":
        return FactorPoint._from_flat(flat, self.S.shape[0], self.A.shape[1])

    @property
    def r(self) -> int:
        return self.S.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.S, self.A, self.B, self.C

    @staticmethod
    def zeros(r: int, d: int) -> "FactorPoint":
        return FactorPoint(np.zeros((r, r, r)), np.zeros((r, d)),
                           np.zeros((r, d)), np.zeros((r, d)))

    def __add__(self, other: "FactorPoint") -> "FactorPoint":
        return self._like(self.flat + other.flat)

    def __sub__(self, other: "FactorPoint") -> "FactorPoint":
        return self._like(self.flat - other.flat)

    def __neg__(self) -> "FactorPoint":
        return self._like(-self.flat)

    def __mul__(self, c: float) -> "FactorPoint":
        return self._like(float(c) * self.flat)

    __rmul__ = __mul__

    def inner(self, other: "FactorPoint") -> float:
        return float(self.flat @ other.flat)

    def norm(self) -> float:
        return float(np.sqrt(self.flat @ self.flat))

    def apply(self) -> np.ndarray:
        """The represented tensor S(A, B, C)."""
        return _transform(self.S, self.A, self.B, self.C)[2]


def random_point(r: int, d: int, rng: np.random.Generator,
                 scale: float = 1.0) -> FactorPoint:
    """Independent Gaussian entries of standard deviation `scale`, in one
    draw: the stream of drawing S, A, B and C in turn."""
    if r < 0 or d < 0:
        raise ValueError(f"r and d must be nonnegative, got r={r} d={d}")
    flat = scale * rng.standard_normal(r**3 + 3 * r * d)
    return FactorPoint._from_flat(flat, r, d)


def hosvd(T: np.ndarray, r: int) -> FactorPoint:
    """Rank-r higher-order SVD of T.

    Rows of each returned factor are the top-r left singular vectors of the
    corresponding flattening (so A A^T = I_r), and the core is T compressed
    onto those subspaces.  Exactly recovers T when every flattening has rank
    at most r.  Singular vectors have their first nonzero coordinate made
    positive, which fixes the result up to floating-point tie-breaking.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={T.ndim}")
    if not (1 <= r <= min(T.shape)):
        raise ValueError(f"rank must satisfy 1 <= r <= {min(T.shape)}, got {r}")
    factors = []
    for mode in (1, 2, 3):
        U = np.linalg.svd(flatten(T, mode), full_matrices=False)[0][:, :r]
        U = U * _column_signs(U[None])[0]
        factors.append(U.T)
    A, B, C = factors
    S = multilinear_transform(T, A.T, B.T, C.T)
    return FactorPoint(S, A, B, C)


# ---------------------------------------------------------------------------
# tensor file I/O
#
# JSON: {"dims": [d1, d2, d3], "data": [row-major floats], "meta": {...}?}
# binary: b"TKR1" + three little-endian u64 dims + row-major f64 entries


def _validate_payload(dims, data) -> np.ndarray:
    try:
        # a JSON true would pass int(d) == d as 1
        ok = len(dims) == 3 and all(
            not isinstance(d, bool) and int(d) == d and d >= 1 for d in dims)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"dims must be three positive integers, got {dims}")
    dims = tuple(int(d) for d in dims)
    n = dims[0] * dims[1] * dims[2]
    try:
        arr = np.asarray(data, dtype=float).ravel()
    except (TypeError, ValueError):
        raise ValueError("tensor data must be a list of numbers") from None
    if arr.size != n:
        raise ValueError(
            f"data length {arr.size} does not match dims {dims} (need {n})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor data contains non-finite entries")
    return arr.reshape(dims)


def _file_payload(path, dims, data) -> np.ndarray:
    """`_validate_payload` of a file's dims and data, its error naming the
    file."""
    try:
        return _validate_payload(dims, data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_tensor_json(path, X: np.ndarray, meta: dict | None = None) -> None:
    X = np.ascontiguousarray(X, dtype=float)
    doc = {"dims": list(X.shape), "data": X.ravel().tolist()}
    if meta is not None:
        doc["meta"] = meta
    # json.dumps runs the C encoder; json.dump to a file runs the pure
    # Python one, for the same bytes
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")


def _parse_json(blob: bytes, path) -> tuple[np.ndarray, dict]:
    """Tensor and `meta` object ({} when absent or not an object) of the
    bytes of a JSON tensor file."""
    try:
        doc = json.loads(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: not a TKR1 binary or JSON tensor file "
                         f"({exc})") from None
    if not isinstance(doc, dict) or "dims" not in doc or "data" not in doc:
        raise ValueError(f"{path}: expected an object with dims and data")
    meta = doc.get("meta")
    return (_file_payload(path, doc["dims"], doc["data"]),
            meta if isinstance(meta, dict) else {})


def save_tensor_binary(path, X: np.ndarray) -> None:
    X = np.ascontiguousarray(X, dtype=float)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<3Q", *X.shape))
        fh.write(X.astype("<f8").tobytes())


def _parse_binary(blob: bytes, path) -> np.ndarray:
    """Tensor of the bytes of a binary tensor file; the caller has matched
    the magic."""
    if len(blob) < 28:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack("<3Q", blob[4:28])
    n = dims[0] * dims[1] * dims[2]
    payload = blob[28:]
    if len(payload) != 8 * n:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, dims {dims} need {8 * n}")
    return _file_payload(path, dims, np.frombuffer(payload, dtype="<f8"))


def load_tensor(path):
    """Load a tensor file from one read, sniffing the binary magic, else
    JSON.  Returns (tensor, meta): the JSON file's `meta` object, or {} for
    a binary file or where it is absent or not an object."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] == MAGIC:
        return _parse_binary(blob, path), {}
    return _parse_json(blob, path)
