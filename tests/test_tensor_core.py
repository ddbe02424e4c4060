import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckersearch.tensor_core import (FactorPoint, flatten, hosvd,
                                      load_tensor, multilinear_transform,
                                      norm_f, random_point, save_tensor_binary,
                                      save_tensor_json)

ATOL = 1e-12


def brute_force_transform(S, A, B, C):
    """Four-index definition, written with plain loops on purpose."""
    r1, r2, r3 = S.shape
    d1, d2, d3 = A.shape[1], B.shape[1], C.shape[1]
    out = np.zeros((d1, d2, d3))
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                acc = 0.0
                for x in range(r1):
                    for y in range(r2):
                        for z in range(r3):
                            acc += S[x, y, z] * A[x, i] * B[y, j] * C[z, k]
                out[i, j, k] = acc
    return out


def test_transform_matches_brute_force_all_small_dims():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r1, r2, r3, d1, d2, d3 = rng.integers(1, 5, size=6)
        S = rng.standard_normal((r1, r2, r3))
        A = rng.standard_normal((r1, d1))
        B = rng.standard_normal((r2, d2))
        C = rng.standard_normal((r3, d3))
        got = multilinear_transform(S, A, B, C)
        np.testing.assert_allclose(got, brute_force_transform(S, A, B, C),
                                   atol=ATOL)


def test_transform_identity_matrices_are_a_no_op():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((2, 3, 4))
    got = multilinear_transform(S, np.eye(2), np.eye(3), np.eye(4))
    np.testing.assert_allclose(got, S, atol=ATOL)


def test_transform_composes_mode_wise():
    # S(A1 A2, B1 B2, C1 C2) = (S(A1, B1, C1))(A2, B2, C2)
    rng = np.random.default_rng(1)
    S = rng.standard_normal((2, 2, 2))
    A1, B1, C1 = (rng.standard_normal((2, 3)) for _ in range(3))
    A2, B2, C2 = (rng.standard_normal((3, 4)) for _ in range(3))
    lhs = multilinear_transform(S, A1 @ A2, B1 @ B2, C1 @ C2)
    rhs = multilinear_transform(multilinear_transform(S, A1, B1, C1),
                                A2, B2, C2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_transform_rejects_mismatched_rows():
    S = np.zeros((2, 2, 2))
    ok = np.zeros((2, 3))
    bad = np.zeros((3, 3))
    for args in [(bad, ok, ok), (ok, bad, ok), (ok, ok, bad)]:
        with pytest.raises(ValueError):
            multilinear_transform(S, *args)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4))
def test_flatten_preserves_norm_and_entries(seed, d1, d2, d3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d1, d2, d3))
    for mode, rows in ((1, d1), (2, d2), (3, d3)):
        F = flatten(X, mode)
        assert F.shape == (rows, d1 * d2 * d3 // rows)
        np.testing.assert_allclose(np.linalg.norm(F), norm_f(X), atol=ATOL)
        assert sorted(F.ravel()) == pytest.approx(sorted(X.ravel()))


def test_flatten_mode1_rows_are_slices():
    X = np.arange(24, dtype=float).reshape(2, 3, 4)
    np.testing.assert_allclose(flatten(X, 1)[0], X[0].ravel(), atol=0)
    np.testing.assert_allclose(flatten(X, 2)[1], X[:, 1, :].ravel(), atol=0)
    np.testing.assert_allclose(flatten(X, 3)[2], X[:, :, 2].ravel(), atol=0)


def test_flatten_of_transform_factors_through_kron():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((2, 3, 2))
    A = rng.standard_normal((2, 4))
    B = rng.standard_normal((3, 3))
    C = rng.standard_normal((2, 5))
    X = multilinear_transform(S, A, B, C)
    np.testing.assert_allclose(flatten(X, 1), A.T @ flatten(S, 1) @ np.kron(B, C),
                               atol=1e-11)
    np.testing.assert_allclose(flatten(X, 2), B.T @ flatten(S, 2) @ np.kron(A, C),
                               atol=1e-11)
    np.testing.assert_allclose(flatten(X, 3), C.T @ flatten(S, 3) @ np.kron(A, B),
                               atol=1e-11)


def test_flatten_rejects_bad_mode():
    with pytest.raises(ValueError):
        flatten(np.zeros((2, 2, 2)), 0)
    with pytest.raises(ValueError):
        flatten(np.zeros((2, 2, 2)), 4)


def test_inner_and_norm_agree_with_raveled_dot():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 2, 4))
    assert norm_f(X) == pytest.approx(np.sqrt(float(X.ravel() @ X.ravel())),
                                      abs=ATOL)
    p, q = random_point(2, 3, rng), random_point(2, 3, rng)
    assert p.inner(q) == pytest.approx(
        sum(float(a.ravel() @ b.ravel())
            for a, b in zip(p.blocks(), q.blocks())), abs=ATOL)


# ---------------------------------------------------------------------------
# hosvd


def test_hosvd_recovers_exact_low_rank_tensor():
    rng = np.random.default_rng(29)
    truth = random_point(2, 6, rng)
    T = truth.apply()
    p = hosvd(T, 2)
    np.testing.assert_allclose(p.apply(), T, atol=1e-10)
    for M in (p.A, p.B, p.C):
        np.testing.assert_allclose(M @ M.T, np.eye(2), atol=1e-12)


def test_hosvd_full_rank_is_exact():
    rng = np.random.default_rng(31)
    T = rng.standard_normal((3, 3, 3))
    p = hosvd(T, 3)
    np.testing.assert_allclose(p.apply(), T, atol=1e-10)


def test_hosvd_core_energy_matches_tensor():
    rng = np.random.default_rng(37)
    T = random_point(2, 5, rng).apply()
    p = hosvd(T, 2)
    assert norm_f(p.S) == pytest.approx(norm_f(T), rel=1e-10)


def test_hosvd_rejects_bad_rank():
    T = np.zeros((3, 4, 5))
    with pytest.raises(ValueError):
        hosvd(T, 0)
    with pytest.raises(ValueError):
        hosvd(T, 4)


def test_hosvd_rows_have_positive_first_entries():
    # each factor row's first entry of magnitude above 1e-12 is positive,
    # also where the leading entries vanish
    rng = np.random.default_rng(43)
    e = np.eye(4)
    T = (np.einsum("i,j,k->ijk", e[1], e[2], e[3])
         - 2.0 * np.einsum("i,j,k->ijk", e[3], e[1], e[2]))
    for T in (random_point(2, 4, rng).apply(), T):
        p = hosvd(T, 2)
        for row in np.concatenate((p.A, p.B, p.C)):
            assert row[np.abs(row) > 1e-12][0] > 0.0


def test_hosvd_is_deterministic():
    rng = np.random.default_rng(41)
    T = random_point(2, 4, rng).apply()
    p1, p2 = hosvd(T, 2), hosvd(T, 2)
    np.testing.assert_array_equal(p1.S, p2.S)
    np.testing.assert_array_equal(p1.A, p2.A)


# ---------------------------------------------------------------------------
# FactorPoint


def test_factor_point_validates_shapes():
    with pytest.raises(ValueError):
        FactorPoint(np.zeros((2, 2, 3)), np.zeros((2, 4)), np.zeros((2, 4)),
                    np.zeros((2, 4)))
    with pytest.raises(ValueError):
        FactorPoint(np.zeros((2, 2, 2)), np.zeros((3, 4)), np.zeros((2, 4)),
                    np.zeros((2, 4)))
    with pytest.raises(ValueError):
        FactorPoint(np.zeros((2, 2, 2)), np.zeros((2, 4)), np.zeros((2, 5)),
                    np.zeros((2, 4)))


def test_factor_point_vector_space_ops():
    for r, d in ((1, 1), (1, 4), (2, 2), (2, 8), (3, 16), (4, 24)):
        _check_vector_space_ops(r, d)


def _check_vector_space_ops(r, d):
    rng = np.random.default_rng([43, r, d])
    p = random_point(r, d, rng)
    q = random_point(r, d, rng)
    c = -2.5
    cases = [(p + q, [x + y for x, y in zip(p.blocks(), q.blocks())]),
             (p - q, [x - y for x, y in zip(p.blocks(), q.blocks())]),
             (c * p, [c * x for x in p.blocks()]),
             (p * c, [c * x for x in p.blocks()]),
             (-p, [-x for x in p.blocks()])]
    for got, want in cases:
        assert [b.shape for b in got.blocks()] == [b.shape for b in want]
        for b, w in zip(got.blocks(), want):
            np.testing.assert_array_equal(b, w)
            assert not b.flags.writeable
        assert not got.flat.flags.writeable
        for operand in (p, q):
            assert not np.shares_memory(got.flat, operand.flat)
    s = p + 2.0 * q - q
    np.testing.assert_allclose(s.S, p.S + q.S, atol=ATOL)
    assert (p - p).norm() == 0.0
    assert p.inner(q) == pytest.approx(
        sum(np.vdot(a, b) for a, b in zip(p.blocks(), q.blocks())),
        abs=ATOL)
    assert p.norm() == pytest.approx(np.sqrt(p.inner(p)), abs=ATOL)


def test_factor_point_is_immutable():
    p = FactorPoint.zeros(2, 3)
    with pytest.raises(ValueError):
        p.A[0, 0] = 1.0
    with pytest.raises(ValueError):
        p.flat[0] = 1.0


def test_factor_point_copies_its_blocks():
    rng = np.random.default_rng(44)
    blocks = [rng.standard_normal((2, 2, 2))] + [
        rng.standard_normal((2, 3)) for _ in range(3)]
    p = FactorPoint(*blocks)
    for b, given in zip(p.blocks(), blocks):
        np.testing.assert_array_equal(b, given)
        assert not np.shares_memory(p.flat, given)
        assert given.flags.writeable


@pytest.mark.parametrize("r, d, seed", ((1, 1, 0), (1, 3, 1), (2, 4, 2),
                                        (3, 5, 3), (3, 7, 4), (4, 24, 5)))
def test_random_point_is_the_four_block_draws(r, d, seed):
    # one draw in flat order is bit for bit the draws of S, A, B and C in
    # turn, and leaves the generator where they leave it
    rng = np.random.default_rng(seed)
    p = random_point(r, d, rng, scale=0.7)
    ref = np.random.default_rng(seed)
    want = [0.7 * ref.standard_normal(shape)
            for shape in ((r, r, r), (r, d), (r, d), (r, d))]
    for got, block in zip(p.blocks(), want):
        assert np.array_equal(got, block)
        assert not got.flags.writeable
    assert rng.standard_normal() == ref.standard_normal()


def test_random_point_rejects_negative_sizes():
    # (-2, -3) would ask for -8 + 18 = 10 entries in one draw
    for r, d in ((-1, 2), (2, -1), (-2, -3)):
        with pytest.raises(ValueError):
            random_point(r, d, np.random.default_rng(0))


def test_norm_f_is_the_numpy_frobenius_norm_bit_for_bit():
    # C-contiguous, transposed and sliced arrays, and an integer list
    rng = np.random.default_rng(46)
    for shape in ((1,), (7,), (3, 5), (4, 4, 4), (2, 6, 3)):
        X = rng.standard_normal(shape)
        for view in (X, X.T, np.moveaxis(X, 0, -1), X[::2], X[..., ::-1],
                     X[..., 1:]):
            assert norm_f(view) == float(np.linalg.norm(view))
    assert norm_f([[3, 4], [0, 12]]) == 13.0


# ---------------------------------------------------------------------------
# file round trips


def test_tensor_json_round_trip(tmp_path):
    rng = np.random.default_rng(47)
    X = rng.standard_normal((2, 3, 4))
    path = tmp_path / "t.json"
    save_tensor_json(path, X, meta={"note": "test"})
    T, meta = load_tensor(path)
    np.testing.assert_array_equal(T, X)
    assert meta == {"note": "test"}
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["dims"] == [2, 3, 4]
    assert doc["data"][:5] == list(X[0, 0, :]) + [X[0, 1, 0]]
    assert doc["meta"] == {"note": "test"}


def test_tensor_json_bytes_match_the_streaming_encoder(tmp_path):
    # the file is written with the C encoder of json.dumps; the bytes are
    # those json.dump, the pure Python encoder, writes: negative zeros,
    # subnormals, extreme magnitudes and the meta object included
    rng = np.random.default_rng(59)
    X = rng.standard_normal((3, 4, 5))
    X.flat[:8] = (-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                  1.7976931348623157e308, -1e300, 0.1)
    meta = {"r": 2, "note": "t\u00e9st", "noise": 1e-2, "exact": False,
            "nested": {"b": [1, None], "a": -0.0}}
    path = tmp_path / "t.json"
    save_tensor_json(path, X, meta)
    reference = tmp_path / "ref.json"
    with open(reference, "w") as fh:
        json.dump({"dims": list(X.shape),
                   "data": [float(x) for x in X.ravel()], "meta": meta},
                  fh, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == reference.read_bytes()
    assert "-0.0, 0.0, 5e-324" in path.read_text()
    T, _ = load_tensor(path)
    np.testing.assert_array_equal(T, X)
    assert np.signbit(T.flat[0])


def test_tensor_json_rejects_wrong_length(tmp_path):
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump({"dims": [2, 2, 2], "data": [0.0] * 7}, fh)
    with pytest.raises(ValueError, match="does not match dims"):
        load_tensor(path)


def test_tensor_json_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.json"
    with open(path, "w") as fh:
        fh.write('{"dims": [1, 1, 2], "data": [0.0, NaN]}')
    with pytest.raises(ValueError, match="non-finite"):
        load_tensor(path)


def test_tensor_binary_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    X = rng.standard_normal((4, 1, 3))
    path = tmp_path / "t.bin"
    save_tensor_binary(path, X)
    T, meta = load_tensor(path)
    np.testing.assert_array_equal(T, X)
    assert meta == {}
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[:4] == b"TKR1"
    assert struct.unpack("<3Q", blob[4:28]) == (4, 1, 3)


def test_tensor_binary_rejects_bad_payload(tmp_path):
    # a payload one byte short, neither format, an empty file, and a
    # binary file cut inside its 28-byte header; each error names the file
    for i, (blob, message) in enumerate((
            (b"TKR1" + struct.pack("<3Q", 2, 2, 2) + b"\0" * 63, "payload"),
            (b"NOPE" + b"\0" * 60, "not a TKR1 binary or JSON tensor file"),
            (b"", "not a TKR1 binary or JSON tensor file"),
            (b"TKR1" + struct.pack("<2Q", 2, 2), "truncated header"))):
        path = tmp_path / f"bad{i}.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            load_tensor(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
