import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense import from_dense
from unruhsim import (
    ConfigError,
    DensityMatrix,
    FactorLayout,
    LayoutMismatchError,
    NotSymmetricError,
    PositivityError,
    StateVector,
    TruncationConfig,
    creation_matrix,
    partial_trace,
    sym_eigenvalues,
)
from unruhsim.fock import SYMMETRY_TOL
from unruhsim.measures import entropy_exchange, von_neumann_entropy
from unruhsim.rindler import WEDGE_I, rho_alice_rob

CFG = TruncationConfig(n_max=8)


def random_psd(rng, dim):
    m = rng.standard_normal((dim, dim))
    m = m @ m.T
    return m / np.trace(m)


def spectrum(a):
    """sym_eigenvalues of a square array, as a matrix on one factor."""
    return sym_eigenvalues(from_dense(FactorLayout((len(a),), ("x",)), a))


# ---------------------------------------------------------------- config


def test_truncation_config_validation():
    assert TruncationConfig(1).dim == 2
    with pytest.raises(ConfigError):
        TruncationConfig(0)
    with pytest.raises(TypeError):  # the cutoff is the only field
        TruncationConfig(4, abs_tol=0.0)
    cfg = TruncationConfig(np.int64(4))  # any integer type, stored as int
    assert cfg == TruncationConfig(4) and type(cfg.n_max) is int


@pytest.mark.parametrize(
    "n_max", [2.5, 4.0, np.float64(4.0), "3", None, True, np.bool_(True), 0, -3]
)
def test_truncation_config_refuses_a_non_integer_cutoff(n_max):
    # a fractional cutoff would silently give a series over a wrong level
    # count, and a string or None would fail later with a bare TypeError
    with pytest.raises(ConfigError, match="n_max must be an integer >= 1"):
        TruncationConfig(n_max)


def test_factor_layout_validation():
    lay = FactorLayout((2, 3), ("a", "b"))
    assert lay.dim == 6
    assert lay.axis("b") == 1
    with pytest.raises(LayoutMismatchError):
        FactorLayout((2, 3), ("a", "a"))
    with pytest.raises(LayoutMismatchError):
        FactorLayout((2,), ("a", "b"))
    with pytest.raises(LayoutMismatchError):
        lay.axis("c")
    sub = FactorLayout((2, 3, 4), ("a", "b", "c")).subset(("c", "a"))
    assert sub.labels == ("a", "c") and sub.dims == (2, 4)


# ---------------------------------------------------------------- ladder


def test_creation_matrix_entries():
    bdag = creation_matrix(CFG)
    assert bdag[1, 0] == 1.0
    assert np.isclose(bdag[2, 1], 1.41421356, atol=1e-8)
    for m in range(CFG.n_max):
        assert bdag[m + 1, m] == pytest.approx(math.sqrt(m + 1))
    # truncation edge: the raise out of |n_max> is dropped
    assert np.all(bdag[:, CFG.n_max] == 0.0)


def test_creation_matrix_repeated_application_norms():
    # oracle: ||(bdag)^n |0>||^2 must equal n! below the edge, 0 past it
    bdag = creation_matrix(CFG)
    vec = np.zeros(CFG.dim)
    vec[0] = 1.0
    for n in range(1, CFG.n_max + 1):
        vec = bdag @ vec
        assert float(vec @ vec) == pytest.approx(math.factorial(n), rel=1e-12)
    vec = bdag @ vec
    assert np.all(vec == 0.0)


def test_number_operator_identity():
    bdag = creation_matrix(CFG)
    num = bdag.T @ bdag
    expected = np.diag(list(range(1, CFG.n_max + 1)) + [0])
    assert np.allclose(num, expected, atol=1e-12)


# ---------------------------------------------------------------- partial trace


def test_partial_trace_keep_all_is_identity():
    rho = from_dense(FactorLayout((2, 2), ("a", "b")), np.eye(4) / 4)
    assert partial_trace(rho, ("a", "b")) is rho


def test_partial_trace_bell_reduction():
    amps = np.zeros(4)
    amps[1] = amps[2] = 1 / math.sqrt(2)
    rho = from_dense(FactorLayout((2, 2), ("a", "b")), np.outer(amps, amps))
    reduced = partial_trace(rho, ("a",))
    assert np.allclose(reduced.mat, 0.5 * np.eye(2), atol=1e-15)


def test_partial_trace_unknown_label():
    rho = from_dense(FactorLayout((2, 2), ("a", "b")), np.eye(4) / 4)
    with pytest.raises(LayoutMismatchError):
        partial_trace(rho, ("a", "zz"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    lay = FactorLayout((2, 3, 2), ("a", "b", "c"))
    rho = from_dense(lay, random_psd(rng, lay.dim))
    for keep in (("a",), ("b",), ("a", "c"), ("b", "c")):
        reduced = partial_trace(rho, keep)
        assert reduced.trace == pytest.approx(rho.trace, abs=1e-10)
        assert np.allclose(reduced.mat, reduced.mat.T, atol=1e-14)


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(7)
    lay = FactorLayout((2, 3, 4), ("a", "b", "c"))
    amps = rng.standard_normal(lay.dim)
    amps /= np.linalg.norm(amps)
    psi = from_dense(lay, amps)
    rho = from_dense(lay, np.outer(psi.amps, psi.amps))
    for keep in (("a",), ("c",), ("a", "b"), ("b", "c")):
        direct = psi.reduced_density(keep)
        traced = partial_trace(rho, keep)
        assert direct.layout == traced.layout
        assert np.allclose(direct.mat, traced.mat, atol=1e-13)


# ---------------------------------------------------------------- state / density types


def test_states_are_built_from_entries_only():
    # no dense constructor and no dense spectrum: an array becomes a state
    # through from_entries over its nonzeros (tests/dense.py)
    lay = FactorLayout((2,), ("x",))
    with pytest.raises(TypeError):
        StateVector(lay, np.array([1.0, 0.0]))
    with pytest.raises(TypeError):
        DensityMatrix(lay, np.eye(2) / 2)
    with pytest.raises(AttributeError):
        sym_eigenvalues(np.eye(2) / 2)


def test_state_vector_rejects_overnormalized():
    lay = FactorLayout((2,), ("x",))
    with pytest.raises(ConfigError):
        from_dense(lay, np.array([1.0, 1.0]))


@pytest.mark.parametrize("amps", [[math.nan, 0.0], [math.nan, math.nan], [math.inf, 0.0]])
def test_state_vector_rejects_nan_and_inf(amps):
    # a NaN norm compares false against any bound, so the check is written
    # to fail it
    lay = FactorLayout((2,), ("x",))
    with pytest.raises(ConfigError, match="norm"):
        from_dense(lay, np.array(amps))


def test_density_matrix_rejects_asymmetric():
    lay = FactorLayout((2,), ("x",))
    with pytest.raises(NotSymmetricError):
        from_dense(lay, np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "entries",
    [
        [[1.0, math.nan], [0.0, 1.0]],
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.nan, 0.0], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
        [[1.0, math.inf], [math.inf, 1.0]],
    ],
)
def test_non_finite_entries_are_refused(entries):
    # the skew of a NaN or inf entry is NaN (inf - inf), which must not pass
    # as symmetric
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotSymmetricError, match="nan"):
            from_dense(FactorLayout((2,), ("a",)), np.array(entries))


def test_symmetry_tolerance_is_inclusive():
    # a skew of exactly the tolerance is still accepted
    rho = from_dense(FactorLayout((2,), ("a",)), np.array([[1.0, 1e-10], [0.0, 1.0]]))
    assert sym_eigenvalues(rho).shape == (2,)


def test_entry_form_is_the_dense_form():
    # entries listed at one position are added in the order listed, exact
    # zeros are dropped, and the dense view puts every value back in place
    lay = FactorLayout((2, 2), ("a", "b"))
    rho = DensityMatrix.from_entries(
        lay, [3, 0, 1, 2, 1, 2], [3, 0, 2, 1, 2, 2], [0.25, 0.5, 0.125, 0.25, 0.125, 0.0]
    )
    mat = np.zeros((4, 4))
    mat[0, 0], mat[3, 3], mat[1, 2], mat[2, 1] = 0.5, 0.25, 0.25, 0.25
    assert np.array_equal(rho.mat, mat)
    assert rho.rows.tolist() == [0, 1, 2, 3] and rho.cols.tolist() == [0, 2, 1, 3]
    dense = from_dense(lay, mat)
    assert np.array_equal(dense.rows, rho.rows) and np.array_equal(dense.vals, rho.vals)
    assert rho.shape == (4, 4) and rho.trace == 0.75
    psi = StateVector.from_entries(lay, [2, 1], [0.6, 0.8])
    assert psi.index.tolist() == [1, 2] and np.array_equal(psi.amps, [0.0, 0.8, 0.6, 0.0])
    with pytest.raises(LayoutMismatchError):
        DensityMatrix.from_entries(lay, [4], [0], [1.0])
    with pytest.raises(LayoutMismatchError):
        StateVector.from_entries(lay, [0, 1], [1.0])


@pytest.mark.parametrize("value", [1e-6, math.nan, math.inf, -math.inf])
def test_entry_form_refuses_a_one_sided_entry(value):
    # an entry whose mirror is not listed is held against 0.0: 1e-6 off is
    # no rounding, and a NaN or inf entry is never symmetric
    lay = FactorLayout((3,), ("a",))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotSymmetricError):
            DensityMatrix.from_entries(lay, [0, 1, 0], [0, 1, 2], [1.0, 1.0, value])


@pytest.mark.parametrize(
    "rows, cols, vals",
    [
        ([0, 1], [0, 1], [math.nan, 1.0]),
        ([0, 1], [0, 1], [math.inf, 1.0]),
        ([0, 2], [2, 0], [math.inf, math.inf]),
        ([0, 2], [2, 0], [math.nan, math.nan]),
    ],
    ids=["nan-diagonal", "inf-diagonal", "inf-pair", "nan-pair"],
)
def test_entry_form_refuses_non_finite_entries(rows, cols, vals):
    # a NaN or inf entry, on the diagonal or with its mirror listed too, makes
    # the skew NaN
    with pytest.raises(NotSymmetricError, match="nan"):
        DensityMatrix.from_entries(FactorLayout((3,), ("a",)), rows, cols, vals)


def test_density_matrix_assert_psd():
    lay = FactorLayout((2,), ("x",))
    good = from_dense(lay, np.diag([1.0, -5e-11]))
    ev = good.assert_psd()
    assert ev[1] == 0.0  # clamped float-noise window
    bad = from_dense(lay, np.diag([1.0, -1e-6]))
    with pytest.raises(PositivityError):
        bad.assert_psd()
    # the clamp applies at every size, 1 x 1 included
    one = from_dense(FactorLayout((1,), ("x",)), [[-SYMMETRY_TOL / 2]])
    assert one.assert_psd().tolist() == [0.0]


# ---------------------------------------------------------------- eigensolver


def test_sym_eigenvalues_diagonal_case():
    ev = spectrum(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(ev, [3.0, 2.0, 1.0])


def test_sym_eigenvalues_two_by_two():
    ev = spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(ev, [1.0, -1.0], atol=1e-14)


def test_sym_eigenvalues_rank_one_squeezing_block():
    # a weighted block [[1, x], [x, x^2]] with x = sqrt(n+1)/cosh r is rank 1:
    # its spectrum is {weight * (1 + (n+1)/cosh^2 r), 0}
    r, n = 0.8, 2
    ch = math.cosh(r)
    a_n = math.tanh(r) ** (2 * n) / (2 * ch**2)
    x = math.sqrt(n + 1) / ch
    block = a_n * np.array([[1.0, x], [x, x * x]])
    ev = spectrum(block)
    assert ev[0] == pytest.approx(a_n * (1 + (n + 1) / ch**2), rel=1e-13)
    assert abs(ev[1]) <= 1e-15


def test_sym_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a skew of 0.4 is no rounding, whatever tolerance a caller works at
    with pytest.raises(NotSymmetricError):
        spectrum(np.array([[1.0, 0.4], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
@example(1, 0)
def test_sym_eigenvalues_matches_lapack(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    m = 0.5 * (m + m.T)
    ours = spectrum(m)
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert np.allclose(ours, ref, atol=1e-9)


def test_sym_eigenvalues_matches_lapack_medium():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((40, 40))
    m = 0.5 * (m + m.T)
    ours = spectrum(m)
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    assert np.allclose(ours, ref, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_sym_eigenvalue_sum_equals_trace(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_psd(rng, dim)
    ev = spectrum(m)
    assert float(ev.sum()) == pytest.approx(float(np.trace(m)), abs=SYMMETRY_TOL)
    assert ev[-1] >= -SYMMETRY_TOL


def clamped(ev):
    ev = ev.copy()
    ev[(ev >= -SYMMETRY_TOL) & (ev < 0.0)] = 0.0
    return ev


@pytest.fixture
def solved_blocks(monkeypatch):
    """Sizes of the blocks sym_eigenvalues hands to np.linalg.eigvalsh."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        a = np.asarray(a)
        sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


def test_sym_eigenvalues_planted_blocks(solved_blocks):
    # blocks of sizes 1, 2, 3 and 5 plus three all-zero rows, scattered by a
    # random permutation, against one dense solve of the whole matrix
    rng = np.random.default_rng(11)
    sizes = (1, 2, 3, 5)
    dim = sum(sizes) + 3
    a = np.zeros((dim, dim))
    lo = 0
    for s in sizes:
        m = rng.standard_normal((s, s))
        a[lo : lo + s, lo : lo + s] = m + m.T
        lo += s
    perm = rng.permutation(dim)
    a = a[np.ix_(perm, perm)]
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    solved_blocks.clear()
    ev = spectrum(a)
    assert sorted(solved_blocks) == [1, 1, 1, 1, 2, 3, 5]
    assert np.abs(ev - clamped(ref)).max() <= 1e-13 * np.linalg.norm(a, 2)


def test_sym_eigenvalues_one_component_is_the_dense_solve():
    # a dense matrix and a randomly permuted 514-chain are one block each;
    # they take the same path and give exactly the dense LAPACK spectrum
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((60, 60))
    dense += dense.T
    dim = 514
    order = rng.permutation(dim)
    chain = np.zeros((dim, dim))
    chain[order[:-1], order[1:]] = rng.uniform(0.5, 1.5, dim - 1)
    chain += chain.T + np.diag(rng.standard_normal(dim))
    for a in (dense, chain):
        ref = clamped(np.sort(np.linalg.eigvalsh(0.5 * (a + a.T)))[::-1])
        assert spectrum(a).tobytes() == ref.tobytes()


def test_sym_eigenvalues_tiny_one_sided_entry_joins_blocks(solved_blocks):
    # an entry of 1e-12 above the diagonal only (within the symmetry
    # tolerance) still joins indices 0 and 2 into one block, and splits
    # their degenerate pair into 1 +- 5e-13
    a = np.diag([1.0, 2.0, 1.0])
    a[0, 2] = 1e-12
    ev = spectrum(a)
    assert sorted(solved_blocks) == [1, 2]
    assert np.allclose(ev, [2.0, 1.0 + 5e-13, 1.0 - 5e-13], rtol=0.0, atol=1e-15)


def test_entry_form_one_sided_entry_joins_blocks(solved_blocks):
    # the planted 1e-12 entry above the diagonal, given as entries: its
    # missing mirror is within the symmetry tolerance, and it still joins
    # indices 0 and 2 into one block
    rho = DensityMatrix.from_entries(
        FactorLayout((3,), ("a",)), [0, 1, 2, 0], [0, 1, 2, 2], [1.0, 2.0, 1.0, 1e-12]
    )
    ev = sym_eigenvalues(rho)
    assert sorted(solved_blocks) == [1, 2]
    a = np.diag([1.0, 2.0, 1.0])
    a[0, 2] = 1e-12
    assert ev.tobytes() == spectrum(a).tobytes()


def test_oracle_spectra_are_solved_block_by_block(solved_blocks):
    # rho_AR is a sum of rank-1 2 x 2 blocks, and Rob's and wedge II's
    # reductions are diagonal: a fallback to one dense solve fails here
    cfg = TruncationConfig(256)
    rho = rho_alice_rob(1.0, cfg)
    von_neumann_entropy(rho, cfg)
    assert solved_blocks and max(solved_blocks) == 2
    for reduced in (
        lambda: von_neumann_entropy(partial_trace(rho, (WEDGE_I,)), cfg),
        lambda: entropy_exchange(1.0, cfg),
    ):
        solved_blocks.clear()
        reduced()
        assert solved_blocks and set(solved_blocks) == {1}

