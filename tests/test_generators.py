"""Problem constructors and Matrix Market ingestion.

Oracles: numpy SVD/eig on the constructed matrices, closed-form
singular values, and hand-assembled Matrix Market files with known
dense equivalents.
"""

import math

import numpy as np
import pytest

from krybound.errors import ConstructionError, ParseError
from krybound.generators import (PrescribedCurve, exp_decay_matrix,
                                 greenbaum_construct, load_matrix_market,
                                 stair_matrix, write_matrix_market)
from krybound.gmres import GmresOptions, gmres, matrix_operator


# ---------------------------------------------------------------- stair

def test_stair_singular_values_closed_form():
    inst = stair_matrix(seed=0)
    assert inst.a.shape == (100, 20)
    sv = np.linalg.svd(inst.a, compute_uv=False)
    want = np.array([math.sqrt(2.0) * (11 - p) / 10.0 for p in range(1, 11)])
    assert np.abs(sv[:10] - want).max() < 1e-12
    assert sv[10:].max() < 1e-12


def test_stair_normal_matrix_eigenvalues():
    # nonzero eigenvalues of A^T A are 2 (11-p)^2 / 100 exactly
    inst = stair_matrix(seed=0)
    ev = np.sort(np.linalg.eigvalsh(inst.a.T @ inst.a))[::-1]
    want = np.array([2.0 * (11 - p) ** 2 / 100.0 for p in range(1, 11)])
    assert np.abs(ev[:10] - want).max() < 1e-12
    assert np.abs(ev[10:]).max() < 1e-12


def test_stair_spectrum_is_seed_invariant():
    base = np.linalg.svd(stair_matrix(seed=0).a, compute_uv=False)
    for seed in (1, 7, 123):
        sv = np.linalg.svd(stair_matrix(seed=seed).a, compute_uv=False)
        assert np.abs(sv - base).max() < 1e-10


def test_stair_rhs_consistent_by_default():
    inst = stair_matrix(seed=3)
    assert abs(np.linalg.norm(inst.b) - 1.0) < 1e-14
    x, res, *_ = np.linalg.lstsq(inst.a, inst.b, rcond=None)
    r = inst.b - inst.a @ x
    assert np.linalg.norm(r) < 1e-12


# ------------------------------------------------------------ exp decay

def test_exp_decay_singular_values_exact():
    n = 30
    inst = exp_decay_matrix(n, seed=0)
    sv = np.linalg.svd(inst.a, compute_uv=False)
    want = np.sort(1.0 - np.exp(-np.arange(1, n + 1) / 4.0))[::-1]
    assert np.abs(sv - want).max() < 1e-12
    # smallest singular value is 1 - e^{-1/4}
    assert abs(sv[-1] - 0.2212) < 1e-4


def test_exp_decay_is_nonsymmetric():
    a = exp_decay_matrix(12, seed=0).a
    assert np.abs(a - a.T).max() > 1e-2


def test_exp_decay_rhs_seeded_unit():
    i1 = exp_decay_matrix(10, seed=4)
    i2 = exp_decay_matrix(10, seed=4)
    assert np.array_equal(i1.b, i2.b)
    assert abs(np.linalg.norm(i1.b) - 1.0) < 1e-14
    assert not np.array_equal(i1.b, exp_decay_matrix(10, seed=5).b)


# ---------------------------------------------- prescribed residual curve

def _curve(norms, eigs):
    return PrescribedCurve(residual_norms=norms, eigenvalues=eigs)


def test_prescribed_curve_reference_example():
    inst = greenbaum_construct(_curve([1.0, 0.99, 0.98],
                                      [1.0, 1.01, 1.001]))
    assert np.abs(inst.b - np.array([0.1411, 0.1404, 0.98])).max() < 1e-4
    # coefficients of (z-1)(z-1.01)(z-1.001), constant first
    want = np.poly([1.0, 1.01, 1.001])[::-1][:3]
    assert np.abs(np.array(inst.metadata["char_poly"]) - want).max() < 1e-13
    ev = np.sort(np.linalg.eigvals(inst.a).real)
    assert np.abs(ev - np.array([1.0, 1.001, 1.01])).max() < 1e-6


def test_prescribed_curve_gmres_walks_it():
    norms = [1.0, 0.99, 0.98]
    inst = greenbaum_construct(_curve(norms, [1.0, 1.01, 1.001]))
    tr = gmres(matrix_operator(inst.a), inst.b,
               opts=GmresOptions(rtol=1e-14, max_iterations=3))
    got = tr.column("residual_norm")
    assert np.abs(np.array(got[:3]) - np.array(norms)).max() < 1e-8
    assert got[3] < 1e-10


def test_prescribed_curve_property_random_curves():
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        # strictly decreasing positive norms starting at 1
        drops = rng.uniform(0.05, 0.6, size=n - 1)
        norms = [1.0]
        for d in drops:
            norms.append(norms[-1] * (1.0 - d))
        eigs = []
        while len(eigs) < n:
            if n - len(eigs) >= 2 and rng.random() < 0.4:
                re = rng.uniform(0.5, 2.0)
                im = rng.uniform(0.1, 1.0)
                eigs += [complex(re, im), complex(re, -im)]
            else:
                eigs.append(complex(rng.uniform(0.5, 2.0)))
        inst = greenbaum_construct(_curve(norms, eigs))
        got = np.sort_complex(np.linalg.eigvals(inst.a))
        want = np.sort_complex(np.array(eigs))
        assert np.abs(got - want).max() < 1e-6, f"trial {trial}"
        tr = gmres(matrix_operator(inst.a), inst.b,
                   opts=GmresOptions(rtol=1e-13, max_iterations=n))
        curve = tr.column("residual_norm")[:n]
        assert np.abs(np.array(curve) - np.array(norms)).max() < 1e-6, \
            f"trial {trial}"


def test_prescribed_curve_stagnation_step_allowed():
    # equal consecutive norms zero one g entry but keep B invertible
    inst = greenbaum_construct(_curve([1.0, 0.5, 0.5, 0.2],
                                      [1.0, 2.0, 0.5, 1.5]))
    tr = gmres(matrix_operator(inst.a), inst.b,
               opts=GmresOptions(rtol=1e-13, max_iterations=4))
    got = tr.column("residual_norm")
    assert np.abs(np.array(got[:4]) - np.array([1.0, 0.5, 0.5, 0.2])).max() \
        < 1e-8


@pytest.mark.parametrize("norms,eigs,fragment", [
    ([], [], "empty"),
    ([1.0, 0.5], [1.0], "eigenvalues"),
    ([1.0, -0.5], [1.0, 2.0], "positive"),
    ([0.5, 1.0], [1.0, 2.0], "non-increasing"),
    ([1.0, 0.5], [1.0, 0.0], "singular"),
    ([1.0, 0.5], [1j, 2.0], "conjugate"),
])
def test_prescribed_curve_rejects_bad_input(norms, eigs, fragment):
    with pytest.raises(ConstructionError, match=fragment):
        greenbaum_construct(_curve(norms, eigs))


# --------------------------------------------------------- Matrix Market

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_mm_coordinate_general(tmp_path):
    path = _write(tmp_path, "d.mtx", """%%MatrixMarket matrix coordinate real general
% a comment
2 2 2
1 1 1.0
2 2 2.0
""")
    inst = load_matrix_market(path)
    assert np.array_equal(inst.a, np.diag([1.0, 2.0]))
    # default rhs is the row sums
    assert np.array_equal(inst.b, np.array([1.0, 2.0]))
    assert inst.metadata["shape"] == [2, 2]


def test_mm_coordinate_duplicates_sum(tmp_path):
    path = _write(tmp_path, "d.mtx", """%%MatrixMarket matrix coordinate real general
1 1 2
1 1 1.0
1 1 2.0
""")
    assert load_matrix_market(path).a[0, 0] == 3.0


def test_mm_coordinate_symmetric_mirrors(tmp_path):
    path = _write(tmp_path, "s.mtx", """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 2.0
2 1 3.0
2 2 4.0
""")
    assert np.array_equal(load_matrix_market(path).a,
                          np.array([[2.0, 3.0], [3.0, 4.0]]))


def test_mm_coordinate_skew_negates(tmp_path):
    path = _write(tmp_path, "k.mtx", """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 5.0
""")
    assert np.array_equal(load_matrix_market(path).a,
                          np.array([[0.0, -5.0], [5.0, 0.0]]))


def test_mm_array_general_column_major(tmp_path):
    path = _write(tmp_path, "a.mtx", """%%MatrixMarket matrix array real general
2 3
1.0
2.0
3.0
4.0
5.0
6.0
""")
    assert np.array_equal(load_matrix_market(path).a,
                          np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


def test_mm_array_symmetric_triangle(tmp_path):
    path = _write(tmp_path, "s.mtx", """%%MatrixMarket matrix array real symmetric
2 2
1.0
2.0
3.0
""")
    assert np.array_equal(load_matrix_market(path).a,
                          np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_mm_array_skew_triangle(tmp_path):
    path = _write(tmp_path, "k.mtx", """%%MatrixMarket matrix array real skew-symmetric
3 3
1.0
2.0
3.0
""")
    want = np.array([[0.0, -1.0, -2.0], [1.0, 0.0, -3.0], [2.0, 3.0, 0.0]])
    assert np.array_equal(load_matrix_market(path).a, want)


def test_mm_rhs_file(tmp_path):
    mat = _write(tmp_path, "m.mtx", """%%MatrixMarket matrix array real general
2 2
1.0
0.0
0.0
1.0
""")
    rhs = _write(tmp_path, "b.mtx", """%%MatrixMarket matrix array real general
2 1
7.0
8.0
""")
    inst = load_matrix_market(mat, rhs_path=rhs)
    assert np.array_equal(inst.b, np.array([7.0, 8.0]))


def test_mm_rhs_length_mismatch(tmp_path):
    mat = _write(tmp_path, "m.mtx", """%%MatrixMarket matrix array real general
2 2
1.0
0.0
0.0
1.0
""")
    rhs = _write(tmp_path, "b.mtx", """%%MatrixMarket matrix array real general
3 1
1.0
2.0
3.0
""")
    with pytest.raises(ParseError, match="does not match"):
        load_matrix_market(mat, rhs_path=rhs)


def test_mm_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 4))
    path = str(tmp_path / "rt.mtx")
    write_matrix_market(path, a)
    # 17 significant digits reproduce binary64 exactly
    assert np.array_equal(load_matrix_market(path).a, a)


def test_mm_write_bytes_match_per_entry_format(tmp_path):
    # +0 takes the cached line; -0, NaN, infinities and subnormals are
    # formatted one by one, and the bytes must not tell the two apart
    a = np.array([[1.5, -0.0, 1e-310, 0.0],
                  [-3.25e300, 2.0 / 3.0, np.pi, np.nan],
                  [0.0, np.inf, -np.inf, -5e-324],
                  [0.0, 0.0, 0.0, 0.0]])
    path = tmp_path / "w.mtx"
    write_matrix_market(str(path), a)
    want = "%%MatrixMarket matrix array real general\n4 4\n" + "".join(
        f"{float(a[i, j]):.17e}\n" for j in range(4) for i in range(4))
    assert path.read_bytes() == want.encode("ascii")


def test_mm_array_comments_blank_lines_and_spaces(tmp_path):
    path = _write(tmp_path, "a.mtx", """%%MatrixMarket matrix array real general
2 2
  1.0
% a comment between values

2.0\t
3.0
4.0

""")
    assert np.array_equal(load_matrix_market(path).a,
                          np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_mm_array_bad_value_names_its_line(tmp_path):
    path = _write(tmp_path, "a.mtx", """%%MatrixMarket matrix array real general
2 1
% comment
1.0

two
""")
    with pytest.raises(ParseError, match="cannot parse value 'two'") as err:
        load_matrix_market(path)
    assert "line 6:" in str(err.value)


def test_mm_array_line_numbers_across_chunks(tmp_path):
    # 80,000 values take about 1.9 MB, more than one chunk of the reader
    n = 80000
    lines = [f"{float(i):.17e}\n" for i in range(n)]
    head = f"%%MatrixMarket matrix array real general\n{n} 1\n"
    path = _write(tmp_path, "big.mtx", head + "".join(lines))
    assert np.array_equal(load_matrix_market(path).a[:, 0], np.arange(n))
    lines[60000:60000] = ["% a comment past the first chunk\n"]
    lines[75000] = "x\n"
    path = _write(tmp_path, "bad.mtx", head + "".join(lines))
    with pytest.raises(ParseError, match="cannot parse value 'x'") as err:
        load_matrix_market(path)
    assert "line 75003:" in str(err.value)


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "empty"),
    ("%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1.0\n",
     1, "header"),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0\n",
     1, "field"),
    ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
     1, "symmetry"),
    ("%%MatrixMarket matrix coordinate real general\n% only comments\n",
     2, "size"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 foo\n",
     3, "parse"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
     3, "outside"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
     3, "promised"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 1.0\n",
     3, "diagonal"),
    ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
     5, "expected 4 values"),
])
def test_mm_parse_errors_carry_line_numbers(tmp_path, text, line, fragment):
    path = _write(tmp_path, "bad.mtx", text)
    with pytest.raises(ParseError, match=fragment) as err:
        load_matrix_market(path)
    assert f"line {line}:" in str(err.value)
