"""Problem constructors and Matrix Market ingestion.

Oracles: numpy SVD/eig on the constructed matrices, closed-form
singular values, and hand-assembled Matrix Market files with known
dense equivalents.
"""

import math

import numpy as np
import pytest

from krybound import dd, generators
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


def test_prescribed_curve_coefficients_match_exact_expansion():
    # random conjugate-closed root sets: each coefficient is the exact
    # expansion rounded to binary64, or within 1 ulp of it
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(20261022)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        eigs = []
        while len(eigs) < n:
            if n - len(eigs) >= 2 and rng.random() < 0.5:
                z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.5))
                eigs += [z, z.conjugate()]
            else:
                eigs.append(complex(rng.uniform(-2.0, 2.0)))
        rng.shuffle(eigs)
        got = generators._char_poly_coefficients(eigs)
        with mp.workprec(2000):       # exact for these products
            c = [mp.mpc(1)]
            for z in eigs:
                c = [mp.mpc(0)] + c
                for i in range(len(c) - 1):
                    c[i] -= z * c[i + 1]
            want = [float(x.real) for x in c[:n]]
            assert all(x.imag == 0 for x in c)
        for g, w in zip(got, want):
            assert g == w or abs(g - w) <= np.spacing(abs(w)), trial


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


def test_mm_array_reads_row_major_across_chunks(tmp_path):
    # 307 x 211 values span two read chunks, which split a column; the
    # loaded matrix is row-major, as the generators build theirs, since
    # binary64 sums over it depend on the memory order
    a = np.random.default_rng(6).standard_normal((307, 211))
    path = str(tmp_path / "big.mtx")
    write_matrix_market(path, a)
    got = load_matrix_market(path).a
    assert got.flags.c_contiguous
    assert np.array_equal(got, a)


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
    ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n5\n",
     7, "expected 4 values, got 5"),
])
def test_mm_parse_errors_carry_line_numbers(tmp_path, text, line, fragment):
    path = _write(tmp_path, "bad.mtx", text)
    with pytest.raises(ParseError, match=fragment) as err:
        load_matrix_market(path)
    assert f"line {line}:" in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    # a mirrored entry would fall outside a non-square matrix
    ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n2 1 1.0\n",
     "symmetric coordinate matrix must be square, got 2 x 3"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n3 2 0\n",
     "skew-symmetric coordinate matrix must be square, got 3 x 2"),
    ("%%MatrixMarket matrix array real symmetric\n2 3\n1.0\n",
     "symmetric array matrix must be square"),
    ("%%MatrixMarket matrix coordinate real general\n-2 2 0\n",
     "must not be negative, got -2 2 0"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
     "must not be negative, got 2 2 -1"),
    ("%%MatrixMarket matrix array real general\n2 -3\n",
     "must not be negative, got 2 -3"),
], ids=["symmetric-coordinate", "skew-coordinate", "symmetric-array",
        "negative-rows", "negative-entries", "negative-cols"])
def test_mm_size_line_errors_name_the_size_line(tmp_path, text, fragment):
    path = _write(tmp_path, "bad.mtx", "\n% a comment first\n".join(
        text.split("\n", 1)))
    with pytest.raises(ParseError, match=fragment) as err:
        load_matrix_market(path)
    assert "line 3:" in str(err.value)


def _dense_reference(text):
    # the matrix a file stands for, entry by entry: a[i, j] += v in file
    # order for the coordinate layout, a[i, j] = v down the columns for
    # the array layout, each with its mirror
    head, *body = text.splitlines()
    layout, sym = head.split()[2], head.split()[4]
    body = [t for t in body if t.strip() and not t.lstrip().startswith("%")]
    m, n = (int(x) for x in body[0].split()[:2])
    a = np.zeros((m, n))
    if layout == "coordinate":
        for t in body[1:]:
            i, j, v = int(t.split()[0]) - 1, int(t.split()[1]) - 1, \
                float(t.split()[2])
            a[i, j] += v
            if sym == "symmetric" and i != j:
                a[j, i] += v
            elif sym == "skew-symmetric":
                a[j, i] -= v
        return a
    vals = iter(float(t) for t in body[1:])
    for j in range(n):
        start = 0 if sym == "general" else j + (sym == "skew-symmetric")
        for i in range(start, m):
            v = next(vals)
            a[i, j] = v
            if sym != "general" and i != j:
                a[j, i] = -v if sym == "skew-symmetric" else v
    return a


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def _fields(op):
    return (op.shape, _bits(op.rows), _bits(op.cols), _bits(op.values.hi),
            _bits(op.values.lo))


_SPECIAL = ("0.0", "-0.0", "nan", "-nan", "inf", "-inf", "1e308", "2.5",
            "-1.25", "0.1", f"{0.0:.17e}", f"{-0.0:.17e}")


def _coordinate_text(sym, rng):
    # 20 x 20, 24 entries on 12 places: every place given twice
    places = rng.integers(1, 21, (12, 2))
    if sym == "skew-symmetric":
        places[places[:, 0] == places[:, 1], 1] %= 20
        places[places[:, 0] == places[:, 1], 1] += 1
    lines = [f"{i} {j} {rng.choice(_SPECIAL)}"
             for i, j in np.concatenate([places, places[::-1]])]
    return (f"%%MatrixMarket matrix coordinate real {sym}\n20 20 24\n" +
            "\n".join(lines) + "\n")


def _array_text(sym, rng):
    # 20 x 20 with at most 12 of its listed values other than the
    # writer's zero line; -0.0 mirrors a skew triangle's +0.0
    count = {"general": 400, "symmetric": 210, "skew-symmetric": 190}[sym]
    vals = [f"{0.0:.17e}"] * count
    for k in rng.integers(0, count, 12):
        vals[k] = rng.choice(_SPECIAL)
    return (f"%%MatrixMarket matrix array real {sym}\n20 20\n" +
            "".join(f"{v}\n" for v in vals))


@pytest.mark.parametrize("layout", ["coordinate", "array"])
@pytest.mark.parametrize("sym", ["general", "symmetric", "skew-symmetric"])
def test_mm_triples_are_the_dense_matrix_bit_for_bit(tmp_path, layout, sym):
    # duplicates, mirrors, -0.0, NaNs of both signs and infinities: the
    # SparseDD of the triples is from_dense of the dense matrix field
    # for field, and the binary64 matrix keeps every bit, -0.0 included
    make = _coordinate_text if layout == "coordinate" else _array_text
    for seed in range(4):
        text = make(sym, np.random.default_rng(seed))
        want = _dense_reference(text)
        inst = load_matrix_market(_write(tmp_path, "t.mtx", text))
        op = dd.asmatrix(inst.triples)
        assert isinstance(op, dd.SparseDD)
        assert _fields(op) == _fields(dd.SparseDD.from_dense(want))
        assert inst.a.flags.c_contiguous
        assert _bits(inst.a) == _bits(want)
        assert inst.metadata["shape"] == [20, 20]


def test_mm_wide_file_triples_span_several_blocks(tmp_path):
    # 858 x 1682 at 1% density is 1.4 M lines, about 33 read blocks
    rng = np.random.default_rng(8)
    a = np.zeros((858, 1682))
    a.flat[rng.integers(0, a.size, a.size // 100)] = rng.standard_normal(
        a.size // 100)
    a[[0, 3, 857], [1681, 5, 0]] = -0.0, np.nan, np.inf
    path = str(tmp_path / "w.mtx")
    write_matrix_market(path, a)
    inst = load_matrix_market(path)
    assert _fields(dd.asmatrix(inst.triples)) == \
        _fields(dd.SparseDD.from_dense(a))
    assert inst.a.flags.c_contiguous and _bits(inst.a) == _bits(a)


def test_mm_other_zero_spellings_parse(tmp_path):
    spellings = ["0", "-0.0", "0.0e0", "+0.0", "0.00000000000000000E+00",
                 f"{-0.0:.17e}", f"{0.0:.17e}", " 0.0 "]
    path = _write(tmp_path, "z.mtx",
                  f"%%MatrixMarket matrix array real general\n8 1\n" +
                  "".join(f"{v}\n" for v in spellings))
    inst = load_matrix_market(path)
    want = np.array([float(v) for v in spellings])
    assert _bits(inst.a[:, 0].copy()) == _bits(want)
    # only the -0.0 entries are kept
    assert inst.triples.rows.tolist() == [1, 5]
    assert np.signbit(inst.triples.values).all()


def _line_scan(block, first):
    # the reader's line-by-line fallback, run on every block
    lines = block[:-1].split(b"\n")
    return (np.array(generators._scan_values(lines, first), dtype=float),
            len(lines))


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("extras", [False, True])
def test_mm_array_block_parse_is_the_line_scan(tmp_path, monkeypatch,
                                               ending, extras):
    # values 1 to 30 bytes wide, 23-byte lines that differ from the
    # writer's zero line in one of its three words, -0.0 and NaNs; with
    # extras, comments, blank lines and no newline after the last value
    zero = f"{0.0:.17e}"
    vals = [zero, f"{-0.0:.17e}", "-0.0", "nan", "-nan", "inf", " 2.5 ",
            "1" + zero[1:], zero[:10] + "1" + zero[11:], zero[:16] + "1" +
            zero[17:], zero[:-1] + "1"]
    vals += ["7" * w for w in range(1, 31)] + ["0." + "0" * w
                                              for w in range(29)]
    rng = np.random.default_rng(9)
    body = [vals[k] for k in rng.permutation(3 * len(vals)) % len(vals)]
    if extras:
        for k in (0, 40, 41, 150):
            body[k:k] = ["% a comment", "", "   "]
    text = ending.join(["%%MatrixMarket matrix array real general",
                        f"{len(vals)} 3"] + body) + ("" if extras else ending)
    path = tmp_path / "b.mtx"
    path.write_bytes(text.encode("ascii"))
    scans = []
    scan = generators._scan_values
    monkeypatch.setattr(generators, "_scan_values",
                        lambda *args: scans.append(1) or scan(*args))
    got = load_matrix_market(str(path))
    assert len(scans) == extras          # the fallback runs on extras only
    monkeypatch.setattr(generators, "_array_values", _line_scan)
    want = load_matrix_market(str(path))
    assert got.triples.shape == want.triples.shape
    for f in ("rows", "cols", "values"):
        assert _bits(getattr(got.triples, f)) == \
            _bits(getattr(want.triples, f)), f
    assert _bits(got.a) == _bits(want.a)
    assert np.isnan(got.a).any() and np.signbit(got.a[got.a == 0.0]).any()


def test_mm_two_values_on_a_line_name_the_line(tmp_path):
    # past the first read block, in a body of writer's zero lines
    lines = [f"{0.0:.17e}\n"] * 80000
    lines[70000] = "1.0 2.0\n"
    path = _write(tmp_path, "two.mtx",
                  "%%MatrixMarket matrix array real general\n80000 1\n" +
                  "".join(lines))
    with pytest.raises(ParseError, match="cannot parse value '1.0 2.0'") \
            as err:
        load_matrix_market(path)
    assert "line 70003:" in str(err.value)


@pytest.mark.parametrize("layout", ["coordinate", "array"])
def test_mm_row_sums_add_left_to_right(tmp_path, layout):
    # the rhs without a file is each row summed left to right from +0.0,
    # the infinities and NaNs giving their IEEE results (math.fsum
    # raises on the first two rows)
    a = np.array([[np.inf, 0.0, -np.inf, 0.0],
                  [1e308, 1e308, -1e308, 0.0],
                  [np.nan, 1.0, 0.0, 0.0],
                  [0.1, 0.2, 0.3, 0.0],
                  [1.0, 1e-16, 1e-16, -0.0],
                  [-0.0, 0.0, 0.0, -0.0],
                  [-np.inf, 2.0, 0.0, 1.0]])
    if layout == "array":
        path = str(tmp_path / "r.mtx")
        write_matrix_market(path, a)
    else:
        i, j = np.nonzero((a != 0.0) | np.isnan(a))
        path = _write(tmp_path, "r.mtx",
                      f"%%MatrixMarket matrix coordinate real general\n"
                      f"7 4 {len(i)}\n" + "".join(
                          f"{r + 1} {c + 1} {float(a[r, c])!r}\n"
                          for r, c in zip(i, j)))
    want = []
    for row in a.tolist():
        s = 0.0
        for x in row:
            s += x
        want.append(s)
    got = load_matrix_market(path).b
    assert _bits(got) == _bits(np.array(want))
    assert got[3] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
