"""Problem constructors: the rank-deficient stair matrix, the
exponential-decay nonsymmetric matrix, prescribed-residual-curve
construction, and Matrix Market file ingestion.

All constructors are deterministic given their parameters and seed, and
produce binary64 data; callers promote to extended precision when the
solver runs there.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dd
from .dd import CDD
from .errors import ConstructionError, ParseError, SingularMatrixError
from .linalg import lu_factor, lu_solve, random_orthogonal, seeded_rng

__all__ = [
    "ProblemInstance", "PrescribedCurve", "GREENBAUM_CURVE", "stair_matrix",
    "exp_decay_matrix", "greenbaum_construct", "companion_similarity",
    "load_matrix_market", "write_matrix_market",
]


@dataclass
class ProblemInstance:
    a: np.ndarray
    b: np.ndarray
    metadata: dict = field(default_factory=dict)


@dataclass
class PrescribedCurve:
    """Non-increasing positive residual norms with matching eigenvalues.

    The implicit final residual is zero; the eigenvalue multiset must be
    closed under conjugation so the constructed matrix is real.
    """
    residual_norms: list
    eigenvalues: list


# the 3x3 curve of the prescribed-residual experiments
GREENBAUM_CURVE = PrescribedCurve((1.0, 0.99, 0.98), (1.0, 1.01, 1.001))


# ----------------------------------------------------------------- stair

def stair_matrix(seed=0):
    """100 x 20 rank-10 matrix: a two-entry-per-row stair core between
    random orthogonal factors.

    Core row p (1-based, p = 1..10) carries (11 - p)/10 in columns
    2p - 1 and 2p, so the singular values are sqrt(2) * (1.0, ..., 0.1)
    regardless of seed.  The right-hand side is a seeded unit vector
    projected onto the range.
    """
    m, n = 100, 20
    s = np.zeros((m, n))
    for p in range(1, 11):
        s[p - 1, 2 * p - 2] = (11 - p) / 10.0
        s[p - 1, 2 * p - 1] = (11 - p) / 10.0
    u = random_orthogonal(m, seed=seed)
    v = random_orthogonal(n, seed=seed + 1)
    a = u @ s @ v.T
    rng = seeded_rng(seed + 2)
    raw = rng.standard_normal(m)
    raw /= np.linalg.norm(raw)
    ur = u[:, :10]                       # range basis: first 10 left factors
    b = ur @ (ur.T @ raw)
    b = b / np.linalg.norm(b)
    return ProblemInstance(a, b, {
        "name": "stair",
        "seed": seed,
        "rank": 10,
        "singular_values": [math.sqrt(2.0) * (11 - p) / 10.0
                            for p in range(1, 11)],
    })


# ------------------------------------------------------------- exp decay

def exp_decay_matrix(n, seed=0):
    """diag(1 - e^(-p/4)) times the sine orthogonal matrix, nonsymmetric.

    Right-multiplying by the orthogonal factor keeps the singular values
    at 1 - e^(-p/4) while destroying symmetry.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = np.arange(1, n + 1)
    d = 1.0 - np.exp(-p / 4.0)
    j = p[:, None]
    k = p[None, :]
    q = math.sqrt(2.0 / (n + 1)) * np.sin(j * k * math.pi / (n + 1))
    a = d[:, None] * q
    rng = seeded_rng(seed)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    return ProblemInstance(a, b, {
        "name": "exp-decay",
        "n": int(n),
        "seed": seed,
        "singular_values": sorted(d.tolist(), reverse=True),
    })


# -------------------------------------------------- prescribed residuals

def greenbaum_construct(pc):
    """Matrix and right-hand side on which GMRES walks the given curve.

    Characteristic coefficients come from incremental root
    multiplication in extended precision (clustered roots cancel badly
    in binary64), the companion matrix carries them in its last column,
    and the similarity by B = [g, e_1, ..., e_{n-1}] plants the curve:
    the k-th residual norm squared is the tail sum of g^2.
    """
    norms = [float(x) for x in pc.residual_norms]
    eigs = [complex(z) for z in pc.eigenvalues]
    n = len(norms)
    if n == 0:
        raise ConstructionError("empty residual curve")
    if len(eigs) != n:
        raise ConstructionError(
            f"{n} residual norms but {len(eigs)} eigenvalues")
    if any(x <= 0.0 for x in norms):
        raise ConstructionError("residual norms must be strictly positive")
    if any(norms[i] < norms[i + 1] for i in range(n - 1)):
        raise ConstructionError("residual norms must be non-increasing")
    if any(z == 0.0 for z in eigs):
        raise ConstructionError("zero eigenvalue makes the matrix singular")
    _check_conjugate_closed(eigs)

    coeffs = _char_poly_coefficients(eigs)       # c[0] + c[1] z + ... + z^n
    g = np.empty(n)
    prev = norms[0]
    for k in range(n):
        nxt = norms[k + 1] if k + 1 < n else 0.0
        g[k] = math.sqrt(max(prev * prev - nxt * nxt, 0.0))
        prev = nxt
    try:
        a = companion_similarity(g, coeffs)
    except SingularMatrixError as exc:
        raise ConstructionError(
            "basis matrix is singular; perturb the curve so consecutive "
            "norms differ") from exc
    return ProblemInstance(a, g.copy(), {
        "name": "prescribed-curve",
        "residual_norms": norms,
        "eigenvalues": eigs,
        "char_poly": coeffs.tolist(),
    })


def companion_similarity(g, coeffs):
    """B C B^-1 for B = [g, e_1, ..., e_{n-1}] and C the companion matrix
    of the monic polynomial with coefficients coeffs (constant first)."""
    n = len(g)
    comp = np.zeros((n, n))
    for i in range(1, n):
        comp[i, i - 1] = 1.0
    for i in range(n):
        comp[i, n - 1] = -coeffs[i]
    bmat = np.zeros((n, n))
    bmat[:, 0] = g
    for j in range(1, n):
        bmat[j - 1, j] = 1.0
    lu, piv = lu_factor(bmat.T)
    return lu_solve(lu, piv, (bmat @ comp).T).T


def _check_conjugate_closed(eigs):
    pool = list(eigs)
    while pool:
        z = pool.pop()
        if z.imag == 0.0:
            continue
        zc = z.conjugate()
        if zc not in pool:
            raise ConstructionError(
                f"eigenvalue {z} lacks its conjugate; a real matrix "
                f"needs a conjugate-closed spectrum")
        pool.remove(zc)


def _char_poly_coefficients(eigs):
    """Monic polynomial with the given roots; constant term first."""
    n = len(eigs)
    re = dd.zeros((n + 1,))
    im = dd.zeros((n + 1,))
    c = CDD(re, im)
    c[0] = 1.0                    # degree-0 polynomial "1"
    deg = 0
    for z in eigs:
        # multiply by (x - z): shift up one degree, subtract z times c
        for i in range(deg, -1, -1):
            c[i + 1] = c[i]
        c[0] = 0.0
        zc = dd.ascdd(np.asarray(z))
        for i in range(deg + 1):
            c[i] = c[i] - c[i + 1] * zc
        deg += 1
    img = dd.approx(c)
    worst = float(np.abs(img.imag).max())
    scale = float(np.abs(img.real).max())
    if worst > 1e-20 * max(scale, 1.0):
        raise ConstructionError(
            f"characteristic coefficients came out complex "
            f"(imaginary magnitude {worst:.3e})")
    return img.real[:n]


# --------------------------------------------------------- Matrix Market

def load_matrix_market(path, rhs_path=None):
    """Densify a real Matrix Market file; coordinate or array layout,
    general, symmetric, or skew-symmetric storage.

    The right-hand side is the single column of the array file rhs_path
    if one is given, else the row sums (a consistent system).
    """
    a = _read_mm(path)
    if rhs_path is not None:
        b = _read_mm(rhs_path)
        if b.ndim == 2:
            if b.shape[1] != 1:
                raise ParseError(
                    f"rhs file must be a single column, got {b.shape}")
            b = b[:, 0]
        if b.shape[0] != a.shape[0]:
            raise ParseError(
                f"rhs length {b.shape[0]} does not match {a.shape[0]} rows")
    else:
        b = a @ np.ones(a.shape[1])
    return ProblemInstance(a, b, {
        "name": os.path.splitext(os.path.basename(path))[0],
        "path": str(path),
        "shape": list(a.shape),
    })


def _read_mm(path):
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", line=1)
        head = first.strip().split()
        if len(head) != 5 or head[0] != "%%MatrixMarket" or \
                head[1].lower() != "matrix":
            raise ParseError("expected '%%MatrixMarket matrix ...' header",
                             line=1)
        layout, fld, sym = (w.lower() for w in head[2:5])
        if layout not in ("coordinate", "array"):
            raise ParseError(f"unsupported layout '{layout}'", line=1)
        if fld != "real":
            raise ParseError(f"unsupported field '{fld}' (real only)", line=1)
        if sym not in ("general", "symmetric", "skew-symmetric"):
            raise ParseError(f"unsupported symmetry '{sym}'", line=1)

        no = 1
        size = None
        for text in fh:
            no += 1
            text = text.strip()
            if text and not text.startswith("%"):
                size = text.split()
                break
        if size is None:
            raise ParseError("missing size line", line=no)

        if layout == "coordinate":
            return _read_coordinate(fh, size, sym, no)
        return _read_array(fh, size, sym, no)


def _chunks(fh):
    # the rest of the file in lists of lines of about 1 MiB, so a large
    # file is never held whole
    return iter(lambda: fh.readlines(1 << 20), [])


def _read_coordinate(fh, size, sym, size_line):
    if len(size) != 3:
        raise ParseError("coordinate size line needs 'rows cols entries'",
                         line=size_line)
    try:
        m, n, nnz = (int(x) for x in size)
    except ValueError:
        raise ParseError("size entries must be integers", line=size_line)
    a = np.zeros((m, n))
    seen = 0
    no = size_line
    for lines in _chunks(fh):
        for no, text in enumerate(lines, no + 1):
            text = text.strip()
            if not text or text.startswith("%"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(
                    f"expected 'i j value', got {len(parts)} fields", line=no)
            try:
                i, j = int(parts[0]), int(parts[1])
                v = float(parts[2])
            except ValueError:
                raise ParseError(f"cannot parse entry '{text}'", line=no)
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError(f"index ({i}, {j}) outside {m} x {n}",
                                 line=no)
            a[i - 1, j - 1] += v
            if sym == "symmetric" and i != j:
                a[j - 1, i - 1] += v
            elif sym == "skew-symmetric":
                if i == j:
                    raise ParseError("skew-symmetric diagonal entry", line=no)
                a[j - 1, i - 1] -= v
            seen += 1
    if seen != nnz:
        raise ParseError(
            f"header promised {nnz} entries but file has {seen}", line=no)
    return a


def _read_array(fh, size, sym, size_line):
    if len(size) != 2:
        raise ParseError("array size line needs 'rows cols'", line=size_line)
    try:
        m, n = (int(x) for x in size)
    except ValueError:
        raise ParseError("size entries must be integers", line=size_line)
    parts = []
    no = size_line
    for lines in _chunks(fh):
        try:
            # one value per line: float() takes the surrounding whitespace
            parts.append(np.array([float(text) for text in lines]))
        except ValueError:
            parts.append(np.array(_scan_values(lines, no + 1)))
        no += len(lines)
    vals = np.concatenate(parts) if parts else np.zeros(0)
    a = np.zeros((m, n))
    if sym == "general":
        if len(vals) != m * n:
            raise ParseError(
                f"expected {m * n} values, got {len(vals)}", line=no)
        a = vals.reshape((n, m)).T    # column-major storage
    else:
        if m != n:
            raise ParseError("symmetric array matrix must be square",
                             line=size_line)
        strict = sym == "skew-symmetric"
        want = m * (m - 1) // 2 if strict else m * (m + 1) // 2
        if len(vals) != want:
            raise ParseError(
                f"expected {want} triangle values, got {len(vals)}",
                line=no)
        it = iter(vals)
        for j in range(n):
            for i in range(j + 1 if strict else j, m):
                v = next(it)
                a[i, j] = v
                if i != j:
                    a[j, i] = -v if strict else v
    return a


def _scan_values(lines, first):
    # line-by-line fallback: skips comments and blank lines, names the
    # first line that does not parse
    vals = []
    for no, text in enumerate(lines, first):
        text = text.strip()
        if not text or text.startswith("%"):
            continue
        try:
            vals.append(float(text))
        except ValueError:
            raise ParseError(f"cannot parse value '{text}'", line=no)
    return vals


def write_matrix_market(path, a):
    """Array-format general real writer; round-trip partner of the reader."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    m, n = a.shape
    zero = f"{0.0:.17e}\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):   # one write per column keeps memory flat
            col = a[:, j]
            lines = [zero] * m
            # only +0.0 takes the cached line; -0.0 and NaN are formatted
            idx = np.flatnonzero((col != 0.0) | np.signbit(col))
            for i, x in zip(idx.tolist(), col[idx].tolist()):
                lines[i] = f"{x:.17e}\n"
            fh.write("".join(lines))
