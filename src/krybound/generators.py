"""Problem constructors: the rank-deficient stair matrix, the
exponential-decay nonsymmetric matrix, prescribed-residual-curve
construction, and Matrix Market file ingestion.

All constructors are deterministic given their parameters and seed, and
produce binary64 data; callers promote to extended precision when the
solver runs there.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dd
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

    Characteristic coefficients come from multiplying out real linear
    and quadratic factors in extended precision (clustered roots cancel
    badly in binary64), the companion matrix carries them in its last
    column, and the similarity by B = [g, e_1, ..., e_{n-1}] plants the curve:
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
    """Monic real polynomial with the given conjugate-closed roots,
    constant term first, multiplied out in extended precision: one
    factor x - z per real root and x^2 - 2a x + (a^2 + b^2) per pair
    a +- ib, taken at its member with b > 0."""
    c = dd.ones((1,))                 # degree-0 polynomial "1"
    for z in eigs:
        if z.imag < 0.0:
            continue
        a, b = dd.asdd(z.real), dd.asdd(z.imag)
        low = [-a] if z.imag == 0.0 else [a * a + b * b, a * -2.0]
        # c times x^m + low[m-1] x^(m-1) + ... + low[0], top term first
        m, deg = len(low), len(c)
        prod = dd.zeros((deg + m,))
        prod[m:] = c
        for j in reversed(range(m)):
            prod[j:j + deg] = prod[j:j + deg] + c * low[j]
        c = prod
    return c.to_float()[:len(eigs)]


# --------------------------------------------------------- Matrix Market

class MarketInstance(ProblemInstance):
    """A problem read from a Matrix Market file.  ``triples`` is its
    matrix as read, a dd.Triples; ``a``, the dense binary64 matrix, is
    built on first use, so a run that takes the triples never holds it."""

    def __init__(self, triples, b, metadata):
        self.triples, self.b, self.metadata = triples, b, metadata

    @functools.cached_property
    def a(self):
        return self.triples.toarray()


def load_matrix_market(path, rhs_path=None):
    """A real Matrix Market file as a MarketInstance; coordinate or array
    layout, general, symmetric, or skew-symmetric storage.

    The right-hand side is the single column of the array file rhs_path
    if one is given, else the row sums (a consistent system): each row's
    entries added left to right from +0.0 in binary64, a fixed order that
    no BLAS thread count changes.  The same b serves both precisions.
    """
    t = _read_mm(path)
    m = t.shape[0]
    if rhs_path is not None:
        r = _read_mm(rhs_path)
        if r.shape[1] != 1:
            raise ParseError(
                f"rhs file must be a single column, got {r.shape}")
        if r.shape[0] != m:
            raise ParseError(
                f"rhs length {r.shape[0]} does not match {m} rows")
        b = r.toarray()[:, 0]
    else:
        b = np.zeros(m)
        # np.add.at adds unbuffered, in index order; the triples are
        # row-major, so each row's sum runs left to right.  inf - inf
        # and overflow give their IEEE results
        with np.errstate(invalid="ignore", over="ignore"):
            np.add.at(b, t.rows, t.values)
    return MarketInstance(t, b, {
        "name": os.path.splitext(os.path.basename(path))[0],
        "path": str(path),
        "shape": list(t.shape),
    })


# the writer's line for +0.0, which the reader takes for +0.0 unparsed,
# as three 8-byte words at offsets 0, 8 and 15 (23 bytes)
_ZERO = f"{0.0:.17e}".encode("ascii")
_ZERO_WORDS = np.frombuffer(_ZERO[:16] + _ZERO[15:], np.uint64)


def _read_mm(path):
    # the file's matrix as dd.Triples
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty file", line=1)
        head = _text(first).split()
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
            if text and not text.startswith(b"%"):
                size = _text(text).split()
                break
        if size is None:
            raise ParseError("missing size line", line=no)
        shape, nnz = _size(size, layout, sym, no)
        if layout == "coordinate":
            rows, cols, vals = _read_coordinate(fh, shape, nnz, sym, no)
        else:
            rows, cols, vals = _read_array(fh, shape, sym, no)
    # row-major, without the +0.0 entries
    keep = (vals != 0.0) | np.signbit(vals)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, rows))
    return dd.Triples(shape, rows[order], cols[order], vals[order])


def _size(size, layout, sym, no):
    # the shape and, for the coordinate layout, the entry count
    want = 3 if layout == "coordinate" else 2
    if len(size) != want:
        raise ParseError(
            "coordinate size line needs 'rows cols entries'"
            if want == 3 else "array size line needs 'rows cols'", line=no)
    try:
        vals = [int(x) for x in size]
    except ValueError:
        raise ParseError("size entries must be integers", line=no)
    if min(vals) < 0:
        raise ParseError(f"size entries must not be negative, got "
                         f"{' '.join(size)}", line=no)
    m, n = vals[:2]
    if sym != "general" and m != n:
        raise ParseError(f"{sym} {layout} matrix must be square, got "
                         f"{m} x {n}", line=no)
    return (m, n), vals[2] if want == 3 else None


def _chunks(fh):
    # the rest of the file in blocks of about 1 MiB, each cut after its
    # last newline (a newline is added to an unterminated last line), so
    # a large file is never held whole
    tail = b""
    for data in iter(lambda: fh.read(1 << 20), b""):
        data = tail + data
        cut = data.rfind(b"\n") + 1
        tail = data[cut:]
        if cut:
            yield data[:cut]
    if tail:
        yield tail + b"\n"


def _read_coordinate(fh, shape, nnz, sym, size_line):
    # each place's values and mirrors added to +0.0 in file order, the
    # float arithmetic of `a[i, j] += v` on a zero matrix
    m, n = shape
    sums = {}
    seen = 0
    no = size_line
    for block in _chunks(fh):
        for no, text in enumerate(block[:-1].split(b"\n"), no + 1):
            text = text.strip()
            if not text or text.startswith(b"%"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(
                    f"expected 'i j value', got {len(parts)} fields", line=no)
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                v = float(parts[2])
            except ValueError:
                raise ParseError(f"cannot parse entry '{_text(text)}'",
                                 line=no)
            if not (0 <= i < m and 0 <= j < n):
                raise ParseError(f"index ({i + 1}, {j + 1}) outside "
                                 f"{m} x {n}", line=no)
            sums[i, j] = sums.get((i, j), 0.0) + v
            if sym == "symmetric" and i != j:
                sums[j, i] = sums.get((j, i), 0.0) + v
            elif sym == "skew-symmetric":
                if i == j:
                    raise ParseError("skew-symmetric diagonal entry", line=no)
                sums[j, i] = sums.get((j, i), 0.0) - v
            seen += 1
    if seen != nnz:
        raise ParseError(
            f"header promised {nnz} entries but file has {seen}", line=no)
    places = np.array(list(sums), dtype=np.intp).reshape(-1, 2)
    return places[:, 0], places[:, 1], np.fromiter(sums.values(), float,
                                                   len(sums))


def _read_array(fh, shape, sym, size_line):
    # the column-major body's values with their places, and the mirrors
    # of a triangle's values: v (symmetric) or -v (skew-symmetric)
    m, n = shape
    strict = sym == "skew-symmetric"
    # the number of values each column lists
    lengths = np.full(n, m) if sym == "general" else \
        m - np.arange(n) - strict
    want = int(lengths.sum())
    places, vals = [], []
    seen = 0
    no = size_line
    for block in _chunks(fh):
        got, lines = _array_values(block, no + 1)
        # +0.0 is left out, except in a skew triangle: its mirror is -0.0
        keep = np.flatnonzero((got != 0.0) | np.signbit(got) | strict)
        places.append(seen + keep)
        vals.append(got[keep])
        seen += len(got)
        no += lines
    if seen != want:
        what = "values" if sym == "general" else "triangle values"
        raise ParseError(f"expected {want} {what}, got {seen}", line=no)
    k = np.concatenate(places) if places else np.zeros(0, dtype=np.intp)
    v = np.concatenate(vals) if vals else np.zeros(0)
    starts = np.cumsum(lengths) - lengths
    j = np.searchsorted(starts, k, side="right") - 1
    i = k - starts[j]
    if sym == "general":
        return i, j, v
    i += j + strict
    off = i != j
    return (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]),
            np.concatenate([v, -v[off] if strict else v[off]]))


def _array_values(block, first):
    # a block's values and its line count, one value per line: the
    # writer's zero line is +0.0 unparsed, found by comparing three
    # unaligned 8-byte words at each 23-byte line, and every other line
    # goes to float(), which takes the whitespace around a value;
    # anything else falls back to the line-by-line scan
    ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    vals = np.zeros(len(ends))
    put = ends - starts != len(_ZERO)       # the lines float() reads
    at = starts[~put]
    if len(at):
        # word k holds bytes k..k+7 of the block
        words = np.ndarray((len(block) - 7,), np.uint64, block, strides=(1,))
        put[~put] = (words[at] != _ZERO_WORDS[0]) | \
            (words[at + 8] != _ZERO_WORDS[1]) | \
            (words[at + 15] != _ZERO_WORDS[2])
    try:
        vals[put] = [float(block[i:j]) for i, j in
                     zip(starts[put].tolist(), ends[put].tolist())]
    except ValueError:
        vals = np.array(_scan_values(block[:-1].split(b"\n"), first),
                        dtype=float)
    return vals, len(ends)


def _scan_values(lines, first):
    # line-by-line fallback: skips comments and blank lines, names the
    # first line that does not parse
    vals = []
    for no, text in enumerate(lines, first):
        text = text.strip()
        if not text or text.startswith(b"%"):
            continue
        try:
            vals.append(float(text))
        except ValueError:
            raise ParseError(f"cannot parse value '{_text(text)}'",
                             line=no)
    return vals


def _text(line):
    return line.decode("ascii", "replace")


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
