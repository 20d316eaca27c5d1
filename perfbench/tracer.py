"""Per-layer tracing of krybound from outside the package.

The traced run wraps public functions of each package module in spans
(name, start, end, parent) kept in memory, plus counting wrappers on the
DD/CDD arithmetic.  Each wrapper replaces the original under every name
that refers to it, in every loaded ``krybound`` module and in the DD and
CDD classes, so ``from .linalg import lstsq`` call sites are traced too.
Spans are written out only when the run ends; self time is a span's
duration minus the durations of its child spans.

Derived counts (all deterministic for a fixed seed):

- ``dd.ops``/``dd.elems``: DD and CDD arithmetic calls and the elements
  they produce.  A CDD call counts once itself and once per DD call it
  makes, so ``dd.elems_per_op`` measures how well calls are batched.
- ``dd.matmul.madds``: real DD multiply-adds in the matmul kernel.
- ``dd.bytes_computed``: 16 bytes per DD element read or written by the
  real DD kernels, computed from array sizes (not measured traffic).
- ``nrsor.col_updates``: inner steps x columns, summed over sweeps.
- ``gmres.vdots_per_iter``: ``dd.vdot`` calls made directly by the
  GMRES engine (Arnoldi orthogonalization) per iteration.
- ``linalg.lu_per_eigenvalue``: LU factorizations inside the eigensolver
  per eigenvalue returned, counting inverse-iteration retries.
- ``linalg.spectral_norm.svd_fallbacks``: Jacobi SVDs run by
  ``spectral_norm`` after power iteration stagnated.
- ``bounds.bound_curve.clamped_frac``: share of k at which the running
  minimum discarded the ``vandermonde_min`` result (wasted solves).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, function) pairs wrapped in spans named "<module>.<function>"
SPANS = (
    ("cli", "main"),
    ("generators", "load_matrix_market"),
    ("generators", "exp_decay_matrix"),
    ("traceio", "write_csv"),
    ("gmres", "gmres"),
    ("gmres", "ba_gmres"),
    ("nrsor", "nrsor_config"),
    ("nrsor", "nrsor_apply"),
    ("nrsor", "preconditioned_matrix"),
    ("bounds", "decompose_rhs"),
    ("bounds", "bound_curve"),
    ("bounds", "vandermonde_min"),
    ("bounds", "weighted_norm"),
    ("linalg", "eig_nonsymmetric"),
    ("linalg", "lu_factor"),
    ("linalg", "lu_solve"),
    ("linalg", "lstsq"),
    ("linalg", "householder_qr"),
    ("linalg", "spectral_norm"),
    ("linalg", "jacobi_svd"),
    ("dd", "vdot"),
    ("dd", "norm2"),
)
# DD.__matmul__ and friends share one span name
MATMUL = "dd.matmul"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANS) + (MATMUL,)
SPAN_STATS = ("calls", "self_s", "total_s", "errors")

ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "__abs__", "__matmul__", "__rmatmul__", "sum", "abs2")
DD_BYTES = 16
GMRES_SPANS = ("gmres.gmres", "gmres.ba_gmres")

DERIVED_UNITS = {
    "dd.ops": "count",
    "dd.elems": "count",
    "dd.elems_per_op": "count/op",
    "dd.matmul.madds": "count",
    "dd.madds_per_s": "1/s",
    "dd.bytes_computed": "B",
    "nrsor.col_updates": "count",
    "nrsor.col_updates_per_s": "1/s",
    "gmres.iterations": "count",
    "gmres.vdots_per_iter": "count/iter",
    "linalg.lu_per_eigenvalue": "count/eig",
    "linalg.spectral_norm.svd_fallbacks": "count",
    "bounds.bound_curve.clamped_frac": "fraction",
    "bounds.bound_curve.slack_log10": "log10",
    "trace.overhead_frac": "fraction",
}


def per_layer_units():
    """Every metric ``Tracer.layer_metrics`` reports, with its unit."""
    units = {f"{n}.{s}": "s" if s.endswith("_s") else "count"
             for n in SPAN_NAMES for s in SPAN_STATS}
    units.update(DERIVED_UNITS)
    return units


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, _, t0, t1, _) in enumerate(spans)]


def nested_flags(spans):
    """True for each span with an ancestor of the same name (recursion);
    total_s leaves those out so no interval is counted twice."""
    flags = []
    for parent, name, *_ in spans:
        p = parent
        while p >= 0 and spans[p][1] != name:
            p = spans[p][0]
        flags.append(p >= 0)
    return flags


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans = []      # (parent index, name, start, end, error)
        self.stack = []      # (index, name) of each open span
        self.active = dict.fromkeys(SPAN_NAMES, 0)
        self.c = dict.fromkeys((
            "dd.ops", "dd.elems", "dd.matmul.madds", "dd.bytes_computed",
            "nrsor.col_updates", "gmres.iterations", "gmres.vdots",
            "linalg.eig_lu", "linalg.eigenvalues",
            "linalg.spectral_norm.svd_fallbacks", "bounds.vmin_k",
            "bounds.vmin_clamped"), 0)
        self.vmin_best = []  # running minimum of each open bound_curve

    def parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def span(self, name, fn):
        spans, stack, active = self.spans, self.stack, self.active
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, True, args, None)
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            active[name] += 1
            error = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (stack[-1][0] if stack else -1, name, t0, t1,
                              error)
            if hook is not None:
                hook(self, False, args, out)
            return out
        return wrapper

    def counted(self, fn, real):
        c = self.c

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            size = getattr(out, "size", 1)
            c["dd.ops"] += 1
            c["dd.elems"] += size
            if real:
                ins = x.size + sum(getattr(a, "size", 1) for a in args)
                c["dd.bytes_computed"] += DD_BYTES * (ins + size)
            return out
        return wrapper

    def madds(self, fn):
        c = self.c

        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            # m*k*n for every rank pair: 1-d operands contribute 1
            c["dd.matmul.madds"] += a.size * (b.size // max(b.shape[0], 1))
            return out
        return wrapper

    def layer_metrics(self, traced_s, untraced_s):
        """Per-layer metric values of the finished traced repetition."""
        if self.stack or None in self.spans:
            raise RuntimeError("tracer finished with open spans")
        agg = {n: dict.fromkeys(SPAN_STATS, 0) for n in SPAN_NAMES}
        selfs = self_times(self.spans)
        nested = nested_flags(self.spans)
        for i, (_, name, t0, t1, error) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["errors"] += int(error)
            a["self_s"] += selfs[i]
            if not nested[i]:
                a["total_s"] += t1 - t0
        out = {f"{n}.{s}": v for n, a in agg.items() for s, v in a.items()}
        c = self.c
        for key in ("dd.ops", "dd.elems", "dd.matmul.madds",
                    "dd.bytes_computed", "nrsor.col_updates",
                    "gmres.iterations", "linalg.spectral_norm.svd_fallbacks"):
            out[key] = c[key]
        out["dd.elems_per_op"] = ratio(c["dd.elems"], c["dd.ops"])
        out["dd.madds_per_s"] = ratio(c["dd.matmul.madds"],
                                      out[MATMUL + ".total_s"])
        out["nrsor.col_updates_per_s"] = ratio(
            c["nrsor.col_updates"], out["nrsor.nrsor_apply.total_s"])
        out["gmres.vdots_per_iter"] = ratio(c["gmres.vdots"],
                                            c["gmres.iterations"])
        out["linalg.lu_per_eigenvalue"] = ratio(c["linalg.eig_lu"],
                                                c["linalg.eigenvalues"])
        out["bounds.bound_curve.clamped_frac"] = ratio(
            c["bounds.vmin_clamped"], c["bounds.vmin_k"])
        out["trace.overhead_frac"] = ratio(traced_s - untraced_s, untraced_s)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index,parent,name,start_s,end_s,error\n")
            for i, (parent, name, t0, t1, error) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0:.9f},{t1:.9f},"
                         f"{int(error)}\n")


# ------------------------------------------------------------------ hooks
# hook(tracer, entering, args, result): counts taken at span boundaries

def _gmres_hook(tr, entering, args, out):
    if not entering:
        tr.c["gmres.iterations"] += out.iterations


def _vdot_hook(tr, entering, args, out):
    if entering and tr.parent_name() in GMRES_SPANS:
        tr.c["gmres.vdots"] += 1


def _nrsor_hook(tr, entering, args, out):
    if entering:
        a, cfg = args[0], args[1]
        tr.c["nrsor.col_updates"] += cfg.inner_steps * a.shape[1]


def _lu_hook(tr, entering, args, out):
    if entering and tr.active["linalg.eig_nonsymmetric"]:
        tr.c["linalg.eig_lu"] += 1


def _eig_hook(tr, entering, args, out):
    if not entering and not tr.active["linalg.eig_nonsymmetric"]:
        tr.c["linalg.eigenvalues"] += out.values.shape[0]


def _svd_hook(tr, entering, args, out):
    if entering and tr.parent_name() == "linalg.spectral_norm":
        tr.c["linalg.spectral_norm.svd_fallbacks"] += 1


def _curve_hook(tr, entering, args, out):
    if entering:
        tr.vmin_best.append(None)
    else:
        tr.vmin_best.pop()


def _vmin_hook(tr, entering, args, out):
    if entering or not tr.vmin_best:
        return
    from krybound import dd
    value = float(dd.approx(out[0]))
    best = tr.vmin_best[-1]
    tr.c["bounds.vmin_k"] += 1
    # mirrors bound_curve's running-minimum clamp
    if best is not None and value > best:
        tr.c["bounds.vmin_clamped"] += 1
    else:
        tr.vmin_best[-1] = value


_HOOKS = {
    "gmres.gmres": _gmres_hook,
    "gmres.ba_gmres": _gmres_hook,
    "dd.vdot": _vdot_hook,
    "nrsor.nrsor_apply": _nrsor_hook,
    "linalg.lu_factor": _lu_hook,
    "linalg.eig_nonsymmetric": _eig_hook,
    "linalg.jacobi_svd": _svd_hook,
    "bounds.bound_curve": _curve_hook,
    "bounds.vandermonde_min": _vmin_hook,
}


# --------------------------------------------------------------- patching

def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "krybound" or
                                  k.startswith("krybound."))]


@contextlib.contextmanager
def installed(tracer):
    """Patch every wrapper in for the duration of the block.

    Raises if any module or class still refers to an unwrapped original
    afterwards: a call through such a name would bypass the span.
    """
    import krybound.cli  # noqa: F401  (loads every traced module)
    from krybound import dd
    mods = _package_modules()
    owners = mods + [dd.DD, dd.CDD]
    undo = []
    originals = []

    def replace(orig, new):
        originals.append(orig)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    undo.append((owner, key, value))
                    setattr(owner, key, new)

    try:
        seen = set()
        for cls, real in ((dd.DD, True), (dd.CDD, False)):
            for meth in ARITH_METHODS:
                fn = vars(cls).get(meth)
                if fn is not None and fn not in seen:
                    wrapped = tracer.counted(fn, real)
                    seen.add(wrapped)
                    replace(fn, wrapped)
        replace(dd._sqrt_dd, tracer.counted(dd._sqrt_dd, True))
        replace(dd._matmul, tracer.madds(dd._matmul))
        pkg = {m.__name__.rpartition(".")[2]: m for m in mods}
        for mod, fn in SPANS:
            orig = getattr(pkg[mod], fn)
            replace(orig, tracer.span(f"{mod}.{fn}", orig))
        for cls in (dd.DD, dd.CDD):
            for meth in ("__matmul__", "__rmatmul__"):
                fn = vars(cls)[meth]
                replace(fn, tracer.span(MATMUL, fn))
        left = {o.__qualname__ for o in originals for owner in owners
                for v in vars(owner).values() if v is o}
        if left:
            raise RuntimeError(f"unwrapped references remain: {sorted(left)}")
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
