"""Hypothesis scans with witnesses, involution-law suites for the
stabilized map, bound / uniqueness / C*-identity certification, and the
JSON text of the stage results.

Suprema are taken over the sampled probe region only; violations are
reported as data, never raised.  Each stage takes its probe set as one stack
P shaped (N, *spec.shape), and its witnesses hold rows of P.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import algebra, maps, stabilizer
from .algebra import AlgebraSpec
from .errors import OutOfRange
from .maps import ApproxMap, LambdaSampler
from .stabilizer import ControlFunction, ScalingDirection, StabilizationTrace

INF = math.inf
# A zero closeness bound (superstability) passes when the difference is at
# most ZERO_BOUND_ABS; two stabilized maps agree within UNIQUENESS_TOL; the
# relative C* defect passes at most CSTAR_TOL.
ZERO_BOUND_ABS = 1e-9
UNIQUENESS_TOL = 1e-6
CSTAR_TOL = 1e-8


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den by rows, with 0/0 := 0 so exact involutions pass
    product-control scans; a positive defect over zero control is inf."""
    return np.where(den == 0.0, np.where(num == 0.0, 0.0, INF), num / den)


class StabilizedMap:
    """The stabilized map I of f, memoized: each point is stabilized once,
    and its ladder is kept.  Build one per map and pass it to every stage.
    A stage asks for all the values it needs in one `limits` or `traces`
    call, so its uncached points share one stacked evaluation."""

    def __init__(self, f: ApproxMap, direction: ScalingDirection, phi: ControlFunction):
        self.f = f
        self.direction = direction
        self.phi = phi
        # Row bytes -> the row's index into the one trace of every row stabilized.
        self._index: dict[bytes, int] = {}
        empty = np.empty(0)
        self._trace = StabilizationTrace(np.zeros(1, np.intp), np.empty(0, np.intp),
                                         np.empty((0, *f.spec.shape), np.complex128),
                                         empty, empty, empty)

    def _indices(self, X: np.ndarray) -> np.ndarray:
        """The index of each row of a stack X into the trace; the distinct
        uncached rows are stabilized in one batch, appended to the trace; a
        batch that raises caches nothing.  A real X is keyed, and
        stabilized, as its complex cast."""
        X = np.asarray(X, dtype=np.complex128)
        # One void item per row, whose bytes are row.tobytes().
        rows = np.ascontiguousarray(X).reshape(len(X), math.prod(X.shape[1:]))
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        # One dict operation per key; a new key is numbered in first-seen order.
        index, known = self._index, len(self._index)
        indices = np.fromiter([index.setdefault(key, len(index)) for key in keys],
                              np.intp, count=len(keys))
        if len(index) > known:
            try:
                # The new keys, the last in the index, are the new rows' bytes
                # in first-seen order.
                new = [*itertools.islice(reversed(index), len(index) - known)][::-1]
                todo = np.frombuffer(b"".join(new), np.complex128).reshape(-1, *X.shape[1:])
                batch = stabilizer.stabilize_points(self.f, self.direction, self.phi, todo)
                kept = self._trace
                self._trace = StabilizationTrace(
                    np.concatenate([kept.offsets, batch.offsets[1:] + kept.offsets[-1]]),
                    *(np.concatenate([getattr(kept, name), getattr(batch, name)])
                      for name in ("depths", "iterates", "gaps", "radius", "bound")))
            except BaseException:
                # A failing batch caches nothing: pop the keys it added, the last in.
                for _ in range(len(index) - known):
                    index.popitem()
                raise
        return indices

    def traces(self, X: np.ndarray) -> StabilizationTrace:
        """The ladders of the rows of a stack X shaped (N, *shape), as one
        trace in X's row order."""
        indices = self._indices(X)  # before _trace is read: it may grow
        kept = self._trace
        starts = kept.offsets[indices]
        counts = kept.offsets[indices + 1] - starts
        offsets = np.concatenate([[0], counts.cumsum()])
        at = (starts - offsets[:-1]).repeat(counts) + np.arange(offsets[-1])
        return StabilizationTrace(offsets, kept.depths[at], kept.iterates[at], kept.gaps[at],
                                  kept.radius[indices], kept.bound[indices])

    def limits(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """I, the radius ||x|| and the closeness bound e(x) on each row of a stack X."""
        indices = self._indices(X)  # before _trace is read: it may grow
        kept = self._trace
        values = kept.iterates[kept.offsets[indices + 1] - 1]
        return values.reshape(X.shape), kept.radius[indices], kept.bound[indices]


def probe_pairs(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic pair sample from a probe stack P of m rows, as the
    stack Z = [P; 0] and the index columns (ix, iy) into Z of the pairs'
    left and right rows: each probe against zero (row m), itself, and two
    strided partners.  The (x, 0) pairs come first per probe so zero-control
    witnesses are found with the lowest probe index; the zero row comes
    last so a stage that stabilizes Z meets P's rows first."""
    m = len(P)
    i = np.arange(m)
    # A +0 row: 0 * P would write -0 into the y witnesses.
    Z = np.concatenate([P, np.zeros((1, *P.shape[1:]), P.dtype)])
    iy = np.array([np.full(m, m), i, (i + 1) % m, (i * 7 + 3) % m]).T.reshape(-1)
    return Z, i.repeat(4), iy


def _require_probes(P: np.ndarray) -> None:
    if not len(P):
        raise ValueError("probe set must be nonempty")


def _cut(stack: np.ndarray, *sizes: int) -> list[np.ndarray]:
    """Consecutive slices of a stack, of the given sizes, then the rest:
    np.split at the sizes' running sums, without its Python-level cost."""
    ends = [*itertools.accumulate(sizes)]
    return [stack[start:end] for start, end in zip([0, *ends], [*ends, None])]


def _norms(stage: str, spec: AlgebraSpec, *stacks: np.ndarray) -> list[np.ndarray]:
    """Each stack's norms from one stacked_norms call; a row's bits do not depend on the stack."""
    norms = algebra.stacked_norms(spec, algebra.finite_rows(stage, np.concatenate(stacks)))
    return _cut(norms, *map(len, stacks[:-1]))


def _witness(**columns):
    """The witness of index k: item k of each named column."""
    return lambda k: {name: column[k] for name, column in columns.items()}


def _sup(values, witness) -> tuple[float, dict, int]:
    """The sup of a column of values, its witness and the sample count.
    ndarray.argmax gives the first maximal index (a NaN's, if any), the tuple
    a strict `<` running update keeps; only its witness(k) is built."""
    k = int(values.argmax())
    return float(values[k]), witness(k), len(values)


@dataclass
class HypothesisEntry:
    name: str
    sup_ratio: float
    witness: dict
    samples_used: int


@dataclass
class DefectReport:
    entries: dict[str, HypothesisEntry]


@np.errstate(over="ignore", invalid="ignore")
def scan_hypotheses(I: StabilizedMap, lambdas: LambdaSampler, P: np.ndarray) -> DefectReport:
    """Supremum defect/control ratios of I.f, under I's control I.phi, for
    the Jensen, anti-multiplicativity and C*-norm hypotheses, plus the
    absolute involutivity residual ||I(I(x)) - x||.  f is evaluated once, on
    every argument, and every norm comes from one call; the arguments, the
    f values and the defect rows are checked finite before I is evaluated."""
    _require_probes(P)
    f, spec, phi = I.f, I.f.spec, I.phi
    Z, ix, iy = probe_pairs(P)
    X, Y = Z[ix], Z[iy]
    n, m = len(ix), len(P)

    # The Jensen hypothesis is quantified over unit-modulus scalars only;
    # larger moduli belong to the homogeneity extension of the conclusion.
    # Its rows run pair-major, then lambda.
    unit_lams = [(s, lam) for s, lam in maps.sample_lambdas(lambdas) if s in ("arc", "circle")]
    nl = len(unit_lams)
    lam = np.array([v for _, v in unit_lams]).reshape((-1,) + (1,) * len(spec.shape))
    # The control's pairs: the sample's, then each probe with itself for
    # the C* ratio's phi(x, x).
    i = np.arange(m)
    jx, jy = np.concatenate([ix, i]), np.concatenate([iy, i])
    XY = algebra.mul_rows(spec, Z[jx], Z[jy])
    # Every argument of f in one stack: (x+y)/2 and xy per pair, lam z per
    # row z of Z and scalar (z-major), and Z.  f(lam x) and f(lam y) are
    # gathered from f(lam Z), f(x) and f(y) from f(Z).
    args = algebra.finite_rows("scan_hypotheses", np.concatenate(
        [complex(0.5) * (X + Y), (lam * Z[:, None]).reshape(-1, *spec.shape), XY[:n], Z]))
    f_mid, f_lz, f_xy, f_z = _cut(maps._f_values("scan_hypotheses", f, args), n, len(Z) * nl, n)
    f_lz = f_lz.reshape(len(Z), nl, *spec.shape)
    jensen = 2.0 * np.conj(lam) * f_mid[:, None] - f_lz[ix] - f_lz[iy]
    defects = algebra.finite_rows("scan_hypotheses", np.concatenate([
        jensen.reshape(-1, *spec.shape), f_xy - algebra.mul_rows(spec, f_z[iy], f_z[ix]),
        algebra.mul_rows(spec, P, f_z[:m])]))
    # The control reads ||x|| and ||y|| from Z's radii, or ||xy|| from the
    # products.  I is not asked for Z: its zero row stays in the laws' batch.
    sums = phi.kind is stabilizer.ControlKind.POWER_SUM
    IP, radii, _ = I.limits(P)
    nz = np.concatenate([radii, [0.0]])
    residuals = I.limits(IP)[0] - P
    nd, *nxy, e4 = _norms("scan_hypotheses", spec, defects, *([] if sums else [XY]), residuals)
    dens = stabilizer.control(phi, *((nz[jx], nz[jy]) if sums else nxy))
    if not np.isfinite(dens).all():
        raise OutOfRange(f"{phi.kind.value} control overflows at r = {phi.r}")
    e2, e3, nxf = _cut(nd, n * nl, n)
    squares = algebra._libm_pow(radii, 2)
    if not np.isfinite(squares).all():
        raise OutOfRange("scan_hypotheses: ||x||^2 of a probe is not finite")
    e6 = np.abs(nxf - squares)

    def jensen_witness(k):
        stage, lam_k = unit_lams[k % nl]
        return {"x": X[k // nl], "y": Y[k // nl], "lam": lam_k, "stage": stage}

    columns = {
        "e2_jensen": (_ratios(e2, dens[:n].repeat(nl)), jensen_witness),
        "e3_antimul": (_ratios(e3, dens[:n]), _witness(x=X, y=Y)),
        "e4_involutive": (e4, _witness(x=P)),
        "e6_cstar": (_ratios(e6, dens[n:]), _witness(x=P)),
    }
    return DefectReport(entries={
        name: HypothesisEntry(name, *_sup(values, witness))
        for name, (values, witness) in columns.items()
    })


@dataclass
class LawEntry:
    law: str
    max_defect: float
    witness: dict
    samples_used: int


@dataclass
class LawReport:
    additivity: LawEntry
    conj_homogeneity: dict[str, LawEntry]
    antimultiplicativity: LawEntry
    involutivity: LawEntry
    total_tuples: int


@np.errstate(over="ignore", invalid="ignore")
def verify_involution_laws(
    I: StabilizedMap,
    lambdas: LambdaSampler,
    P: np.ndarray,
) -> LawReport:
    """Measure the involution laws on the stabilized map I; defects are
    normalized by max(1, input norms)."""
    _require_probes(P)
    spec = I.f.spec
    lams = maps.sample_lambdas(lambdas)
    Z, ix, iy = probe_pairs(P)
    X, Y = Z[ix], Z[iy]
    n, m = len(ix), len(P)
    L = np.array([lam for _, lam in lams]).reshape((-1,) + (1,) * P.ndim)
    # Every point the laws read, in one batch checked finite: x + y per
    # pair, Z, lam p per scalar and probe (lam-major), and xy per pair.
    # I(x), I(y), I(p) and the radii are gathered from Z's rows.
    values, radii, _ = I.limits(algebra.finite_rows("verify_involution_laws", np.concatenate([
        X + Y, Z, (L * P).reshape(-1, *spec.shape), algebra.mul_rows(spec, X, Y)])))
    I_sum, I_z, I_lp, I_xy = _cut(values, n, len(Z), len(lams) * m)
    I_x, I_y, I_p, nz = I_z[ix], I_z[iy], I_z[:m], radii[n:n + len(Z)]
    add, homog, am, inv = _norms(
        "verify_involution_laws", spec, I_sum - (I_x + I_y),
        I_lp - (np.conj(L) * I_p).reshape(I_lp.shape), I_xy - algebra.mul_rows(spec, I_y, I_x),
        I.limits(I_p)[0] - P)
    # np.fmax(1, v) is Python's max(1.0, v), NaN included.
    nx, ny, npr = nz[ix], nz[iy], nz[:m]
    add = add / np.fmax(1.0, nx + ny)
    # Row k of homog is lams[k] on every probe; abs(lam) is Python's.
    homog = homog.reshape(-1, m) / np.fmax(
        1.0, np.multiply.outer([abs(lam) for _, lam in lams], npr))
    am = am / np.fmax(1.0, nx * ny)
    inv = inv / np.fmax(1.0, npr)

    conj_homogeneity = {}
    for stage in ("arc", "circle", "reals", "complex"):
        ks = [k for k, (s, _) in enumerate(lams) if s == stage]
        conj_homogeneity[stage] = LawEntry(f"conj_homogeneity[{stage}]", *_sup(
            homog[ks].ravel(), lambda j, ks=ks: {"x": P[j % m], "lam": lams[ks[j // m]][1]}))
    return LawReport(
        additivity=LawEntry("additivity", *_sup(add, _witness(x=X, y=Y))),
        conj_homogeneity=conj_homogeneity,
        antimultiplicativity=LawEntry("antimultiplicativity", *_sup(am, _witness(x=X, y=Y))),
        involutivity=LawEntry("involutivity", *_sup(inv, _witness(x=P))),
        total_tuples=2 * n + len(lams) * m + m,
    )


# The trace.csv columns, one row per probe and ladder depth n below its n*.
TRACE_COLUMNS = ["probe_id", "radius", "n", "diff_norm", "error_vs_limit", "bound", "ratio"]


@dataclass
class BoundReport:
    max_ratio: float
    probes_checked: int
    passed: bool
    witness: dict | None
    per_probe: list[float]
    trace: dict[str, list]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def verify_bound(
    I: StabilizedMap,
    P: np.ndarray,
) -> BoundReport:
    """||I(x) - f(x)|| against the e(x) = L^{1-i}/(1-L) * phi(x,0) that I
    took for each probe, read from the ends of its ladder, a_0 = f(x) and
    a_{n*} = I(x); a zero bound demands the difference vanish to
    ZERO_BOUND_ABS (superstability).  The report keeps each probe's ratio,
    and, as `trace`, each TRACE_COLUMNS column over every depth n < n*: the
    gap to the next depth, ||a_n - a_{n*}|| and ||a_n - a_0|| / e(x)."""
    _require_probes(P)
    tr = I.traces(P)
    its, last = tr.iterates, tr.offsets[1:] - 1
    probe = np.arange(len(P)).repeat(tr.offsets[1:] - tr.offsets[:-1])
    errors, deviations = _norms("verify_bound", I.f.spec, its - its[last][probe],
                                its - its[tr.offsets[:-1]][probe])
    diffs, bounds = deviations[last], tr.bound
    ratios = np.where(bounds == 0.0, np.where(diffs <= ZERO_BOUND_ABS, 0.0, INF), diffs / bounds)
    worst, witness, _ = _sup(ratios, _witness(x=P, diff=diffs.tolist(), bound=bounds.tolist()))
    at = (probe[1:] == probe[:-1]).nonzero()[0]  # each entry but a probe's last
    rows = probe[at]
    columns = [rows, tr.radius[rows], tr.depths[at], tr.gaps[at], errors[at], bounds[rows],
               _ratios(deviations[at], bounds[rows])]
    return BoundReport(
        max_ratio=worst,
        probes_checked=len(P),
        passed=worst <= 1.0 + 1e-9,
        witness=witness,
        per_probe=ratios.tolist(),
        trace={name: column.tolist() for name, column in zip(TRACE_COLUMNS, columns)},
    )


@dataclass
class UniquenessReport:
    max_diff: float
    probes_checked: int
    passed: bool
    witness: dict | None


@np.errstate(over="ignore", invalid="ignore")
def verify_uniqueness(
    I1: StabilizedMap,
    I2: StabilizedMap,
    P: np.ndarray,
) -> UniquenessReport:
    """Two admissible maps over the same base must stabilize to the same
    involution pointwise."""
    _require_probes(P)
    (diffs,) = _norms("verify_uniqueness", I1.f.spec, I1.limits(P)[0] - I2.limits(P)[0])
    worst, witness, checked = _sup(diffs, _witness(x=P))
    return UniquenessReport(
        max_diff=worst, probes_checked=checked, passed=worst <= UNIQUENESS_TOL, witness=witness
    )


@dataclass
class CstarReport:
    max_ratio: float
    reversed_max_ratio: float
    probes_checked: int
    passed: bool
    witness: dict | None
    tol: float


@np.errstate(over="ignore", invalid="ignore")
def verify_cstar(I: StabilizedMap, P: np.ndarray) -> CstarReport:
    """Relative C*-identity defect | ||x I(x)|| - ||x||^2 | / ||x||^2 of the
    stabilized map, passing at most CSTAR_TOL.  Zero probes are skipped; a
    nonzero ||x||^2 that rounds to 0 or inf is OutOfRange.  The reversed
    order is for information only."""
    _require_probes(P)
    spec = I.f.spec
    IP, radii, _ = I.limits(P)
    Q, IQ, nq = P[radii != 0.0], IP[radii != 0.0], radii[radii != 0.0]
    squares = algebra._libm_pow(nq, 2)
    if not ((0.0 < squares) & (squares < INF)).all():
        raise OutOfRange("verify_cstar: ||x||^2 of a nonzero probe is 0 or not finite")
    worst, rev_worst, witness = 0.0, 0.0, None
    if len(nq):
        ratios, reversed_ratios = (np.abs(norms - squares) / squares for norms in _norms(
            "verify_cstar", spec, algebra.mul_rows(spec, Q, IQ), algebra.mul_rows(spec, IQ, Q)))
        worst, witness, _ = _sup(ratios, _witness(x=Q, ratio=ratios.tolist()))
        rev_worst = float(reversed_ratios.max())
    return CstarReport(
        max_ratio=worst,
        reversed_max_ratio=rev_worst,
        probes_checked=len(nq),
        passed=worst <= CSTAR_TOL,
        witness=witness,
        tol=CSTAR_TOL,
    )


# A report leaves out entry names, already its keys, and per-probe columns.
_UNREPORTED = {"name", "law", "per_probe", "trace"}
_string = json.encoder.encode_basestring_ascii


def _real(value: float) -> str:
    # A float as json.dumps writes it, but "inf" for either infinity.
    return float.__repr__(value) if math.isfinite(value) else (
        '"inf"' if math.isinf(value) else "NaN")


def _part(value: float) -> str:
    # A complex number's part, as json.dumps writes it.
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# The writers of the leaves of exactly these types.
_LEAVES = {float: _real, str: _string, int: int.__repr__,
           bool: {True: "true", False: "false"}.get, type(None): lambda value: "null"}


@functools.cache
def _reported(cls: type) -> list[tuple[str, str]]:
    # The fields a report writes of a dataclass type, each with its key's text.
    return [(f.name, f"{_string('pass' if f.name == 'passed' else f.name)}: ")
            for f in fields(cls) if f.name not in _UNREPORTED]


def _render(value, pad: str = "") -> str:
    """`value` as json.dumps(..., indent=2) writes it at indent `pad`, once a dataclass is its
    fields (`passed` as `pass`), a complex128 ndarray a flat list, a complex number [re, im]
    and an infinite float "inf"; a list and a complex number's parts keep json's rules.  Only
    these exact types, dicts and the leaves above are written: any other type, a subclass or a
    numpy scalar included, is a TypeError."""
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    if kind is dict:
        items, brackets = [f"{_string(k)}: {_render(v, inner)}" for k, v in value.items()], "{}"
    elif kind is np.ndarray and value.dtype == np.complex128:
        # Each entry's [re, im], its parts as json.dumps writes them.
        deep = inner + "  "
        parts = [_part(x) for x in np.ascontiguousarray(value).view(np.float64).reshape(-1).tolist()]
        items, brackets = [f"[\n{deep}{re},\n{deep}{im}\n{inner}]"
                           for re, im in zip(parts[::2], parts[1::2])], "[]"
    elif kind is complex:
        items, brackets = [_part(value.real), _part(value.imag)], "[]"
    elif kind is list:
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    elif is_dataclass(kind):
        items, brackets = [key + _render(getattr(value, name), inner)
                           for name, key in _reported(kind)], "{}"
    else:
        raise TypeError(f"cannot render a value of type {kind.__name__}")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"
