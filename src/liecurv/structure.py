"""Structure tensors of Lie brackets and metric-independent Lie theory.

A bracket on an n-dimensional space is stored through its components
a^k_{ij} with [e_i, e_j] = sum_k a^k_{ij} e_k, kept for i < j only
(antisymmetry is enforced by storage).  The text notation is the usual
tuple of exterior derivatives, de^k = sum coeff * e^i ^ e^j, with the sign
convention

    de^k(e_i, e_j) = -e^k([e_i, e_j]),

so the slot "12" in position k encodes a^k_{12} = -1.  All golden values in
the test suite are transcribed under this convention.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, product
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .errors import (KillingFormNonzeroError, LieCurvError,
                     NotLieAlgebraError, NotUnimodularError,
                     StructureParseError)
from .scalars import (COEFF, DEFAULT_TOL, Scalar, format_scalar, is_zero,
                      signed_coeff)

MAX_DIM = 16


def _freeze(coeffs, tol):
    out = {}
    for (i, j, k), c in coeffs.items():
        if i == j:
            raise ValueError(f"bracket [e{i+1},e{i+1}] must vanish")
        if i > j:
            i, j, c = j, i, -c
        # a key repeats only when both (i, j, k) and (j, i, k) are given
        key = (i, j, k)
        out[key] = out[key] + c if key in out else c
    if any(isinstance(c, float) for c in out.values()):    # zero: <= tol max |c|
        tol *= max(map(abs, out.values()))
    return {key: c for key, c in out.items() if not is_zero(c, tol)}


class DiagonalCertificate(NamedTuple):
    """`StructureTensor._diagonal_certificate`: `rows`, the rows of M^T,
    {m: entry} per term in the order of `coeffs`; `kernel`, ker M^T, the
    diagonal derivations; `witness`, the index of its first row of nonzero
    sum, or None; `span`, only when there is no witness, a row per term in
    the order of `coeffs`, the rows of an integer basis of
    {y : M y in R 1}, and None otherwise.  The columns of `span` but the
    last are a basis of ker M; the last has M y = s 1 with s > 0, as s is
    the last free column of the system that `linalg.kernel` solves."""

    rows: tuple
    kernel: linalg.Subspace
    witness: Optional[int]
    span: Optional[tuple]


@dataclass(frozen=True)
class StructureTensor:
    """Components a^k_{ij} of an antisymmetric bracket on R^n (0-based keys).

    Metric-independent invariants are computed once, on first use, and kept
    read-only; read them through is_lie, trace_ad, killing_form, classify.
    `exact` is the backend; when it is not given it is read off the
    coefficients, which an abelian bracket does not have.
    """

    n: int
    coeffs: Mapping[tuple[int, int, int], Scalar]
    tol: float = DEFAULT_TOL
    exact: Optional[bool] = None

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be in [2, {MAX_DIM}], got {self.n}")
        for (i, j, k) in self.coeffs:
            if not (0 <= i < j < self.n and 0 <= k < self.n):
                raise ValueError(f"index triple {(i, j, k)} out of range for n={self.n}")
        coeffs = dict(self.coeffs)
        has_float = any(isinstance(c, float) for c in coeffs.values())
        exact = not has_float if self.exact is None else self.exact
        if exact and has_float:
            raise ValueError("an exact structure tensor cannot hold float coefficients")
        if not exact:
            coeffs = {key: float(c) for key, c in coeffs.items()}
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def from_brackets(cls, n, coeffs, tol=DEFAULT_TOL, exact=None):
        """Build from a {(i, j, k): a^k_ij} map, 0-based, any index order."""
        return cls(n, _freeze(coeffs, tol), tol, exact)

    @cached_property
    def _lie(self) -> bool:
        return not jacobi_defect(self)

    @cached_property
    def _trace_ad(self) -> np.ndarray:
        t = linalg.zeros(self.n, self.exact)
        for (i, j, k), c in self.coeffs.items():
            if k == j:
                t[i] += c
            if k == i:
                t[j] -= c
        return _read_only(t)

    @cached_property
    def _scaled(self) -> tuple:
        """(c, d): the coefficients as c[key] / d, integers over one common
        denominator d on the exact backend, the floats with d = 1 on the
        float backend."""
        if not self.exact:
            return self.coeffs, 1
        nums, d = linalg.as_integers(self.coeffs.values())
        return dict(zip(self.coeffs, nums)), d

    @cached_property
    def _scaled_array(self) -> tuple:
        """`as_array` as the `linalg.scaled` pair (N, d), with c and d as in
        `_scaled`: N[i, j, k] = c and N[j, i, k] = -c."""
        coeffs, d = self._scaled
        N = np.zeros((self.n,) * 3, dtype=object if self.exact else float)
        for (i, j, k), c in coeffs.items():
            N[i, j, k], N[j, i, k] = c, -c
        return _read_only(N), d

    @cached_property
    def _ad(self) -> list:
        """ad[i][k]: the pairs (m, c) with a^m_ik = c / d != 0, c and d as
        in `_scaled`; the nonzeros of column k of ad(e_i)."""
        ad = [[[] for _ in range(self.n)] for _ in range(self.n)]
        for (i, j, k), c in self._scaled[0].items():
            ad[i][j].append((k, c))
            ad[j][i].append((k, -c))
        return ad

    @cached_property
    def _derived(self) -> tuple:
        """The derived algebra [g, g] as the reduced rows of `_bracket_span`,
        read by the subspace invariants and never modified."""
        g = _basis_rows(self)
        return _bracket_span(self, g, g)

    @cached_property
    def _top(self) -> float:
        """max |a^k_ij|, the scale of float zero tests on the bracket."""
        return 0.0 if self.exact else max(map(abs, self.coeffs.values()), default=0.0)

    @cached_property
    def _killing_sums(self) -> tuple:
        """The Killing form B_ij = Tr(ad e_i ad e_j) = sum over k, m of
        a^k_im a^m_jk as the `linalg.scaled` pair (N, d^2), c and d as in
        `_scaled`: N_ij sums c^k_im c^m_jk."""
        ad, n = self._ad, self.n
        N = np.zeros((n, n), dtype=object if self.exact else float)
        for i in range(n):
            for j in range(i, n):
                N[i, j] = N[j, i] = sum(c * c2 for m in range(n) for k, c in ad[i][m]
                                        for m2, c2 in ad[j][k] if m2 == m)
        return N, self._scaled[1] ** 2

    @cached_property
    def _killing_form(self) -> np.ndarray:
        return _read_only(linalg.unscaled(*self._killing_sums))

    @cached_property
    def _killing_zero(self) -> bool:
        N, _ = self._killing_sums   # exact: numpy's truthiness, no is_zero
        return not N.any() if self.exact else linalg.mat_is_zero(
            N, self.tol * self._top ** 2)

    @cached_property
    def _diagonal_certificate(self) -> DiagonalCertificate:
        """Both sides of the Fredholm alternative for the term matrix M.

        On a nice basis ric = 1/2 M y for diag(g): M is the n x m matrix
        whose column for the term (i, j, k), in the order of `coeffs`, is
        e_k - e_i - e_j, and y_t = (a^k_ij)^2 g_k / (g_i g_j).  Either some x
        in ker M^T -- x_k = x_i + x_j per term, the diagonal derivations
        diag(x) -- has nonzero sum, or 1 is in the image of M.  M reads only
        which terms are nonzero, so this is exact on either backend.
        """
        cols = tuple(defaultdict(int) for _ in self.coeffs)  # rows of M^T
        for col, (i, j, k) in zip(cols, self.coeffs):
            col[k] += 1
            col[i] -= 1
            col[j] -= 1
        last = self.n - 1
        kernel = linalg.null_space([{last - m: x for m, x in col.items()}
                                    for col in cols], self.n, True)
        witness = next((r for r, v in enumerate(kernel.rows) if sum(v.values())),
                       None)
        if witness is not None:
            return DiagonalCertificate(cols, kernel, witness, None)
        s = len(cols)                        # the column of s in (y, s)
        rows = [defaultdict(int, {s: -1}) for _ in range(self.n)]
        for t, col in enumerate(cols):
            for i, x in col.items():
                rows[i][t] = x
        null = linalg.kernel(rows, s + 1)          # (y, s) with M y = s 1
        span = zip(*([v.get(t, 0) for t in range(s)] for v in null))
        return DiagonalCertificate(cols, kernel, None, tuple(span))

    @cached_property
    def _nice_report(self) -> "NiceReport":
        """The verdict of `nice.nice_basis_check` on this basis."""
        from .nice import _nice_report   # it imports this module
        return _nice_report(self)

    @cached_property
    def _diagonal_einstein(self) -> Optional[tuple]:
        """Every diagonal Einstein metric with lambda != 0 on this nice
        basis, or None where the exact enumeration does not apply; see
        `einstein.einstein_metrics`."""
        from .einstein import einstein_metrics   # it imports this module
        return einstein_metrics(self)

    @cached_property
    def _report(self) -> "ClassifyReport":
        if not is_lie(self):
            return ClassifyReport(is_lie=False)
        lcs = lower_central_series(self)
        nilpotent = lcs.dims[-1] == 0
        centre = linalg.null_space(_centre_system(self), self.n, self.exact, self.tol)
        derived = self._derived
        # Z lies in [g, g] when its rows add no pivot to those of [g, g]
        rank = len(linalg.pivot_columns([*derived, *centre.rows], self.n,
                                        self.exact, self.tol))
        return ClassifyReport(
            is_lie=True,
            unimodular=is_unimodular(self),
            nilpotent=nilpotent,
            solvable=derived_series_terminates(self),
            step=len(lcs.dims) if nilpotent else None,
            killing_zero=self._killing_zero,
            lcs=lcs,
            centre=centre,
            derived=lcs.spaces[0],
            centre_in_derived=rank == len(derived),
        )

    def as_array(self) -> np.ndarray:
        """Dense components c[i, j, k] = a^k_{ij}."""
        return linalg.unscaled(*self._scaled_array)

    @cached_property
    def _float_twin(self) -> "StructureTensor":
        return StructureTensor(self.n, self.coeffs, self.tol, exact=False)

    def to_float(self) -> "StructureTensor":
        """The float copy, built once, so its invariants are cached with it."""
        return self._float_twin if self.exact else self

    def terms(self) -> Iterator[tuple[int, int, int, Scalar]]:
        """Nonzero (i, j, k, a^k_ij) with i < j, sorted by (k, i, j)."""
        for (i, j, k) in sorted(self.coeffs, key=lambda t: (t[2], t[0], t[1])):
            yield i, j, k, self.coeffs[(i, j, k)]

    def __str__(self) -> str:
        return print_structure(self)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "brackets": [
                {"i": i + 1, "j": j + 1, "k": k + 1, "c": format_scalar(c)}
                for i, j, k, c in self.terms()
            ],
        }


# --- text notation ----------------------------------------------------------

_TERM = re.compile(
    COEFF + r"""(?:
            (?P<pair>\d\d)
          | \(\s*(?P<pi>\d+)\s*,\s*(?P<pj>\d+)\s*\)
        )\s*""",
    re.VERBOSE,
)


def parse_structure(text: str, exact: bool = True,
                    tol: float = DEFAULT_TOL) -> StructureTensor:
    """Parse tuple notation like "(0,0,12)" or "(0,0,3*(1,2))".

    Slot k lists de^k as a sum of coeff * e^i ^ e^j terms; two-digit tokens
    are only allowed for n <= 9.  Each term contributes a^k_{ij} = -coeff.
    """
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    # slots end at the commas outside parentheses, at depth 0
    depth = accumulate((c == "(") - (c == ")") for c in text)
    cuts = [i for i, (c, d) in enumerate(zip(text, depth)) if c == "," and not d]
    slots = [text[i + 1:j] for i, j in zip([-1, *cuts], [*cuts, len(text)])]
    n = len(slots)
    if not 2 <= n <= MAX_DIM:
        raise StructureParseError(f"need between 2 and {MAX_DIM} slots, got {n}")
    coeffs: dict[tuple[int, int, int], Scalar] = {}
    for k, slot in enumerate(slots):
        slot = slot.strip()
        if not slot:
            raise StructureParseError("empty slot; write 0 for de^k = 0",
                                      slot=k + 1)
        if slot == "0":
            continue
        pos = 0
        while pos < len(slot):
            m = _TERM.match(slot, pos)
            if not m or m.end() == pos:
                raise StructureParseError(
                    f"malformed token at position {pos}", slot=k + 1,
                    token=slot[pos:pos + 8])
            pos = m.end()
            coeff = signed_coeff(m, exact)
            if m["pair"] and n > 9:
                raise StructureParseError(
                    "two-digit pairs need n <= 9; use (i,j)", slot=k + 1,
                    token=m["pair"])
            i, j = map(int, m["pair"] or m.group("pi", "pj"))
            token = m[0].strip()
            if not (1 <= i <= n and 1 <= j <= n):
                raise StructureParseError(
                    f"index out of range 1..{n}", slot=k + 1, token=token)
            if i == j:
                raise StructureParseError(
                    "repeated index in wedge pair", slot=k + 1, token=token)
            if i > j:
                i, j, coeff = j, i, -coeff
            if (i - 1, j - 1, k) in coeffs:
                raise StructureParseError(
                    f"repeated index pair {(i, j)}", slot=k + 1, token=token)
            # de^k = sum coeff e^ij  <=>  a^k_ij = -coeff
            coeffs[(i - 1, j - 1, k)] = -coeff
    return StructureTensor.from_brackets(n, coeffs, tol, exact)


def print_structure(a: StructureTensor) -> str:
    """Canonical inverse of parse_structure: slot k holds the terms of de^k
    by (i, j), each a sign, then "c*" unless |c| = 1, then ij, or (i,j)
    above dimension 9; no leading "+", and 0 when it has none.  Floats are
    written without an exponent, which the parser does not read."""
    fmt = format_scalar if a.exact else lambda x: np.format_float_positional(
        x, unique=True, trim="0")
    slots = [""] * a.n
    for i, j, k, c in a.terms():
        pair = f"{i + 1}{j + 1}" if a.n <= 9 else f"({i + 1},{j + 1})"
        sign, mag = ("+", -c) if c < 0 else ("-", c)    # de^k carries -a^k_ij
        slots[k] += sign + (pair if mag == 1 else f"{fmt(mag)}*{pair}")
    return "(" + ",".join(s.removeprefix("+") or "0" for s in slots) + ")"


# --- Lie-theoretic predicates ----------------------------------------------

def _read_only(M: np.ndarray) -> np.ndarray:
    M.setflags(write=False)
    return M


def _basis_rows(a: StructureTensor) -> list:
    """The basis e_1, ..., e_n as rows of the kind `_bracket_span` takes."""
    one = 1 if a.exact else 1.0
    return [{i: one} for i in range(a.n)]


def _bracket_span(a: StructureTensor, us, vs) -> tuple:
    """Reduced rows that span {[u, v] : u in us, v in vs}, for rows us and
    vs of the same kind: on the exact backend the integer rows of
    `linalg.eliminate`, on the float backend the float rows of the reduced
    echelon basis of `linalg.row_space`.

    When vs is us, only pairs u < v are bracketed: the rest add nothing by
    antisymmetry.  A span does not see the scale of a row, so exact rows
    are bracketed as integer rows through the adjacency `_ad`.  A float
    rank is relative, so a float row within tol of the size of its terms,
    at most max |a| sum |u| sum |v|, is left out: it vanishes to rounding.
    """
    pairs = list(combinations(us, 2) if vs is us else product(us, vs))
    ad = a._ad
    rows = []
    for u, v in pairs:
        w = defaultdict(int)
        for i, x in u.items():
            for k, y in v.items():
                for m, c in ad[i][k]:
                    w[m] += c * x * y
        rows.append(w)
    if a.exact:
        reduced, pivots = linalg.eliminate(rows)
        return tuple(reduced[:len(pivots)])
    top = a.tol * a._top
    rows = [w for w, (u, v) in zip(rows, pairs) if max(map(abs, w.values()), default=0)
            > top * sum(map(abs, u.values())) * sum(map(abs, v.values()))]
    return tuple(linalg.sparse_rows(linalg.row_space(rows, a.n, False, a.tol)
                                    .tolist(), False))


def jacobi_defect(a: StructureTensor) -> dict[tuple[int, int, int], np.ndarray]:
    """J(e_i,e_j,e_k) = [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].

    Returns the nonzero components on triples i < j < k; empty iff `a`
    satisfies the Jacobi identity.
    """
    ad, dd, tol = a._ad, a._scaled[1] ** 2, a.tol * a._top ** 2
    defect = {}
    for i, j, k in combinations(range(a.n), 3):
        v = defaultdict(int)
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            # [[e_p, e_q], e_r] = sum of a^m_pq a^l_mr e_l
            for m, c in ad[p][q]:
                for l, c2 in ad[m][r]:
                    v[l] += c * c2
        if not all(is_zero(x, tol) for x in v.values()):
            defect[(i, j, k)] = J = linalg.zeros(a.n, a.exact)
            for l, x in v.items():
                J[l] = Fraction(x, dd) if a.exact else x
    return defect


def is_lie(a: StructureTensor) -> bool:
    return a._lie


def killing_form(a: StructureTensor) -> np.ndarray:
    """B(v, w) = Tr(ad v o ad w) on the basis."""
    return a._killing_form


def trace_ad(a: StructureTensor) -> np.ndarray:
    """Vector of Tr ad(e_i); zero iff unimodular."""
    return a._trace_ad


def is_unimodular(a: StructureTensor) -> bool:
    return all(is_zero(x, a.tol * a._top) for x in trace_ad(a))


# --- preconditions: `what` names the operation in the error message --------

def require_lie(a: StructureTensor, what: str):
    if not is_lie(a):
        raise NotLieAlgebraError(f"{what} needs a Lie bracket; the Jacobi identity fails")


def require_unimodular(a: StructureTensor, what: str):
    if not is_unimodular(a):
        raise NotUnimodularError(f"{what} needs a unimodular bracket")


def require_killing_zero_class(a: StructureTensor, what: str):
    """The class where the closed forms of Ricci hold and the trace
    obstruction applies: a Lie bracket, unimodular, with identically zero
    Killing form.  A bracket outside it raises the error of the first of
    these conditions that it fails."""
    require_lie(a, what)
    require_unimodular(a, what)
    if not a._killing_zero:
        raise KillingFormNonzeroError(f"{what} needs an identically zero Killing form")


def in_killing_zero_class(a: StructureTensor) -> bool:
    """Whether `require_killing_zero_class` accepts `a`."""
    try:
        require_killing_zero_class(a, "")
    except LieCurvError:
        return False
    return True


@dataclass(frozen=True)
class SubspaceFlag:
    """Descending chain of subspaces, each a `linalg.Subspace`."""

    spaces: Sequence[linalg.Subspace]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)


def lower_central_series(a: StructureTensor) -> SubspaceFlag:
    """g^1 = [g, g], g^{i+1} = [g, g^i], until stabilization or zero."""
    g = _basis_rows(a)
    spaces = [a._derived]
    while spaces[-1]:
        nxt = _bracket_span(a, g, spaces[-1])
        if len(nxt) >= len(spaces[-1]):
            break
        spaces.append(nxt)
    return SubspaceFlag(tuple(linalg.Subspace(rows, a.n, a.exact) for rows in spaces))


def derived_series_terminates(a: StructureTensor) -> bool:
    """Solvability via the derived series g, [g,g], [[g,g],[g,g]], ..."""
    dim, current = a.n, a._derived
    while 0 < len(current) < dim:
        dim, current = len(current), _bracket_span(a, current, current)
    return not current


def _centre_system(a: StructureTensor) -> list:
    """The rows of ad(v) = 0, whose kernel is the centre Z, with the columns
    reversed as `linalg.null_space` takes them: v_i is column n - 1 - i."""
    n = a.n
    last = n - 1
    rows = [defaultdict(int) for _ in range(n * n)]   # (k, j): [v, e_j]_k = 0
    for (i, j, k), c in a._scaled[0].items():
        rows[k * n + j][last - i] += c
        rows[k * n + i][last - j] -= c
    return rows


@dataclass(frozen=True)
class ClassifyReport:
    is_lie: bool
    unimodular: Optional[bool] = None
    nilpotent: Optional[bool] = None
    solvable: Optional[bool] = None
    step: Optional[int] = None
    killing_zero: Optional[bool] = None
    lcs: Optional[SubspaceFlag] = None
    centre: Optional[linalg.Subspace] = None
    derived: Optional[linalg.Subspace] = None
    centre_in_derived: Optional[bool] = None

    def to_json(self) -> dict:
        out = {"is_lie": self.is_lie}
        if not self.is_lie:
            return out
        out.update({
            "unimodular": self.unimodular,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
            "step": self.step,
            "killing_zero": self.killing_zero,
            "lcs_dims": list(self.lcs.dims),
            "centre_dim": self.centre.dim,
            "derived_dim": self.derived.dim,
            "centre_in_derived": self.centre_in_derived,
        })
        return out


def classify(a: StructureTensor) -> ClassifyReport:
    """Metric-independent report; fields beyond is_lie are absent if it fails."""
    return a._report
