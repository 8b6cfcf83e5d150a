"""Exact integer linear algebra: Hermite/Smith normal forms, congruence
kernels, and structure of finitely generated abelian groups.

Everything operates on arbitrary-precision Python ints; no floating point.
Pivot choices are deterministic (smallest absolute value, then first
position) so outputs are stable across runs.

Each normal form is one elimination over one matrix (`_echelon`, `_smith`).
A transform is an identity block beside or below the matrix that the row or
column operations carry along, and only `hnf` and `snf` add one:
`hermite_rows`, `congruence_kernel` and `cokernel` eliminate the bare matrix.
The kernel, solve and cokernel entry points (`congruence_kernel`,
`lattice_coordinates`, `ExactSolver`, `cokernel`) take A by its columns, so
only the rows given to `lattice_kernel_localized` need a recorded width.
The eliminations read a matrix one way (`_as_lists`): list rows through
`operator.index` once, ragged rows refused, an `IntMatrix` with its recorded
width.  `cokernel` and `smith_basis` read a quotient one way (`_factors_mod`):
Z^n modulo relations with Smith diagonal d and L Z^n is the sum of the
Z/gcd(d_i, L), L for a missing d_i, so L = 0 gives Z there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Optional, Sequence


Row = Sequence[int]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.  A matrix
    with no rows cannot read its column count off its entries, so `zero`
    records it in `width`; equality and hashing read the entries only.
    `from_rows` validates outside input (`operator.index` on each entry, so
    a float or a string raises TypeError, and no ragged rows); `_make` builds
    the rows of the package's own ints as they are."""

    entries: tuple[tuple[int, ...], ...]
    width: Optional[int] = field(default=None, compare=False, repr=False)

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "IntMatrix":
        ent = tuple(tuple(map(operator.index, row)) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        return cls(ent)

    @classmethod
    def _make(cls, rows: Iterable[Iterable[int]], width: Optional[int] = None) -> "IntMatrix":
        return cls(tuple(map(tuple, rows)), width)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        unit = (0,) * n + (1,) + (0,) * n
        return cls(tuple(unit[n - i:2 * n - i] for i in range(n)), n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else self.width or 0

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "IntMatrix":
        # a matrix with no rows has cols empty rows; one with no columns
        # gives no rows, so its row count is recorded as the width
        if not self.entries:
            return IntMatrix(((),) * self.cols)
        return IntMatrix(tuple(zip(*self.entries)), self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product, with other.cols recorded as its width.  Row i sums
        A[i][k] * B[k] over the nonzero A[i][k] only, found by `compress` in C;
        a leading unit coefficient starts the sum from B[k] itself, uncopied."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out, empty = [], (1, (0,) * other.cols)
        for row in self.entries:
            terms = compress(zip(row, other.entries), row)
            a, acc = next(terms, empty)
            if a != 1:
                acc = [a * b for b in acc]
            for a, brow in terms:
                acc = [x + a * b for x, b in zip(acc, brow)]
            out.append(tuple(acc))
        return IntMatrix(tuple(out), other.cols)

    def matvec(self, v: Row) -> tuple[int, ...]:
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _as_lists(A) -> tuple[list[list[int]], int]:
    # list input becomes int here, once, so results are built as they are;
    # the column count comes with the rows, so a matrix with none keeps it
    if isinstance(A, IntMatrix):
        return A.tolists(), A.cols
    M = [list(map(operator.index, r)) for r in A]
    if M and any(len(r) != len(M[0]) for r in M):
        raise ValueError("ragged rows")
    return M, len(M[0]) if M else 0


def _row_sub(M: list[list[int]], i: int, k: int, q: int) -> None:
    Mi, Mk = M[i], M[k]
    for j in range(len(Mi)):
        Mi[j] -= q * Mk[j]


def _row_neg(M: list[list[int]], i: int) -> None:
    M[i] = [-x for x in M[i]]


def _col_swap(M: list[list[int]], j: int, k: int) -> None:
    for row in M:
        row[j], row[k] = row[k], row[j]


def _echelon(M: list[list[int]], c: int) -> None:
    """Row Hermite form of the first c columns of M, in place: echelon with
    positive pivots, entries above each pivot reduced into [0, pivot).  Each
    row operation acts on the whole row, so columns past c carry a transform.
    """
    r = len(M)
    row = 0
    for col in range(c):
        if row == r:
            break
        # Euclidean elimination below `row` in this column.
        while True:
            nz = [i for i in range(row, r) if M[i][col]]
            if not nz:
                break
            p = min(nz, key=lambda i: (abs(M[i][col]), i))
            M[row], M[p] = M[p], M[row]
            rest = [i for i in range(row + 1, r) if M[i][col]]
            if not rest:
                break
            piv = M[row][col]
            for i in rest:
                q = M[i][col] // piv
                if q:
                    _row_sub(M, i, row, q)
        if not M[row][col]:
            continue
        if M[row][col] < 0:
            _row_neg(M, row)
        piv = M[row][col]
        for i in range(row):
            q = M[i][col] // piv
            if q:
                _row_sub(M, i, row, q)
        row += 1


def hnf(A) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (H, U) with U unimodular and U*A = H.

    H is in row echelon form with positive pivots; entries above each pivot
    are reduced into [0, pivot).
    """
    M, c = _as_lists(A)
    M = [row + list(e) for row, e in zip(M, IntMatrix.identity(len(M)).entries)]
    _echelon(M, c)
    return IntMatrix._make((row[:c] for row in M), c), IntMatrix._make(row[c:] for row in M)


def hermite_rows(A) -> list[tuple[int, ...]]:
    """The nonzero rows of the row Hermite normal form of A, with no
    transform."""
    M, c = _as_lists(A)
    _echelon(M, c)
    return [tuple(row) for row in M if any(row)]


def _smith(M: list[list[int]], r: int, c: int, modulus: int = 0) -> None:
    """Smith form of the top-left r x c block of M, in place: diagonal,
    nonnegative, d_i | d_{i+1}.  Row operations act on whole rows among the
    first r rows and column operations on whole columns among the first c,
    so identity blocks beside and below the block carry the transforms.
    With modulus L > 0 the block is reduced mod L first, and each touched
    row or column after that."""

    def row_sub(i: int, k: int, q: int) -> None:
        _row_sub(M, i, k, q)
        if modulus:
            M[i] = [x % modulus for x in M[i]]

    def col_sub(j: int, k: int, q: int) -> None:
        for row in M:
            row[j] -= q * row[k]
        if modulus:
            for row in M:
                row[j] %= modulus

    if modulus:
        for i in range(r):
            M[i][:c] = [x % modulus for x in M[i][:c]]
    t = 0
    while t < min(r, c):
        # Locate the smallest nonzero entry of the trailing block.
        best = min(((abs(M[i][j]), i, j) for i in range(t, r) for j in range(t, c) if M[i][j]),
                   default=None)
        if best is None:
            break
        _, bi, bj = best
        M[t], M[bi] = M[bi], M[t]
        if bj != t:
            _col_swap(M, t, bj)
        # Clear row and column t.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, r):
                if M[i][t]:
                    row_sub(i, t, M[i][t] // M[t][t])
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        dirty = True
            for j in range(t + 1, c):
                if M[t][j]:
                    col_sub(j, t, M[t][j] // M[t][t])
                    if M[t][j]:
                        _col_swap(M, t, j)
                        dirty = True
        if M[t][t] < 0:
            _row_neg(M, t)
        # Enforce the divisibility chain before moving on.
        d = M[t][t]
        bad_row = next((i for i in range(t + 1, r) if any(M[i][j] % d for j in range(t + 1, c))),
                       None)
        if bad_row is not None:
            row_sub(t, bad_row, -1)
            continue
        t += 1


def snf(A, modulus: int = 0) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, U, V) with U*A*V = D diagonal,
    nonnegative, and d_i | d_{i+1}.

    With modulus L > 0 every entry is kept reduced mod L: then U*A*V == D
    (mod L) with U, V invertible mod L.  L is read by `operator.index`, as
    the entries are, and a negative L raises ValueError.
    """
    modulus = operator.index(modulus)
    if modulus < 0:
        raise ValueError("modulus must be >= 0")
    M, c = _as_lists(A)
    r = len(M)
    M = [row + list(e) for row, e in zip(M, IntMatrix.identity(r).entries)]
    M += [list(e) + [0] * r for e in IntMatrix.identity(c).entries]
    _smith(M, r, c, modulus)
    return (IntMatrix._make((row[:c] for row in M[:r]), c),
            IntMatrix._make(row[c:] for row in M[:r]),
            IntMatrix._make(row[:c] for row in M[r:]))


def inverse_mod(U, L: int) -> list[list[int]]:
    """U^-1 mod L, entries in [0, L), for a square U invertible mod L, by
    Gauss-Jordan on [U | I] mod L; Euclidean row steps give each column a
    unit pivot.  U^-1 is unique mod L, so no pivot order changes it."""
    M, _ = _as_lists(U)
    n = len(M)
    M = [[x % L for x in row] + list(e) for row, e in zip(M, IntMatrix.identity(n).entries)]
    for col in range(n):
        while (p := next((i for i in range(col, n) if math.gcd(M[i][col], L) == 1), None)) is None:
            nz = sorted((M[i][col], i) for i in range(col, n) if M[i][col])
            if len(nz) < 2:
                raise ValueError(f"matrix is not invertible mod {L}")
            (a, k), *rest = nz
            for b, i in rest:
                M[i] = [(x - b // a * y) % L for x, y in zip(M[i], M[k])]
        M[col], M[p] = M[p], M[col]
        inv = pow(M[col][col], -1, L)
        if inv != 1:
            M[col] = [x * inv % L for x in M[col]]
        for i in [i for i in range(n) if M[i][col] and i != col]:
            f = M[i][col]
            M[i] = [(x - f * y) % L for x, y in zip(M[i], M[col])]
    return [row[n:] for row in M]


def congruence_kernel(columns: Sequence[Row], moduli: Sequence[int]) -> list[tuple[int, ...]]:
    """Basis of the lattice {x in Z^c : (A x)_i == 0 mod moduli[i]}, in
    Hermite form, for A given by its c columns, each of length len(moduli).

    A modulus of 0 demands exact vanishing of that row.  No columns give the
    empty basis; columns of length 0 constrain nothing, so the basis is the
    c x c identity.
    """
    if set(map(len, columns)) - {len(moduli)}:
        raise ValueError("one modulus per row required")
    cols, _ = _as_lists(columns)
    c = len(cols)
    if c == 0:
        return []
    # The lattice reads a row only mod its modulus m: reduce it into [0, |m|)
    # when m is nonzero, and drop a row that vanishes with its modulus.
    if any(moduli):
        mods = [abs(m) for m in moduli]
        cols = [[x % m if m else x for x, m in zip(col, mods)] for col in cols]
    keep = [i for i, row in enumerate(zip(*cols)) if any(row)]
    if not keep:
        return list(IntMatrix.identity(c).entries)
    r = len(keep)
    # The rows (A e_j | e_j) and (m_i e_i | 0) span the pairs (A x + m k, x);
    # the Hermite rows with zero head are the Hermite basis of the lattice
    # (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    rows = [[col[i] for i in keep] + [int(t == j) for t in range(c)]
            for j, col in enumerate(cols)]
    rows += [[moduli[i] if t == k else 0 for t in range(r)] + [0] * c
             for k, i in enumerate(keep) if moduli[i]]
    _echelon(rows, r + c)
    return [tuple(row[r:]) for row in rows if any(row[r:]) and not any(row[:r])]


def lattice_coordinates(columns: Sequence[Row], moduli: Sequence[int],
                        vectors: Iterable[Row],
                        ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """`congruence_kernel(columns, moduli)` and the coordinates of each of
    `vectors` in that basis.  Raises RuntimeError for a vector outside the
    lattice."""
    basis = congruence_kernel(columns, moduli)
    coords = hermite_coordinates(basis, vectors)
    if None in coords:
        raise RuntimeError("a vector lies outside the congruence lattice")
    return basis, coords


def hermite_coordinates(basis: Sequence[Row], vectors: Iterable[Row],
                        ) -> list[Optional[tuple[int, ...]]]:
    """Coordinates of each of `vectors` in the Z-span of the nonzero Hermite
    rows `basis`, or None for a vector outside that span."""
    if basis and len(basis) == len(basis[0]) and all(row[i] == 1 for i, row in enumerate(basis)):
        # square echelon rows with unit pivots, reduced above them: I
        return [tuple(v) for v in vectors]
    # each row's nonzero entries, read once; the pivot comes first
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in basis]
    out = []
    for v in vectors:
        # Hermite rows are echelon with positive pivots: eliminate down the
        # pivot columns.  A remainder stays in its column, which later rows
        # do not touch.
        rest = list(v)
        y = []
        for row in sparse:
            p, piv = row[0]
            q = rest[p] // piv
            y.append(q)
            if q:
                for j, x in row:
                    rest[j] -= q * x
        out.append(None if any(rest) else tuple(y))
    return out


def lattice_kernel_localized(A, m: int, N: int = 1) -> IntMatrix:
    """Z-basis (rows) of {x in Z^cols : A x == 0 mod m}, m >= 1.

    N records the localization applied by callers downstream; it does not
    affect the lattice itself.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("modulus must be >= 1")
    A = A if isinstance(A, IntMatrix) else IntMatrix.from_rows(A)
    if not A.entries and A.width is None:
        raise ValueError("a matrix with no rows needs its width: "
                         "give it as IntMatrix.zero(0, cols)")
    return IntMatrix._make(congruence_kernel(A.transpose().entries, [m] * A.rows))


class ExactSolver:
    """Reusable exact solver for A x = b over Z, A given by its columns: one
    Hermite form W A^T = H of the columns as rows, then per right side the
    coordinates y of b in the nonzero rows of H and x = y W over the kept
    rows of W, or None when b lies outside the column lattice of A."""

    def __init__(self, columns):
        H, W = hnf(columns)
        self.rows = H.cols
        self.H = [row for row in H.entries if any(row)]
        # the kept transform rows, as wide as there are unknowns
        self.W = IntMatrix(W.entries[:len(self.H)], W.rows)

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        y = hermite_coordinates(self.H, [b])[0]
        return None if y is None else (IntMatrix((y,), len(y)) @ self.W).entries[0]


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group in invariant-factor form.

    `factors` is the divisibility chain d_1 | d_2 | ... with every d_i >= 2;
    `free_rank` counts Z summands.
    """

    factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a chain: {self.factors}")
        if any(d < 2 for d in self.factors):
            raise ValueError("invariant factors must be >= 2")

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> "FinAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 means Z)."""
        rank = 0
        chain: list[int] = []
        for d in orders:
            d = abs(int(d))
            if d == 0:
                rank += 1
                continue
            # Z/a + Z/b = Z/gcd + Z/lcm: pass d down the chain from its top,
            # each factor keeping the lcm and handing on the gcd; no
            # factoring, so huge orders cost only gcds.  A d dividing
            # chain[0] divides every factor and would pass down unchanged.
            if chain and chain[0] % d:
                for i in range(len(chain) - 1, -1, -1):
                    chain[i], d = math.lcm(chain[i], d), math.gcd(chain[i], d)
            if d > 1:
                chain.insert(0, d)
        return cls(tuple(chain), rank)

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls()

    def is_trivial(self) -> bool:
        return not self.factors and not self.free_rank

    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.factors)

    def direct_sum(self, *others: "FinAbGroup") -> "FinAbGroup":
        orders: list[int] = list(self.factors) + [0] * self.free_rank
        for g in others:
            orders.extend(g.factors)
            orders.extend([0] * g.free_rank)
        return FinAbGroup.from_orders(orders)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.factors]
        return " x ".join(parts) if parts else "0"


def _factors_mod(diagonal: Sequence[int], n: int, L: int) -> list[int]:
    """The cyclic orders of Z^n modulo relations with Smith diagonal
    `diagonal` and L Z^n: gcd(d, L) per entry, L per missing one; 0 is Z."""
    return [math.gcd(d, L) for d in diagonal] + [L] * (n - len(diagonal))


def cokernel(columns: Sequence[Sequence[int]], ambient_rank: int,
             exponent: int = 0) -> FinAbGroup:
    """Structure of Z^ambient_rank / <columns, exponent Z^ambient_rank>
    (columns are relation vectors), by a Smith form mod the exponent; the
    default exponent 0 gives the exact quotient."""
    # A matrix and its transpose have the same Smith invariants, so the
    # columns are eliminated as the rows they are held in.
    X = [list(col) for col in columns]
    _smith(X, len(X), ambient_rank, exponent)
    diag = _factors_mod([X[i][i] for i in range(min(ambient_rank, len(X)))],
                        ambient_rank, exponent)
    return FinAbGroup(tuple(d for d in diag if d > 1), diag.count(0))


def smith_basis(X, n: int, L: int) -> list[tuple[int, list[int]]]:
    """One Smith form U X V == D (mod L) of relations X on Z^n whose span
    holds L Z^n: each invariant factor d > 1 of Z^n / X with the column of
    U^-1 (mod L) that generates it."""
    D, U, _ = snf(X, L)
    diag = _factors_mod(D.diagonal(), n, L)
    keep = [i for i, d in enumerate(diag) if d > 1]
    W = inverse_mod(U, L) if keep else []
    return [(diag[i], [row[i] for row in W]) for i in keep]


@dataclass(frozen=True)
class SolutionGroup:
    """Result of solve_mod: generators of the solution lattice reduced mod
    the ambient exponent, plus the group structure of the solution set."""

    generators: tuple[tuple[int, ...], ...]
    group: FinAbGroup
    exponent: int


def solve_mod(A, moduli: Sequence[int]) -> SolutionGroup:
    """Solutions of A x == 0 (mod moduli, rowwise), x taken modulo the lcm
    of the moduli coordinatewise.
    """
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be >= 1")
    M = A if isinstance(A, IntMatrix) else IntMatrix.from_rows(A)
    c = M.cols
    L = math.lcm(*moduli) if moduli else 1
    # Quotient of the solution lattice by L * Z^c.
    basis, rel_cols = lattice_coordinates(
        M.transpose().entries, moduli, ([L if i == j else 0 for i in range(c)] for j in range(c)))
    group = cokernel(rel_cols, len(basis), L)
    gens = tuple(tuple(x % L for x in row) for row in basis)
    return SolutionGroup(gens, group, L)
