import math
import os
import random
import subprocess
import sys

import pytest

from uctbench.zlinalg import (
    ExactSolver,
    FinAbGroup,
    IntMatrix,
    SolutionGroup,
    cokernel,
    congruence_kernel,
    hermite_coordinates,
    hermite_rows,
    hnf,
    inverse_mod,
    lattice_coordinates,
    lattice_kernel_localized,
    smith_basis,
    snf,
    solve_mod,
)

from helpers import (
    ReferenceSolver,
    det_unimodular,
    reference_congruence_kernel,
    reference_from_orders,
    reference_hermite_coordinates,
    reference_hnf,
    reference_snf,
    triple_loop_matmul,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_matmul_matches_dense_reference():
    rng = random.Random(58)
    shapes = [(1, 1, 1), (3, 0, 2), (0, 0, 0), (4, 1, 5)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]
    for r, k, c in shapes:
        A = rand_matrix(rng, r, k)
        B = rand_matrix(rng, k, c)
        # zero rows and zero columns on both sides, and sparse entries
        for M in (A, B):
            if M and M[0] and rng.random() < 0.5:
                M[rng.randrange(len(M))] = [0] * len(M[0])
                j = rng.randrange(len(M[0]))
                for row in M:
                    row[j] = 0
            for row in M:
                for j in range(len(row)):
                    if rng.random() < 0.4:
                        row[j] = 0
        A = IntMatrix(tuple(tuple(row) for row in A))
        B = IntMatrix(tuple(tuple(row) for row in B))
        if k == 0:
            # a k x 0 matrix has no rows to read its width from
            B = IntMatrix(())
        P = A @ B
        assert ((P.rows, P.cols), P.tolists()) == triple_loop_matmul(A, B), (r, k, c)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]) @ IntMatrix.from_rows([[1, 2]])


def _signed_monomial(rng, n, units=(1, -1)):
    """A signed permutation matrix, its nonzero entries drawn from units."""
    perm = rng.sample(range(n), n)
    return [[rng.choice(units) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def test_matmul_matches_a_triple_loop():
    rng = random.Random(20)
    pairs = []
    for _ in range(12):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        pairs.append((rand_matrix(rng, r, k), rand_matrix(rng, k, c)))
        # signed-monomial factors on either side, units 1 and -1 or others
        for units in ((1,), (-1,), (1, -1), (1, -1, 3, -7)):
            pairs.append((_signed_monomial(rng, k, units), rand_matrix(rng, k, c)))
            pairs.append((rand_matrix(rng, r, k), _signed_monomial(rng, k, units)))
        # a dense row whose leading entry is a unit, then zero rows and columns
        A, B = rand_matrix(rng, r, k), rand_matrix(rng, k, c)
        A[0][0] = rng.choice((1, -1))
        A[rng.randrange(r)] = [0] * k
        for row in B:
            row[rng.randrange(c)] = 0
        B[rng.randrange(k)] = [0] * c
        pairs.append((A, B))
    for A, B in pairs:
        A = IntMatrix(tuple(map(tuple, A)))
        B = IntMatrix(tuple(map(tuple, B)))
        P = A @ B
        assert ((P.rows, P.cols), P.tolists()) == triple_loop_matmul(A, B)
    # empty shapes: r x 0 @ 0 x c, 0 x k @ k x c and r x k @ k x 0
    for r, k, c in ((3, 0, 4), (0, 3, 4), (3, 4, 0), (0, 0, 2)):
        A = IntMatrix(((),) * r) if k == 0 else IntMatrix.zero(r, k)
        B = IntMatrix.zero(k, c)
        P = A @ B
        assert ((P.rows, P.cols), P.tolists()) == ((r, c), [[0] * c for _ in range(r)])


def test_hnf_identity_fixed():
    I = IntMatrix.identity(4)
    H, U = hnf(I)
    assert H == I
    assert U == I


def test_hnf_gcd_pivot_on_column():
    # Column vector (4, 6): the single pivot is gcd(4, 6) = 2.
    H, U = hnf([[4], [6]])
    assert H.entries[0] == (2,)
    assert all(x == 0 for row in H.entries[1:] for x in row)
    assert abs(det_unimodular(U)) == 1


def test_hnf_transform_identity_random():
    rng = random.Random(1)
    for _ in range(25):
        A = rand_matrix(rng, 5, 5)
        H, U = hnf(A)
        assert U @ IntMatrix.from_rows(A) == H
        assert abs(det_unimodular(U)) == 1
        # Echelon shape with positive pivots reduced above.
        pivots = []
        for row in H.entries:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                pivots.append(nz[0])
        assert pivots == sorted(pivots)
        for k, row in enumerate(H.entries):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            p = nz[0]
            assert row[p] > 0
            for above in range(k):
                assert 0 <= H.entries[above][p] < row[p]


def test_eliminations_match_two_and_three_matrix_references_seeded():
    # One elimination over [A | I] or [[A, I], [I, 0]] against the versions
    # that repeat each operation on separate U and V, entry for entry; then
    # the transform-free callers against the same references.
    rng = random.Random(13)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(150)]
    for r, c in shapes:
        A = rand_matrix(rng, r, c)
        for row in A:
            for j in range(c):
                if rng.random() < 0.3:
                    row[j] = 0
        cols = [[row[j] for row in A] for j in range(c)]
        H, U = reference_hnf(A)
        assert hnf(A) == (H, U), A
        assert hermite_rows(A) == [row for row in H.entries if any(row)], A
        for L in (1, 2, 6, 12, 49, 360) + ((0,) if r <= 4 and c <= 4 else ()):
            D, U, V = reference_snf(A, L)
            assert snf(A, L) == (D, U, V), (A, L)
            diag = D.diagonal()
            if L:
                orders = [math.gcd(d, L) for d in diag] + [L] * (r - len(diag))
            else:
                orders = list(diag) + [0] * (r - len(diag))
            assert cokernel(cols, r, L) == FinAbGroup.from_orders(orders), (A, L)
        if r and c:
            moduli = [rng.choice((0, 1, 2, 6, 12, 49)) for _ in range(r)]
            rows = [col + [int(t == j) for t in range(c)] for j, col in enumerate(cols)]
            rows += [[m if t == i else 0 for t in range(r)] + [0] * c
                     for i, m in enumerate(moduli) if m]
            want = [row[r:] for row in reference_hnf(rows)[0].entries
                    if not any(row[:r]) and any(row[r:])]
            assert congruence_kernel(cols, moduli) == want, (A, moduli)


def test_snf_coprime_diagonal():
    D, U, V = snf([[2, 0], [0, 3]])
    assert D.diagonal() == (1, 6)


def test_snf_zero_matrix():
    D, U, V = snf([[0, 0], [0, 0], [0, 0]])
    assert all(x == 0 for row in D.entries for x in row)


def test_snf_transform_identity_random():
    rng = random.Random(2)
    for _ in range(20):
        A = rand_matrix(rng, 6, 4)
        D, U, V = snf(A)
        assert U @ IntMatrix.from_rows(A) @ V == D
        assert abs(det_unimodular(U)) == 1
        assert abs(det_unimodular(V)) == 1
        assert D.is_diagonal()
        diag = [d for d in D.diagonal() if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert all(d >= 0 for d in D.diagonal())


def test_snf_invariant_under_permutation():
    rng = random.Random(3)
    for _ in range(10):
        A = rand_matrix(rng, 4, 5)
        D1, _, _ = snf(A)
        rows = A[:]
        rng.shuffle(rows)
        cols = list(range(5))
        rng.shuffle(cols)
        B = [[row[j] for j in cols] for row in rows]
        D2, _, _ = snf(B)
        assert D1.diagonal() == D2.diagonal()


def test_kernel_basis_exact():
    # x + y + z = 0 has rank-2 kernel.
    basis = congruence_kernel([[1], [1], [1]], [0])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_kernel_basis_spans_random():
    rng = random.Random(4)
    for _ in range(15):
        A = rand_matrix(rng, 3, 5, -4, 4)
        basis = congruence_kernel(list(zip(*A)), [0] * len(A))
        M = IntMatrix.from_rows(A)
        for v in basis:
            assert all(x == 0 for x in M.matvec(v))
        # Brute-force small kernel vectors must lie in the span.
        if basis:
            Bcols = [[row[i] for row in basis] for i in range(5)]
            solver = ExactSolver(basis)
            for _ in range(20):
                x = [rng.randint(-2, 2) for _ in range(5)]
                y = solver.solve(x)
                if all(v == 0 for v in M.matvec(x)):
                    assert IntMatrix.from_rows(Bcols).matvec(y) == tuple(x)
                else:
                    assert y is None


def test_congruence_kernel_matches_bruteforce():
    rng = random.Random(5)
    import itertools
    import math

    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = rand_matrix(rng, rows, cols, -6, 6)
        moduli = [rng.randint(1, 9) for _ in range(rows)]
        L = math.lcm(*moduli)
        sols = set()
        for x in itertools.product(range(L), repeat=cols):
            if all(
                sum(A[i][j] * x[j] for j in range(cols)) % moduli[i] == 0
                for i in range(rows)
            ):
                sols.add(x)
        got = solve_mod(A, moduli)
        assert got.group.free_rank == 0
        assert got.group.order() == len(sols)
        for gen in got.generators:
            assert tuple(v % L for v in gen) in sols


def test_solve_mod_examples():
    res = solve_mod([[2]], [4])
    assert res.group == FinAbGroup((2,))
    res = solve_mod([[0, 0], [0, 0]], [6, 6])
    assert res.group.order() == 36


def test_solve_mod_dense_system_answers_quickly():
    # L, the lcm of the moduli, kills the quotient by L Z^c, so its Smith
    # form runs mod L: an exact one takes more than 60 s on this 4 x 8
    # system.  Run in a child process so that a hang fails the test instead
    # of the suite.
    script = (
        "from uctbench.zlinalg import solve_mod\n"
        "print(solve_mod([[29, -24, 7, 37, 20, 40, 34, -32], [37, -39, 20, -7, 30, -11, -16, 20],"
        " [29, 30, 20, 10, -21, -11, -21, 26], [9, -39, -32, -20, 35, -35, -2, -37]],"
        " [343, 60, 1001, 60]).group)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["C7007"] + ["x", "C2942940"] * 6


def test_lattice_kernel_localized_examples():
    B = lattice_kernel_localized(IntMatrix.identity(3), 1)
    assert B == IntMatrix.identity(3)
    B = lattice_kernel_localized([[3]], 9)
    assert B.entries == ((3,),)


def test_kernel_of_no_rows_is_everything_or_needs_a_width():
    # no rows constrain nothing: the basis is all of Z^cols when the width
    # is recorded, and a named error when nothing records it
    for c in (0, 1, 3):
        identity = IntMatrix.identity(c)
        assert congruence_kernel(IntMatrix.zero(0, c).transpose().entries, []) == \
            list(identity.entries)
        assert lattice_kernel_localized(IntMatrix.zero(0, c), 5) == identity
        assert IntMatrix.zero(0, c).cols == c
        # a 0 x c matrix has 0 x c Hermite and Smith forms and the Smith
        # column transform I_c; a solver with no nonzero Hermite row still
        # answers with one entry per unknown
        Z = IntMatrix.zero(0, c)
        H, U = hnf(Z)
        assert (H.rows, H.cols, U.rows, U.cols) == (0, c, 0, 0)
        for modulus in (0, 6):
            D, U, V = snf(Z, modulus)
            assert (D.rows, D.cols, U.rows, U.cols) == (0, c, 0, 0)
            assert V == identity and V.cols == c
        assert hermite_rows(Z) == []
        solver = ExactSolver(Z)
        assert solver.solve((0,) * c) == ()
        if c:
            assert solver.solve((1,) + (0,) * (c - 1)) is None
        assert ExactSolver(IntMatrix.zero(c, 2)).solve((0, 0)) == (0,) * c
        # transposes keep the shape of an empty matrix: 0 x c <-> c x 0
        for r, k in ((0, c), (c, 0)):
            t = IntMatrix.zero(r, k).transpose()
            assert (t.rows, t.cols) == (k, r)
        # and so do products with no rows: 0 x c @ c x 5 is 0 x 5
        p = IntMatrix.zero(0, c) @ IntMatrix.zero(c, 5)
        assert (p.rows, p.cols) == (0, 5)
        assert congruence_kernel(p.transpose().entries, []) == list(IntMatrix.identity(5).entries)
    for no_width in ([], IntMatrix(()), IntMatrix.from_rows([])):
        with pytest.raises(ValueError, match="width"):
            lattice_kernel_localized(no_width, 5)


def test_congruence_kernel_takes_columns():
    # The columns fix the column count and the moduli the row count: no
    # columns give the empty basis, columns of length 0 constrain nothing,
    # and a column whose length is not the number of moduli is refused.
    assert congruence_kernel([], []) == congruence_kernel([], [5, 0]) == []
    for c in (1, 3):
        assert congruence_kernel([()] * c, []) == list(IntMatrix.identity(c).entries)
    for columns, moduli in (([[1, 2], [3]], [4, 5]), ([[1]], []), ([()], [2]), ([[1, 2]], [3])):
        with pytest.raises(ValueError, match="one modulus per row required"):
            congruence_kernel(columns, moduli)


def test_lattice_kernel_contains_m_times_lattice():
    rng = random.Random(6)
    for _ in range(15):
        A = rand_matrix(rng, 2, 4, -5, 5)
        m = rng.randint(1, 12)
        B = lattice_kernel_localized(A, m)
        assert B.rows == 4  # full rank
        solver = ExactSolver(B.entries)
        for j in range(4):
            target = [m if i == j else 0 for i in range(4)]
            assert solver.solve(target) is not None


def test_lattice_coordinates():
    basis, coords = lattice_coordinates([()] * 3, [], [[4, 0, -1]])
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert coords == [(4, 0, -1)]
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        A = rand_matrix(rng, rows, cols, -6, 6)
        moduli = [rng.randint(1, 9) for _ in range(rows)]
        basis = congruence_kernel(list(zip(*A)), moduli)
        combos = [[rng.randint(-3, 3) for _ in basis] for _ in range(3)]
        vectors = [[sum(c * b[x] for c, b in zip(y, basis)) for x in range(cols)]
                   for y in combos]
        got_basis, coords = lattice_coordinates(list(zip(*A)), moduli, vectors)
        assert got_basis == basis
        assert coords == [tuple(y) for y in combos]
    with pytest.raises(RuntimeError, match="outside"):
        lattice_coordinates([[1], [0]], [2], [[1, 0]])


MODULI = (7, 49, 3 ** 5, 7 * 11 * 13, 3 ** 5 * 5 ** 2)


def test_reduced_kernel_and_sparse_coordinates_match_the_references_seeded():
    # The kernel reduced mod its moduli, with vanishing rows dropped, against
    # one Hermite form of the whole unreduced stack; the sparse coordinates
    # against dense back substitution, inside and outside the span.
    rng = random.Random(25)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(120)]
    outside = 0
    for r, c in shapes:
        moduli = [rng.choice(MODULI + (0,)) for _ in range(r)]
        A = rand_matrix(rng, r, c, -400, 400)
        for i, m in enumerate(moduli):
            kind = rng.random()
            if kind < 0.3:    # a row that vanishes mod its modulus
                A[i] = [m * rng.randint(-3, 3) for _ in range(c)]
            elif kind < 0.5:  # a row with many zeros
                A[i] = [x if rng.random() < 0.3 else 0 for x in A[i]]
        if rng.random() < 0.1:  # every row vanishes mod its modulus
            moduli = [rng.choice(MODULI) for _ in range(r)]
            A = [[m * rng.randint(-2, 2) for _ in range(c)] for m in moduli]
        M = IntMatrix.from_rows(A) if r else IntMatrix.zero(0, c)
        basis = congruence_kernel(M.transpose().entries, moduli)
        assert basis == reference_congruence_kernel(M, moduli), (A, moduli)
        vectors = [[sum(rng.randint(-3, 3) * b[x] for b in basis) for x in range(c)]
                   for _ in range(3)]
        vectors += [[rng.randint(-50, 50) for _ in range(c)] for _ in range(2)]
        coords = hermite_coordinates(basis, vectors)
        assert coords == reference_hermite_coordinates(basis, vectors), (A, moduli)
        outside += coords.count(None)
    assert outside
    # a vanishing row constrains nothing, whatever its modulus
    assert congruence_kernel([[49, 0], [-98, 0]], [7, 0]) == list(IntMatrix.identity(2).entries)
    assert hermite_coordinates([(2, 1), (0, 3)], [(1, 0), (2, 4), (4, 5)]) == [None, (1, 1), (2, 1)]


def test_inverse_mod_seeded():
    # U^-1 mod L for U invertible mod L, also where no entry of a column is
    # a unit and the pivot comes from Euclidean steps (L = 15: 3 and 5)
    rng = random.Random(26)
    for L in MODULI + (15, 2):
        for n in (0, 1, 2, 3, 6):
            U = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(4 * n):
                i, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
                f = rng.randint(-9, 9) if i != k else 0
                U[i] = [(x + f * y) * (L - 1) + L * rng.randint(-2, 2)
                        for x, y in zip(U[i], U[k])]
            inv = inverse_mod(U, L)
            assert all(0 <= x < L for row in inv for x in row)
            prod = IntMatrix.from_rows(U) @ IntMatrix.from_rows(inv) if n else IntMatrix(())
            assert [[x % L for x in row] for row in prod.entries] == \
                IntMatrix.identity(n).tolists(), (U, L)
    assert inverse_mod([[3, 5], [5, 3]], 15) == [[12, 5], [5, 12]]
    with pytest.raises(ValueError, match="invertible"):
        inverse_mod([[3, 6], [1, 2]], 15)


def test_exact_solver_matches_smith_oracle_seeded():
    # The Hermite-form solver against the exact Smith-form solver it
    # replaced: both find a solution exactly when one exists.
    rng = random.Random(31)
    outcomes = set()
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = rand_matrix(rng, rows, cols, -6, 6)
        if rng.random() < 0.5:
            b = IntMatrix.from_rows(A).matvec([rng.randint(-4, 4) for _ in range(cols)])
        else:
            b = [rng.randint(-9, 9) for _ in range(rows)]
        ours, theirs = ExactSolver(list(zip(*A))).solve(b), ReferenceSolver(A).solve(b)
        assert (ours is None) == (theirs is None), (A, b)
        for x in (ours, theirs):
            if x is not None:
                assert IntMatrix.from_rows(A).matvec(x) == tuple(b), (A, b)
        outcomes.add(ours is None)
    assert outcomes == {True, False}
    assert ExactSolver([[1], [2]]).solve([3]) is not None
    assert ExactSolver([[0], [0]]).solve([1]) is None
    # a right side of the wrong length is refused, not read as outside the
    # lattice
    with pytest.raises(ValueError, match="length mismatch"):
        ExactSolver([[1], [2]]).solve([1, 2])


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(8)
    for _ in range(15):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = rand_matrix(rng, rows, cols, -7, 7)
        D, _, _ = snf(A)
        ours = [d for d in D.diagonal() if d]
        theirs = [int(f) for f in invariant_factors(sympy.Matrix(A)) if f]
        assert ours == theirs, A


def test_cokernel_mod_exponent_matches_exact():
    # A known exponent L of the quotient lets the Smith form run mod L; the
    # group must equal the exact one, and U A V == D (mod L).
    # Kept small: the exact Smith form is the oracle, and its entries can
    # grow without bound on larger dense inputs.
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 4)
        L = rng.choice([1, 2, 6, 7, 12, 49, 60])
        cols = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        cols += [[L if i == j else 0 for i in range(n)] for j in range(n)]
        assert cokernel(cols, n, L) == cokernel(cols, n), (cols, L)
        A = [[col[i] for col in cols] for i in range(n)]
        D, U, V = snf(A, L)
        assert all((x - y) % L == 0 for r1, r2 in zip((U @ IntMatrix.from_rows(A) @ V).entries,
                                                      D.entries) for x, y in zip(r1, r2))
        assert D.is_diagonal()


def test_cokernel_and_finabgroup():
    g = cokernel([[2, 0], [0, 3]], 2)
    assert g == FinAbGroup((6,))
    g = cokernel([], 2)
    assert g.free_rank == 2
    # with no columns the quotient is Z^n / L Z^n, by the same gcd rule
    assert cokernel([], 3, 5) == FinAbGroup((5, 5, 5))
    assert cokernel([[]] * 2, 0, 7).is_trivial()
    assert smith_basis(IntMatrix.zero(0, 3), 0, 7) == []
    assert FinAbGroup.from_orders([0, 30, 4]).factors == (2, 60)
    assert FinAbGroup.from_orders([10]) == FinAbGroup.from_orders([2, 5])
    a = FinAbGroup((2,))
    b = FinAbGroup((15,))
    assert a.direct_sum(b) == FinAbGroup((30,))
    assert str(FinAbGroup((2, 6), 1)) == "Z x C2 x C6"
    with pytest.raises(ValueError):
        FinAbGroup((4, 2))


def test_from_orders_matches_the_full_chain_pass_seeded():
    # An order dividing the chain's smallest factor goes to the front with
    # no gcd/lcm pass; the result must equal the pass over every order.
    rng = random.Random(808)
    big = [2 ** 61 - 1, 2 ** 89 - 1, 3 ** 40, 10 ** 30]
    kinds = {
        "zeros": lambda: 0,
        "ones": lambda: rng.choice((1, -1)),
        "equal": lambda: 6,
        "chained": lambda: rng.choice((2, 4, 12, 24, 72)),
        "coprime": lambda: rng.choice((2, 3, 5, 7, 11, 13)),
        "large": lambda: rng.choice(big) * rng.choice((1, 2, 3)),
    }
    for _ in range(400):
        picked = rng.sample(sorted(kinds), rng.randint(1, 3))
        orders = [kinds[rng.choice(picked)]() for _ in range(rng.randint(0, 30))]
        assert FinAbGroup.from_orders(orders) == reference_from_orders(orders), orders
    assert FinAbGroup.from_orders([3] * 1600) == FinAbGroup((3,) * 1600)


class _Int(int):
    """An int subclass, as list input may hold besides bools."""


def _entries(x):
    """Every integer in a solver result, with IntMatrix and SolutionGroup
    opened up."""
    if isinstance(x, IntMatrix):
        x = x.entries
    elif isinstance(x, SolutionGroup):
        x = (x.generators, x.group.factors, (x.exponent,))
    if isinstance(x, (tuple, list)):
        return [v for item in x for v in _entries(item)]
    return [x]


def test_list_input_becomes_int_at_the_solver_entry_points():
    # List rows go through operator.index once, where they enter; every matrix
    # computed from them afterwards is built as it is, so no bool or int
    # subclass may survive into a result.
    # row 0 is never touched by the Hermite elimination, so its entries
    # reach the result only as converted at the entry point
    rows = [[True, _Int(4), False, True], [False, _Int(6), False, _Int(3)], [0, 0, True, _Int(-5)]]
    square = [row[:3] for row in rows]
    M, S = IntMatrix.from_rows(rows), IntMatrix.from_rows(square)
    calls = {
        "hnf": lambda A: hnf(A),
        "snf": lambda A: snf(A),
        "snf mod 12": lambda A: snf(A, 12),
        "hermite_rows": lambda A: hermite_rows(A),
        "congruence_kernel": lambda A: congruence_kernel(
            list(zip(*getattr(A, "entries", A))), [4, 6, 0]),
        "lattice_kernel_localized": lambda A: lattice_kernel_localized(A, 6),
        "solve_mod": lambda A: solve_mod(A, [4, 6, 9]),
    }
    for name, call in calls.items():
        got, want = call(rows), call(M)
        assert got == want, name
        assert all(type(x) is int for x in _entries(got)), name
    for A in (list(zip(*square)), S.transpose()):
        solver = ExactSolver(A)
        x = solver.solve([True, False, _Int(1)])
        assert x == ExactSolver(S.transpose()).solve([1, 0, 1]) == (1, 0, 1)
        assert all(type(v) is int for v in _entries([solver.H, solver.W, x]))
    for ragged in (IntMatrix.from_rows, hnf, snf, lambda A: snf(A, 12), hermite_rows,
                   lambda A: inverse_mod(A, 5), lambda A: lattice_kernel_localized(A, 6),
                   lambda A: solve_mod(A, [4, 6])):
        with pytest.raises(ValueError, match="ragged"):
            ragged([[1, 2], [3]])
    # entries go through operator.index, not int(): a float is not read as
    # its floor, nor a string as the number it spells
    for bad in (2.5, "3"):
        for call in list(calls.values()) + [IntMatrix.from_rows]:
            with pytest.raises(TypeError):
                call([[bad] + row[1:] for row in rows])
        with pytest.raises(TypeError):
            solve_mod([[bad, 1]], [4])
    # so are the moduli of snf and lattice_kernel_localized, and snf's
    # modulus is L > 0 or 0
    with pytest.raises(TypeError):
        lattice_kernel_localized([[2, 4]], 2.5)
    with pytest.raises(TypeError):
        snf([[2, 4]], 2.0)
    with pytest.raises(ValueError, match=">= 0"):
        snf([[2, 4]], -5)
