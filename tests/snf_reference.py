"""The Smith normal form with unimodular transforms, kept as a test oracle.

These are the integer kernel and solver that rograd.linalg used before it
read integer kernels and quotients off Hermite lattice bases only.  The
tests compare the lattice code against them, and check their own U*M*V
diagonal.  The transforms grow without bound on sparse inputs past about
12 x 12 (a 30 x 30 input took 16 s, with U entries of 348,644 bits), so
the tests that use them stay small.
"""
from math import gcd, prod

from rograd.linalg import LatticeEchelon, SparseMatrix
from rograd.rings import ZZ


def smith_normal_form(M: SparseMatrix, transforms: bool = True):
    """Return (invariant factors, (U, V)) with U*M*V diagonal, U, V unimodular.

    The factor list has length rank(M); each factor is positive and divides
    the next.  Pivots are chosen to minimize fill-in, with lexicographic
    tie-breaking so results are deterministic.

    With transforms=False the result is (factors, None), the same factors
    found without U or V.  They depend only on the lattice R spanned by the
    rows, so the rows first go into a LatticeEchelon in Hermite normal form,
    which leaves a basis of r = rank(M) rows.  Each row with lead 1 gives a
    factor 1.  The leads of the other k rows multiply to a k x k minor D of
    them, so D * Z^k lies in their column lattice, and the elimination runs
    modulo D (Domich-Kannan-Trotter): every entry stays within D/2, a
    diagonal entry e stands for the factor gcd(e, D), and a missing one for
    D.
    """
    if M.ring.kind != "Z":
        raise ValueError("Smith normal form requires integer entries")
    if transforms:
        m, n = M.rows, M.cols
        entries = M.entries
        D = 0  # no modulus
    else:
        lat = LatticeEchelon(hermite=True)
        for row in M.row_dicts():
            lat.add(row)
        # a lead 1 is the only nonzero entry of its column in Hermite form,
        # so column operations split it off as a factor 1
        basis = [row for row in lat.basis_rows() if row[min(row)] != 1]
        ones = lat.rank - len(basis)
        m, n = len(basis), M.cols
        entries = {(r, c): v for r, row in enumerate(basis) for c, v in row.items()}
        D = prod(row[min(row)] for row in basis)
    A = [dict() for _ in range(m)]
    colidx = [set() for _ in range(n)]
    U = [{r: 1} for r in range(m)] if transforms else None
    VT = [{c: 1} for c in range(n)] if transforms else None  # VT[j] = column j of V

    def set_entry(r, c, v):
        if D:
            v %= D
            if 2 * v > D:
                v -= D
        if v:
            A[r][c] = v
            colidx[c].add(r)
        else:
            if c in A[r]:
                del A[r][c]
                colidx[c].discard(r)

    for (r, c), v in entries.items():
        set_entry(r, c, v)

    def row_op(dst, src, q):
        # row dst -= q * row src
        for c, v in list(A[src].items()):
            set_entry(dst, c, A[dst].get(c, 0) - q * v)
        if U is None:
            return
        for c, v in list(U[src].items()):
            w = U[dst].get(c, 0) - q * v
            if w:
                U[dst][c] = w
            elif c in U[dst]:
                del U[dst][c]

    def col_op(dst, src, q):
        # col dst -= q * col src
        for r in list(colidx[src]):
            set_entry(r, dst, A[r].get(dst, 0) - q * A[r][src])
        if VT is None:
            return
        for r, v in list(VT[src].items()):
            w = VT[dst].get(r, 0) - q * v
            if w:
                VT[dst][r] = w
            elif r in VT[dst]:
                del VT[dst][r]

    def swap_rows(a, b):
        if a == b:
            return
        for c in set(A[a]) | set(A[b]):
            colidx[c].discard(a)
            colidx[c].discard(b)
        A[a], A[b] = A[b], A[a]
        if U is not None:
            U[a], U[b] = U[b], U[a]
        for c in A[a]:
            colidx[c].add(a)
        for c in A[b]:
            colidx[c].add(b)

    def swap_cols(a, b):
        if a == b:
            return
        for r in colidx[a] | colidx[b]:
            va, vb = A[r].get(a), A[r].get(b)
            for c, v in ((a, vb), (b, va)):
                if v is None:
                    A[r].pop(c, None)
                else:
                    A[r][c] = v
        colidx[a], colidx[b] = colidx[b], colidx[a]
        if VT is not None:
            VT[a], VT[b] = VT[b], VT[a]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pivot choice: min fill-in proxy, then |value|, then lexicographic
        best = None
        for c in range(t, n):
            live = [r for r in colidx[c] if r >= t]
            if not live:
                continue
            cn = len(live)
            for r in live:
                rn = sum(1 for cc in A[r] if cc >= t)
                key = ((rn - 1) * (cn - 1), abs(A[r][c]), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
        if best is None:
            break
        _, pr, pc = best
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            # clear column t by euclidean row steps
            moved = False
            rows_here = [r for r in colidx[t] if r != t]
            for r in rows_here:
                a = A[r].get(t)
                if not a:
                    continue
                p = A[t][t]
                q = a // p
                if q:
                    row_op(r, t, q)
                if A[r].get(t):
                    swap_rows(r, t)
                    moved = True
            if moved:
                continue
            cols_here = [c for c in list(A[t]) if c != t]
            for c in cols_here:
                a = A[t].get(c)
                if not a:
                    continue
                p = A[t][t]
                q = a // p
                if q:
                    col_op(c, t, q)
                if A[t].get(c):
                    swap_cols(c, t)
                    moved = True
            if moved:
                continue
            # row & column clean; enforce divisibility on the rest
            d = A[t][t]
            bad = None
            for c in range(t + 1, n):
                for r in colidx[c]:
                    if r > t and A[r][c] % d != 0:
                        bad = r
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # add offending row into pivot row
        if A[t][t] < 0:
            row_op(t, t, 2)  # negate row t: r_t -= 2*r_t
        t += 1

    factors = [A[i][i] for i in range(limit) if A[i].get(i)]
    if not transforms:
        factors = [1] * ones + [gcd(v, D) for v in factors] + [D] * (m - len(factors))
    for a, b in zip(factors, factors[1:]):
        if b % a != 0:
            raise AssertionError("invariant factor chain broken")
    if not transforms:
        return factors, None
    Umat = SparseMatrix.from_rows(U, m, ZZ) if m else SparseMatrix(0, 0, {})
    Vmat = SparseMatrix(
        n, n, {(r, j): v for j, col in enumerate(VT) for r, v in col.items()}, ZZ
    )
    return factors, (Umat, Vmat)


def integer_kernel(M: SparseMatrix):
    """Basis (list of dict-vectors) of the pure lattice {x in Z^n : Mx = 0}."""
    factors, (_, V) = smith_normal_form(M)
    r = len(factors)
    cols = [dict() for _ in range(M.cols)]
    for (i, j), v in V.entries.items():
        cols[j][i] = v
    return cols[r:]


def integer_solver(M: SparseMatrix):
    """The function b -> one integer solution x of Mx = b, or None.  One SNF
    of M serves every right-hand side."""
    factors, (U, V) = smith_normal_form(M)
    r = len(factors)
    Urows = U.row_dicts()
    Vrows = V.row_dicts()

    def solve(b: dict):
        ub = []
        for i in range(M.rows):
            ub.append(sum(v * b.get(c, 0) for c, v in Urows[i].items()))
        y = {}
        for i in range(M.rows):
            if i < r:
                if ub[i] % factors[i] != 0:
                    return None
                y[i] = ub[i] // factors[i]
            elif ub[i] != 0:
                return None
        x = {}
        for i in range(M.cols):
            s = sum(v * y.get(j, 0) for j, v in Vrows[i].items())
            if s:
                x[i] = s
        return x

    return solve


def solve_integer(M: SparseMatrix, b: dict):
    """One integer solution x of Mx = b, or None."""
    return integer_solver(M)(b)
