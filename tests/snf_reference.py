"""The Smith normal form with unimodular transforms, kept as a test oracle.

The integer kernel and solver here are the ones rograd.linalg used before
it read integer kernels and quotients off Hermite lattice bases only.  The
tests compare the lattice code against them, and check their own U*M*V
diagonal.  The SNF is dense and shares no code with rograd.linalg: it
alternates row-style and column-style Hermite forms until the matrix is
diagonal (Kannan-Bachem), then makes the diagonal a divisibility chain.
rograd.linalg alternates Hermite forms too, but on sparse lattice bases,
without transforms, and through its own LatticeEchelon; this oracle stays
independent dense code that carries U and V, so every factor it returns is
checked as the diagonal of U*M*V.  Every Hermite form is reduced above its
leads, so the working entries stay within the minors of the input; an
elimination without that reduction grew 67-bit inputs of 10 x 14 past
350,000 bits.
"""


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _comb(x, u, y, v):
    """x*u + y*v for dense vectors."""
    return [x * a + y * b for a, b in zip(u, v)]


def _hermite(rows, trans):
    """Row-style Hermite form of the dense rows by unimodular row
    operations, each applied to the rows of trans too.

    Returns (rows, trans) with the nonzero rows first, by increasing lead,
    each lead positive and every entry above a lead in [0, lead), then the
    zero rows.  The rows enter one at a time; a row whose lead column is
    taken is combined with that basis row by an extended gcd, and the basis
    is reduced again after each row."""
    n = len(rows[0]) if rows else 0
    basis = {}  # lead column -> [row, trans row]
    zero = []
    for a, u in zip(rows, trans):
        for c in range(n):
            if not a[c]:
                continue
            if c not in basis:
                if a[c] < 0:
                    a, u = [-v for v in a], [-v for v in u]
                basis[c] = [a, u]
                break
            p, pu = basis[c]
            g, x, y = _xgcd(p[c], a[c])
            s, t = a[c] // g, p[c] // g
            basis[c] = [_comb(x, p, y, a), _comb(x, pu, y, u)]
            a, u = _comb(-s, p, t, a), _comb(-s, pu, t, u)
        else:
            zero.append((a, u))
        leads = sorted(basis)
        for i, lead in enumerate(leads):
            row, ru = basis[lead]
            for c in leads[i + 1 :]:
                p, pu = basis[c]
                q = row[c] // p[c]
                if q:
                    row, ru = _comb(1, row, -q, p), _comb(1, ru, -q, pu)
            basis[lead] = [row, ru]
    done = [basis[c] for c in sorted(basis)] + zero
    return [a for a, _ in done], [u for _, u in done]


def _transpose(rows, ncols):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def smith_normal_form(A):
    """Return (invariant factors, (U, V)) with U*A*V diagonal, U, V unimodular,
    for a dense integer matrix A (a list of rows); U and V are dense too.

    The factor list has length rank(A); each factor is positive and divides
    the next, and it is the diagonal of U*A*V from its first entry on."""
    m, n = len(A), len(A[0]) if A else 0
    identity = lambda k: [[int(i == j) for j in range(k)] for i in range(k)]
    A, U, VT = [list(row) for row in A], identity(m), identity(n)  # VT[j] = column j of V
    while True:
        A, U = _hermite(A, U)
        AT, VT = _hermite(_transpose(A, n), VT)
        A = _transpose(AT, m)
        # a column pass that leaves one entry per row and column puts
        # them on the diagonal, each positive
        if all(not v or r == c for r, row in enumerate(A) for c, v in enumerate(row)):
            break
    d = [A[k][k] for k in range(min(m, n)) if A[k][k]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i] == 0:
                continue
            # [[d_i, 0], [0, d_j]] -> [[g, 0], [0, d_i d_j / g]]: add row j
            # to row i, gcd the columns of row i, clear the entry left in row j
            g, x, y = _xgcd(d[i], d[j])
            U[i] = _comb(1, U[i], 1, U[j])
            VT[i], VT[j] = _comb(x, VT[i], y, VT[j]), _comb(-d[j] // g, VT[i], d[i] // g, VT[j])
            U[j] = _comb(1, U[j], -(y * d[j] // g), U[i])
            d[i], d[j] = g, d[i] * d[j] // g
    return d, (U, _transpose(VT, n))


def integer_kernel(A):
    """Basis (list of dict-vectors) of the pure lattice {x in Z^n : Ax = 0}."""
    factors, (_, V) = smith_normal_form(A)
    return [{i: v for i, v in enumerate(col) if v} for col in zip(*V)][len(factors):]


def integer_solver(A):
    """The function b -> one integer solution x of Ax = b, or None.  One SNF
    of A serves every right-hand side."""
    factors, (U, V) = smith_normal_form(A)
    r = len(factors)

    def solve(b: dict):
        y = {}
        for i, row in enumerate(U):
            ub = sum(u * b.get(c, 0) for c, u in enumerate(row))
            if i < r:
                if ub % factors[i] != 0:
                    return None
                y[i] = ub // factors[i]
            elif ub != 0:
                return None
        x = {}
        for i, row in enumerate(V):
            s = sum(v * y.get(j, 0) for j, v in enumerate(row))
            if s:
                x[i] = s
        return x

    return solve


def solve_integer(A, b: dict):
    """One integer solution x of Ax = b, or None."""
    return integer_solver(A)(b)
