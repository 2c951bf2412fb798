"""The hand-derived product tables of H_n(D) and the Albert algebra, kept as
a test oracle.

These are the constructions rograd.jordan used before both algebras were
read off D-valued matrices: the case analysis of a[ij] o b[kl] over
normalized cells for hermitian_algebra, and the e_i / P_i(x) rules for
albert_algebra.  Each reference returns the algebra together with the C_n
root degree of every basis element and the grid family, computed the old
way, so that tables, degrees and grids can be compared entry by entry.
"""
from rograd.jordan import JordanAlgebra, _coords_in, _symmetric_basis
from rograd.linalg import _vec_axpy


def hermitian_reference(n, D):
    """(J, degrees, grid) for H_n(D), from the old case analysis."""
    ring = D.ring
    sym = _symmetric_basis(D)
    index = {}
    labels = []
    basis_payload = []  # (i, j, D-vector) with i <= j
    for i in range(n):
        for s_idx, s in enumerate(sym):
            index[(i, i, s_idx)] = len(labels)
            labels.append(f"sym{s_idx}[{i + 1}{i + 1}]")
            basis_payload.append((i, i, dict(s)))
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(D.dim):
                index[(i, j, t)] = len(labels)
                labels.append(f"{D.labels[t]}[{i + 1}{j + 1}]")
                basis_payload.append((i, j, {t: ring.coerce(1)}))
    sym_coords = _coords_in(ring, sym, D.dim)

    def normalize(i, j, d):
        """d[ij] with arbitrary i, j into the stored (i <= j) convention."""
        if i <= j:
            return i, j, d
        return j, i, D.conj(d)

    def product(p, q):
        (i, j, a) = p
        (k, l, b) = q
        # both arguments normalized with i <= j, k <= l
        terms = {}

        def emit(r, s, dvec, coef=1):
            r2, s2, d2 = normalize(r, s, dvec)
            key = (r2, s2)
            cur = terms.get(key, {})
            terms[key] = D.add(cur, D.smul(coef, d2)) if cur else D.smul(coef, d2)

        if {i, j} & {k, l} == set():
            return {}
        if i == j and k == l:
            if i == k:
                emit(i, i, D.add(D.mul(a, b), D.mul(b, a)))
            return _collect(terms)
        if i == j:  # a[ii] o b[kl], k < l
            if i == k:
                emit(i, l, D.mul(a, b))
            elif i == l:
                emit(k, i, D.mul(b, a))
            return _collect(terms)
        if k == l:  # a[ij] o b[kk]
            if k == i:
                emit(k, j, D.mul(b, a))
            elif k == j:
                emit(i, k, D.mul(a, b))
            return _collect(terms)
        # both off-diagonal
        if (i, j) == (k, l):
            bbar = D.conj(b)
            abar = D.conj(a)
            emit(i, i, D.add(D.mul(a, bbar), D.mul(b, abar)))
            emit(j, j, D.add(D.mul(bbar, a), D.mul(abar, b)))
            return _collect(terms)
        if j == k:  # a[ij] o b[jl]
            emit(i, l, D.mul(a, b))
        elif i == l:  # b[kl=ki] o a[ij]
            emit(k, j, D.mul(b, a))
        elif i == k:  # a[ij] o b[il]: rewrite a[ij] = abar[ji]
            emit(j, l, D.mul(D.conj(a), b))
        elif j == l:  # a[ij] o b[kj]: rewrite b[kj] = bbar[jk]
            emit(i, k, D.mul(a, D.conj(b)))
        return _collect(terms)

    def _collect(terms):
        out = {}
        for (r, s), dvec in terms.items():
            if r == s:
                coords = {index[(r, r, k)]: c for k, c in sym_coords(dvec)}
            else:
                coords = {index[(r, s, t)]: c for t, c in dvec.items()}
            _vec_axpy(ring, out, coords)
        return out

    circ = {}
    for p_idx, p in enumerate(basis_payload):
        for q_idx in range(p_idx, len(basis_payload)):
            vec = product(p, basis_payload[q_idx])
            if vec:
                circ[(p_idx, q_idx)] = vec
                if q_idx != p_idx:
                    circ[(q_idx, p_idx)] = vec
    unit = {}
    for i in range(n):
        for s_idx, coef in sym_coords(D.unit):
            unit[index[(i, i, s_idx)]] = coef
    J = JordanAlgebra(ring, labels, circ, unit)
    degrees = [tuple(int(t == i) + int(t == j) for t in range(n)) for i, j, _ in basis_payload]

    grid = {}
    for i in range(n):
        root = tuple(2 * int(t == i) for t in range(n))
        vec = {}
        for s_idx, coef in sym_coords(D.unit):
            vec[index[(i, i, s_idx)]] = coef
        grid[root] = (dict(vec), dict(vec))
    for i in range(n):
        for j in range(i + 1, n):
            root = tuple(int(t == i) + int(t == j) for t in range(n))
            vec = {}
            for t, coef in D.unit.items():
                vec[index[(i, j, t)]] = coef
            grid[root] = (dict(vec), dict(vec))
    return J, degrees, grid


def albert_reference(ring):
    """(J, degrees, grid) for the split Albert algebra, from the old e_i /
    P_i(x) rules."""
    from rograd.algebras import split_octonions

    O = split_octonions(ring)
    labels = ["e1", "e2", "e3"] + [
        f"P{i + 1}({O.labels[t]})" for i in range(3) for t in range(8)
    ]

    def e_idx(i):
        return i

    def p_idx(i, t):
        return 3 + 8 * i + t

    circ = {}

    def put(a, b, vec):
        if vec:
            circ[(a, b)] = dict(vec)
            if a != b:
                circ[(b, a)] = dict(vec)

    cyc = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for i in range(3):
        put(e_idx(i), e_idx(i), {e_idx(i): 2})
        for j in range(3):
            for t in range(8):
                if i != j:
                    put(e_idx(i), p_idx(j, t), {p_idx(j, t): 1})
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        for t in range(8):
            for s in range(t, 8):
                val = O.norm_bilinear(O.basis_vec(t), O.basis_vec(s))
                if not O.ring.is_zero(val):
                    put(p_idx(i, t), p_idx(i, s), {e_idx(j): val, e_idx(k): val})
    for (i, j), k in cyc.items():
        for t in range(8):
            for s in range(8):
                # P_i(x) o P_j(y) = P_k(ybar xbar)
                prod = O.mul(O.conj(O.basis_vec(s)), O.conj(O.basis_vec(t)))
                vec = {p_idx(k, u): c for u, c in prod.items()}
                put(p_idx(i, t), p_idx(j, s), vec)
    unit = {0: 1, 1: 1, 2: 1}
    J = JordanAlgebra(ring, labels, circ, unit)

    degrees = [tuple(2 * int(t == i) for t in range(3)) for i in range(3)]
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        degrees.extend([tuple(int(t == i) + int(t == j) for t in range(3))] * 8)

    grid = {}
    for i in range(3):
        root = tuple(2 * int(t == i) for t in range(3))
        vec = {i: ring.coerce(1)}
        grid[root] = (dict(vec), dict(vec))
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        root = tuple(int(t == i) + int(t == j) for t in range(3))
        vec = {p_idx(k, t): c for t, c in O.unit.items()}
        grid[root] = (dict(vec), dict(vec))
    return J, degrees, grid
