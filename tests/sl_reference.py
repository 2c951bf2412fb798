"""The closure-search construction of sl_K(D), kept as a test oracle.

This is how rograd.lie.sl_algebra found its basis before it took the
degree-0 part from the brackets [E_ij a, E_ji b] alone: starting from the
off-diagonal generators E_ij e_t, it bracketed every new element with
every element found so far, round after round, until no bracket left the
span.  The rest (the bracket table, labels, the degree-0 check and
sl_data) is the same, so the two constructions can be compared byte for
byte.
"""
from rograd.algebras import tensor_matrix_algebra
from rograd.lie import GradedLieAlgebra, _verify_sl_zero_part
from rograd.linalg import coordinates, span
from rograd.roots import build as _build_roots


def sl_reference(k_size, D):
    """sl_K(D) with its basis from the closure search."""
    if not D.flags.get("associative") or D.unit is None:
        raise ValueError("sl_K(D) needs an associative unital D")
    if k_size < 3:
        raise ValueError("sl_K(D) implemented for card K >= 3")
    ring = D.ring
    amb = tensor_matrix_algebra(k_size, D)
    dd = D.dim

    def amb_idx(i, j, t):
        return (i * k_size + j) * dd + t

    def cell_of(idx):
        cell, t = divmod(idx, dd)
        i, j = divmod(cell, k_size)
        return i, j, t

    def degree_of(idx):
        i, j, _ = cell_of(idx)
        return tuple(int(t == i) - int(t == j) for t in range(k_size))

    gens = []
    for i in range(k_size):
        for j in range(k_size):
            if i != j:
                for t in range(dd):
                    gens.append({amb_idx(i, j, t): ring.coerce(1)})

    # closure under brackets inside the ambient associative algebra
    width = k_size * k_size * dd
    ech = span(ring, width)
    basis_vecs = []
    frontier = []
    for g in gens:
        if ech.add(g):
            frontier.append(g)
    basis_vecs.extend(frontier)
    while frontier:
        new = []
        for x in frontier:
            for y in basis_vecs:
                br = amb.commutator(x, y)
                if br and ech.add(br):
                    new.append(br)
                    basis_vecs.append(br)
        frontier = new

    rows = sorted(ech.basis_rows(), key=lambda r: (degree_of(min(r)), min(r)))
    basis = [{c: ring.coerce(v) for c, v in row.items()} for row in rows]
    degrees = [degree_of(min(r)) for r in rows]
    for vec, deg in zip(basis, degrees):
        assert all(degree_of(c) == deg for c in vec), "inhomogeneous basis vector"

    solve = coordinates(ring, basis, width)

    def coords_of(vec):
        coords = solve(vec)
        if coords is None:
            raise AssertionError("bracket left the generated span")
        return coords

    bracket = {}
    nbasis = len(basis)
    for a in range(nbasis):
        for b in range(a + 1, nbasis):
            br = amb.commutator(basis[a], basis[b])
            if br:
                vec = coords_of(br)
                if vec:
                    bracket[(a, b)] = vec
    labels = []
    coord_vecs = []
    for r in rows:
        i, j, t = cell_of(min(r))
        if i != j:
            labels.append(f"E{i + 1}{j + 1}.{D.labels[t]}")
            vec = {}
            for c, v in r.items():
                ci, cj, ct = cell_of(c)
                assert (ci, cj) == (i, j), "off-diagonal basis row spans cells"
                vec[ct] = ring.coerce(v)
            coord_vecs.append(vec)
        else:
            labels.append(f"h[{min(r)}]")
            coord_vecs.append(None)
    L = GradedLieAlgebra(ring, labels, degrees, bracket, check=False)
    L._check_degrees()
    L.jacobi_ok = True
    L._jacobi_route = "associative-ambient"
    _verify_sl_zero_part(L, D, k_size, amb_idx, rows, ring)
    L.sl_data = {
        "k": k_size,
        "D": D,
        "root_system": _build_roots("A", k_size - 1),
        "degree_of_basis": list(L.degrees),
        "coordinate_of_basis": coord_vecs,
    }
    return L
