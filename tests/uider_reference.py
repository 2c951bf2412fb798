"""The whole-module uider(V), kept as a test oracle.

This is the relation stream rograd.lie.UIDer used before it computed
uider(V) on the torus-weight sub-blocks of TKK(V): generators
e_i (x) f_j, the B rows delta(g) g of every generator g and the A rows
delta(g) g' + delta(g') g of every pair g < g', with ud read off
instr(V) by express.  It builds no TKK and uses no weights.
"""
from rograd.jordan import JordanPair
from rograd.lie import instr
from rograd.linalg import _vec_axpy, field_rank, quotient_shape


class UIDerReference:
    def __init__(self, V: JordanPair):
        self.ring = V.ring
        self.inner = instr(V)
        self.n = V.dim(1)
        self.m = V.dim(-1)
        self.gens = self.n * self.m
        # ud matrix: gen (i,j) -> coordinates of delta(e_i, f_j) in instr basis
        self.ud_columns = {}
        for (i, j), op in self.inner.deltas.items():
            coords = self.inner.express(op) if op else {}
            if coords is None:
                raise AssertionError("delta operator escaped instr(V)")
            if coords:
                self.ud_columns[self.gen_index(i, j)] = coords
        self.gen_degrees = None
        if V.degrees is not None:
            # degrees of V^- basis vectors already carry the minus sign
            self.gen_degrees = [
                tuple(a + b for a, b in zip(V.degrees[1][i], V.degrees[-1][j]))
                for i in range(self.n)
                for j in range(self.m)
            ]

    def gen_index(self, i, j) -> int:
        return i * self.m + j

    def delta_action_row(self, op, k, l) -> dict:
        """delta . (e_k (x) f_l) as a sparse generator vector, for delta
        given as a block op on V+ (+) V-."""
        n = self.n
        row = {self.gen_index(p, l): v for p, v in op.get(k, {}).items()}
        tail = {self.gen_index(k, q - n): v for q, v in op.get(n + l, {}).items()}
        return _vec_axpy(self.ring, row, tail)

    def relation_rows(self):
        """Yield the B rows (basis pairs) then the A rows (basis quadruples)."""
        ring = self.ring
        deltas = self.inner.deltas
        for i in range(self.n):
            for j in range(self.m):
                row = self.delta_action_row(deltas[(i, j)], i, j)
                if row:
                    yield row
        for i in range(self.n):
            for j in range(self.m):
                for k in range(self.n):
                    for l in range(self.m):
                        if (k, l) <= (i, j):
                            continue
                        merged = _vec_axpy(
                            ring,
                            self.delta_action_row(deltas[(i, j)], k, l),
                            self.delta_action_row(deltas[(k, l)], i, j),
                        )
                        if merged:
                            yield merged

    def hc(self):
        """HC(V) = ker(ud)/R by one quotient of the whole module."""
        _, kernel = quotient_shape(
            self.ring, self.relation_rows, self.gens, self.ud_columns, self.inner.dim
        )
        return kernel

    def degree_dims(self) -> dict:
        """{degree: free rank of uider(V)_degree}, one quotient per degree
        over the rows of that degree (each checked homogeneous)."""
        blocks = {}
        for g, d in enumerate(self.gen_degrees):
            blocks.setdefault(d, []).append(g)
        rows = {d: [] for d in blocks}
        for row in self.relation_rows():
            d = self.gen_degrees[next(iter(row))]
            if any(self.gen_degrees[g] != d for g in row):
                raise AssertionError("inhomogeneous uider relation")
            rows[d].append(row)
        out = {}
        for d, gens in blocks.items():
            pos = {g: p for p, g in enumerate(gens)}
            u_cols = {pos[g]: self.ud_columns[g] for g in gens if g in self.ud_columns}
            rank_u = field_rank(u_cols.values(), self.inner.dim, self.ring)
            block_rows = [{pos[g]: v for g, v in row.items()} for row in rows[d]]
            shape, _ = quotient_shape(
                self.ring, lambda: iter(block_rows), len(gens), u_cols, rank_u
            )
            if shape.free_rank:
                out[d] = shape.free_rank
        return out
