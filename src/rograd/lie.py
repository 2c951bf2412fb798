"""Graded Lie algebras: instr(V), TKK(V), uider(V), uTKK(V), sl_K(D),
J*J for Jordan algebras, root gradings from grids, structural predicates.

Brackets are sparse tensors on a fixed basis; degrees are integer tuples
(epsilon-coordinates of the root lattice, or a single Z-grading slot).
Jacobi is verified on the basis triples whose Jacobiator can be nonzero,
in Python integers after clearing denominators.

Two subalgebra lemmas (Jacobson, *Lie Algebras*, 1962, ch. I) let the
Jacobi and centre checks run on a generating set S of basis elements:

- {x : ad x is a derivation} is a submodule closed under the bracket
  (ad x a derivation gives ad[x, y] = [ad x, ad y], and a commutator of
  derivations is a derivation), so Jacobi holds on L once it holds on
  every triple that meets S;
- when Jacobi holds, the centralizer of any z is a subalgebra, so z is
  central once [z, s] = 0 for every s in S.

The two model constructions take part of Jacobi from how they are built
(jacobi_certificate records the route).  TKK(V) evaluates only its
(x+, T, y-) triples that meet S: the others vanish in any closed operator
span or by the symmetry that delta_table builds in (_verify_tkk_jacobi).
sl_K(D) evaluates none: its bracket is the commutator of the associative
M_K(D), read back in exact coordinates, and a commutator bracket satisfies
Jacobi.  Its basis is the generators E_ij a plus the transposed brackets
[E_ij a, E_ji b], and that bracket loop also checks closure.  A hand-built
GradedLieAlgebra keeps the generic verify_jacobi.
"""
from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial
from itertools import combinations, islice, permutations, zip_longest
from math import gcd, lcm
from operator import add

from .algebras import StructureAlgebra, tensor_matrix_algebra
from .jordan import JordanAlgebra, JordanPair
from .linalg import (
    ModuleShape,
    _op_axpy,
    _op_bracket,
    _op_flatten,
    _op_scale,
    _vec_axpy,
    coordinates,
    field_rank,
    kernel_basis,
    lattice_span,
    quotient_shape,
    rank_certified,
    same_span,
    span,
)
from .rings import BaseRing
from .roots import build as _build_roots


# ---------------------------------------------------------------------------
# Jacobi helpers
# ---------------------------------------------------------------------------


def _reaches(ad, a, b, c) -> bool:
    """Whether [[e_a, e_b], e_c] has a nonzero term (support only)."""
    return any(c in ad[t] for t in ad[a].get(b, ()))


def _integral_ad(L) -> list:
    """ad[i][j] = denom * [e_i, e_j] in Python ints, for the lcm denom of
    L's structure constants (1 over Z and F_p); empty brackets are absent."""
    denom = 1
    for vec in L.bracket.values():
        for v in vec.values():
            denom = lcm(denom, v.denominator)
    ad = [{} for _ in range(L.dim)]
    for (i, j), vec in L.bracket.items():
        row = {k: int(v * denom) for k, v in vec.items()}
        ad[i][j] = row
        ad[j][i] = {k: -c for k, c in row.items()}
    return ad


def _generating_set(L, ad):
    """Basis indices S of nonzero degree whose right-normed words span L
    (over Z the whole lattice), or None when those of L do not.

    Candidates come round-robin over the nonzero degree blocks in
    increasing degree (V-, V+, V-, ... on a TKK algebra), and c joins S
    only when e_c lies outside the span W of the words so far; W is then
    closed under ad_s for every s in S.  ad is _integral_ad(L): a positive
    multiple of the bracket, so it has the same words up to scale.
    """
    n = L.dim
    blocks = [idx for d, idx in sorted(L.degree_blocks().items()) if any(d)]
    W = span(L.ring, n)
    words, gens, done = [], [], []  # done[g]: words already hit by ad_{gens[g]}
    for c in (c for group in zip_longest(*blocks) for c in group if c is not None):
        if W.is_full(n):
            break
        if not W.add({c: 1}):
            continue
        words.append({c: 1})
        gens.append(c)
        done.append(0)
        grew = True
        while grew and not W.is_full(n):
            grew = False
            for g, s in enumerate(gens):
                while done[g] < len(words):
                    word = words[done[g]]
                    done[g] += 1
                    out = {}
                    for t, x in word.items():
                        _vec_axpy(L.ring, out, ad[s].get(t, {}), x)
                    if out and W.add(out):
                        words.append(out)
                        grew = True
    return gens if W.is_full(n) else None


def _jacobiator(ad, i, j, k, p) -> bool:
    """Whether J(e_i, e_j, e_k) is nonzero (mod p when p > 0)."""
    out = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for t, x in ad[a].get(b, {}).items():
            for s, y in ad[t].get(c, {}).items():
                out[s] = out.get(s, 0) + x * y
    if p:
        return any(v % p for v in out.values())
    return any(out.values())


# ---------------------------------------------------------------------------
# operator Lie algebras (spans of matrices acting on a module)
# ---------------------------------------------------------------------------


class OperatorLieAlgebra:
    """Lie span of operator generators on a carrier module.

    Generators are sparse ops (dict col -> dict row -> scalar).  The basis
    is the staircase of linalg.lattice_span on the flattened generators
    (integral in characteristic 0, so coordinates mostly stay integral),
    and linalg.coordinates solves in it.  With closure_check the bracket of
    every basis pair a < b is checked to lie in the span, by the commutator
    loop _basis_brackets that tkk also runs.
    """

    def __init__(self, ring: BaseRing, carrier_dim: int, generators, closure_check=True):
        self.ring = ring
        self.carrier_dim = carrier_dim
        self.generators = list(generators)
        width = carrier_dim * carrier_dim
        gen = lattice_span(ring, width)
        for op in self.generators:
            gen.add(_op_flatten(op, carrier_dim))
        rows = gen.basis_rows()
        self.basis = [self._unflatten(row) for row in rows]
        self._coords = coordinates(ring, rows, width)
        if closure_check:
            self._verify_closed()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _unflatten(self, row: dict):
        n = self.carrier_dim
        op = {}
        for key, v in row.items():
            i, j = divmod(key, n)
            op.setdefault(j, {})[i] = self.ring.coerce(v)
        return op

    def express(self, op):
        """Coordinates of op in the chosen basis, or None if outside.

        Over Z a coordinate that is not an integer raises ValueError."""
        return self._coords(_op_flatten(op, self.carrier_dim))

    def _basis_brackets(self):
        """Yield (a, b, coords) for the basis pairs a < b whose bracket can
        be nonzero; coords is None when the bracket leaves the span.

        A pair is skipped when neither op's rows meet the other's columns,
        for then AB = BA = 0.  AB - BA is summed in one sparse accumulator
        (Gustavson, ACM TOMS 4, 1978) keyed i * N + j, as _op_flatten lays
        ops out, and solved in the basis directly."""
        N = self.carrier_dim
        # per op: its entries (column j, row t, value x), its columns t as
        # (i * N, x) lists, its column keys and its row support
        shapes = []
        for op in self.basis:
            entries = [(j, t, x) for j, col in op.items() for t, x in col.items()]
            cols = {t: [(i * N, x) for i, x in col.items()] for t, col in op.items()}
            shapes.append((entries, cols, op.keys(), {t for _, t, _ in entries}))
        for a, (A, colsA, a_cols, a_rows) in enumerate(shapes):
            for b in range(a + 1, len(shapes)):
                B, colsB, b_cols, b_rows = shapes[b]
                if a_rows.isdisjoint(b_cols) and b_rows.isdisjoint(a_cols):
                    continue
                acc = {}
                for j, t, x in B:  # += A B
                    colA = colsA.get(t)
                    if colA:
                        for iN, y in colA:
                            key = iN + j
                            acc[key] = acc.get(key, 0) + y * x
                for j, t, x in A:  # -= B A
                    colB = colsB.get(t)
                    if colB:
                        for iN, y in colB:
                            key = iN + j
                            acc[key] = acc.get(key, 0) - y * x
                yield a, b, self._coords(acc)

    def _verify_closed(self):
        for _, _, coords in self._basis_brackets():
            if coords is None:
                raise AssertionError("operator span is not bracket-closed")


# ---------------------------------------------------------------------------
# graded Lie algebras
# ---------------------------------------------------------------------------


class GradedLieAlgebra:
    """Finite-basis Lie algebra with sparse bracket tensor and degree map."""

    def __init__(self, ring: BaseRing, labels, degrees, bracket, check=True):
        self.ring = ring
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.degrees = [tuple(d) for d in degrees]
        # bracket: dict (i, j) with i < j -> dict k -> scalar
        self.bracket = {}
        for (i, j), vec in bracket.items():
            if i >= j:
                raise ValueError("bracket tensor keys must have i < j")
            clean = {}
            for k, v in vec.items():
                v = ring.coerce(v)
                if not ring.is_zero(v):
                    clean[k] = v
            if clean:
                self.bracket[(i, j)] = clean
        self.jacobi_ok = None
        self._jacobi_route = None  # set by a construction that certifies Jacobi itself
        if check:
            self._check_degrees()
            self.verify_jacobi()

    # -- basic operations -------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return dict(self.bracket.get((i, j), {}))
        vec = self.bracket.get((j, i), {})
        return {k: self.ring.neg(v) for k, v in vec.items()}

    def bracket_vec(self, x: dict, y: dict) -> dict:
        ring = self.ring
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                vec = self.bracket_basis(i, j)
                if vec:
                    _vec_axpy(ring, out, vec, ring.mul(a, b))
        return out

    def degree_blocks(self):
        blocks = {}
        for i, d in enumerate(self.degrees):
            blocks.setdefault(d, []).append(i)
        return blocks

    def support(self):
        return sorted(self.degree_blocks())

    # -- verification -----------------------------------------------------
    def _check_degrees(self):
        for (i, j), vec in self.bracket.items():
            want = tuple(a + b for a, b in zip(self.degrees[i], self.degrees[j]))
            for k in vec:
                if self.degrees[k] != want:
                    raise AssertionError(
                        f"bracket [{i},{j}] leaves the degree-{want} component"
                    )

    def generators(self):
        """Basis indices S of nonzero degree that generate L, or None.

        S is greedy (see _generating_set) and cached.  The Jacobi and
        centre checks need only S: the x with ad x a derivation form a
        subalgebra, and so does the centralizer of any z once Jacobi holds.
        """
        if not hasattr(self, "_generators"):
            self._generators = _generating_set(self, _integral_ad(self))
        return self._generators

    def diagonal_torus(self):
        """(hs, weights), cached: a basis hs of the h in L_0 with ad h
        diagonal on the basis (over Z of that lattice), and per basis index
        b the tuple weights[b] of the integers (mod p over F_p) lambda_k with
        [h_k, e_b] = lambda_k e_b, each h_k over Q scaled to make them so.
        The h solve [h, s] in k s for the s in generators() (one
        kernel_basis) and are checked on every basis vector; if one fails,
        every basis vector takes the place of S."""
        if not hasattr(self, "_torus"):
            gens = self.generators()
            torus = gens is not None and self._solve_torus(gens)
            self._torus = torus or self._solve_torus(range(self.dim))
        return self._torus

    def _solve_torus(self, cols):
        """diagonal_torus solved on cols; None if an h is not diagonal."""
        ring = self.ring
        zero = [i for i, d in enumerate(self.degrees) if not any(d)]
        eqs = {}  # one row per equation: the e_t-coefficient of [h, e_s], t != s
        for s in cols:
            for a, z in enumerate(zero):
                for t, v in self.bracket_basis(z, s).items():
                    if t != s:
                        eqs.setdefault((s, t), {})[a] = v
        kernel = kernel_basis(eqs.values(), len(zero), ring)
        hs = [{zero[a]: v for a, v in vec.items()} for vec in kernel]
        lams = []
        for h in hs:
            out = [{} for _ in range(self.dim)]  # out[b] = [h, e_b]
            for z, c in h.items():
                for b, vec in enumerate(out):
                    _vec_axpy(ring, vec, self.bracket_basis(z, b), c)
            if any(set(vec) - {b} for b, vec in enumerate(out)):
                return None
            lam = [vec.get(b, 0) for b, vec in enumerate(out)]
            scale = lcm(1, *(getattr(v, "denominator", 1) for v in lam))
            h.update((z, ring.coerce(c * scale)) for z, c in h.items())
            lams.append([ring.coerce(v * scale) for v in lam])
        return hs, list(zip(*lams)) or [()] * self.dim

    def verify_jacobi(self):
        """Jacobi identity on the basis triples that meet generators().

        With denominators cleared, ad[i][j] = denom * [e_i, e_j].  The
        Jacobiator J(e_i, e_j, e_k) is alternating, so only triples
        i < j < k are checked, and only those where a cyclic term
        [[e_a, e_b], e_c] can be nonzero: c is bracketed nontrivially by some
        e_t in the support of [e_a, e_b].  Over F_p the entries are reduced
        mod p at the end.

        J(s, b, c) = 0 for all b, c says that ad s is a derivation, and the
        x with ad x a derivation form a submodule closed under the bracket:
        ad[x, y] = [ad x, ad y] when ad x is a derivation, and a commutator
        of derivations is a derivation.  That submodule holds every
        right-normed word in S = generators(), and those words span L, so
        only triples that meet S are evaluated.  When S is None every triple
        is.
        """
        ad = _integral_ad(self)
        if not hasattr(self, "_generators"):
            self._generators = _generating_set(self, ad)
        gens = self._generators
        gens = set(range(self.dim) if gens is None else gens)
        p = self.ring.characteristic
        for i, j in self.bracket:
            ks = set()
            for t in ad[i][j]:
                ks.update(ad[t])
            ks.discard(i)
            ks.discard(j)
            if i not in gens and j not in gens:
                ks &= gens
            for k in ks:
                # evaluate the triple a < b < c only from the first of its
                # pairs (a, b), (a, c), (b, c) whose bracket reaches the
                # third index; the earlier pairs are {i, k} and, if k < i,
                # {k, j}.  A triple that meets generators() does so from
                # each of its pairs.
                if k < j and (_reaches(ad, i, k, j) or (k < i and _reaches(ad, j, k, i))):
                    continue
                if _jacobiator(ad, i, j, k, p):
                    a, b, c = sorted((i, j, k))
                    raise AssertionError(
                        f"Jacobi identity fails on basis triple ({a}, {b}, {c})"
                    )
        self.jacobi_ok = True

    @property
    def jacobi_certificate(self):
        """How jacobi_ok was certified, or None while it is not:
        "operator-span" (TKK(V), _verify_tkk_jacobi), "associative-ambient"
        (sl_K(D)), or by verify_jacobi "generators", or "all-triples" when
        generators() is None."""
        if not self.jacobi_ok:
            return None
        if self._jacobi_route:
            return self._jacobi_route
        return "all-triples" if self.generators() is None else "generators"

    # -- predicates ---------------------------------------------------------
    def derived_rows(self):
        for vec in self.bracket.values():
            yield dict(vec)

    def is_perfect(self) -> bool:
        """Whether the brackets span L (over Z: the whole lattice)."""
        ech = span(self.ring, self.dim)
        for row in self.derived_rows():
            if ech.is_full(self.dim):
                break
            ech.add(row)
        return ech.is_full(self.dim)

    def centre_basis(self):
        """Basis of {z : [z, L] = 0} (exact; pure lattice over Z), cached.

        Once Jacobi holds (jacobi_ok), the centralizer of z is a subalgebra,
        so [z, s] = 0 for every s in generators() makes z central: the rows
        [e_i, e_s] alone certify a trivial centre.  When they fall short of
        rank dim, every row is used, so a returned basis does not depend
        on that shortcut, nor on when it was first computed.
        """
        if not hasattr(self, "_centre"):
            self._centre = self._solve_centre()
        return self._centre

    def _solve_centre(self):
        ring = self.ring
        n = self.dim

        def rows_of(cols):
            # row (j, k) holds the coefficients of e_k in [e_i, e_j]: z is
            # in the kernel of the rows of j exactly when [z, e_j] = 0
            rows = {}
            for j in cols:
                for i in range(n):
                    for k, v in self.bracket_basis(i, j).items():
                        rows.setdefault((j, k), {})[i] = v
            return list(rows.values())

        gens = self.generators() if self.jacobi_ok else None
        if gens is not None:
            row_list = rows_of(sorted(gens))
            if rank_certified(lambda: iter(row_list), n, n, ring) == n:
                return []
        row_list = rows_of(range(n))
        if rank_certified(lambda: iter(row_list), n, n, ring) == n:
            return []
        return kernel_basis(row_list, n, ring)

    # -- reports ------------------------------------------------------------
    def to_json(self) -> dict:
        ring = self.ring
        return {
            "ring": repr(ring),
            "dim": self.dim,
            "labels": self.labels,
            "degrees": [list(d) for d in self.degrees],
            "bracket": [
                [i, j, [[k, ring.scalar_str(v)] for k, v in sorted(vec.items())]]
                for (i, j), vec in sorted(self.bracket.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict, ring: BaseRing) -> "GradedLieAlgebra":
        bracket = {}
        for i, j, terms in data["bracket"]:
            bracket[(i, j)] = {k: ring.parse_scalar(s) for k, s in terms}
        return cls(ring, data["labels"], [tuple(d) for d in data["degrees"]], bracket)

    def report(self) -> str:
        preds = structural_predicates(self)
        lines = [
            f"dim {self.dim} over {self.ring}",
            f"support {self.support()}",
            f"perfect: {preds['is_perfect']}",
            f"centre dimension: {len(preds['centre_basis'])}",
            f"jacobi: {preds['jacobi_ok']}",
        ]
        return "\n".join(lines)


class _Keys:
    """Torus weight and degree of each basis vector as one int (balanced
    digits in base B, the r weight digits lowest): the key of a wedge or a
    triple is a sum of ints.  Over F_p canon() reduces the weight mod p.

    Where mu(h) ker u lies in the relations, the sub-blocks (group,
    by_degree) whose weight mu has a unit entry have kernel 0 and read no
    row; over Z gcd(mu) kills the kernel of the others (killed)."""

    def __init__(self, degrees, weights, ring):
        rows = [tuple(w) + tuple(d) for d, w in zip(degrees, weights)]
        self.r, self.a = (len(weights[0]), len(degrees[0])) if rows else (0, 0)
        self.p, self.z = ring.p, ring.kind == "Z"
        # a sum or difference of three keys has digits within 3 * big
        self.base = 6 * max((abs(c) for row in rows for c in row), default=0) + 3
        self.wbase = self.base**self.r
        self.of = [self.pack(row) for row in rows]

    def pack(self, digits) -> int:
        return sum(c * self.base**k for k, c in enumerate(digits))

    def unpack(self, x: int, width: int) -> list:
        digits, half = [], self.base // 2
        for _ in range(width):
            digits.append((x + half) % self.base - half)
            x = (x - digits[-1]) // self.base
        return digits

    def weight(self, x: int) -> int:
        """The packed weight of a key; x - weight(x) is its degree part."""
        return (x + self.wbase // 2) % self.wbase - self.wbase // 2

    def canon(self, x: int) -> int:
        """The key with the same degree and weight mod p (x outside F_p)."""
        if self.p is None:
            return x
        w = self.weight(x)
        return x - w + self.pack([c % self.p for c in self.unpack(w, self.r)])

    def group(self, keyed) -> dict:
        """{canon key: its items} of the (key, item) pairs, sorted when keyed is."""
        raw = {}
        for key, item in keyed:
            raw.setdefault(key, []).append(item)
        if self.p is None:
            return raw
        merged = {}
        for key, items in raw.items():
            merged.setdefault(self.canon(key), []).extend(items)
        return {key: sorted(items) for key, items in merged.items()}

    def by_degree(self, groups) -> list:
        """[(degree, [(key, items, g)])] of group()'s output by degree, g
        the gcd of the key's weight over Z, and over a field 1 when some
        entry is nonzero, else 0.  A sub-block with g = 1 is certified."""
        parts = {}  # degree part of a key -> its sub-blocks
        for key, items in groups.items():
            w = self.weight(key)
            g = gcd(*self.unpack(w, self.r)) if self.z else int(bool(w))
            parts.setdefault(key - w, []).append((key, items, g))
        return sorted(
            (tuple(self.unpack(k // self.wbase, self.a)), subs) for k, subs in parts.items()
        )

    def killed(self, kernel, g: int, where: str):
        """kernel, checked over Z to be killed by its weight gcd g."""
        if self.z and g and (kernel.free_rank or any(g % f for f in kernel.torsion)):
            raise AssertionError(f"{where} has kernel {kernel}, not killed by its weight gcd {g}")
        return kernel


def structural_predicates(L: GradedLieAlgebra) -> dict:
    return {
        "is_perfect": L.is_perfect(),
        "centre_basis": L.centre_basis(),
        "jacobi_ok": bool(L.jacobi_ok),
    }


# ---------------------------------------------------------------------------
# instr(V) and TKK(V)
# ---------------------------------------------------------------------------


def _delta_block_op(V: JordanPair, x, y):
    """delta(x,y) = (D_{x,y}, -D_{y,x}) as one sparse op on V+ (+) V-."""
    n = V.dim(1)
    Dp, Dm = V.delta(x, y)
    op = {}
    for j, col in Dp.items():
        op[j] = dict(col)
    for j, col in Dm.items():
        op[n + j] = {n + i: v for i, v in col.items()}
    return op


def instr(V: JordanPair) -> OperatorLieAlgebra:
    """Inner derivation algebra: the span of all delta(x, y).

    The span is already bracket-closed ([delta, delta'] = delta(delta x, y)
    + delta(x, delta' y)); closure is nevertheless verified, by the one
    commutator loop over basis pairs that tkk also runs for its [T, S]
    brackets.  The result's deltas attribute maps each basis pair (i, j) to
    delta(e_i, f_j) as a block op, read off V.delta_table(), for tkk and
    UIDer to reuse.
    """
    inner = _instr(V)
    inner._verify_closed()
    return inner


def _instr(V: JordanPair) -> OperatorLieAlgebra:
    """instr(V) without the closure check."""
    deltas = V.delta_table()
    carrier = V.dim(1) + V.dim(-1)
    inner = OperatorLieAlgebra(
        V.ring, carrier, [op for op in deltas.values() if op], closure_check=False
    )
    inner.deltas = deltas
    return inner


class TKKAlgebra(GradedLieAlgebra):
    """TKK(V) = V+ (+) instr(V) (+) V-, Z-graded with support {-1, 0, 1}.

    Built unchecked: _tkk checks the degrees and Jacobi."""

    def __init__(self, pair: JordanPair, inner: OperatorLieAlgebra, labels, degrees, bracket):
        self.pair = pair
        self.inner = inner
        self.n_plus = pair.dim(1)
        self.n_minus = pair.dim(-1)
        super().__init__(pair.ring, labels, degrees, bracket, check=False)


def tkk(V: JordanPair) -> TKKAlgebra:
    """Tits-Kantor-Koecher algebra of a Jordan pair; centre checked trivial
    (ValueError otherwise: a valid pair can have a centred TKK, such as
    M(1,1,F_2), whose TKK is sl_2 over F_2)."""
    L = _tkk(V)
    if L.centre_basis():
        raise ValueError("TKK(V) has a nontrivial centre")
    return L


def _tkk(V: JordanPair) -> TKKAlgebra:
    """TKK(V) with instr(V) closed and Jacobi verified, centre unchecked."""
    L = _assemble_tkk(V)
    L._check_degrees()
    _verify_tkk_jacobi(L)
    return L


def _verify_tkk_jacobi(L: TKKAlgebra):
    """Jacobi on TKK(V) from its triples (x+, T, y-) that meet generators().

    Every other triple vanishes by construction:
    - (x, T, T') and (T, T', T''): [T, x] is T x and [T, T'] is the
      commutator, solved exactly by coordinates (which raises outside the
      span), so these are Jacobiators of End(V+ (+) V-);
    - (x+, u+, y-) is D(u, y) x - D(x, y) u, as [x+, y-] is delta(x, y) in
      exact coordinates, and (x+, y-, v-) is its analogue on V-:
      delta_table writes column b of delta(e_a, f_j) and column a of
      delta(e_b, f_j) from one vector, and likewise on V-;
    - on the rest no cyclic term can be nonzero, as [V+, V+] = [V-, V-] = 0.
    So ad s is a derivation for s in S = generators() once J(s, T, y-) = 0
    or J(x+, T, s) = 0 for every x, T, y, and verify_jacobi's subalgebra
    lemma carries Jacobi from S to L (every x and y when S is None).  Each
    triple is evaluated once, from its pair (x+, y-), and only for the T
    with a cyclic term that can be nonzero.
    """
    ad = _integral_ad(L)
    gens = L._generators = _generating_set(L, ad)
    n, k = L.n_plus, L.inner.dim
    inner, minus = range(n, n + k), range(n + k, L.dim)
    S = set(range(L.dim) if gens is None else gens)
    p = L.ring.characteristic
    # per basis index: the T it brackets nontrivially, with the support of
    # that bracket, and the indices of the opposite side it brackets with
    by_t = [{t: row.keys() for t, row in ad[a].items() if t in inner} for a in range(L.dim)]
    other = [{b for b in row if b not in inner} for row in ad]
    for x in range(n):
        for y in minus:
            if x not in S and y not in S:
                continue
            ts = {t for t, sup in by_t[x].items() if not other[y].isdisjoint(sup)}  # [[x, T], y]
            ts.update(t for t, sup in by_t[y].items() if not other[x].isdisjoint(sup))  # [[T, y], x]
            for u in ad[x].get(y, ()):  # [[y, x], T]
                ts.update(by_t[u])
            for t in sorted(ts):
                if _jacobiator(ad, x, t, y, p):
                    raise AssertionError(f"Jacobi identity fails on basis triple ({x}, {t}, {y})")
    L.jacobi_ok = True
    L._jacobi_route = "operator-span"


def _assemble_tkk(V: JordanPair) -> TKKAlgebra:
    """TKK(V) with instr(V) closed, degrees and Jacobi unchecked.

    instr(V) is built unchecked: the [T, S] brackets come from
    OperatorLieAlgebra._basis_brackets, one commutator per basis pair a < b
    whose supports meet, and a bracket that leaves the span raises.
    [T, x+] and [T, y-] are read off the columns of T.
    """
    ring = V.ring
    inner = _instr(V)
    n, m, k = V.dim(1), V.dim(-1), inner.dim
    # a pair built without labels gets its basis indices
    names = V.labels or {1: range(n), -1: range(m)}
    labels = (
        [f"x+{lbl}" for lbl in names[1]]
        + [f"T{t}" for t in range(k)]
        + [f"x-{lbl}" for lbl in names[-1]]
    )
    degrees = [(1,)] * n + [(0,)] * k + [(-1,)] * m
    bracket = {}
    # [x+, y-] = delta(x, y)
    for (i, j), op in inner.deltas.items():
        coords = inner.express(op) if op else {}
        if coords is None:
            raise AssertionError("delta operator escaped instr(V)")
        if coords:
            bracket[(i, n + k + j)] = {n + t: c for t, c in coords.items()}
    # [T, x+] and [T, y-]: column i of T is T e_i, column n + j is T f_j
    for t, op in enumerate(inner.basis):
        for c in sorted(op):
            col = op[c]
            if c < n:
                vec = {p: ring.neg(v) for p, v in col.items() if p < n}
                if vec:
                    bracket[(c, n + t)] = vec
            else:
                vec = {k + p: v for p, v in col.items() if p >= n}
                if vec:
                    bracket[(n + t, k + c)] = vec
    # [T, S]
    for a, b, coords in inner._basis_brackets():
        if coords is None:
            raise AssertionError("instr(V) is not bracket-closed")
        if coords:
            bracket[(n + a, n + b)] = {n + t: c for t, c in coords.items()}
    return TKKAlgebra(V, inner, labels, degrees, bracket)


# ---------------------------------------------------------------------------
# uider(V), HC(V) and uTKK(V)
# ---------------------------------------------------------------------------


class UIDer:
    """Universal inner derivation module: V+ (x) V- modulo the A and B
    relation families, with ud onto instr(V) and HC(V) = ker(ud).

    It is computed on torus-weight sub-blocks, as the uce is (_Keys).
    Building TKK(V) verifies Jacobi, so the weights of its diagonal torus
    grade the relations, which lie in ker ud (ud of a relation row is a
    Jacobiator).  x_i (x) y_j has weight lambda(x_i) + lambda(y_j) and V's
    root degree, if any.  An h in the torus is ud(c), as the deltas span
    instr(V), so for z in ker ud of weight mu the A relation puts mu(h) z
    = delta(c) z + delta(z) c in R: a unit weight carries no HC.
    """

    def __init__(self, V: JordanPair):
        L = _tkk(V)
        self.pair, self.ring, self.inner = V, V.ring, L.inner
        n, m, k = V.dim(1), V.dim(-1), L.inner.dim
        self.n, self.m, self.gens = n, m, n * m
        gens = [(i, j) for i in range(n) for j in range(m)]
        lam = L.diagonal_torus()[1]
        degrees = V.degrees or {1: [()] * n, -1: [()] * m}
        keys = self._keys = _Keys(
            [tuple(map(add, degrees[1][i], degrees[-1][j])) for i, j in gens],
            [tuple(map(add, lam[i], lam[n + k + j])) for i, j in gens],
            V.ring,
        )
        # ud(x_i (x) y_j) = [x+_i, x-_j], in instr coordinates
        brackets = [L.bracket.get((i, n + k + j)) for i, j in gens]
        self._ud = {g: {t - n: c for t, c in vec.items()} for g, vec in enumerate(brackets) if vec}
        # sub-block key -> its sorted generators
        self._blocks = keys.group((key, g) for g, key in enumerate(keys.of))

    def _act(self, g: int, h: int) -> dict:
        """delta(g) . h on generators, delta(g) a block op on V+ (+) V-."""
        n, m = self.n, self.m
        op, (k, l) = self.inner.deltas[divmod(g, m)], divmod(h, m)
        row = {p * m + l: v for p, v in op.get(k, {}).items()}
        tail = {k * m + q - n: v for q, v in op.get(n + l, {}).items()}
        return _vec_axpy(self.ring, row, tail)

    def _relation_rows(self, key, gens):
        """The rows of weight key on the sub-block gens: delta(g) g for the
        B family (not the doubled A row, as 2 = 0 over F_2), and delta(g) g'
        + delta(g') g for A, g < g', over the generator pairs whose keys sum
        to key, in order of g."""
        keys, blocks = self._keys, self._blocks
        pos = {g: p for p, g in enumerate(gens)}
        for g in range(self.gens):
            partners = blocks.get(keys.canon(key - keys.of[g]), ())
            for h in islice(partners, bisect_left(partners, g), None):
                row = self._act(g, h)
                if h != g:
                    _vec_axpy(self.ring, row, self._act(h, g))
                if any(t not in pos for t in row):
                    raise AssertionError("uider relation fell outside its weight sub-block")
                if row:
                    yield {pos[t]: v for t, v in row.items()}

    def _rank_ud(self, gens) -> int:
        ud = [self._ud[g] for g in gens if g in self._ud]
        return field_rank(ud, self.inner.dim, self.ring)

    @cached_property
    def _hc_blocks(self) -> dict:
        """{key: HC part} of the sub-blocks whose weight has no unit entry,
        each checked over Z to be killed by its weight gcd."""
        out = {}
        for d, subs in self._keys.by_degree(self._blocks):
            for key, gens, g in (sub for sub in subs if sub[2] != 1):
                u_cols = {p: self._ud[h] for p, h in enumerate(gens) if h in self._ud}
                rows = partial(self._relation_rows, key, gens)
                _, kernel = quotient_shape(self.ring, rows, len(gens), u_cols, self._rank_ud(gens))
                out[key] = self._keys.killed(kernel, g, f"HC block {d}")
        return out

    def hc(self):
        """Normal form of HC(V) = ker(ud), the centre of the covering."""
        return sum(self._hc_blocks.values(), ModuleShape(0))

    def dim_over_field(self) -> int:
        """dim of uider(V) over a field."""
        return self.hc().free_rank + self.inner.dim

    def degree_dims(self) -> dict:
        """Dimensions of the root-degree components of uider(V), for pairs
        with a root grading: rank(ud) on the degree plus its HC.  Over Z
        they are free ranks, as uider(V) (x) Q = uider(V (x) Q)."""
        if self.pair.degrees is None:
            raise ValueError("pair carries no root grading")
        dims = {
            d: self._rank_ud([g for _, gens, _ in subs for g in gens])
            + sum(self._hc_blocks[key].free_rank for key, _, g in subs if g != 1)
            for d, subs in self._keys.by_degree(self._blocks)
        }
        return {d: dim for d, dim in dims.items() if dim}


def uider(V: JordanPair):
    return UIDer(V)


class UTKK:
    """Universal TKK algebra: V+ (+) uider(V) (+) V-, with the covering map
    onto TKK(V) given by (id, ud, id); kernel = HC(V) in degree 0."""

    def __init__(self, V: JordanPair):
        self.pair = V
        self.uider = UIDer(V)
        self.kernel_shape = self.uider.hc()

    def degree_part_dims(self):
        return {1: self.pair.dim(1), -1: self.pair.dim(-1)}


def utkk(V: JordanPair) -> UTKK:
    return UTKK(V)


# ---------------------------------------------------------------------------
# sl_K(D) for associative D
# ---------------------------------------------------------------------------


def sl_algebra(k_size: int, D: StructureAlgebra) -> GradedLieAlgebra:
    """Subalgebra of gl_K(D) generated by off-diagonal E_ij a, A_{K-1}-graded.

    The basis is the generators E_ij e_t, as unit rows, plus an echelon
    basis of the brackets [E_ij e_a, E_ji e_b] = E_ii (e_a e_b) - E_jj (e_b e_a).
    Closure is checked, not assumed: the bracket loop reads every bracket of
    basis rows back in exact coordinates (it raises outside the span, and
    over Z a fractional coefficient raises ValueError), so the rows span a
    subalgebra containing the generators, and as each row is a generator or
    a sum of their brackets, it is the subalgebra they generate.  The
    degree-0 rows are then checked to span L_0 = {sum E_ii a_i : sum a_i in
    [D, D]}.

    Jacobi is certified by the associative ambient, not by Jacobiators:
    every bracket is a commutator in M_K(D), read back in exact coordinates
    on independent basis rows, so L is a Lie subalgebra of M_K(D) under
    [a, b] = ab - ba.  M_K(D) is associative, as D is: D's flag is set only
    by an associator scan (D's own, or for D = M_n(D') that of D'), and a
    commutator bracket of an associative algebra satisfies Jacobi
    (Jacobson, *Lie Algebras*, 1962, ch. I).
    """
    if not D.flags.get("associative") or D.unit is None:
        raise ValueError("sl_K(D) needs an associative unital D")
    if k_size < 3:
        raise ValueError("sl_K(D) implemented for card K >= 3")
    ring = D.ring
    amb = tensor_matrix_algebra(k_size, D)
    dd = D.dim
    one = ring.coerce(1)
    width = k_size * k_size * dd

    def amb_idx(i, j, t):
        return (i * k_size + j) * dd + t

    # (degree, least column, row, label, coordinates in D), one per basis row
    entries = []
    zero_part = span(ring, width)
    for i, j in permutations(range(k_size), 2):
        degree = tuple(int(t == i) - int(t == j) for t in range(k_size))
        for a in range(dd):
            col = amb_idx(i, j, a)
            gen = {col: one}
            entries.append((degree, col, gen, f"E{i + 1}{j + 1}.{D.labels[a]}", {a: one}))
            for b in range(dd):
                zero_part.add(amb.commutator(gen, {amb_idx(j, i, b): one}))
    zero = (0,) * k_size
    for row in zero_part.basis_rows():
        row = {c: ring.coerce(v) for c, v in row.items()}
        entries.append((zero, min(row), row, f"h[{min(row)}]", None))
    entries.sort(key=lambda e: e[:2])
    degrees, _, rows, labels, coord_vecs = map(list, zip(*entries))

    solve = coordinates(ring, rows, width)  # echelon rows: independent
    bracket = {}
    for a, b in combinations(range(len(rows)), 2):
        br = amb.commutator(rows[a], rows[b])
        vec = br and solve(br)
        if vec is None:
            raise AssertionError("bracket left the generated span")
        if vec:
            bracket[(a, b)] = vec
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


def _verify_sl_zero_part(L, D, k_size, amb_idx, rows, ring):
    """Degree-0 part must equal {sum E_ii a_i : sum a_i in [D, D]}.

    That module is spanned by E_ii a - E_KK a (i < K, a a basis element of
    D) and E_11 c (c a commutator of basis elements); it and the degree-0
    rows must span each other."""
    dd = D.dim
    last = k_size - 1
    width = k_size * k_size * dd
    one = ring.coerce(1)
    predicted = span(ring, width)
    for i in range(last):
        for t in range(dd):
            predicted.add({amb_idx(i, i, t): one, amb_idx(last, last, t): ring.neg(one)})
    basis = [D.basis_vec(t) for t in range(dd)]
    for a in basis:
        for b in basis:
            predicted.add({amb_idx(0, 0, t): v for t, v in D.commutator(a, b).items()})
    got = span(ring, width)
    for row, deg in zip(rows, L.degrees):
        if not any(deg):
            got.add(row)
    if not same_span(predicted, got):
        raise AssertionError("sl_K degree-0 part mismatch")


# ---------------------------------------------------------------------------
# J * J and inner derivations of a Jordan algebra
# ---------------------------------------------------------------------------


def ider(J: JordanAlgebra) -> OperatorLieAlgebra:
    """Inner derivation algebra of J: span of 2[L_a, L_b] (L = linear mult)."""
    ring = J.ring
    half = ring.inv(ring.coerce(2))
    ops = []
    Lops = [J.L_op(J.basis_vec(i)) for i in range(J.dim)]
    for i in range(J.dim):
        for j in range(i + 1, J.dim):
            # 2[L_i, L_j] with L = circle/2, i.e. (1/2)[Lcirc_i, Lcirc_j]
            op = _op_scale(ring, half, _op_bracket(ring, Lops[i], Lops[j]))
            if op:
                ops.append(op)
    return OperatorLieAlgebra(ring, J.dim, ops)


class StarModule:
    """J*J = (J (x) J) / (a(x)b + b(x)a, a(x)bc + b(x)ca + c(x)ab),
    with ud_JA(a*b) = 2[L_a, L_b] a central extension onto IDer(J)."""

    def __init__(self, J: JordanAlgebra):
        if not J.ring.has_inverse_of(2):
            raise ValueError("J*J needs 1/2 in the base ring")
        self.J = J
        self.ring = J.ring
        self.n = J.dim
        self.gens = self.n * self.n
        self.inner = ider(J)
        self._rel_ech = None
        half = self.ring.inv(self.ring.coerce(2))
        self._Lops = [J.L_op(J.basis_vec(i)) for i in range(J.dim)]
        self._half = half

    def gen_index(self, i, j) -> int:
        return i * self.n + j

    def star_vec(self, x: dict, y: dict) -> dict:
        out = {}
        for i, a in x.items():
            _vec_axpy(self.ring, out, {self.gen_index(i, j): b for j, b in y.items()}, a)
        return out

    def relation_rows(self):
        ring = self.ring
        one = ring.coerce(1)
        n = self.n
        for i in range(n):
            for j in range(i, n):
                row = {self.gen_index(i, j): one}
                g = self.gen_index(j, i)
                row[g] = ring.add(row.get(g, 0), one)
                yield row
        half = self._half
        J = self.J
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # a(x)(bc) + b(x)(ca) + c(x)(ab) with linear products
                    row = {}
                    for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                        prod = J.mul(J.basis_vec(q), J.basis_vec(r))
                        terms = {self.gen_index(p, t): v for t, v in prod.items()}
                        _vec_axpy(ring, row, terms, half)
                    if row:
                        yield row

    def ud_op(self, vec: dict):
        """ud_JA of a raw generator vector, as an operator on J."""
        ring = self.ring
        out = {}
        for g, c in vec.items():
            i, j = divmod(g, self.n)
            br = _op_bracket(ring, self._Lops[i], self._Lops[j])
            _op_axpy(ring, out, br, ring.coerce(ring.mul(self._half, c)))
        return out

    def dim_and_kernel(self):
        """(dim J*J, HC(J) shape) over a field, exactly."""
        # the relations lie in ker ud_JA, and ud_JA maps onto IDer(J), so its
        # rank is dim IDer(J); J*J needs 1/2, so the ring is a field and the
        # field route reads only that rank, not the columns of ud_JA
        quotient, kernel = quotient_shape(
            self.ring, self.relation_rows, self.gens, {}, self.inner.dim
        )
        return quotient.free_rank, kernel

    def hc(self):
        return self.dim_and_kernel()[1]

    def relation_echelon(self):
        """Exact span of the relation rows (for membership checks)."""
        if self._rel_ech is None:
            ech = span(self.ring, self.gens)
            for row in self.relation_rows():
                ech.add(row)
            self._rel_ech = ech
        return self._rel_ech

    def same_class(self, u: dict, v: dict) -> bool:
        """Whether u and v agree in J*J (difference in the relation span)."""
        diff = _vec_axpy(self.ring, dict(u), v, -1)
        if not diff:
            return True
        return self.relation_echelon().contains(diff)

    def bracket(self, u: dict, v: dict) -> dict:
        """[u, v] = ud(u).v acting on the tensor slots (raw representative)."""
        ring = self.ring
        T = self.ud_op(u)
        out = {}
        for g, c in v.items():
            i, j = divmod(g, self.n)
            _vec_axpy(ring, out, {self.gen_index(p, j): w for p, w in T.get(i, {}).items()}, c)
            _vec_axpy(ring, out, {self.gen_index(i, q): w for q, w in T.get(j, {}).items()}, c)
        return out

    def decompose(self, dec) -> dict:
        """J*J = D_0 (+) D for an orthogonal family with the spanning
        condition; returns exact dimensions and the ud images.

        dec: PeirceDecomposition of J w.r.t. the family (complete).
        """
        ring = self.ring
        idems = dec.idempotents
        m = len(idems)
        d_gens = []
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                space = dec.spaces.get((a, b), [])
                for x in space:
                    d_gens.append(self.star_vec(idems[a - 1], x))
        d0_gens = []
        for a in range(1, m + 1):
            for b in range(a + 1, m + 1):
                space = dec.spaces.get((a, b), [])
                for s in range(len(space)):
                    for t in range(s + 1, len(space)):
                        d0_gens.append(self.star_vec(space[s], space[t]))
        ud_d = OperatorLieAlgebra(
            ring, self.n, [self.ud_op(v) for v in d_gens], closure_check=False
        )
        ud_d0 = OperatorLieAlgebra(
            ring, self.n, [self.ud_op(v) for v in d0_gens], closure_check=False
        )
        union = OperatorLieAlgebra(
            ring,
            self.n,
            [self.ud_op(v) for v in d_gens + d0_gens],
            closure_check=False,
        )
        dim_star, hc_shape = self.dim_and_kernel()
        hc_dim = hc_shape.free_rank
        # exact sandwich: dim_q(D) is pinched between rank ud(D) and #gens;
        # dim_q(D_0) = rank ud(D_0) + dim HC since HC lies inside D_0.
        if ud_d.dim != len(d_gens):
            raise AssertionError("ud is not injective on the D part")
        dim_d = len(d_gens)
        dim_d0 = ud_d0.dim + hc_dim
        if union.dim != ud_d.dim + ud_d0.dim:
            raise AssertionError("ud(D) and ud(D_0) are not independent")
        if dim_d + dim_d0 != dim_star:
            raise AssertionError("J*J does not split as D_0 (+) D")
        return {
            "dim_star": dim_star,
            "dim_D": dim_d,
            "dim_D0": dim_d0,
            "ud_D": ud_d,
            "ud_D0": ud_d0,
            "hc": hc_shape,
        }


def star_module(J: JordanAlgebra) -> StarModule:
    return StarModule(J)


# ---------------------------------------------------------------------------
# root gradings from grids
# ---------------------------------------------------------------------------


def assign_root_grading(L: TKKAlgebra, family: dict, grading) -> GradedLieAlgebra:
    """Regrade TKK(V) over Q(R) using a verified covering grid.

    Homogeneous components: L_{+alpha} = V_alpha^+, L_{-alpha} = V_alpha^-,
    and instr split along degrees alpha - beta.  Orthogonal pairs must
    bracket to zero (defect check); sl2-triples from the grid act diagonally
    with the coroot pairings as eigenvalues.  The result is L in a new basis,
    so it carries L's Jacobi certificate when L.jacobi_ok; otherwise
    verify_jacobi runs on it.
    """
    from .jordan import verify_grid

    V = L.pair
    ring = L.ring
    R = grading.system
    report = verify_grid(V, family, grading)
    if not report.ok:
        raise ValueError("grid does not verify: " + "; ".join(report.failures[:3]))
    roots = sorted(family)
    n, k, m = L.n_plus, L.inner.dim, L.n_minus
    new_basis = []  # sparse vectors in TKK coordinates
    new_degrees = []
    new_labels = []
    for alpha in roots:
        for t, vec in enumerate(report.joint[alpha][1]):
            new_basis.append(dict(vec))
            new_degrees.append(tuple(alpha))
            new_labels.append(f"V+[{alpha}]{t}")
    # instr components by degree alpha - beta: [x+, y-] is delta(x, y) in
    # instr coordinates, shifted by n
    mid_ech = {}
    for alpha in roots:
        for beta in roots:
            mu = tuple(a - b for a, b in zip(alpha, beta))
            pairing = R.pairing(alpha, beta) if alpha != beta else 2
            for x in report.joint[alpha][1]:
                for y in report.joint[beta][-1]:
                    br = L.bracket_vec(x, {n + k + j: v for j, v in y.items()})
                    coords = {t - n: v for t, v in br.items()}
                    if alpha != beta and pairing == 0:
                        if coords:
                            raise ValueError(
                                f"defect nonzero: [L_{alpha}, L_{-beta}] != 0"
                            )
                        continue
                    if coords:
                        if mu not in mid_ech:
                            mid_ech[mu] = span(ring, k)
                        mid_ech[mu].add(coords)
    mid_total = 0
    for mu in sorted(mid_ech):
        if not R.is_root(tuple(mu)):
            raise AssertionError(f"instr component at non-root degree {mu}")
        for t, row in enumerate(mid_ech[mu].basis_rows()):
            # echelon rows scaled to lead 1
            lead = row[min(row)]
            vec = {n + c: ring.coerce(ring.div(v, lead)) for c, v in row.items()}
            new_basis.append(vec)
            new_degrees.append(tuple(mu))
            new_labels.append(f"L0[{mu}]{t}")
            mid_total += 1
    if mid_total != k:
        raise AssertionError(
            f"instr splits into {mid_total} graded dimensions, expected {k}"
        )
    for alpha in roots:
        neg = tuple(-a for a in alpha)
        for t, vec in enumerate(report.joint[alpha][-1]):
            new_basis.append({n + k + j: v for j, v in vec.items()})
            new_degrees.append(neg)
            new_labels.append(f"V-[{alpha}]{t}")
    # change of basis
    solve = coordinates(ring, new_basis, L.dim)
    if solve is None:
        raise AssertionError("graded basis is not independent")

    def coords_of(vec):
        coords = solve(vec)
        if coords is None:
            raise AssertionError("vector escaped the graded basis")
        return coords

    bracket = {}
    nb = len(new_basis)
    for a in range(nb):
        for b in range(a + 1, nb):
            br = L.bracket_vec(new_basis[a], new_basis[b])
            if br:
                vec = coords_of(br)
                if vec:
                    bracket[(a, b)] = vec
    graded = GradedLieAlgebra(ring, new_labels, new_degrees, bracket, check=not L.jacobi_ok)
    if L.jacobi_ok:
        graded._check_degrees()
        graded.jacobi_ok = True
        graded._jacobi_route = L.jacobi_certificate
    _check_sl2_action(graded, family, grading, coords_of, L)
    return graded


def _check_sl2_action(graded, family, grading, coords_of, L):
    """ad h_alpha acts diagonally with eigenvalue <beta, alpha-check>."""
    ring = graded.ring
    R = grading.system
    n, k = L.n_plus, L.inner.dim
    for alpha, (ep, em) in family.items():
        e_vec = coords_of(dict(ep))
        f_vec = coords_of({n + k + j: v for j, v in em.items()})
        # with [a, b] = delta(a, b) for (a, b) in V, the diagonal action with
        # eigenvalues <beta, alpha-check> holds for h = [e, f] (the same
        # sl2-triple after f -> -f)
        h = graded.bracket_vec(e_vec, f_vec)
        for idx in range(graded.dim):
            img = graded.bracket_vec(h, {idx: ring.coerce(1)})
            beta = graded.degrees[idx]
            want = (
                R.pairing(beta, alpha)
                if any(beta)
                else 0
            )
            expect = {idx: ring.coerce(want)} if want else {}
            expect = {k2: v for k2, v in expect.items() if not ring.is_zero(v)}
            if img != expect:
                raise AssertionError(
                    f"sl2 triple at {alpha} does not act diagonally on degree {beta}"
                )
