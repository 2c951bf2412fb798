"""Exactness at every prime: the sparse mod-p echelon, the Jacobi check at
large p and large structure constants, Miller-Rabin primality, and the CLI
limit checks made before a model is built."""
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rograd import cli
from rograd.algebras import matrix_algebra
from rograd.lie import GradedLieAlgebra, sl_algebra
from rograd.linalg import FieldEchelon, ModularEchelon, rank_certified
from rograd.rings import GF, QQ, ZZ, _is_prime, ring_from_flag

BIG_PRIMES = (2**48 - 59, 2**61 - 1)


def sparse_rows(max_cols=12, max_rows=16):
    """Random sparse integer matrices: (ncols, rows), each row 0-3 entries."""
    value = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30))
    return st.integers(1, max_cols).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.dictionaries(st.integers(0, n - 1), value, max_size=3),
                max_size=max_rows,
            ),
        )
    )


class TestModularEchelon:
    @pytest.mark.parametrize("p", (5, 999983, 2**61 - 1))
    @settings(max_examples=60, deadline=None)
    @given(data=sparse_rows())
    def test_rank_matches_field_echelon(self, p, data):
        ncols, rows = data
        ech = ModularEchelon(ncols, p)
        ech.add_batch(rows[: len(rows) // 2])
        ech.add_batch(rows[len(rows) // 2 :])
        ref = FieldEchelon(GF(p))
        for row in rows:
            ref.add(row)
        assert ech.rank == ref.rank

    @pytest.mark.parametrize("p", (5, 999983, 2**61 - 1))
    @settings(max_examples=60, deadline=None)
    @given(data=sparse_rows())
    def test_kernel_is_annihilated(self, p, data):
        ncols, rows = data
        ech = ModularEchelon(ncols, p)
        ech.add_batch(rows)
        ker = ech.kernel()
        assert len(ker) == ncols - ech.rank
        free = set()
        for vec in ker:
            own = [c for c in vec if c not in ech.pivots]
            assert len(own) == 1 and vec[own[0]] == 1
            free.add(own[0])
            assert all(0 <= v < p for v in vec.values())
            for row in rows:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) % p == 0
        assert len(free) == len(ker)  # distinct free columns: independent

    def test_pivot_rows_have_lead_one(self):
        ech = ModularEchelon(3, p=7)
        assert ech.add_batch([{1: 3, 2: 5}, {1: 6, 2: 3}, {0: -2}]) == 2
        assert ech.pivots == {0: {0: 1}, 1: {1: 1, 2: 4}}


class TestRankCertified:
    def test_rows_beyond_the_bound_raise(self):
        rows = [{0: 1}, {1: 1}, {0: 1, 1: 1}]
        with pytest.raises(AssertionError, match="upper bound"):
            rank_certified(lambda: iter(rows), 2, 1)

    def test_exact_fallback_when_both_primes_drop_rank(self):
        rows = [{0: 999983 * 999979}]
        assert rank_certified(lambda: iter(rows), 1, 1) == 1

    def test_one_modular_pass_then_exact(self):
        # Q-rank 1 below the bound 2: the mod-p pass cannot certify it, so
        # the rows are read once more, by the exact fallback, and no more
        rows = [{0: 1, 1: 2}, {0: 3, 1: 6}, {0: -5, 1: -10}]
        reads = []

        def factory():
            reads.append(1)
            return iter(rows)

        assert rank_certified(factory, 2, 2) == 1
        assert len(reads) == 2


class TestJacobiExactness:
    @pytest.mark.parametrize("p", BIG_PRIMES)
    def test_sl3_at_large_prime(self, p):
        L = sl_algebra(3, matrix_algebra(1, GF(p)))
        assert L.jacobi_ok
        assert L.is_perfect()

    @pytest.mark.parametrize("p", BIG_PRIMES)
    def test_cli_reports_jacobi_at_large_prime(self, p, capsys):
        assert cli.main(["tkk", "--model", "sl", "--n", "3", "--ring", f"Fp:{p}"]) == 0
        assert "jacobi: True" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("p", BIG_PRIMES)
    def test_cli_octonion_tkk_at_large_prime(self, p, capsys):
        assert cli.main(["tkk", "--model", "tkk-oct", "--ring", f"Fp:{p}"]) == 0
        assert "jacobi: True" in capsys.readouterr().out.splitlines()

    @staticmethod
    def _rebuilt(L, ring, scale=1, corrupt=False):
        bracket = {key: {k: v * scale for k, v in vec.items()} for key, vec in L.bracket.items()}
        if corrupt:
            key = min(bracket)
            k = min(bracket[key])
            bracket[key][k] *= 2
        return GradedLieAlgebra(ring, L.labels, L.degrees, bracket)

    @pytest.mark.parametrize("p", (5,) + BIG_PRIMES)
    def test_broken_bracket_fails_mod_p(self, p):
        L = sl_algebra(3, matrix_algebra(1, GF(p)))
        with pytest.raises(AssertionError, match="Jacobi"):
            self._rebuilt(L, GF(p), corrupt=True)

    @pytest.mark.parametrize("ring", (ZZ, QQ))
    def test_large_structure_constants(self, ring):
        # scaling every bracket by 2^35 gives an isomorphic algebra whose
        # products reach 2^70, beyond int64
        L = sl_algebra(3, matrix_algebra(1, ring))
        assert self._rebuilt(L, ring, scale=2**35).jacobi_ok
        with pytest.raises(AssertionError, match="Jacobi"):
            self._rebuilt(L, ring, scale=2**35, corrupt=True)


class TestPrimality:
    @staticmethod
    def _trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 5000) if _is_prime(n)] == [
            n for n in range(-3, 5000) if self._trial(n)
        ]

    def test_strong_pseudoprimes_rejected(self):
        # the least strong pseudoprimes to the first 1, 4, 6, 8 and 11 prime bases
        for n in (2047, 3215031751, 3474749660383, 341550071728321, 3825123056546413051):
            assert not _is_prime(n)

    def test_large_primes(self):
        assert all(_is_prime(p) for p in BIG_PRIMES)
        assert not _is_prime(2**61 + 1) and not _is_prime(999983 * (2**48 - 59))
        assert not _is_prime(43 * (2**89 - 1))  # above the Miller-Rabin bound
        assert GF(2**61 - 1).p == 2**61 - 1

    def test_undecided_above_the_bound(self):
        # 2^89 - 1 is prime, so no base is a witness; trial division up to
        # its square root would not finish
        start = time.perf_counter()
        with pytest.raises(ValueError, match="primality above 3.18e23 is not decided"):
            GF(2**89 - 1)
        assert time.perf_counter() - start < 1


MODELS = [("sl", 3), ("sl", 4), ("tkk-rect", 2), ("tkk-rect", 3), ("tkk-oct", 3),
          ("tkk-hermitian", 3), ("tkk-hermitian", 4),
          ("tkk-albert", 3)]


class TestModelLimits:
    @pytest.mark.parametrize("flag", ("Q", "Fp:5"))
    @pytest.mark.parametrize("model,n", MODELS)
    def test_closed_form_dimension(self, model, n, flag):
        L, _, _ = cli._make_model(model, n, ring_from_flag(flag))
        assert cli._model_dim(model, n) == L.dim

    @pytest.mark.parametrize("command", ("tkk", "uce"))
    def test_refused_before_build(self, command, monkeypatch, capsys):
        def build(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "_make_model", build)
        code = cli.main([command, "--model", "tkk-albert", "--ring", "Q", "--max-dim", "100"])
        assert code == 1
        assert "dimension 133 exceeds the cap 100" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ("sl", "tkk-rect"))
    def test_degenerate_size_rejected(self, model, capsys):
        assert cli.main(["tkk", "--model", model, "--n", "1", "--ring", "Q"]) == 1
        assert "at least 2" in capsys.readouterr().err
