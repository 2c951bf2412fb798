import json

import pytest

from rograd.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDegsums:
    def test_b3_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "degsums", "--type", "B", "--rank", "3", "--format", "table"
        )
        assert code == 0
        assert "B_3 | 2 |" in out
        assert "(1, 1, 1)" in out and "(2, 0, 0)" in out

    def test_a2_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "degsums", "--type", "A", "--rank", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["divisor"] == 3
        assert sorted(data[0]["sums"])[0] == [-2, 1, 1]

    def test_e6_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "degsums", "--type", "E", "--rank", "6", "--format", "table"
        )
        assert code == 0 and "(none)" in out

    def test_a1_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "degsums", "--type", "A", "--rank", "1", "--method", "both"
        )
        assert code == 0 and "A_1 | - | (none)" in out

    def test_rank_cap(self, capsys):
        code, _, err = run_cli(capsys, "degsums", "--type", "B", "--rank", "9")
        assert code == 1 and "cap" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degsums", "--type", "Z", "--rank", "2"])
        assert exc.value.code == 2


class TestRootsAndModels:
    def test_roots_json_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "roots", "--type", "C", "--rank", "3", "--format", "json"
        )
        data = json.loads(out)
        assert data["rank"] == 3 and len(data["roots"]) == 19
        assert data["roots"] == sorted(data["roots"])

    def test_uce_sl3_z_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "uce", "--model", "sl", "--n", "3", "--ring", "Z",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        torsions = [v["torsion"] for v in data["kernel"].values()]
        assert torsions.count([3]) == 6
        assert all(v["free"] == 0 for v in data["kernel"].values())

    def test_tkk_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "tkk", "--model", "tkk-rect", "--n", "3", "--ring", "Q"
        )
        assert code == 0
        assert "dim 8" in out and "perfect: True" in out

    def test_dims_sl(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--model", "sl", "--n", "4", "--ring", "Q")
        assert json.loads(out)["dim"] == 15

    def test_ring_flag_fp(self, capsys):
        code, out, _ = run_cli(
            capsys, "tkk", "--model", "sl", "--n", "3", "--ring", "Fp:3"
        )
        assert code == 0 and "centre dimension: 1" in out

    def test_bad_ring_flag(self, capsys):
        code, _, err = run_cli(capsys, "tkk", "--model", "sl", "--ring", "banana")
        assert code == 1 and "ring" in err

    def test_undecided_prime_exits_1(self, capsys):
        # 2^89 - 1 is prime but above the Miller-Rabin bound
        code, out, err = run_cli(
            capsys, "tkk", "--model", "sl", "--n", "3", "--ring", f"Fp:{2**89 - 1}"
        )
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "not decided" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "--out", str(target), "dims", "--model", "sl", "--n", "3",
            "--ring", "Q",
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "linalg")
        assert code == 0
        assert "[PASS]" in out and "OK" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 1


class TestPreconditionExit:
    @pytest.mark.parametrize("command", ["tkk", "uce"])
    def test_centred_tkk_exits_1(self, capsys, command):
        # TKK(M(1,1,F_2)) is sl_2 over F_2, where h is central: a valid
        # model without a trivial centre, not a failed internal check
        code, out, err = run_cli(
            capsys, command, "--model", "tkk-rect", "--n", "2", "--ring", "Fp:2"
        )
        assert code == 1 and out == ""
        assert err == "error: TKK(V) has a nontrivial centre\n"


class TestInternalCheckExit:
    def test_assertion_exits_3_with_one_line(self, capsys, monkeypatch):
        import rograd.cli as cli

        def broken(model, n, ring):
            raise AssertionError("structure constants inconsistent")

        monkeypatch.setattr(cli, "_make_model", broken)
        code, out, err = run_cli(capsys, "uce", "--model", "sl", "--n", "3")
        assert code == 3 and out == ""
        assert err == "error: internal check failed: structure constants inconsistent\n"

    def test_corrupted_model_exits_3(self, capsys, monkeypatch):
        import rograd.cli as cli
        from rograd.lie import GradedLieAlgebra

        build_model = cli._make_model

        def corrupted(model, n, ring):
            L, name, R = build_model(model, n, ring)
            bracket = {k: dict(v) for k, v in L.bracket.items()}
            key = next(k for k, v in sorted(bracket.items()) if len(v) == 1)
            bracket[key] = {t: 2 * c for t, c in bracket[key].items()}
            return GradedLieAlgebra(ring, L.labels, L.degrees, bracket, check=False), name, R

        monkeypatch.setattr(cli, "_make_model", corrupted)
        code, out, err = run_cli(capsys, "uce", "--model", "sl", "--n", "3")
        assert code == 3 and out == ""
        assert err.startswith("error: internal check failed: relation outside ker u")
        assert err.count("\n") == 1
