"""Batch command-line surface.

Subcommands: degsums, roots, tkk, uce, dims, verify.  Results go to
stdout (optionally duplicated to --out), diagnostics to stderr.
Exit codes: 0 success, 1 computation-precondition failure, 2 usage error,
3 internal check failed (an invariant of the computation was violated).
"""
from __future__ import annotations

import argparse
import json
import sys


def _emit(text: str, out_path):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _build_system(args):
    from .roots import build

    if args.rank > args.max_rank:
        raise ValueError(
            f"rank {args.rank} exceeds the cap {args.max_rank} (raise --max-rank)"
        )
    return build(args.type, args.rank)


def cmd_degsums(args) -> str:
    from .degsums import degenerate_sums_algorithm, degenerate_sums_bruteforce

    R = _build_system(args)
    if args.method == "bruteforce":
        report = degenerate_sums_bruteforce(R)
    elif args.method == "algorithm":
        report = degenerate_sums_algorithm(R)
    else:
        report = degenerate_sums_algorithm(R)
        if report != degenerate_sums_bruteforce(R):
            raise AssertionError("algorithm and brute force disagree")
    if args.format == "json":
        return json.dumps(report.to_json(), indent=2)
    return report.to_table()


def cmd_roots(args) -> str:
    R = _build_system(args)
    if args.format == "json":
        return json.dumps(R.to_json(), indent=2)
    lines = [f"{R.type_letter}_{R.rank}: {len(R.nonzero_roots)} nonzero roots"]
    lines += [str(r) for r in sorted(R.roots)]
    return "\n".join(lines)


def _make_model(model: str, n: int, ring):
    """Returns (graded Lie algebra, descriptive name, root system or None)."""
    from .algebras import matrix_algebra, split_octonions
    from .jordan import albert_algebra, hermitian_algebra, rectangular_pair
    from .lie import sl_algebra, tkk
    from .roots import build

    if model == "sl":
        D = matrix_algebra(1, ring)
        return sl_algebra(n, D), f"sl_{n}({ring})", build("A", n - 1)
    if model == "tkk-rect":
        D = matrix_algebra(1, ring)
        return tkk(rectangular_pair(1, n - 1, D)), f"TKK(M(1,{n - 1},{ring}))", None
    if model == "tkk-oct":
        O = split_octonions(ring)
        return tkk(rectangular_pair(1, 2, O)), f"TKK(M(1,2,O/{ring}))", None
    if model == "tkk-hermitian":
        D = matrix_algebra(1, ring, involution="identity")
        J = hermitian_algebra(n, D)
        return tkk(J.pair()), f"TKK(H_{n}({ring}))", None
    if model == "tkk-albert":
        A = albert_algebra(ring)
        return tkk(A.pair()), f"TKK(Albert/{ring})", None
    raise ValueError(f"unknown model {model!r}")


def _model_dim(model: str, n: int) -> int:
    """Dimension of a model from its closed form, known before it is built."""
    if model in ("sl", "tkk-rect"):
        if n < 2:
            raise ValueError(f"--n must be at least 2 for {model}")
        return n * n - 1  # sl_n
    if model == "tkk-hermitian":
        return n * (2 * n + 1)  # sp_2n
    return {"tkk-oct": 78, "tkk-albert": 133}[model]  # E_6, E_7


def _build_capped(args):
    """Build the model of args, refusing it before and after the build when
    its dimension exceeds --max-dim."""
    ring = _ring(args)
    dim = _model_dim(args.model, args.n)
    if dim > args.max_dim:
        raise ValueError(f"dimension {dim} exceeds the cap {args.max_dim}")
    L, name, R = _make_model(args.model, args.n, ring)
    if L.dim > args.max_dim:
        raise ValueError(f"dimension {L.dim} exceeds the cap {args.max_dim}")
    return L, name, R


def cmd_tkk(args) -> str:
    L, name, _ = _build_capped(args)
    if args.format == "json":
        return json.dumps(L.to_json(), indent=2)
    return f"{name}\n{L.report()}"


def cmd_uce(args) -> str:
    from .centext import kernel_report, uce

    L, name, R = _build_capped(args)
    u = uce(L)
    rep = kernel_report(u, R, name)
    if args.format == "json":
        return json.dumps(rep.to_json(), indent=2)
    return rep.to_table()


def cmd_dims(args) -> str:
    ring = _ring(args)
    out = {}
    if args.model == "tkk-albert":
        from .jordan import albert_algebra
        from .lie import ider, tkk

        A = albert_algebra(ring)
        out["albert"] = A.dim
        out["ider"] = ider(A).dim
        out["dim"] = tkk(A.pair()).dim
    elif args.model == "tkk-oct":
        from .algebras import split_octonions
        from .jordan import rectangular_pair
        from .lie import tkk

        O = split_octonions(ring)
        L = tkk(rectangular_pair(1, 2, O))
        out["octonions"] = O.dim
        out["instr"] = L.inner.dim
        out["dim"] = L.dim
    elif args.model == "sl":
        from .algebras import matrix_algebra
        from .lie import sl_algebra

        out["dim"] = sl_algebra(args.n, matrix_algebra(1, ring)).dim
    else:
        raise ValueError(f"unknown dims model {args.model!r}")
    return json.dumps(out, indent=2)


def cmd_verify(args) -> str:
    from .verify import SUITES, run_suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    for n in names:
        if n not in SUITES:
            raise ValueError(f"unknown suite {n!r}")
    ok, lines = run_suites(names)
    text = "\n".join(lines + [("OK" if ok else "FAILED")])
    if not ok:
        _emit(text, args.out)
        sys.exit(1)
    return text


def _ring(args):
    from .rings import ring_from_flag

    return ring_from_flag(args.ring)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rograd",
        description="Root-graded Lie algebras from Jordan data; universal "
        "central extensions and degenerate-sum tables in exact arithmetic.",
    )
    p.add_argument("--out", help="also write the output to this file")
    sub = p.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("degsums", help="classify degenerate sums")
    ds.add_argument("--type", required=True, choices=list("ABCDEFG"))
    ds.add_argument("--rank", required=True, type=int)
    ds.add_argument(
        "--method", default="both", choices=["algorithm", "bruteforce", "both"]
    )
    ds.add_argument("--format", default="table", choices=["json", "table"])
    ds.add_argument("--max-rank", type=int, default=8)
    ds.set_defaults(fn=cmd_degsums)

    rt = sub.add_parser("roots", help="build a root system")
    rt.add_argument("--type", required=True, choices=list("ABCDEFG"))
    rt.add_argument("--rank", required=True, type=int)
    rt.add_argument("--format", default="json", choices=["json", "table"])
    rt.add_argument("--max-rank", type=int, default=8)
    rt.set_defaults(fn=cmd_roots)

    models = ["sl", "tkk-rect", "tkk-oct", "tkk-hermitian", "tkk-albert"]
    tk = sub.add_parser("tkk", help="construct a graded Lie algebra model")
    tk.add_argument("--model", required=True, choices=models)
    tk.add_argument("--n", type=int, default=3)
    tk.add_argument("--ring", default="Q")
    tk.add_argument("--format", default="table", choices=["json", "table"])
    tk.add_argument("--max-dim", type=int, default=160)
    tk.set_defaults(fn=cmd_tkk)

    uc = sub.add_parser("uce", help="universal central extension kernel report")
    uc.add_argument("--model", required=True, choices=models)
    uc.add_argument("--n", type=int, default=3)
    uc.add_argument("--ring", default="Z")
    uc.add_argument("--format", default="json", choices=["json", "table"])
    uc.add_argument("--max-dim", type=int, default=160)
    uc.set_defaults(fn=cmd_uce)

    dm = sub.add_parser("dims", help="headline dimensions of a model")
    dm.add_argument("--model", required=True, choices=["tkk-albert", "tkk-oct", "sl"])
    dm.add_argument("--n", type=int, default=3)
    dm.add_argument("--ring", default="Q")
    dm.set_defaults(fn=cmd_dims)

    vf = sub.add_parser("verify", help="run the library property suites")
    vf.add_argument("--suite", default="all")
    vf.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
