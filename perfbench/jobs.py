"""Workloads of the benchmark: seeded job lists and the output oracle.

Every job is a real user job: a ``rograd`` CLI invocation run in-process
through ``rograd.cli.main(argv)``, or a public library call where the CLI
has no equivalent.  Each job's output is checked against the certified
mathematics (dimensions, kernel shapes, tables, zero violations), never
against bytes, so a change that regrades a model but keeps the numbers
still passes.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable

WORKLOADS = ("tkk-q", "sl-z", "tkk-fp", "jordan-ids")
KINDS = ("tkk", "uce", "degsums", "verify", "refuse")

SMALL_PRIMES = (5, 7, 11, 13)
# the four largest primes below 2^48 (checked by Miller-Rabin); any of them
# shows the int64 overflow in the mod-p Jacobi check
PRIMES_48 = (2**48 - 59, 2**48 - 65, 2**48 - 89, 2**48 - 93)


@dataclass(frozen=True)
class Job:
    """One user job.  ``run`` returns (exit code, payload); a job whose exit
    code differs from ``expect_exit``, or that raises, has failed.  A job
    that exits as expected is checked by ``check(payload)``, which returns
    None when the output is right and the reason otherwise."""

    kind: str
    label: str
    run: Callable[[], tuple]
    check: Callable[[object], str | None]
    expect_exit: int = 0


# ---------------------------------------------------------------------------
# certified values
# ---------------------------------------------------------------------------


def _pm(*vecs):
    out = set()
    for v in vecs:
        out.add(tuple(v))
        out.add(tuple(-c for c in v))
    return out


def _signs(n):
    return set(product((1, -1), repeat=n))


def _two_eps(n):
    out = set()
    for i in range(n):
        v = [0] * n
        v[i] = 2
        out |= _pm(v)
    return out


# the degenerate-sum acceptance tables, (type, rank) -> {divisor: sums}: 15 root
# systems, 16 table rows (G2 has two divisors)
TABLES = {
    ("A", 2): {3: _pm((1, -2, 1), (1, 1, -2), (2, -1, -1))},
    ("A", 3): {2: _pm((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))},
    ("B", 3): {2: _two_eps(3) | _signs(3)},
    ("B", 4): {2: _two_eps(4) | _signs(4)},
    ("B", 5): {2: _two_eps(5)},
    ("C", 2): {2: _two_eps(2) | _pm((2, 2), (2, -2))},
    ("C", 3): {
        2: _two_eps(3)
        | _pm((2, 2, 0), (2, -2, 0), (2, 0, 2), (2, 0, -2), (0, 2, 2), (0, 2, -2))
    },
    ("C", 5): {
        2: _two_eps(5)
        | {
            tuple(a + b for a, b in zip(u, v))
            for u in _two_eps(5)
            for v in _two_eps(5)
            if sum(x * y for x, y in zip(u, v)) == 0
        }
    },
    ("D", 4): {2: _two_eps(4) | _signs(4)},
    ("D", 5): {2: _two_eps(5)},
    ("E", 6): {},
    ("E", 7): {},
    ("E", 8): {},
    ("F", 4): {2: _two_eps(4) | _signs(4)},
    ("G", 2): {
        2: {tuple(2 * c for c in v) for v in _pm((1, -1, 0), (1, 0, -1), (0, 1, -1))},
        3: {tuple(3 * c for c in v) for v in _pm((1, -1, 0), (1, 0, -1), (0, 1, -1))},
    },
}

# uce(sl_n(Z)): the torsion the kernel must have, degree by degree
SL_TORSION = {3: (TABLES[("A", 2)][3], 3), 4: (TABLES[("A", 3)][2], 2), 5: (set(), None)}


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def run_cli(argv):
    """Run ``rograd <argv>`` in-process; returns (exit code, (stdout, stderr)).

    ``rograd.cli.main`` is looked up at call time, so wrappers installed by
    the tracer around it are seen.  An uncaught exception propagates and is
    counted as a failure by the caller.
    """
    import rograd.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rograd.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, (out.getvalue(), err.getvalue())


def _cli_job(kind, command, check, expect_exit=0):
    argv = command.split()
    return Job(kind, f"rograd {command}", lambda: run_cli(argv), check, expect_exit)


def _library_job(kind, label, fn, check):
    return Job(kind, label, lambda: (0, fn()), check)


def check_tkk(dim):
    def check(output):
        text = output[0]
        m = re.search(r"^dim (\d+) over", text, re.M)
        if not m or int(m.group(1)) != dim:
            return f"expected dim {dim}"
        for line in ("perfect: True", "centre dimension: 0", "jacobi: True"):
            if line not in text.splitlines():
                return f"missing {line!r}"
        return None

    return check


def _kernel(output):
    """{degree tuple: (free rank, torsion tuple)} from a uce JSON report."""
    data = json.loads(output[0])
    return {
        ast.literal_eval(d): (s["free"], tuple(s["torsion"]))
        for d, s in data["kernel"].items()
    }


def check_uce_zero(output):
    nonzero = {d: s for d, s in _kernel(output).items() if s != (0, ())}
    return f"nonzero kernel {nonzero}" if nonzero else None


def check_uce_sl(n):
    degrees, order = SL_TORSION[n]

    def check(output):
        kernel = {d: s for d, s in _kernel(output).items() if s != (0, ())}
        if set(kernel) != degrees:
            return f"kernel support {sorted(kernel)} is not the degenerate sums"
        if any(s != (0, (order,)) for s in kernel.values()):
            return f"expected Z/{order} on every degenerate sum"
        return None

    return check


def check_degsums(key):
    def check(output):
        got = {
            row["divisor"]: {tuple(v) for v in row["sums"]}
            for row in json.loads(output[0])
        }
        return None if got == TABLES[key] else f"table {key} differs"

    return check


def check_refused(cap):
    def check(output):
        return None if f"exceeds the cap {cap}" in output[1] else "missing the cap message"

    return check


def check_kernel_zero(rep):
    k = rep.total_kernel
    return None if k.free_rank == 0 and not k.torsion else f"kernel {k}"


def check_identities(rep):
    bad = [fam for fam, (_, viol, _) in rep.items() if viol]
    if bad:
        return f"violations in {bad}"
    return None if rep else "no identity families checked"


def _sl3_m2_z():
    from rograd import ZZ, build, kernel_report, matrix_algebra, sl_algebra, uce

    return kernel_report(uce(sl_algebra(3, matrix_algebra(2, ZZ))), build("A", 2))


def _ids_octonions():
    from rograd import QQ, rectangular_pair, split_octonions, verify_pair_identities

    return verify_pair_identities(rectangular_pair(1, 2, split_octonions(QQ)))


def _ids_h4():
    from rograd import QQ, hermitian_algebra, matrix_algebra, verify_pair_identities

    D = matrix_algebra(1, QQ, involution="identity")
    return verify_pair_identities(hermitian_algebra(4, D).pair())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def jobs_for(workload: str, seed: int) -> list:
    """The job list of one pass; the seed fixes the order and the primes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tkk-q":
        jobs = [
            _cli_job("tkk", "tkk --model tkk-oct --ring Q", check_tkk(78)),
            _cli_job("uce", "uce --model tkk-oct --ring Q", check_uce_zero),
            _cli_job("uce", "uce --model tkk-hermitian --n 4 --ring Q", check_uce_zero),
            _cli_job("tkk", "tkk --model tkk-albert --ring Q", check_tkk(133)),
            _cli_job("uce", "uce --model tkk-albert --ring Q", check_uce_zero),
            _cli_job("refuse", "uce --model tkk-albert --ring Q --max-dim 100",
                     check_refused(100), expect_exit=1),
        ]
    elif workload == "sl-z":
        jobs = [
            _cli_job("degsums", f"degsums --type {t} --rank {r} --method both --format json",
                     check_degsums((t, r)))
            for t, r in sorted(TABLES)
        ]
        jobs += [
            _cli_job("uce", f"uce --model sl --n {n} --ring Z", check_uce_sl(n))
            for n in (3, 4, 5)
        ]
        jobs.append(_library_job("uce", "kernel_report(uce(sl_3(M_2(Z))), A_2)",
                                 _sl3_m2_z, check_kernel_zero))
    elif workload == "tkk-fp":
        p = [rng.choice(SMALL_PRIMES) for _ in range(4)]
        jobs = [
            _cli_job("tkk", f"tkk --model tkk-oct --ring Fp:{p[0]}", check_tkk(78)),
            _cli_job("uce", f"uce --model tkk-oct --ring Fp:{p[1]}", check_uce_zero),
            _cli_job("uce", f"uce --model tkk-hermitian --n 4 --ring Fp:{p[2]}", check_uce_zero),
            _cli_job("uce", f"uce --model sl --n 4 --ring Fp:{p[3]}", check_uce_zero),
            # known defect: int64 overflow in the mod-p Jacobi check; this job
            # fails until it is fixed and must stay in the pass
            _cli_job("tkk", f"tkk --model sl --n 3 --ring Fp:{rng.choice(PRIMES_48)}",
                     check_tkk(8)),
        ]
    elif workload == "jordan-ids":
        jobs = [
            _library_job("verify", "verify_pair_identities(M(1,2,O))", _ids_octonions,
                         check_identities),
            _library_job("verify", "verify_pair_identities(H_4(Q))", _ids_h4,
                         check_identities),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(workload: str) -> list:
    """Small instances of the pass's job kinds, run before timing starts so
    that imports, numpy and the pass's code paths are warm.  Their results
    are not counted."""
    if workload == "jordan-ids":
        return [_library_job("warmup", "verify_pair_identities(M(1,3,Q))", _ids_m13, _ignore)]
    commands = {
        "tkk-q": ["tkk --model tkk-hermitian --n 3 --ring Q",
                  "uce --model tkk-hermitian --n 3 --ring Q",
                  "uce --model tkk-albert --ring Q --max-dim 100"],
        "sl-z": ["degsums --type C --rank 3 --format json",
                 "uce --model sl --n 4 --ring Z"],
        "tkk-fp": ["tkk --model tkk-hermitian --n 3 --ring Fp:5",
                   "uce --model tkk-hermitian --n 3 --ring Fp:5"],
    }[workload]
    return [_cli_job("warmup", command, _ignore) for command in commands]


def _ignore(payload):
    return None


def _ids_m13():
    from rograd import QQ, matrix_algebra, rectangular_pair, verify_pair_identities

    return verify_pair_identities(rectangular_pair(1, 3, matrix_algebra(1, QQ)))
