"""Self-test of the span arithmetic and of BENCHMARK.json against the code.

    python3 perfbench/selftest.py

Runs in a fraction of a second; every traced run calls it first.  Exits
non-zero (AssertionError) when a check fails.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, Span, Tracer, analyse, busy_of_group  # noqa: E402


def _synthetic_tree():
    """A job calling uce (which recurses into itself), SNF inside solve_integer,
    and a relation-row stream that was busy 1.5 of its 4 open seconds."""
    return [
        Span(4, "linalg.smith_normal_form", 3.0, 5.0, 3, 0, 2.0),
        Span(3, "linalg.solve_integer", 2.0, 6.0, 2, 0, 4.0),
        Span(5, "centext.relation_rows", 6.0, 10.0, 2, 0, 1.5),
        Span(6, "centext.uce", 10.5, 11.5, 2, 0, 1.0),
        Span(2, "centext.uce", 1.0, 12.0, 1, 0, 11.0),
        Span(1, "job.uce", 0.0, 13.0, None, 0, 13.0),
    ]


def check_self_time():
    self_time, per_name = analyse(_synthetic_tree())
    assert self_time == {4: 2.0, 3: 2.0, 5: 1.5, 6: 1.0, 2: 4.5, 1: 2.0}, self_time
    uce = per_name["centext.uce"]
    # the nested uce call is inside the outer one: busy counts the outer only
    assert uce == {"calls": 2, "busy": 11.0, "self": 5.5}, uce
    assert busy_of_group(_synthetic_tree(), {"linalg.solve_integer",
                                             "linalg.smith_normal_form"}) == 4.0


def check_tracer():
    """Spans recorded by a live tracer nest as the calls did."""
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tracer.call("b", lambda: 7, (), {})

    assert tracer.call("a", inner, (), {}) == 7
    b, a = tracer.spans
    assert (a.name, a.parent, a.busy) == ("a", None, 3.0)
    assert (b.name, b.parent, b.busy) == ("b", a.id, 1.0)
    self_time, _ = analyse(tracer.spans)
    assert self_time[a.id] == 2.0


def check_benchmark_json():
    """The metric lists of BENCHMARK.json are the ones the code reports."""
    import run

    path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == PER_LAYER, "per_layer in BENCHMARK.json differs from spans.PER_LAYER"
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    assert e2e == run.END_TO_END, "end_to_end in BENCHMARK.json differs from run.END_TO_END"
    assert [w["name"] for w in spec["workloads"]] == list(run.jobs_mod.WORKLOADS)


def main():
    check_self_time()
    check_tracer()
    check_benchmark_json()


if __name__ == "__main__":
    main()
    print("selftest ok")
