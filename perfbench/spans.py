"""Layer spans taken from outside the program.

The tracer installs wrappers around the public functions of every
``rograd`` module, at every module that binds the name (a function that
``centext`` imported from ``linalg`` is wrapped in both), plus the public
methods and the one private generator that the per-layer metrics need.
Nothing under ``src/`` is edited, and ``uninstall`` restores every binding.

A span is (id, name, start, end, parent, job, busy).  ``busy`` is the
time the span was running: ``end - start`` for a wrapped call, and the
summed time inside ``next()`` for a relation-row stream, whose rows are
pulled in between the consumer's own work.  A span's self time is its busy
time minus the busy time of its wrapped child spans; the self-test in
``selftest.py`` checks that calculation on a synthetic span tree.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id name start end parent job busy")

# Sparse-operator and root-coordinate arithmetic, not layers.  One
# jordan-ids pass makes about 3e7 calls to the op_* helpers (a bare
# call-counting wrapper made that pass half again as long) and one sl-z
# pass about 1.3e5 calls to the vector helpers.  Their time shows as self
# time of the layer that calls them.
HOT_HELPERS = {
    "jordan": {"op_add", "op_apply", "op_compose", "op_eq", "op_identity", "op_scale",
               "op_to_matrix", "op_zero"},
    "roots": {"dot", "vadd", "vneg", "vscale", "vsub"},
}


class Tracer:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.job = None
        self._ids = 0
        self._saved = []

    def new_id(self):
        self._ids += 1
        return self._ids

    def call(self, name, fn, args, kwargs):
        sid = self.new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.job, end - start))

    # -- installing wrappers ------------------------------------------------
    def install(self):
        """Wrap rograd's public functions and the named methods."""
        import rograd

        modules = [rograd] + [
            importlib.import_module(f"rograd.{m.name}")
            for m in pkgutil.iter_modules(rograd.__path__)
        ]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not _is_layer_function(attr, obj):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap_function(obj)
                self._patch(mod, attr, wrapped[obj])
        from rograd import centext, jordan, lie, linalg

        labelled = {
            (linalg.FieldEchelon, "add"): "linalg.FieldEchelon.add",
            (lie.GradedLieAlgebra, "verify_jacobi"):
                lambda args: f"lie.verify_jacobi.{args[0].ring.kind}",
            (lie.GradedLieAlgebra, "is_perfect"): "lie.is_perfect",
            (lie.GradedLieAlgebra, "centre_basis"): "lie.centre_basis",
            (lie.OperatorLieAlgebra, "express"): "lie.express",
            (jordan.JordanAlgebra, "pair"): "jordan.pair",
        }
        for (cls, attr), label in labelled.items():
            self._patch(cls, attr, self._span_wrapper(cls.__dict__[attr], label))
        hooked = {
            (linalg.ModularEchelon, "add_batch"): self._add_batch,
            (centext.UceResult, "_relation_rows"): self._relation_rows,
        }
        for (cls, attr), hook in hooked.items():
            self._patch(cls, attr, hook(cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _span_wrapper(self, fn, name):
        """Wrap fn in a span; name is a string or a function of the call's args."""
        label = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(label(args), fn, args, kwargs)

        return traced

    def _wrap_function(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = {
            "linalg.rank_certified": self._rank_certified,
            "centext.uce": self._uce,
            "jordan.verify_pair_identities": self._verify_pair_identities,
        }.get(name)
        return hook(fn, name) if hook else self._span_wrapper(fn, name)

    # -- counters at layer boundaries ---------------------------------------
    def _rank_certified(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def traced(rows_factory, *args, **kwargs):
            def counted():
                counts["rank_certified.passes"] += 1
                for row in rows_factory():
                    counts["rank_certified.rows"] += 1
                    yield row

            return self.call(name, fn, (counted,) + args, kwargs)

        return traced

    def _add_batch(self, fn):
        import numpy as np

        counts = self.counts

        @functools.wraps(fn)
        def traced(ech, batch):
            rows = np.atleast_2d(batch).shape[0] if np.size(batch) else 0
            gain = self.call("linalg.ModularEchelon.add_batch", fn, (ech, batch), {})
            counts["add_batch.rows"] += rows
            counts["add_batch.gain"] += gain
            return gain

        return traced

    def _uce(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            u = self.call(name, fn, args, kwargs)
            counts["uce.blocks"] += len(u.blocks)
            largest = max((b.n_gens for b in u.blocks.values()), default=0)
            counts["uce.max_block_gens"] = max(counts["uce.max_block_gens"], largest)
            return u

        return traced

    def _verify_pair_identities(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rep = self.call(name, fn, args, kwargs)
            for instances, _, mode in rep.values():
                counts["ids.instances"] += instances
                counts["ids.families"] += 1
                counts["ids.windowed"] += mode != "exhaustive"
            return rep

        return traced

    def _relation_rows(self, fn):
        """Time spent producing relation rows, as one span per stream."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sid = tracer.new_id()
            parent = start = end = None
            busy = 0.0
            rows = 0
            try:
                while True:
                    t0 = tracer.clock()
                    if start is None:
                        start = t0
                        parent = tracer.stack[-1] if tracer.stack else None
                    try:
                        row = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = tracer.clock()
                        busy += end - t0
                    rows += 1
                    yield row
            finally:
                gen.close()
                tracer.counts["relation_rows"] += rows
                if start is not None:
                    tracer.spans.append(
                        Span(sid, "centext.relation_rows", start, end, parent, tracer.job, busy)
                    )

        return traced


def _is_layer_function(attr, obj):
    """A public function defined in a rograd module, not a hot helper."""
    if attr.startswith("_") or not inspect.isfunction(obj):
        return False
    package, _, module = (obj.__module__ or "").partition(".")
    return package == "rograd" and obj.__name__ not in HOT_HELPERS.get(module, ())


# ---------------------------------------------------------------------------
# reading the spans
# ---------------------------------------------------------------------------


def analyse(spans):
    """Per-span self time and, per name, calls, busy and self time.

    busy counts only the outermost span of a name, so recursion and a
    function calling itself through another layer are not counted twice.
    """
    by_id = {s.id: s for s in spans}
    child_busy = Counter()
    for s in spans:
        if s.parent is not None:
            child_busy[s.parent] += s.busy
    self_time = {s.id: s.busy - child_busy[s.id] for s in spans}
    per_name = {}
    for s in spans:
        agg = per_name.setdefault(s.name, {"calls": 0, "busy": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["self"] += self_time[s.id]
        if not _has_ancestor(s, by_id, {s.name}):
            agg["busy"] += s.busy
    return self_time, per_name


def busy_of_group(spans, names):
    """Busy time of a group of span names, each nested stretch counted once."""
    by_id = {s.id: s for s in spans}
    return sum(
        s.busy for s in spans if s.name in names and not _has_ancestor(s, by_id, names)
    )


def _has_ancestor(span, by_id, names):
    p = span.parent
    while p is not None:
        up = by_id[p]
        if up.name in names:
            return True
        p = up.parent
    return False


def write_jsonl(path, spans):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit, better).  The run adds the entries measured outside the
# spans: the untraced pass's stage times and fail rate, and trace_overhead.
PER_LAYER = [
    ("linalg.rank_certified.calls", "count", "lower"),
    ("linalg.rank_certified.busy_s", "s", "lower"),
    ("linalg.rank_certified.rows_consumed", "count", "lower"),
    ("linalg.rank_certified.passes", "count", "lower"),
    ("linalg.ModularEchelon.add_batch.calls", "count", "lower"),
    ("linalg.ModularEchelon.add_batch.busy_s", "s", "lower"),
    ("linalg.ModularEchelon.add_batch.rows", "count", "lower"),
    ("linalg.ModularEchelon.add_batch.useful_share", "share", "higher"),
    ("centext.uce.busy_s", "s", "lower"),
    ("centext.uce.self_s", "s", "lower"),
    ("centext.relation_rows", "count", "lower"),
    ("centext.relation_stream_s", "s", "lower"),
    ("centext.blocks", "count", "higher"),
    ("centext.max_block_gens", "count", "lower"),
    ("centext.kernel_report.busy_s", "s", "lower"),
    ("linalg.subquotient_invariants.calls", "count", "lower"),
    ("linalg.subquotient_invariants.busy_s", "s", "lower"),
    ("linalg.solve_integer.calls", "count", "lower"),
    ("linalg.solve_integer.busy_s", "s", "lower"),
    ("linalg.smith_normal_form.calls", "count", "lower"),
    ("linalg.smith_normal_form.busy_s", "s", "lower"),
    ("linalg.integer_kernel.calls", "count", "lower"),
    ("linalg.integer_kernel.busy_s", "s", "lower"),
    ("linalg.module_invariants.calls", "count", "lower"),
    ("linalg.module_invariants.busy_s", "s", "lower"),
    ("linalg.snf_per_block", "count", "lower"),
    ("linalg.FieldEchelon.add.calls", "count", "lower"),
    ("linalg.FieldEchelon.add.busy_s", "s", "lower"),
    ("linalg.kernel_basis.busy_s", "s", "lower"),
    ("lie.verify_jacobi.Fp.busy_s", "s", "lower"),
    ("rings.GF.calls", "count", "lower"),
    ("rings.GF.busy_s", "s", "lower"),
    ("jordan.pair.busy_s", "s", "lower"),
    ("lie.instr.busy_s", "s", "lower"),
    ("lie.express.calls", "count", "lower"),
    ("lie.express.busy_s", "s", "lower"),
    ("lie.tkk.self_s", "s", "lower"),
    ("lie.verify_jacobi.Q.busy_s", "s", "lower"),
    ("lie.centre_basis.busy_s", "s", "lower"),
    ("lie.is_perfect.busy_s", "s", "lower"),
    ("lie.sl_algebra.self_s", "s", "lower"),
    ("roots.build.busy_s", "s", "lower"),
    ("degsums.bruteforce.busy_s", "s", "lower"),
    ("degsums.algorithm.busy_s", "s", "lower"),
    ("jordan.verify_pair_identities.busy_s", "s", "lower"),
    ("jordan.verify_pair_identities.instances", "count", "higher"),
    ("jordan.verify_pair_identities.windowed_families", "count", "lower"),
    ("jordan.verify_pair_identities.instances_per_s", "1/s", "higher"),
    ("exhaustive_share", "share", "higher"),
    ("algebras.build.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace_overhead", "share", "lower"),
    ("tkk_s", "s", "lower"),
    ("uce_s", "s", "lower"),
    ("degsums_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("refuse_s", "s", "lower"),
    ("fail_rate", "share", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# per-layer metric -> span names whose busy time it reports
_BUSY = {
    "linalg.rank_certified.busy_s": "linalg.rank_certified",
    "linalg.ModularEchelon.add_batch.busy_s": "linalg.ModularEchelon.add_batch",
    "centext.uce.busy_s": "centext.uce",
    "centext.relation_stream_s": "centext.relation_rows",
    "centext.kernel_report.busy_s": "centext.kernel_report",
    "linalg.kernel_basis.busy_s": "linalg.kernel_basis",
    "linalg.FieldEchelon.add.busy_s": "linalg.FieldEchelon.add",
    "lie.verify_jacobi.Fp.busy_s": "lie.verify_jacobi.Fp",
    "lie.verify_jacobi.Q.busy_s": "lie.verify_jacobi.Q",
    "rings.GF.busy_s": "rings.GF",
    "jordan.pair.busy_s": "jordan.pair",
    "lie.instr.busy_s": "lie.instr",
    "lie.express.busy_s": "lie.express",
    "lie.centre_basis.busy_s": "lie.centre_basis",
    "lie.is_perfect.busy_s": "lie.is_perfect",
    "roots.build.busy_s": "roots.build",
    "degsums.bruteforce.busy_s": "degsums.degenerate_sums_bruteforce",
    "degsums.algorithm.busy_s": "degsums.degenerate_sums_algorithm",
    "jordan.verify_pair_identities.busy_s": "jordan.verify_pair_identities",
}
_CALLS = {
    "linalg.rank_certified.calls": "linalg.rank_certified",
    "linalg.ModularEchelon.add_batch.calls": "linalg.ModularEchelon.add_batch",
    "linalg.FieldEchelon.add.calls": "linalg.FieldEchelon.add",
    "rings.GF.calls": "rings.GF",
    "lie.express.calls": "lie.express",
}
_SELF = {
    "centext.uce.self_s": "centext.uce",
    "lie.tkk.self_s": "lie.tkk",
    "lie.sl_algebra.self_s": "lie.sl_algebra",
}
for _fn in ("subquotient_invariants", "solve_integer", "smith_normal_form",
            "integer_kernel", "module_invariants"):
    _CALLS[f"linalg.{_fn}.calls"] = f"linalg.{_fn}"
    _BUSY[f"linalg.{_fn}.busy_s"] = f"linalg.{_fn}"
COORDINATE_ALGEBRAS = {"algebras.matrix_algebra", "algebras.split_octonions",
                       "algebras.tensor_matrix_algebra"}


def layer_metrics(tracer):
    """Per-layer values derived from the spans and counters of one traced pass."""
    spans = tracer.spans
    c = tracer.counts
    self_time, per_name = analyse(spans)

    def agg(name, key):
        return per_name.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {m: agg(n, "busy") for m, n in _BUSY.items()}
    values.update({m: agg(n, "calls") for m, n in _CALLS.items()})
    values.update({m: agg(n, "self") for m, n in _SELF.items()})
    values.update({
        "linalg.rank_certified.rows_consumed": c["rank_certified.rows"],
        "linalg.rank_certified.passes": c["rank_certified.passes"],
        "linalg.ModularEchelon.add_batch.rows": c["add_batch.rows"],
        "linalg.ModularEchelon.add_batch.useful_share":
            ratio(c["add_batch.gain"], c["add_batch.rows"]),
        "centext.relation_rows": c["relation_rows"],
        "centext.blocks": c["uce.blocks"],
        "centext.max_block_gens": c["uce.max_block_gens"],
        "linalg.snf_per_block":
            ratio(agg("linalg.smith_normal_form", "calls"), c["uce.blocks"]),
        "jordan.verify_pair_identities.instances": c["ids.instances"],
        "jordan.verify_pair_identities.windowed_families": c["ids.windowed"],
        "jordan.verify_pair_identities.instances_per_s":
            ratio(c["ids.instances"], agg("jordan.verify_pair_identities", "busy")),
        "exhaustive_share": ratio(c["ids.families"] - c["ids.windowed"], c["ids.families"]),
        "algebras.build.busy_s": busy_of_group(spans, COORDINATE_ALGEBRAS),
        "cli.self_s": sum(a["self"] for n, a in per_name.items() if n.startswith("cli.")),
        "trace.unattributed_s":
            sum(self_time[s.id] for s in spans if s.name.startswith("job.")),
    })
    return {m: (v, UNITS[m]) for m, v in values.items()}
