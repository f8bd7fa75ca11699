"""Run one equiko CLI command in-process with its layers traced.

    python bench/tracer.py ARG...

Times `import equiko.cli`, then wraps every public function of every
equiko module (and the validating `__post_init__` of the two datum classes)
by replacing the module and class attributes that refer to it; the package
source is not modified.  It runs `cli.main([ARG...])` with stdout captured,
then prints one JSON document: the import time, the exit code, the captured
stdout, per-span-name call counts and self times, per-check times of
`verify`, and counters read from the arguments and results of wrapped calls.

Spans are folded into per-name totals as they close: a `verify` sweep makes
about a million of them, too many to keep.  A span's self time is its
duration minus the durations of its child spans.

The module also holds the arithmetic that turns those totals into the
per-layer metrics; `run.py` imports it for that.
"""

import sys
import time


class Recorder:
    """A span stack that folds each closed span into per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames [name, start, time covered by children]
        self.spans = {}  # name -> [calls, self seconds]
        self.counters = {}
        self.checks = {}
        self.last_check = None

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, children = self.stack.pop()
        duration = self.clock() - start
        total = self.spans.setdefault(name, [0, 0.0])
        total[0] += 1
        total[1] += duration - children
        if self.stack:
            self.stack[-1][2] += duration

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def record_check(self, name):
        """Time the `verify` check that just finished, from the previous one."""
        now = self.clock()
        since = self.last_check
        if since is None:
            since = next((f[1] for f in self.stack if f[0] == "verify.verify_all"), now)
        self.checks[name] = self.checks.get(name, 0.0) + now - since
        self.last_check = now


def traced(rec, name, fn, after=None):
    """`fn` inside a span; `after(args, kwargs, result)` runs in a
    `tracer.hook` span of its own so its cost stays out of every layer."""

    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            rec.enter("tracer.hook")
            try:
                after(args, kwargs, result)
            finally:
                rec.exit()
        return result

    return wrapper


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def hooks(rec):
    """Counters, keyed by the span name whose call they inspect."""

    def snf(args, kwargs, res):
        m = _first_arg(args, kwargs)
        rec.count("snf_calls")
        rec.count("transform_entries", m.rows**2 + m.cols**2)
        entries = res.left.entries + res.right.entries
        if entries:
            bits = max(max(entries), -min(entries)).bit_length()
            rec.counters["transform_max_bits"] = max(rec.counters.get("transform_max_bits", 0), bits)
        if rec.inside("exactlinalg.all_homology"):
            rec.count("boundary_snf_calls")
            rec.count("invariant_factors", len(res.d))
            rec.count("unit_factors", sum(1 for d in res.d if d == 1))

    def all_homology(args, kwargs, res):
        rec.count("boundaries", len(_first_arg(args, kwargs).boundaries))

    def expand(args, kwargs, complex_):
        for b in complex_.boundaries:
            nonzero = [e for e in b.entries if e]
            rec.count("boundary_entries", b.rows * b.cols)
            rec.count("boundary_nnz", len(nonzero))
            rec.count("boundary_units", sum(1 for e in nonzero if e in (1, -1)))
        for b in _first_arg(args, kwargs).boundaries:
            for terms in getattr(b, "terms", ()):
                rec.count("induction_terms", sum(1 for t in terms if t.spec.strip() != "id"))

    def parse_cw(args, kwargs, res):
        rec.count("input_bytes", len(_first_arg(args, kwargs).encode("utf-8")))

    return {
        "exactlinalg.smith_normal_form": snf,
        "exactlinalg.all_homology": all_homology,
        "bredon.expand": expand,
        "cwfile.parse_cw": parse_cw,
    }


def install(rec):
    """Wrap the public functions of every loaded equiko module."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "equiko" or n.startswith("equiko.")]
    after = hooks(rec)
    wrappers = {}
    for module in modules:
        short = module.__name__.removeprefix("equiko.")
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            name = f"{short}.{attr}"
            wrappers[id(obj)] = (obj, traced(rec, name, obj, after.get(name)))
    # Replace every module-level reference, so calls through `from x import f`
    # names are traced too.
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    bredon = sys.modules["equiko.bredon"]
    for cls in (bredon.GammaCWDatum, bredon.GraphOfGroupsDatum):
        setattr(cls, "__post_init__",
                traced(rec, f"bredon.{cls.__name__}.validate", cls.__post_init__))
    verify = sys.modules["equiko.verify"]
    check_result = verify.CheckResult

    def recording_check_result(name, passed, detail):
        rec.record_check(name)
        return check_result(name, passed, detail)

    verify.CheckResult = recording_check_result


def main(argv):
    t0 = time.perf_counter()
    import equiko.cli as cli

    import_s = time.perf_counter() - t0
    import io
    import json

    rec = Recorder()
    install(rec)
    captured = io.StringIO()
    sys.stdout = captured
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = sys.__stdout__
    json.dump({"import_s": import_s, "code": code, "stdout": captured.getvalue(),
               "spans": rec.spans, "counters": rec.counters, "checks": rec.checks}, sys.stdout)
    return 0


# -- per-layer metrics from the totals of many traced ops -----------------------

VERIFY_CHECKS = ("sl3-bredon", "sl3-ko", "gl3-ko", "character-tables", "involution-counts",
                 "hecke", "class-counts", "psl2zp", "mayer-vietoris", "sl2zp-doubling",
                 "cstar", "snf", "euler")

_EXPAND = ("bredon.expand", "bredon.bredon_homology")
_HOMOLOGY = ("exactlinalg.homology", "exactlinalg.all_homology", "exactlinalg.matrix_rank")


def layer_of(span_name):
    """The self-time metric a span name belongs to (None: tracer overhead)."""
    if span_name == "tracer.hook":
        return None
    if span_name in _EXPAND:
        return "bredon.expand_s"
    if span_name in _HOMOLOGY:
        return "exactlinalg.homology_s"
    if span_name == "exactlinalg.smith_normal_form":
        return "exactlinalg.snf_s"
    module = span_name.split(".", 1)[0]
    # groups: the catalogue's cold builds (build_group, character_table,
    # all_tables_coincide) and its name and rank lookups.
    return {"cli": "cli.self_s", "groups": "groups.tables_s", "cwfile": "cwfile.parse_s",
            "bredon": "bredon.datum_s", "reprings": "reprings.induction_s"}.get(module, "other.self_s")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traces, overhead_frac):
    """Per-layer metrics from a list of tracer outputs (one per op).

    Times and counts are means per op; ratios are taken over the sums;
    `transform_max_bits` is the maximum over all ops."""
    n = len(traces)
    times = dict.fromkeys(
        ("cli.self_s", "groups.tables_s", "cwfile.parse_s", "bredon.datum_s", "bredon.expand_s",
         "reprings.induction_s", "exactlinalg.snf_s", "exactlinalg.homology_s", "other.self_s"), 0.0)
    checks = dict.fromkeys(VERIFY_CHECKS, 0.0)
    counters, calls, import_s = {}, {}, 0.0
    for t in traces:
        import_s += t["import_s"]
        for name, (n_calls, self_s) in t["spans"].items():
            calls[name] = calls.get(name, 0) + n_calls
            layer = layer_of(name)
            if layer is not None:
                times[layer] += self_s
        for key, value in t["counters"].items():
            if key == "transform_max_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for name, seconds in t["checks"].items():
            if name in checks:
                checks[name] += seconds
    c = counters.get
    inductions = calls.get("reprings.induction_from_trivial", 0) + calls.get("reprings.cyclic_induction", 0)
    metrics = {"cli.import_s": (import_s / n, "s/op")}
    metrics.update({k: (v / n, "s/op") for k, v in times.items()})
    metrics.update({
        "cwfile.input_bytes": (c("input_bytes", 0) / n, "B/op"),
        "bredon.boundary_entries": (c("boundary_entries", 0) / n, "count/op"),
        "bredon.boundary_nnz": (c("boundary_nnz", 0) / n, "count/op"),
        "bredon.unit_entry_frac": (_ratio(c("boundary_units", 0), c("boundary_nnz", 0)), "ratio"),
        "reprings.induction_calls_per_term": (_ratio(inductions, c("induction_terms", 0)), "ratio"),
        "exactlinalg.snf_calls": (c("snf_calls", 0) / n, "count/op"),
        "exactlinalg.snf_calls_per_boundary":
            (_ratio(c("boundary_snf_calls", 0), c("boundaries", 0)), "ratio"),
        "exactlinalg.transform_entries": (c("transform_entries", 0) / n, "count/op"),
        "exactlinalg.unit_factor_frac":
            (_ratio(c("unit_factors", 0), c("invariant_factors", 0)), "ratio"),
        "exactlinalg.transform_max_bits": (c("transform_max_bits", 0), "bit"),
    })
    metrics.update({f"verify.{k}_s": (v / n, "s/op") for k, v in checks.items()})
    metrics["trace_overhead_frac"] = (overhead_frac, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
