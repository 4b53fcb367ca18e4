"""Spans around the calls into each qpchar layer, recorded from outside.

`install` swaps module attributes for timing wrappers: the library calls
`qpchar.cli` makes, the index-set and exponent calls inside `fermionic` and
`qp_enum`, and `TruncatedSeries.__mul__` / `__eq__`.  Only traced passes
install them; `restore` puts the originals back.  Nothing in qpchar itself
is edited.

A span is (name, start, end, parent, job, busy, calls).  Repeated calls of
one function under the same parent span share one span: `calls` counts them
and `busy` sums their durations, which keeps the 10^5-call leaves
(`total_exponent`, each item of `iter_basis_monomials`) to a handful of
records.  A span's self time is its busy time minus its children's.

Spans hold raw measured times.  Each wrapped call also costs the pass some
time of its own (the wrapper frame, `enter`/`exit`, their clock reads): part
of it falls inside the callee's [t0, t1] window, the rest in the caller's
span.  `calibrate` measures both parts on no-op targets, and `charge` takes
them out of the spans and books them as `trace.bookkeeping` under the
caller, so that no layer's self time holds tracing cost.
"""

import importlib
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    busy: float = 0.0
    calls: int = 0


class Tracer:
    """In-memory span recorder; `job` tags every span opened while set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._open: dict[tuple, int] = {}

    def enter(self, name: str) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else None
        key = (name, parent, self.job)
        idx = self._open.get(key)
        t0 = self.clock()
        if idx is None:
            idx = self._open[key] = len(self.spans)
            self.spans.append(Span(name, t0, t0, parent, self.job))
        self._stack.append(idx)
        return idx, t0

    def exit(self, idx: int, t0: float) -> None:
        t1 = self.clock()
        span = self.spans[idx]
        span.end = t1
        span.busy += t1 - t0
        span.calls += 1
        self._stack.pop()

    def call(self, name: str, fn, *args):
        idx, t0 = self.enter(name)
        try:
            return fn(*args)
        finally:
            self.exit(idx, t0)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    out = [s.busy for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.busy
    return out


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed busy seconds, self seconds and call count."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"busy": 0.0, "self": 0.0, "calls": 0})
        row["busy"] += s.busy
        row["self"] += own
        row["calls"] += s.calls
    return table


@dataclass(frozen=True)
class Cost:
    """Time one wrapped call adds to a traced pass: `inside` falls within the
    callee's span, `total` is all of it (inside included)."""
    inside: float
    total: float


def charge(spans: list[Span], costs: dict[str, Cost], scale: float = 1.0) -> list[Span]:
    """Copies of `spans` with busy times multiplied by `scale`, then with the
    wrappers' cost moved out: a span named in `costs` loses calls * inside,
    and the `trace.bookkeeping` span under its parent gains calls * total.
    `costs` is in the units the scaled spans are in."""
    out = [replace(s, busy=s.busy * scale) for s in spans]
    book = {(s.parent, s.job): i for i, s in enumerate(out) if s.name == BOOKKEEPING}
    for s in out[:len(spans)]:
        cost = costs.get(s.name)
        if cost is None or not s.calls:
            continue
        s.busy -= s.calls * cost.inside
        key = (s.parent, s.job)
        if key not in book:
            book[key] = len(out)
            out.append(Span(BOOKKEEPING, s.start, s.end, s.parent, s.job))
        out[book[key]].busy += s.calls * cost.total
        out[book[key]].calls += s.calls
    return out


def _noop(x):
    return x


def _count_to(n):
    for i in range(n):
        yield i


def calibrate(time_kernel, kernel_ref_s: float, rounds: int = 9, n: int = 1000,
              clock=time.perf_counter) -> dict[str, Cost]:
    """The cost of one wrapped call and of one wrapped generator item, keyed
    "call" and "item", in reference seconds.

    Each round times n calls of a no-op function and n items of a counting
    generator, bare and wrapped, between two `time_kernel()` calls (seconds
    of one calibration-kernel call).  A cost is taken in units of that
    round's kernel time and rescaled so that one kernel call takes
    `kernel_ref_s`, which tracks the host's speed the way pass times do.
    Medians over rounds.
    """
    def per_item(loop, arg):
        t0 = clock()
        loop(arg)
        return (clock() - t0) / n

    def call_each(fn):
        for i in range(n):
            fn(i)

    def loop_only(_):
        for i in range(n):
            pass

    def drain(gen):
        for _ in gen:
            pass

    rows = {"call": [], "item": []}
    for _ in range(rounds):
        k0 = time_kernel()
        empty = per_item(loop_only, None)
        measured = {}
        for kind in rows:
            tr = Tracer(clock)
            root = tr.enter("calibration")
            if kind == "call":
                bare = per_item(call_each, _noop)
                wrapped = per_item(call_each, _wrap_call(tr, "leaf", _noop, None))
            else:
                bare = per_item(drain, _count_to(n))
                wrapped = per_item(drain, _wrap_generator(tr, "leaf", _count_to, "items")(n))
            tr.exit(*root)
            leaf = next(s for s in tr.spans if s.name == "leaf")
            # the callee's own time is what the bare loop spends beyond an empty one
            measured[kind] = (leaf.busy / leaf.calls - (bare - empty), wrapped - bare)
        kernel = (k0 + time_kernel()) / 2
        for kind, (inside, total) in measured.items():
            rows[kind].append((inside / kernel, total / kernel))
    return {kind: Cost(statistics.median(i for i, _ in r) * kernel_ref_s,
                       statistics.median(t for _, t in r) * kernel_ref_s)
            for kind, r in rows.items()}


# --- counters attached to the wrapped calls ----------------------------------

def _count_len(counter):
    def hook(counts, _args, result):
        counts[counter] += len(result)
    return hook


def _count_multisets(counts, _args, result):
    # every PBW multiset adds 1 to exactly one coefficient
    counts["pbw_oracle.multisets"] += sum(result.terms.values())


def _count_mul_pairs(counts, args, _result):
    # __mul__ tries every pair of terms; a pair is useful when its q-degree
    # stays within the truncation
    a, b = args
    trunc = a.trunc
    hist = [0] * (trunc + 1)
    for key in b.terms:
        hist[key[0]] += 1
    within = [0] * (trunc + 1)  # within[d]: terms of b with q-degree <= d
    run = 0
    for d, n in enumerate(hist):
        run += n
        within[d] = run
    counts["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
    counts["series.mul.useful_pairs"] += sum(within[trunc - key[0]] for key in a.terms)


# (module, attribute path, span name, counter hook, wraps a generator); the
# hook of a generator is the name of the counter of the items it yields
TARGETS = (
    ("qpchar.cli", "character_fermionic", "fermionic.character_fermionic",
     _count_len("fermionic.terms"), False),
    ("qpchar.cli", "enumerate_basis", "qp_enum.enumerate_basis", None, False),
    ("qpchar.cli", "product_side", "pbw_oracle.product_side", None, False),
    ("qpchar.cli", "pbw_enumerated", "pbw_oracle.pbw_enumerated", _count_multisets, False),
    ("qpchar.fermionic", "enumerate_dual_charge_types", "fermionic.enumerate_dual_charge_types",
     _count_len("fermionic.pairs"), False),
    ("qpchar.fermionic", "total_exponent", "partitions.total_exponent", None, False),
    ("qpchar.qp_enum", "enumerate_dual_charge_types", "fermionic.enumerate_dual_charge_types",
     _count_len("fermionic.pairs"), False),
    ("qpchar.qp_enum", "iter_basis_monomials", "qp_enum.iter_basis_monomials",
     "qp_enum.monomials", True),
    ("qpchar.series", "TruncatedSeries.__mul__", "series.mul", _count_mul_pairs, False),
    ("qpchar.series", "TruncatedSeries.__eq__", "series.eq", None, False),
)


def _wrap_call(tracer: Tracer, name: str, fn, hook):
    def traced(*args, **kwargs):
        idx, t0 = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx, t0)
        if hook is not None:
            # counting is tracing cost, kept out of the caller's self time
            idx, t0 = tracer.enter(BOOKKEEPING)
            try:
                hook(tracer.counts, args, result)
            finally:
                tracer.exit(idx, t0)
        return result
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn, counter: str):
    # the span is busy only while the generator body runs, one next() at a time
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        items = 0
        while True:
            idx, t0 = tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.counts[counter] += items
                return
            finally:
                tracer.exit(idx, t0)
            items += 1
            yield item
    return traced


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every target that exists.  Returns (originals, missing): pass
    `originals` to `restore`; `missing` names targets not found, whose
    metrics then read 0."""
    originals, missing = [], []
    for module_name, path, name, hook, is_gen in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{path}")
            continue
        if is_gen:
            wrapped = _wrap_generator(tracer, name, fn, hook)
        else:
            wrapped = _wrap_call(tracer, name, fn, hook)
        originals.append((owner, attr, fn))
        setattr(owner, attr, wrapped)
    return originals, missing


def restore(originals: list) -> None:
    for owner, attr, fn in reversed(originals):
        setattr(owner, attr, fn)


def layer_metrics(spans: list[Span], counts: Counter, costs: dict[str, Cost] | None = None,
                  scale: float = 1.0) -> dict[str, float]:
    """The per-layer metrics of one traced pass (units: bench.PER_LAYER_UNITS).

    Span times are multiplied by `scale`, then the wrapper costs of
    `calibrate` (same units) are charged to bookkeeping."""
    if costs:
        costs = {name: costs["item" if is_gen else "call"]
                 for _, _, name, _, is_gen in TARGETS}
    t = by_name(charge(spans, costs or {}, scale))

    def busy(name):
        return t.get(name, {}).get("busy", 0.0)

    def own(name):
        return t.get(name, {}).get("self", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    pairs = counts["series.mul.term_pairs"]
    return {
        "fermionic.enumerate_dual_charge_types.s": busy("fermionic.enumerate_dual_charge_types"),
        "fermionic.pairs": counts["fermionic.pairs"],
        "fermionic.character_fermionic.s": busy("fermionic.character_fermionic"),
        "fermionic.sum_self_s": own("fermionic.character_fermionic"),
        "fermionic.terms": counts["fermionic.terms"],
        "partitions.total_exponent.s": busy("partitions.total_exponent"),
        "partitions.total_exponent.calls": calls("partitions.total_exponent"),
        "qp_enum.iter_basis_monomials.s": busy("qp_enum.iter_basis_monomials"),
        "qp_enum.monomials": counts["qp_enum.monomials"],
        "qp_enum.enumerate_basis.s": busy("qp_enum.enumerate_basis"),
        "qp_enum.count_self_s": own("qp_enum.enumerate_basis"),
        "pbw_oracle.product_side.s": busy("pbw_oracle.product_side"),
        "pbw_oracle.pbw_enumerated.s": busy("pbw_oracle.pbw_enumerated"),
        "pbw_oracle.multisets": counts["pbw_oracle.multisets"],
        "series.mul.calls": calls("series.mul"),
        "series.mul.s": busy("series.mul"),
        "series.mul.term_pairs": pairs,
        "series.mul.useful_ratio": counts["series.mul.useful_pairs"] / pairs if pairs else 0.0,
        "series.eq.calls": calls("series.eq"),
        "series.eq.s": busy("series.eq"),
        "cli.main.s": busy("cli.main"),
        "cli.self_s": own("cli.main"),
        "bench.self_s": own("bench.job"),
        "trace.bookkeeping_s": busy(BOOKKEEPING),
        "trace.layer_self_sum_s": sum(
            row["self"] for name, row in t.items() if name != BOOKKEEPING),
    }
