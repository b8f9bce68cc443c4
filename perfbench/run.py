"""Benchmark for backdet: specs compiled to backward deterministic automata,
final runs on lasso words, every answer checked against independent oracles.

    python3 perfbench/run.py --workload ltl-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

One run serves one workload in a closed loop with a single caller: a case
starts only after the previous one ended.  A run's input set is the first
``pool`` specs of the workload's seeded stream (see inputs.py); each spec is
compiled, then every one of its lassos is parsed, answered and checked.  The
run goes through the whole input set once, then round it again, spec by
spec, until its timed work reaches ``--seconds``.  With ``--trace 1`` the run
instead takes the first ``window`` specs twice, first untraced and then
traced, and reports per-layer numbers.  NOTES.md says why each workload
exists.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the cases of the input set, so they repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
from tracing import Tracer, Untraced  # noqa: E402

SETUP_REPEATS = 15

# name -> unit: the metrics of the untraced and of the traced run's JSON
END_TO_END = {
    "cases_per_s": "1/s",
    "answer_ms_p99": "ms",
    "compile_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "formats.parse_lasso.s": "s",
    "formats.parse_nba.s": "s",
    "ltl.parse_ltl.s": "s",
    "ltl.ltl_to_waa.s": "s",
    "ltl.ltl_truth_vector.s": "s",
    "nutl.parse_nutl.s": "s",
    "nutl.parse_nutl.chars_per_s": "1/s",
    "nutl.format_nutl.s": "s",
    "nutl.nutl_to_waa.s": "s",
    "nutl.nutl_to_waa_optimized.s": "s",
    "nutl.nutl_eval_lasso.s": "s",
    "nba.build_rank_formulas.s": "s",
    "nba.nba_to_bda.s": "s",
    "nba.peel_ranks.s": "s",
    "nba.nba_accepts_lasso.s": "s",
    "automata.scc_decompose.s": "s",
    "automata.waa.states": "count",
    "automata.waa.max_scc": "count",
    "construction.BackwardDetAutomaton.s": "s",
    "construction.step.calls": "count",
    "construction.step.distinct": "count",
    "construction.step.hit_ratio": "ratio",
    "construction.step.s": "s",
    "lasso.bda_final_run.s": "s",
    "lasso.bda_final_run.no_final_run": "count",
    "lasso.bda_final_run.multiple": "count",
    "lasso.cross_validate.s": "s",
    "lasso.waa_accept_table.s": "s",
    "bench.self_s": "s",
    "bench.traced_rate_ratio": "ratio",
}


class Lib:
    """The library callables the benchmark uses, bound at import time so
    that the traced run's wrappers inside the library do not wrap them twice."""

    def __init__(self):
        bd = importlib.import_module("backdet")
        if not Path(bd.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"backdet imported from {bd.__file__}, not from {SRC}")
        self.automata = importlib.import_module("backdet.automata")
        self.construction = importlib.import_module("backdet.construction")
        self.lasso = importlib.import_module("backdet.lasso")
        self.nba = importlib.import_module("backdet.nba")
        self.nutl = importlib.import_module("backdet.nutl")
        self.ltl = importlib.import_module("backdet.ltl")
        self.BackdetError = bd.BackdetError
        self.NoFinalRunError = bd.NoFinalRunError
        self.MultipleFinalRunsError = bd.MultipleFinalRunsError
        self.BackwardDetAutomaton = bd.BackwardDetAutomaton
        self.AB = bd.Alphabet(inputs.LETTERS)
        self.cap = self.lasso.DEFAULT_ENUMERATION_CAP
        for name in (
            "parse_lasso", "parse_nba", "parse_ltl", "ltl_to_waa", "parse_nutl",
            "nutl_to_waa", "nutl_to_waa_optimized", "nutl_eval_lasso",
            "build_rank_formulas", "nba_to_bda", "peel_ranks", "nba_accepts_lasso",
            "bda_final_run", "cross_validate",
        ):
            setattr(self, name, getattr(bd, name))
        self.ltl_truth_vector = self.ltl.ltl_truth_vector
        self.format_nutl = self.nutl.format_nutl
        self.outputs = bd.BackwardRun.outputs


# --- the four workloads: compile a spec, answer a case, check the answer ---

@dataclass
class Compiled:
    waa: object
    bda: object
    formula: object = None  # ltl: parsed formula
    nba: object = None  # nba: parsed automaton
    components: tuple = ()  # nba: automaton state of each NBA state's formula
    chi: list = None  # nba-check: rank formulas chi[i][j]


def compile_ltl(lib, tr, spec, st):
    phi = tr.call("ltl.parse_ltl", lib.parse_ltl, spec.text, lib.AB)
    waa = tr.call("ltl.ltl_to_waa", lib.ltl_to_waa, phi, lib.AB)
    bda = tr.call("construction.BackwardDetAutomaton", lib.BackwardDetAutomaton, waa)
    return Compiled(waa, bda, formula=phi)


def compile_nba_pipeline(lib, tr, spec, st):
    nba = tr.call("formats.parse_nba", lib.parse_nba, spec.text)
    res = tr.call("nba.nba_to_bda", lib.nba_to_bda, nba)
    return Compiled(res.waa, res.bda, nba=nba, components=tuple(res.initial_states),
                    chi=res.formulas.chi)


def compile_nba_text(lib, tr, spec, st):
    """The CLI's route: NBA file -> rank formula text -> parsed tuple -> both
    translations -> BDA on the variable-per-state automaton."""
    nba = tr.call("formats.parse_nba", lib.parse_nba, spec.text)
    table = tr.call("nba.build_rank_formulas", lib.build_rank_formulas, nba)
    lines = [tr.call("nutl.format_nutl", lib.format_nutl, f) for f in table.final_tuple]
    roots = []
    for line in lines:
        st.nutl_chars += len(line)
        roots.append(tr.call("nutl.parse_nutl", lib.parse_nutl, line, nba.alphabet))
    waa, components = tr.call("nutl.nutl_to_waa_optimized", lib.nutl_to_waa_optimized,
                              roots, nba.alphabet)
    # the subformula-per-state translation is the CLI's default; it is timed
    # as part of compile, its automaton is not queried
    tr.call("nutl.nutl_to_waa", lib.nutl_to_waa, roots, nba.alphabet)
    bda = tr.call("construction.BackwardDetAutomaton", lib.BackwardDetAutomaton, waa)
    return Compiled(waa, bda, nba=nba, components=tuple(components))


def answer(lib, tr, c, w):
    """The final run and its lambda outputs at every quotient position."""
    run = tr.call("lasso.bda_final_run", lib.bda_final_run, c.bda, w)
    return run, tr.call("lasso.BackwardRun.outputs", lib.outputs, run, c.bda)


def check_ltl(lib, tr, c, w, run, outs):
    """The formula's state in the outputs against the formula's semantics."""
    truth = tr.call("ltl.ltl_truth_vector", lib.ltl_truth_vector, c.formula, w)
    (q_phi,) = c.waa.initial
    return all((q_phi in out) == t for out, t in zip(outs, truth))


def check_ltl_sweep(lib, tr, c, w, run, outs):
    """Every state's output against the automaton oracle, then as check_ltl."""
    report = tr.call("lasso.cross_validate", lib.cross_validate, c.waa, w, c.bda, run)
    return report.ok and check_ltl(lib, tr, c, w, run, outs)


def check_nba(lib, tr, c, w, run, outs):
    """NBA states accepting from position 0: the answer against graph search."""
    got = {q for q, name in zip(c.nba.states, c.components) if name in outs[0]}
    direct = {q for q in c.nba.states
              if tr.call("nba.nba_accepts_lasso", lib.nba_accepts_lasso, c.nba, w, q, 0)}
    return got == direct


def check_nba_ranks(lib, tr, c, w, run, outs):
    """Every rank formula chi[i][j] against the peeled run DAG, then the answer."""
    dag = tr.call("nba.peel_ranks", lib.peel_ranks, c.nba, w)
    agree = True
    for i, level in enumerate(c.chi):
        for q, chi in zip(c.nba.states, level):
            truth = tr.call("nutl.nutl_eval_lasso", lib.nutl_eval_lasso, [chi], w)
            got = {k for k, s in enumerate(truth) if 0 in s}
            agree &= got == {k for k in range(w.positions) if dag.ranks[(k, q)] <= i}
    return agree and check_nba(lib, tr, c, w, run, outs)


@dataclass(frozen=True)
class Workload:
    compile: object
    check: object
    window: int  # specs in a traced run
    pool: int  # specs in an untraced run's input set


WORKLOADS = {
    "ltl-sweep": Workload(compile_ltl, check_ltl_sweep, 40, 470),
    "ltl-large": Workload(compile_ltl, check_ltl, 200, 1300),
    "nba-check": Workload(compile_nba_pipeline, check_nba_ranks, 10, 27),
    "nba-compile": Workload(compile_nba_text, check_nba, 2, 8),
}


# --- the closed loop ---

# The machine the benchmark runs on is shared: other tenants slow it by up
# to a third for seconds or minutes at a time, which no guest counter shows.
# After each spec, outside the timed work, the run times a fixed calibration
# slice; the spec's times are rescaled to the slice's reference time.
CALIBRATION_REF_S = 1e-3
CALIBRATION_SHARE = 0.03
SETUP_SLICES = 8  # calibration slices before and after each set-up


def calibration_slice(n=4000):
    """Fixed pure-Python work of the library's kind (tuple keys, dict
    lookups and inserts), timed with the collector off, so that its time
    does not depend on how many objects the library keeps alive."""
    gc.disable()
    t0 = time.perf_counter()
    d = {}
    for i in range(n):
        k = (i & 511, i % 7)
        d[k] = d.get(k, 0) + 1
    t = time.perf_counter() - t0
    gc.enable()
    return t


@dataclass
class Stats:
    specs: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    no_final_run: int = 0
    multiple: int = 0
    timed_s: float = 0.0
    # rescaled to the reference speed, spec by spec
    ref_s: float = 0.0
    compile_ms: list = field(default_factory=list)
    answer_ms: list = field(default_factory=list)  # agreeing answers only
    nutl_chars: int = 0
    cal_s: float = 0.0
    cal_n: int = 0
    # the outcome of every case of the input set, spec by spec, from its
    # first pass; and the repeated specs whose outcomes differ from it
    outcomes: list = field(default_factory=list)
    unrepeatable: int = 0
    # input properties, over the input set
    states: dict = field(default_factory=lambda: defaultdict(int))
    max_scc: int = 0
    over_cap: int = 0
    reasked: int = 0

    @property
    def ok(self):
        return self.attempted - self.failed

    def input_counts(self):
        """Cases of the input set: attempted, then each outcome's count."""
        counts = Counter(o for spec in self.outcomes for o in spec)
        return sum(counts.values()), counts

    def calibrate(self, spent_s):
        """Calibration slices for CALIBRATION_SHARE of ``spent_s``, at least
        one; returns how much slower than the reference speed they ran."""
        n = max(1, round(CALIBRATION_SHARE * spent_s / CALIBRATION_REF_S))
        t = sum(calibration_slice() for _ in range(n))
        self.cal_s += t
        self.cal_n += n
        return t / n / CALIBRATION_REF_S


def run_spec(lib, tr, wl, spec, st, first):
    """Compile one spec, then parse, answer and check each of its lassos;
    returns each case's outcome.  ``first``: the spec's first pass, which
    the input properties describe."""
    perf = time.perf_counter
    t0 = perf()
    tr.open("bench.compile")
    try:
        c = wl.compile(lib, tr, spec, st)
    except lib.BackdetError:
        c = None
    tr.close()
    st.compile_ms.append((perf() - t0) * 1e3)
    periods = set()
    outcomes = []
    for text in spec.lassos:
        tr.open("bench.case")
        w = tr.call("formats.parse_lasso", lib.parse_lasso, text, lib.AB)
        agreed = False
        run = None
        outcome = "error" if c is not None else "compile_error"
        a0 = perf()
        tr.open("bench.answer")
        if c is not None:
            try:
                run, outs = answer(lib, tr, c, w)
            except lib.NoFinalRunError:
                st.no_final_run += 1
                outcome = "no_final_run"
            except lib.MultipleFinalRunsError:
                st.multiple += 1
                outcome = "multiple"
            except lib.BackdetError:
                pass
        tr.close()
        a_ms = (perf() - a0) * 1e3
        if run is not None:
            tr.open("bench.check")
            agreed = wl.check(lib, tr, c, w, run, outs)
            tr.close()
            st.mismatches += not agreed
            outcome = "ok" if agreed else "mismatch"
        tr.close()
        outcomes.append(outcome)
        st.attempted += 1
        if agreed:
            st.answer_ms.append(a_ms)
        else:
            st.failed += 1
        if c is not None and first:
            st.reasked += w.period in periods
            periods.add(w.period)
    if c is not None and first:
        st.states[len(c.waa.states)] += 1
        st.max_scc = max(st.max_scc, max(s.size for s in c.waa.sccs))
        st.over_cap += len(spec.lassos) * (c.bda.state_space_bound > lib.cap)
    return tuple(outcomes)


def run_specs(lib, tr, name, specs, seconds=None):
    """Compile, answer and check every spec of ``specs`` once; then, with
    ``seconds``, go round them again, spec by spec, until the timed work
    reaches ``seconds``.  A repeated spec must give each case the outcome
    it had the first time."""
    wl = WORKLOADS[name]
    st = Stats()
    order = itertools.cycle(specs) if seconds is not None else specs
    for k, spec in enumerate(order):
        first = seconds is None or k < len(specs)
        if not first and st.timed_s >= seconds:
            break
        gc.collect()
        answered = len(st.answer_ms)
        t0 = time.perf_counter()
        tr.open("bench.spec")
        outcomes = run_spec(lib, tr, wl, spec, st, first)
        tr.close()
        spec_s = time.perf_counter() - t0
        if first:
            st.outcomes.append(outcomes)
        else:
            st.unrepeatable += outcomes != st.outcomes[k % len(specs)]
        st.timed_s += spec_s
        st.specs += 1
        # the spec's automata are released by now; collect them before the
        # calibration slices so that these do not time the library's heap
        gc.collect()
        slow = st.calibrate(spec_s)
        st.ref_s += spec_s / slow
        st.compile_ms[-1] /= slow
        for i in range(answered, len(st.answer_ms)):
            st.answer_ms[i] /= slow
    return st


def percentile_ms(st, q):
    """Nearest-rank q-quantile of answer latency over every attempted case;
    a failed case ranks above every success, so None means the quantile
    falls among failures (unbounded)."""
    rank = max(1, math.ceil(q * st.attempted))
    ok = sorted(st.answer_ms)
    return ok[rank - 1] if rank <= len(ok) else None


def end_to_end(st, setup_s):
    """The run's metrics, times rescaled to the reference machine speed
    (``setup_s`` is rescaled already, by its own calibration)."""
    p99 = percentile_ms(st, 0.99)
    return {
        "cases_per_s": st.ok / st.ref_s,
        # an unbounded quantile reads as the whole timed run, longer than
        # any answer that completed in it
        "answer_ms_p99": st.timed_s * 1e3 if p99 is None else p99,
        "compile_ms_p50": statistics.median(st.compile_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


# --- tracing of callables the library calls itself ---

class LibraryWrappers:
    """Installs spans around the callables that the library calls from
    inside itself, which the benchmark cannot time at its own call sites."""

    def __init__(self, lib, tr):
        self.lib, self.tr = lib, tr
        self.step_keys = set()
        self.distinct = 0
        self.waa_states = 0
        self.max_scc = 0
        self._saved = []

    def install(self):
        lib, tr = self.lib, self.tr
        step = lib.construction.BackwardDetAutomaton.step
        scc_decompose = lib.automata.scc_decompose
        keys = self.step_keys
        open_, close = tr.open, tr.close

        def traced_step(bda, letter, family):
            keys.add((id(bda), letter, family))
            open_("construction.step")
            try:
                return step(bda, letter, family)
            finally:
                close()

        def traced_scc_decompose(waa):
            sccs = tr.call("automata.scc_decompose", scc_decompose, waa)
            self.waa_states += len(waa.states)
            self.max_scc = max([self.max_scc] + [s.size for s in sccs])
            return sccs

        self._patch(lib.construction.BackwardDetAutomaton, "step", traced_step)
        self._patch(lib.automata, "scc_decompose", traced_scc_decompose)
        for module, attr, span in (
            (lib.nutl, "nutl_to_waa_optimized", "nutl.nutl_to_waa_optimized"),
            (lib.nba, "build_rank_formulas", "nba.build_rank_formulas"),
            (lib.lasso, "waa_accept_table", "lasso.waa_accept_table"),
        ):
            self._patch(module, attr, tr.wrap(span, getattr(module, attr)))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def end_spec(self):
        self.distinct += len(self.step_keys)
        self.step_keys.clear()

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def traced_run(lib, name, window, out_path):
    """The window untraced, then traced; per-layer numbers of the traced pass."""
    plain = run_specs(lib, Untraced(), name, window)
    tr = Tracer()
    wrappers = LibraryWrappers(lib, tr)
    wrappers.install()
    try:
        tr.open("bench.run")

        def specs():
            for spec in window:
                yield spec
                wrappers.end_spec()

        st = run_specs(lib, tr, name, specs())
        tr.close()
    finally:
        wrappers.uninstall()
    tr.write(out_path)

    s = {k: v / 1e9 for k, v in tr.self_ns.items()}
    calls = tr.calls["construction.step"]
    m = {f"{k}.s": v for k, v in s.items()}
    m.update({
        "nutl.parse_nutl.chars_per_s": st.nutl_chars / s["nutl.parse_nutl"] if st.nutl_chars else 0.0,
        "automata.waa.states": wrappers.waa_states,
        "automata.waa.max_scc": wrappers.max_scc,
        "construction.step.calls": calls,
        "construction.step.distinct": wrappers.distinct,
        "construction.step.hit_ratio": 1 - wrappers.distinct / calls if calls else 0.0,
        "lasso.bda_final_run.no_final_run": st.no_final_run,
        "lasso.bda_final_run.multiple": st.multiple,
        "bench.self_s": sum(v for k, v in s.items() if k.startswith("bench.")),
        "bench.traced_rate_ratio": (st.ok / st.timed_s) / (plain.ok / plain.timed_s)
        if plain.ok and st.ok else 0.0,
    })
    metrics = {k: m.get(k, 0.0 if unit == "s" else 0) for k, unit in PER_LAYER.items()}
    return st, plain, metrics, tr


# --- set-up, reporting, command line ---

def set_up(name, seed, window):
    """A fresh import of backdet plus the input text of the first ``window``
    specs."""
    for mod in [m for m in sys.modules if m == "backdet" or m.startswith("backdet.")]:
        del sys.modules[mod]
    lib = Lib()
    stream = inputs.spec_stream(name, seed)
    return lib, list(itertools.islice(stream, window)), stream


def describe(st):
    n, counts = st.input_counts()
    failed = n - counts["ok"]
    total = sum(st.states.values())
    hist = " ".join(f"{k}:{v}" for k, v in sorted(st.states.items()))
    lines = [
        f"  input set        {n} cases attempted, {failed} failed "
        f"({counts['no_final_run']} no final run, {counts['multiple']} multiple, "
        f"{counts['mismatch']} oracle mismatches, "
        f"{counts['error'] + counts['compile_error']} other errors), {len(st.outcomes)} specs",
        f"  failed_frac      {failed / n:.4f}",
        f"  timed            {st.attempted} cases, {st.failed} failed, {st.specs} specs "
        f"({st.specs / len(st.outcomes):.2f} passes over the input set); "
        f"{st.mismatches} oracle mismatches, "
        f"{st.unrepeatable} repeated specs whose outcomes changed",
        f"  input properties automaton states (states:specs) {hist}; largest SCC {st.max_scc}; "
        f"cases above the enumeration cap {st.over_cap / n:.3f}; "
        f"answers re-asking an (automaton, period) pair {st.reasked / n:.3f}"
        if total else "  input properties none (no spec compiled)",
    ]
    return lines


def report_untraced(name, seed, fp, st, metrics, setup_raw_s):
    n = st.attempted

    def quantile(q):
        v = percentile_ms(st, q)
        return "unbounded (falls among failed cases)" if v is None else f"{v:.4f} ms"

    print(f"workload {name}  seed {seed}  input set sha256 {fp}")
    print(f"  machine          calibration slice {st.cal_s / st.cal_n * 1e3:.3f} ms on average "
          f"against {CALIBRATION_REF_S * 1e3:g} ms: times rescaled spec by spec, [raw] as timed")
    print(f"  setup_s          {metrics['setup_s']:.4f} s [raw {setup_raw_s:.4f}]  "
          f"(median of {SETUP_REPEATS} set-ups)")
    print(f"  cases_per_s      {metrics['cases_per_s']:.2f} 1/s [raw {st.ok / st.timed_s:.2f}]  "
          f"({st.ok} agreeing cases in {st.timed_s:.2f} s timed)")
    print(f"  compile_ms_p50   {metrics['compile_ms_p50']:.3f} ms  (n={st.specs} specs)")
    print(f"  answer_ms_p50    {quantile(0.50)}  (n={n} cases)")
    print(f"  answer_ms_p99    {quantile(0.99)}  (n={n} cases)")
    print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
    for line in describe(st):
        print(line)


def report_traced(name, seed, fp, st, plain, metrics, tr, out_path):
    print(f"workload {name}  seed {seed}  window sha256 {fp}  (traced, {st.specs} specs)")
    for line in describe(st):
        print(line)
    print(f"  spans            {len(tr.start)} written to {out_path}")
    print(f"  untraced {plain.ok / plain.timed_s:.2f} vs traced {st.ok / st.timed_s:.2f} "
          f"agreeing cases/s")
    print("  self time per span name (s), calls:")
    for k in sorted(tr.self_ns, key=tr.self_ns.get, reverse=True):
        print(f"    {k:38s} {tr.self_ns[k] / 1e9:10.4f} {tr.calls[k]:10d}")
    for k, unit in PER_LAYER.items():
        if not k.endswith(".s"):
            print(f"  {k:40s} {metrics[k]} {unit}")


def timed_set_ups(name, seed):
    """SETUP_REPEATS set-ups, each rescaled by the median of the calibration
    slices timed just before and just after it.  Returns the last set-up and
    the medians of the rescaled and of the raw times."""
    rescaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        slices = [calibration_slice() for _ in range(SETUP_SLICES)]
        t0 = time.perf_counter()
        made = set_up(name, seed, WORKLOADS[name].window)
        t = time.perf_counter() - t0
        gc.collect()
        slices += [calibration_slice() for _ in range(SETUP_SLICES)]
        raw.append(t)
        rescaled.append(t / (statistics.median(slices) / CALIBRATION_REF_S))
    return made, statistics.median(rescaled), statistics.median(raw)


def run_workload(name, seed, seconds, trace):
    (lib, specs, stream), setup_s, setup_raw_s = timed_set_ups(name, seed)
    if not trace:
        # the rest of the input set: the benchmark's own work, not timed
        specs += itertools.islice(stream, WORKLOADS[name].pool - len(specs))
    gc.collect()
    gc.freeze()
    fp = inputs.fingerprint(specs)
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        out_path = out_dir / f"trace-{name}.tsv"
        st, plain, metrics, tr = traced_run(lib, name, specs, out_path)
        report_traced(name, seed, fp, st, plain, metrics, tr, out_path.relative_to(ROOT))
        correct = st.mismatches == 0 and plain.mismatches == 0
    else:
        st = run_specs(lib, Untraced(), name, specs, seconds)
        metrics = end_to_end(st, setup_s)
        report_untraced(name, seed, fp, st, metrics, setup_raw_s)
        correct = st.mismatches == 0 and st.unrepeatable == 0
    units = PER_LAYER if trace else END_TO_END
    attempted, counts = st.input_counts()
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - counts["ok"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args):
    """Every workload, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout, flush=True)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "backdet" / "__init__.py").is_file():
        print(f"backdet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
