"""Command-line interface.

Exit codes: 0 success, 2 parse error, 3 semantic check error, 4 state-space
cap exceeded, 5 validation counterexample found.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import Alphabet, is_very_weak
from .construction import BackwardDetAutomaton
from .dot import period_graph_to_dot, waa_to_dot
from .errors import FormatError, SemanticError, StateSpaceCapError
from .formats import _split_lines, format_bda, format_waa, parse_lasso, parse_nba, parse_waa
from .lasso import bda_final_run, waa_accept_table
from .ltl import parse_ltl
from . import ltl as ltl_mod, nutl, validation
from .nba import build_rank_formulas

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_CAP = 4
EXIT_COUNTEREXAMPLE = 5


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _count(n, noun):
    """``n`` and the noun, plural unless n is 1."""
    return f"{n} {noun}{'' if n == 1 else 's'}"


def cmd_ltl2waa(args):
    alphabet = Alphabet(tuple(args.alphabet))
    phi = parse_ltl(args.formula, alphabet)
    waa = ltl_mod.ltl_to_waa(phi, alphabet)
    bda = BackwardDetAutomaton(waa)
    _write(args.output, format_waa(waa))
    shape = "very weak" if is_very_weak(waa) else "weak"
    print(
        f"{_count(len(waa.states), 'state')}, {shape}, BDA bound {bda.state_space_bound}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_nutl2waa(args):
    # the parser needs the alphabet to tell letters from variables
    alphabet = Alphabet(tuple(args.alphabet))
    roots = []
    for lineno, line in _split_lines(_read(args.input)):
        try:
            roots.append(nutl.parse_nutl(line, alphabet))
        except FormatError as e:
            raise FormatError(e.reason, f"line {lineno}, formula offset {e.position}") from None
    waa, initial_states = nutl.nutl_to_waa(roots, alphabet)
    out = format_waa(waa)
    out += "# components: " + " ".join(initial_states) + "\n"
    _write(args.output, out)
    bda = BackwardDetAutomaton(waa)
    print(
        f"{_count(len(waa.states), 'state')}, {_count(len(waa.sccs), 'SCC')}, "
        f"BDA bound {bda.state_space_bound}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_nba2nutl(args):
    nba = parse_nba(_read(args.input))
    table = build_rank_formulas(nba)
    lines = [nutl.format_nutl(f) for f in table.final_tuple]
    _write(args.output, "\n".join(lines) + "\n")
    n = len(nba.states)
    print(
        f"{_count(n, 'NBA state')}, {_count(2 * n, 'fixed-point block')}, "
        f"{_count(len(lines), 'tuple component')}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_waa2bda(args):
    bda = BackwardDetAutomaton(parse_waa(_read(args.input)))
    _write(args.output, format_bda(bda, enumerate_cap=args.enumerate))
    return EXIT_OK


def cmd_run(args):
    waa = parse_waa(_read(args.automaton))
    bda = BackwardDetAutomaton(waa)
    w = parse_lasso(args.lasso, waa.alphabet)
    run = bda_final_run(bda, w)
    outs = run.outputs(bda)
    print(f"word: {w}")
    for i, (out, oracle) in enumerate(zip(outs, waa_accept_table(waa, w))):
        fired = " ".join(f"({s},{k})" for s, k in sorted(run.record(bda, i).fired))
        marker = "" if out == oracle else "   << MISMATCH"
        print(f"pos {i} letter {w.letter(i)}")
        print(f"  family: {bda.format_family(run.families[i])}")
        print(f"  fired:  {fired}")
        print(f"  output: {{{', '.join(sorted(out))}}}")
        print(f"  oracle: {{{', '.join(sorted(oracle))}}}{marker}")
    if waa.initial:
        print(f"accepted from initial set: {bool(waa.initial & outs[0])}")
    return EXIT_OK


_CHECKS = {
    "ltl": validation.check_ltl,
    "nutl": validation.check_nutl,
    "nba": validation.check_nba,
    "dual": validation.check_dual,
    "unique": validation.check_uniqueness,
}


def cmd_check(args):
    fn = _CHECKS[args.mode]
    # an option that is not given keeps the sweep's own default
    given = {"seed": args.seed, "count": args.count}
    report = fn(**{k: v for k, v in given.items() if v is not None})
    print(report.summary())
    if report.ok:
        return EXIT_OK
    path = args.reproducer or f"check_{args.mode}_failures.json"
    with open(path, "w") as fh:
        json.dump(report.failures, fh, indent=2, default=str)
    print(f"wrote {len(report.failures)} counterexamples to {path}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE


def cmd_dot(args):
    waa = parse_waa(_read(args.input))
    if args.lasso is None:
        _write(args.output, waa_to_dot(waa))
        return EXIT_OK
    bda = BackwardDetAutomaton(waa)
    w = parse_lasso(args.lasso, waa.alphabet)
    _write(args.output, period_graph_to_dot(bda, w, cap=args.cap))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="backdet",
        description="Backward determinization of weak alternating omega-automata.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ltl2waa", help="translate an LTL formula to a weak alternating automaton")
    s.add_argument("formula")
    s.add_argument("--alphabet", nargs="+", default=["a", "b"])
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=cmd_ltl2waa)

    s = sub.add_parser("nutl2waa", help="translate a fixed-point formula tuple (one component per line)")
    s.add_argument("input")
    s.add_argument("--alphabet", nargs="+", required=True)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=cmd_nutl2waa)

    s = sub.add_parser("nba2nutl", help="rank formulas of a nondeterministic Buchi automaton")
    s.add_argument("input")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=cmd_nba2nutl)

    s = sub.add_parser("waa2bda", help="backward determinize a weak alternating automaton")
    s.add_argument("input")
    s.add_argument("--enumerate", type=int, default=None, metavar="CAP",
                   help="also print the full transition table if the space fits")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=cmd_waa2bda)

    s = sub.add_parser("run", help="final run of the derived automaton on a lasso word")
    s.add_argument("automaton")
    s.add_argument("lasso", help="'u ; v' with space-separated letters")
    s.set_defaults(fn=cmd_run)

    s = sub.add_parser("check", help="randomized validation sweeps")
    s.add_argument("--mode", choices=sorted(_CHECKS), required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--count", type=int, default=None)
    s.add_argument("--reproducer", default=None,
                   help="where to write counterexamples (JSON)")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("dot", help="Graphviz output")
    s.add_argument("input")
    s.add_argument("--lasso", default=None,
                   help="render the one-period functional graph instead")
    s.add_argument("--cap", type=int, default=1 << 10)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=cmd_dot)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except StateSpaceCapError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except (SemanticError, ValueError) as e:
        print(f"check error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
