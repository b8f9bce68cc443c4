"""Graphviz rendering of automata and run structures."""

from __future__ import annotations

from .automata import WeakAlternatingAutomaton
from .construction import BackwardDetAutomaton
from .formats import format_condition
from .lasso import _final_candidates, _period_map


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def waa_to_dot(waa: WeakAlternatingAutomaton) -> str:
    """Transition graph with one cluster per SCC; recurring states are drawn
    with double circles, initial states with a bold border."""
    lines = ["digraph waa {", "  rankdir=LR;", "  node [shape=circle];"]
    for s, scc in enumerate(waa.sccs):
        polarity = "recurring" if scc.recurring else "nonrecurring"
        lines.append(f"  subgraph cluster_{s} {{")
        lines.append(f'    label="SCC {s} ({polarity})";')
        for q in scc.states:
            attrs = []
            if q in waa.recurring:
                attrs.append("shape=doublecircle")
            if q in waa.initial:
                attrs.append("style=bold")
            attrs.append(f'label="{_dot_escape(q)}"')
            lines.append(f'    "{_dot_escape(q)}" [{", ".join(attrs)}];')
        lines.append("  }")
    for q in waa.states:
        label = _dot_escape(format_condition(waa.delta[q]))
        for q2 in sorted(waa.delta[q].free):
            lines.append(f'  "{_dot_escape(q)}" -> "{_dot_escape(q2)}";')
        lines.append(f'  "{_dot_escape(q)}" [xlabel="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def period_graph_to_dot(bda: BackwardDetAutomaton, w, cap: int) -> str:
    """Functional graph of the one-period backward composition on the lasso
    ``w``, with the cycles highlighted.  Only usable when the state space
    fits the cap."""
    # with no index required, every h-cycle is final
    cycle_nodes, image, _ = _final_candidates(bda.enumerate_state_space(cap), _period_map(bda, w), set())
    cycle_nodes = set(cycle_nodes)

    def node_id(f):
        return _dot_escape(bda.format_family(f))

    lines = ["digraph period {", "  node [shape=box, fontsize=10];"]
    for f, h_f in image.items():
        attrs = ""
        if f in cycle_nodes:
            attrs = ' [style=filled, fillcolor="#c6e2ff"]'
        lines.append(f'  "{node_id(f)}"{attrs};')
        lines.append(f'  "{node_id(f)}" -> "{node_id(h_f)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
