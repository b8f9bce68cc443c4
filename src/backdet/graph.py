"""Graph primitives shared by the automata, Buchi and fixed-point code.

A graph is given by its nodes, any hashable values, and a successor map
that lists for every node the nodes its edges lead to.  Every successor
must itself be a node.  The SCC search follows the order of the nodes and
of each successor list, so its output is reproducible whenever they are.
"""

from __future__ import annotations


def sccs(nodes, succ) -> list[list]:
    """Strongly connected components, by an iterative Tarjan search.

    Components are listed successors first: each appears after every
    component it reaches.  Roots are tried in the order of ``nodes`` and
    edges in the order of ``succ``; a component lists its nodes in the
    order they leave the search stack.  A node on no cycle is a component
    of its own.
    """
    nodes = list(nodes)
    ident = {v: k for k, v in enumerate(nodes)}
    adj = [[ident[w] for w in succ[v]] for v in nodes]
    index = [-1] * len(nodes)
    lowlink = [0] * len(nodes)
    on_stack = [False] * len(nodes)
    stack = []
    comps = []
    counter = 0
    for root in range(len(nodes)):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # work entries are (node, iterator over its remaining successors)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if lowlink[v] < lowlink[u]:
                        lowlink[u] = lowlink[v]
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(nodes[w])
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def is_cyclic(comp, succ) -> bool:
    """Whether a strongly connected component contains a cycle."""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def functional_cycles(image) -> list[list]:
    """Cycles of the functional graph v -> image[v], whose nodes are the keys
    of ``image``; every image must itself be a key.  Starts are tried in key
    order, and each cycle is listed once, from the first of its nodes the
    search reaches, every node followed by its image."""
    seen = {}  # node -> the start whose walk reached it first
    cycles = []
    for start in image:
        path = []
        v = start
        while v not in seen:
            seen[v] = start
            path.append(v)
            v = image[v]
        if seen[v] == start:
            cycles.append(path[path.index(v):])
    return cycles


def reaches(nodes, succ, targets) -> set:
    """Nodes with a path, possibly empty, to one of ``targets``; found by a
    search over the reversed edges, linear in the size of the graph."""
    pred = {}
    for v in nodes:
        for w in succ[v]:
            pred.setdefault(w, []).append(v)
    reached = set(targets)
    todo = list(reached)
    while todo:
        for v in pred.get(todo.pop(), ()):
            if v not in reached:
                reached.add(v)
                todo.append(v)
    return reached
