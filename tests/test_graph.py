from hypothesis import given, settings, strategies as st

from backdet import graph


@st.composite
def graphs(draw):
    """Random directed graphs of up to 40 nodes with up to three edges per
    node on average; the nodes are tuples, to show that any hashable value
    works, listed in a shuffled order."""
    n = draw(st.integers(1, 40))
    nodes = draw(st.permutations([("v", k) for k in range(n)]))
    ends = st.sampled_from(nodes)
    m = draw(st.integers(0, 3 * n))
    edges = draw(st.lists(st.tuples(ends, ends), min_size=m, max_size=m))
    succ = {u: [] for u in nodes}
    for u, w in edges:
        if w not in succ[u]:
            succ[u].append(w)
    return nodes, succ


def closure(nodes, succ):
    """reach[u] = nodes reachable from u by one or more edges."""
    reach = {u: set(succ[u]) for u in nodes}
    for k in nodes:
        for u in nodes:
            if k in reach[u]:
                reach[u] |= reach[k]
    return reach


def naive_reaches(nodes, succ, targets):
    reached = set(targets)
    changed = True
    while changed:
        changed = False
        for v in nodes:
            if v not in reached and any(u in reached for u in succ[v]):
                reached.add(v)
                changed = True
    return reached


FIXED = settings(derandomize=True, max_examples=150, deadline=None)


@FIXED
@given(graphs())
def test_sccs_are_mutual_reachability_classes_successors_first(g):
    nodes, succ = g
    reach = closure(nodes, succ)
    comps = graph.sccs(nodes, succ)
    assert sorted(v for comp in comps for v in comp) == sorted(nodes)
    for comp in comps:
        expect = {v for v in nodes if v == comp[0] or (v in reach[comp[0]] and comp[0] in reach[v])}
        assert set(comp) == expect
        assert graph.is_cyclic(comp, succ) == (comp[0] in reach[comp[0]])
    where = {v: k for k, comp in enumerate(comps) for v in comp}
    for u in nodes:
        for w in succ[u]:
            assert where[w] <= where[u]


@FIXED
@given(graphs(), st.data())
def test_reaches_matches_closure(g, data):
    nodes, succ = g
    targets = data.draw(st.sets(st.sampled_from(nodes), max_size=4))
    found = graph.reaches(nodes, succ, targets)
    assert found == naive_reaches(nodes, succ, targets)
    reach = closure(nodes, succ)
    assert found == {v for v in nodes if v in targets or reach[v] & targets}


@st.composite
def functions(draw):
    """Random total functions on up to 40 tuple-valued nodes, keyed in a
    shuffled order."""
    n = draw(st.integers(1, 40))
    nodes = draw(st.permutations([("v", k) for k in range(n)]))
    images = draw(st.lists(st.sampled_from(nodes), min_size=n, max_size=n))
    return dict(zip(nodes, images))


@FIXED
@given(functions())
def test_functional_cycles_are_the_periodic_nodes(image):
    cycles = graph.functional_cycles(image)
    listed = [v for cyc in cycles for v in cyc]
    assert len(listed) == len(set(listed))
    for cyc in cycles:
        for v, w in zip(cyc, cyc[1:] + cyc[:1]):
            assert image[v] == w
    periodic = set()
    for v in image:
        u = v
        for _ in range(len(image)):
            u = image[u]
            if u == v:
                periodic.add(v)
                break
    assert set(listed) == periodic
