"""Wait-for views: acyclicity, and the W1-W3 lemmas as normalize and
split_for run them."""

from fractions import Fraction

from hypothesis import given, strategies as st

from latchproof.lemmas import Inconsistency, SplitTarget, normalize, split_for
from latchproof.parser import format_state, parse_formula
from latchproof.syntax import Disjunct, Formula, Perm, TRUE, Wait
from latchproof.waitgraph import is_cyclic


def F(s):
    return parse_formula(s)


def views(*graphs):
    """A state holding one wait-for view per (arcs, permission) pair."""
    atoms = tuple(Wait(frozenset(arcs), Perm(Fraction(perm), ())) for arcs, perm in graphs)
    return Formula((Disjunct((), atoms, TRUE),))


def test_add_arc():
    # W2: a positive c1 beside a final c2 adds c2->c1; the share is unchanged
    out = normalize(F("CNT(c1,1)@1/2 * CNT(c2,-1)@1/2 * WAIT{}@1/2"))
    assert format_state(out) == "CNT(c1,1)@1/2 * CNT(c2,-1)@1/2 * WAIT{c2->c1}@1/2"


def test_add_existing_arc_noop():
    f = F("CNT(c1,1)@1/2 * CNT(c2,-1)@1/2 * WAIT{c2->c1}@1/2")
    assert normalize(f) == f


def test_self_arc_is_cyclic():
    assert is_cyclic(frozenset({("c", "c")}))


def test_two_cycle():
    assert is_cyclic(frozenset({("c2", "c1"), ("c1", "c2")}))


def test_empty_acyclic():
    assert not is_cyclic(frozenset())


def test_dag_not_cyclic():
    assert not is_cyclic(frozenset({("a", "b"), ("b", "c"), ("a", "c")}))


def test_combine_two_halves():
    # W3 unions the arcs and sums the shares; the full view is cyclic (E3)
    out = normalize(F("WAIT{c2->c1}@1/2 * WAIT{c1->c2}@1/2"))
    assert isinstance(out, Inconsistency) and out.lemma == "E3"
    assert out.message == "cyclic wait-for graph {c1->c2, c2->c1}"
    out = normalize(F("WAIT{a->b}@1/4 * WAIT{b->c}@1/4"))
    assert format_state(out) == "WAIT{a->b, b->c}@1/2"


def test_split_duplicates_arcs():
    r = split_for(F("WAIT{a->b}@1"), [SplitTarget(F("emp"))])
    assert format_state(r.branches[0]) == "WAIT{a->b}@1/2"
    assert format_state(r.frame) == "WAIT{a->b}@1/2"
    # several views are merged by W3 before the split
    r = split_for(F("WAIT{a->b}@1/2 * WAIT{b->c}@1/2"),
                  [SplitTarget(F("emp")), SplitTarget(F("emp"))])
    for part in r.branches + [r.frame]:
        assert format_state(part) == "WAIT{a->b, b->c}@1/3"


def test_try_reset():
    # W1 resets a full acyclic view only
    assert format_state(normalize(F("WAIT{a->b}@1"))) == "WAIT{}"
    half = F("WAIT{a->b}@1/2")
    assert normalize(half) == half
    assert isinstance(normalize(F("WAIT{a->b, b->a}@1")), Inconsistency)


def test_try_reset_idempotent():
    for s in ["WAIT{a->b}@1", "WAIT{a->b}@1/2", "WAIT{a->b, b->c}@1/3"]:
        once = normalize(F(s))
        assert normalize(once) == once


def _reaches_itself(arcs, nodes):
    # brute-force reachability: does any node reach itself?
    succ = {n: {b for a, b in arcs if a == n} for n in nodes}
    for start in nodes:
        frontier = set(succ[start])
        seen = set(frontier)
        while frontier:
            if start in frontier:
                return True
            frontier = {m for n in frontier for m in succ[n]} - seen
            seen |= frontier
    return False


def test_cyclic_matches_bruteforce_small():
    """Exhaustive agreement on all directed graphs over 3 nodes (with
    self-loops); the acceptance suite covers up to 5 nodes."""
    nodes = ["a", "b", "c"]
    all_arcs = [(x, y) for x in nodes for y in nodes]
    for bits in range(2 ** len(all_arcs)):
        arcs = frozenset(a for i, a in enumerate(all_arcs) if bits >> i & 1)
        assert is_cyclic(arcs) == _reaches_itself(arcs, nodes), arcs


def _summary(out):
    if isinstance(out, Inconsistency):
        return out.kind, out.lemma, out.message
    return out


@given(st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=8),
       st.sets(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=8))
def test_combine_commutative(a1, a2):
    one = normalize(views((a1, Fraction(1, 4)), (a2, Fraction(1, 4))))
    other = normalize(views((a2, Fraction(1, 4)), (a1, Fraction(1, 4))))
    assert _summary(one) == _summary(other)
