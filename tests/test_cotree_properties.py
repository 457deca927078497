"""Property tests for cotree identity: canonical form, printing, equality, hashing.

Equality and hashing read the printed form stored on each node.  These
properties check that relation against an independent structural one on
random canonical cotrees of up to 20 leaves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cographmean import canonicalize, format_cotree, parse_cotree
from cographmean.cotree import JOIN, LEAF_TREE, UNION, Cotree, compose

# Trees of 20 leaves take a few milliseconds each; a slow host must not
# turn that into a deadline failure.
_SETTINGS = settings(deadline=None, max_examples=200)


@st.composite
def cotrees(draw, leaves=st.integers(1, 20)):
    """A random canonical cotree: alternating kinds, children sorted by form."""

    def build(n: int, kind: str) -> Cotree:
        if n == 1:
            return LEAF_TREE
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        other = JOIN if kind == UNION else UNION
        return canonicalize(Cotree(kind, tuple(build(p, other) for p in parts)))

    return build(draw(leaves), draw(st.sampled_from((UNION, JOIN))))


def _structure(t: Cotree):
    """Structural identity as nested tuples, independent of ``form``."""
    return (t.kind, tuple(_structure(c) for c in t.children))


@st.composite
def shuffled(draw, t: Cotree) -> Cotree:
    """The same tree with every node's children permuted at random."""
    if not t.children:
        return t
    children = [draw(shuffled(c)) for c in t.children]
    return Cotree(t.kind, tuple(draw(st.permutations(children))))


@_SETTINGS
@given(st.data())
def test_canonicalize_undoes_a_shuffle_with_the_same_hash(data):
    t = data.draw(cotrees())
    s = data.draw(shuffled(t))
    c = canonicalize(s)
    assert c == t
    assert hash(c) == hash(t)
    assert _structure(c) == _structure(t)


@_SETTINGS
@given(cotrees())
def test_parse_inverts_format(t):
    back = parse_cotree(format_cotree(t))
    assert back == t
    assert _structure(back) == _structure(t)


@_SETTINGS
@given(st.data())
def test_reordered_children_compare_equal_only_when_structurally_equal(data):
    t = data.draw(cotrees(leaves=st.integers(2, 20)))
    order = data.draw(st.permutations(t.children))
    u = Cotree(t.kind, tuple(order))
    same = _structure(u) == _structure(t)
    assert (u == t) == same
    assert same == all(_structure(a) == _structure(b) for a, b in zip(order, t.children))
    if same:
        assert hash(u) == hash(t)


@_SETTINGS
@given(st.sampled_from((UNION, JOIN)), st.data())
def test_compose_yields_canonical_trees(kind, data):
    """Children drawn from groups of canonical trees not of the root's kind,
    in any order, need no canonicalize once ``compose`` has sorted them."""
    other = cotrees(leaves=st.integers(1, 6)).filter(lambda t: t.kind != kind)
    groups = data.draw(
        st.lists(
            st.tuples(st.lists(other, min_size=1, max_size=3, unique=True), st.integers(1, 3)),
            min_size=1,
            max_size=3,
        ).filter(lambda groups: sum(j for _, j in groups) >= 2)
    )
    trees = list(compose(kind, groups))
    assert trees
    for tree in trees:
        assert tree.kind == kind
        assert tree == canonicalize(tree)
        assert _structure(tree) == _structure(canonicalize(tree))
