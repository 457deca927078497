"""Value semantics of the package's immutable types.

Equality, hashing, ``repr``, immutability, and copy/pickle round trips are
pinned here for every public value type, independent of how the classes
are implemented.  The plain records, which take their constructor from
``graph.Value``, are built by position and by name, with and without
their defaults, and with each kind of bad argument.  The producers that build values without the
constructor's checks are cross-checked against the public constructor.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from conftest import random_cotree

from cographmean.cotree import (
    JOIN,
    LEAF,
    LEAF_TREE,
    UNION,
    Cotree,
    Family,
    cotree_to_graph,
    parse_cotree,
)
from cographmean.enumeration import enumerate_connected_graphs
from cographmean.graph import (
    Graph,
    complement,
    from_edge_list,
    induced_subgraph,
    parse_graph6,
)
from cographmean.poly import (
    SubgraphPolynomial,
    phi_bruteforce,
    phi_cotree,
    phi_local_bruteforce,
    phi_local_cotree,
)
from cographmean.sweeps import LocalCounterexample, Sweep
from cographmean.verdict import TheoremVerdict
from cographmean.verify import ExtremalClaim, ExtremalReport, Objective, _form_and_mean


def _report(mean: Fraction = Fraction(7, 3)) -> ExtremalReport:
    return ExtremalReport("cographs", 4, "max", (("J(L,L)", mean),), None)


def _counterexample(vertex: int = 0) -> LocalCounterexample:
    return LocalCounterexample(
        Graph(2, (2, 1)), vertex, Fraction(4, 3), Fraction(3, 2), Graph(1, (0,)), Fraction(1)
    )


# name -> (build a value, build an equal one independently, an unequal one, repr)
CASES = {
    "Graph": (
        lambda: Graph(3, (2, 5, 2)),
        lambda: parse_graph6("Bg"),
        Graph(3, (6, 5, 3)),
        "Graph(order=3, adj=(2, 5, 2))",
    ),
    "Cotree": (
        lambda: Cotree(JOIN, (LEAF_TREE, Cotree(UNION, (LEAF_TREE, LEAF_TREE)))),
        lambda: parse_cotree("J(U(L,L),L)"),
        # the same cograph, printed in another child order
        Cotree(JOIN, (Cotree(UNION, (LEAF_TREE, LEAF_TREE)), LEAF_TREE)),
        "Cotree(kind='join', children=(Cotree(kind='leaf', children=()), "
        "Cotree(kind='union', children=(Cotree(kind='leaf', children=()), "
        "Cotree(kind='leaf', children=())))))",
    ),
    "SubgraphPolynomial": (
        lambda: SubgraphPolynomial(3, (3, 2, 1)),
        lambda: SubgraphPolynomial.from_json_dict({"n": 3, "coeffs": ["3", "2", "1"]}),
        SubgraphPolynomial(3, (3, 3, 1)),
        "SubgraphPolynomial(n=3, coeffs=(3, 2, 1))",
    ),
    "TheoremVerdict": (
        lambda: TheoremVerdict("t", "n=1..3", "FAIL", None, ("a", "b")),
        lambda: TheoremVerdict(
            theorem="t", parameter_range="n=1..3", status="FAIL", log=("a", "b")
        ),
        TheoremVerdict("t", "n=1..3", "PASS", None, ("a", "b")),
        "TheoremVerdict(theorem='t', parameter_range='n=1..3', status='FAIL', "
        "witness=None, log=('a', 'b'))",
    ),
    "ExtremalReport": (
        _report,
        lambda: _report(Fraction(14, 6)),
        _report(Fraction(5, 2)),
        "ExtremalReport(family='cographs', order=4, objective='max', "
        "winners=(('J(L,L)', Fraction(7, 3)),), runner_up_gap=None)",
    ),
    "LocalCounterexample": (
        _counterexample,
        _counterexample,
        _counterexample(1),
        "LocalCounterexample(graph=Graph(order=2, adj=(2, 1)), vertex=0, "
        "global_mean=Fraction(4, 3), local_mean=Fraction(3, 2), "
        "base_tree=Graph(order=1, adj=(0,)), base_tree_mean=Fraction(1, 1))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash(name):
    build, build_again, other, _ = CASES[name]
    value, again = build(), build_again()
    assert value is not again
    assert value == again and not value != again
    assert hash(value) == hash(again)
    assert value != other
    assert len({value, again, other}) == 2


def test_values_of_different_classes_are_never_equal():
    # the same field values in two classes
    g, p = Graph(1, (0,)), SubgraphPolynomial(1, (0,))
    assert (g.order, g.adj) == (p.n, p.coeffs)
    assert g != p and p != g
    assert g != (1, (0,)) and p != (1, (0,))
    assert TheoremVerdict("t", "r", "PASS") != ("t", "r", "PASS", None, ())


@pytest.mark.parametrize(
    "cls, first, sequence",
    [
        (Graph, 2, (2, 1)),
        (SubgraphPolynomial, 2, (2, 1)),
        (Cotree, JOIN, (LEAF_TREE, LEAF_TREE)),
    ],
    ids=["Graph", "SubgraphPolynomial", "Cotree"],
)
def test_a_list_argument_is_stored_as_a_tuple(cls, first, sequence):
    from_list, from_tuple = cls(first, list(sequence)), cls(first, sequence)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert type(getattr(from_list, cls._fields[1])) is tuple


def test_cotree_compares_by_printed_form_only():
    leaf = Cotree(LEAF)
    assert leaf == LEAF_TREE and hash(leaf) == hash(LEAF_TREE)
    shared = Cotree(UNION, (LEAF_TREE,) * 3)
    fresh = Cotree(UNION, (Cotree(LEAF), Cotree(LEAF), Cotree(LEAF)))
    assert shared == fresh and hash(shared) == hash(fresh)
    # isomorphic, but printed differently
    a = Cotree(UNION, (LEAF_TREE, Cotree(JOIN, (LEAF_TREE, LEAF_TREE))))
    b = Cotree(UNION, (Cotree(JOIN, (LEAF_TREE, LEAF_TREE)), LEAF_TREE))
    assert a.form == "U(L,J(L,L))" and b.form == "U(J(L,L),L)"
    assert a != b


def test_a_verdict_with_a_dict_witness_is_not_hashable():
    verdict = TheoremVerdict("t", "r", "FAIL", {"n": 3})
    assert verdict == TheoremVerdict("t", "r", "FAIL", {"n": 3})
    with pytest.raises(TypeError):
        hash(verdict)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    build, _, _, text = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise(name):
    value = CASES[name][0]()
    before = repr(value)
    field = before[before.index("(") + 1 : before.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trips(name, round_trip):
    value = CASES[name][0]()
    twin = round_trip(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    if isinstance(value, Cotree):
        assert (twin.form, twin.leaf_count) == (value.form, value.leaf_count)


# ---------------------------------------------------------------------------
# values the package builds without the constructor's checks
# ---------------------------------------------------------------------------


def _assert_valid_graph(g: Graph) -> None:
    assert type(g.adj) is tuple
    assert Graph(g.order, g.adj) == g


def _assert_valid_poly(p: SubgraphPolynomial) -> None:
    assert type(p.coeffs) is tuple
    assert SubgraphPolynomial(p.n, p.coeffs) == p


def test_unchecked_graphs_pass_the_public_constructor(rng):
    for _ in range(60):
        n = rng.randint(1, 12)
        g = from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u) if rng.random() < 0.4]
        )
        _assert_valid_graph(complement(g))
        _assert_valid_graph(induced_subgraph(g, rng.randint(1, (1 << n) - 1)))
        _assert_valid_graph(cotree_to_graph(random_cotree(rng, n)))
    # the connected-graph classes are few enough to check every one
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            _assert_valid_graph(g)


def test_unchecked_polynomials_pass_the_public_constructor(rng):
    for _ in range(60):
        n = rng.randint(1, 12)
        t = random_cotree(rng, n)
        g = cotree_to_graph(t)
        leaf = rng.randrange(n)
        # the cotree recursions (the join step included) and both counters
        for p in (
            phi_cotree(t),
            phi_local_cotree(t, leaf),
            phi_bruteforce(g),
            phi_local_bruteforce(g, leaf),
        ):
            _assert_valid_poly(p)
        assert phi_cotree(t) == phi_bruteforce(g)
        assert phi_local_cotree(t, leaf) == phi_local_bruteforce(g, leaf)


# ---------------------------------------------------------------------------
# the plain constructor of the records
# ---------------------------------------------------------------------------


def _rows(n_max):
    yield f"checked up to {n_max}"


def _form(n):
    return "L"


# class -> every field, by position, with no field at its default
RECORDS = {
    TheoremVerdict: ("t", "n=1..3", "FAIL", {"n": 3}, ("a",)),
    ExtremalReport: ("cographs", 4, "max", (("J(L,L)", Fraction(7, 3)),), Fraction(1, 6)),
    ExtremalClaim: (
        "claim", Family.COGRAPHS, Objective.GLOBAL_MEAN_MAX, 1, 6, "table",
        _form, lambda n: Fraction(n), lambda n, report: "line",
    ),
    Sweep: ("sweep", "n=1..{n_max}", _rows),
    LocalCounterexample: (
        Graph(2, (2, 1)), 1, Fraction(4, 3), Fraction(3, 2), Graph(1, (0,)), Fraction(1)
    ),
}
RECORD_IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_records_built_by_position_and_by_name_are_equal(cls):
    args = RECORDS[cls]
    by_name = dict(zip(cls._fields, args))
    value = cls(*args)
    assert value == cls(**by_name) == cls(*args[:2], **dict(list(by_name.items())[2:]))
    assert value._key() == args
    assert "__init__" not in vars(cls)


def test_records_fill_omitted_fields_from_their_defaults():
    verdict = TheoremVerdict("t", "r", "PASS")
    assert (verdict.witness, verdict.log) == (None, ())
    assert verdict == TheoremVerdict("t", "r", "PASS", None, ())
    assert TheoremVerdict("t", "r", "PASS", log=("a",)).log == ("a",)
    claim = ExtremalClaim(*RECORDS[ExtremalClaim][:7])
    assert claim.expected_mean(5) is None
    assert claim.log_line is _form_and_mean
    # a default never displaces a field that was given
    assert ExtremalClaim(*RECORDS[ExtremalClaim]).expected_mean(5) == 5
    # the other three records have no defaults
    for cls in (ExtremalReport, Sweep, LocalCounterexample):
        assert cls._defaults == {}


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_records_reject_bad_arguments_naming_the_class(cls):
    args = RECORDS[cls]
    by_name = dict(zip(cls._fields, args))
    first = cls._fields[0]
    name = cls.__qualname__
    for bad_args, bad_kwargs, message in [
        ((), {k: v for k, v in by_name.items() if k != first}, f"is missing {first}$"),
        (args, {"extra": 1}, "has no field 'extra'"),
        (args[:1], by_name, f"got field '{first}' twice"),
        (args + (None,), {}, f"takes {len(args)} fields, got {len(args) + 1}"),
    ]:
        with pytest.raises(TypeError, match=rf"^{name}\(\) {message}"):
            cls(*bad_args, **bad_kwargs)


def test_verdict_replace_builds_a_new_verdict():
    verdict = TheoremVerdict("t", "n=1..3", "PASS", None, ("a",))
    failed = verdict.replace(status="FAIL", witness={"n": 2})
    assert failed == TheoremVerdict("t", "n=1..3", "FAIL", {"n": 2}, ("a",))
    assert verdict.status == "PASS" and verdict.witness is None
    assert verdict.replace(log=verdict.log + ("b",)).log == ("a", "b")
    with pytest.raises(TypeError, match="TheoremVerdict"):
        verdict.replace(verdict="PASS")
