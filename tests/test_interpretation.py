from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atoms_of, catom, ratom
from rlwindow.interpretation import (Inconsistent, Interpretation,
                                     canonical_model, direct_sum,
                                     eval_concept, eval_role, satisfies,
                                     standard_interpretation)
from rlwindow.ontology import (ConceptName, Conj, Exists, RoleInverse,
                               RoleName, parse_tbox)
from rlwindow.synth import random_stream, random_tbox


def interp(concepts=None, roles=None):
    return Interpretation(dict(concepts or {}), dict(roles or {}))


# -- standard interpretation -------------------------------------------------

def test_standard_interpretation_concepts():
    i = standard_interpretation({catom("A", "a"), catom("B", "a")})
    assert i == interp({"A": {"a"}, "B": {"a"}})


def test_standard_interpretation_empty():
    assert standard_interpretation(set()).is_empty


def test_standard_interpretation_roles():
    i = standard_interpretation({ratom("R", "a", "b"), ratom("R", "b", "c")})
    assert i == interp(roles={"R": {("a", "b"), ("b", "c")}})


# -- direct sum --------------------------------------------------------------

def test_direct_sum_merges_extensions():
    got = direct_sum(interp({"A": {"a"}}), interp({"B": {"a"}}))
    assert got == interp({"A": {"a"}, "B": {"a"}})


def test_direct_sum_identity_and_idempotence():
    i = interp({"A": {"a"}}, {"R": {("a", "b")}})
    assert direct_sum(i, interp()) == i
    assert direct_sum(i, i) == i


def _small_interps():
    inds = st.sets(st.sampled_from(["a", "b", "c"]), max_size=3)
    pairs = st.sets(st.tuples(st.sampled_from(["a", "b"]),
                              st.sampled_from(["a", "b"])), max_size=3)
    concepts = st.dictionaries(st.sampled_from(["A", "B"]), inds, max_size=2)
    roles = st.dictionaries(st.sampled_from(["R", "S"]), pairs, max_size=2)
    return st.builds(interp, concepts, roles)


@given(_small_interps(), _small_interps(), _small_interps())
def test_direct_sum_associative_commutative(x, y, z):
    assert direct_sum(direct_sum(x, y), z) == direct_sum(x, direct_sum(y, z))
    assert direct_sum(x, y) == direct_sum(y, x)


# -- evaluation --------------------------------------------------------------

def test_eval_conjunction_intersects():
    i = interp({"A": {"a"}, "C": {"a", "b"}})
    assert eval_concept(Conj((ConceptName("A"), ConceptName("C"))), i) == {"a"}


def test_eval_on_empty_interpretation():
    e = Conj((ConceptName("A"), Exists(RoleName("R"), ConceptName("B"))))
    assert eval_concept(e, interp()) == set()


def test_eval_exists():
    i = interp({"B": {"b"}}, {"R": {("a", "b")}})
    assert eval_concept(Exists(RoleName("R"), ConceptName("B")), i) == {"a"}
    assert eval_concept(Exists(RoleInverse("R"), ConceptName("B")), i) == set()


def test_eval_role_inverse():
    i = interp(roles={"R": {("a", "b")}})
    assert eval_role(RoleInverse("R"), i) == {("b", "a")}
    assert eval_role(RoleName("P"), i) == set()


@given(st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))))
def test_eval_role_double_inverse(pairs):
    i = interp(roles={"R": pairs})
    swapped = eval_role(RoleInverse("R"), i)
    assert {(b, a) for (a, b) in swapped} == eval_role(RoleName("R"), i)


def test_satisfies():
    i = interp({"A": {"a"}})
    assert satisfies(i, catom("A", "a"))
    assert not satisfies(i, catom("A", "b"))
    assert not satisfies(i, ratom("R", "a", "b"))


# -- canonical model ---------------------------------------------------------

def test_canonical_model_worked_chain(worked_tbox):
    m = canonical_model({catom("A", "a"), catom("B", "a"), catom("C", "a")},
                        worked_tbox)
    assert atoms_of(m) == {catom(n, "a") for n in "ABCDE"}
    assert satisfies(m, catom("E", "a"))


def test_canonical_model_empty():
    assert canonical_model(set(), parse_tbox("A < B")).is_empty


def test_canonical_model_inconsistency_witness():
    m = canonical_model({catom("A", "a"), catom("C", "a")},
                        parse_tbox("A & C < bot"))
    assert isinstance(m, Inconsistent)
    assert m.binding == "a"
    assert m.axiom == parse_tbox("A & C < bot").negative_inclusions[0]


def test_canonical_model_role_chain():
    tbox = parse_tbox("inv(R) < inv(S)\nsome S . A < B")
    m = canonical_model({ratom("R", "x", "y"), catom("A", "y")}, tbox)
    assert satisfies(m, ratom("S", "x", "y"))
    assert satisfies(m, catom("B", "x"))


def test_canonical_model_inverse_body():
    tbox = parse_tbox("some inv(R) . A < B")
    m = canonical_model({ratom("R", "x", "y"), catom("A", "x")}, tbox)
    assert satisfies(m, catom("B", "y"))


def _random_case(seed):
    tbox = random_tbox(seed, n_negative=0, acyclic=False)
    boxes = random_stream(seed + 1, n_ticks=1, atoms_per_tick=8)
    return tbox, set(boxes[0].atoms)


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_model_contains_standard(seed):
    tbox, atoms = _random_case(seed)
    m = canonical_model(atoms, tbox)
    assert atoms_of(standard_interpretation(atoms)) <= atoms_of(m)


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_model_is_closed(seed):
    tbox, atoms = _random_case(seed)
    m = canonical_model(atoms, tbox)
    for ax in tbox.concept_inclusions:
        assert eval_concept(ax.body, m) <= m.concepts.get(ax.head, set())
    for ax in tbox.role_inclusions:
        assert eval_role(ax.sub, m) <= m.roles.get(ax.sup.name, set())


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_model_monotone(seed):
    tbox, atoms = _random_case(seed)
    some = {a for i, a in enumerate(sorted(atoms, key=lambda a: a.sort_key))
            if i % 2 == 0}
    assert atoms_of(canonical_model(some, tbox)) <= atoms_of(canonical_model(atoms, tbox))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_model_minimal(seed):
    # Every derived atom is the head of some rule whose body holds in the
    # model: dropping any atom that is not such a head breaks nothing.
    tbox, atoms = _random_case(seed)
    m = canonical_model(atoms, tbox)
    derivable = set()
    for ax in tbox.concept_inclusions:
        derivable |= {catom(ax.head, x) for x in eval_concept(ax.body, m)}
    for ax in tbox.role_inclusions:
        derivable |= {ratom(ax.sup.name, s, o) for (s, o) in eval_role(ax.sub, m)}
    assert atoms_of(m) <= atoms | derivable
