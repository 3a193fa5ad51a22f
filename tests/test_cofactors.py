import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirwan import ideals
from kirwan.cofactors import express_in_ideal
from kirwan.errors import BudgetExceeded
from kirwan.ideals import Budgets, Ideal
from kirwan.rings import Polynomial, VariableTable, parse_polynomial

T = VariableTable(["c1", "c2", "a"])


def P(text):
    return parse_polynomial(T, text)


def expand(cofs, gens):
    acc = Polynomial.zero(T)
    for c, g in zip(cofs, gens):
        acc = acc + c * g
    return acc


def test_member_with_certificate():
    gens = [P("c1^2 - a^2"), P("c2^2 - a^2")]
    target = P("c1^2 - c2^2")
    cofs = express_in_ideal(gens, target)
    assert cofs is not None
    assert expand(cofs, gens) == target


def test_non_member():
    gens = [P("c1^2 - a^2"), P("c2^2 - a^2")]
    assert express_in_ideal(gens, P("c1")) is None
    assert express_in_ideal(gens, P("c1*c2")) is None


def test_zero_target():
    gens = [P("c1^2 - a^2")]
    cofs = express_in_ideal(gens, Polynomial.zero(T))
    assert cofs is not None
    assert expand(cofs, gens).is_zero()


def test_zero_generator_slot_is_preserved():
    gens = [Polynomial.zero(T), P("c1")]
    cofs = express_in_ideal(gens, P("c1*c2"))
    assert cofs is not None
    assert len(cofs) == 2
    assert expand(cofs, gens) == P("c1*c2")


def test_randomized_members_replay():
    rng = random.Random(421)
    gens = [P("c1^2 - a^2"), P("c2^2 - a^2"), P("c1*c2 - a^2")]
    monos = ["1", "c1", "c2", "a", "c1*c2", "a^2", "c1*a"]
    for _ in range(25):
        target = Polynomial.zero(T)
        for g in gens:
            coef = Polynomial.zero(T)
            for m in rng.sample(monos, rng.randint(0, 3)):
                coef = coef + Fraction(rng.randint(-3, 3)) * P(m)
            target = target + coef * g
        cofs = express_in_ideal(gens, target)
        assert cofs is not None
        assert expand(cofs, gens) == target


# -- the tag-module route: one normal form on the one Groebner engine ---------

TAGGED = [
    VariableTable(["e0", "e1", "x"]),
    VariableTable(["_e0", "e0", "y"], [2, 4, 2]),
    VariableTable(["x", "y", "z"]),
]


@st.composite
def memberships(draw):
    """(table, generators, target): zero, duplicate and non-homogeneous
    generators welcome; the target is a combination of them about half the
    time."""
    table = draw(st.sampled_from(TAGGED))
    monos = st.tuples(*[st.integers(0, 2)] * len(table))
    polys = st.lists(st.tuples(monos, st.integers(-3, 3)), max_size=3).map(
        lambda terms: Polynomial(table, terms))
    gens = draw(st.lists(polys, max_size=3))
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if gens and draw(st.booleans()):
        target = Polynomial.dot(table, [(draw(polys), g) for g in gens])
    else:
        target = draw(polys)
    return table, gens, target


@settings(max_examples=60, deadline=None)
@given(memberships())
def test_cofactors_exist_exactly_for_members(case):
    table, gens, target = case
    cofs = express_in_ideal(gens, target)
    member = Ideal(table, gens).contains(target)
    if not any(gens):
        assert member == target.is_zero()
    assert (cofs is not None) == member
    if cofs is not None:
        assert len(cofs) == len(gens)
        assert Polynomial.dot(table, zip(cofs, gens)) == target
        assert all(q.is_zero() for q, g in zip(cofs, gens) if g.is_zero())


def test_basis_budget_raises():
    gens = [P("c1^2 - a^2"), P("c2^2 - a^2")]
    with pytest.raises(BudgetExceeded):
        express_in_ideal(gens, P("c1^2 - c2^2"), budgets=Budgets(max_basis=1))


def test_other_tables_raise():
    other = VariableTable(["c1", "c2", "b"])
    with pytest.raises(ValueError):
        express_in_ideal([P("c1"), parse_polynomial(other, "c1")], P("c1"))
    with pytest.raises(ValueError):
        express_in_ideal([P("c1")], parse_polynomial(other, "c1"))


def test_runs_on_the_verified_engine(monkeypatch):
    calls = []
    for name in ("_complete", "_verify_s_criterion"):
        real = getattr(ideals, name)

        def spy(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(ideals, name, spy)
    gens = [P("c1^2 - a^2"), P("c2^2 - a^2")]
    assert expand(express_in_ideal(gens, P("c1^2 - c2^2")), gens) == P("c1^2 - c2^2")
    assert calls == ["_complete", "_verify_s_criterion"]
