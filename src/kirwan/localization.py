"""Integration over K = Q(x) on circle-compact fixed-point data.

A space enters only through its fixed components: each carries a
finite-dimensional graded algebra over Q, an Euler class in algebra ⊗ Q[x]
whose unit part a·x^k is invertible over K, and a top-degree functional
picking the coefficient of a declared fundamental-class monomial.  Classes
are per-component elements of algebra ⊗ K; the integral is the fixed-point
sum of integrate_top(class / euler), and everything downstream (pairings,
adjoint pushforwards, the diagonal-class basis criterion) is exact K linear
algebra.

An element of one component is a dict {standard monomial: RationalFunction}
with no zero values; every sum goes through _accumulate, which keeps it so.
FixedComponent.evaluate, the one evaluation routine, takes Σ coef·Π var^e to
its image under variable images: map pullbacks, relation checks and ambient
restrictions all use it."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import VerificationError
from .ideals import Budgets, Ideal, QuotientRing
from .ratfield import RationalFunction, _uscale
from .rings import GrevlexOrder, Polynomial, VariableTable, parse_polynomial

RF = RationalFunction


def _rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction(Fraction(value))


def _accumulate(out: dict, pairs) -> dict:
    """Add each (monomial, coefficient) pair into out, dropping zeros."""
    for m, c in pairs:
        cur = out.get(m)
        cur = c if cur is None else cur + c
        if cur.is_zero():
            out.pop(m, None)
        else:
            out[m] = cur
    return out


def _split_x(p: Polynomial) -> dict:
    """{monomial in the leading variables: Q[x] coefficient} for p, with x last."""
    return _accumulate({}, (
        (exps[:-1], RationalFunction([Fraction(0)] * exps[-1] + [coef]))
        for exps, coef in p.terms
    ))


class FixedComponent:
    """One fixed component: algebra, Euler class, and top-degree functional."""

    def __init__(self, name: str, ring: QuotientRing, euler: Mapping,
                 fundamental: tuple):
        self.name = name
        self.ring = ring
        self.table = ring.table
        if "x" in self.table:
            raise ValueError("component algebras may not use the reserved variable x")
        if not ring.is_cofinite():
            raise ValueError(f"component {name}: algebra is not finite-dimensional")
        self.top_degree = ring.top_degree()
        if self.top_degree < 0:
            raise ValueError(f"component {name}: algebra is the zero ring")
        self.fundamental = tuple(fundamental)
        top_monos = ring.std_monomials(self.top_degree)
        if self.fundamental not in top_monos:
            raise ValueError(
                f"component {name}: fundamental class is not a top-degree standard monomial"
            )
        self._dim = None
        self._mul_cache: dict = {}
        self._inverse = None
        self.euler = self.normalize(euler)
        lead = self.euler.get(self._unit_mono())
        if lead is None or not lead.is_polynomial():
            raise ValueError(f"component {name}: euler unit part missing or not polynomial")
        if sum(1 for c in lead.polynomial_coeffs() if c) != 1:
            raise ValueError(f"component {name}: euler unit part is not a single a*x^k term")

    def __repr__(self) -> str:
        return f"FixedComponent({self.name})"

    def _unit_mono(self) -> tuple:
        return (0,) * len(self.table)

    def dimension(self) -> int:
        if self._dim is None:
            self._dim = self.ring.total_dimension()
        return self._dim

    def std_monomials(self) -> list:
        out = []
        for d in range(0, self.top_degree + 1, 2):
            out.extend(self.ring.std_monomials(d))
        return out

    # -- elements of algebra ⊗ K, as {std monomial: RationalFunction} -------

    def normalize(self, value: Mapping) -> dict:
        """Reduce monomials to standard form and drop zero coefficients."""
        out: dict = {}
        unit = self._unit_mono()
        for mono, coef in value.items():
            coef = _rf(coef)
            if not coef.is_zero():
                _accumulate(out, [(m, coef * c) for m, c in self._mono_product(tuple(mono), unit)])
        return out

    def parse_element(self, text: str) -> dict:
        """Polynomial text in the component variables plus x."""
        return self.normalize(_split_x(parse_polynomial(self.table.append("x"), text)))

    def format_element(self, value: Mapping) -> str:
        if not value:
            return "0"
        chunks = []
        for mono in sorted(value, key=GrevlexOrder(self.table).key):
            m = Polynomial(self.table, [(mono, Fraction(1))])
            chunks.append(f"({value[mono]})*{m}" if str(m) != "1" else f"({value[mono]})")
        return " + ".join(chunks)

    def add(self, a: Mapping, b: Mapping) -> dict:
        return _accumulate(dict(a), b.items())

    def scale(self, a: Mapping, s) -> dict:
        s = _rf(s)
        if s.is_zero():
            return {}
        return {m: c * s for m, c in a.items()}

    def _mono_product(self, m1: tuple, m2: tuple) -> list:
        """Normal form of the monomial m1·m2, as (standard monomial, Q) pairs."""
        key = (m1, m2)
        if key not in self._mul_cache:
            mono = tuple(x + y for x, y in zip(m1, m2, strict=True))
            prod = Polynomial(self.table, [(mono, Fraction(1))])
            self._mul_cache[key] = list(self.ring.normal_form(prod).terms)
        return self._mul_cache[key]

    def mul(self, a: Mapping, b: Mapping) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                c12 = c1 * c2
                # c12 is canonical and q a nonzero rational: c12·q needs no gcd
                _accumulate(out, [
                    (m, c12 if q == 1 else RF._new(_uscale(c12.num, q), c12.den))
                    for m, q in self._mono_product(m1, m2)
                ])
        return out

    def evaluate(self, names: Sequence[str], terms, images: Mapping) -> dict:
        """Σ coef·Π images[name]^e over the (exponents, coef) terms, in this algebra ⊗ K.

        Exponents are indexed by names; images maps each name that occurs to
        an element of this component.  Powers are built once per call.
        """
        out: dict = {}
        powers: dict = {}
        unit = self._unit_mono()
        for exps, coef in terms:
            term = {unit: _rf(coef)}
            for name, e in zip(names, exps):
                if e:
                    pw = powers.setdefault(name, [images[name]])
                    while len(pw) < e:
                        pw.append(self.mul(pw[-1], images[name]))
                    term = self.mul(term, pw[e - 1])
            _accumulate(out, term.items())
        return out

    def invert_euler(self) -> dict:
        """u with u·euler = 1, by the finite geometric series; verified each call."""
        unit = self._unit_mono()
        if self._inverse is None:
            inv_lead = 1 / self.euler[unit]
            nil = {m: c for m, c in self.euler.items() if m != unit}
            term = {unit: inv_lead}  # (-nil)^m / lead^(m+1), m = 0
            acc = dict(term)
            for _ in range(self.dimension()):
                if not term:
                    break
                term = self.scale(self.mul(term, nil), -inv_lead)
                _accumulate(acc, term.items())
            self._inverse = acc
        if self.mul(self._inverse, self.euler) != {unit: RF.one()}:
            raise VerificationError(f"component {self.name}: euler inverse failed its check")
        return self._inverse

    def integrate_top(self, value: Mapping) -> RationalFunction:
        return value.get(self.fundamental, RF.zero())


class EquivariantClass:
    """Per-component element of algebra ⊗ K on a fixed model."""

    __slots__ = ("model", "values")

    def __init__(self, model: "CircleCompactModel", values: Sequence[Mapping]):
        if len(values) != len(model.components):
            raise ValueError("one value per component required")
        self.model = model
        self.values = tuple(
            comp.normalize(v) for comp, v in zip(model.components, values)
        )

    @classmethod
    def _of(cls, model: "CircleCompactModel", values) -> "EquivariantClass":
        """A class from values already in normal form, without a second normalize."""
        self = object.__new__(cls)
        self.model = model
        self.values = tuple(values)
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EquivariantClass)
            and self.model is other.model
            and self.values == other.values
        )

    def __hash__(self):
        return hash(tuple(tuple(sorted(v.items())) for v in self.values))

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        self._check(other)
        return EquivariantClass._of(
            self.model,
            [c.add(a, b) for c, a, b in zip(self.model.components, self.values, other.values)],
        )

    def __sub__(self, other: "EquivariantClass") -> "EquivariantClass":
        return self + other.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, EquivariantClass):
            self._check(other)
            return EquivariantClass._of(
                self.model,
                [c.mul(a, b) for c, a, b in zip(self.model.components, self.values, other.values)],
            )
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, s) -> "EquivariantClass":
        return EquivariantClass._of(
            self.model, [c.scale(v, s) for c, v in zip(self.model.components, self.values)]
        )

    def is_zero(self) -> bool:
        return all(not v for v in self.values)

    def coordinates(self) -> list:
        """Coordinates in the model's standard basis, as a flat K vector."""
        out = []
        for comp, v in zip(self.model.components, self.values):
            for m in comp.std_monomials():
                out.append(v.get(m, RF.zero()))
        return out

    def _check(self, other: "EquivariantClass"):
        if self.model is not other.model:
            raise ValueError("classes on different models")

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c.name}: {c.format_element(v)}" for c, v in zip(self.model.components, self.values)
        )
        return f"<class {parts}>"


class CircleCompactModel:
    """A finite list of fixed components presenting one circle-compact space."""

    def __init__(self, components: Sequence[FixedComponent]):
        if not components:
            raise ValueError("a model needs at least one fixed component")
        self.components = tuple(components)
        self._std_basis = None
        self._std_gram = None

    def __repr__(self) -> str:
        return f"CircleCompactModel({', '.join(c.name for c in self.components)})"

    def dimension(self) -> int:
        return sum(c.dimension() for c in self.components)

    def zero(self) -> EquivariantClass:
        return EquivariantClass(self, [{} for _ in self.components])

    def one(self) -> EquivariantClass:
        return EquivariantClass(
            self, [{c._unit_mono(): RF.one()} for c in self.components]
        )

    def component_class(self, idx: int, value: Mapping) -> EquivariantClass:
        values: list = [{} for _ in self.components]
        values[idx] = dict(value)
        return EquivariantClass(self, values)

    def from_strings(self, texts: Sequence[str]) -> EquivariantClass:
        return EquivariantClass(
            self, [c.parse_element(t) for c, t in zip(self.components, texts)]
        )

    def std_basis(self) -> list:
        if self._std_basis is None:
            basis = []
            for i, comp in enumerate(self.components):
                for m in comp.std_monomials():
                    basis.append(self.component_class(i, {m: RF.one()}))
            self._std_basis = basis
        return self._std_basis

    def integrate(self, a: EquivariantClass) -> RationalFunction:
        total = RF.zero()
        for comp, v in zip(self.components, a.values):
            total = total + comp.integrate_top(comp.mul(v, comp.invert_euler()))
        return total

    def pairing(self, a: EquivariantClass, b: EquivariantClass) -> RationalFunction:
        return self.integrate(a * b)

    def gram(self, basis: Sequence[EquivariantClass] | None = None) -> list:
        if basis is None:
            if self._std_gram is None:
                b = self.std_basis()
                self._std_gram = [[self.pairing(u, v) for v in b] for u in b]
            return self._std_gram
        return [[self.pairing(u, v) for v in basis] for u in basis]

    def is_nondegenerate(self, basis: Sequence[EquivariantClass]) -> bool:
        if len(basis) != self.dimension():
            raise ValueError(
                f"basis has {len(basis)} classes, model dimension is {self.dimension()}"
            )
        d = linalg.det(self.gram(list(basis)), RF.zero(), RF.one())
        return not d.is_zero()


class ModelMap:
    """A map of models: component assignment plus per-pair algebra pullbacks.

    pullbacks[i] sends each variable of the assigned target component's
    algebra to an element of source component i's algebra ⊗ Q[x]; the images
    must satisfy the target relations (checked on construction).
    """

    def __init__(self, source: CircleCompactModel, target: CircleCompactModel,
                 assignment: Sequence[int], pullbacks: Sequence[Mapping]):
        self.source = source
        self.target = target
        self.assignment = tuple(assignment)
        pullbacks = list(pullbacks)
        n = len(source.components)
        if len(self.assignment) != n or len(pullbacks) != n:
            raise ValueError("one target component and one pullback per source component")
        for j in self.assignment:
            if not (isinstance(j, int) and 0 <= j < len(target.components)):
                raise ValueError(f"assignment {j!r} is not a target component index")
        norm: list = []
        for src, j, images in zip(source.components, self.assignment, pullbacks):
            tgt = target.components[j]
            imgs: dict = {}
            for name in tgt.table.names:
                if name not in images:
                    raise ValueError(
                        f"pullback for {src.name}: no image for variable {name}"
                    )
                val = images[name]
                imgs[name] = src.parse_element(val) if isinstance(val, str) else src.normalize(val)
            for rel in tgt.ring.ideal.generators:
                if src.evaluate(tgt.table.names, rel.terms, imgs):
                    raise VerificationError(
                        f"pullback for {src.name} breaks relation {rel}"
                    )
            norm.append(imgs)
        self.pullbacks = norm

    def _substitute_value(self, i: int, value: Mapping) -> dict:
        """Image of a target-component element {mono: K} on source component i."""
        tgt = self.target.components[self.assignment[i]]
        return self.source.components[i].evaluate(
            tgt.table.names, value.items(), self.pullbacks[i]
        )

    def pullback(self, a: EquivariantClass) -> EquivariantClass:
        if a.model is not self.target:
            raise ValueError("class is not on the target model")
        values = [
            self._substitute_value(i, a.values[j]) for i, j in enumerate(self.assignment)
        ]
        return EquivariantClass(self.source, values)

    def pushforward(self, g: EquivariantClass) -> EquivariantClass:
        """The adjoint of pullback: ⟨f_*g, b⟩_target = ⟨g, f*b⟩_source."""
        if g.model is not self.source:
            raise ValueError("class is not on the source model")
        basis = self.target.std_basis()
        gram = self.target.gram()
        rhs = [self.source.pairing(g, self.pullback(b)) for b in basis]
        coords = linalg.solve(gram, rhs, RF.zero(), RF.one())
        if coords is None:
            raise ValueError("target Gram matrix is singular")
        out = self.target.zero()
        for c, b in zip(coords, basis):
            if not c.is_zero():
                out = out + b.scaled(c)
        return out

    def compose(self, inner: "ModelMap") -> "ModelMap":
        """self ∘ inner, where inner.target is self.source."""
        if inner.target is not self.source:
            raise ValueError("maps do not compose")
        assignment = [self.assignment[j] for j in inner.assignment]
        pullbacks = [
            {
                name: inner._substitute_value(i, value)
                for name, value in self.pullbacks[mid].items()
            }
            for i, mid in enumerate(inner.assignment)
        ]
        return ModelMap(inner.source, self.target, assignment, pullbacks)


def verify_integration_adjunction(f: ModelMap, a: EquivariantClass,
                                  g: EquivariantClass) -> bool:
    """∫_target a·f_*(g) = ∫_source f*(a)·g, exactly in K."""
    left = f.target.integrate(a * f.pushforward(g))
    right = f.source.integrate(f.pullback(a) * g)
    return left == right


class ProductModel:
    """M × M with projections, the diagonal, and the tensor construction.

    Each product component's ring runs under its first factor's budgets.
    """

    def __init__(self, base: CircleCompactModel):
        self.base = base
        n = len(base.components)
        comps = []
        for i, A in enumerate(base.components):
            for j, B in enumerate(base.components):
                names = tuple(f"{v}_1" for v in A.table.names) + tuple(
                    f"{v}_2" for v in B.table.names
                )
                degrees = A.table.degrees + B.table.degrees
                table = VariableTable(names, degrees)
                rels = [
                    r.reindex(table, {v: f"{v}_1" for v in A.table.names})
                    for r in A.ring.ideal.generators
                ] + [
                    r.reindex(table, {v: f"{v}_2" for v in B.table.names})
                    for r in B.ring.ideal.generators
                ]
                euler = {
                    ma + mb: ca * cb
                    for ma, ca in A.euler.items()
                    for mb, cb in B.euler.items()
                }
                comps.append(
                    FixedComponent(
                        f"{A.name}*{B.name}",
                        QuotientRing(Ideal(table, rels, budgets=A.ring.ideal.budgets)),
                        euler,
                        A.fundamental + B.fundamental,
                    )
                )
        self.model = CircleCompactModel(comps)
        self.pi1 = self._projection(1)
        self.pi2 = self._projection(2)
        self.diagonal = ModelMap(
            base,
            self.model,
            [i * n + i for i in range(n)],
            [
                {
                    f"{v}_{k}": {base.components[i].table.unit_exponents(v): RF.one()}
                    for v in base.components[i].table.names
                    for k in (1, 2)
                }
                for i in range(n)
            ],
        )

    def _projection(self, slot: int) -> ModelMap:
        """π_slot: component (i, j) maps to base component i (slot 1) or j (slot 2)."""
        n = len(self.base.components)
        assignment, pullbacks = [], []
        for k, comp in enumerate(self.model.components):
            b = divmod(k, n)[slot - 1]
            assignment.append(b)
            pullbacks.append({
                v: {comp.table.unit_exponents(f"{v}_{slot}"): RF.one()}
                for v in self.base.components[b].table.names
            })
        return ModelMap(self.model, self.base, assignment, pullbacks)

    def tensor(self, a: EquivariantClass, b: EquivariantClass) -> EquivariantClass:
        """π₁*a · π₂*b, assembled directly."""
        n = len(self.base.components)
        values = []
        for i in range(n):
            for j in range(n):
                va, vb = a.values[i], b.values[j]
                values.append(
                    {ma + mb: ca * cb for ma, ca in va.items() for mb, cb in vb.items()}
                )
        return EquivariantClass(self.model, values)


def diagonal_basis(model: CircleCompactModel, decomposition: Sequence[tuple]) -> bool:
    """Proposition-style basis criterion from a diagonal decomposition.

    Requires Δ_*(1) = Σ π₁*a_i · π₂*b_i on the internally built product model
    (raises VerificationError otherwise, distinct from a span failure); then
    returns True iff {b_i} spans over K and the replay identity
    a = Σ ⟨a_i, a⟩·b_i holds for a deterministic pseudo-random class.
    """
    pm = ProductModel(model)
    delta_one = pm.diagonal.pushforward(model.one())
    combo = pm.model.zero()
    for a_i, b_i in decomposition:
        combo = combo + pm.pi1.pullback(a_i) * pm.pi2.pullback(b_i)
    if combo != delta_one:
        raise VerificationError("decomposition does not equal the diagonal pushforward")
    dim = model.dimension()
    rows = [b.coordinates() for _, b in decomposition]
    if linalg.rank(rows, RF.zero(), RF.one()) != dim:
        return False
    rng = random.Random(20260822)
    basis = model.std_basis()
    a = model.zero()
    for b in basis:
        a = a + b.scaled(Fraction(rng.randint(-4, 4)))
    replay = model.zero()
    for a_i, b_i in decomposition:
        replay = replay + b_i.scaled(model.pairing(a_i, a))
    return replay == a


# -- fixtures ---------------------------------------------------------------


def _ring_from_dict(payload: Mapping, budgets: Budgets | None) -> QuotientRing:
    """The quotient ring of a payload's `variables` and `relations`."""
    variables = payload.get("variables", [])
    table = VariableTable([v[0] for v in variables], [int(v[1]) for v in variables])
    rels = [parse_polynomial(table, s) for s in payload.get("relations", [])]
    return QuotientRing(Ideal(table, rels, budgets=budgets))


def _component_from_dict(payload: Mapping, budgets: Budgets | None) -> FixedComponent:
    ring = _ring_from_dict(payload, budgets)
    euler = _split_x(parse_polynomial(ring.table.append("x"), payload["euler"]))
    fund = parse_polynomial(ring.table, payload.get("fundamental", "1"))
    if len(fund.terms) != 1 or fund.terms[0][1] != 1:
        raise ValueError("fundamental must be a single monomial")
    return FixedComponent(payload["name"], ring, euler, fund.terms[0][0])


class FixtureModel:
    """A shipped model: components plus an optional ambient presentation."""

    def __init__(self, payload: Mapping, budgets: Budgets | None = None):
        self.name = payload["name"]
        self.description = payload.get("description", "")
        self.model = CircleCompactModel(
            [_component_from_dict(c, budgets) for c in payload["components"]]
        )
        self.ambient: QuotientRing | None = None
        self._restrictions = None
        amb = payload.get("ambient")
        if amb:
            self.ambient = _ring_from_dict(amb, budgets)
            self._restrictions = amb["restrictions"]
        self.classes = {
            name: self.model.from_strings(texts)
            for name, texts in payload.get("classes", {}).items()
        }

    def restrict(self, p: Polynomial) -> EquivariantClass:
        """Restriction of an ambient polynomial to the fixed components."""
        if self.ambient is None:
            raise ValueError(f"fixture {self.name} has no ambient presentation")
        values = []
        for comp, texts in zip(self.model.components, self._restrictions):
            images = {name: comp.parse_element(text) for name, text in texts.items()}
            images["x"] = {comp._unit_mono(): RF.x()}
            values.append(comp.evaluate(self.ambient.table.names, p.terms, images))
        return EquivariantClass(self.model, values)


class MapFixture:
    """A shipped map of models (source, target, assignment, pullbacks, ambient images)."""

    def __init__(self, payload: Mapping, budgets: Budgets | None = None):
        self.name = payload["name"]
        self.description = payload.get("description", "")
        self.source = FixtureModel(payload["source"], budgets)
        self.target = FixtureModel(payload["target"], budgets)
        m = payload["map"]
        self.map = ModelMap(
            self.source.model, self.target.model, m["assignment"], m["pullbacks"]
        )
        self.ambient_images = m.get("ambient_images", {})

    def ambient_map_matrix(self, degree: int) -> tuple:
        """Images of the target's ambient graded basis inside the source's.

        Returns (matrix rows over Q, source basis size) for the given degree:
        one row per target basis monomial, coordinates in the source basis.
        """
        src, tgt = self.source.ambient, self.target.ambient
        if src is None or tgt is None:
            raise ValueError("both fixtures need ambient presentations")
        images = {
            name: parse_polynomial(src.table, text)
            for name, text in self.ambient_images.items()
        }
        rows = [
            src.coordinates(p.substitute(images, table=src.table), degree)
            for p in tgt.graded_basis(degree)
        ]
        return rows, src.graded_dimension(degree)


def load_fixture(name: str, budgets: Budgets | None = None):
    """Load a shipped fixture by name: line, product, or segre; its rings'
    Groebner runs use budgets (None: DEFAULT_BUDGETS)."""
    import json
    from importlib import resources

    path = resources.files("kirwan") / "data" / "fixtures" / f"{name}.json"
    payload = json.loads(path.read_text())
    if "map" in payload:
        return MapFixture(payload, budgets)
    return FixtureModel(payload, budgets)
