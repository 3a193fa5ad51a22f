"""Root data, the classes e, e', b, and the colon-ideal Kirwan image.

The nonabelian quotient's cohomology is reached through the maximal torus:
present the torus-level image, form the class e built from the roots, and
quotient by its annihilator, computed as a certified colon ideal.  The
Weyl-invariant side, whose graded dimensions are read off its Hilbert
series, is compared degreewise against the fixed subspace of a sign
action, counted on standard monomials.  A small DAG-weight construction
produces the strictly-negative, edge-increasing vertex weights that make the
ambient torus action proper.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .errors import VerificationError
from .ideals import QuotientRing
from .rings import Polynomial, VariableTable, parse_polynomial


def _fields(text: str) -> dict:
    """`key: value` lines, skipping blank lines and #-comments."""
    lines = (line.strip() for line in text.splitlines())
    pairs = (line.partition(":") for line in lines if line and not line.startswith("#"))
    return {key.strip(): value.strip() for key, _, value in pairs}


class RootDatum:
    """A torus with a finite symmetric root set, given by its positive half.

    The table holds the torus variables plus the equivariant parameter x;
    roots are linear forms in the torus variables only.
    """

    def __init__(self, table: VariableTable, positive_roots: Sequence[Polynomial],
                 weyl_order: int):
        if "x" not in table:
            raise ValueError("root datum table needs the equivariant parameter x")
        if weyl_order < 1:
            raise ValueError("Weyl group order must be positive")
        xi = table.index("x")
        for a in positive_roots:
            if a.is_zero() or not a.is_homogeneous() or a.weighted_degree() != 1:
                raise ValueError(f"root {a} is not a homogeneous linear form")
            if any(exps[xi] for exps, _ in a.terms):
                raise ValueError(f"root {a} involves x")
        self.table = table
        self.positive_roots = tuple(positive_roots)
        self.weyl_order = weyl_order
        self.torus_rank = len(table) - 1

    @classmethod
    def from_text(cls, text: str) -> "RootDatum":
        """Declarative format, one key per line:

            variables: t1 t2
            positive_roots: t1 - t2; 2*t2
            weyl_order: 6

        Blank lines and #-comments are skipped; roots are separated by ;.
        """
        fields = _fields(text)
        names = fields.get("variables", "").split()
        if not names:
            raise ValueError("no torus variables declared")
        table = VariableTable(tuple(names) + ("x",), (2,) * (len(names) + 1))
        roots = [
            parse_polynomial(table, chunk)
            for chunk in fields.get("positive_roots", "").split(";")
            if chunk.strip()
        ]
        return cls(table, roots, int(fields.get("weyl_order", "1")))

    def all_roots(self) -> list:
        return list(self.positive_roots) + [-a for a in self.positive_roots]

    def __repr__(self) -> str:
        return (
            f"RootDatum(rank {self.torus_rank}, "
            f"{len(self.positive_roots)} positive roots, |W|={self.weyl_order})"
        )


def class_b(r: RootDatum) -> Polynomial:
    """b = product of the positive roots."""
    out = Polynomial.one(r.table)
    for a in r.positive_roots:
        out = out * a
    return out


def class_e(r: RootDatum) -> Polynomial:
    """e = product over every root of a*(x - a), both signs included."""
    x = Polynomial.variable(r.table, "x")
    out = Polynomial.one(r.table)
    for a in r.all_roots():
        out = out * a * (x - a)
    return out


def class_eprime(r: RootDatum) -> Polynomial:
    """e' = product of the negative roots times product over all roots of (x - a).

    The factorization e = b*e' is an identity of the literal products; it is
    still checked here, and exact divisibility e'|e along with it.
    """
    x = Polynomial.variable(r.table, "x")
    out = Polynomial.one(r.table)
    for a in r.positive_roots:
        out = out * (-a)
    for a in r.all_roots():
        out = out * (x - a)
    e = class_e(r)
    if class_b(r) * out != e:
        raise VerificationError("e != b*e' for the literal root products")
    if e.exact_divide(out) != class_b(r):
        raise VerificationError("e'|e division did not recover b")
    return out


class KirwanPresentation:
    """Inputs to the image computation, torus side and invariant side.

    invariant_ring presents the Weyl-invariant torus image (ambient/J) and
    euler is the class e written in its ambient variables.  When present,
    full_ring presents the whole torus image, euler_prime the class e', and
    w_action the Weyl action on the full ambient as a sign action: each
    variable to ± itself, unlisted variables fixed; embed sends invariant
    ambient variables into the full ambient.
    """

    def __init__(self, invariant_ring: QuotientRing, euler: Polynomial,
                 full_ring: QuotientRing | None = None,
                 euler_prime: Polynomial | None = None,
                 w_action: Mapping[str, Polynomial] | None = None,
                 embed: Mapping[str, Polynomial] | None = None,
                 datum: RootDatum | None = None):
        if euler.table != invariant_ring.table:
            raise ValueError("euler must live in the invariant ambient ring")
        if euler_prime is not None:
            if full_ring is None:
                raise ValueError("euler_prime without full_ring")
            if euler_prime.table != full_ring.table:
                raise ValueError("euler_prime must live in the full ambient ring")
        self.invariant_ring = invariant_ring
        self.euler = euler
        self.full_ring = full_ring
        self.euler_prime = euler_prime
        self.w_action = dict(w_action) if w_action else None
        self.embed = dict(embed) if embed else None
        self.datum = datum
        if datum is not None and euler_prime is not None and full_ring is not None:
            e_full = (
                euler.substitute(self.embed, table=full_ring.table)
                if self.embed
                else euler.reindex(full_ring.table)
            )
            b = class_b(datum).reindex(full_ring.table)
            if b * euler_prime != e_full:
                raise VerificationError("euler does not factor as b*euler_prime")


def kirwan_image(k: KirwanPresentation) -> QuotientRing:
    """The invariant ambient modulo ann(e), realized as the colon ideal (J : e)."""
    return QuotientRing(k.invariant_ring.ideal.colon(k.euler))


def _sign_parity(table: VariableTable, w_action: Mapping[str, Polynomial]) -> Callable:
    """Exponents m -> 0 when the sign action fixes the monomial, 1 when it
    negates it; ValueError naming a variable not sent to ± itself."""
    flipped = []
    for name, image in w_action.items():
        v = Polynomial.variable(table, name) if name in table else None
        if v is None or image not in (v, -v):
            raise ValueError(f"W-action on {name} is not a sign action: {name} -> {image}")
        if image == -v:
            flipped.append(table.index(name))
    return lambda m: sum(m[i] for i in flipped) % 2


def _check_stable(ring: QuotientRing, parity: Callable, name: str) -> None:
    if any(len({parity(m) for m, _ in g.terms}) > 1 for g in ring.ideal.groebner_basis()):
        raise ValueError(f"W-action does not preserve {name}")


def verify_second_iso(k: KirwanPresentation, xname: str = "x") -> bool:
    """Degreewise dimension match of ambient/ann(e) against the W-fixed part
    of full/ann(e'), both computed through certified colon ideals.

    W is a sign action: it sends a monomial m to ±m and so keeps leading
    monomials.  It maps the reduced basis of an ideal I to that of w(I) up
    to sign, and by uniqueness w(I) = I iff each element of I's reduced basis
    has terms of one parity; the full ideal and (full : e') must pass, else
    ValueError.  A standard monomial m of (full : e') maps to ±m, already a
    normal form, so the fixed dimension of a graded piece is the number of
    its standard monomials that W fixes.  The left side's dimensions are
    coefficients of its Hilbert series; only the right side is enumerated.

    Finite-dimensional quotients are compared out to their common vanishing
    degree.  Quotients that stay infinite over Q (the equivariant case, free
    over Q[x]) are compared out to the sum of the top degrees of their
    x-truncations plus one extra period, which pins the series of a module
    generated below that bound.
    """
    if k.full_ring is None or k.euler_prime is None:
        raise ValueError("second-isomorphism check needs full_ring and euler_prime")
    parity = _sign_parity(k.full_ring.table, k.w_action or {})
    _check_stable(k.full_ring, parity, "the full ideal")
    left = kirwan_image(k)
    right = QuotientRing(k.full_ring.ideal.colon(k.euler_prime))
    _check_stable(right, parity, "(full : e')")
    if left.is_cofinite() and right.is_cofinite():
        top = max(left.top_degree(), right.top_degree(), 0)
    else:
        lx, rx = (ring.plus([Polynomial.variable(ring.table, xname)]) for ring in (left, right))
        if not (lx.is_cofinite() and rx.is_cofinite()):
            raise ValueError("no finite comparison bound: x-truncations are infinite")
        top = lx.top_degree() + rx.top_degree() + 4
    for d in range(0, top + 2, 2):
        if left.graded_dimension(d) != sum(1 - parity(m) for m in right.std_monomials(d)):
            return False
    return True


class DagQuiver:
    """A connected quiver without oriented cycles."""

    def __init__(self, vertices: Sequence, edges: Sequence[tuple]):
        self.vertices = list(vertices)
        self.edges = [(a, b) for a, b in edges]
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("repeated vertex")
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) uses an undeclared vertex")
        if not self.vertices:
            raise ValueError("empty quiver")
        self._check_connected()
        # acyclicity is re-established by the weight construction; fail early here
        proper_quiver_weights(self)

    def _check_connected(self):
        adj: dict = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValueError("quiver is not connected")

    @classmethod
    def from_text(cls, text: str) -> "DagQuiver":
        """Two keys: `vertices: a b c` and `edges: a -> b; b -> c`."""
        fields = _fields(text)
        vertices = fields.get("vertices", "").split()
        edges = []
        for chunk in fields.get("edges", "").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            a, arrow, b = chunk.partition("->")
            if not arrow:
                raise ValueError(f"edge {chunk!r} is not of the form a -> b")
            edges.append((a.strip(), b.strip()))
        return cls(vertices, edges)

    def __repr__(self) -> str:
        return f"DagQuiver({len(self.vertices)} vertices, {len(self.edges)} edges)"


def proper_quiver_weights(q) -> dict:
    """Strictly negative vertex weights increasing along every edge.

    Follows the properness induction: peel a source, weight the rest, put
    the source strictly below the minimum.  Raises on an oriented cycle.
    """
    vertices = list(q.vertices)
    edges = list(q.edges)
    if not vertices:
        return {}
    order = []
    remaining = set(vertices)
    live = list(edges)
    while remaining:
        targets = {b for a, b in live}
        sources = [v for v in vertices if v in remaining and v not in targets]
        if not sources:
            raise ValueError("oriented cycle detected")
        s = sources[0]
        order.append(s)
        remaining.discard(s)
        live = [(a, b) for a, b in live if a != s and b != s]
    weights: dict = {}
    for v in reversed(order):
        weights[v] = min(weights.values()) - 1 if weights else -1
    for v, w in weights.items():
        if w >= 0:
            raise VerificationError("weight construction produced a nonnegative weight")
    for a, b in edges:
        if not weights[a] < weights[b]:
            raise VerificationError("weight construction broke edge monotonicity")
    return weights
