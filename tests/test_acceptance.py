"""Acceptance battery.

One test per numbered criterion; each prints a single visible
"criterion N (slug): PASS|FAIL" line whatever else pytest reports.
Everything here is exact: no tolerances anywhere.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from kirwan import cli, linalg
from kirwan.abelianize import (
    DagQuiver,
    class_b,
    class_e,
    class_eprime,
    proper_quiver_weights,
    verify_second_iso,
)
from kirwan.hyperpolygon import (
    EdgeLengths,
    HyperpolygonInstance,
    annihilator_ideal,
    basis_dimension_check,
    betti_numbers,
    certify_membership,
    d_presentation_ideal,
    ideal_J,
    konno_ring,
    prop_hp,
    second_iso_presentation,
    su2_datum,
)
from kirwan.ideals import Ideal, QuotientRing, formality_check, _verify_s_criterion
from kirwan.localization import (
    ProductModel,
    diagonal_basis,
    load_fixture,
    verify_integration_adjunction,
)
from kirwan.ratfield import RationalFunction as RF
from kirwan.rings import Polynomial, VariableTable, parse_polynomial

GOLDENS = Path(__file__).parent / "goldens"

XI_VECTORS = (
    (1, 2, 4),
    (1, 2, 4, 8),
    (1, 2, 4, 8, 16),
    (1, 2, 4, 8, 16, 32),
    (1, 1, 1, 2),
)


@pytest.fixture(scope="module")
def instances():
    return {xi: HyperpolygonInstance(EdgeLengths(xi)) for xi in XI_VECTORS}


@contextmanager
def criterion(capsys, num: int, slug: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({slug}): FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {num} ({slug}): PASS")


def test_criterion_1_prop_hp(capsys, instances):
    with criterion(capsys, 1, "prop-hp"):
        for inst in instances.values():
            # annihilator_ideal is the D-presentation certified as (J : e);
            # compare it with the colon that elimination proposes on a fresh J
            J = ideal_J(inst)
            colon = Ideal(J.table, J.generators).colon(inst.euler_e)
            pres = annihilator_ideal(inst)
            assert pres is d_presentation_ideal(inst)
            for g in colon.groebner_basis():
                assert pres.contains(g)
            for g in pres.groebner_basis():
                assert colon.contains(g)
            assert colon.equals(pres)


def test_criterion_2_certificates(capsys, instances):
    with criterion(capsys, 2, "certificates"):
        for inst in instances.values():
            J = ideal_J(inst)
            for S in inst.table.nonempty_shorts():
                cert = certify_membership(inst, S)
                assert cert.verify(inst)
                assert J.contains(
                    inst.euler_e * inst.D(S)
                )

        # the n=3 base case against the stated closed form
        #   e*D_S = 2^(n-3) * (x + c_n) * ((2x - c_n)*C_empty - c_n*C_S)
        # kept exactly as written: its constant does not expand to e*D_S
        # (direct expansion needs 2^(n-2)); the mismatch is recorded by
        # letting this assertion fail rather than repairing the constant.
        inst = instances[(1, 2, 4)]
        T = inst.table_Q
        x = parse_polynomial(T, "x")
        cn = parse_polynomial(T, "c3")
        two = Polynomial.constant(T, Fraction(2))
        scale = Fraction(2) ** (inst.n - 3)
        expansion = Polynomial.constant(T, scale) * (x + cn) * (
            (two * x - cn) * inst.C(()) - cn * inst.C({3})
        )
        rel = Ideal(T, list(inst.relations_Q))
        diff = expansion - inst.euler_e * inst.D({3})
        assert rel.normal_form(diff).is_zero(), (
            "base-case closed form does not expand to e*D_S"
        )


def test_criterion_3_konno(capsys, instances):
    with criterion(capsys, 3, "konno"):
        for inst in instances.values():
            betti = betti_numbers(inst)
            R = konno_ring(inst.n)
            dims = [R.graded_dimension(d) for d in range(0, R.top_degree() + 1, 2)]
            assert betti == dims
        assert sum(betti_numbers(instances[(1, 2, 4)])) == 1
        assert betti_numbers(instances[(1, 2, 4, 8)]) == [1, 4]
        assert betti_numbers(instances[(1, 1, 1, 2)]) == [1, 4]


def test_criterion_4_basis_count(capsys, instances):
    with criterion(capsys, 4, "basis-count"):
        for inst in instances.values():
            res = basis_dimension_check(inst)
            assert res["dimension"] == len(inst.table.nonempty_shorts())
            assert res["expected"] == res["dimension"]
            assert res["independent"] is True
        assert basis_dimension_check(instances[(1, 1, 1, 2)])["dimension"] == 7


def test_criterion_5_ordinary_structure(capsys, instances):
    with criterion(capsys, 5, "ordinary-structure"):
        for inst in instances.values():
            J = ideal_J(inst)
            for g in annihilator_ideal(inst).groebner_basis():
                assert J.contains(g * inst.euler_e)
        assert verify_second_iso(second_iso_presentation(instances[(1, 2, 4, 8)]))
        assert verify_second_iso(
            second_iso_presentation(instances[(1, 2, 4, 8, 16)])
        )
        datum = su2_datum()
        e, ep, b = class_e(datum), class_eprime(datum), class_b(datum)
        assert b * ep == e
        assert e.exact_divide(ep) == b


def _random_rf(rng) -> RF:
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    if not any(coeffs):
        coeffs[-1] = Fraction(1)
    return RF(coeffs)


def _random_class(rng, model):
    out = model.zero()
    for bcls in model.std_basis():
        if rng.random() < 0.7:
            out = out + bcls.scaled(_random_rf(rng))
    return out


def test_criterion_6_localization(capsys):
    with criterion(capsys, 6, "localization"):
        line = load_fixture("line")
        product = load_fixture("product")
        segre = load_fixture("segre")

        models = (line.model, product.model, segre.source.model, segre.target.model)
        seen = 0
        for model in models:
            for comp in model.components:
                inv = comp.invert_euler()
                assert comp.mul(inv, comp.euler) == {comp._unit_mono(): RF.one()}
                seen += 1
        assert seen == 8

        one = line.model.one()
        h = line.classes["hyperplane"]
        assert line.model.integrate(one) == RF.zero()
        assert line.model.integrate(h) == RF.one()

        for model in models:
            assert model.is_nondegenerate(model.std_basis())

        xcls = line.model.from_strings(["x", "x"])
        assert diagonal_basis(line.model, [(one, h - xcls), (h, one)]) is True

        rng = random.Random(991)
        f = segre.map
        src, tgt = segre.source.model, segre.target.model
        pm = ProductModel(src)
        retract = pm.pi1.compose(pm.diagonal)
        composite = f.compose(retract)
        cases = 0
        for _ in range(40):
            a, g = _random_class(rng, tgt), _random_class(rng, src)
            assert verify_integration_adjunction(f, a, g)
            cases += 1
        for _ in range(30):
            a, g = _random_class(rng, src), _random_class(rng, pm.model)
            assert verify_integration_adjunction(pm.pi1, a, g)
            cases += 1
        for _ in range(15):
            a = _random_class(rng, tgt)
            assert composite.pullback(a) == f.pullback(a)
            assert retract.pullback(f.pullback(a)) == composite.pullback(a)
            cases += 1
        for _ in range(15):
            g = _random_class(rng, src)
            assert composite.pushforward(g) == f.pushforward(retract.pushforward(g))
            cases += 1
        for _ in range(20):
            a, g = _random_class(rng, tgt), _random_class(rng, src)
            assert f.pushforward(f.pullback(a) * g) == a * f.pushforward(g)
            cases += 1
        assert cases >= 100

        rows = [f.pullback(b).coordinates() for b in tgt.std_basis()]
        assert linalg.rank(rows, RF.zero(), RF.one()) == 4
        assert len(src.std_basis()) == 4
        irows, dim = segre.ambient_map_matrix(2)
        assert dim == 3
        assert linalg.rank(irows, Fraction(0), Fraction(1)) == 2


def test_criterion_7_formality_localized_rank(capsys, instances):
    with criterion(capsys, 7, "formality-localized-rank"):
        for inst in instances.values():
            RJ = QuotientRing(ideal_J(inst))
            ring = prop_hp(inst)
            assert formality_check(RJ, "x") is True
            assert formality_check(ring, "x") is True
            K = konno_ring(inst.n)
            total = sum(
                K.graded_dimension(d) for d in range(0, K.top_degree() + 1, 2)
            )
            assert ring.localized_rank("x") == total


def _monomials_of_weight(table, w):
    n = len(table)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        for e in range(rem // table.weights[i] + 1):
            rec(i + 1, rem - e * table.weights[i], acc + [e])

    rec(0, w, [])
    return out


def _span_rows(table, gens, w):
    monos = _monomials_of_weight(table, w)
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for g in gens:
        shift = w - g.weighted_degree()
        if shift < 0:
            continue
        for m in _monomials_of_weight(table, shift):
            prod = g * Polynomial(table, [(m, Fraction(1))])
            row = [Fraction(0)] * len(monos)
            for e, c in prod.terms:
                row[index[e]] = c
            rows.append(row)
    return rows, monos


def _oracle_contains(table, gens, p):
    if p.is_zero():
        return True
    rows, monos = _span_rows(table, gens, p.weighted_degree())
    index = {m: k for k, m in enumerate(monos)}
    vec = [Fraction(0)] * len(monos)
    for e, c in p.terms:
        vec[index[e]] = c
    base = linalg.rank(rows, Fraction(0), Fraction(1))
    return linalg.rank(rows + [vec], Fraction(0), Fraction(1)) == base


def _random_homogeneous(rng, table, w):
    terms = []
    for m in _monomials_of_weight(table, w):
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
            if c:
                terms.append((m, Fraction(c)))
    return Polynomial(table, terms)


def test_criterion_8_engine_oracles(capsys):
    with criterion(capsys, 8, "engine-oracles"):
        rng = random.Random(20250822)
        ideals_checked = 0
        ideals = []
        while ideals_checked < 50:
            nvars = rng.randint(1, 3)
            table = VariableTable(tuple("uvw"[:nvars]))
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = _random_homogeneous(rng, table, rng.randint(1, 4))
                if not g.is_zero():
                    gens.append(g)
            if not gens:
                continue
            I = Ideal(table, gens)
            Q = QuotientRing(I)
            for w in range(0, 6):
                monos = _monomials_of_weight(table, w)
                rows, _ = _span_rows(table, gens, w)
                dim = len(monos) - linalg.rank(rows, Fraction(0), Fraction(1))
                assert Q.graded_dimension(2 * w) == dim
            for _ in range(3):
                p = _random_homogeneous(rng, table, rng.randint(1, 5))
                assert I.contains(p) == _oracle_contains(table, gens, p)
            g0 = gens[0]
            colon = I.colon(g0)
            for _ in range(2):
                p = _random_homogeneous(rng, table, rng.randint(1, 4))
                assert colon.contains(p) == _oracle_contains(
                    table, gens, p * g0
                )
            ideals.append((I, colon))
            ideals_checked += 1
        assert ideals_checked >= 50

        bases = 0
        for I, colon in ideals:
            for obj in (I, colon):
                for data in obj._cache.values():
                    _verify_s_criterion(data)
                    bases += 1
        assert bases >= 100

        # quiver weights: random DAGs stay proper, cycles are refused
        for trial in range(30):
            n = rng.randint(1, 50)
            names = [f"v{i}" for i in range(n)]
            edges = [
                (names[rng.randrange(i)], names[i]) for i in range(1, n)
            ]
            q = DagQuiver(names, edges)
            w = proper_quiver_weights(q)
            assert all(v < 0 for v in w.values())
            for a, b in edges:
                assert w[a] < w[b]
            if n >= 2:
                with pytest.raises(ValueError, match="cycle"):
                    DagQuiver(names, edges + [(names[-1], names[0]),
                                              (names[0], names[-1])])


def test_criterion_9_cli_determinism(capsys):
    with criterion(capsys, 9, "cli-determinism"):
        for xi, golden in (
            (("1", "1", "1"), "report_1-1-1.json"),
            (("1", "1", "1", "2"), "report_1-1-1-2.json"),
            (("1", "2", "4", "8", "16"), "report_1-2-4-8-16.json"),
        ):
            outs = []
            for _ in range(2):
                code = cli.main(["report", "--xi", *xi])
                captured = capsys.readouterr()
                assert code == 0
                payload = json.loads(captured.out)
                del payload["timings"]
                outs.append(
                    json.dumps(payload, sort_keys=True, indent=2) + "\n"
                )
            assert outs[0].encode() == outs[1].encode()
            assert outs[0] == (GOLDENS / golden).read_text()

        assert cli.EXIT_NON_GENERIC == 3
        code = cli.main(["verify", "--xi", "1", "1", "2"])
        captured = capsys.readouterr()
        assert code == 3
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "non-generic"
        assert err["witness"] == [3]
