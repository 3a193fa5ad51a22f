"""Command-line frontend.

Subcommands cover the hyperpolygon pipeline (shorts, present, verify,
certify, betti, report) plus the shipped localization fixtures
(localize-demo).  Output is canonical JSON by default: keys sorted, exact
rationals as strings, no floats except the "timings" block, which callers
comparing runs byte-for-byte should drop.

Exit codes:
  0  requested checks all passed
  1  unexpected internal error
  2  usage or parse error (argparse, malformed --xi, bad subset,
     unwritable --out)
  3  non-generic edge lengths (the offending subset is in the payload)
  4  resource budget exhausted
  5  a verification or requested check failed
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, linalg
from .errors import BudgetExceeded, NonGenericError, ParseError, VerificationError
from .ideals import Budgets
from .hyperpolygon import (
    EdgeLengths,
    HyperpolygonInstance,
    betti_numbers,
    certify_membership,
    full_report,
    konno_ring,
    presentation_summary,
    run_stage,
)
from .localization import (
    ProductModel,
    diagonal_basis,
    load_fixture,
    verify_integration_adjunction,
)
from .ratfield import RationalFunction, format_rational_function
from .rings import parse_polynomial

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_NON_GENERIC = 3
EXIT_BUDGET = 4
EXIT_VERIFICATION = 5


def _parse_xi(values) -> list:
    """Exact rationals from comma or space separated tokens; floats refused."""
    out = []
    for chunk in values:
        for piece in chunk.replace(",", " ").split():
            if "." in piece or "e" in piece.lower():
                raise ParseError(
                    f"edge length {piece!r} is not exact; write integers or p/q"
                )
            try:
                out.append(Fraction(piece))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad edge length {piece!r}: {exc}") from None
    if not out:
        raise ParseError("no edge lengths given")
    return out


def _parse_subset(text: str) -> frozenset:
    try:
        indices = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad subset {text!r}: {exc}") from None
    if len(set(indices)) != len(indices):
        raise ParseError(f"bad subset {text!r}: repeated index")
    return frozenset(indices)


def _budgets(args) -> Budgets:
    """The environment's budgets with the --max-basis/--max-degree overrides.

    A malformed KIRWAN_MAX_BASIS or KIRWAN_MAX_DEGREE raises ValueError,
    which main reports as a usage error.
    """
    base = Budgets.from_env()
    return Budgets(
        max_basis=args.max_basis if args.max_basis is not None else base.max_basis,
        max_degree=args.max_degree if args.max_degree is not None else base.max_degree,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kirwan",
        description="Exact Kirwan-image computations for hyperpolygon spaces.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, xi=True, fixture=False):
        sp = sub.add_parser(name, help=help_text)
        if xi:
            sp.add_argument(
                "--xi",
                nargs="+",
                required=True,
                metavar="LENGTHS",
                help="edge lengths, comma or space separated integers or p/q",
            )
        if fixture:
            sp.add_argument(
                "--fixture",
                required=True,
                choices=("line", "product", "segre"),
                help="which shipped localization fixture to exercise",
            )
        sp.add_argument("--max-degree", type=int, default=None,
                        help="Groebner degree budget override")
        sp.add_argument("--max-basis", type=int, default=None,
                        help="Groebner basis-size budget override")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write output here instead of stdout")
        return sp

    add("shorts", "list the short subsets of an edge-length vector")
    add("present", "print the equivariant presentation (generators, D-classes)")
    add("verify", "run the full check battery without certificates")
    cp = add("certify", "produce replayable membership certificates")
    cp.add_argument("--subset", default=None, metavar="INDICES",
                    help="certify only this subset, e.g. 1,3")
    add("betti", "Betti numbers against the independent truncation model")
    add("localize-demo", "exercise a shipped fixture", xi=False, fixture=True)
    add("report", "everything about one instance as a single document")
    return p


def _demo_line(fx) -> tuple:
    model = fx.model
    one = model.one()
    h = fx.classes["hyperplane"]
    xcls = model.from_strings(["x", "x"])
    gram = model.gram([one, h])
    checks = {
        "integral_one_vanishes": model.integrate(one) == RationalFunction.zero(),
        "integral_hyperplane_is_one": model.integrate(h) == RationalFunction.one(),
        "pairing_nondegenerate": model.is_nondegenerate(model.std_basis()),
        "diagonal_basis_replayed": diagonal_basis(model, [(one, h - xcls), (h, one)]),
    }
    payload = {
        "fixture": "line",
        "checks": checks,
        "gram_determinant": format_rational_function(
            linalg.det(gram, RationalFunction.zero(), RationalFunction.one())
        ),
    }
    return payload, all(checks.values())


def _demo_product(fx) -> tuple:
    model = fx.model
    pm = ProductModel(model)
    ruling = fx.classes["ruling"]
    tangent = fx.classes["tangent"]
    diag = pm.diagonal.pushforward(model.one())
    total = pm.model.integrate(diag * pm.tensor(model.one(), model.one()))
    checks = {
        "pairing_nondegenerate": model.is_nondegenerate(model.std_basis()),
        "tensor_matches_pullback_product": (
            pm.tensor(ruling, tangent)
            == pm.pi1.pullback(ruling) * pm.pi2.pullback(tangent)
        ),
        "diagonal_integral_consistent": total == model.integrate(model.one()),
        "projection_adjunction": verify_integration_adjunction(
            pm.pi1, ruling, pm.tensor(tangent, ruling)
        ),
    }
    return {"fixture": "product", "checks": checks}, all(checks.values())


def _demo_segre(fx) -> tuple:
    f = fx.map
    src, tgt = fx.source.model, fx.target.model
    rows = [f.pullback(b).coordinates() for b in tgt.std_basis()]
    k_rank = linalg.rank(rows, RationalFunction.zero(), RationalFunction.one())
    source_dim = len(src.std_basis())
    int_rows, int_dim = fx.ambient_map_matrix(2)
    int_rank = linalg.rank(int_rows, Fraction(0), Fraction(1))
    hcls = fx.target.restrict(parse_polynomial(fx.target.ambient.table, "h"))
    uv = fx.source.restrict(parse_polynomial(fx.source.ambient.table, "u + v"))
    vcls = fx.source.restrict(parse_polynomial(fx.source.ambient.table, "v"))
    payload = {
        "fixture": "segre",
        "rationalized_iso": k_rank == source_dim == len(rows),
        "integral_surjective": int_rank == int_dim,
        "k_rank": k_rank,
        "source_dimension": source_dim,
        "integral_degree2_rank": int_rank,
        "integral_degree2_dimension": int_dim,
        "checks": {
            "pullback_coherent": f.pullback(hcls) == uv,
            "adjunction_sample": verify_integration_adjunction(f, hcls, vcls),
        },
    }
    # the demo passes when rationalizing wins exactly where integrality fails
    ok = (
        payload["rationalized_iso"]
        and not payload["integral_surjective"]
        and all(payload["checks"].values())
    )
    return payload, ok


def _cmd_localize_demo(args) -> tuple:
    fx = load_fixture(args.fixture, budgets=args.budgets)
    if args.fixture == "line":
        return _demo_line(fx)
    if args.fixture == "product":
        return _demo_product(fx)
    return _demo_segre(fx)


def _instance(args) -> tuple:
    """The instance named by --xi, and the payload head naming it."""
    inst = HyperpolygonInstance(EdgeLengths(_parse_xi(args.xi)), budgets=args.budgets)
    return inst, {"n": inst.n, "xi": [str(v) for v in inst.lengths.xi]}


def _cmd_shorts(args) -> tuple:
    inst, payload = _instance(args)
    payload["count"] = len(inst.table.shorts)
    payload["subsets"] = [sorted(S) for S in inst.table.shorts]
    return payload, True


def _cmd_present(args) -> tuple:
    inst, payload = _instance(args)
    payload["presentation"] = presentation_summary(inst)
    return payload, True


VERIFY_KEYS = (
    ("prop_hp", "colon_equals_D_presentation"),
    ("konno", "agrees"),
    ("basis_check", "independent"),
    ("formality", "ring_J"),
    ("formality", "ring_colon"),
    ("localized", "agrees"),
    ("low_degree_rigidity", None),
    ("bridge", None),
    ("second_iso", None),
)


def _checks_pass(report: dict) -> bool:
    for key, sub in VERIFY_KEYS:
        value = report.get(key)
        if sub is not None and isinstance(value, dict):
            value = value.get(sub)
        if value is not True:
            return False
    return all(c["verified"] for c in report.get("certificates", ()))


def _cmd_verify(args) -> tuple:
    report = full_report(
        EdgeLengths(_parse_xi(args.xi)), budgets=args.budgets,
        with_certificates=False,
    )
    return report, _checks_pass(report)


def _cmd_certify(args) -> tuple:
    inst, payload = _instance(args)
    if args.subset is not None:
        subsets = [_parse_subset(args.subset)]
        if not subsets[0]:
            raise ParseError("subset must be nonempty")
    else:
        subsets = inst.table.nonempty_shorts()
    certs = []
    for S in subsets:
        entry = run_stage("certificates", lambda S=S: certify_membership(inst, S)).to_dict()
        entry["verified"] = True  # certify_membership raises otherwise
        certs.append(entry)
    payload["certificates"] = certs
    return payload, True


def _cmd_betti(args) -> tuple:
    inst, payload = _instance(args)
    betti = run_stage("betti", lambda: betti_numbers(inst))
    kdims = run_stage("konno", lambda: konno_ring(inst.n, budgets=inst.budgets).dimensions())
    payload.update(betti=betti, truncation_model=kdims, agrees=betti == kdims)
    return payload, payload["agrees"]


def _cmd_report(args) -> tuple:
    report = full_report(EdgeLengths(_parse_xi(args.xi)), budgets=args.budgets)
    return report, _checks_pass(report)


_DISPATCH = {
    "shorts": _cmd_shorts,
    "present": _cmd_present,
    "verify": _cmd_verify,
    "certify": _cmd_certify,
    "betti": _cmd_betti,
    "localize-demo": _cmd_localize_demo,
    "report": _cmd_report,
}


def _render_text(value, indent=0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(v) -> str:
    if v is True:
        return "yes"
    if v is False:
        return "no"
    if isinstance(v, list):
        return "[]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "text":
        text = "\n".join(_render_text(payload)) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_payload(kind: str, exc: Exception) -> dict:
    payload = {"error": {"kind": kind, "message": str(exc)}}
    stage = getattr(exc, "stage", None)
    if stage:
        payload["error"]["stage"] = stage
    return payload


def _emit_error(payload: dict) -> None:
    # diagnostics go to stderr so --out and piped stdout stay clean
    sys.stderr.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        args.budgets = _budgets(args)
        payload, ok = _DISPATCH[args.command](args)
    except NonGenericError as exc:
        payload = _error_payload("non-generic", exc)
        if exc.witness is not None:
            payload["error"]["witness"] = sorted(exc.witness)
        _emit_error(payload)
        return EXIT_NON_GENERIC
    except BudgetExceeded as exc:
        payload = _error_payload("budget", exc)
        payload["error"]["limit"] = exc.limit
        payload["error"]["observed"] = exc.observed
        payload["error"]["which"] = exc.kind
        _emit_error(payload)
        return EXIT_BUDGET
    except VerificationError as exc:
        _emit_error(_error_payload("verification", exc))
        return EXIT_VERIFICATION
    except (ParseError, ValueError) as exc:
        _emit_error(_error_payload("usage", exc))
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - last resort
        _emit_error(_error_payload("unexpected", exc))
        return EXIT_UNEXPECTED
    try:
        _emit(payload, args)
    except OSError as exc:  # an unwritable --out path
        _emit_error(_error_payload("usage", exc))
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
