"""Child processes of the benchmark; run.py starts each one with PYTHONPATH
pointing at the checkout's src.

    child.py cli TRACE_OUT ARGV...
        run kirwan.cli.main(ARGV) with every layer traced, then write the
        per-layer summary to TRACE_OUT as JSON
    child.py localize --seed N --seconds S --batch B [--setup-only]
        [--trace-out PATH]
        build the localization models, then run batches of B checks on
        classes drawn from the seed; print one JSON line of results

A localize check is one identity of the criterion-6 families, in turn:
integration adjunction along the segre map f, integration adjunction along
the first projection of the product fixture's M x M, pushforward through
the composite f o (pi1 o diagonal) against the two-step pushforward, and
the projection formula f_*(f^*(a) g) = a f_*(g).  Classes are generated
before each batch is timed, so the program only receives the generated
classes.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans

FAMILIES = ("adjunction_f", "adjunction_pi1", "compose_pushforward", "projection_formula")


def _cli(trace_out: str, argv: list) -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    from kirwan import cli

    code = cli.main(argv)
    sys.stdout.flush()
    Path(trace_out).write_text(json.dumps(tracer.summary()))
    return code


class LocalizeModels:
    """The fixtures, product models and composites every check uses."""

    def __init__(self):
        import kirwan.cli  # noqa: F401  (set-up covers the CLI import too)
        from kirwan.localization import ProductModel, load_fixture

        segre = load_fixture("segre")
        product = load_fixture("product")
        self.f = segre.map
        self.src, self.tgt = segre.source.model, segre.target.model
        self.base = product.model
        self.pm = ProductModel(self.base)
        retract_pm = ProductModel(self.src)
        self.retract = retract_pm.pi1.compose(retract_pm.diagonal)
        self.composite = self.f.compose(self.retract)


def _random_rf(rng):
    from kirwan.ratfield import RationalFunction

    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    if not any(coeffs):
        coeffs[-1] = Fraction(1)
    return RationalFunction(coeffs)


def _random_class(rng, model):
    out = model.zero()
    for b in model.std_basis():
        if rng.random() < 0.7:
            out = out + b.scaled(_random_rf(rng))
    return out


def draw_batch(rng, m: LocalizeModels, size: int, start: int) -> list:
    """(family, inputs) for checks start .. start+size-1."""
    batch = []
    for i in range(start, start + size):
        family = FAMILIES[i % len(FAMILIES)]
        if family == "adjunction_f":
            inputs = (_random_class(rng, m.tgt), _random_class(rng, m.src))
        elif family == "adjunction_pi1":
            inputs = (_random_class(rng, m.base), _random_class(rng, m.pm.model))
        elif family == "compose_pushforward":
            inputs = (_random_class(rng, m.src),)
        else:
            inputs = (_random_class(rng, m.tgt), _random_class(rng, m.src))
        batch.append((family, inputs))
    return batch


def run_check(m: LocalizeModels, family: str, inputs: tuple) -> bool:
    from kirwan.localization import verify_integration_adjunction

    if family == "adjunction_f":
        return verify_integration_adjunction(m.f, *inputs)
    if family == "adjunction_pi1":
        return verify_integration_adjunction(m.pm.pi1, *inputs)
    if family == "compose_pushforward":
        (g,) = inputs
        return m.composite.pushforward(g) == m.f.pushforward(m.retract.pushforward(g))
    a, g = inputs
    return m.f.pushforward(m.f.pullback(a) * g) == a * m.f.pushforward(g)


def _run_batch(m, batch, check=run_check) -> tuple:
    """(batch wall seconds, per-check latencies, failed count)."""
    clock = time.perf_counter
    latencies = []
    failed = 0
    t0 = clock()
    for family, inputs in batch:
        c0 = clock()
        try:
            ok = check(m, family, inputs)
        except Exception as exc:  # a raising check is a failed item
            print(f"check {family} raised {exc!r}", file=sys.stderr)
            ok = False
        latencies.append(clock() - c0)
        failed += not ok
    return clock() - t0, latencies, failed


def _localize(args) -> int:
    m = LocalizeModels()
    if args.setup_only:
        return 0
    rng = random.Random(args.seed)
    start = time.perf_counter()
    # first batch fills the lazy caches (Euler inverses, Gram matrices,
    # monomial products) that every later batch reuses
    _run_batch(m, draw_batch(rng, m, args.batch, 0))
    batch = draw_batch(rng, m, args.batch, args.batch)
    out = {"batches": [], "latencies": [], "attempted": 0, "failed": 0}

    def record(wall, latencies, failed):
        out["batches"].append(wall)
        out["latencies"].extend(latencies)
        out["attempted"] += len(latencies)
        out["failed"] += failed

    if args.trace_out:
        # the same batch untraced, right before, gives the tracing overhead
        record(*_run_batch(m, batch))
        tracer = spans.Tracer()
        spans.install(tracer)
        record(*_run_batch(m, batch, tracer.wrap("localization.check", run_check)))
        Path(args.trace_out).write_text(json.dumps(tracer.summary()))
    else:
        done = 1
        while True:
            record(*_run_batch(m, batch))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(out["batches"]) > args.seconds:
                break
            done += 1
            batch = draw_batch(rng, m, args.batch, done * args.batch)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("localize",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--batch", type=int, default=20)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    return _localize(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
