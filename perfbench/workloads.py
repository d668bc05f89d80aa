"""The three benchmark workloads.

Each workload has a set-up (spec load to ready contexts, the part every
``symgen`` call pays), seeded inputs made outside any timed region, and a
pass: a list of timed calls into symgen's public functions, each with the
check its result must pass.  The runner sets up several fresh contexts,
runs one cold pass on each, then repeats warm passes over the same inputs.

Calls look functions up through their module attribute at call time
(``sr.mult``, ``cli.main``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from symgen import cli, fpgroup, groupfile, progenitor
from symgen import symrep as sr

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


@dataclass(frozen=True)
class Call:
    """One timed call.  ``units`` is the work it stands for (1 call, or the
    number of cosets an enumeration over the trivial subgroup produces)."""

    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any], bool]
    label: str
    units: int = 1


def _random_element(ctx, rng: random.Random):
    """A uniformly random group element as raw (control, word) data: every
    element is control * t_w for a unique coset word w."""
    return (ctx.spec.control_group.random_element(rng), rng.choice(ctx.image.cst))


def _key(e) -> tuple:
    return (e.control, e.word)


class Enumerate:
    """CLI enumerate/graph calls and Todd-Coxeter over the trivial subgroup.

    Rules are never derived here: fpgroup, dcenum and cli do the work, at
    small index (the CLI calls) and at large index (300, 3420 and 12096
    cosets).
    """

    name = "enumerate"
    fixtures = ("5sq_d6", "l2_19", "u3_3")

    def __init__(self, setups: int = 15, cold_passes: int = 5, cli_repeats: int = 4,
                 traced_passes: int = 3):
        self.setups = setups
        self.cold_passes = cold_passes
        self.cli_repeats = cli_repeats
        self.traced_passes = traced_passes

    def setup(self):
        specs = {name: groupfile.load_bundled(name) for name in self.fixtures}
        return {name: (gf, gf.build_context(with_rules=False))
                for name, gf in specs.items()}

    def make_inputs(self, state, rng: random.Random):
        jobs = [("cli", (cmd, name) + fmt)
                for name in self.fixtures
                for cmd, fmt in (("enumerate", ()),
                                 ("graph", ("--format", "dot")),
                                 ("graph", ("--format", "json")))] * self.cli_repeats
        jobs += [("order", name) for name in self.fixtures]
        rng.shuffle(jobs)
        golden = {(name, fmt): (GOLDEN / f"{name}.{fmt}").read_bytes()
                  for name in self.fixtures for fmt in ("dot", "json")}
        orders = {name: (gf.expected.group_order, ctx.image.full_group.order())
                  for name, (gf, ctx) in state.items()}
        return jobs, golden, orders

    def calls(self, state, inputs) -> list[Call]:
        jobs, golden, orders = inputs
        out = []
        for kind, job in jobs:
            if kind == "cli":
                argv = list(job)
                want = golden[(argv[1], argv[3])] if argv[0] == "graph" else None
                out.append(Call(
                    "cli", lambda argv=argv: _run_cli(argv),
                    lambda r, want=want: r[0] == 0 and (
                        want is None or r[1].encode("utf-8") == want),
                    " ".join(argv) + " exits 0 with the golden output"))
            else:
                pres = progenitor.build_presentation(state[job][0].spec)
                expected, full = orders[job]
                out.append(Call(
                    "order", lambda pres=pres: fpgroup.todd_coxeter(pres, []),
                    lambda r, e=expected, f=full: r.index == e == f,
                    f"todd_coxeter {job} over the trivial subgroup", units=full))
        return out

    named = {
        "enum_calls_per_s": ("warm", "cli", "rate"),
        "enum_call_ms.p50": ("warm", "cli", "p50"),
        "enum_call_ms.p95": ("warm", "cli", "p95"),
        "order_cosets_per_s": ("warm", "order", "rate"),
    }


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _mult_calls(ctx, pairs, refs, kind: str, mode: str, tag: str) -> list[Call]:
    out = []
    for (a, b), ref in zip(pairs, refs):
        x = ctx.element(*a, canonical=True)
        y = ctx.element(*b, canonical=True)
        out.append(Call(kind, lambda x=x, y=y: sr.mult(x, y, mode=mode),
                        lambda r, ref=ref: _key(r) == ref,
                        f"{tag} {mode} product equals the image product"))
    return out


def _image_products(ctx, pairs) -> list[tuple]:
    return [_key(sr.mult(ctx.element(*a, canonical=True),
                         ctx.element(*b, canonical=True), mode="image"))
            for a, b in pairs]


class RewriteU33:
    """Pure-engine products on u3_3: rule derivation dominates set-up, the
    cold pass fills the RuleSet caches and warm passes read them."""

    name = "rewrite_u3_3"

    def __init__(self, setups: int = 3, cold_passes: int = 3, pairs: int = 2000,
                 traced_passes: int = 10):
        self.setups = setups
        self.cold_passes = cold_passes
        self.pairs = pairs
        self.traced_passes = traced_passes

    def setup(self):
        return groupfile.load_bundled("u3_3").build_context(with_rules=True)

    def make_inputs(self, ctx, rng: random.Random):
        pairs = [(_random_element(ctx, rng), _random_element(ctx, rng))
                 for _ in range(self.pairs)]
        return pairs, _image_products(ctx, pairs)

    def calls(self, ctx, inputs) -> list[Call]:
        pairs, refs = inputs
        return _mult_calls(ctx, pairs, refs, "pure_mult", "pure", "u3_3")

    named = {
        "pure_cold_mult_per_s": ("cold", "pure_mult", "rate"),
        "pure_cold_mult_ms.p99": ("cold", "pure_mult", "p99"),
        "pure_warm_mult_per_s": ("warm", "pure_mult", "rate"),
    }


class LongWords:
    """Both engines, conversions and centralizers on l2_19 (words up to 3
    letters) and 5sq_d6 (words up to 7 letters).

    Rule derivation is cheap here; canon's window scan over long words, the
    image engine and perm centralizers do the work.  The counts per pass
    give each operation kind a comparable share of a warm pass.
    """

    name = "long_words"
    fixtures = ("l2_19", "5sq_d6")

    def __init__(self, setups: int = 7, cold_passes: int = 3, pairs: int = 2000,
                 image_pairs: int = 400, conversions: int = 250, centralizers: int = 6,
                 traced_passes: int = 4):
        self.setups = setups
        self.cold_passes = cold_passes
        self.pairs = pairs
        self.image_pairs = image_pairs
        self.conversions = conversions
        self.centralizers = centralizers
        self.traced_passes = traced_passes

    def setup(self):
        return {name: groupfile.load_bundled(name).build_context(with_rules=True)
                for name in self.fixtures}

    def make_inputs(self, state, rng: random.Random):
        inputs = {}
        for name in self.fixtures:
            ctx = state[name]
            full = ctx.image.full_group
            pairs = [(_random_element(ctx, rng), _random_element(ctx, rng))
                     for _ in range(self.pairs)]
            refs = _image_products(ctx, pairs)
            image_subset = sorted(rng.sample(range(self.pairs), self.image_pairs))
            perms = [full.random_element(rng) for _ in range(self.conversions)]
            conv = [(p, _key(sr.per2sym(ctx, p))) for p in perms]
            cent = [_random_element(ctx, rng) for _ in range(self.centralizers)]
            inputs[name] = (pairs, refs, image_subset, conv, cent, full.order())
        return inputs

    def calls(self, state, inputs) -> list[Call]:
        out = []
        for name in self.fixtures:
            ctx = state[name]
            pairs, refs, image_subset, conv, cent, order = inputs[name]
            out += _mult_calls(ctx, pairs, refs, "pure_mult", "pure", name)
            out += _mult_calls(ctx, [pairs[i] for i in image_subset],
                               [refs[i] for i in image_subset],
                               "image_mult", "image", name)
            for p, ref in conv:
                e = ctx.element(*ref, canonical=True)
                out.append(Call(
                    "convert", lambda p=p, ctx=ctx: sr.per2sym(ctx, p),
                    lambda r, p=p, ref=ref, ctx=ctx: (
                        _key(r) == ref and sr.sym2per(ctx, r) == p),
                    f"{name} sym2per(per2sym(p)) == p"))
                out.append(Call(
                    "convert", lambda e=e, ctx=ctx: sr.sym2per(ctx, e),
                    lambda r, p=p: r == p, f"{name} sym2per(e) == p"))
            for raw in cent:
                e = ctx.element(*raw, canonical=True)
                out.append(Call(
                    "cenelt", lambda e=e, ctx=ctx: sr.cenelt(ctx, e),
                    lambda r, e=e, ctx=ctx, order=order: _centralizes(ctx, e, r, order),
                    f"{name} cenelt generators commute with the element"))
        return out

    named = {
        "pure_cold_mult_per_s": ("cold", "pure_mult", "rate"),
        "pure_cold_mult_ms.p99": ("cold", "pure_mult", "p99"),
        "pure_warm_mult_per_s": ("warm", "pure_mult", "rate"),
        "image_mult_per_s": ("warm", "image_mult", "rate"),
        "convert_per_s": ("warm", "convert", "rate"),
        "cenelt_per_s": ("warm", "cenelt", "rate"),
    }


def _centralizes(ctx, e, result, group_order: int) -> bool:
    """Each generator commutes with e in the image; the order divides |G|."""
    order, gens = result
    p = sr.sym2per(ctx, e)
    for g in gens:
        q = sr.sym2per(ctx, g)
        if p * q != q * p:
            return False
    return order >= 1 and group_order % order == 0


WORKLOADS = {w.name: w for w in (Enumerate, RewriteU33, LongWords)}
