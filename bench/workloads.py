"""The benchmark's workloads: seeded inputs, timed operations and checks.

``setup(pk, seed, workdir)`` builds every input and every expected answer
from the seed and returns the operations of one pass.  An operation's
``call`` is what gets timed; its ``check`` runs after the pass, outside the
timed region and outside any trace.  Expected answers come from the
mathematics of the inputs, not from the library:

* For a Sylvester Hadamard matrix H of order n, H/n is its inverse, and for
  x = H w the image H diag(x) H^{-1} has entry (i, j) equal to w[i XOR j].
  So a row combination is in the spectracone iff every weight is >= 0.
* DFT and Sylvester Hadamard matrices are ideal and invertible, so their
  rows are independent and generate the spectracone: a combination of the
  rows is in their conical hull iff every weight is >= 0, and in their
  convex hull iff, moreover, the weights sum to 1.
* The image of row k of the order-n DFT matrix is the (k-1)-th power of
  the n-cycle, whose index of imprimitivity is n when gcd(k-1, n) = 1.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Dict, List

MODULES = (
    "linalg",
    "perron",
    "cones",
    "digraph",
    "families",
    "serialize",
    "verification",
    "cli",
)

# sha256 of the stdout of `perronkron --seed 42 verify-paper`.
VERIFY_PAPER_SEED_42_SHA256 = (
    "3e3304bbaf6b8ecab3ea5460571ab92c2bab9738a4102b66f17aecf7bc1c1ea8"
)


class SetupError(RuntimeError):
    """The package or a workload's inputs could not be prepared."""


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def import_package(src: str) -> SimpleNamespace:
    """Import perronkron afresh from ``src`` and return its modules."""
    package_dir = os.path.join(os.path.abspath(src), "perronkron")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SetupError(f"no perronkron package in {src}")
    for name in [n for n in sys.modules if n.split(".")[0] == "perronkron"]:
        del sys.modules[name]
    if os.path.abspath(src) not in sys.path:
        sys.path.insert(0, os.path.abspath(src))
    package = importlib.import_module("perronkron")
    if os.path.dirname(os.path.abspath(package.__file__)) != package_dir:
        raise SetupError(f"perronkron was imported from {package.__file__}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"perronkron.{m}") for m in MODULES}
    )


def _is(expected):
    return lambda got: got is expected


def _weights(rng: random.Random, n: int) -> List[Fraction]:
    # Positive weights keep the amount of work alike across seeds.
    return [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]


def _with_negative(rng: random.Random, w: List[Fraction]) -> List[Fraction]:
    out = list(w)
    out[rng.randrange(len(w))] = -Fraction(rng.randint(1, 6), rng.randint(1, 3))
    return out


def _combination(rows, w) -> list:
    """sum_k w[k] * rows[k], in the scalar type of the rows."""
    if isinstance(rows[0][0], complex):
        w = [float(v) for v in w]
    return [sum(wk * row[j] for wk, row in zip(w, rows)) for j in range(len(rows[0]))]


# --- verify_paper ---------------------------------------------------------


def setup_verify_paper(pk, seed: int, workdir: str) -> List[Op]:
    pk.perron.reproduce_counterexample()  # warm-up
    argv = ["--seed", str(seed), "verify-paper"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = pk.cli.main(argv)
        return status, out.getvalue()

    def check(result) -> bool:
        status, text = result
        if status != 0:
            return False
        if seed == 42:
            return hashlib.sha256(text.encode()).hexdigest() == VERIFY_PAPER_SEED_42_SHA256
        report = json.loads(text)
        flags = [v for v in report["findings"].values() if isinstance(v, bool)]
        return (
            report["status"] == "pass"
            and report["inputs"]["seed"] == seed
            and bool(flags)
            and all(flags)
        )

    return [Op("verify_paper", call, check)]


# --- rational_ladder ------------------------------------------------------


def setup_rational_ladder(pk, seed: int, workdir: str) -> List[Op]:
    rng = random.Random(seed)
    linalg = pk.linalg
    tol = linalg.Tolerance()
    linalg.inverse(pk.families.hadamard_like(3))  # warm-up
    ops: List[Op] = []

    hadamard: Dict[int, object] = {}
    for depth in (6, 7, 8):
        H = pk.families.hadamard_like(depth)
        hadamard[H.nrows] = (H, H.scale(Fraction(1, H.nrows)))

    for n in (32, 64):
        H, expected = hadamard[n]
        ops.append(
            Op(
                f"inverse_hadamard_{n}",
                lambda H=H: pk.linalg.inverse(H),
                lambda got, e=expected: got == e,
            )
        )

    # Order 128 takes the path users take: a file from `gen`, then `invert`.
    source = os.path.join(workdir, "hadamard128.json")
    target = os.path.join(workdir, "hadamard128_inverse.json")
    if pk.cli.main(["-o", source, "gen", "hadamard", "8"]) != 0:
        raise SetupError("perronkron gen hadamard 8 failed")
    expected128 = hadamard[128][1]

    def check_inverse_file(status) -> bool:
        if status != 0:
            return False
        with open(target, encoding="utf-8") as fh:
            return pk.serialize.matrix_from_json(fh.read()) == expected128

    ops.append(
        Op(
            "invert_hadamard_128_cli",
            lambda: pk.cli.main(["-o", target, "invert", source]),
            check_inverse_file,
        )
    )

    for n in (64, 128):
        H, H_inv = hadamard[n]
        for member in (True, True, False, False):
            w = _weights(rng, n)
            if not member:
                w = _with_negative(rng, w)
            x = linalg.Vector.rational(_combination(H.entries, w))
            ops.append(
                Op(
                    f"spectracone_hadamard_{n}_{'member' if member else 'outside'}",
                    lambda H=H, x=x, H_inv=H_inv: pk.perron.in_spectracone(H, x, tol, H_inv),
                    _is(member),
                )
            )

    H32 = hadamard[32][0]
    ops.append(Op("is_ideal_hadamard_32", lambda: pk.perron.is_ideal(H32, tol), _is(True)))

    for n in (24, 32):
        M = linalg.Matrix.rational(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        )
        identity = linalg.Matrix.identity(n)
        ops.append(
            Op(
                f"inverse_random_{n}",
                lambda M=M: pk.linalg.inverse(M),
                lambda got, M=M, identity=identity: M @ got == identity,
            )
        )
    return ops


# --- cone_lp --------------------------------------------------------------


def setup_cone_lp(pk, seed: int, workdir: str) -> List[Op]:
    rng = random.Random(seed)
    cones, families, linalg = pk.cones, pk.families, pk.linalg
    tol = linalg.Tolerance()
    Vector = linalg.Vector
    cones.coni_member(cones.ConeGenerators.from_rows(families.dft(3)), families.dft(3).row(1))  # warm-up
    ops: List[Op] = []

    def hull_op(kind, n, G, x, expected):
        def call():
            test = pk.cones.coni_member if kind == "coni" else pk.cones.conv_member
            return test(G, x, tol)

        return Op(f"{kind}_dft_{n}_{'member' if expected else 'outside'}", call, _is(expected))

    # Complex mode: conical hulls at even orders, convex hulls at odd ones.
    for n in (4, 6, 8, 10, 12):
        F = families.dft(n)
        G = cones.ConeGenerators.from_rows(F, "conical")
        w = _weights(rng, n)
        ops.append(hull_op("coni", n, G, Vector.complex_(_combination(F.entries, w)), True))
        outside = _with_negative(rng, w)
        ops.append(hull_op("coni", n, G, Vector.complex_(_combination(F.entries, outside)), False))
    for n in (5, 7, 9):
        F = families.dft(n)
        G = cones.ConeGenerators.from_rows(F, "convex")
        w = _weights(rng, n)
        w = [v / sum(w) for v in w]
        ops.append(hull_op("conv", n, G, Vector.complex_(_combination(F.entries, w)), True))
        doubled = [2 * v for v in w]
        ops.append(hull_op("conv", n, G, Vector.complex_(_combination(F.entries, doubled)), False))

    # Rational mode: the 64 Kronecker products of the rows of H4 (order 8).
    H4 = families.hadamard_like(4)
    U = cones.ConeGenerators.from_rows(H4)
    kron_rows = [[a * b for a in u for b in v] for u in H4.entries for v in H4.entries]
    # These two points are fixed, not seeded: the simplex's pivot path here
    # depends on the point, and its time varied twofold between seeds.
    w = [Fraction(1 + k % 6, 1 + k % 4) for k in range(len(kron_rows))]
    outside = w[:21] + [Fraction(-1, 2)] + w[22:]
    for expected, weights in ((True, w), (False, outside)):
        x = Vector.rational(_combination(kron_rows, weights))
        ops.append(
            Op(
                f"coni_kron_h4_64_{'member' if expected else 'outside'}",
                lambda x=x: pk.cones.coni_member(pk.cones.kron_generator_set(U, U), x, tol),
                _is(expected),
            )
        )

    H3 = families.hadamard_like(3)
    inequalities = pk.perron.cone_inequalities(H3)
    expected_rays = {tuple(row) for row in H3.entries}
    ops.append(
        Op(
            "extreme_rays_h3",
            lambda: pk.cones.enumerate_extreme_rays(inequalities),
            lambda rays: len(rays) == 4 and {tuple(r.entries) for r in rays} == expected_rays,
        )
    )

    for _ in range(4):
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        Cm, Cn = families.cycle_companion(m), families.cycle_companion(n)
        ops.append(
            Op(
                f"kron_irreducible_cycles_{m}x{n}",
                lambda Cm=Cm, Cn=Cn: pk.digraph.kron_irreducibility_predicate(Cm, Cn, tol),
                _is(math.gcd(m, n) == 1),
            )
        )
        ops.append(
            Op(
                f"period_cycle_{n}",
                lambda Cn=Cn: pk.digraph.imprimitivity_index(Cn, tol),
                lambda got, n=n: got == n,
            )
        )

    images = []
    for _ in range(2):
        n = rng.randint(3, 10)
        k = rng.choice([k for k in range(2, n + 1) if math.gcd(k - 1, n) == 1])
        F = families.dft(n)
        images.append((n, F, F.row(k - 1)))
        ops.append(
            Op(
                f"period_dft_image_{n}_row_{k}",
                lambda F=F, x=F.row(k - 1): pk.digraph.imprimitivity_index(
                    pk.perron.similarity_image(F, x), tol
                ),
                lambda got, n=n: got == n,
            )
        )
    (na, Fa, xa), (nb, Fb, xb) = images

    def kron_irreducible_images():
        similarity_image = pk.perron.similarity_image
        return pk.digraph.kron_irreducibility_predicate(
            similarity_image(Fa, xa), similarity_image(Fb, xb), tol
        )

    ops.append(
        Op(
            f"kron_irreducible_dft_images_{na}x{nb}",
            kron_irreducible_images,
            _is(math.gcd(na, nb) == 1),
        )
    )
    return ops


WORKLOADS: Dict[str, Callable] = {
    "verify_paper": setup_verify_paper,
    "rational_ladder": setup_rational_ladder,
    "cone_lp": setup_cone_lp,
}
