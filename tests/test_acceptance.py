"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from perronkron import cones, digraph, families, perron, verification
from perronkron.linalg import (
    Matrix,
    Tolerance,
    Vector,
    kron,
    kron_factor,
    kron_vec,
)

TOL = Tolerance(1e-9)


@pytest.fixture(scope="module")
def suite_report():
    return verification.run_verification_suite()


def _criterion(number: int, label: str, ok: bool):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_counterexample_bit_exact():
    start = time.monotonic()
    report = perron.reproduce_counterexample()
    elapsed = time.monotonic() - start
    ok = (
        report.s == Matrix.rational(verification._EXPECTED_S)
        and report.s_inv == Matrix.rational(verification._EXPECTED_S_INV)
        and report.a == Matrix.rational(verification._EXPECTED_A)
        and report.witness_search is None
        and report.nonscalar
        and elapsed < 1.0
    )
    _criterion(1, "counterexample reproduction", ok)


def test_criterion_2_index_and_kron_lemmas():
    start = time.monotonic()
    findings = {}
    rng = random.Random(verification.DEFAULT_SEED)
    verification._check_index_lemmas(findings)
    verification._check_kron_identities(findings, rng)
    elapsed = time.monotonic() - start
    ok = all(findings.values()) and elapsed < 5.0
    _criterion(2, "index and Kronecker identity suite", ok)


def test_criterion_3_witness_closure(suite_report):
    _criterion(
        3,
        "Kronecker witness closure over the catalog",
        suite_report["findings"]["kron_witness_grid"],
    )


def test_criterion_4_membership_sampling(suite_report):
    ok = (
        suite_report["findings"]["kron_cone_membership_sampling"]
        and suite_report["findings"]["kron_tope_membership_sampling"]
    )
    _criterion(4, "cone/tope membership sampling", ok)


def test_criterion_5_strict_containment(suite_report):
    zp, evidence = perron.strict_cone_containment_certificate(
        families.hadamard_like(2), families.hadamard_like(2), TOL
    )
    a, b, c, d = zp.entries
    ok = (
        suite_report["findings"]["strict_cone_containment_certificates"]
        and evidence.holds
        and a * d - b * c == 1
    )
    _criterion(5, "strict cone containment certificates", ok)


def test_criterion_6_ideal_strong_irreducibility(suite_report):
    findings = suite_report["findings"]
    ok = (
        findings["hadamard_ideal"]
        and findings["dft_ideal"]
        and findings["ideal_closed_under_kron"]
        and findings["cycle_imprimitivity_indices"]
        and findings["kron_irreducibility_grid"]
        and findings["dft_extremal_row_images"]
    )
    _criterion(6, "ideal/strong/irreducibility suite", ok)


def test_criterion_7_tope_strictness_certificate():
    start = time.monotonic()
    h2 = families.hadamard_like(2)
    f3 = families.dft(3)
    image_h2 = perron.similarity_image(h2, Vector.rational([1, -1]))
    image_f3 = perron.similarity_image(f3, f3.row(1))
    strong = perron.verify_strong_certificate(
        h2, Vector.rational([1, -1]), TOL
    ) and perron.verify_strong_certificate(f3, f3.row(1), TOL)
    ideal = perron.is_ideal(h2, TOL) and perron.is_ideal(f3, TOL)
    indices = (
        digraph.imprimitivity_index(image_h2, TOL),
        digraph.imprimitivity_index(image_f3, TOL),
    )
    zp, evidence = cones.spectratope_strictness_certificate(
        h2.to_complex(), f3, TOL
    )
    elapsed = time.monotonic() - start
    ok = (
        ideal
        and strong
        and indices == (2, 3)
        and math.gcd(*indices) == 1
        and evidence.member_cone
        and evidence.factorization_absent
        and elapsed < 1.0
    )
    _criterion(7, "spectratope strictness certificate", ok)


def test_criterion_8_extreme_ray_cross_check():
    start = time.monotonic()
    ok = True
    for depth in (2, 3):
        H = families.hadamard_like(depth)
        rays = cones.enumerate_extreme_rays(perron.cone_inequalities(H))
        expected = {
            tuple(v / max(abs(u) for u in row.entries) for v in row.entries)
            for row in H.rows()
        }
        if {tuple(r.entries) for r in rays} != expected:
            ok = False
    elapsed = time.monotonic() - start
    _criterion(8, "extreme rays match Hadamard rows", ok and elapsed < 10.0)


def test_criterion_9_cli_suite_deterministic():
    cmd = [sys.executable, "-m", "perronkron.cli", "verify-paper"]
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True)
    elapsed = time.monotonic() - start
    second = subprocess.run(cmd, capture_output=True)
    report = json.loads(first.stdout)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and report["status"] == "pass"
        and elapsed < 60.0
    )
    _criterion(9, "verify-paper deterministic end-to-end", ok)
