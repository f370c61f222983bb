"""One rule for every verify-paper finding decided over many cases:
``verification._holds`` decides every case, in order, also after one has
failed.  A failing case skips no later draw from the seeded generator and
leaves no later case undecided, and a finding with a failing case reads
false.  verify-paper reads the array state and never builds the
``Fraction`` view ``entries``.
"""
import hashlib
import random

import pytest

from perronkron import families, linalg, perron, verification
from perronkron.cli import main
from perronkron.linalg import Tolerance
from test_cli_contract import VERIFY_PAPER_SEED_42_SHA256


def test_holds_decides_every_verdict_after_a_failure():
    seen = []

    def verdicts():
        for verdict in (True, False, 1, 0, True):
            seen.append(verdict)
            yield verdict

    assert verification._holds(verdicts()) is False
    assert seen == [True, False, 1, 0, True]
    assert verification._holds(iter([True, 1])) is True
    assert verification._holds(iter([])) is True


def _fail_first_call(monkeypatch, module, name):
    """Patch ``module.name`` to run as before but answer False on its first
    call; returns the list of calls it sees."""
    real, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        verdict = real(*args, **kwargs)
        return False if len(calls) == 1 else verdict

    monkeypatch.setattr(module, name, spy)
    return calls


def test_a_failing_diag_case_moves_no_later_draw(monkeypatch):
    passing, passing_rng = {}, random.Random(42)
    verification._check_kron_identities(passing, passing_rng)
    calls = _fail_first_call(monkeypatch, verification, "diag_kron_identity")
    failing, failing_rng = {}, random.Random(42)
    verification._check_kron_identities(failing, failing_rng)
    assert len(calls) == 100
    assert failing_rng.getstate() == passing_rng.getstate()
    assert failing == dict(passing, diag_kron_identity=False)
    assert failing["norm_multiplicativity"] is True


def test_a_failing_ideal_case_leaves_no_later_case_undecided(monkeypatch):
    catalog, inverses = verification._catalog(), {}
    pairs = {
        (ns, nt): verification._PairData(S, T, inverses)
        for ns, S in catalog
        for nt, T in catalog
    }
    calls = _fail_first_call(monkeypatch, perron, "is_ideal")
    findings = {}
    verification._check_ideal(findings, pairs, Tolerance())
    assert len(calls) == 4 + 7 + 64
    assert findings == {
        "hadamard_ideal": False,
        "dft_ideal": True,
        "ideal_closed_under_kron": True,
    }


def test_verify_paper_builds_no_entries_view(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the Fraction view was built")

    monkeypatch.setattr(linalg._Array, "entries", property(refuse))
    assert main(["--seed", "42", "verify-paper"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PAPER_SEED_42_SHA256


def _catalog_pairs():
    catalog, inverses = verification._catalog(), {}
    pairs = {
        (ns, nt): verification._PairData(S, T, inverses)
        for ns, S in catalog
        for nt, T in catalog
    }
    return catalog, inverses, pairs


def test_no_witness_fails_the_witness_findings(monkeypatch):
    catalog, inverses, pairs = _catalog_pairs()
    passing = {}
    verification._check_kron_witnesses(passing, pairs, Tolerance())
    verification._check_totally_nonzero(passing, catalog, inverses, Tolerance())
    assert passing == {"kron_witness_grid": True, "totally_nonzero_cone_vectors": True}
    monkeypatch.setattr(perron, "find_perron_witness", lambda *args: None)
    failing = {}
    verification._check_kron_witnesses(failing, pairs, Tolerance())
    verification._check_totally_nonzero(failing, catalog, inverses, Tolerance())
    assert failing == {"kron_witness_grid": False, "totally_nonzero_cone_vectors": False}


def test_a_mismatched_row_image_fails_only_its_finding(monkeypatch):
    passing = {}
    verification._check_digraphs(passing, Tolerance())
    assert passing == {
        "cycle_imprimitivity_indices": True,
        "kron_irreducibility_grid": True,
        "dft_extremal_row_images": True,
    }
    monkeypatch.setattr(families, "matrices_close", lambda *args: False)
    with pytest.raises(families.VerificationFailedError):
        families.extremal_row_image(3, 2)
    failing = {}
    verification._check_digraphs(failing, Tolerance())
    assert failing == dict(passing, dft_extremal_row_images=False)


def _record_verdicts(monkeypatch):
    """Patch ``verification._holds`` to keep each finding's verdicts, in the
    order it decides them; returns the list of those verdict lists."""
    real, seen = verification._holds, []

    def spy(verdicts):
        verdicts = list(verdicts)
        seen.append(verdicts)
        return real(iter(verdicts))

    monkeypatch.setattr(verification, "_holds", spy)
    return seen


def test_the_index_lemmas_decide_every_case(monkeypatch):
    seen = _record_verdicts(monkeypatch)
    findings = {}
    verification._check_index_lemmas(findings)
    # 64 moduli times i in [-1000, 1000]; both round trips over m, n <= 32.
    assert [len(verdicts) for verdicts in seen] == [128_064, 33_792]
    assert all(v is True for verdicts in seen for v in verdicts)
    assert findings == {"division_identity_grid": True, "fold_unfold_roundtrip": True}


def test_one_false_division_case_fails_the_report(monkeypatch):
    passing = verification.run_verification_suite(42)
    real = verification.division_identity_holds

    def one_false(i, n):
        verdicts = real(i, n)
        if n == 4:
            verdicts[list(i).index(7)] = False
        return verdicts

    monkeypatch.setattr(verification, "division_identity_holds", one_false)
    seen = _record_verdicts(monkeypatch)
    failing = verification.run_verification_suite(42)
    # The cases run n-major, i-minor: (i, n) = (7, 4) is case 3 * 2001 + 1007.
    assert [j for j, v in enumerate(seen[0]) if not v] == [3 * 2001 + 1007]
    assert passing["status"] == "pass"
    assert failing["status"] == "fail"
    assert failing["findings"] == dict(passing["findings"], division_identity_grid=False)
