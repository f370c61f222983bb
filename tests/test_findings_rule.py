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
