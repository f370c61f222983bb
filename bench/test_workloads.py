"""Self-test of the workloads under the tracer (about two minutes).

Each workload runs one traced pass at seed 42.  The test asserts that every
operation's output is correct, that each layer a workload is meant to
exercise shows calls there, and that tracing leaves the verify-paper report
byte-identical.

    python3 -m unittest discover -s bench -p 'test_workloads.py'
"""
import contextlib
import hashlib
import os
import tempfile
import unittest

from run import SRC
from spans import Tracer
from workloads import VERIFY_PAPER_SEED_42_SHA256, WORKLOADS, import_package

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Layers whose change should move each workload's end-to-end metrics.
SHOULD_MOVE = {
    "verify_paper": (
        "linalg.matmul",
        "linalg.scale_columns",
        "linalg.is_entrywise_nonneg",
        "perron.similarity_image",
        "perron.in_spectracone",
        "perron.is_ideal",
        "verification.run_verification_suite",
    ),
    "rational_ladder": (
        "linalg.inverse",
        "perron.in_spectracone",
        "serialize.matrix_from_json",
        "serialize.matrix_to_json",
    ),
    "cone_lp": (
        "cones.coni_coefficients",
        "cones.enumerate_extreme_rays",
        "digraph.imprimitivity_index",
        "perron.similarity_image",
    ),
}


def _pass(name, trace, seed=42):
    """Outputs, failed operation names and tracer of one pass."""
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as workdir:
        ops = WORKLOADS[name](import_package(SRC), seed, workdir)
        tracer = Tracer()
        with contextlib.ExitStack() as stack:
            if trace:
                stack.enter_context(tracer)
                tracer.recording = True
            outputs = [op.call() for op in ops]
            tracer.recording = False
        failures = [op.name for op, out in zip(ops, outputs) if not op.check(out)]
        return outputs, failures, tracer


class WorkloadSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traced = {name: _pass(name, trace=True) for name in WORKLOADS}

    def test_outputs_are_correct_under_trace(self):
        for name, (_, failures, _) in self.traced.items():
            self.assertEqual(failures, [], name)

    def test_should_move_layers_are_called(self):
        for name, layers in SHOULD_MOVE.items():
            calls = self.traced[name][2].calls
            for layer in layers:
                self.assertGreater(calls[layer], 0, f"{name}: {layer}")

    def test_inverse_is_seen_through_every_binding(self):
        # rational_ladder inverts H32, H64 and two random matrices through
        # linalg, H128 through cli, and H32 again inside perron.is_ideal.
        self.assertEqual(self.traced["rational_ladder"][2].calls["linalg.inverse"], 6)

    def test_trace_leaves_verify_paper_report_unchanged(self):
        untraced, failures, _ = _pass("verify_paper", trace=False)
        self.assertEqual(failures, [])
        self.assertEqual(self.traced["verify_paper"][0], untraced)
        status, text = untraced[0]
        self.assertEqual(status, 0)
        self.assertEqual(hashlib.sha256(text.encode()).hexdigest(), VERIFY_PAPER_SEED_42_SHA256)


if __name__ == "__main__":
    unittest.main()
