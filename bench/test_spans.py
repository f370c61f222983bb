"""Fast checks of the tracer: self-time arithmetic and complete wrapping.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""
import json
import os
import sys
import tempfile
import unittest
from collections import Counter

import spans
from spans import Span, Tracer, layer_metrics, self_times
from workloads import import_package

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class SelfTimeTest(unittest.TestCase):
    def test_is_ideal_chain(self):
        # is_ideal -> in_spectracone (x2) -> similarity_image -> matmul
        trace = [
            Span("perron.is_ideal", 0.0, 10.0, None),
            Span("perron.in_spectracone", 1.0, 5.0, 0),
            Span("perron.similarity_image", 1.5, 4.5, 1),
            Span("linalg.matmul", 2.0, 4.0, 2),
            Span("perron.in_spectracone", 6.0, 9.0, 0),
            Span("perron.similarity_image", 6.5, 8.0, 4),
            Span("linalg.matmul", 7.0, 8.0, 5),
        ]
        self.assertEqual(self_times(trace), [3.0, 1.0, 1.0, 2.0, 1.5, 0.5, 1.0])
        values = layer_metrics(trace, Counter(s.name for s in trace), {})
        self.assertEqual(values["perron.is_ideal.self_s"], 3.0)
        self.assertEqual(values["perron.in_spectracone.self_s"], 2.5)
        self.assertEqual(values["perron.in_spectracone.calls"], 2)
        self.assertEqual(values["perron.similarity_image.self_s"], 1.5)
        self.assertEqual(values["linalg.matmul.self_s"], 3.0)
        self.assertEqual(values["perron.self_s"], 7.0)
        self.assertEqual(values["linalg.self_s"], 3.0)

    def test_child_covering_parent(self):
        trace = [
            Span("perron.in_spectracone", 1.0, 3.0, None),
            Span("perron.similarity_image", 1.0, 3.0, 0),
        ]
        self.assertEqual(self_times(trace), [0.0, 2.0])

    def test_child_past_parent_is_clipped(self):
        trace = [
            Span("perron.in_spectracone", 1.0, 3.0, None),
            Span("perron.similarity_image", 0.5, 3.5, 0),
        ]
        self.assertEqual(self_times(trace), [0.0, 3.0])

    def test_overlapping_children_are_counted_once(self):
        trace = [
            Span("cli.main", 0.0, 10.0, None),
            Span("linalg.inverse", 1.0, 4.0, 0),
            Span("linalg.kron", 3.0, 6.0, 0),
            Span("linalg.kron", 8.0, 9.0, 0),
        ]
        self.assertEqual(self_times(trace)[0], 4.0)

    def test_overhead_spans_are_charged_to_no_layer(self):
        trace = [
            Span("linalg.inverse", 0.0, 4.0, None),
            Span(spans.OVERHEAD, 4.0, 9.0, None),
        ]
        values = layer_metrics(trace, Counter({"linalg.inverse": 1}), {})
        self.assertEqual(values["linalg.inverse.self_s"], 4.0)
        self.assertEqual(values["linalg.self_s"], 4.0)


def _binding_scenario(pk, workdir):
    """Reach every target through each module that binds it by name."""
    linalg, perron, cones, families = pk.linalg, pk.perron, pk.cones, pk.families
    H2, H3 = families.hadamard_like(2), families.hadamard_like(3)  # kron in families
    pk.verification._PairData(H2, H3)  # inverse and kron bound in verification
    left = os.path.join(workdir, "h2.json")
    out = os.path.join(workdir, "out.json")
    assert pk.cli.main(["-o", left, "gen", "hadamard", "2"]) == 0
    assert pk.cli.main(["-o", out, "invert", left]) == 0  # inverse bound in cli
    assert pk.cli.main(["-o", out, "kron", left, left]) == 0  # kron bound in cli
    x = linalg.Vector.rational([2, 1, 1, 1])
    perron.in_spectracone(H3, x)  # inverse bound in perron
    perron.is_ideal(H2)
    perron.strict_cone_containment_certificate(H2, H2)  # kron, kron_vec in perron
    perron.verify_strong_certificate(H2, linalg.Vector.rational([1, -1]))
    F3 = families.dft(3)
    families.extremal_row_image(3, 2)  # similarity_image bound in families
    cones.spectratope_strictness_certificate(H2.to_complex(), F3)  # kron in cones
    U = cones.ConeGenerators.from_rows(H2)
    cones.coni_member(cones.kron_generator_set(U, U), linalg.Vector.rational([1, 0, 0, 0]))
    cones.conv_member(U, linalg.Vector.rational([1, 0]))
    cones.enumerate_extreme_rays(perron.cone_inequalities(H2))
    pk.digraph.kron_irreducibility_predicate(
        families.cycle_companion(2), families.cycle_companion(3)
    )


class WrappingTest(unittest.TestCase):
    def test_every_call_is_recorded(self):
        """Each target's wrapper sees as many calls as the interpreter makes."""
        pk = import_package(os.path.join(ROOT, "src"))
        originals = {}
        for target in spans.TARGETS:
            home = getattr(pk, target.module)
            owner, _, attr = target.attr.rpartition(".")
            fn = (getattr(home, owner).__dict__ if owner else vars(home))[attr]
            originals[fn.__code__] = target
        profiled = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in originals:
                profiled[originals[frame.f_code].name] += 1

        tracer = Tracer()
        with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as workdir:
            with tracer:
                tracer.recording = True
                sys.setprofile(profile)
                try:
                    _binding_scenario(pk, workdir)
                finally:
                    sys.setprofile(None)
                    tracer.recording = False
        expected = {t.name for t in spans.TARGETS} - {"verification.run_verification_suite"}
        for name in sorted(expected):
            self.assertGreater(profiled[name], 0, name)
            self.assertEqual(tracer.calls[name], profiled[name], name)
        self.assertEqual(tracer._patches, [])
        self.assertIs(pk.cli.inverse, pk.linalg.inverse)  # restored

    def test_benchmark_json_lists_every_metric(self):
        import run

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(spans.PER_LAYER),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
