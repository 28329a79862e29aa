"""Fixture corpus for POP002 (replay-pure participant sampling).

POP002 is a per-file rule scoped to the sampler module.
"""

from .helpers import rule_diagnostics, rule_ids

SAMPLER_REL = "src/repro/fl/sampler.py"


class TestPop002StoredGenerator:
    def test_flags_generator_stored_on_self(self):
        found = rule_diagnostics("POP002", SAMPLER_REL, (
            "from .client import derive_rng\n"
            "class Sampler:\n"
            "    def __init__(self, seed):\n"
            "        self._rng = derive_rng(seed, 1)\n"
        ))
        assert rule_ids(found) == ["POP002"]
        assert "self._rng" in found[0].message

    def test_flags_annotated_attribute_assignment(self):
        found = rule_diagnostics("POP002", SAMPLER_REL, (
            "from .client import derive_rng\n"
            "class Sampler:\n"
            "    def reset(self, seed):\n"
            "        self.rng: object = derive_rng(seed, 2)\n"
        ))
        assert rule_ids(found) == ["POP002"]

    def test_flags_qualified_call(self):
        found = rule_diagnostics("POP002", SAMPLER_REL, (
            "from repro.fl import client\n"
            "class Sampler:\n"
            "    def reset(self, seed):\n"
            "        self.rng = client.derive_rng(seed, 2)\n"
        ))
        assert rule_ids(found) == ["POP002"]

    def test_near_miss_local_variable(self):
        # Deriving at the point of use into a local is the blessed idiom.
        found = rule_diagnostics("POP002", SAMPLER_REL, (
            "from .client import derive_rng\n"
            "def sample(seed, round_index):\n"
            "    rng = derive_rng(seed, 1, round_index)\n"
            "    return rng.random()\n"
        ))
        assert found == []

    def test_near_miss_out_of_scope_module(self):
        # Algorithms may hold whatever state their checkpoint codec covers.
        found = rule_diagnostics("POP002", "src/repro/fl/algorithm.py", (
            "from .client import derive_rng\n"
            "class Algo:\n"
            "    def __init__(self, seed):\n"
            "        self._rng = derive_rng(seed, 1)\n"
        ))
        assert found == []
