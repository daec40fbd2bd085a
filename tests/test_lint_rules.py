"""Golden fixture tests for every ``repro.lint`` rule.

Each rule gets at least one bad snippet proving it fires (with the
expected rule id and line) and one good snippet proving it stays
quiet.  Suppression semantics (inline disable, unused-suppression
audit) are round-tripped at the end.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.driver import PARSE_ERROR_ID
from repro.lint.suppress import UNUSED_SUPPRESSION_ID


def lint(snippet: str, path: str = "fixture.py"):
    return lint_source(path, textwrap.dedent(snippet))


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


def assert_clean(snippet: str) -> None:
    findings = lint(snippet)
    assert findings == [], [f.render() for f in findings]


def assert_fires(snippet: str, rule_id: str, line: int | None = None):
    findings = lint(snippet)
    matching = [f for f in findings if f.rule_id == rule_id]
    assert matching, (
        f"expected {rule_id}, got {[f.render() for f in findings]}"
    )
    if line is not None:
        assert matching[0].line == line, matching[0].render()
    return matching


# ----------------------------------------------------------------------
# RNG001 — numpy legacy global-state API
# ----------------------------------------------------------------------
class TestNumpyLegacyRandom:
    def test_seed_call_fires_with_line(self):
        assert_fires(
            """\
            import numpy as np

            np.random.seed(42)
            """,
            "RNG001",
            line=3,
        )

    def test_rand_under_alias_fires(self):
        assert_fires(
            """\
            import numpy

            def noise(n):
                return numpy.random.rand(n)
            """,
            "RNG001",
            line=4,
        )

    def test_from_import_spelling_fires(self):
        assert_fires(
            """\
            from numpy import random

            def pick(xs):
                return random.choice(xs)
            """,
            "RNG001",
            line=4,
        )

    def test_generator_api_is_clean(self):
        assert_clean(
            """\
            import numpy as np

            def make(seed):
                return np.random.default_rng(np.random.SeedSequence(seed))
            """
        )

    def test_unimported_np_name_is_clean(self):
        # a local object coincidentally named ``np`` must not resolve
        assert_clean(
            """\
            def use(np):
                return np.random.seed
            """
        )


# ----------------------------------------------------------------------
# RNG002 — stdlib random / wall-clock seeding
# ----------------------------------------------------------------------
class TestAmbientEntropy:
    def test_stdlib_random_fires(self):
        assert_fires(
            """\
            import random

            def shuffle(xs):
                random.shuffle(xs)
            """,
            "RNG002",
            line=4,
        )

    def test_time_seeding_fires(self):
        assert_fires(
            """\
            import time
            import numpy as np

            def make():
                return np.random.default_rng(int(time.time()))
            """,
            "RNG002",
            line=5,
        )

    def test_explicit_seed_is_clean(self):
        assert_clean(
            """\
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """
        )

    def test_numpy_random_submodule_not_confused_with_stdlib(self):
        findings = lint(
            """\
            from numpy import random

            def make(seed):
                return random.default_rng(seed)
            """
        )
        assert "RNG002" not in rule_ids(findings)


# ----------------------------------------------------------------------
# RNG003 — entropy-seeded generator construction
# ----------------------------------------------------------------------
class TestEntropySeededGenerator:
    def test_no_arg_default_rng_fires(self):
        assert_fires(
            """\
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            "RNG003",
            line=4,
        )

    def test_literal_none_fires(self):
        assert_fires(
            """\
            from numpy.random import default_rng

            rng = default_rng(None)
            """,
            "RNG003",
            line=3,
        )

    def test_make_rng_helper_no_arg_fires(self):
        assert_fires(
            """\
            from repro.sim.rng import make_rng

            def build():
                return make_rng()
            """,
            "RNG003",
            line=4,
        )

    def test_forwarded_name_is_clean(self):
        assert_clean(
            """\
            import numpy as np

            def make(seed=None):
                return np.random.default_rng(seed)
            """
        )


# ----------------------------------------------------------------------
# RNG004 — generators must be threaded, not ambient
# ----------------------------------------------------------------------
class TestUnthreadedGenerator:
    def test_module_global_generator_fires(self):
        assert_fires(
            """\
            import numpy as np

            _RNG = np.random.default_rng(0)

            def draw(n):
                return _RNG.random(n)
            """,
            "RNG004",
            line=6,
        )

    def test_parameter_generator_is_clean(self):
        assert_clean(
            """\
            def draw(rng, n):
                return rng.random(n)
            """
        )

    def test_locally_derived_generator_is_clean(self):
        assert_clean(
            """\
            import numpy as np

            def draw(seed, n):
                rng = np.random.default_rng(seed)
                return rng.random(n)
            """
        )

    def test_self_attribute_is_clean(self):
        assert_clean(
            """\
            class Agent:
                def act(self):
                    return self._rng.random()
            """
        )

    def test_closure_over_enclosing_parameter_is_clean(self):
        assert_clean(
            """\
            def outer(rng):
                def inner(n):
                    return rng.random(n)
                return inner
            """
        )

    def test_closure_over_module_global_fires(self):
        assert_fires(
            """\
            import numpy as np

            _RNG = np.random.default_rng(0)

            def outer():
                def inner(n):
                    return _RNG.random(n)
                return inner
            """,
            "RNG004",
            line=7,
        )

    def test_module_global_uniform_source_fires(self):
        # UniformSource objects carry caller-owned generators; drawing
        # blocks from an ambient source leaks stream state exactly like
        # drawing from an ambient generator.
        assert_fires(
            """\
            from repro.sim.rng import FanInSource

            _SOURCE = FanInSource([])

            def draw(shape):
                return _SOURCE.random(shape)
            """,
            "RNG004",
            line=6,
        )

    def test_module_global_random_raw_fires(self):
        assert_fires(
            """\
            import numpy as np

            _BG = np.random.PCG64(0)

            def raw(n):
                return _BG.random_raw(n)
            """,
            "RNG004",
            line=6,
        )

    def test_module_global_uniform_block_fires(self):
        assert_fires(
            """\
            import numpy as np
            from repro.sim.rng_batched import BatchedPCG64Source

            _SOURCE = BatchedPCG64Source(np.load("positions.npy"))

            def block(chunk, kinds, lanes):
                return _SOURCE.random((chunk, kinds, lanes))
            """,
            "RNG004",
            line=7,
        )

    def test_parameter_uniform_source_is_clean(self):
        assert_clean(
            """\
            def step(source, chunk, kinds, lanes):
                return source.random((chunk, kinds, lanes))
            """
        )

    def test_attribute_uniform_block_is_clean(self):
        assert_clean(
            """\
            class Stepper:
                def block(self, chunk, kinds, lanes):
                    return self._source.random((chunk, kinds, lanes))
            """
        )


# ----------------------------------------------------------------------
# HSH001/HSH002 — hash stability
# ----------------------------------------------------------------------
class TestHashStability:
    def test_set_iteration_fires(self):
        assert_fires(
            """\
            import hashlib

            def content_key(items):
                digest = hashlib.sha256()
                for item in set(items):
                    digest.update(item)
                return digest.hexdigest()
            """,
            "HSH001",
            line=5,
        )

    def test_set_assigned_name_fires(self):
        assert_fires(
            """\
            import hashlib

            def content_key(items):
                unique = set(items)
                digest = hashlib.sha256()
                return digest, [digest.update(i) for i in unique]
            """,
            "HSH001",
            line=6,
        )

    def test_filesystem_listing_fires(self):
        assert_fires(
            """\
            import hashlib
            import os

            def tree_key(root):
                digest = hashlib.sha256()
                for name in os.listdir(root):
                    digest.update(name.encode())
                return digest.hexdigest()
            """,
            "HSH001",
            line=6,
        )

    def test_sorted_iteration_is_clean(self):
        assert_clean(
            """\
            import hashlib

            def content_key(items):
                digest = hashlib.sha256()
                for item in sorted(set(items)):
                    digest.update(item)
                return digest.hexdigest()
            """
        )

    def test_sets_outside_hash_context_are_clean(self):
        assert_clean(
            """\
            def union(groups):
                seen = set()
                for group in groups:
                    seen |= group
                return [x for x in seen]
            """
        )

    def test_signature_named_callee_creates_hash_context(self):
        assert_fires(
            """\
            def group_key(devices, system_signature):
                keys = []
                for device in {d for d in devices}:
                    keys.append(system_signature(device))
                return keys
            """,
            "HSH001",
        )

    def test_json_dumps_without_sort_keys_fires(self):
        assert_fires(
            """\
            import hashlib
            import json

            def spec_key(spec):
                blob = json.dumps(spec)
                return hashlib.sha256(blob.encode()).hexdigest()
            """,
            "HSH002",
            line=5,
        )

    def test_json_dumps_with_sort_keys_is_clean(self):
        assert_clean(
            """\
            import hashlib
            import json

            def spec_key(spec):
                blob = json.dumps(spec, sort_keys=True)
                return hashlib.sha256(blob.encode()).hexdigest()
            """
        )


# ----------------------------------------------------------------------
# FLT001 — float determinism under the bitwise contract
# ----------------------------------------------------------------------
class TestFloatDeterminism:
    BAD_BODY = """\
        def total(values):
            return sum({v * 2.0 for v in values})
        """

    def test_fires_in_bitwise_contract_file(self):
        assert_fires(
            '"""This file promises byte-identical results."""\n'
            + textwrap.dedent(self.BAD_BODY),
            "FLT001",
            line=3,
        )

    def test_quiet_without_contract_docstring(self):
        assert_clean(
            '"""Ordinary statistics helpers."""\n'
            + textwrap.dedent(self.BAD_BODY)
        )

    def test_genexp_over_set_fires(self):
        assert_fires(
            """\
            '''Totals here are bitwise-reproducible.'''

            def total(pairs):
                return sum(x + 1.0 for x in set(pairs))
            """,
            "FLT001",
        )

    def test_numpy_sum_over_set_fires(self):
        assert_fires(
            """\
            '''Totals here are bitwise-reproducible.'''
            import numpy as np

            def total(values):
                return np.sum(frozenset(values))
            """,
            "FLT001",
        )

    def test_ordered_reduction_is_clean(self):
        assert_clean(
            """\
            '''Totals here are bitwise-reproducible.'''

            def total(values):
                return sum(sorted(set(values)))
            """
        )


# ----------------------------------------------------------------------
# SCH001 — snapshot schema drift
# ----------------------------------------------------------------------
class TestSchemaDrift:
    def test_undeclared_field_fires(self):
        assert_fires(
            """\
            FIELDS = frozenset({"tick", "metrics"})

            def snapshot(state):  # repro-lint: schema=FIELDS
                return {"tick": state.tick, "hostname": "db01"}
            """,
            "SCH001",
            line=4,
        )

    def test_subscript_write_checked(self):
        assert_fires(
            """\
            FIELDS = frozenset({"tick"})

            def snapshot(state):  # repro-lint: schema=FIELDS
                record = {"tick": state.tick}
                record["surprise"] = 1
                return record
            """,
            "SCH001",
            line=5,
        )

    def test_serialized_not_returned_payload_checked(self):
        assert_fires(
            """\
            import pickle

            FIELDS = frozenset({"version"})

            def save(path, state):  # repro-lint: schema=FIELDS
                payload = {"version": 1, "extra": state}
                path.write_bytes(pickle.dumps(payload))
            """,
            "SCH001",
            line=6,
        )

    def test_declared_fields_are_clean(self):
        assert_clean(
            """\
            FIELDS = frozenset({"tick", "metrics", "devices"})

            def snapshot(state, per_device):  # repro-lint: schema=FIELDS
                record = {"tick": state.tick, "metrics": {}}
                if per_device:
                    record["devices"] = []
                return record
            """
        )

    def test_unresolvable_declaration_fires(self):
        assert_fires(
            """\
            def snapshot(state):  # repro-lint: schema=MISSING_FIELDS
                return {"tick": 1}
            """,
            "SCH001",
            line=1,
        )

    def test_marker_off_def_line_fires(self):
        assert_fires(
            """\
            FIELDS = frozenset({"tick"})

            # repro-lint: schema=FIELDS
            x = 1
            """,
            "SCH001",
            line=3,
        )

    def test_non_static_declaration_fires(self):
        assert_fires(
            """\
            BASE = ("tick",)
            FIELDS = frozenset({"metrics", *BASE})

            def snapshot(state):  # repro-lint: schema=FIELDS
                return {"metrics": {}}
            """,
            "SCH001",
        )


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_disable_silences_finding(self):
        assert_clean(
            """\
            import numpy as np

            np.random.seed(42)  # repro-lint: disable=RNG001
            """
        )

    def test_disable_list_covers_multiple_rules(self):
        assert_clean(
            """\
            import hashlib
            import json

            def spec_key(spec, items):
                blob = json.dumps(spec)  # repro-lint: disable=HSH002
                for i in set(items):  # repro-lint: disable=HSH001
                    blob += i
                return hashlib.sha256(blob.encode()).hexdigest()
            """
        )

    def test_wrong_id_does_not_suppress(self):
        findings = lint(
            """\
            import numpy as np

            np.random.seed(42)  # repro-lint: disable=HSH001
            """
        )
        ids = rule_ids(findings)
        assert "RNG001" in ids
        assert UNUSED_SUPPRESSION_ID in ids

    def test_unused_suppression_fires(self):
        assert_fires(
            """\
            x = 1  # repro-lint: disable=RNG001
            """,
            UNUSED_SUPPRESSION_ID,
            line=1,
        )

    def test_used_and_unused_ids_split(self):
        findings = lint(
            """\
            import numpy as np

            np.random.seed(0)  # repro-lint: disable=RNG001,HSH001
            """
        )
        assert rule_ids(findings) == [UNUSED_SUPPRESSION_ID]
        assert "HSH001" in findings[0].message


# ----------------------------------------------------------------------
# driver edge cases
# ----------------------------------------------------------------------
class TestDriver:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == [PARSE_ERROR_ID]

    def test_findings_sorted_by_location(self):
        findings = lint(
            """\
            import numpy as np

            np.random.seed(1)
            np.random.seed(0)
            """
        )
        assert [f.line for f in findings] == [3, 4]

    def test_unknown_select_raises(self):
        from repro.lint import get_rules

        with pytest.raises(KeyError, match="NOPE999"):
            get_rules(["NOPE999"])
