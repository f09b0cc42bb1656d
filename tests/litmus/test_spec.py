"""LitmusSpec identity, caching, and execution basics."""

import pytest

from repro.exp.cache import ResultCache
from repro.exp.spec import execute_spec
from repro.litmus.corpus import NAMED_BUILDERS
from repro.litmus.spec import LitmusSpec


def _spec(name="flush_ofence", **kwargs):
    return LitmusSpec(NAMED_BUILDERS[name](), "baseline", **kwargs)


class TestIdentity:
    def test_bare_name_rejected(self):
        # ops are part of the identity; a name alone under-specifies it.
        with pytest.raises(TypeError, match="LitmusTest itself"):
            LitmusSpec("flush_ofence", "baseline")

    def test_key_is_stable(self):
        assert _spec().key() == _spec().key()

    def test_program_changes_the_key(self):
        assert _spec("flush_ofence").key() != _spec("flush_none").key()

    def test_model_and_knobs_change_the_key(self):
        base = _spec()
        assert base.key() != LitmusSpec(
            NAMED_BUILDERS["flush_ofence"](), "hops"
        ).key()
        assert base.key() != _spec(points=99).key()
        assert base.key() != _spec(seed=8).key()

    def test_programs_round_trip_the_ops(self):
        test = NAMED_BUILDERS["flush_ofence"]()
        programs = _spec().programs()
        assert [tuple(ops) for ops in programs] == list(test.threads)


class TestExecution:
    def test_execute_observes_pristine_and_drained_images(self):
        result = execute_spec(_spec(points=4))
        # cycle 1 exposes the all-init image; past-drain the full one.
        assert "x=init y=init" in result.states
        assert "x=t0s1 y=t0s2" in result.states
        assert result.first_cycle["x=init y=init"] == 1
        assert result.points_run >= 4

    def test_result_caches_and_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(points=4)
        assert cache.get(spec) is None
        result = spec.execute()
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.states == result.states
        assert hit.first_cycle == result.first_cycle
