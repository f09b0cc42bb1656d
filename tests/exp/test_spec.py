"""RunSpec: the one way to build a run.

Covers the construction surface (workload name or class, model name or
spec), the content-hash identity shared by every spec type, and the
seed-threading contract (workload and simulator seeded alike).
"""

import pickle

import pytest

from repro.core.models import MODEL_REGISTRY, ModelSpec, resolve_model
from repro.exp import RunSpec, digest, run_grid
from repro.sim.config import HardwareModel, MachineConfig, PersistencyModel
from repro.workloads.base import Workload
from repro.workloads.microbench import FenceLatencyMicrobench


class TestConstruction:
    def test_accepts_workload_name(self):
        spec = RunSpec("fence_latency", "asap_rp")
        assert spec.workload == "fence_latency"

    def test_accepts_workload_class(self):
        spec = RunSpec(FenceLatencyMicrobench, "asap_rp")
        assert spec.workload == "fence_latency"

    def test_unknown_workload_name_errors(self):
        with pytest.raises(KeyError, match="unknown workload"):
            RunSpec("nope", "asap_rp")

    def test_unregistered_workload_class_errors(self):
        class Rogue(Workload):
            name = "fence_latency"  # shadows a registered name

        with pytest.raises(ValueError, match="not the registered"):
            RunSpec(Rogue, "asap_rp")

    def test_accepts_model_name_and_spec(self):
        by_name = RunSpec("fence_latency", "asap_rp")
        by_spec = RunSpec("fence_latency", MODEL_REGISTRY["asap_rp"])
        assert by_name.model == by_spec.model

    def test_unknown_model_errors(self):
        with pytest.raises(KeyError, match="unknown model"):
            RunSpec("fence_latency", "asap_ultra")

    def test_specs_are_hashable_and_picklable(self):
        spec = RunSpec("fence_latency", "asap_rp", ops_per_thread=10)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSeedThreading:
    """Regression for the sweep() seed bug: RunConfig must carry the
    spec's seed, not its default."""

    def test_seed_reaches_run_config(self):
        spec = RunSpec("fence_latency", "asap_rp", seed=42)
        assert spec.run_config().seed == 42

    def test_seed_reaches_workload(self):
        spec = RunSpec("fence_latency", "asap_rp", seed=42)
        assert spec.build_workload().seed == 42

    def test_run_grid_threads_seed_too(self):
        result = run_grid(
            [FenceLatencyMicrobench], ["asap_rp"],
            MachineConfig(num_cores=1), ops_per_thread=5, seed=13,
        )
        run = result.runs[("fence_latency", "asap_rp")]
        assert run.result.config.seed == 13

    def test_ops_and_threads_reach_workload(self):
        spec = RunSpec(
            "fence_latency", "asap_rp", ops_per_thread=17, num_threads=2
        )
        assert spec.build_workload().ops_per_thread == 17


class TestKey:
    def test_key_is_stable(self):
        a = RunSpec("fence_latency", "asap_rp", ops_per_thread=10)
        b = RunSpec("fence_latency", "asap_rp", ops_per_thread=10)
        assert a.key() == b.key()

    @pytest.mark.parametrize(
        "variant",
        [
            dict(model="hops_rp"),
            dict(seed=8),
            dict(ops_per_thread=11),
            dict(num_threads=2),
            dict(machine=MachineConfig(num_cores=8)),
            dict(machine=MachineConfig(pb_entries=16)),
        ],
    )
    def test_key_covers_every_field(self, variant):
        base = dict(
            workload="fence_latency", model="asap_rp", ops_per_thread=10
        )
        assert RunSpec(**base).key() != RunSpec(**{**base, **variant}).key()

    def test_display_name_does_not_split_the_cache(self):
        # "hops" and "hops_rp" are the same design; renaming a spec for
        # figure labels must not force a recompute.
        alias = RunSpec("fence_latency", resolve_model("hops"))
        canonical = RunSpec("fence_latency", "hops_rp")
        assert alias.model.name == "hops"
        assert alias.key() == canonical.key()

    def test_custom_spec_same_design_shares_key(self):
        custom = ModelSpec("m", HardwareModel.ASAP, PersistencyModel.RELEASE)
        assert (
            RunSpec("fence_latency", custom).key()
            == RunSpec("fence_latency", "asap_rp").key()
        )

    def test_keys_are_pinned(self):
        """The keys existing caches were written under, one per spec
        type: changing one orphans every ResultCache entry and fabric
        store of that type."""
        from repro.crashtest.campaign import CrashCellSpec
        from repro.litmus.corpus import build_corpus
        from repro.litmus.spec import LitmusSpec

        test = build_corpus(7)[0]
        assert test.name == "mp_fenced"
        pinned = [
            (RunSpec("nstore", "asap_rp", ops_per_thread=40, num_threads=4,
                     seed=7),
             "49b5b06a692abeeeabb5152b72d9454f3d4552ce22f0363979148b6b1cbe1799"),
            (CrashCellSpec("nstore", "asap_rp", points=8, ops_per_thread=40,
                           seed=7),
             "83ec3766fd004c7d5e996e3fcc7767f17490334ffac263edbe7ec3f4d231a524"),
            (LitmusSpec(test, "asap_rp", points=24, seed=7),
             "426a75dc2ec83a40a70c2230a2d8d6d1af12820c856d47daf8ef0992eea0a93f"),
        ]
        for spec, key in pinned:
            assert spec.key() == digest(spec.describe()) == key, spec.label()
