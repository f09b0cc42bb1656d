"""One model registry: CLI, sweeps, and benchmarks must agree."""

import pytest

from repro.core.models import (
    MODEL_ALIASES,
    MODEL_REGISTRY,
    RP_MODELS,
    STANDARD_MODELS,
    model_names,
    resolve_model,
)
from repro.sim.config import HardwareModel, PersistencyModel


class TestRegistry:
    def test_every_hardware_model_is_represented(self):
        covered = {spec.hardware for spec in MODEL_REGISTRY.values()}
        assert covered == set(HardwareModel)

    def test_names_are_keys(self):
        for name, spec in MODEL_REGISTRY.items():
            assert spec.name == name

    def test_resolve_canonical(self):
        for name in MODEL_REGISTRY:
            assert resolve_model(name) is MODEL_REGISTRY[name]

    def test_resolve_alias_keeps_display_name(self):
        spec = resolve_model("hops")
        assert spec.name == "hops"
        assert spec.hardware is HardwareModel.HOPS
        assert spec.persistency is PersistencyModel.RELEASE

    def test_aliases_point_into_registry(self):
        for alias, target in MODEL_ALIASES.items():
            assert target in MODEL_REGISTRY
            assert alias not in MODEL_REGISTRY

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve_model("asap_turbo")


class TestSingleSourceOfTruth:
    def test_cli_choices_equal_registry(self):
        """The CLI's model choices ARE the registry (plus its aliases) --
        the historical ``cli.MODEL_CHOICES`` table (which drifted from
        the sweeps' models) must not come back."""
        import repro.cli as cli
        from repro.core.models import MODEL_ALIASES

        parser = cli.build_parser()
        run_parser = next(
            a for a in parser._subparsers._group_actions[0].choices.values()
            if a.prog.endswith(" run")
        )
        model_action = next(
            a for a in run_parser._actions if a.dest == "model"
        )
        assert set(model_action.choices) == (
            set(MODEL_REGISTRY) | set(MODEL_ALIASES)
        )
        assert not hasattr(cli, "MODEL_CHOICES")

    def test_sweep_models_resolve_in_registry(self):
        """Every model the figure sweeps name resolves to a registry
        design (names may be RP display aliases, never novel tables)."""
        for spec in STANDARD_MODELS + RP_MODELS:
            resolved = resolve_model(
                spec.name if spec.name not in MODEL_ALIASES else spec.name
            )
            assert (resolved.hardware, resolved.persistency) == (
                spec.hardware, spec.persistency
            )

    def test_standard_models_are_registry_objects(self):
        for spec in STANDARD_MODELS:
            assert MODEL_REGISTRY[spec.name] is spec

    def test_cli_list_prints_registry(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in model_names():
            assert name in out
