"""Stability checks on the public API surface."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("module", [
        "repro.accounting",
        "repro.attacks",
        "repro.audit",
        "repro.baselines",
        "repro.baselines.airavat",
        "repro.baselines.pinq",
        "repro.cli",
        "repro.core",
        "repro.datasets",
        "repro.estimators",
        "repro.experiments",
        "repro.mechanisms",
        "repro.runtime",
        "repro.streaming",
    ])
    def test_subpackages_importable_with_all(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_every_public_module_has_a_docstring(self):
        import pkgutil

        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing __main__ modules runs their CLI
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"


class TestLazyFacades:
    """The package facades re-export lazily (PEP 562) and faithfully."""

    FACADES = (
        "repro", "repro.core", "repro.mechanisms", "repro.runtime",
        "repro.runtime.remote",
    )

    @pytest.mark.parametrize("facade", FACADES)
    def test_every_export_is_its_defining_modules_object(self, facade):
        package = importlib.import_module(facade)
        exported = [
            (module, name)
            for module, names in package._EXPORTS.items()
            for name in names
        ]
        assert sorted(package.__all__) == sorted(name for _, name in exported)
        for module, name in exported:
            value = getattr(package, name)
            assert value is getattr(importlib.import_module(module), name), name
            # A type alias (``RandomSource``) is a ``typing`` object
            # with no defining module of its own; identity is checked.
            if (isinstance(value, type) or callable(value)) and (
                value.__module__ != "typing"
            ):
                assert value.__module__ == module, (facade, name)
            assert name in dir(package)

    @pytest.mark.parametrize("facade", FACADES)
    def test_star_import_binds_all(self, facade):
        namespace = {}
        exec(f"from {facade} import *", namespace)
        package = importlib.import_module(facade)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
            repro.NoSuchName

    def test_a_bare_import_loads_no_tier(self):
        """``import repro`` (which every ``repro.*`` import runs) loads
        neither the accounting tier nor the server tier."""
        import os
        import subprocess
        import sys

        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(' '.join(sorted(sys.modules)))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": source_root},
        ).stdout.split()
        assert "repro" in loaded
        offenders = [
            name for name in loaded
            if name.startswith(("repro.accounting", "repro.server"))
        ]
        assert not offenders, offenders


class TestSubprocessSpawn:
    def test_spawn_start_method_supported(self):
        """Spawn-based chambers need picklable programs; our estimator
        dataclasses are, so the slow-but-portable start method works."""
        import numpy as np

        from repro.estimators.statistics import Mean
        from repro.runtime.sandbox import SubprocessChamber

        chamber = SubprocessChamber(start_method="spawn")
        block = np.linspace(0.0, 10.0, 20).reshape(-1, 1)
        result = chamber.run_block(Mean(), block, 1, np.array([0.0]))
        assert result.succeeded
        assert result.output[0] == pytest.approx(block.mean())
