"""Public API surface tests: the README contracts must keep working."""

import importlib
import inspect

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", repro.__all__)
    def test_every_declared_export_exists(self, name):
        assert hasattr(repro, name)

    def test_builders_produce_systems(self):
        from repro.core import System

        assert isinstance(repro.make_token_ring_system(4), System)
        from repro.graphs import path

        assert isinstance(repro.make_leader_tree_system(path(3)), System)
        assert isinstance(repro.make_two_process_system(), System)
        assert isinstance(repro.make_dijkstra_system(3), System)
        assert isinstance(repro.make_herman_system(3), System)


class TestSubpackageAllLists:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs",
            "repro.core",
            "repro.schedulers",
            "repro.stabilization",
            "repro.markov",
            "repro.algorithms",
            "repro.transformer",
            "repro.analysis",
            "repro.viz",
            "repro.experiments",
        ],
    )
    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_no_duplicate_all_entries(self):
        for module_name in (
            "repro.graphs",
            "repro.core",
            "repro.schedulers",
            "repro.algorithms",
        ):
            module = importlib.import_module(module_name)
            assert len(module.__all__) == len(set(module.__all__))


def _callables(value):
    """``value`` itself when callable, plus the public methods of a class."""
    if inspect.isclass(value):
        yield value
        for name, member in vars(value).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if callable(member) and not name.startswith("_"):
                yield member
    elif callable(value):
        yield value


@pytest.mark.parametrize(
    "module_name",
    ["repro.core", "repro.markov", "repro.stabilization", "repro.schedulers"],
)
def test_no_kernel_knobs_in_public_callables(module_name):
    """There is one scalar path, over ``System``: no public callable
    takes a memo-kernel object or a switch to bypass one."""
    module = importlib.import_module(module_name)
    offenders = []
    for name in module.__all__:
        for function in _callables(getattr(module, name)):
            try:
                parameters = inspect.signature(function).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            offenders.extend(
                f"{name}: {getattr(function, '__qualname__', function)}"
                for knob in ("kernel", "use_kernel")
                if knob in parameters
            )
    assert not offenders


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_catchability(self):
        from repro.errors import GraphError, ReproError
        from repro.graphs import ring

        with pytest.raises(ReproError):
            ring(1)
        with pytest.raises(GraphError):
            ring(1)


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import (
            build_chain,
            classify,
            hitting_summary,
            make_token_ring_system,
        )
        from repro.algorithms import TokenCirculationSpec
        from repro.schedulers import (
            CentralRandomizedDistribution,
            DistributedRelation,
        )

        system = make_token_ring_system(6)
        spec = TokenCirculationSpec()
        verdict = classify(system, spec, DistributedRelation())
        assert "weak-stabilizing" in verdict.summary()
        chain = build_chain(system, CentralRandomizedDistribution())
        row = hitting_summary(chain, chain.mark(spec.legitimate)).row()
        assert row["prob1"] is True
