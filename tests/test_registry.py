"""The experiment registry behind the CLI and the sweep farm.

Each golden-backed entry (``rebalance``, ``protocols``) runs on its
default seeds against its committed golden here, in tier 1, so a
fingerprint drift fails the test suite and not only the CLI.
"""

import pytest

from repro import goldens
from repro.errors import TransactionRetryError
from repro.harness import farm, rebalance
from repro.harness.registry import REGISTRY
from repro.txn import TransactionCoordinator

GOLDEN_SUITES = sorted(name for name, exp in REGISTRY.items() if exp.golden)

#: Each command's option strings, as its ``--help`` lists them.
COMMAND_FLAGS = {
    "chaos": {"--seed", "--seeds", "--json", "--parallel", "--protocol"},
    "verify": {"--scenario", "--seed", "--seeds", "--json", "--dump",
               "--check", "--parallel", "--protocol"},
    "repair": {"--scenario", "--seed"},
    "rebalance": {"--seed", "--seeds", "--json", "--update-golden",
                  "--no-golden"},
    "protocols": {"--seed", "--seeds", "--json", "--update-golden",
                  "--no-golden"},
    "trace": {"--workload", "--scenario", "--seed", "--json"},
    "metrics": {"--workload", "--scenario", "--seed", "--json", "--prefix"},
    "bench": {"--workload", "--obs", "--seed", "--scale", "--alloc",
              "--json"},
    "scale": {"--seed", "--seeds", "--parallel", "--quick", "--json",
              "--smoke", "--update-baseline"},
    "sweep": {"--kinds", "--scenarios", "--seeds", "--parallel", "--json",
              "--out"},
}


class TestRegistry:
    def test_command_flags(self):
        commands = {name: exp for name, exp in REGISTRY.items() if exp.main}
        assert set(commands) == set(COMMAND_FLAGS)
        for name, exp in commands.items():
            options = {option for action in exp.parser()._actions
                       for option in action.option_strings}
            assert options - {"-h", "--help"} == COMMAND_FLAGS[name], name

    def test_farm_kinds_come_from_the_registry(self):
        assert farm.SWEEP_KINDS == ("chaos", "verify", "scale", "bench")
        for kind in farm.SWEEP_KINDS:
            assert REGISTRY[kind].jobs is not None

    def test_non_farmable_entry_is_rejected_by_the_farm(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            farm.run_job({"kind": "trace", "seed": 0})


class TestGoldenSuites:
    def test_golden_backed_entries(self):
        assert GOLDEN_SUITES == ["protocols", "rebalance"]

    @pytest.mark.parametrize("name", GOLDEN_SUITES)
    def test_default_seeds_match_committed_golden(self, name):
        exp = REGISTRY[name]
        assert exp.seeds == (0, 1, 2)
        suite = exp.run(list(exp.seeds))
        assert exp.ok(suite)
        path, section = exp.golden
        assert goldens.check(path, exp.fingerprint(suite), section) == []


def _failing_run(error):
    def run(self, gateway, txn_fn, **kwargs):
        raise error
        yield  # pragma: no cover - makes this a generator
    return run


class TestRebalanceClientErrors:
    def test_database_retry_errors_count_as_failed_ops(self, monkeypatch):
        monkeypatch.setattr(TransactionCoordinator, "run", _failing_run(
            TransactionRetryError("injected")))
        doc = rebalance.run_rebalance(0, elastic=False)
        assert doc["committed"] == 0 and doc["failed"] > 0

    def test_programming_errors_propagate(self, monkeypatch):
        monkeypatch.setattr(TransactionCoordinator, "run", _failing_run(
            RuntimeError("client bug")))
        with pytest.raises(RuntimeError, match="client bug"):
            rebalance.run_rebalance_suite([0])
