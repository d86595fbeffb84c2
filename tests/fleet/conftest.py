"""Fleet test fixtures."""

import pytest

from repro.fleet.runtime import PartitionRuntime

from ..grants import outstanding_grants


@pytest.fixture
def audited_partitions(monkeypatch):
    """Audit every partition as it finishes: no vehicle may still hold or
    queue a DSF grant.  Returns the list of partitions audited, so a test
    can tell the audit ran."""
    finish = PartitionRuntime.finish
    audited = []

    def audit(runtime):
        ack = finish(runtime)
        leaks = {
            v: n for v, s in runtime.scenarios.items()
            if (n := outstanding_grants(s))
        }
        assert not leaks, f"grants outstanding at finish: {leaks}"
        audited.append(runtime.spec.partition)
        return ack

    monkeypatch.setattr(PartitionRuntime, "finish", audit)
    return audited
