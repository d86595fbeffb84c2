"""End-of-run grant audit for drive and fleet tests.

The sim kernel rejects a non-event yield and a stray ``Resource.release``
as they happen; a grant that is taken and never handed back only shows
once the run is over, as a slot still held (or a request still queued).
"""

__all__ = ["outstanding_grants"]


def outstanding_grants(scenario) -> int:
    """Grants held plus requests queued over every DSF device and every
    executor slot of a :class:`~repro.scenario.DriveScenario`."""
    resources = [device.resource for device in scenario.mhep._devices.values()]
    # ``executor`` is a cached property: audit it only if the drive built it.
    executor = scenario.__dict__.get("executor")
    if executor is not None:
        resources += executor._processors.values()
        resources += executor._links.values()
    return sum(res.count + res.queue_length for res in resources)
