"""Property-based tests (hypothesis) for fault-plan determinism.

The fault subsystem's core contract: a fault plan is a pure function of
(seed, horizon, component inventory).  Identical seeds must produce
byte-identical traces -- that is what makes an ablation ("same drive,
resilience on vs off") a controlled experiment rather than two different
storms.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.sim import Simulator
from repro.sim.sanitizer import DeterminismSanitizer

PROCESSOR_POOL = ["vehicle/cpu", "vehicle/gpu", "edge/gpu", "cloud/xeon"]
LINK_POOL = ["edge-vehicle", "cloud-vehicle", "cloud-edge"]

inventories = st.fixed_dictionaries(
    {
        "processors": st.lists(
            st.sampled_from(PROCESSOR_POOL), unique=True, max_size=4
        ),
        "links": st.lists(st.sampled_from(LINK_POOL), unique=True, max_size=3),
        "services": st.lists(
            st.sampled_from(["adas", "kidnapper-search"]), unique=True, max_size=2
        ),
        "collectors": st.lists(
            st.sampled_from(["obd", "camera"]), unique=True, max_size=2
        ),
    }
)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       horizon=st.floats(min_value=1.0, max_value=3_600.0, allow_nan=False),
       inventory=inventories)
@settings(max_examples=50, deadline=None)
def test_identical_seeds_produce_byte_identical_traces(seed, horizon, inventory):
    first = FaultPlan.generate(seed=seed, horizon_s=horizon, **inventory)
    second = FaultPlan.generate(seed=seed, horizon_s=horizon, **inventory)
    assert first.trace() == second.trace()
    assert first.to_json() == second.to_json()
    assert first == second


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       inventory=inventories)
@settings(max_examples=25, deadline=None)
def test_different_seeds_produce_different_traces(seed, inventory):
    horizon = 3_600.0  # long enough that a non-empty inventory draws faults
    first = FaultPlan.generate(seed=seed, horizon_s=horizon, **inventory)
    second = FaultPlan.generate(seed=seed + 1, horizon_s=horizon, **inventory)
    if len(first) == 0 and len(second) == 0:
        # Empty inventory: both plans are vacuously empty, and equal.
        assert not any(inventory.values())
        return
    assert first.events != second.events


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_injector_replay_is_deterministic(seed):
    """Replaying one plan on two fresh simulators logs identical traces."""
    plan = FaultPlan.generate(
        seed=seed,
        horizon_s=600.0,
        processors=PROCESSOR_POOL,
        links=LINK_POOL,
        cloud=True,
    )
    traces = []
    sanitizers = []
    for _ in range(2):
        sim = Simulator()
        sanitizer = DeterminismSanitizer(sim)
        injector = FaultInjector(sim, plan)
        sim.run()
        traces.append(list(injector.trace))
        sanitizers.append(sanitizer)
    assert traces[0] == traces[1]
    # The runtime sanitizer cross-checks the injector's own trace: the
    # full event-loop schedule must also be bit-identical across replays.
    assert sanitizers[0].trace_hash == sanitizers[1].trace_hash
    assert sanitizers[0].diff(sanitizers[1]) is None
    # Every outage onset in the plan appears as a logged down-transition
    # (slowdowns and degradations log under their own labels).
    outage_kinds = (
        FaultKind.PROCESSOR_DOWN,
        FaultKind.LINK_DOWN,
        FaultKind.CLOUD_UNREACHABLE,
    )
    outages = sum(1 for e in plan.events if e.kind in outage_kinds)
    assert sum(1 for _when, transition, _key in traces[0] if transition == "down") == outages
