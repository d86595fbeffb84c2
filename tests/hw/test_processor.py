"""Unit tests for processor models."""

import pytest

from repro.hw import ProcessorKind, ProcessorModel, WorkloadClass
from repro.hw import catalog


def make_cpu(**kwargs):
    defaults = dict(name="cpu", kind=ProcessorKind.CPU, peak_gops=100.0, tdp_watts=50.0)
    defaults.update(kwargs)
    return ProcessorModel(**defaults)


def test_peak_must_be_positive():
    with pytest.raises(ValueError):
        make_cpu(peak_gops=0.0)


def test_idle_power_defaults_to_ten_percent_of_tdp():
    assert make_cpu().idle_watts == pytest.approx(5.0)


def test_explicit_idle_power_respected():
    assert make_cpu(idle_watts=2.0).idle_watts == 2.0


def test_efficiency_override_merges_with_defaults():
    cpu = make_cpu(efficiency={WorkloadClass.DNN: 0.5})
    assert cpu.efficiency[WorkloadClass.DNN] == 0.5
    # Non-overridden classes keep their defaults.
    assert cpu.efficiency[WorkloadClass.CONTROL] > 0.0


def test_effective_gops_is_peak_times_efficiency():
    cpu = make_cpu(efficiency={WorkloadClass.DNN: 0.2})
    assert cpu.effective_gops(WorkloadClass.DNN) == pytest.approx(20.0)


def test_execution_time_formula():
    cpu = make_cpu(efficiency={WorkloadClass.DNN: 0.2}, launch_overhead_s=0.001)
    # 10 Gops at 20 Gop/s = 0.5 s plus overhead.
    assert cpu.execution_time(10.0, WorkloadClass.DNN) == pytest.approx(0.501)


def test_execution_time_negative_work_raises():
    with pytest.raises(ValueError):
        make_cpu().execution_time(-1.0, WorkloadClass.DNN)


def test_unsupported_workload_raises():
    asic = ProcessorModel(
        name="npu", kind=ProcessorKind.ASIC, peak_gops=1000.0, tdp_watts=10.0
    )
    assert not asic.supports(WorkloadClass.CONTROL)
    with pytest.raises(ValueError):
        asic.execution_time(1.0, WorkloadClass.CONTROL)


def test_energy_is_tdp_times_time():
    assert make_cpu().energy(2.0) == pytest.approx(100.0)


def test_gpu_beats_cpu_on_dnn_but_not_control():
    cpu = catalog.intel_i7_6700()
    gpu = catalog.tesla_v100()
    assert gpu.effective_gops(WorkloadClass.DNN) > cpu.effective_gops(WorkloadClass.DNN)
    assert cpu.effective_gops(WorkloadClass.CONTROL) > gpu.effective_gops(
        WorkloadClass.CONTROL
    )


def test_figure3_catalog_ordering_matches_paper():
    """The paper's Figure 3 speed ranking: V100 < TX2-MaxP < i7 < TX2-MaxQ < MNCS."""
    work_gop = 11.4  # Inception v3 forward pass op count
    times = {
        label: factory().execution_time(work_gop, WorkloadClass.DNN)
        for label, factory in catalog.FIGURE3_DEVICES
    }
    order = sorted(times, key=times.get)
    assert order == ["GPU#3", "GPU#2", "CPU-based", "GPU#1", "DSP-based"]


def test_figure3_power_ordering():
    powers = [factory().tdp_watts for _label, factory in catalog.FIGURE3_DEVICES]
    # DSP < TX2 Max-Q < TX2 Max-P < CPU < V100, exactly the paper's bars.
    assert powers == sorted(powers)
