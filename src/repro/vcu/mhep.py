"""mHEP: the multi-level heterogeneous computing platform (paper SIV-B1).

Two levels of devices:

* **1stHEP** -- the VCU board itself: CPU + GPU + FPGA/ASIC/DSP, storage
  and radios.  Always present.
* **2ndHEP** -- opportunistic on-board resources: passenger phones, the
  legacy on-board controller.  They *join and leave dynamically* ("DSF
  allows computing resources to join and exit dynamically, which is used
  to manage the 2ndHEP and some plug-and-play computing resources").

Each registered device gets a simulation Resource so concurrent tasks
queue for it, and a running utilization accumulator for the profiles DSF
consults.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.processor import ProcessorModel, WorkloadClass
from ..sim.core import Simulator
from ..sim.resources import Resource

__all__ = ["Device", "MHEP", "FIRST_LEVEL", "SECOND_LEVEL"]

FIRST_LEVEL = 1
SECOND_LEVEL = 2


@dataclass(eq=False)
class Device:
    """A processor registered with the platform, with its queue and stats.

    Compared and hashed by identity: a device re-registered under the
    same name is a new device."""

    model: ProcessorModel
    level: int
    resource: Resource
    busy_seconds: float = 0.0
    tasks_completed: int = 0
    online: bool = True

    @property
    def name(self) -> str:
        return self.model.name

    def utilization(self, now: float) -> float:
        """Fraction of wall time this device has been busy."""
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / now)


class MHEP:
    """Device registry with dynamic membership."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._devices: dict[str, Device] = {}
        # Workload value -> online devices that support it; register and
        # unregister, the only writers of ``Device.online``, clear it.
        self._by_workload: dict[str, list[Device]] = {}
        #: Counts joins and leaves: what :meth:`devices_for` returns holds
        #: while it does.
        self.membership = 0

    def register(self, model: ProcessorModel, level: int = FIRST_LEVEL) -> Device:
        """Attach a device (1stHEP at boot; 2ndHEP at any time)."""
        if level not in (FIRST_LEVEL, SECOND_LEVEL):
            raise ValueError(f"level must be 1 or 2, got {level}")
        if model.name in self._devices and self._devices[model.name].online:
            raise ValueError(f"device {model.name!r} already registered")
        device = Device(model=model, level=level, resource=Resource(self.sim, capacity=1))
        self._devices[model.name] = device
        self._by_workload.clear()
        self.membership += 1
        self.sim.obs.count("vcu.devices_registered", level=level)
        self.sim.obs.gauge("vcu.devices_online", len(self.online_devices))
        return device

    def unregister(self, name: str) -> Device:
        """Detach a device (phone leaves the car, stick unplugged).

        The device is marked offline immediately; tasks already holding it
        finish, but no new work is dispatched to it.
        """
        device = self._devices.get(name)
        if device is None or not device.online:
            raise KeyError(f"no online device named {name!r}")
        device.online = False
        self._by_workload.clear()
        self.membership += 1
        self.sim.obs.count("vcu.devices_unregistered")
        self.sim.obs.gauge("vcu.devices_online", len(self.online_devices))
        return device

    def device(self, name: str) -> Device:
        device = self._devices.get(name)
        if device is None:
            raise KeyError(f"unknown device {name!r}")
        return device

    @property
    def online_devices(self) -> list[Device]:
        return [d for d in self._devices.values() if d.online]

    def devices_for(self, workload: WorkloadClass) -> list[Device]:
        """Online devices able to run the workload class, in registration
        order (a shared list; do not change it)."""
        devices = self._by_workload.get(workload._value_)
        if devices is None:
            devices = self._by_workload[workload._value_] = [
                d for d in self.online_devices if d.model.supports(workload)
            ]
        return devices

    def profiles(self) -> dict[str, dict]:
        """The resource profiles DSF consults (paper: static + dynamic)."""
        now = self.sim.now
        return {
            device.name: {
                "level": device.level,
                "peak_gops": device.model.peak_gops,
                "tdp_watts": device.model.tdp_watts,
                "queue_length": device.resource.queue_length,
                "busy": device.resource.count > 0,
                "utilization": device.utilization(now),
                "tasks_completed": device.tasks_completed,
            }
            for device in self.online_devices
        }
