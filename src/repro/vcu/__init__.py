"""VCU: heterogeneous vehicle computing unit (mHEP + DSF + QoS classes)."""

from .dsf import DSF, JobResult
from .mhep import FIRST_LEVEL, MHEP, SECOND_LEVEL, Device
from .profiles import QoSClass

__all__ = [
    "DSF",
    "Device",
    "FIRST_LEVEL",
    "JobResult",
    "MHEP",
    "QoSClass",
    "SECOND_LEVEL",
]
