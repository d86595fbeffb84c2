"""Service QoS classes: the processing priority DSF honours (paper SIV-B2).

"DSF determines the resources type and amounts which will be allocated to
each task according to the dynamic status of each resource, QoS requirement
and processing priority of each task" -- a service's QoS class is the
priority its task graphs are submitted with.
"""

from __future__ import annotations

__all__ = ["QoSClass"]


class QoSClass:
    """Service criticality classes, ordered by priority (lower = first)."""

    SAFETY_CRITICAL = 0   # autonomous driving, collision avoidance
    LATENCY_SENSITIVE = 1  # ADAS alerts, third-party real-time apps
    INTERACTIVE = 2        # infotainment
    BACKGROUND = 3         # diagnostics batch analysis, uploads
    ALL = (SAFETY_CRITICAL, LATENCY_SENSITIVE, INTERACTIVE, BACKGROUND)
