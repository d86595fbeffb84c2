"""Privacy module: pseudonym rotation and location generalization.

Paper SIV-C: "To protect the privacy of data sharing between vehicles, some
identity privacy protection schemes will be provided by the Privacy module.
For example, the vehicle can use the pseudonym, generated and periodically
updated by the Privacy module, for privacy protection in data sharing."

Paper SIII-D also flags GPS-trace analysis ("home address, medical
disease") -- the :class:`LocationFuzzer` generalizes coordinates onto a
grid before they leave the vehicle.
"""

from __future__ import annotations

import hashlib
import hmac
import math

__all__ = ["PseudonymManager", "LocationFuzzer"]


class PseudonymManager:
    """Unlinkable, periodically-rotated vehicle pseudonyms.

    A pseudonym is HMAC(secret, vehicle_id || epoch): stable within an
    epoch (so short-lived sessions keep working), unlinkable across epochs
    without the secret, and verifiable by the issuer.
    """

    def __init__(self, vehicle_id: str, secret: bytes, rotation_period_s: float = 300.0):
        if rotation_period_s <= 0:
            raise ValueError("rotation period must be positive")
        if not secret:
            raise ValueError("secret must be non-empty")
        self.vehicle_id = vehicle_id
        self._secret = secret
        self.rotation_period_s = rotation_period_s

    def epoch_of(self, time_s: float) -> int:
        return int(time_s // self.rotation_period_s)

    def pseudonym(self, time_s: float) -> str:
        """The pseudonym valid at simulation time ``time_s``."""
        message = f"{self.vehicle_id}|{self.epoch_of(time_s)}".encode()
        return hmac.new(self._secret, message, hashlib.sha256).hexdigest()[:16]

    def verify(self, pseudonym: str, time_s: float, slack_epochs: int = 1) -> bool:
        """Issuer-side check: does this pseudonym belong to this vehicle,
        within ``slack_epochs`` of clock skew?"""
        epoch = self.epoch_of(time_s)
        for candidate in range(epoch - slack_epochs, epoch + slack_epochs + 1):
            message = f"{self.vehicle_id}|{candidate}".encode()
            expected = hmac.new(self._secret, message, hashlib.sha256).hexdigest()[:16]
            if hmac.compare_digest(expected, pseudonym):
                return True
        return False


class LocationFuzzer:
    """Grid generalization of (latitude-like, longitude-like) coordinates.

    ``grid_m`` is the cell size: all positions within a cell report the
    cell centre, so an observer learns the area, not the address.
    """

    def __init__(self, grid_m: float = 500.0):
        if grid_m <= 0:
            raise ValueError("grid size must be positive")
        self.grid_m = grid_m

    def generalize(self, x_m: float, y_m: float) -> tuple[float, float]:
        """Snap a metric coordinate pair to its cell centre."""
        gx = (math.floor(x_m / self.grid_m) + 0.5) * self.grid_m
        gy = (math.floor(y_m / self.grid_m) + 0.5) * self.grid_m
        return gx, gy

