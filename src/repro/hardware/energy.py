"""On-device energy estimation.

Implements the paper's energy model (Sec. 3.5):

``E_total = E_idle + E_run + E_comm``

where ``E_run`` is the device's busy power times its execution time,
``E_idle`` its idle power times the time it spends waiting (for the edge to
compute and reply), and ``E_comm`` the radio energy of uploading intermediate
data, computed with the throughput→power model of Huang et al. that the
paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec
from .network import WirelessLink


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase device energy of one inference."""

    idle_j: float
    run_j: float
    comm_j: float

    @property
    def total_j(self) -> float:
        return self.idle_j + self.run_j + self.comm_j


def estimate_device_energy(device: DeviceSpec, link: WirelessLink,
                           device_busy_ms: float, device_idle_ms: float,
                           uploaded_bytes: float) -> EnergyBreakdown:
    """Estimate per-inference device energy from timing and traffic totals.

    Parameters
    ----------
    device:
        The device-side platform.
    link:
        The wireless uplink (determines transmit power and time).
    device_busy_ms:
        Time the device spends executing operations.
    device_idle_ms:
        Time the device spends waiting (edge compute + downlink latency).
    uploaded_bytes:
        Total raw bytes the device uploads during the inference.
    """
    if device_busy_ms < 0 or device_idle_ms < 0 or uploaded_bytes < 0:
        raise ValueError("timing and traffic quantities must be non-negative")
    run_j = device.compute_energy_j(device_busy_ms)
    idle_j = device.idle_energy_j(device_idle_ms)
    comm_time_ms = link.transfer_time_ms(int(uploaded_bytes))
    comm_j = link.transmit_power_w() * comm_time_ms / 1e3
    return EnergyBreakdown(idle_j=idle_j, run_j=run_j, comm_j=comm_j)
