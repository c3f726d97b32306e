"""Wireless link model between the device and the edge.

The paper connects all platforms to a wireless router and throttles the
uplink to 10 or 40 Mbps; transmitted intermediate data is compressed with
zlib.  This module models the link as bandwidth + round-trip latency with a
configurable compression ratio, and computes transmission energy with the
affine throughput→power model of Huang et al. (MobiSys 2012), which the
paper cites for its on-device energy estimation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WirelessLink:
    """Point-to-point wireless uplink between device and edge.

    Attributes
    ----------
    bandwidth_mbps:
        Uplink bandwidth cap in megabits per second (10 or 40 in the paper).
    rtt_ms:
        Round-trip time of the link; half of it is charged per transfer.
    compression_ratio:
        Fraction of the raw payload that remains after zlib compression
        (≈0.6 for float feature maps).
    tx_power_base_w / tx_power_per_mbps_w:
        Affine transmit-power model ``P = base + slope · throughput``
        following Huang et al.; defaults approximate a Wi-Fi/LTE radio.
    """

    bandwidth_mbps: float
    rtt_ms: float = 2.0
    compression_ratio: float = 0.6
    tx_power_base_w: float = 1.2
    tx_power_per_mbps_w: float = 0.01

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError("compression_ratio must be in (0, 1]")

    # ------------------------------------------------------------------
    def compressed_bytes(self, payload_bytes: int) -> float:
        """Size of the payload after compression."""
        return payload_bytes * self.compression_ratio

    def transfer_time_ms(self, payload_bytes: int) -> float:
        """One-way transfer time of ``payload_bytes`` of raw data."""
        if payload_bytes <= 0:
            return 0.0
        bits = self.compressed_bytes(payload_bytes) * 8.0
        return bits / (self.bandwidth_mbps * 1e6) * 1e3 + self.rtt_ms / 2.0

    def transmit_power_w(self) -> float:
        """Radio power draw while transmitting at the configured bandwidth."""
        return self.tx_power_base_w + self.tx_power_per_mbps_w * self.bandwidth_mbps


#: The two network conditions evaluated in the paper.
LINK_40MBPS = WirelessLink(bandwidth_mbps=40.0)
LINK_10MBPS = WirelessLink(bandwidth_mbps=10.0)

PAPER_LINKS = {"40mbps": LINK_40MBPS, "10mbps": LINK_10MBPS}


def get_link(name_or_mbps) -> WirelessLink:
    """Resolve a link either by name (``"10mbps"``) or numeric bandwidth."""
    if isinstance(name_or_mbps, WirelessLink):
        return name_or_mbps
    if isinstance(name_or_mbps, (int, float)):
        return WirelessLink(bandwidth_mbps=float(name_or_mbps))
    key = str(name_or_mbps).lower().strip()
    if key in PAPER_LINKS:
        return PAPER_LINKS[key]
    raise KeyError(f"unknown link {name_or_mbps!r}; known: {sorted(PAPER_LINKS)}")
