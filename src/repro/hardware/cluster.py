"""Cluster/system-level description and preset system builders.

A :class:`SystemSpec` is what the performance-prediction engine consumes: it
combines an accelerator, the intra-node fabric, the inter-node fabric, and
the total device count.  Preset builders reproduce the clusters the paper
studies (A100-HDR, H100-NDR, H100-NVS, H200-NVS, B200-NDR, B200-NVS).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import ConfigurationError, UnknownHardwareError
from .accelerator import AcceleratorSpec, get_accelerator
from .network import Interconnect, get_interconnect
from .node import NodeSpec


@dataclasses.dataclass(frozen=True)
class SystemSpec:
    """A full multi-node system.

    Attributes:
        name: Human-readable system name (used in reports and figures).
        node: Per-node description (device spec, count, intra-node fabric).
        inter_node_fabric: Fabric between nodes (InfiniBand generation or NVS).
        num_devices: Total number of accelerators in the system.
    """

    name: str
    node: NodeSpec
    inter_node_fabric: Interconnect
    num_devices: int

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ConfigurationError("num_devices must be at least 1")
        if self.num_devices % self.node.devices_per_node not in (0, self.num_devices):
            # Allow systems smaller than one full node (e.g. 2-GPU inference boxes).
            raise ConfigurationError(
                f"num_devices ({self.num_devices}) must be a multiple of devices_per_node "
                f"({self.node.devices_per_node}) or smaller than one node"
            )

    @property
    def accelerator(self) -> AcceleratorSpec:
        """The per-device accelerator spec."""
        return self.node.accelerator

    @property
    def devices_per_node(self) -> int:
        """Accelerators per node."""
        return self.node.devices_per_node

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the system (at least 1)."""
        return max(1, self.num_devices // self.node.devices_per_node)

    @property
    def intra_node_fabric(self) -> Interconnect:
        """Fabric between the devices of one node."""
        return self.node.intra_node_fabric

    def with_accelerator(self, accelerator: AcceleratorSpec, name: Optional[str] = None) -> "SystemSpec":
        """Return a copy of this system with every device replaced."""
        node = dataclasses.replace(self.node, accelerator=accelerator)
        return dataclasses.replace(self, name=name or self.name, node=node)

    def with_inter_node_fabric(self, fabric: Interconnect, name: Optional[str] = None) -> "SystemSpec":
        """Return a copy with a different inter-node fabric."""
        return dataclasses.replace(self, name=name or self.name, inter_node_fabric=fabric)

    def with_num_devices(self, num_devices: int) -> "SystemSpec":
        """Return a copy with a different total device count."""
        return dataclasses.replace(self, num_devices=num_devices)

    def summary(self) -> Dict[str, object]:
        """Flat summary used by reports."""
        return {
            "name": self.name,
            "accelerator": self.accelerator.name,
            "num_devices": self.num_devices,
            "devices_per_node": self.devices_per_node,
            "intra_node_fabric": self.intra_node_fabric.name,
            "inter_node_fabric": self.inter_node_fabric.name,
        }


def build_system(
    accelerator: "AcceleratorSpec | str",
    num_devices: int,
    intra_node: "Interconnect | str" = "NVLink3",
    inter_node: "Interconnect | str" = "HDR-IB",
    devices_per_node: int = 8,
    name: Optional[str] = None,
) -> SystemSpec:
    """Assemble a :class:`SystemSpec` from catalog names or explicit specs."""
    device = accelerator if isinstance(accelerator, AcceleratorSpec) else get_accelerator(accelerator)
    intra = intra_node if isinstance(intra_node, Interconnect) else get_interconnect(intra_node)
    inter = inter_node if isinstance(inter_node, Interconnect) else get_interconnect(inter_node)
    per_node = min(devices_per_node, num_devices)
    node = NodeSpec(accelerator=device, devices_per_node=per_node, intra_node_fabric=intra)
    system_name = name or f"{device.name}x{num_devices}-{inter.name}"
    return SystemSpec(name=system_name, node=node, inter_node_fabric=inter, num_devices=num_devices)


# ---------------------------------------------------------------------------
# Preset clusters used in the paper's GPU-generation scaling study (Fig. 5).
# ---------------------------------------------------------------------------

_PRESET_RECIPES = {
    # name: (accelerator, intra_node, inter_node)
    "A100-HDR": ("A100", "NVLink3", "HDR-IB"),
    "A100-NVL": ("A100", "NVLink3", "HDR-IB"),
    "H100-NDR": ("H100", "NVLink4", "NDR-IB"),
    "H100-NVS": ("H100", "NVLink4", "NVS"),
    "H200-NDR": ("H200", "NVLink4", "NDR-IB"),
    "H200-NVS": ("H200", "NVLink4", "NVS"),
    "B200-NDR": ("B200", "NVLink5", "NDR-IB"),
    "B200-NVS": ("B200", "NVLink5", "NVS-B200"),
}


def preset_cluster(name: str, num_devices: int, devices_per_node: int = 8) -> SystemSpec:
    """Build one of the named clusters from the GPU-generation scaling study."""
    key = name.strip().upper().replace("_", "-")
    # Accept the paper's "-L" suffix (large-batch variant) transparently.
    if key.endswith("-L"):
        key = key[:-2]
    if key not in _PRESET_RECIPES:
        raise UnknownHardwareError(f"unknown preset cluster {name!r}; available: {sorted(_PRESET_RECIPES)}")
    accelerator, intra, inter = _PRESET_RECIPES[key]
    return build_system(
        accelerator,
        num_devices=num_devices,
        intra_node=intra,
        inter_node=inter,
        devices_per_node=devices_per_node,
        name=name,
    )
