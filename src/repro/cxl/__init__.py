"""CXL substrate: protocol messages, links, Type 3 devices, fabric switches.

The package models the CXL 2.0/3.0 constructs the paper relies on:

* ``CXL.mem`` M2S request / S2M response messages
  (:mod:`repro.cxl.protocol`),
* the FlexBus physical link with bandwidth occupancy and retimer latency
  (:mod:`repro.cxl.link`),
* Type 3 memory expanders built from the DRAM substrate
  (:mod:`repro.cxl.device`),
* the fabric switch with upstream/downstream ports, virtual CXL switches
  (VCS) and PPB/VPPB routing (:mod:`repro.cxl.switch`),
* the fabric manager that binds devices to virtual hierarchies
  (:mod:`repro.cxl.fabric_manager`),
* the host/device bias table (:mod:`repro.cxl.bias_table`), and
* multi-switch fabric topologies (:mod:`repro.cxl.topology`).
"""

from repro.cxl.bias_table import BiasMode, BiasTable
from repro.cxl.device import CXLType3Device
from repro.cxl.fabric_manager import FabricManager, PortBinding
from repro.cxl.link import CXLLink
from repro.cxl.protocol import CXLMemM2S, CXLMemS2M, MemOpcode
from repro.cxl.switch import FabricSwitch, SwitchPort
from repro.cxl.topology import FabricTopology

__all__ = [
    "BiasMode",
    "BiasTable",
    "CXLType3Device",
    "FabricManager",
    "PortBinding",
    "CXLLink",
    "CXLMemM2S",
    "CXLMemS2M",
    "MemOpcode",
    "FabricSwitch",
    "SwitchPort",
    "FabricTopology",
]
