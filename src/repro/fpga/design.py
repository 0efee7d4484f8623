"""The golden (trojan-free) reference design.

A :class:`GoldenDesign` bundles everything that defines the genuine
AES implementation as it leaves the trusted design house:

* the LUT-mapped last-round circuit (the timing-critical logic the
  clock-glitch measurement exercises),
* its placement into the AES floorplan region of a device,
* the routed per-net delays.

The trojan-insertion flow (:mod:`repro.trojan.insertion`) takes a golden
design and returns an infected variant that keeps the golden placement
and routing untouched — only extra cells in free slices and extra load
on tapped nets are added, mirroring the paper's FPGA-Editor methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from ..netlist.aes_round_circuit import AESLastRoundCircuit
from ..netlist.netlist import Netlist
from .device import FPGADevice, aes_slice_budget, virtex5_lx30
from .floorplan import Floorplan, default_floorplan
from .placement import Placement, Placer
from .routing import Router

if TYPE_CHECKING:
    from ..variation.intra_die import IntraDieVariation


@dataclass
class GoldenDesign:
    """The genuine AES design, placed and routed on a device."""

    device: FPGADevice
    floorplan: Floorplan
    circuit: AESLastRoundCircuit
    placement: Placement
    router: Router
    net_delays_ps: Dict[str, float] = field(default_factory=dict)
    #: Intra-die offsets of this placement, one field per die
    #: (keyed on :meth:`IntraDieVariation.field_key`).
    _intra_die_fields: Dict[tuple, Dict[str, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def netlist(self) -> Netlist:
        """The structural netlist of the modelled (last-round) logic."""
        return self.circuit.netlist

    @classmethod
    def build(cls, device: Optional[FPGADevice] = None,
              floorplan: Optional[Floorplan] = None,
              router: Optional[Router] = None) -> "GoldenDesign":
        """Build, place and route the golden design on ``device``.

        The construction is deterministic: two calls with the same
        arguments produce identical placements and net delays, which is
        what lets golden and infected designs share their layout.
        """
        device = device or virtex5_lx30()
        floorplan = floorplan or default_floorplan(device)
        floorplan.validate()
        router = router or Router()
        circuit = AESLastRoundCircuit.build()
        placer = Placer(device)
        placement = placer.place(circuit.netlist, floorplan.aes_region)
        net_delays = router.net_delays(circuit.netlist, placement)
        return cls(
            device=device,
            floorplan=floorplan,
            circuit=circuit,
            placement=placement,
            router=router,
            net_delays_ps=net_delays,
        )

    def intra_die_offsets(self, variation: "IntraDieVariation"
                          ) -> Mapping[str, float]:
        """Read-only per-cell offsets of ``variation``'s die over this
        placement.

        Every design on a die, golden or infected, keeps the golden
        placement, so all of them share the one field computed here.
        """
        key = variation.field_key()
        offsets = self._intra_die_fields.get(key)
        if offsets is None:
            offsets = variation.offsets_for(self.placement.cell_positions)
            self._intra_die_fields[key] = offsets
        return MappingProxyType(offsets)

    # -- area accounting -----------------------------------------------------

    def modelled_slice_count(self) -> int:
        """Slices occupied by the modelled last-round logic."""
        return self.placement.used_slice_count()

    def aes_total_slices(self) -> int:
        """Slices the *full* AES design occupies on this device.

        The reproduction models the last round structurally; the rest of
        the AES (the other nine rounds' logic share the same datapath,
        the key schedule, control) is accounted for through the paper's
        reported utilisation (38.26 % of the device), which this method
        returns in slices.  Trojan sizes are expressed relative to this
        figure, as in the paper.
        """
        return aes_slice_budget(self.device)

    def area_fraction_of_aes(self, slice_count: float) -> float:
        """Express a slice count as a fraction of the full AES area."""
        return slice_count / float(self.aes_total_slices())


_GOLDEN_CACHE: Dict[Tuple[str, float], GoldenDesign] = {}


def build_golden_design_cached(device: Optional[FPGADevice] = None) -> GoldenDesign:
    """Build (or reuse) the golden design for ``device``.

    Building the LUT-mapped last round and placing it takes a noticeable
    fraction of a second; experiments that loop over dies and trojans
    reuse a single golden design since its construction is deterministic.
    """
    device = device or virtex5_lx30()
    key = (device.name, device.nominal_clock_period_ns)
    if key not in _GOLDEN_CACHE:
        _GOLDEN_CACHE[key] = GoldenDesign.build(device=device)
    return _GOLDEN_CACHE[key]
