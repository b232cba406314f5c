"""synclab: a deterministic laboratory for sensor-network time synchronization.

Simulates chain networks of drifting, quantized hardware clocks under four
synchronization schemes, with the estimation workload either at the head
(beaconless reverse one-way reporting) or at the nodes (beacon flooding),
and reduces runs to message counts, energy, and measurement-time accuracy.
"""

__version__ = "0.1.0"
