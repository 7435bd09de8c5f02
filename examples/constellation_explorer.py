"""Explore the Starlink constellation model from the Belgian terminal.

Shows satellite visibility, serving-satellite handovers over ten
minutes, the idle-latency floor over a day and where traffic exits
(the two PoPs the paper observed).

Usage::

    python examples/constellation_explorer.py
"""

import random
from collections import Counter

import numpy as np

from repro.leo import Constellation, StarlinkPathModel
from repro.leo.ground import default_terminal
from repro.units import to_ms


def main() -> None:
    constellation = Constellation()
    terminal = default_terminal()
    model = StarlinkPathModel(constellation=constellation)

    print(f"Constellation: {constellation.size} satellites "
          f"(Walker shell, 550 km, 53 deg)")

    indices, elevations, ranges = constellation.visible_from(
        terminal.ecef(), t=0.0)
    print(f"Visible from {terminal.name} right now: {len(indices)} "
          f"satellites above 25 deg")
    for idx, elev, rng_m in list(zip(indices, elevations, ranges))[:5]:
        print(f"  sat #{idx:<5} elevation {elev:5.1f} deg  "
              f"slant range {rng_m / 1e3:6.0f} km")

    print("\nServing-satellite schedule over 10 minutes "
          "(15 s reallocation slots):")
    last_sat = None
    for t in np.arange(0.0, 600.0, 15.0):
        snap = model.snapshot(float(t))
        marker = " <- handover" if (last_sat is not None
                                    and snap.sat_index != last_sat) else ""
        if t % 60 == 0 or marker:
            print(f"  t={t:5.0f}s sat #{snap.sat_index:<5} "
                  f"elev {snap.elevation_deg:5.1f} deg  gw "
                  f"{snap.gateway.name:<18} "
                  f"prop {to_ms(snap.one_way_propagation):5.2f} ms"
                  f"{marker}")
        last_sat = snap.sat_index

    print("\nIdle RTT to the exit PoP over one day (hourly):")
    rng = random.Random(7)
    rtts = [to_ms(model.idle_rtt(h * 3600.0, rng))
            for h in range(24)]
    print("  min %.1f ms, median %.1f ms, max %.1f ms"
          % (min(rtts), sorted(rtts)[12], max(rtts)))

    pops = Counter(model.pop_name(t)
                   for t in np.arange(0.0, 86_400.0, 300.0))
    print("\nExit PoP share over the day (paper saw exits in NL+DE):")
    total = sum(pops.values())
    for pop, count in pops.most_common():
        print(f"  {pop:<16} {100 * count / total:5.1f} %")

    # The paper's future work: what happens once ISLs switch on.
    from repro.leo.geometry import GeoPoint
    from repro.leo.isl import IslRouter

    print("\nFuture work -- inter-satellite links (paper Sec. 4):")
    router = IslRouter(constellation)
    for name, dst, bent_pipe_ms in (
            ("Fremont", GeoPoint(37.55, -121.99), 184),
            ("Singapore", GeoPoint(1.35, 103.82), 270)):
        path = router.path(model.terminal.location, dst, t=0.0)
        print(f"  {name:<10} bent pipe {bent_pipe_ms:3d} ms -> sky "
              f"path {to_ms(path.rtt):5.1f} ms "
              f"({path.hop_count} ISL hops, "
              f"{path.distance_m / 1e3:6.0f} km)")


if __name__ == "__main__":
    main()
