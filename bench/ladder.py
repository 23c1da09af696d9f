"""Mesh-size ladder: polytropic layer timings at xi = 1 for 128, 256, 512 elements.

Usage: python3 bench/ladder.py

Prints one JSON object with ``ladder.n<N>.assemble_s``,
``ladder.n<N>.smallest_eig_s`` (cold start at s = lambda(1)) and
``ladder.n<N>.growth_rate_s``; repeated timings report their median.
"""

import json
import statistics
import time

from workloads import PHYSICS

SIZES = (128, 256, 512)
XI = 1.0
REPEATS = 3


def timed(fn, repeats=1):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times), out


def main():
    from rtmodes import assemble, growth_rate, load_config, smallest_eig

    out = {}
    for n in SIZES:
        cfg = load_config(None, [f"{k}={v!r}" for k, v in PHYSICS.items()]
                          + [f"mesh.elements_per_side={n}"])
        profile, mesh = cfg.profile(), cfg.mesh()
        t_asm, forms = timed(lambda: assemble(profile, mesh, XI), REPEATS)
        t_rate, mode = timed(lambda: growth_rate(profile, mesh, XI))
        t_eig, _ = timed(lambda: smallest_eig(forms, mode.lam), REPEATS)
        out[f"ladder.n{n}.assemble_s"] = t_asm
        out[f"ladder.n{n}.smallest_eig_s"] = t_eig
        out[f"ladder.n{n}.growth_rate_s"] = t_rate
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
