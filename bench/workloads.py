"""Seeded workload generators for the vortexlab benchmark.

Each workload turns a seed into one strict-JSON ``solve`` config.  Vortex
positions are the only seeded input: each vortex lies uniformly within
``jitter`` of its place in a fixed layout.  The domain, grid, couplings and
layout are fixed per workload, so that every seed does about the same work
and the spread of a timing over seeds measures the program, not the seed.
With positions uniform over the cell, the last Newton residual of
``torus_fields`` fell just above or just below ``tol_residual`` (1e-10)
depending on the seed, giving 5 or 6 steps and 36 to 53 CG iterations.
From its layout, over seeds 100-109, the residual is about 1e-7 after the
fourth step and 2e-11 after the fifth, both far from that edge.

Torus configs are checked against the existence threshold before any
timing, so a bad seed fails here and never shows up as a solver failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

P, Q = 1.0, 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "torus" or "plane"
    n: int  # grid nodes per side
    extent: float  # torus cell side, or plane truncation half-width R
    up: tuple  # layout of the +1 vortices, (x, y) each
    down: tuple  # layout of the -1 vortices
    jitter: float  # each coordinate moves uniformly within +-jitter
    emit_fields: bool  # run as `solve --emit-fields`


TAU = 2.0 * math.pi

WORKLOADS = {
    w.name: w
    for w in (
        # nx = 512: 510 interior nodes make the DST-I length 511 = 7*73 slow
        Workload("plane_cliff", "plane", 512, 9.0,
                 up=((-0.75, -0.5), (0.75, -0.5)), down=((0.0, 0.75),),
                 jitter=0.25, emit_fields=False),
        # the .fld writer, and a pure quadratic Newton tail on FFT transforms
        Workload("torus_fields", "torus", 512, TAU,
                 up=((0.25 * TAU, 0.25 * TAU), (0.75 * TAU, 0.75 * TAU)),
                 down=((0.25 * TAU, 0.75 * TAU),), jitter=0.15, emit_fields=True),
    )
}


def _positions(rng: random.Random, layout: tuple, jitter: float) -> list[list]:
    return [[x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter), 1]
            for x, y in layout]


def make_config(name: str, seed: int, n: int | None = None) -> dict:
    """Config for workload ``name`` and ``seed``; ``n`` overrides the grid size."""
    w = WORKLOADS[name]
    n = w.n if n is None else n
    rng = random.Random(f"{name}:{seed}")
    up = _positions(rng, w.up, w.jitter)
    down = _positions(rng, w.down, w.jitter)
    if w.kind == "torus":
        domain = {"kind": "torus", "L1": w.extent, "L2": w.extent}
    else:
        domain = {"kind": "plane", "R": w.extent}
    return {
        "p": P,
        "q": Q,
        "domain": domain,
        "grid": {"nx": n, "ny": n},
        "vortices": {"up": up, "down": down},
    }


def check_feasible(config: dict) -> None:
    """Raise ValueError unless a torus config lies above the existence threshold."""
    from vortexlab.model import check_admissibility, coupling_from_pq

    dom = config["domain"]
    if dom["kind"] != "torus":
        return
    k = coupling_from_pq(config["p"], config["q"])
    n1 = sum(m for _, _, m in config["vortices"]["up"])
    n2 = sum(m for _, _, m in config["vortices"]["down"])
    report = check_admissibility(k, n1, n2, dom["L1"] * dom["L2"])
    if not report.feasible:
        raise ValueError(f"generated config is infeasible: threshold {report.threshold}")
