"""The benchmark's four workloads and their seeded inputs.

A library workload is a list of simulation points one process runs in
order; ``fig10_cli`` is one invocation of the command-line figure
regeneration. Why each workload exists is recorded in ``BENCHMARK.json``.

Scales are loop-trip multipliers, chosen from the simulated traffic first:
below them, L1 miss rates and inert-cycle shares drift away from the
users' default scale of 0.5 (at 0.05, KM's 32 KB and 32 MB runs are even
identical). The 2-SM workloads run at 0.5 itself. One 15-SM point at 0.5
takes 6-9 s, so ``fig2_15sm`` runs at 0.25, where KM's 32 KB run has the
miss rate and inert share it has at 0.5. Several passes must fit in one
run, so the time budget is met by running fewer apps, not smaller
kernels. The README records every point's miss rate. The program is
imported only where a kernel is built, so ``run.py`` can import this
module without it.

``--seed 0`` builds exactly the suite's kernels. Any other seed moves every
address generator's base by ``7 * seed`` cache lines (which changes the set
mapping of strided loads too) and mixes the seed into the hash seed of the
irregular and indirect generators. The simulator only ever receives the
built :class:`~repro.isa.program.KernelSpec`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from tracer import KB, MB, l1_label

#: Lines the address generators' bases move per seed step.
SEED_SHIFT_LINES = 7
#: Odd multiplier spreading consecutive seeds over the 16-bit hash-seed space
#: (``IrregularAddress`` shifts its seed left by 48 bits).
SEED_HASH_MIX = 0x9E37

APPS6 = ("BFS", "KM", "LUD", "SRAD", "SPMV", "CS")
#: Strided thrashing, irregular gathers and a streaming stencil: one app of
#: each kind the schedulers and stride prefetchers react to differently.
GRID_APPS = ("KM", "SPMV", "SRAD")


@dataclass(frozen=True)
class Point:
    """One simulation: an app under a named configuration on one machine."""

    app: str
    config: str
    num_sms: int
    l1_bytes: int = 32 * KB

    @property
    def key(self) -> str:
        return f"{self.app}/{self.config}/{self.num_sms}sm/{l1_label(self.l1_bytes)}"


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    #: Library workloads: the points one pass simulates, in order.
    points: tuple[Point, ...] = ()
    #: CLI workloads: the ``repro`` arguments one pass runs, less ``--scale``.
    cli: Optional[tuple[str, ...]] = None

    @property
    def is_cli(self) -> bool:
        return self.cli is not None


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("fig2_15sm", 0.25, points=tuple(
        Point("KM", "base", 15, l1) for l1 in (32 * KB, 32 * MB))),
    Workload("apres_2sm", 0.5, points=tuple(Point(app, "apres", 2) for app in APPS6)),
    Workload("sched_pf_grid", 0.5, points=tuple(
        Point(app, cfg, 2) for cfg in ("ccws+str", "gto+sld") for app in GRID_APPS)),
    Workload("fig10_cli", 0.5, cli=("figure", "10", "--apps", "KM", "--jobs", "1")),
)}


def cli_argv(wl: Workload, scale: float) -> list[str]:
    """The argument vector one pass of a CLI workload hands ``repro.cli.main``."""
    return [*wl.cli, "--scale", str(scale)]


def _seeded_generator(gen, seed: int):
    from repro.config import LINE_SIZE
    from repro.isa.address import IndirectAddress, IrregularAddress

    changes = {"base": gen.base + seed * SEED_SHIFT_LINES * LINE_SIZE}
    if isinstance(gen, (IrregularAddress, IndirectAddress)):
        changes["seed"] = (gen.seed + seed * SEED_HASH_MIX) & 0xFFFF
    return dataclasses.replace(gen, **changes)


def seeded_kernel(app: str, scale: float, seed: int):
    """Build ``app``'s :class:`~repro.isa.program.KernelSpec` for ``seed``.

    Seed 0 gives exactly ``build_kernel(workload(app), scale)``.
    """
    from repro.workloads import build_kernel, workload

    spec = workload(app)
    if seed:
        loads = tuple(dataclasses.replace(l, gen=_seeded_generator(l.gen, seed))
                      for l in spec.loads)
        store = spec.store
        if store is not None:
            store = dataclasses.replace(store, gen=_seeded_generator(store.gen, seed))
        spec = dataclasses.replace(spec, loads=loads, store=store)
    return build_kernel(spec, scale)
