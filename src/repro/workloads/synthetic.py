"""Lowering a :class:`WorkloadSpec` into an executable kernel."""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.address import AddressGenerator
from repro.isa.instructions import Instr, alu, load, store
from repro.isa.program import KernelSpec
from repro.workloads.spec import WorkloadSpec

#: PC region where generated ALU instructions live (clear of load PCs).
_ALU_PC_BASE = 0x100000


@dataclass(frozen=True)
class SubstepAddress(AddressGenerator):
    """Advance an inner generator ``total`` steps per outer iteration.

    Occurrence ``k`` of a weighted load sees effective iteration
    ``iteration * total + k``, so repeated occurrences stream forward the
    way a real inner loop would.
    """

    inner: AddressGenerator
    step: int
    total: int

    def addresses(self, warp: int, iteration: int) -> list[int]:
        return self.inner.addresses(warp, iteration * self.total + self.step)

    def primary_address(self, warp: int, iteration: int) -> int:
        return self.inner.primary_address(warp, iteration * self.total + self.step)

    def coalesced(self, warp: int, iteration: int, line_size: int) -> tuple[int, tuple[int, ...]]:
        return self.inner.coalesced(
            warp, iteration * self.total + self.step, line_size
        )


def build_kernel(spec: WorkloadSpec, scale: float = 1.0) -> KernelSpec:
    """Produce the kernel a warp executes for this workload.

    ``scale`` multiplies the loop trip count (used to shrink simulations
    for unit tests); address patterns are unchanged.
    """
    body: list[Instr] = []
    alu_pc = _ALU_PC_BASE
    for load_spec in spec.loads:
        for k in range(load_spec.weight):
            if load_spec.weight > 1 and load_spec.substep:
                gen: AddressGenerator = SubstepAddress(load_spec.gen, k, load_spec.weight)
            else:
                gen = load_spec.gen
            body.append(load(load_spec.pc, gen, label=load_spec.name))
            for _ in range(spec.alu_per_load):
                body.append(alu(alu_pc))
                alu_pc += 8
    if spec.store is not None:
        body.append(store(spec.store.pc, spec.store.gen, label=spec.store.name))
    iterations = max(1, round(spec.iterations * scale))
    return KernelSpec(
        spec.abbr, body, iterations, waves=spec.waves, fresh_waves=spec.fresh_waves
    )
