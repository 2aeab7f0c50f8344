"""Shared fixtures: small configurations and kernels that simulate quickly."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

from repro.config import APRESConfig, CacheConfig, DRAMConfig, GPUConfig
from repro.isa.address import BroadcastAddress, StridedAddress
from repro.isa.instructions import alu, load, store
from repro.isa.program import KernelSpec

GB = 1 << 30


@pytest.fixture(autouse=True)
def _isolated_registry(tmp_path_factory, monkeypatch):
    """Keep CLI/benchmark registry ingestion out of the working tree.

    Commands like ``repro run`` auto-ingest into bench_results/registry
    relative to the CWD; tests must never touch that store.
    """
    monkeypatch.setenv(
        "REPRO_REGISTRY_DIR", str(tmp_path_factory.mktemp("registry"))
    )


def make_config(
    num_sms: int = 1,
    max_warps: int = 8,
    l1_bytes: int = 4 * 1024,
    mshrs: int = 16,
) -> GPUConfig:
    """A shrunken GPU that keeps unit tests fast but exercises every path."""
    return GPUConfig(
        num_sms=num_sms,
        max_warps_per_sm=max_warps,
        l1=CacheConfig(size_bytes=l1_bytes, associativity=4, num_mshrs=mshrs),
        l2=CacheConfig(
            size_bytes=64 * 1024,
            associativity=8,
            hit_latency=50,
            num_mshrs=32,
            num_banks=4,
            service_cycles=2,
        ),
        dram=DRAMConfig(num_partitions=4, latency=100, service_cycles=4),
        max_cycles=2_000_000,
    )


@pytest.fixture
def tiny_config() -> GPUConfig:
    return make_config()


@pytest.fixture
def two_sm_config() -> GPUConfig:
    return make_config(num_sms=2)


def streaming_kernel(iterations: int = 10, waves: int = 1) -> KernelSpec:
    """Every warp walks its own fresh lines: all misses, no reuse."""
    gen = StridedAddress(1 * GB, warp_stride=4096, iter_stride=128,
                         footprint_bytes=64 << 20)
    return KernelSpec(
        "stream",
        [load(0x10, gen), alu(0x18), alu(0x20)],
        iterations,
        waves=waves,
    )


def broadcast_kernel(iterations: int = 10) -> KernelSpec:
    """All warps read the same small region: hits after the first touch."""
    gen = BroadcastAddress(2 * GB, region_bytes=1024)
    return KernelSpec("bcast", [load(0x10, gen), alu(0x18)], iterations)


def mixed_kernel(iterations: int = 10) -> KernelSpec:
    """One broadcast load, one streaming load, one store."""
    hot = BroadcastAddress(2 * GB, region_bytes=1024)
    cold = StridedAddress(3 * GB, warp_stride=8192, iter_stride=128,
                          footprint_bytes=64 << 20)
    st = StridedAddress(4 * GB, warp_stride=128, iter_stride=2048)
    return KernelSpec(
        "mixed",
        [load(0x10, hot), alu(0x18), load(0x20, cold), alu(0x28), store(0x30, st)],
        iterations,
    )


@pytest.fixture
def stream_kernel() -> KernelSpec:
    return streaming_kernel()


@pytest.fixture
def bcast_kernel() -> KernelSpec:
    return broadcast_kernel()


@pytest.fixture
def mix_kernel() -> KernelSpec:
    return mixed_kernel()


@pytest.fixture
def apres_cfg() -> APRESConfig:
    return APRESConfig()


def concrete_plugin_classes(base: type, package: str) -> set[type]:
    """Every non-abstract subclass of ``base`` defined under ``package``.

    Imports each module of the package first, so a class in a module the
    registry never imports is still found.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)
    found: set[type] = set()
    pending = [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if (sub.__module__.startswith(f"{package}.")
                    and not inspect.isabstract(sub)):
                found.add(sub)
    return found
