"""Calibrated device profiles for the paper's three testbeds (§V).

The absolute constants are order-of-magnitude realistic (FP32 GEMM
throughput, HBM/DDR bandwidth) but what matters for reproducing the
paper's *shapes* is the relative structure:

- dense throughput grows much faster than sparse throughput or bandwidth
  from CPU → A100 → H100, so dense-heavy compositions win progressively
  more often on newer hardware (§VI-C1 "Difference Across Hardware");
- the A100 has the harshest atomics penalty (binning on dense graphs),
  the H100 a much milder one (improved L2 atomics), producing the paper's
  10× WiseGraph-GCN win on A100 vs 1.5× on H100;
- the CPU has the largest measurement noise (Figures 8(v)-(x)).
"""

from __future__ import annotations

from typing import Dict, List

from .device import Device, DeviceProfile

__all__ = ["DEVICE_PROFILES", "get_device", "all_devices", "DEVICE_NAMES"]

DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "cpu": DeviceProfile(
        name="cpu",
        dense_throughput=2.0e11,
        sparse_throughput=2.0e10,
        bandwidth=8.0e10,
        kernel_overhead=2.0e-6,
        atomic_scale=400.0,  # serial bincount: only extreme density hurts
        atomic_exp=0.6,
        skew_coeff=0.3,
        noise_sigma=0.10,
    ),
    "a100": DeviceProfile(
        name="a100",
        dense_throughput=1.8e13,
        sparse_throughput=3.5e11,
        bandwidth=1.5e12,
        kernel_overhead=3.0e-6,
        atomic_scale=1.0,  # atomics degrade quickly once bins are hot
        atomic_exp=1.1,
        skew_coeff=1.0,
        noise_sigma=0.04,
        atomic_base=8.0,  # even uncontended GPU atomics serialise badly
    ),
    "h100": DeviceProfile(
        name="h100",
        dense_throughput=6.0e13,
        sparse_throughput=8.0e11,
        bandwidth=3.2e12,
        kernel_overhead=3.0e-6,
        atomic_scale=8.0,  # much-improved L2 atomics
        atomic_exp=0.9,
        atomic_base=2.0,
        skew_coeff=0.5,
        noise_sigma=0.04,
    ),
}

DEVICE_NAMES = tuple(DEVICE_PROFILES)

_DEVICES: Dict[str, Device] = {}


def get_device(name: str) -> Device:
    """Look up (and cache) a device by name: 'cpu', 'a100' or 'h100'."""
    name = name.lower()
    if name not in DEVICE_PROFILES:
        raise KeyError(f"unknown device {name!r}; choices: {DEVICE_NAMES}")
    if name not in _DEVICES:
        _DEVICES[name] = Device(DEVICE_PROFILES[name])
    return _DEVICES[name]


def all_devices() -> List[Device]:
    return [get_device(name) for name in DEVICE_NAMES]
