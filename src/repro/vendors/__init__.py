"""Simulated vendor profiling backends (Compute Sanitizer, NVBit, ROCProfiler).

These stand in for the low-level vendor profiling libraries PASTA builds on:
NVIDIA Compute Sanitizer APIs, NVIDIA NVBit, and AMD ROCProfiler-SDK.  Each
backend subscribes to a simulated runtime and re-emits runtime activity as
vendor-style callbacks that PASTA's event handler consumes.  No module outside
this package names a backend class or reads a vendor callback id: the handler
reads each callback's kind (:data:`CALLBACK_KINDS`), so a plugin backend (a
``pasta.vendors`` entry point) needs nothing but its own module.
"""

from repro.vendors.base import CALLBACK_KINDS, ProfilingBackend, VendorCallback, VendorCallbackFn
from repro.vendors.compute_sanitizer import SANITIZER_INSTRUMENTABLE, ComputeSanitizerBackend
from repro.vendors.nvbit import NvbitBackend
from repro.vendors.rocprofiler import ROCPROFILER_INSTRUMENTABLE, RocprofilerBackend

from repro.errors import VendorError
from repro.gpusim.device import Vendor

#: Built-in backend factories seeded into the ``vendors`` registry namespace.
BUILTIN_BACKENDS = {
    "compute_sanitizer": ComputeSanitizerBackend,
    "nvbit": NvbitBackend,
    "rocprofiler": RocprofilerBackend,
}

#: Short-name aliases accepted alongside the canonical names above.
BACKEND_ALIASES = {"sanitizer": "compute_sanitizer"}


def create_backend(name: str) -> ProfilingBackend:
    """Instantiate a profiling backend by name from the vendor registry."""
    # Imported lazily: the registry seeds itself from this module, so a
    # module-level import would be cyclic.
    from repro.core.registry import REGISTRY

    return REGISTRY.create("vendors", name)  # type: ignore[return-value]


def default_backend_for_vendor(vendor: Vendor) -> ProfilingBackend:
    """Return the default profiling backend for a device vendor.

    NVIDIA devices default to Compute Sanitizer (the paper's recommended
    lightweight path); AMD devices use ROCProfiler-SDK.
    """
    if vendor is Vendor.NVIDIA:
        return ComputeSanitizerBackend()
    if vendor is Vendor.AMD:
        return RocprofilerBackend()
    raise VendorError(f"no profiling backend available for vendor {vendor!r}")


__all__ = [
    "BACKEND_ALIASES",
    "BUILTIN_BACKENDS",
    "CALLBACK_KINDS",
    "ComputeSanitizerBackend",
    "NvbitBackend",
    "ProfilingBackend",
    "ROCPROFILER_INSTRUMENTABLE",
    "RocprofilerBackend",
    "SANITIZER_INSTRUMENTABLE",
    "VendorCallback",
    "VendorCallbackFn",
    "create_backend",
    "default_backend_for_vendor",
]
