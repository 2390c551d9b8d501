"""Multi-GPU device sets and the process/injection model.

Section IV-D of the paper discusses two multi-GPU concerns PASTA handles:

1. Events must be attributed to the correct GPU via the device index exposed by
   the vendor profiling APIs.  Here, a :class:`DeviceSet` owns one runtime per
   device, and every event already carries its ``device_index``.
2. Multi-GPU launchers spawn auxiliary helper processes (e.g. Megatron-LM's JIT
   compilation workers) that never create a CUDA context.  Injecting the
   profiler via ``LD_PRELOAD`` instruments them anyway, producing noise and
   sometimes errors; PASTA instead uses ``CUDA_INJECTION64_PATH`` so only
   processes that initialise a context get instrumented.  The
   :class:`ProcessModel` reproduces that selection logic so it can be tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.errors import DeviceError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.runtime import AcceleratorRuntime, create_runtime


class InjectionMethod(str, Enum):
    """How the profiler shared library is injected into application processes."""

    LD_PRELOAD = "ld_preload"
    CUDA_INJECTION64_PATH = "cuda_injection64_path"


@dataclass
class SimulatedProcess:
    """One OS process in a multi-GPU launch."""

    pid: int
    name: str
    #: Whether the process ever initialises a CUDA/HIP context.  Auxiliary
    #: helpers (JIT compilers, data loaders) do not.
    creates_gpu_context: bool
    instrumented: bool = False


class ProcessModel:
    """Decides which processes the profiler attaches to, per injection method."""

    def __init__(self, injection: InjectionMethod = InjectionMethod.CUDA_INJECTION64_PATH) -> None:
        self.injection = injection
        self.processes: list[SimulatedProcess] = []
        self._next_pid = 1000

    def spawn(self, name: str, creates_gpu_context: bool) -> SimulatedProcess:
        """Spawn a process and apply the injection rule."""
        proc = SimulatedProcess(pid=self._next_pid, name=name, creates_gpu_context=creates_gpu_context)
        self._next_pid += 1
        if self.injection is InjectionMethod.LD_PRELOAD:
            proc.instrumented = True
        else:
            proc.instrumented = creates_gpu_context
        self.processes.append(proc)
        return proc

    def instrumented_processes(self) -> list[SimulatedProcess]:
        """Processes the profiler actually attached to."""
        return [p for p in self.processes if p.instrumented]

    def spurious_instrumentations(self) -> list[SimulatedProcess]:
        """Instrumented processes that never create a GPU context (pure noise)."""
        return [p for p in self.processes if p.instrumented and not p.creates_gpu_context]


class DeviceSet:
    """A group of simulated GPUs used by one multi-GPU job."""

    def __init__(self, specs: Sequence[DeviceSpec]) -> None:
        if not specs:
            raise DeviceError("a DeviceSet needs at least one device")
        self.runtimes: list[AcceleratorRuntime] = [create_runtime(spec) for spec in specs]

    def __len__(self) -> int:
        return len(self.runtimes)

    def __getitem__(self, rank: int) -> AcceleratorRuntime:
        return self.runtimes[rank]

    def __iter__(self):
        return iter(self.runtimes)

    @property
    def device_indices(self) -> list[int]:
        """Global device indices of the runtimes in this set."""
        return [rt.device.index for rt in self.runtimes]

    def rank_of_device_index(self, device_index: int) -> int:
        """Map a global device index back to the local rank within the set."""
        for rank, rt in enumerate(self.runtimes):
            if rt.device.index == device_index:
                return rank
        raise DeviceError(f"device index {device_index} is not part of this DeviceSet")

    def synchronize_all(self) -> None:
        """Synchronise every device in the set."""
        for rt in self.runtimes:
            rt.synchronize()
