"""Execution context tying the framework substrate to a simulated device.

A :class:`FrameworkContext` is the substrate's equivalent of a PyTorch CUDA
device context: it owns the caching allocator, the callback registry, the
backend profile, and the operator/module scope stacks, and it is the single
place where operators allocate tensors and launch kernels.  Everything PASTA
observes about a DL workload flows through this object:

* tensor allocations/reclamations → allocator callbacks → framework events,
* operator start/end → callback registry → framework events,
* kernel launches / memcpys / syncs → runtime → vendor backends → low-level
  events.

The context's memory is ordinary device memory, so nothing pages while a
workload runs; the UVM prefetching study replays the profiled kernel schedule
afterwards (:mod:`repro.tools.uvm_prefetch`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.dlframework.allocator import CachingAllocator
from repro.dlframework.backend import BackendProfile, backend_for_device
from repro.dlframework.callbacks import FrameworkCallbackRegistry
from repro.dlframework.tensor import DType, Tensor
from repro.gpusim.kernel import GridConfig, KernelArgument, KernelLaunch, estimate_kernel_duration_ns
from repro.gpusim.runtime import AcceleratorRuntime, MemcpyKind


@dataclass(frozen=True)
class TensorUse:
    """How one kernel uses one tensor (the operator-level access declaration)."""

    tensor: Tensor
    accessed_fraction: float = 1.0
    is_read: bool = True
    is_written: bool = False
    accesses_per_byte: float = 0.25

    def to_kernel_argument(self) -> KernelArgument:
        """Lower to the simulator's :class:`KernelArgument`."""
        return KernelArgument(
            address=self.tensor.address,
            size=self.tensor.nbytes,
            accessed_fraction=self.accessed_fraction,
            is_read=self.is_read,
            is_written=self.is_written,
            accesses_per_byte=self.accesses_per_byte,
            label=self.tensor.name or f"tensor-{self.tensor.tensor_id}",
        )


def read(tensor: Tensor, fraction: float = 1.0, intensity: float = 0.25) -> TensorUse:
    """Declare a read-only use of ``tensor``."""
    return TensorUse(tensor, accessed_fraction=fraction, is_read=True, is_written=False,
                     accesses_per_byte=intensity)


def write(tensor: Tensor, fraction: float = 1.0, intensity: float = 0.25) -> TensorUse:
    """Declare a write-only use of ``tensor``."""
    return TensorUse(tensor, accessed_fraction=fraction, is_read=False, is_written=True,
                     accesses_per_byte=intensity)


def readwrite(tensor: Tensor, fraction: float = 1.0, intensity: float = 0.5) -> TensorUse:
    """Declare a read-modify-write use of ``tensor``."""
    return TensorUse(tensor, accessed_fraction=fraction, is_read=True, is_written=True,
                     accesses_per_byte=intensity)


def unused(tensor: Tensor) -> TensorUse:
    """Declare a tensor passed to a kernel but never referenced.

    This models arguments like unused workspace buffers — the case the paper's
    working-set tool must exclude from the working set.
    """
    return TensorUse(tensor, accessed_fraction=0.0, is_read=False, is_written=False,
                     accesses_per_byte=0.0)


class FrameworkContext:
    """Device execution context for the simulated DL framework.

    Parameters
    ----------
    runtime:
        Simulated runtime to execute on.
    backend:
        Lowering behaviour; defaults to the backend matching the runtime vendor.
    """

    def __init__(
        self,
        runtime: AcceleratorRuntime,
        backend: Optional[BackendProfile] = None,
    ) -> None:
        self.runtime = runtime
        self.backend = backend or backend_for_device(runtime.device.spec)
        self.allocator = CachingAllocator(runtime, profile=self.backend.allocator_profile)
        self.callbacks = FrameworkCallbackRegistry()
        self.allocator.register_callback(self.callbacks.emit_memory)
        #: Stack of module scope names (outermost first), e.g.
        #: ``["BertModel", "encoder", "layer.0", "attention"]``.
        self._module_scopes: list[str] = []
        #: (scope stack, script frames) -> rendered python stack.
        self._python_stack_cache: dict[tuple, tuple[str, ...]] = {}
        #: Stack of operator names currently executing.
        self._op_stack: list[str] = []
        self._kernel_counts: list[int] = []
        self.kernel_launch_count = 0
        #: Script-level frames prefixed to synthesised Python stacks.
        self.script_frames: tuple[str, ...] = (
            "examples/run_model.py:177 def <module>()",
            "examples/run_model.py:146 def run_model()",
        )
        #: Non-parameter tensors allocated since the last release_transients().
        self._transient_tensors: list[Tensor] = []

    # ------------------------------------------------------------------ #
    # tensor allocation
    # ------------------------------------------------------------------ #
    def alloc(
        self,
        shape: Sequence[int],
        dtype: DType = DType.FLOAT32,
        name: str = "",
        is_parameter: bool = False,
        requires_grad: bool = False,
    ) -> Tensor:
        """Allocate a tensor through the caching allocator."""
        tensor = self.allocator.allocate_tensor(
            tuple(shape), dtype=dtype, name=name,
            is_parameter=is_parameter, requires_grad=requires_grad,
        )
        if not is_parameter:
            self._transient_tensors.append(tensor)
        return tensor

    def alloc_like(self, tensor: Tensor, name: str = "") -> Tensor:
        """Allocate a tensor with the same shape/dtype as ``tensor``."""
        return self.alloc(tensor.shape, dtype=tensor.dtype, name=name)

    def free(self, tensor: Tensor) -> None:
        """Release a tensor's storage."""
        if tensor.block_id is not None and not tensor.freed:
            self.allocator.free_tensor(tensor)

    def free_all(self, tensors: Sequence[Tensor]) -> None:
        """Release several tensors (ignoring already-freed ones)."""
        self.allocator.free_tensors(tensors)

    def release_transients(self) -> int:
        """Free every still-live non-parameter tensor allocated so far.

        The execution engine calls this between iterations so activations and
        other temporaries do not accumulate across steps (mirroring Python
        reference-count reclamation at the end of a training step).  Returns
        the number of tensors released.
        """
        released = 0
        for tensor in self._transient_tensors:
            if tensor.block_id is not None and not tensor.freed:
                self.allocator.free_tensor(tensor)
                released += 1
        self._transient_tensors = []
        return released

    # ------------------------------------------------------------------ #
    # scopes and operator boundaries
    # ------------------------------------------------------------------ #
    @contextmanager
    def module_scope(self, name: str) -> Iterator[None]:
        """Push a module name onto the scope stack (used by ``Module.__call__``)."""
        self._module_scopes.append(name)
        try:
            yield
        finally:
            self._module_scopes.pop()

    @property
    def current_scope(self) -> str:
        """Dotted path of the current module scope."""
        return ".".join(self._module_scopes)

    def current_python_stack(self) -> tuple[str, ...]:
        """Synthesised Python-level call stack (innermost frame first).

        On real hardware PASTA captures this with the CPython ``PyFrame`` API;
        here it is reconstructed from the module scope stack so the
        cross-layer call-stack feature (Figure 4) has realistic content.
        The same scope stack recurs for every launch of a layer across
        iterations, so rendered stacks are memoised.
        """
        key = (tuple(self._module_scopes), tuple(self.script_frames))
        cached = self._python_stack_cache.get(key)
        if cached is not None:
            return cached
        frames = [
            "torch/nn/modules/module.py:1518 def _wrapped_call_impl()",
            "torch/nn/modules/module.py:1527 def _call_impl()",
        ]
        for depth, scope in enumerate(reversed(self._module_scopes)):
            frames.append(f"model/{scope.replace('.', '/')}.py:{16 + depth} def forward()")
        frames.extend(reversed(self.script_frames))
        stack = tuple(frames)
        self._python_stack_cache[key] = stack
        return stack

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """Operator boundary: emits RecordFunction-style start/end events."""
        op_id = self.callbacks.new_operator_id()
        self._op_stack.append(name)
        self._kernel_counts.append(0)
        self.callbacks.emit_operator(
            op_id=op_id,
            name=name,
            phase="start",
            device_index=self.runtime.device.index,
            scope=self.current_scope,
            python_stack=self.current_python_stack(),
        )
        try:
            yield
        finally:
            kernel_count = self._kernel_counts.pop()
            self._op_stack.pop()
            if self._kernel_counts:
                self._kernel_counts[-1] += kernel_count
            self.callbacks.emit_operator(
                op_id=op_id,
                name=name,
                phase="end",
                device_index=self.runtime.device.index,
                scope=self.current_scope,
                kernel_count=kernel_count,
                python_stack=self.current_python_stack(),
            )

    @property
    def current_op(self) -> str:
        """Name of the innermost operator currently executing ('' outside ops)."""
        return self._op_stack[-1] if self._op_stack else ""

    # ------------------------------------------------------------------ #
    # kernel launches and data movement
    # ------------------------------------------------------------------ #
    def launch(
        self,
        kernel_name: str,
        uses: Sequence[TensorUse],
        flops: float = 0.0,
        grid_elements: Optional[int] = None,
        stream_id: int = 0,
    ) -> KernelLaunch:
        """Launch a kernel that uses the given tensors.

        Duration follows a roofline estimate from ``flops`` and the bytes the
        kernel actually references on the current device.
        """
        args = [use.to_kernel_argument() for use in uses]
        bytes_moved = sum(arg.referenced_bytes for arg in args)
        spec = self.runtime.device.spec
        duration = estimate_kernel_duration_ns(
            flop_count=flops,
            bytes_moved=bytes_moved,
            device_tflops=self._device_tflops(),
            device_bandwidth_gbs=spec.memory_bandwidth_gbs,
            launch_overhead_ns=self.backend.kernel_launch_overhead_ns,
        )
        elements = grid_elements if grid_elements is not None else max(1, bytes_moved // 4)
        grid = GridConfig.for_elements(min(elements, 1 << 22))
        launch = self.runtime.launch_kernel(
            kernel_name=kernel_name,
            grid_config=grid,
            arguments=args,
            duration_ns=duration,
            stream_id=stream_id,
            op_context=self.current_op,
        )
        self.kernel_launch_count += 1
        if self._kernel_counts:
            self._kernel_counts[-1] += 1
        return launch

    def _device_tflops(self) -> float:
        spec = self.runtime.device.spec
        # Rough FP32 FMA throughput: 2 flops x 64 lanes per SM per clock.
        return spec.sm_count * 64 * 2 * spec.core_clock_mhz * 1e6 / 1e12

    def copy_to_device(self, tensor: Tensor) -> None:
        """Host-to-device copy of a tensor's storage (input staging)."""
        self.runtime.memcpy(tensor.nbytes, MemcpyKind.HOST_TO_DEVICE, dst_address=tensor.address)

    def copy_to_host(self, tensor: Tensor) -> None:
        """Device-to-host copy of a tensor's storage (result readback)."""
        self.runtime.memcpy(tensor.nbytes, MemcpyKind.DEVICE_TO_HOST, src_address=tensor.address)

    def synchronize(self) -> None:
        """Device-wide synchronisation."""
        self.runtime.synchronize()
